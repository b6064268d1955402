import gc
import importlib.util
import inspect
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import gmlab
from gmlab import cli, fio, seq_algebra, serialize, verify
from gmlab.cli import (
    EXIT_CONFIG,
    EXIT_NOT_INVERTIBLE,
    EXIT_OK,
    EXIT_TOLERANCE,
    EXIT_VANISHING_FOURIER,
    OPTIONS,
    main,
)
from gmlab.presets import resolve_field, resolve_sequence, resolve_symbol, resolve_window
from gmlab.weyl import weyl_quantize


def read_report(out_dir):
    with open(os.path.join(out_dir, "report.json")) as fh:
        return json.load(fh)


def test_verify_passes(tmp_path):
    out = str(tmp_path / "run")
    code = main(["verify", "--N", "7", "--q", "0.5", "--s", "1", "--out", out, "--seed", "1"])
    assert code == EXIT_OK
    report = read_report(out)
    assert report["results"]["all_passed"] is True
    assert report["results"]["suite_count"] == len(report["results"]["suites"])
    for suite in report["results"]["suites"]:
        assert suite["passed"], suite


SUITE_CHECKS = {  # all but metaplectic, whose count depends on N
    "amalgam_basic": 3, "cb_algebra": 17, "cb_solidity": 15, "fio_adjoint": 3,
    "fio_factorize": 3, "frame_tight": 6, "seq_fourier_inverse": 6, "seq_hoelder": 40,
    "seq_inclusion": 40, "seq_neumann": 10, "seq_qtriangle": 40, "seq_young": 40,
    "weyl_commutation": 10, "weyl_duality": 10, "weyl_roundtrip": 5,
}


@pytest.mark.parametrize("N, metaplectic_checks", [(3, 24), (5, 120), (7, 30)])
def test_verify_suite_checks(tmp_path, N, metaplectic_checks):
    """Suite names and check counts; at N <= 5 `metaplectic` sweeps all of SL(2, Z_N)."""
    out = str(tmp_path / "run")
    assert main(["verify", "--N", str(N), "--out", out]) == EXIT_OK
    expected = sorted({**SUITE_CHECKS, "metaplectic": metaplectic_checks}.items())
    suites = read_report(out)["results"]["suites"]
    assert [(r["name"], r["checks"]) for r in suites] == expected


def test_verify_failing_suite_exits_tolerance(tmp_path, monkeypatch, capsys):
    """One suite in place of the first: its registration appends it to the patched list."""
    monkeypatch.setattr(verify, "ALL_SUITES", verify.ALL_SUITES[1:])

    @verify._suite(99)
    def suite_always_fails(N, p, rng):
        yield 0.0
        yield 1.0

    out = str(tmp_path / "run")
    assert main(["verify", "--N", "5", "--out", out]) == EXIT_TOLERANCE
    results = read_report(out)["results"]
    assert results["all_passed"] is False
    assert results["suite_count"] == len(verify.ALL_SUITES) == 16
    failed = [r for r in results["suites"] if not r["passed"]]
    assert failed == [
        {"name": "always_fails", "passed": False, "checks": 2, "max_violation": 1.0}
    ]
    assert "FAIL  always_fails  checks=2  max_violation=1.000e+00" in capsys.readouterr().out


def test_seq_invert_default(tmp_path):
    out = str(tmp_path / "run")
    code = main(["seq-invert", "--out", out])
    assert code == EXIT_OK
    report = read_report(out)
    assert report["results"]["residual_l1"] < 1e-8
    assert report["results"]["support_size"] > 10


def test_seq_invert_vanishing_exit_code(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {"sequence": {"dim": 1, "entries": [[[0], 1.0, 0.0], [[1], -1.0, 0.0]]}}
        )
    )
    code = main(["seq-invert", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == EXIT_VANISHING_FOURIER


def test_envelope_writes_csv(tmp_path):
    out = str(tmp_path / "run")
    code = main(
        ["envelope", "--N", "5", "--symbol", "near-identity", "--out", out, "--seed", "3"]
    )
    assert code == EXIT_OK
    report = read_report(out)
    assert report["results"]["tail_fraction"] <= 1.0
    with open(os.path.join(out, "envelope.csv")) as fh:
        lines = fh.read().strip().split("\n")
    assert lines[0] == "mu_k,mu_l,value"
    assert len(lines) == 26  # 25 lattice points + header


def test_envelope_rejects_bad_symplectic(tmp_path):
    out = tmp_path / "o"
    code = main(["envelope", "--N", "5", "--chi", "1,0,0,2", "--out", str(out)])
    assert code == EXIT_CONFIG
    assert not out.exists()  # validation precedes any output


N_COMMANDS = ["gabor-matrix", "envelope", "compose", "invert", "factorize", "verify"]


@pytest.mark.parametrize("command", N_COMMANDS)
@pytest.mark.parametrize("N", [9, 15])
def test_every_n_command_runs_at_composite_n(tmp_path, command, N):
    # b = 3 is not a unit mod 9 or mod 15
    out = str(tmp_path / "o")
    assert main([command, "--N", str(N), "--chi", "1,3,0,1", "--out", out]) == EXIT_OK
    assert read_report(out)["config"]["N"] == N


@pytest.mark.parametrize("command", N_COMMANDS)
@pytest.mark.parametrize("N", [-3, 0, 1, 2, 4])
def test_rejects_a_modulus_that_is_not_odd_and_at_least_3(tmp_path, capsys, command, N):
    out = tmp_path / "o"
    assert main([command, "--N", str(N), "--out", str(out)]) == EXIT_CONFIG
    assert config_error_detail(capsys) == f"modulus must be odd and at least 3, got {N}"
    assert not out.exists()


def test_rejects_bad_q(tmp_path):
    code = main(["verify", "--N", "5", "--q", "1.5", "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG


def test_invert_ill_conditioned_exit_code(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"cond_tol": 1.0}))
    code = main(
        ["invert", "--N", "5", "--config", str(cfg), "--out", str(tmp_path / "o")]
    )
    assert code == EXIT_NOT_INVERTIBLE


def test_gabor_matrix_csv_shape(tmp_path):
    out = str(tmp_path / "run")
    code = main(["gabor-matrix", "--N", "5", "--symbol", "one", "--out", out])
    assert code == EXIT_OK
    with open(os.path.join(out, "gabor_matrix.csv")) as fh:
        lines = fh.read().strip().split("\n")
    assert lines[0] == "mu_k,mu_l,lam_k,lam_l,re,im"
    assert len(lines) == 5**4 + 1


def test_gabor_matrix_size_budget(tmp_path, capsys):
    # 67^4 > MAX_CELLS = 2^24: refused before the matrix is built
    out = tmp_path / "o"
    code = main(["gabor-matrix", "--N", "67", "--out", str(out)])
    assert code == EXIT_CONFIG
    assert "N^4 = 20151121" in config_error_detail(capsys)
    assert not out.exists()


def test_factorize_residuals(tmp_path):
    out = str(tmp_path / "run")
    code = main(
        ["factorize", "--N", "7", "--chi", "0,1,6,0", "--symbol", "near-identity", "--out", out]
    )
    assert code == EXIT_OK
    res = read_report(out)["results"]["residuals"]
    assert res["op_then_mu"] < 1e-9
    assert res["mu_then_op"] < 1e-9
    assert os.path.exists(os.path.join(out, "sigma1.csv"))
    assert os.path.exists(os.path.join(out, "sigma2.csv"))


def test_factorize_draws_a_random_window_before_the_symbol(tmp_path, capsys):
    # factorize uses no window, but a random one still takes the generator's
    # first draws, so a seed gives the symbol every other command gets
    out = tmp_path / "run"
    args = ["factorize", "--window", "random", "--symbol", "random", "--seed", "5"]
    assert main([*args, "--out", str(out)]) == EXIT_OK
    rng = np.random.default_rng(5)
    resolve_window("random", 7, rng)
    T = weyl_quantize(resolve_symbol("random", 7, rng))
    sigma1 = gmlab.factorize_fio(T, np.eye(2, dtype=int))[0]
    assert (out / "sigma1.csv").read_text() == "".join(serialize.field_csv(sigma1))
    # and a window that does not resolve still exits 2
    assert main(["factorize", "--window", "nope", "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "unknown window preset 'nope'" in config_error_detail(capsys)


def test_compose_reports_ratio(tmp_path):
    out = str(tmp_path / "run")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"chi2": [[0, 1], [6, 0]], "symbol2": "one"}))
    code = main(
        ["compose", "--N", "7", "--chi", "1,0,1,1", "--config", str(cfg), "--out", out]
    )
    assert code == EXIT_OK
    assert np.isfinite(read_report(out)["results"]["quasi_norm_ratio"])


def test_amalgam_command(tmp_path):
    out = str(tmp_path / "run")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"R": 4, "samples_per_cell": 8}))
    code = main(["amalgam", "--config", str(cfg), "--q", "1", "--s", "0", "--out", out])
    assert code == EXIT_OK
    results = read_report(out)["results"]
    assert results["conv_embedding_ratio"] > 0
    assert len(results["gl_invariance"]) == 5
    for entry in results["gl_invariance"]:
        assert entry["ratio"] ** 1.0 <= entry["bound"]


def test_deterministic_outputs(tmp_path):
    args = ["envelope", "--N", "5", "--seed", "9", "--symbol", "near-identity"]
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(args + ["--out", out1]) == EXIT_OK
    assert main(args + ["--out", out2]) == EXIT_OK
    with open(os.path.join(out1, "envelope.csv"), "rb") as fh:
        first = fh.read()
    with open(os.path.join(out2, "envelope.csv"), "rb") as fh:
        second = fh.read()
    assert first == second


def test_config_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"N": 9}))  # invalid on its own
    out = str(tmp_path / "run")
    code = main(["envelope", "--config", str(cfg), "--N", "5", "--out", out])
    assert code == EXIT_OK
    assert read_report(out)["config"]["N"] == 5


def test_unknown_command_is_config_error():
    assert main(["tabulate"]) == EXIT_CONFIG


def config_error_detail(capsys) -> str:
    """The detail of the single one-line JSON config diagnostic on stderr."""
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1 and json.loads(err[0])["error"] == "config"
    return json.loads(err[0])["detail"]


# a NaN symbol is rejected at load; a huge finite one overflows in quantization
@pytest.mark.parametrize("value", [math.nan, 1e308], ids=["nan", "huge"])
@pytest.mark.parametrize(
    "command", ["envelope", "compose", "invert", "factorize", "gabor-matrix"]
)
def test_nan_symbol_is_config_error(tmp_path, capsys, command, value):
    symbol = tmp_path / "symbol.json"
    symbol.write_text(json.dumps([[[value, 0.0]] * 7] * 7))
    out = tmp_path / "o"
    code = main([command, "--N", "7", "--symbol", str(symbol), "--out", str(out)])
    assert code == EXIT_CONFIG
    assert "finite" in config_error_detail(capsys)
    assert not out.exists()


def seq1(entry) -> dict:
    return {"dim": 1, "entries": [[[0], 1.0, 0.0], entry]}


@pytest.mark.parametrize(
    "sequence",
    [
        seq1([[0], "x", 0.0]),
        seq1([[0.5], 1, 0]),
        seq1([[0], math.nan, 0.0]),
        seq1([[0], 1.0, math.inf]),
        {"entries": [[[0], 1.0, 0.0]]},
        {"dim": 1},
        {"dim": 1.5, "entries": [[[0], 1.0, 0.0]]},
        {"dim": 0, "entries": []},
        {"dim": True, "entries": [[[0], 1.0, 0.0]]},
        {"dim": 1, "entries": {"0": 1.0}},
        seq1([[0], 1.0]),
        seq1([0, 1, 0]),
        seq1([[0, 1], 1, 0]),
        seq1([[100000000], 0.1, 0]),
        seq1([[0], 0.5, 0]),
        {"dim": 1, "entries": [[[-(2**62)], 1.0, 0.0], [[2**62], 0.5, 0.0]]},
    ],
    ids=[
        "non-numeric", "fractional-index", "nan", "inf", "no-dim", "no-entries",
        "fractional-dim", "zero-dim", "bool-dim", "entries-not-list", "short-entry",
        "index-not-list", "index-length", "box-budget", "repeated-index", "box-beyond-int64",
    ],
)
def test_bad_sequence_entry_is_config_error(tmp_path, capsys, sequence):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sequence": sequence}))
    out = tmp_path / "o"
    code = main(["seq-invert", "--config", str(cfg), "--out", str(out)])
    assert code == EXIT_CONFIG
    assert "sequence" in config_error_detail(capsys)
    assert not out.exists()


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("seq-invert", "grid", [1]),
        ("seq-invert", "grid", True),
        ("seq-invert", "grid", 300.5),
        ("seq-invert", "decay_cutoff", "1e-9"),
        ("invert", "cond_tol", [1]),
        ("invert", "cond_tol", math.inf),
        ("amalgam", "R", None),
        ("amalgam", "samples_per_cell", [2]),
    ],
)
def test_non_numeric_extra_is_config_error(tmp_path, capsys, command, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    out = tmp_path / "o"
    code = main([command, "--N", "5", "--config", str(cfg), "--out", str(out)])
    assert code == EXIT_CONFIG
    assert config_error_detail(capsys).startswith(f"{key} must be a finite")
    assert not out.exists()


@pytest.mark.parametrize(
    "key, function", [("cond_tol", fio.invert_fio), ("decay_cutoff", seq_algebra.invert_by_fourier)]
)
def test_cli_default_is_the_library_default(key, function):
    # one decision, one object: the CLI option and the keyword default read the same name
    assert OPTIONS[key].default is inspect.signature(function).parameters[key].default


def test_seq_invert_two_dim_default_grid(tmp_path):
    seq = {"dim": 2, "entries": [[[0, 0], 1.0, 0.0], [[1, 0], -0.3, 0.0], [[0, 1], -0.2, 0.0]]}
    results = []
    for name, extra in (("default", {}), ("g256", {"grid": 256})):
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps({"sequence": seq, **extra}))
        out = str(tmp_path / name)
        assert main(["seq-invert", "--config", str(cfg), "--out", out]) == EXIT_OK
        results.append(read_report(out)["results"])
    assert results[0] == results[1]


FAR_PAIR = {"dim": 1, "entries": [[[0], 1.0, 0.0], [[5000], 0.3, 0.0]]}


def test_seq_invert_grid_narrower_than_support(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sequence": FAR_PAIR, "grid": 4096}))
    out = tmp_path / "o"
    assert main(["seq-invert", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert "grid 4096 is not wider than the support box (5001,)" in config_error_detail(capsys)
    assert not out.exists()


def test_seq_invert_residual_gate(tmp_path, capsys):
    # a given grid of 8192 > 5001 is kept, but the inverse (-0.3)^k at 5000 k
    # aliases on it: the residual is reported as a tolerance failure
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sequence": FAR_PAIR, "grid": 8192}))
    out = tmp_path / "o"
    assert main(["seq-invert", "--config", str(cfg), "--out", str(out)]) == EXIT_TOLERANCE
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1 and json.loads(err[0])["error"] == "tolerance"
    assert "8192^1 grid" in json.loads(err[0])["detail"]
    assert not out.exists()


def test_seq_invert_default_grid_doubles_until_the_inverse_fits(tmp_path):
    # the inverse (-0.3)^j at 5000 j aliases on 8192 points; from 2^17 on the
    # residual passes, but the entries beyond 65536 wrap there, and on 2^18
    # they sit in the guard band |n| >= grid/4: 2^19 is the first fitting grid
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sequence": FAR_PAIR}))
    out = str(tmp_path / "o")
    assert main(["seq-invert", "--config", str(cfg), "--out", out]) == EXIT_OK
    results = read_report(out)["results"]
    assert results["residual_l1"] < 1e-6 and results["support_size"] == 23
    inverse = {k[0]: complex(re, im) for k, re, im in results["inverse"]["entries"]}
    assert sorted(inverse) == [5000 * j for j in range(23)]
    for j in range(23):
        assert abs(inverse[5000 * j] - (-0.3) ** j) < 1e-12


def test_seq_invert_given_grid_reaching_the_guard_band_exits_tolerance(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sequence": FAR_PAIR, "grid": 2**18}))
    out = tmp_path / "o"
    assert main(["seq-invert", "--config", str(cfg), "--out", str(out)]) == EXIT_TOLERANCE
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1 and json.loads(err[0])["error"] == "tolerance"
    assert "guard band |n_i| >= 65536" in json.loads(err[0])["detail"]
    assert not out.exists()


def test_invert_linalg_error_exits_not_invertible(tmp_path, monkeypatch, capsys):
    # LinAlgError subclasses ValueError, which alone would exit 2 (config)
    def singular(matrix):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "inv", singular)
    out = tmp_path / "o"
    assert main(["invert", "--N", "5", "--out", str(out)]) == EXIT_NOT_INVERTIBLE
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1
    assert json.loads(err[0]) == {"error": "not-invertible", "detail": "Singular matrix"}
    assert not out.exists()


@pytest.mark.parametrize(
    "command, key, detail",
    [
        ("envelope", "window", "unknown window preset 0"),
        ("envelope", "symbol", "unknown symbol preset 0"),
        ("envelope", "out", "out must be a string, got 0"),
        ("amalgam", "field", "unknown field preset 0"),
    ],
    ids=["window", "symbol", "out", "field"],
)
def test_non_string_preset_is_config_error(tmp_path, command, key, detail):
    # fd 0 exists, so a numeric value must not be resolved as a path to stdin
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: 0}))
    src = os.path.dirname(os.path.dirname(gmlab.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "gmlab.cli", command, "--config", str(cfg)],
        env={**os.environ, "PYTHONPATH": src},
        cwd=tmp_path,
        stdin=subprocess.DEVNULL,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == EXIT_CONFIG
    err = proc.stderr.strip().split("\n")
    assert len(err) == 1 and json.loads(err[0]) == {"error": "config", "detail": detail}


def _fresh_interpreter(code: str) -> str:
    """The stdout of code run by a fresh interpreter on this gmlab."""
    src = os.path.dirname(os.path.dirname(gmlab.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.strip()


def test_entry_freezes_the_imported_objects_and_main_does_not(tmp_path):
    # frozen objects are skipped by the collection at interpreter exit
    code = ("import gc, sys; from gmlab import cli\n"
            f"sys.argv = ['gml', 'factorize', '--N', '5', '--out', {str(tmp_path / 'o')!r}]\n"
            "try:\n    cli.entry()\nexcept SystemExit as exc:\n"
            "    print(exc.code, gc.get_freeze_count() > 0)")
    assert _fresh_interpreter(code) == "0 True"
    before = gc.get_freeze_count()
    assert main(["factorize", "--N", "5", "--out", str(tmp_path / "p")]) == EXIT_OK
    assert gc.get_freeze_count() == before


def test_cli_import_loads_no_scipy():
    assert _fresh_interpreter("import sys, gmlab.cli; print('scipy' in sys.modules)") == "False"


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _traced_modules() -> tuple:
    """The gmlab modules whose public functions the benchmark tracer wraps."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_layers", os.path.join(ROOT, "perfbench", "layers.py"))
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers.MODULES


def test_cli_import_loads_every_traced_module():
    # the tracer looks each one up in sys.modules after `import gmlab.cli`
    loaded = _fresh_interpreter("import sys, gmlab.cli; print(*sorted(sys.modules))").split()
    assert {f"gmlab.{m}" for m in _traced_modules()} <= set(loaded)


def test_every_per_layer_metric_names_a_public_function():
    # a renamed function would leave its traced metric at zero, not fail
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        metrics = [m["name"] for m in json.load(fh)["per_layer"]]
    traced = _traced_modules()
    for metric in metrics:
        module, _, name = metric.rsplit(".", 1)[0].partition(".")  # drop the unit
        assert module in traced, metric
        if name in ("", "all", "other_suites"):  # import time and module or suite sums
            continue
        if module == "verify":
            name = f"suite_{name}"
        owner = importlib.import_module(f"gmlab.{module}")
        for part in name.split("."):
            assert hasattr(owner, part), metric
            owner = getattr(owner, part)
        assert inspect.isfunction(owner) and owner.__module__ == f"gmlab.{module}", metric
        assert not name.startswith("_"), metric


def _loads_numpy_random(runs) -> bool:
    """Whether a fresh interpreter that runs each argument list through
    main (each must exit 0) ends with numpy.random imported."""
    code = (
        "import sys; from gmlab.cli import main\n"
        f"for args in {runs!r}: assert main(args) == 0, args\n"
        "print('numpy.random' in sys.modules)"
    )
    return _fresh_interpreter(code) == "True"


def test_fio_commands_without_random_presets_never_load_numpy_random(tmp_path):
    window = write(tmp_path / "w.json", [[1.0, 0.0], [0.5, 0.5], [0.2, 0.0], [0.1, 0.0], [0, 0]])
    symbol = write(tmp_path / "s.json", [[[1.0, 0.1]] * 5] * 5)
    inputs = [["--window", window, "--symbol", symbol], ["--symbol", "near-identity"],
              ["--window", "gaussian:2", "--symbol", "gaussian-bump"]]
    runs = [
        [command, "--N", "5", "--chi", "2,1,1,1", *spec, "--out", str(tmp_path / command)]
        for command in ("envelope", "compose", "invert", "factorize", "gabor-matrix")
        for spec in inputs
    ]
    assert not _loads_numpy_random(runs)
    assert _loads_numpy_random([["envelope", "--N", "5", "--window", "random",
                                 "--out", str(tmp_path / "random")]])


@pytest.mark.parametrize("command", ["gabor-matrix", "envelope", "compose", "invert",
                                     "factorize", "amalgam", "seq-invert", "verify"])
def test_every_command_rejects_a_negative_seed(tmp_path, capsys, command):
    out = tmp_path / "o"
    assert main([command, "--seed", "-1", "--out", str(out)]) == EXIT_CONFIG
    assert config_error_detail(capsys) == "seed must be a non-negative int64, got -1"
    assert not out.exists()


def write(path, obj) -> str:
    path.write_text(obj if isinstance(obj, str) else json.dumps(obj))
    return str(path)


# Each outside value that used to run on a different number, read stdin, end
# in a traceback or write NaN into report.json.  tmp is the test's directory.
PROBES = {
    "N-fraction": (["envelope"], {"N": 7.5}, "N must be a finite int64, got 7.5"),
    "seed-fraction": (["envelope"], {"seed": 1.9}, "seed must be a finite int64, got 1.9"),
    "chi-fraction": (["envelope"], {"chi": [[1.5, 0], [0, 1]]}, "chi must be a finite int64"),
    "chi2-fraction": (["compose"], {"chi2": [[1.9, 0], [0, 1]]}, "chi2 must be a finite int64"),
    "N-overflow": (["envelope"], '{"N": 1e400}', "N must be a finite int64, got inf"),
    "seed-overflow": (["envelope"], '{"seed": 1e400}', "seed must be a finite int64, got inf"),
    "symbol2-number": (["compose"], {"symbol2": 0}, "unknown symbol2 preset 0"),
    "unknown-key": (["seq-invert"], {"gird": 64}, "unknown config key 'gird'"),
    "matrices-number": (["amalgam"], {"matrices": 5}, "matrices must be a list of 2x2"),
    "window-numbers": (["envelope", "--window", "tmp/w.json"], {}, "window file must be"),
    "window-strings": (["envelope", "--window", "tmp/s.json"], {}, "window file must be"),
    "symbol-shallow": (["envelope", "--symbol", "tmp/shallow.json"], {}, "symbol file must be"),
    "window-directory": (["envelope", "--window", "tmp"], {}, "Is a directory"),
    "q-string": (["envelope"], {"q": "0.5"}, "q must be a finite float, got '0.5'"),
    "amalgam-s400": (["amalgam", "--s", "400"], {}, "quasi-norm is not finite"),
    "verify-s1000": (["verify", "--N", "5", "--s", "1000"], {}, "quasi-norm is not finite"),
    "field-header-only": (["amalgam"], {"field": "tmp/h.csv"}, "full square grid"),
    "field-one-point": (["amalgam"], {"field": "tmp/p.csv"}, "full square grid"),
    "R-budget": (["amalgam"], {"R": 100000}, "field grid holds more than 16777216 cells"),
    # every array guard reads the one _lattice.require_cells phrase (R-budget: sample_field)
    "box-budget": (
        ["seq-invert"], {"sequence": {"dim": 1, "entries": [[[0], 1, 0], [[10**8], 1, 0]]}},
        "sequence box or grid (100000001,) holds more than 16777216 cells",
    ),
    "grid-budget": (["seq-invert"], {"grid": 2**25}, "holds more than 16777216 cells"),
    "gabor-budget": (["gabor-matrix", "--N", "67"], {}, "holds more than 16777216 cells"),
    "operator-budget": (["envelope", "--N", "4099"], {}, "holds more than 16777216 cells"),
    "field-list": (["amalgam"], {"field": [1]}, "unknown field preset [1]"),
    "matrices-overflow": (
        ["amalgam"], {"matrices": [[[1e308, 0], [0, 1e308]]]}, "Mmat entries must be finite"
    ),
}


@pytest.mark.filterwarnings("error")  # a warning would be a second stderr line
@pytest.mark.parametrize("probe", list(PROBES))
def test_outside_value_probe_is_config_error(tmp_path, capsys, probe):
    args, config, detail = PROBES[probe]
    write(tmp_path / "w.json", [1, 2, 3, 4, 5, 6, 7])
    write(tmp_path / "s.json", ["a", "b"])
    write(tmp_path / "shallow.json", [[1.0, 0.0]] * 7)
    write(tmp_path / "h.csv", "x,y,value\n")
    write(tmp_path / "p.csv", "x,y,value\n0,0,1\n")

    def fill(value):
        return value.replace("tmp", str(tmp_path)) if isinstance(value, str) else value

    if isinstance(config, dict):
        config = {key: fill(value) for key, value in config.items()}
    out = tmp_path / "o"
    cfg = write(tmp_path / "c.json", config)
    code = main([*map(fill, args), "--config", cfg, "--out", str(out)])
    assert code == EXIT_CONFIG
    assert detail in config_error_detail(capsys)
    assert not out.exists()


def test_config_shared_by_commands(tmp_path):
    # keys of other commands are checked and echoed, not refused
    cfg = write(tmp_path / "cfg.json", {"grid": 64, "chi2": [[1, 1], [0, 1]], "cond_tol": 1e10})
    out = str(tmp_path / "run")
    assert main(["envelope", "--N", "5", "--config", cfg, "--out", out]) == EXIT_OK
    assert read_report(out)["config"]["extra"] == {"grid": 64, "chi2": [[1, 1], [0, 1]],
                                                   "cond_tol": 1e10}


def test_bad_flag_is_one_line_config_error(capsys):
    assert main(["envelope", "--N", "7.5"]) == EXIT_CONFIG
    assert "--N" in config_error_detail(capsys)
    assert main(["envelope", "--chi", "1,0,1"]) == EXIT_CONFIG
    assert "expects 'a,b,c,d'" in config_error_detail(capsys)


@pytest.mark.parametrize("spec", ["gaussian:0", "gaussian:-1", "gaussian:nan", "gaussianx"])
def test_bad_gaussian_width_is_config_error(tmp_path, capsys, spec):
    out = tmp_path / "o"
    assert main(["envelope", "--N", "5", "--window", spec, "--out", str(out)]) == EXIT_CONFIG
    assert "gaussian" in config_error_detail(capsys)
    assert not out.exists()


@pytest.mark.parametrize("width", ["abc", ""])
def test_unparsable_gaussian_width_is_named(tmp_path, capsys, width):
    out = tmp_path / "o"
    spec = f"gaussian:{width}"
    assert main(["envelope", "--N", "5", "--window", spec, "--out", str(out)]) == EXIT_CONFIG
    detail = config_error_detail(capsys)
    assert detail == f"gaussian window width must be a finite float, got {width!r}"
    assert not out.exists()


def test_gabor_matrix_operator_norm_is_the_dense_norm(tmp_path):
    out = tmp_path / "run"
    args = ["gabor-matrix", "--N", "5", "--window", "random", "--symbol", "random", "--seed", "4"]
    assert main([*args, "--out", str(out)]) == EXIT_OK
    rows = np.loadtxt(out / "gabor_matrix.csv", delimiter=",", skiprows=1)
    M = (rows[:, 4] + 1j * rows[:, 5]).reshape(25, 25)
    dense = np.linalg.norm(M, 2)  # the singular value decomposition of the N^2 x N^2 matrix
    assert read_report(str(out))["results"]["operator_norm"] == pytest.approx(dense, rel=1e-12)


def test_lattice_size_budget(tmp_path, capsys):
    # 2^31 - 1 is prime: it must be refused before any N x N array exists
    out = tmp_path / "o"
    assert main(["factorize", "--N", str(2**31 - 1), "--out", str(out)]) == EXIT_CONFIG
    assert "an N x N operator holds more than 16777216 cells" in config_error_detail(capsys)
    assert not out.exists()


@pytest.mark.parametrize("key", ["field", "field2", "sequence", "symbol2", "cond_tol"])
def test_keys_of_other_commands_are_checked(tmp_path, capsys, key):
    out = tmp_path / "o"
    cfg = write(tmp_path / "c.json", {key: [1]})
    assert main(["envelope", "--N", "5", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert key in config_error_detail(capsys)
    assert not out.exists()


RESOLVERS = {
    "window": lambda spec: resolve_window(spec, 5, np.random.default_rng(0)),
    "symbol": lambda spec: resolve_symbol(spec, 5, np.random.default_rng(0)),
    "field": lambda spec: resolve_field(spec, 2, 4),
    "sequence": resolve_sequence,
}


@pytest.mark.parametrize("what", list(RESOLVERS))
def test_resolvers_refuse_an_int_spec(tmp_path, what):
    # an int names an open file descriptor, here of a readable symbol file,
    # which the resolver must neither parse nor close; a float, a list and
    # None are refused alike
    fd = os.open(write(tmp_path / "symbol.json", [[[1.0, 0.0]] * 5] * 5), os.O_RDONLY)
    try:
        for spec in (fd, 1.5, ["one"], None):
            with pytest.raises(ValueError) as exc:
                RESOLVERS[what](spec)
            assert str(exc.value) == f"unknown {what} preset {spec!r}"
        os.fstat(fd)  # still open
    finally:
        os.close(fd)


# every spec option is read by the one preset rule, so a non-string reads alike
@pytest.mark.parametrize("value", [0, 1.5, ["one"], None], ids=["int", "float", "list", "null"])
@pytest.mark.parametrize("command, key", [
    ("envelope", "window"), ("envelope", "symbol"), ("compose", "symbol2"),
    ("amalgam", "field"), ("amalgam", "field2"), ("seq-invert", "sequence"),
])
def test_spec_options_refuse_a_non_string(tmp_path, capsys, command, key, value):
    out = tmp_path / "o"
    cfg = write(tmp_path / "c.json", {key: value})
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert config_error_detail(capsys) == f"unknown {key} preset {value!r}"
    assert not out.exists()


# a fit with fewer than two points, or a ratio over a zero norm, is the
# library's inf, which report.json writes as null
@pytest.mark.parametrize("command, config, nulls", [
    ("seq-invert", {"sequence": {"dim": 1, "entries": [[[0], 2, 0]]}}, ["decay_rate"]),
    ("seq-invert", {"sequence": {"dim": 1, "entries": [[[3], 1, 0]]}}, ["decay_rate"]),
    ("envelope", {"symbol": "zeros"}, ["decay_exponent"]),
    ("compose", {"symbol": "zeros"}, ["decay_exponent", "quasi_norm_ratio"]),
], ids=["half-delta", "shift", "zero-envelope", "zero-compose"])
def test_a_fit_without_points_reports_null(tmp_path, command, config, nulls):
    zeros = write(tmp_path / "zeros.json", [[[0.0, 0.0]] * 5] * 5)
    cfg = write(tmp_path / "c.json", {k: zeros if v == "zeros" else v for k, v in config.items()})
    out = str(tmp_path / "o")
    assert main([command, "--N", "5", "--config", cfg, "--out", out]) == EXIT_OK
    results = read_report(out)["results"]
    assert sorted(k for k, v in results.items() if v is None) == nulls


@pytest.mark.parametrize("decay_rate, residual", [(math.nan, 0.0), (math.inf, math.inf)],
                         ids=["nan-rate", "inf-residual"])
def test_other_non_finite_results_are_config_errors(tmp_path, capsys, monkeypatch,
                                                    decay_rate, residual):
    def fake(a, grid, decay_cutoff):
        return seq_algebra.FourierInverse(a, residual, decay_rate)

    monkeypatch.setattr(cli, "invert_by_fourier", fake)
    out = tmp_path / "o"
    assert main(["seq-invert", "--out", str(out)]) == EXIT_CONFIG
    assert config_error_detail(capsys).startswith("report.json cannot hold NaN or infinity")
    assert not out.exists()


def test_presets_win_over_files_of_the_same_name(tmp_path, monkeypatch):
    # files named like the presets, holding a window and a symbol that are not them
    crowded, empty = tmp_path / "crowded", tmp_path / "empty"
    crowded.mkdir()
    empty.mkdir()
    write(crowded / "delta", [[1.0, 0.5]] * 7)
    write(crowded / "one", [[[0.0, 1.0]] * 7] * 7)
    envelopes = []
    for cwd in (crowded, empty):
        monkeypatch.chdir(cwd)
        out = tmp_path / f"out-{cwd.name}"
        args = ["envelope", "--N", "7", "--window", "delta", "--symbol", "one", "--out", str(out)]
        assert main(args) == EXIT_OK
        envelopes.append((out / "envelope.csv").read_bytes())
    assert envelopes[0] == envelopes[1]
