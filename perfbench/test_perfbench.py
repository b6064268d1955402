"""Self-tests of the benchmark: its oracles agree with gmlab, and every check
rejects a deliberately perturbed output.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from gmlab import cli, fio, seq_algebra, serialize  # noqa: E402
from gmlab.metaplectic import metaplectic_operator  # noqa: E402
from gmlab.phase_space import gabor_system  # noqa: E402
from gmlab.weyl import gabor_matrix, weyl_quantize  # noqa: E402

N = 7


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(7)


@pytest.mark.parametrize("chi", workloads.CHIS)
def test_envelope_oracle_agrees_with_gmlab(rng, chi):
    sigma = workloads._symbol(rng, N)
    g = workloads._window(rng, N)
    chi = np.array(chi) % N
    T = weyl_quantize(sigma)
    if not np.array_equal(chi, np.eye(2, dtype=int)):
        T = T @ metaplectic_operator(chi, N)
    expected = fio.envelope(T, chi, gabor_system(g)).values
    got = oracles.envelope(checks.operator(sigma, chi), chi, oracles.parseval(g))
    assert np.max(np.abs(got - expected)) < 1e-14


def test_weyl_gram_and_ambiguity_oracles_agree_with_gmlab(rng):
    sigma = workloads._symbol(rng, N)
    g = workloads._window(rng, N)
    gamma = oracles.parseval(g)
    assert np.max(np.abs(oracles.weyl_operator(sigma) - weyl_quantize(sigma))) < 1e-14
    assert np.max(np.abs(oracles.gabor_gram(gamma) - gabor_matrix(np.eye(N), gabor_system(g)))) < 1e-14
    identity = fio.envelope(np.eye(N), np.eye(2, dtype=int), gabor_system(g)).values
    assert np.max(np.abs(oracles.ambiguity(gamma) - identity)) < 1e-14


@pytest.mark.parametrize("dim,box,grid", [(1, 5, 4096), (2, 2, 256)])
def test_sequence_residual_agrees_with_gmlab(rng, dim, box, grid):
    seq = workloads._sequence(rng, dim, box)
    res = seq_algebra.invert_by_fourier(serialize.seq_from_json(seq), grid=grid)
    ours = oracles.sequence_residual_l1(seq["entries"], serialize.seq_to_json(res.seq)["entries"], dim)
    assert abs(ours - res.residual) < 1e-13


def execute_in_process(ops, base: Path) -> dict:
    outputs = {}
    for op in ops:
        out = base / op.key
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert cli.main([*op.args, "--out", str(out)]) == 0, op.key
        (base / f"{op.key}.stdout").write_text(stdout.getvalue())
        outputs[op.key] = out
    return outputs


def run_check(op, outputs, base):
    op.check(outputs[op.key], base / f"{op.key}.stdout", outputs)


def scale_csv_value(path: Path, row: int, column: int, factor: float, offset: float = 0.0):
    lines = path.read_text().splitlines()
    cells = lines[row].split(",")
    cells[column] = repr(float(cells[column]) * factor + offset)
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def scale_csv_column(path: Path, column: int, factor: float):
    lines = path.read_text().splitlines()
    for row in range(1, len(lines)):
        cells = lines[row].split(",")
        cells[column] = repr(float(cells[column]) * factor)
        lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def edit_report(out: Path, edit):
    rep = checks.report(out)
    edit(rep["results"])
    (out / "report.json").write_text(json.dumps(rep))


PERTURB = {
    "envA": lambda out: scale_csv_value(out / "envelope.csv", 5, 2, 1 + 1e-6),
    "compose": lambda out: scale_csv_value(out / "composite_envelope.csv", 1, 2, 0.0, 1.0),
    # an inverse envelope too small to bound the identity's
    "invert": lambda out: scale_csv_column(out / "inverse_envelope.csv", 2, 0.01),
    "factorize": lambda out: scale_csv_value(out / "sigma1.csv", 7, 3, 1.0, 1e-7),
    "gabor": lambda out: scale_csv_value(out / "gabor_matrix.csv", 11, 4, 1.0, 1e-10),
    "seq1d": lambda out: edit_report(out, lambda r: r["inverse"]["entries"][0].__setitem__(1, r["inverse"]["entries"][0][1] + 1e-6)),
    "seq2d": lambda out: edit_report(out, lambda r: r["inverse"]["entries"].pop()),
    "amalgam": lambda out: edit_report(out, lambda r: r["gl_invariance"][0].__setitem__("ratio", 1 + 1e-9)),
}


@pytest.fixture(scope="module")
def cli_round(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli_small")
    _, ops = workloads.build("cli_small", 3, base / "inputs")
    return ops, execute_in_process(ops, base), base


def test_cli_small_checks_pass_and_cover_every_command(cli_round):
    ops, outputs, base = cli_round
    assert sorted(op.key for op in ops) == sorted(PERTURB)
    for op in ops:
        run_check(op, outputs, base)


@pytest.mark.parametrize("key", sorted(PERTURB))
def test_each_check_rejects_a_perturbed_output(cli_round, key, tmp_path):
    ops, outputs, base = cli_round
    op = next(o for o in ops if o.key == key)
    copy = tmp_path / key
    shutil.copytree(outputs[key], copy)
    PERTURB[key](copy)
    with pytest.raises(checks.CheckFailed):
        op.check(copy, base / f"{key}.stdout", {**outputs, key: copy})


def test_compose_check_rejects_a_wrong_factor(cli_round, tmp_path):
    ops, outputs, base = cli_round
    op = next(o for o in ops if o.key == "compose")
    shrunk = tmp_path / "envA"
    shutil.copytree(outputs["envA"], shrunk)
    h = checks.read_envelope(shrunk / "envelope.csv", op.check.keywords["N"])
    (shrunk / "envelope.csv").write_text(serialize.envelope_csv(0.5 * h))
    with pytest.raises(checks.CheckFailed):
        op.check(outputs["compose"], base / "compose.stdout", {**outputs, "envA": shrunk})


def test_verify_check_passes_and_rejects_a_failed_suite(tmp_path):
    _, ops = workloads.build("verify", 1, tmp_path / "inputs")
    op = next(o for o in ops if o.check.keywords["N"] == 5)
    outputs = execute_in_process([op], tmp_path)
    run_check(op, outputs, tmp_path)
    edit_report(outputs[op.key], lambda r: r["suites"][3].__setitem__("passed", False))
    with pytest.raises(checks.CheckFailed):
        run_check(op, outputs, tmp_path)


def test_repeat_comparison_rejects_one_changed_byte(cli_round, tmp_path):
    _, outputs, base = cli_round
    for name in ("a", "b"):
        shutil.copytree(outputs["envA"], tmp_path / name / "out")
        shutil.copy(base / "envA.stdout", tmp_path / name / "stdout")
    run.same_bytes(tmp_path / "a", tmp_path / "b")
    scale_csv_value(tmp_path / "b" / "out" / "envelope.csv", 2, 2, 1.0, 1e-17)
    with pytest.raises(checks.CheckFailed):
        run.same_bytes(tmp_path / "a", tmp_path / "b")


def test_same_seed_gives_same_inputs(tmp_path):
    for workload in workloads.WORKLOADS:
        a, b = tmp_path / workload / "a", tmp_path / workload / "b"
        ops_a, ops_b = workloads.build(workload, 5, a)[1], workloads.build(workload, 5, b)[1]
        assert [op.args for op in ops_a] == [
            tuple(x.replace(str(b), str(a)) for x in op.args) for op in ops_b
        ]
        for f in a.iterdir():
            assert f.read_text() == (b / f.name).read_text().replace(str(b), str(a))


def test_traced_run_prints_every_per_layer_metric(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "cli_small", "--seed", "2",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    names = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    # one round: envelope 1 + compose 4 + invert 3
    assert result["metrics"]["fio.envelope.calls"]["value"] == 8


def test_refuses_to_run_without_gmlab_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "30", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""
