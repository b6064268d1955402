"""Smoke tests of the scripts in tools/: they still run against the package
API, the calibration figures they produce are the frozen ones, and the
pseudo-inverse that tools/calibrate.py owns keeps its laws."""

import glob
import importlib.util
import json
import math
import os
import shlex
import shutil
import textwrap
import threading

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gmlab import QParams, cb_norm, gabor_matrix, gabor_system, gaussian_window, weyl_quantize
from gmlab.presets import gaussian_bump_symbol

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOLS = os.path.join(ROOT, "tools")


def load_tool(name):
    """The module of tools/<name>.py, imported without running its main."""
    spec = importlib.util.spec_from_file_location(f"tools_{name}", os.path.join(TOOLS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def leaves(obj, prefix=""):
    """(path, number) for every number in a nested dict."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from leaves(value, f"{prefix}/{key}")
    else:
        yield prefix, obj


@pytest.mark.parametrize(
    "section",
    ["inverse_closedness", "fio_pairs", "almost_diagonalization", "gabor_pinv_decay"],
)
def test_calibrate_reproduces_the_frozen_figures(calibration, section):
    got = dict(leaves(getattr(load_tool("calibrate"), section)()))
    want = dict(leaves(calibration[section]))
    assert got.keys() == want.keys()
    for path, value in want.items():
        assert math.isclose(got[path], value, rel_tol=1e-9), path


@pytest.mark.parametrize("kind", ["envelope", "verify"])
def test_ladder_first_rung(monkeypatch, kind):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")  # the tool sets it; undone after
    tool = load_tool("ladder")
    monkeypatch.setattr(tool, "REPEATS", 1)
    ladder, rung = tool.KINDS[kind]
    result = rung(ladder[0])
    assert result["N"] == ladder[0]
    assert all(value >= 0.0 for _, value in leaves(result))
    if kind == "envelope":
        assert list(result) == ["N", "workers", "envelope_s", "cpu_s", "peak_mb"]
        assert result["workers"] == tool.fio._workers(ladder[0]) == 1  # one panel
        assert result["peak_mb"] > 0.0
    else:
        assert list(result) == ["N", "total_s", "suites", "peak_mb"]
        assert len(result["suites"]) == 16 and list(result["suites"]) == sorted(result["suites"])
        assert result["total_s"] == pytest.approx(sum(result["suites"].values()), abs=1e-3)
        assert list(result["peak_mb"]) == list(result["suites"])


def test_bench_files_name_committed_commands():
    kinds = load_tool("ladder").KINDS
    benches = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))
    assert benches
    for bench in benches:
        with open(bench) as fh:
            words = shlex.split(json.load(fh)["command"])
        (at,) = [i for i, word in enumerate(words) if word.endswith(".py")]
        assert os.path.isfile(os.path.join(ROOT, words[at])), bench
        if words[at] == "tools/ladder.py":
            assert words[at + 1:] and words[at + 1] in kinds, bench


def test_same_outputs_tells_a_checkout_from_one_with_a_changed_byte(tmp_path):
    tool = load_tool("same_outputs")
    src = os.path.join(ROOT, "src")
    for command in ("envelope --N 5", "seq-invert"):
        assert tool.compare(command, src) == []
    other = tmp_path / "src"
    shutil.copytree(src, other, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    serialize = other / "gmlab" / "serialize.py"
    text = serialize.read_text()
    assert text.count("    return repr(float(x))\n") == 1  # the body of _fmt
    serialize.write_text(text.replace("    return repr(float(x))\n", "    return repr(float(1))\n"))
    assert tool.compare("envelope --N 5", other) == ["file envelope.csv"]
    assert tool.compare("seq-invert", other) == []  # writes no CSV
    assert not list(other.rglob("__pycache__"))


def test_same_outputs_replays_the_fio_large_rounds(tmp_path):
    # 6 operations a round: at N = 61 two envelopes (one along the identity),
    # compose and invert, at N = 43 an envelope and its invert
    commands = load_tool("same_outputs").fio_large_rounds(tmp_path)
    assert len(commands) == 12
    args = [shlex.split(command) for command in commands]
    for seed in ("1", "2"):
        mine = [a for a in args if a[a.index("--window") + 1].startswith(str(tmp_path / seed))]
        assert sorted(a[0] for a in mine) == ["compose"] + ["envelope"] * 3 + ["invert"] * 2
        assert [a[a.index("--chi") + 1] for a in mine if a[2] == "61"].count("1,0,0,1") >= 1
    for a in args:
        for option in ("--window", "--symbol", "--config"):
            if option in a:
                assert os.path.isfile(a[a.index(option) + 1])
        assert ("--config" in a) == (a[0] == "compose")


SYNTHETIC = textwrap.dedent('''\
    """A module with a refusal, a method, a console entry and a main guard."""
    import sys


    def half(x):
        """Half of x."""
        if x < 0:
            raise ValueError(x)
        return x / 2


    class Box:
        def size(self):
            return 1


    def entry():
        sys.exit(0)


    if __name__ == "__main__":
        entry()
''')


def test_unexecuted_is_the_statements_minus_the_traced_lines(tmp_path):
    tool = load_tool("unexecuted")
    assert tool.statements(SYNTHETIC) == {
        2: (), 5: (), 7: ("half",), 8: ("half",), 9: ("half",), 12: (), 13: ("Box",),
        14: ("Box", "size"), 17: (), 18: ("entry",), 21: (), 22: ("__main__",),
    }
    (tmp_path / "mod.py").write_text(SYNTHETIC)
    spec = importlib.util.spec_from_file_location("synthetic_mod", tmp_path / "mod.py")
    module = importlib.util.module_from_spec(spec)

    def run(method=False):
        spec.loader.exec_module(module)
        if method:  # on a thread started while tracing
            thread = threading.Thread(target=module.Box().size)
            thread.start()
            thread.join()
        return module.half(4)

    for method, missed in ((False, [8, 14, 18, 22]), (True, [8, 18, 22])):
        result, hits = tool.collect(lambda: run(method), tmp_path)
        assert result == 2.0
        assert [line for _, line, _ in tool.unexecuted(tmp_path, hits)] == missed
    assert [name for *_, name in tool.unexecuted(tmp_path, hits)] == [
        "mod.half", "mod.entry", "mod.__main__"]


def test_unexecuted_allows_only_code_that_exists():
    tool = load_tool("unexecuted")
    names = {".".join((path.stem, *scope))
             for path in tool.PACKAGE.glob("*.py")
             for scope in tool.statements(path.read_text()).values()}
    assert set(tool.ALLOWED) <= names


# ---------------------------------------------------------------- calibrate's pseudo-inverse


calibrate = load_tool("calibrate")
pseudo_inverse, RANK_TOL = calibrate.pseudo_inverse, calibrate.RANK_TOL


def test_pseudo_inverse_of_projection():
    P = np.diag([1.0, 0.0, 0.0, 0.0])
    assert_allclose(pseudo_inverse(P), P)


def test_pseudo_inverse_of_invertible(rng):
    A = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    assert np.max(np.abs(pseudo_inverse(A) - np.linalg.inv(A))) < 1e-9


def test_pseudo_inverse_range_kernel_laws(rng):
    # rank-deficient: A = B C with inner dimension 3
    B = rng.standard_normal((6, 3))
    C = rng.standard_normal((3, 6))
    A = B @ C
    Adag = pseudo_inverse(A)
    # A Adag and Adag A are orthogonal projections reproducing A and Adag
    assert np.max(np.abs(A @ Adag @ A - A)) < 1e-9
    assert np.max(np.abs(Adag @ A @ Adag - Adag)) < 1e-9
    assert np.max(np.abs((A @ Adag).conj().T - A @ Adag)) < 1e-9
    assert np.max(np.abs((Adag @ A).conj().T - Adag @ A)) < 1e-9


def test_gabor_pseudo_inverse_matches_inverse_operator(calibration):
    N = 7
    p = QParams(0.8, 1.0)
    sys = gabor_system(gaussian_window(N))
    sigma = 1.0 + 0.1 * gaussian_bump_symbol(N)
    T = weyl_quantize(sigma)
    M = gabor_matrix(T, sys)
    M_inv_op = gabor_matrix(np.linalg.inv(T), sys)
    assert np.max(np.abs(pseudo_inverse(M) - M_inv_op)) < 1e-8
    ratio = cb_norm(pseudo_inverse(M), p) / cb_norm(M, p)
    print(f"pseudo-inverse decay ratio: {ratio:.4f}")
    assert ratio <= calibration["gabor_pinv_decay"]["ratio_threshold"]


def svd_rule_pseudo_inverse(A):
    """pseudo_inverse written out: the SVD with singular values at or below
    RANK_TOL times the largest set to zero."""
    U, sv, Vh = np.linalg.svd(np.asarray(A, dtype=complex), full_matrices=False)
    keep = sv > RANK_TOL * sv[0]
    return (Vh[keep].conj().T * (1.0 / sv[keep])) @ U[:, keep].conj().T


def test_pseudo_inverse_is_the_svd_rule(rng):
    for A in (rng.standard_normal((6, 3)) @ rng.standard_normal((3, 9)),
              rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))):
        want = svd_rule_pseudo_inverse(A)
        assert np.max(np.abs(pseudo_inverse(A) - want)) <= 1e-12 * np.max(np.abs(want))


def test_pseudo_inverse_zeroes_singular_values_up_to_the_cutoff_exactly():
    at = np.diag([1.0, RANK_TOL])  # exactly RANK_TOL x largest: zeroed
    above = np.diag([1.0, np.nextafter(RANK_TOL, 1.0)])  # one ulp above: kept
    for A in (at, above):
        assert np.array_equal(np.linalg.svd(A, compute_uv=False), np.diag(A))
    assert np.array_equal(pseudo_inverse(at), np.diag([1.0, 0.0]))
    assert_allclose(pseudo_inverse(above), np.diag([1.0, 1.0 / above[1, 1]]), rtol=1e-15)
    assert_allclose(pseudo_inverse(above), svd_rule_pseudo_inverse(above), rtol=1e-15)
    assert np.array_equal(pseudo_inverse(np.zeros((2, 3))), np.zeros((3, 2)))


def test_pseudo_inverse_of_a_real_matrix_is_complex():
    assert pseudo_inverse(np.eye(3)).dtype == complex
    with pytest.raises(ValueError, match="matrix expected"):
        pseudo_inverse(np.ones(3))
