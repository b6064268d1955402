"""Smoke tests of the scripts in tools/: they still run against the package
API, the calibration figures they produce are the frozen ones, and the
pseudo-inverse that tools/calibrate.py owns keeps its laws."""

import importlib.util
import math
import os

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gmlab import QParams, cb_norm, gabor_matrix, gabor_system, gaussian_window, weyl_quantize
from gmlab.presets import gaussian_bump_symbol

TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")


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


def test_envelope_ladder_rung(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")  # the tool sets it; undone after
    tool = load_tool("envelope_ladder")
    result = tool.rung(11)
    assert list(result) == ["N", "workers", "envelope_s", "cpu_s", "peak_mb"]
    assert result["N"] == 11 and result["workers"] == 1  # one panel
    assert result["envelope_s"] >= 0.0 and result["cpu_s"] >= 0.0 and result["peak_mb"] > 0.0
    assert tool.rung(21)["workers"] == tool.fio._workers(21) >= 1


def test_verify_ladder_rung(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")  # the tool sets it; undone after
    tool = load_tool("verify_ladder")
    monkeypatch.setattr(tool, "REPEATS", 1)
    result = tool.rung(5)
    assert result["N"] == 5 and len(result["suites"]) == 16
    assert list(result["suites"]) == sorted(result["suites"])
    assert all(t >= 0.0 for t in result["suites"].values())
    assert result["total_s"] == pytest.approx(sum(result["suites"].values()), abs=1e-3)
    assert list(result["peak_mb"]) == list(result["suites"])
    assert all(mb >= 0.0 for mb in result["peak_mb"].values())


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
