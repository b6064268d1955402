"""Acceptance suite: every release criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion.
"""

import math
import time

import numpy as np
import pytest

import gmlab as g
from gmlab import QParams, SparseSeq
from gmlab.metaplectic import J_MAT
from gmlab.presets import delta_window, gaussian_bump_symbol
from gmlab.verify import random_decaying_matrix, random_sparse, random_sympmat

IDENTITY = np.eye(2, dtype=int)


def report(num, text, elapsed=None):
    suffix = f"  [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"PASS criterion {num:2d}: {text}{suffix}")


def test_c01_tight_frame_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    for N in (5, 7, 11):
        windows = [
            delta_window(N),
            g.gaussian_window(N),
            rng.standard_normal(N) + 1j * rng.standard_normal(N),
        ]
        for w in windows:
            sys = g.gabor_system(w)
            A, B = g.frame_bounds(sys)
            target = N * float(np.sum(np.abs(w) ** 2))
            assert abs(A - target) < 1e-10 * max(1.0, target)
            assert abs(B - target) < 1e-10 * max(1.0, target)
            f = rng.standard_normal(N) + 1j * rng.standard_normal(N)
            rec = g.synthesize(g.stft(f, sys.parseval_window), sys)
            assert np.linalg.norm(rec - f) < 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, "tight frame A = B = N||g||^2 and Parseval round trip", elapsed)


def test_c02_weyl_duality_and_bijectivity():
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    for N in (5, 7):
        for _ in range(20):
            sigma = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
            f = rng.standard_normal(N) + 1j * rng.standard_normal(N)
            w = rng.standard_normal(N) + 1j * rng.standard_normal(N)
            lhs = complex(np.vdot(w, g.weyl_quantize(sigma) @ f))
            assert abs(lhs - g.duality_pairing(sigma, f, w)) < 1e-11
        sigma = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        assert np.max(np.abs(g.weyl_dequantize(g.weyl_quantize(sigma)) - sigma)) < 1e-12
        T = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        assert np.max(np.abs(g.weyl_quantize(g.weyl_dequantize(T)) - T)) < 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(2, "Weyl duality pairing and quantize/dequantize bijection", elapsed)


def test_c03_commutation_diagram():
    N = 7
    rng = np.random.default_rng(103)
    sys = g.gabor_system(g.gaussian_window(N))
    gamma = sys.parseval_window
    for _ in range(20):
        sigma = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        f = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        T = g.weyl_quantize(sigma)
        M = g.gabor_matrix(T, sys)
        residual = np.linalg.norm(
            g.stft(T @ f, gamma).ravel() - M @ g.stft(f, gamma).ravel()
        )
        assert residual < 1e-10
    report(3, "Gabor matrix intertwines the operator with the lattice STFT")


def test_c04_quasi_algebra_inequalities():
    start = time.perf_counter()
    rng = np.random.default_rng(104)
    counts = {"young": 0, "qtriangle": 0, "hoelder": 0, "inclusion": 0}
    for q in (0.3, 0.5, 0.8, 1.0):
        for s in (0.0, 1.0, 2.0):
            p = QParams(q, s)
            for _ in range(20):
                a = random_sparse(rng)
                b = random_sparse(rng)

                # 1e-12 slack applied relatively: these are scale-free bounds
                lhs = g.qnorm(g.convolve(a, b), p)
                rhs = g.qnorm(a, p) * g.qnorm(b, p)
                assert lhs <= rhs * (1 + 1e-12) + 1e-12
                counts["young"] += 1

                lhs = g.qnorm(a + b, p) ** q
                rhs = g.qnorm(a, p) ** q + g.qnorm(b, p) ** q
                assert lhs <= rhs * (1 + 1e-12) + 1e-12
                counts["qtriangle"] += 1

                prod = g.pointwise_product(a, b)
                rhs = g.qnorm_weighted(a, 2 * q, s) * g.qnorm_weighted(b, 2 * q, -s)
                lhs = g.qnorm_weighted(prod, q, 0.0)
                assert lhs <= rhs * (1 + 1e-12) + 1e-12
                counts["hoelder"] += 1

                n_one = g.qnorm(a, QParams(1.0, s))
                n_q = g.qnorm(a, QParams(q, s))
                n_half = g.qnorm(a, QParams(q / 2, s))
                assert n_one <= n_q * (1 + 1e-12) + 1e-12
                assert n_q <= n_half * (1 + 1e-12) + 1e-12
                counts["inclusion"] += 1
    assert all(n >= 200 for n in counts.values())
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(4, f"Young / q-triangle / Hoelder / inclusion, {counts}", elapsed)


def test_c05_neumann_bound():
    rng = np.random.default_rng(105)
    tol = 1e-10
    delta = SparseSeq.delta(2)
    params = [QParams(q, s) for q in (0.5, 0.8, 1.0) for s in (0.0, 1.0)]
    for i in range(50):
        p = params[i % len(params)]
        x = random_sparse(rng, size=4, box=2)
        x = (float(rng.uniform(0.2, 0.6)) / g.qnorm(x, p)) * x
        inv = g.neumann_inverse(x, p, tol)
        assert g.qnorm(g.convolve(delta - x, inv) - delta, p) <= tol
        nx = g.qnorm(x, p)
        bound = nx**2 / (1.0 - nx**p.q) ** (1.0 / p.q)
        assert g.qnorm(inv - delta - x, p) <= bound * (1 + 1e-9)
    report(5, "Neumann inverse meets residual tolerance and tail bound, 50 cases")


def test_c06_fourier_inversion():
    rng = np.random.default_rng(106)
    ell1 = QParams(1.0, 0.0)
    for _ in range(20):
        tail = random_sparse(rng, dim=1, size=8, box=6)
        tail = (float(rng.uniform(0.2, 0.5)) / g.qnorm(tail, ell1)) * tail
        a = SparseSeq.delta(1) - tail
        assert len(a) <= 9
        res = g.invert_by_fourier(a, grid=4096)
        assert res.residual < 1e-8
    non_invertible = [
        SparseSeq.delta(1) - SparseSeq.unit(1),
        SparseSeq.delta(1) - SparseSeq.unit(2),
        0.5 * SparseSeq.delta(1) + 0.5 * SparseSeq.unit(2),
        SparseSeq.delta(1) - 2.0 * SparseSeq.unit(1) + SparseSeq.unit(2),
        0.25 * (SparseSeq.delta(1) + SparseSeq.unit(1)) - 0.25 * (
            SparseSeq.unit(2) + SparseSeq.unit(3)
        ),
    ]
    for bad in non_invertible:
        with pytest.raises(g.VanishingFourierError):
            g.invert_by_fourier(bad, grid=4096)
    report(6, "Fourier-series inversion: 20 inverses, 5 correct rejections")


def test_c07_cb_algebra_property():
    rng = np.random.default_rng(107)
    N = 5
    for q in (0.5, 1.0):
        p = QParams(q, 1.0)
        for _ in range(50):
            A = random_decaying_matrix(rng, N)
            B = random_decaying_matrix(rng, N)
            assert g.cb_norm(A @ B, p) <= g.cb_norm(A, p) * g.cb_norm(B, p) + 1e-10
            excess = g.diagonal_envelope(A @ B) - g.envelope_convolve(
                g.diagonal_envelope(A), g.diagonal_envelope(B)
            )
            assert np.max(excess) < 1e-10
    report(7, "decay-class algebra: norm and pointwise envelope bounds, 100 pairs")


def test_c08_metaplectic_suite():
    start = time.perf_counter()
    N = 5
    Jinv = g.symp_inverse(J_MAT, N)
    count = 0
    for a in range(N):
        for b in range(N):
            for c in range(N):
                for d in range(N):
                    if (a * d - b * c) % N != 1:
                        continue
                    chi = np.array([[a, b], [c, d]])
                    word = g.factor_generators(chi, N)
                    assert np.array_equal(g.word_matrix(word, N), chi % N)
                    U = g.build_metaplectic(word, N)
                    assert np.linalg.norm(U.conj().T @ U - np.eye(N), 2) < 1e-12
                    assert g.intertwine_defect(chi, U) < 1e-10
                    word2 = g.factor_generators((chi @ Jinv) % N, N) + [("J",)]
                    U2 = g.build_metaplectic(word2, N)
                    phase = g.phase_align(U, U2)
                    assert np.max(np.abs(U - phase * U2)) < 1e-10
                    count += 1
    assert count == 120
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(8, "exhaustive SL(2, Z_5): factorization, unitarity, intertwining", elapsed)


def test_c09_inverse_closedness_witness(calibration):
    start = time.perf_counter()
    cal = calibration["inverse_closedness"]
    N = cal["N"]
    p = QParams(cal["q"], cal["s"])
    sys = g.gabor_system(g.gaussian_window(N))
    T = g.weyl_quantize(1.0 + 0.1 * gaussian_bump_symbol(N))
    Tinv, rep, _ = g.invert_fio(T, IDENTITY, sys, p)
    assert np.max(np.abs(T @ Tinv - np.eye(N))) < 1e-10
    assert rep.tail_fraction < cal["inverse_tail_threshold"]
    ident_rep = g.fio_report(g.envelope(np.eye(N), IDENTITY, sys), p)
    assert ident_rep.tail_fraction < cal["identity_tail_threshold"]
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(
        9,
        f"inverse envelope tail {rep.tail_fraction:.4f} < frozen "
        f"{cal['inverse_tail_threshold']:.4f} at N={N}",
        elapsed,
    )


def test_c10_fio_composition_and_inversion(calibration):
    cal = calibration["fio_pairs"]
    N = cal["N"]
    p = QParams(cal["q"], cal["s"])
    sys = g.gabor_system(g.gaussian_window(N))
    rng = np.random.default_rng(777)  # independent of the calibration run
    for _ in range(10):
        chi1, chi2 = random_sympmat(rng, N), random_sympmat(rng, N)
        s1 = 1.0 + 0.25 * (
            rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        ) * gaussian_bump_symbol(N)
        s2 = 1.0 + 0.25 * (
            rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        ) * gaussian_bump_symbol(N)
        T1 = g.weyl_quantize(s1) @ g.metaplectic_operator(chi1, N)
        T2 = g.weyl_quantize(s2) @ g.metaplectic_operator(chi2, N)
        t1 = g.fio_report(g.envelope(T1, chi1, sys), p).tail_fraction
        t2 = g.fio_report(g.envelope(T2, chi2, sys), p).tail_fraction
        rep, ratio, _ = g.compose_check(T1, chi1, T2, chi2, sys, p)
        assert np.isfinite(ratio)
        assert rep.tail_fraction <= cal["compose_factor_threshold"] * max(t1, t2)
        _, inv_rep, _ = g.invert_fio(T1, chi1, sys, p)
        assert inv_rep.tail_fraction <= cal["invert_factor_threshold"] * t1
    report(10, "composite and inverse envelope tails within calibrated factors")


def test_c11_factorization():
    N = 11
    rng = np.random.default_rng(111)
    defects = []
    for _ in range(10):
        chi = random_sympmat(rng, N)
        sigma = 1.0 + 0.25 * (
            rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        ) * gaussian_bump_symbol(N)
        T = g.weyl_quantize(sigma) @ g.metaplectic_operator(chi, N)
        _, _, res = g.factorize_fio(T, chi)
        assert res["op_then_mu"] < 1e-9
        assert res["mu_then_op"] < 1e-9
        defects.append(res["egorov_modulus_defect"])
    report(
        11,
        f"both factorizations exact; modulus defect max {max(defects):.3e} (reported)",
    )


def test_c12_amalgam_lemmas():
    p = QParams(0.8, 1.0)
    r32 = g.conv_embedding_check(
        g.sample_field(g.gaussian_field, R=8, M=32),
        g.sample_field(g.bump_field, R=8, M=32),
        p,
    )
    r64 = g.conv_embedding_check(
        g.sample_field(g.gaussian_field, R=8, M=64),
        g.sample_field(g.bump_field, R=8, M=64),
        p,
    )
    assert np.isfinite(r32) and r32 > 0
    assert abs(r64 - r32) / r32 < 0.05

    theta = math.pi / 4
    matrices = [
        np.eye(2),
        np.array([[0.0, -1.0], [1.0, 0.0]]),  # rotation by pi/2
        np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]),
        np.diag([2.0, 0.5]),  # anisotropic scaling
        np.array([[1.0, 1.0], [0.0, 1.0]]),  # shear
    ]
    F = g.sample_field(g.gaussian_field, R=8, M=32)
    betas = []
    for mat in matrices:
        res = g.gl_invariance_check(F, mat, p)  # raises if the bound fails
        assert res.ratio**p.q <= res.bound
        betas.append(res.beta)
    report(
        12,
        f"convolution embedding stable ({abs(r64 - r32) / r32:.2%}) and "
        f"coordinate-change bound holds, beta = {betas}",
    )
