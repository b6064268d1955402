import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gmlab import (
    FioEnvelope,
    NotInvertibleError,
    QParams,
    compose_check,
    diagonal_envelope,
    envelope,
    factorize_fio,
    fio_report,
    gabor_matrix,
    gabor_system,
    gaussian_window,
    invert_fio,
    metaplectic_operator,
    stft,
    symbol_pullback,
    symp_apply,
    symp_inverse,
    tf_shift,
    tf_shift_matrix,
    weyl_quantize,
)
from gmlab.metaplectic import J_MAT
from gmlab.presets import gaussian_bump_symbol
from gmlab.verify import random_sympmat

IDENTITY = np.eye(2, dtype=int)


def brute_envelope(T, chi, sys):
    """max over lambda of |<T pi(lambda) gamma, pi(chi lambda + mu) gamma>|, one
    lambda at a time, with every inner product taken against every atom."""
    N = sys.N
    gamma = sys.parseval_window
    atoms = np.array([[tf_shift((k, l), gamma) for l in range(N)] for k in range(N)])
    mk, ml = np.arange(N)[:, None], np.arange(N)
    out = np.zeros((N, N))
    for lk in range(N):
        for ll in range(N):
            coeff = np.abs(atoms.conj() @ (T @ atoms[lk, ll]))
            ck, cl = symp_apply(chi, (lk, ll), N)
            np.maximum(out, coeff[(ck + mk) % N, (cl + ml) % N], out=out)
    return out


def test_envelope_of_identity_is_window_autocorrelation():
    N = 5
    sys = gabor_system(gaussian_window(N))
    gamma = sys.parseval_window
    env = envelope(np.eye(N), IDENTITY, sys)
    assert_allclose(env.values, np.abs(stft(gamma, gamma)), atol=1e-14)
    peak = float(np.sum(np.abs(gamma) ** 2))
    assert env.values[0, 0] == pytest.approx(peak, rel=1e-12)
    assert np.argmax(env.values) == 0


CHIS = {
    "I": IDENTITY,
    "J": J_MAT,
    "shear": [[1, 1], [0, 1]],
    "cat": [[2, 1], [1, 1]],
    "cat2": [[1, 2], [1, 3]],
}


@pytest.mark.parametrize("chi", list(CHIS.values()), ids=list(CHIS))
@pytest.mark.parametrize("N", [5, 7, 11, 31])
def test_envelope_matches_brute_force(rng, N, chi):
    sys = gabor_system(gaussian_window(N))
    T = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    h = envelope(T, chi, sys).values
    # the streamed kernel reads the same rows of the same product as the dense oracle
    assert np.array_equal(h, diagonal_envelope(gabor_matrix(T, sys), chi))
    assert_allclose(h, brute_envelope(T, chi, sys), atol=1e-12)


def test_envelope_never_builds_the_gabor_matrix(rng):
    N = 43  # the dense N^2 x N^2 Gabor matrix alone is 52 MiB
    sys = gabor_system(gaussian_window(N))
    T = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        envelope(T, CHIS["cat"], sys)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize("value", [math.nan, 1e307])
def test_fio_report_rejects_non_finite_envelope(value):
    env = FioEnvelope(chi=IDENTITY, values=np.full((5, 5), value))
    with pytest.raises(ValueError, match="not finite"):
        fio_report(env, QParams(0.5, 1.0))


def test_envelope_of_metaplectic_is_transformed_window_correlation(rng):
    N = 5
    sys = gabor_system(gaussian_window(N))
    gamma = sys.parseval_window
    for chi in (J_MAT, random_sympmat(rng, N), random_sympmat(rng, N)):
        U = metaplectic_operator(chi, N)
        env = envelope(U, chi, sys)
        assert_allclose(env.values, np.abs(stft(U @ gamma, gamma)), atol=1e-13)


def test_envelope_of_shift_operator():
    N = 5
    z0 = (1, 3)
    sys = gabor_system(gaussian_window(N))
    gamma = sys.parseval_window
    env = envelope(tf_shift_matrix(z0, N), IDENTITY, sys)
    Vgg = np.abs(stft(gamma, gamma))
    shifted = np.roll(np.roll(Vgg, z0[0], axis=0), z0[1], axis=1)
    assert_allclose(env.values, shifted, atol=1e-13)


def test_envelope_rejects_mismatched_modulus():
    sys = gabor_system(gaussian_window(5))
    with pytest.raises(ValueError):
        envelope(np.eye(7), IDENTITY, sys)
    with pytest.raises(ValueError):
        envelope(np.eye(5), np.array([[1, 1], [0, 2]]), sys)


# ---------------------------------------------------------------- reports


def test_report_of_point_mass():
    N = 7
    values = np.zeros((N, N))
    values[0, 0] = 1.0
    rep = fio_report(FioEnvelope(chi=IDENTITY, values=values), QParams(0.5, 1.0))
    assert rep.quasi_norm == pytest.approx(1.0)
    assert rep.tail_fraction == 0.0
    assert rep.decay_exponent == math.inf


def test_report_of_flat_envelope():
    N = 7
    rep = fio_report(
        FioEnvelope(chi=IDENTITY, values=np.ones((N, N))), QParams(1.0, 0.0)
    )
    assert abs(rep.decay_exponent) < 1e-12
    assert 0.0 < rep.tail_fraction < 1.0


def test_report_of_zero_envelope():
    rep = fio_report(FioEnvelope(chi=IDENTITY, values=np.zeros((5, 5))), QParams(0.5, 0.0))
    assert rep.quasi_norm == 0.0
    assert rep.tail_fraction == 0.0


# ---------------------------------------------------------------- composition


def test_compose_identity_pair():
    N = 5
    p = QParams(0.8, 1.0)
    sys = gabor_system(gaussian_window(N))
    rep, ratio, env = compose_check(np.eye(N), IDENTITY, np.eye(N), IDENTITY, sys, p)
    assert np.array_equal(env.values, envelope(np.eye(N), IDENTITY, sys).values)
    identity_norm = fio_report(env, p).quasi_norm
    assert rep.quasi_norm == pytest.approx(identity_norm, rel=1e-12)
    assert ratio == pytest.approx(1.0 / identity_norm, rel=1e-12)


def test_compose_metaplectic_cancellation():
    N = 5
    p = QParams(0.8, 1.0)
    sys = gabor_system(gaussian_window(N))
    U = metaplectic_operator(J_MAT, N)
    Jinv = symp_inverse(J_MAT, N)
    rep, _, _ = compose_check(U, J_MAT, np.linalg.inv(U), Jinv, sys, p)
    identity_rep = fio_report(envelope(np.eye(N), IDENTITY, sys), p)
    assert rep.quasi_norm == pytest.approx(identity_rep.quasi_norm, rel=1e-10)
    assert rep.tail_fraction == pytest.approx(identity_rep.tail_fraction, abs=1e-12)


def test_compose_random_pairs_bounded(calibration, rng):
    N = 11
    cal = calibration["fio_pairs"]
    p = QParams(cal["q"], cal["s"])
    sys = gabor_system(gaussian_window(N))
    for _ in range(3):
        chi1, chi2 = random_sympmat(rng, N), random_sympmat(rng, N)
        s1 = 1.0 + 0.25 * (rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))) * gaussian_bump_symbol(N)
        s2 = 1.0 + 0.25 * (rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))) * gaussian_bump_symbol(N)
        T1 = weyl_quantize(s1) @ metaplectic_operator(chi1, N)
        T2 = weyl_quantize(s2) @ metaplectic_operator(chi2, N)
        t1 = fio_report(envelope(T1, chi1, sys), p).tail_fraction
        t2 = fio_report(envelope(T2, chi2, sys), p).tail_fraction
        rep, ratio, _ = compose_check(T1, chi1, T2, chi2, sys, p)
        assert np.isfinite(ratio)
        assert rep.tail_fraction <= cal["compose_factor_threshold"] * max(t1, t2)


# ---------------------------------------------------------------- inversion


def test_invert_metaplectic_matches_adjoint_reflection():
    N = 7
    p = QParams(0.8, 1.0)
    sys = gabor_system(gaussian_window(N))
    U = metaplectic_operator(J_MAT, N)
    Tinv, rep, env = invert_fio(U, J_MAT, sys, p)
    assert np.max(np.abs(Tinv - np.linalg.inv(U))) < 1e-12
    # envelope of the inverse is the reflected pullback of the forward one
    h_fwd = envelope(U, J_MAT, sys).values
    h_inv = envelope(Tinv, symp_inverse(J_MAT, N), sys).values
    assert np.array_equal(env.values, h_inv)
    k = np.arange(N)[:, None]
    l = np.arange(N)[None, :]
    ck = (-(J_MAT[0, 0] * k + J_MAT[0, 1] * l)) % N
    cl = (-(J_MAT[1, 0] * k + J_MAT[1, 1] * l)) % N
    assert np.max(np.abs(h_inv - h_fwd[ck, cl])) < 1e-10


def test_invert_near_identity_tail(calibration):
    N = 11
    cal = calibration["fio_pairs"]
    p = QParams(cal["q"], cal["s"])
    sys = gabor_system(gaussian_window(N))
    T = weyl_quantize(1.0 + 0.1 * gaussian_bump_symbol(N))
    fwd = fio_report(envelope(T, IDENTITY, sys), p)
    _, rep, _ = invert_fio(T, IDENTITY, sys, p)
    assert rep.tail_fraction <= cal["invert_factor_threshold"] * fwd.tail_fraction


def test_invert_rejects_singular():
    N = 5
    sys = gabor_system(gaussian_window(N))
    P = np.zeros((N, N))
    P[0, 0] = 1.0
    with pytest.raises(NotInvertibleError):
        invert_fio(P, IDENTITY, sys, QParams(0.5, 0.0))


def test_invert_rejects_ill_conditioned():
    N = 5
    sys = gabor_system(gaussian_window(N))
    with pytest.raises(NotInvertibleError):
        invert_fio(np.diag([1.0, 1, 1, 1, 1e-9]), IDENTITY, sys, QParams(0.5, 0.0), cond_tol=1e6)


def test_adjoint_envelope_law(rng):
    N = 7
    sys = gabor_system(gaussian_window(N))
    for _ in range(3):
        T = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        chi = random_sympmat(rng, N)
        h_fwd = envelope(T, chi, sys).values
        h_adj = envelope(T.conj().T, symp_inverse(chi, N), sys).values
        k = np.arange(N)[:, None]
        l = np.arange(N)[None, :]
        ck = (-(chi[0, 0] * k + chi[0, 1] * l)) % N
        cl = (-(chi[1, 0] * k + chi[1, 1] * l)) % N
        assert np.max(np.abs(h_adj - h_fwd[ck, cl])) < 1e-10


# ---------------------------------------------------------------- factorization


def test_factorize_metaplectic_itself():
    N = 7
    chi = np.array([[2, 1], [1, 1]])
    U = metaplectic_operator(chi, N)
    s1, s2, res = factorize_fio(U, chi)
    assert np.max(np.abs(s1 - 1.0)) < 1e-10
    assert np.max(np.abs(s2 - 1.0)) < 1e-10
    assert res["op_then_mu"] < 1e-10
    assert res["mu_then_op"] < 1e-10


def test_factorize_recovers_left_symbol(rng):
    N = 7
    chi = random_sympmat(rng, N)
    sigma = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    T = weyl_quantize(sigma) @ metaplectic_operator(chi, N)
    s1, s2, res = factorize_fio(T, chi)
    assert np.max(np.abs(s1 - sigma)) < 1e-10
    assert res["op_then_mu"] < 1e-9
    assert res["mu_then_op"] < 1e-9


def test_factorize_recovers_right_symbol_with_pullback(rng):
    N = 7
    sigma = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    U = metaplectic_operator(J_MAT, N)
    T = U @ weyl_quantize(sigma)
    s1, s2, res = factorize_fio(T, J_MAT)
    assert np.max(np.abs(s2 - sigma)) < 1e-10
    Jinv = symp_inverse(J_MAT, 7)
    defect = np.max(np.abs(np.abs(s1) - np.abs(symbol_pullback(sigma, Jinv))))
    print(f"modulus defect of the left symbol vs pullback: {defect:.3e}")
    assert res["op_then_mu"] < 1e-9


@pytest.mark.parametrize("shape", [(7, 5), (7,), (2, 7, 7)])
def test_factorize_rejects_a_non_square_operator(shape):
    # N is read from the operator, so a non-square one has no modulus
    with pytest.raises(ValueError, match="not square"):
        factorize_fio(np.ones(shape), np.eye(2, dtype=int))


def test_window_robustness_of_tail(calibration, rng):
    N = 11
    cal = calibration["window_robustness"]
    p = QParams(0.8, 1.0)
    sys1 = gabor_system(gaussian_window(N, 1.0))
    sys2 = gabor_system(gaussian_window(N, 2.0))
    for _ in range(3):
        chi = random_sympmat(rng, N)
        sigma = 1.0 + 0.25 * (
            rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        ) * gaussian_bump_symbol(N)
        T = weyl_quantize(sigma) @ metaplectic_operator(chi, N)
        t1 = fio_report(envelope(T, chi, sys1), p).tail_fraction
        t2 = fio_report(envelope(T, chi, sys2), p).tail_fraction
        assert max(t1 / t2, t2 / t1) <= cal["factor_threshold"]
