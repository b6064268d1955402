import math
import os
import threading
from sys import getswitchinterval, setswitchinterval

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
    fio_operator,
    fio_report,
    gabor_matrix,
    gabor_system,
    gaussian_window,
    invert_fio,
    metaplectic_operator,
    phase_align,
    stft,
    symbol_pullback,
    symp_apply,
    symp_inverse,
    tf_shift,
    weyl_dequantize,
    weyl_quantize,
)
from gmlab import fio
from gmlab.metaplectic import J_MAT
from gmlab.presets import _complex_normal, gaussian_bump_symbol
from gmlab.verify import random_sympmat
from reference import graph_columns, tf_shift_matrix

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


def rippled_window(rng, N):
    """Periodized Gaussian with a 10% complex ripple, the benchmark's window."""
    t = np.arange(N)
    g = sum(np.exp(-np.pi * (t - j * N) ** 2 * 1.1 / N) for j in range(-4, 5))
    return g * (1.0 + 0.1 * _complex_normal(rng, N) / np.sqrt(2))


# A real, even window leaves the imaginary and odd window terms of the folded
# kernel at zero; the complex ones catch a sign slip there (a conjugated
# window is off by 0.32 of the maximum at N = 11).
WINDOWS = {
    "gaussian": lambda rng, N: gaussian_window(N),
    "normal": _complex_normal,
    "rippled": rippled_window,
}


@pytest.mark.parametrize("window", list(WINDOWS))
@pytest.mark.parametrize("chi", list(CHIS.values()), ids=list(CHIS))
@pytest.mark.parametrize("N", [3, 5, 7, 9, 11, 15, 21, 31])
def test_envelope_matches_brute_force(rng, N, chi, window):
    sys = gabor_system(WINDOWS[window](rng, N))
    T = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    h = envelope(T, chi, sys).values
    # the folded DFT rounds otherwise than the Gabor matrix's inner
    # products, so they agree to rounding, not bit for bit
    ref = diagonal_envelope(gabor_matrix(T, sys)[:, graph_columns(chi, N)])
    assert np.abs(h - ref).max() <= 1e-13 * ref.max()
    assert_allclose(h, brute_envelope(T, chi, sys), atol=1e-12)


@pytest.mark.parametrize("window", list(WINDOWS))
@pytest.mark.parametrize("N, chi", [(9, [[1, 3], [0, 1]]), (9, [[7, 6], [3, 4]]),
                                    (15, [[4, 10], [7, 14]]), (15, [[6, 5], [10, 6]])])
def test_envelope_at_composite_n_along_a_non_unit_b(rng, N, chi, window):
    # T = Op(sigma) U_chi, whose U_chi is factored through the k-shift
    sys = gabor_system(WINDOWS[window](rng, N))
    sigma = 1.0 + 0.2 * rng.standard_normal((N, N)) * gaussian_bump_symbol(N)
    T = fio_operator(sigma, chi)
    h = envelope(T, chi, sys).values
    ref = diagonal_envelope(gabor_matrix(T, sys)[:, graph_columns(chi, N)])
    assert np.abs(h - ref).max() <= 1e-13 * ref.max()


@pytest.fixture
def pretend_cores(monkeypatch):
    """A function that makes `envelope` see `cores` cores and the given BLAS
    thread variables (None unsets one), and returns the list of worker
    counts of its `_fan_out` calls."""
    counts = []
    fan_out = fio._fan_out

    def counted(calls):
        counts.append(len(calls))
        fan_out(calls)

    def pretend(cores, openblas="1", omp=None):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        for name, value in (("OPENBLAS_NUM_THREADS", openblas), ("OMP_NUM_THREADS", omp)):
            if value is None:
                monkeypatch.delenv(name, raising=False)
            else:
                monkeypatch.setenv(name, value)
        monkeypatch.setattr(fio, "_fan_out", counted)
        return counts

    return pretend


@pytest.mark.parametrize("chi", [IDENTITY, CHIS["cat"]], ids=["I", "cat"])
@pytest.mark.parametrize("N", [43, 61])
def test_envelope_is_the_same_bits_at_any_worker_count(rng, pretend_cores, N, chi):
    # 3 panels at N = 43, split 2 + 1 on 2 workers, and 8 at N = 61
    sys = gabor_system(rippled_window(rng, N))
    T = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    runs = {}
    for cores in (1, 2, 3):
        counts = pretend_cores(cores)
        counts.clear()
        runs[cores] = envelope(T, chi, sys).values.tobytes()
        assert counts == [cores]
    assert runs[2] == runs[1] and runs[3] == runs[1]


def test_envelope_fans_out_once_and_folds_each_panel_once(rng, monkeypatch, pretend_cores):
    N = 61
    fold_rows, folds = fio._fold_rows, []

    def recorded(folded, *args):
        folds.append(folded.tobytes())
        fold_rows(folded, *args)

    counts = pretend_cores(3)
    monkeypatch.setattr(fio, "_fold_rows", recorded)
    sys = gabor_system(gaussian_window(N))
    envelope(rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N)), CHIS["cat"], sys)
    panels = -(-N // fio._panel_width(N))
    assert counts == [3] and panels == 8
    assert len(folds) == len(set(folds)) == panels


@pytest.mark.parametrize("k", [-600, 560])
def test_envelope_of_an_operator_scaled_by_a_power_of_two_is_scaled_bit_for_bit(rng, k):
    # squared moduli of 2^560 T overflow and those of 2^-600 T underflow,
    # unless the kernel scales T back first
    N = 11
    sys = gabor_system(rippled_window(rng, N))
    T = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    h = envelope(T, CHIS["cat"], sys).values
    assert np.array_equal(envelope(np.ldexp(1.0, k) * T, CHIS["cat"], sys).values, np.ldexp(h, k))


def test_envelope_with_more_workers_than_cores_and_fast_thread_switches(rng, pretend_cores):
    # each worker folds into its own accumulator, so no row may be lost
    # however often the threads switch; N = 43 has 3 panels, one a worker
    N = 43
    sys = gabor_system(gaussian_window(N))
    T = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    counts = pretend_cores(1)
    want = envelope(T, CHIS["cat"], sys).values.tobytes()
    pretend_cores(8)
    interval = getswitchinterval()
    setswitchinterval(1e-6)
    try:
        for _ in range(5):
            assert envelope(T, CHIS["cat"], sys).values.tobytes() == want
    finally:
        setswitchinterval(interval)
    assert counts == [1] + [3] * 5


@pytest.mark.parametrize("openblas, omp, workers", [
    (None, None, 1),  # unset: BLAS already spreads every product over the cores
    (None, "1", 3),  # 6 workers would hold more than _WORKERS_BYTES
    ("3", "1", 2),  # OPENBLAS_NUM_THREADS first, as OpenBLAS reads them
    ("4", None, 1),
    ("0", "3", 2),  # not a positive count: the next variable
    ("auto", None, 1),
])
def test_envelope_workers_are_the_cores_blas_leaves_idle(pretend_cores, openblas, omp, workers):
    N = 61  # 8 panels
    counts = pretend_cores(6, openblas, omp)
    envelope(np.eye(N), IDENTITY, gabor_system(gaussian_window(N)))
    assert counts == [workers]


@pytest.mark.parametrize("cpus, workers", [(2, 2), (None, 1)])
def test_envelope_workers_count_the_cpus_without_an_affinity_mask(monkeypatch, pretend_cores,
                                                                   cpus, workers):
    # os.sched_getaffinity is Linux-only; elsewhere os.cpu_count() counts the cores
    N = 61
    counts = pretend_cores(6)
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    envelope(np.eye(N), IDENTITY, gabor_system(gaussian_window(N)))
    assert counts == [workers]


def test_envelope_runs_no_more_workers_than_panels(monkeypatch, pretend_cores):
    counts = pretend_cores(8)
    monkeypatch.setattr(fio, "_WORKERS_BYTES", 2**30)  # the panels, not the budget, bound them
    for N, panels in ((31, 1), (43, 3)):
        assert -(-N // fio._panel_width(N)) == panels
        counts.clear()
        envelope(np.eye(N), IDENTITY, gabor_system(gaussian_window(N)))
        assert counts == [panels]


def test_an_exception_in_a_worker_comes_out_of_envelope(monkeypatch, pretend_cores):
    # a bare thread would only print it and leave a partial maximum
    fold_rows = fio._fold_rows

    def failing(*args):
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError("worker failed")
        fold_rows(*args)

    pretend_cores(2)
    monkeypatch.setattr(fio, "_fold_rows", failing)
    N = 43
    sys = gabor_system(gaussian_window(N))
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="worker failed"):
        envelope(np.eye(N), IDENTITY, sys)
    assert threading.active_count() == threads


def test_the_main_calls_exception_wins_over_a_workers():
    # the main call fails after the worker has
    failed = threading.Event()

    def worker():
        failed.set()
        raise RuntimeError("worker failed")

    def main():
        failed.wait(5)
        raise ValueError("main failed")

    with pytest.raises(ValueError, match="main failed"):
        fio._fan_out([main, worker])


def test_envelope_never_builds_the_gabor_matrix(rng, traced_peak, pretend_cores):
    # the dense N^2 x N^2 Gabor matrix is 52 MiB at N = 43, and its factor T P
    # alone is 16 N^3 bytes (11 MiB at N = 89).  Each worker of the envelope
    # holds one panel of at most 512 KiB or its folded copy and the products
    # of one row, as many workers as fit _WORKERS_BYTES on 8 cores, so its
    # peak does not grow with N^3 or with the core count.
    pretend_cores(8)
    for N in (43, 61, 89):
        sys = gabor_system(gaussian_window(N))
        T = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        assert traced_peak(lambda: envelope(T, CHIS["cat"], sys)) < 6 * 2**20


@pytest.mark.parametrize("value", [math.nan, 1e307])
def test_fio_report_rejects_non_finite_envelope(value):
    env = FioEnvelope(values=np.full((5, 5), value))
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


def continuum_envelope(A, w):
    """F_A(w) = det((A^T A + I)/2)^(-1/4) exp(-pi w^T (A A^T + I)^-1 w), the
    modulus |V_g(mu(A) g)| of the continuous Gaussian's metaplectic image."""
    A = np.asarray(A, dtype=float)
    scale = np.linalg.det((A.T @ A + np.eye(2)) / 2) ** -0.25
    form = np.linalg.inv(A @ A.T + np.eye(2))
    return scale * np.exp(-np.pi * np.einsum("...i,ij,...j->...", w, form, w))


@pytest.mark.parametrize("A, bound", [(IDENTITY, 1e-10), (J_MAT, 1e-10),
                                      ([[1, 1], [0, 1]], 1e-6), ([[2, 1], [1, 1]], 1e-3)])
def test_envelope_of_metaplectic_is_the_continuum_limit(A, bound):
    # N h_{U_A}(mu) = F_A(d / sqrt N) up to the Gaussian's periodization tail,
    # d the torus distance from mu_0 = (N/2)(ab mod 2, cd mod 2); the shear
    # and the cat map pin the two half-period centres
    N = 61
    A = np.asarray(A)
    h = envelope(metaplectic_operator(A, N), A, gabor_system(gaussian_window(N))).values
    (a, b), (c, d) = A
    mu_0 = (N / 2) * np.array([a * b % 2, c * d % 2])
    mu = np.stack(np.meshgrid(np.arange(N), np.arange(N), indexing="ij"), axis=-1)
    dist = (mu - mu_0 + N / 2) % N - N / 2
    assert np.max(np.abs(N * h - continuum_envelope(A, dist / np.sqrt(N)))) < bound


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
    rep = fio_report(FioEnvelope(values=values), QParams(0.5, 1.0))
    assert rep.quasi_norm == pytest.approx(1.0)
    assert rep.tail_fraction == 0.0
    assert rep.decay_exponent == math.inf


def test_report_of_flat_envelope():
    N = 7
    rep = fio_report(
        FioEnvelope(values=np.ones((N, N))), QParams(1.0, 0.0)
    )
    assert abs(rep.decay_exponent) < 1e-12
    assert 0.0 < rep.tail_fraction < 1.0


def test_report_of_zero_envelope():
    rep = fio_report(FioEnvelope(values=np.zeros((5, 5))), QParams(0.5, 0.0))
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


def test_compose_of_a_square_reuses_the_factor_envelope(monkeypatch, rng):
    N = 7
    p = QParams(0.5, 1.0)
    sys = gabor_system(gaussian_window(N))
    T = fio_operator(rng.standard_normal((N, N)), J_MAT)
    rep1 = fio_report(envelope(T, J_MAT, sys), p)
    calls = []

    def counted(*args):
        calls.append(args)
        return envelope(*args)

    monkeypatch.setattr(fio, "envelope", counted)
    # T T along one map (chi given unreduced once) needs h(T) once, then h(T T)
    rep, ratio, _ = compose_check(T, J_MAT, T.copy(), J_MAT + N, sys, p)
    assert len(calls) == 2
    assert ratio == rep.quasi_norm / (rep1.quasi_norm * rep1.quasi_norm)
    # a different factor, or the same factor along another map, needs its own
    for T2, chi2 in [(T + np.eye(N), J_MAT), (T, IDENTITY)]:
        calls.clear()
        compose_check(T, J_MAT, T2, chi2, sys, p)
        assert len(calls) == 3


def test_compose_random_pairs_bounded(calibration, rng):
    N = 11
    cal = calibration["fio_pairs"]
    p = QParams(cal["q"], cal["s"])
    sys = gabor_system(gaussian_window(N))
    for _ in range(3):
        chi1, chi2 = random_sympmat(rng, N), random_sympmat(rng, N)
        s1 = 1.0 + 0.25 * (rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))) * gaussian_bump_symbol(N)
        s2 = 1.0 + 0.25 * (rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))) * gaussian_bump_symbol(N)
        T1 = fio_operator(s1, chi1)
        T2 = fio_operator(s2, chi2)
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


@pytest.mark.parametrize("N, chi", [(7, [[2, 1], [1, 1]]), (15, [[4, 5], [3, 4]])])
def test_fio_operator_is_the_symbol_times_the_metaplectic_unitary(rng, N, chi):
    # at N = 15 the map's b = 5 is not a unit
    sigma = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    written_out = weyl_quantize(sigma) @ metaplectic_operator(chi, N)
    assert np.array_equal(fio_operator(sigma, chi), written_out)
    with pytest.raises(ValueError, match="not square"):
        fio_operator(sigma[:, :-1], chi)
    with pytest.raises(ValueError, match="not symplectic"):
        fio_operator(sigma, [[2, 0], [0, 2]])


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
    T = fio_operator(sigma, chi)
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


@pytest.mark.parametrize("N", [5, 9, 31])
def test_factorize_right_symbol_is_the_left_one_pulled_back_along_chi(N):
    # U^* Op(sigma1) U = Op(sigma1 o chi): the phases agree too, not only the moduli
    rng = np.random.default_rng(N)
    for chi in [np.array([[1, 3], [0, 1]])] + [random_sympmat(rng, N) for _ in range(3)]:
        T = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        s1, s2, res = factorize_fio(T, chi)
        assert np.max(np.abs(s2 - symbol_pullback(s1, chi))) < 1e-13 * np.max(np.abs(s1))
        assert res["egorov_modulus_defect"] < 1e-13 * np.max(np.abs(s1))


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
        T = fio_operator(sigma, chi)
        t1 = fio_report(envelope(T, chi, sys1), p).tail_fraction
        t2 = fio_report(envelope(T, chi, sys2), p).tail_fraction
        assert max(t1 / t2, t2 / t1) <= cal["factor_threshold"]


# ---------------------------------------------------------------- symplectic covariance


def random_symbol(rng, N):
    return rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))


def covariance_maps(N):
    """Three random maps and, at composite N, maps whose b is not a unit (the
    shifted branch of factor_generators); involutions are left out, since
    tau o chi = tau o chi^-1 for them."""
    fixed = {9: [[[1, 3], [0, 1]], [[2, 3], [3, 5]]], 15: [[[1, 5], [0, 1]], [[4, 5], [3, 4]]]}
    rng = np.random.default_rng(N)
    chis = [np.array(m) for m in fixed.get(N, [])] + [random_sympmat(rng, N) for _ in range(3)]
    return [chi for chi in chis if not np.array_equal(chi @ chi % N, IDENTITY)]


def relative_error(A, B):
    return np.linalg.norm(A - B, 2) / np.linalg.norm(B, 2)


@pytest.mark.parametrize("N", [7, 9, 15, 31])
def test_metaplectic_conjugation_pulls_the_symbol_back_along_chi_inverse(N):
    # U_chi Op(tau) U_chi^* = Op(tau o chi^-1); the other orientation is off by O(1)
    rng = np.random.default_rng(N + 1)
    for chi in covariance_maps(N):
        tau, U = random_symbol(rng, N), metaplectic_operator(chi, N)
        conjugate = U @ weyl_quantize(tau) @ U.conj().T
        pulled = symbol_pullback(tau, symp_inverse(chi, N))
        assert relative_error(conjugate, weyl_quantize(pulled)) < 1e-12
        assert relative_error(conjugate, weyl_quantize(symbol_pullback(tau, chi))) > 0.5


@pytest.mark.parametrize("N", [7, 9, 15, 31])
def test_twisted_operators_compose_along_the_product_map(N):
    # Op(sigma) U_chi1 Op(tau) U_chi2 = c Op(sigma # (tau o chi1^-1)) U_(chi1 chi2), |c| = 1,
    # with sigma # rho the symbol of Op(sigma) Op(rho)
    rng = np.random.default_rng(N + 2)
    for chi1 in covariance_maps(N):
        chi2 = random_sympmat(rng, N)
        sigma, tau = random_symbol(rng, N), random_symbol(rng, N)
        product = fio_operator(sigma, chi1) @ fio_operator(tau, chi2)
        pulled = symbol_pullback(tau, symp_inverse(chi1, N))
        sharp = weyl_dequantize(weyl_quantize(sigma) @ weyl_quantize(pulled))  # sigma # (tau o chi1^-1)
        twisted = fio_operator(sharp, chi1 @ chi2 % N)
        c = phase_align(product, twisted)
        assert abs(abs(c) - 1) < 1e-14
        assert relative_error(product, c * twisted) < 1e-12


@pytest.mark.parametrize("cond_tol", [0.5, math.nan])
def test_invert_fio_refuses_a_condition_bound_below_one(cond_tol):
    sys = gabor_system(gaussian_window(5))
    with pytest.raises(ValueError, match="cond_tol must be >= 1"):
        invert_fio(np.eye(5), IDENTITY, sys, QParams(1.0), cond_tol=cond_tol)
