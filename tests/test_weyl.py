import numpy as np
import pytest
from numpy.testing import assert_allclose

from gmlab import (
    QParams,
    cb_norm,
    duality_pairing,
    gabor_matrix,
    gabor_system,
    gaussian_window,
    half_inverse,
    modulation_norm,
    shift_bank,
    stft,
    tf_shift,
    weyl_dequantize,
    weyl_quantize,
    wigner,
)
from gmlab import weyl
from gmlab.phase_space import _shift_tables
from gmlab.presets import gaussian_bump_symbol


def brute_wigner(f, g):
    N = len(f)
    h = half_inverse(N)
    out = np.zeros((N, N), complex)
    for x in range(N):
        for xi in range(N):
            acc = 0j
            for t in range(N):
                acc += (
                    f[(x + h * t) % N]
                    * np.conj(g[(x - h * t) % N])
                    * np.exp(-2j * np.pi * xi * t / N)
                )
            out[x, xi] = acc
    return out


def test_half_inverse():
    assert half_inverse(5) == 3
    assert (2 * half_inverse(31)) % 31 == 1
    with pytest.raises(ValueError):
        half_inverse(6)


def test_wigner_of_delta():
    N = 5
    d = np.zeros(N, complex)
    d[0] = 1.0
    W = wigner(d, d)
    assert_allclose(W[0], np.ones(N), atol=1e-15)
    assert np.max(np.abs(W[1:])) == 0.0


def test_wigner_real_for_real_even_window():
    N = 7
    g = np.asarray(gaussian_window(N))  # real and even around 0
    W = wigner(g, g)
    assert np.max(np.abs(W.imag)) < 1e-12


def test_wigner_matches_brute_force(rng):
    N = 7
    f = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    g = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    assert np.max(np.abs(wigner(f, g) - brute_wigner(f, g))) < 1e-12


def test_quantize_constant_symbol_is_identity():
    N = 7
    assert np.max(np.abs(weyl_quantize(np.ones((N, N))) - np.eye(N))) < 1e-14


def test_quantize_modulation_symbol_is_multiplier():
    N = 5
    x = np.arange(N)
    sigma = np.exp(2j * np.pi * x / N)[:, None] * np.ones((1, N))
    T = weyl_quantize(sigma)
    assert np.max(np.abs(T - np.diag(np.exp(2j * np.pi * x / N)))) < 1e-14


@pytest.mark.parametrize("N", [5, 7])
def test_duality_identity(N, rng):
    for _ in range(10):
        sigma = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        f = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        g = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        lhs = complex(np.vdot(g, weyl_quantize(sigma) @ f))
        assert abs(lhs - duality_pairing(sigma, f, g)) < 1e-11


def test_dequantize_identity():
    N = 7
    assert np.max(np.abs(weyl_dequantize(np.eye(N)) - np.ones((N, N)))) < 1e-13


def test_dequantize_rank_one_is_wigner(rng):
    N = 7
    g = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    T = np.outer(g, np.conj(g))
    assert np.max(np.abs(weyl_dequantize(T) - wigner(g, g))) < 1e-12


def test_quantize_dequantize_roundtrip(rng):
    N = 7
    sigma = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    assert np.max(np.abs(weyl_dequantize(weyl_quantize(sigma)) - sigma)) < 1e-12
    T = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    assert np.max(np.abs(weyl_quantize(weyl_dequantize(T)) - T)) < 1e-12


def gather_wigner(f, g):
    """Oracle: the row gather W[x, .] = FFT_t f(x + h t) conj(g(x - h t))."""
    N = len(f)
    h = half_inverse(N)
    x, t = np.arange(N)[:, None], np.arange(N)[None, :]
    return np.fft.fft(f[(x + h * t) % N] * np.conj(g[(x - h * t) % N]), axis=1)


def gather_quantize(sigma):
    """Oracle: T[x, y] = C[h (x+y), x-y] with C the row-wise inverse FFT of sigma."""
    N = sigma.shape[0]
    h = half_inverse(N)
    x, y = np.arange(N)[:, None], np.arange(N)[None, :]
    return np.fft.ifft(sigma, axis=1)[(h * (x + y)) % N, (x - y) % N]


def gather_dequantize(T):
    """Oracle: sigma = FFT_d of G[a, d] = T[a + h d, a - h d]."""
    N = T.shape[0]
    h = half_inverse(N)
    a, d = np.arange(N)[:, None], np.arange(N)[None, :]
    return np.fft.fft(T[(a + h * d) % N, (a - h * d) % N], axis=1)


@pytest.mark.parametrize("N", [3, 7, 61])
def test_one_index_map_equals_the_three_gathers_exactly(N, rng):
    """wigner, weyl_quantize and weyl_dequantize read one index map; each
    equals its own gather formula bit for bit."""
    f = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    g = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    sigma = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    T = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    assert np.array_equal(wigner(f, g), gather_wigner(f, g))
    assert np.array_equal(weyl_quantize(sigma), gather_quantize(sigma))
    assert np.array_equal(weyl_dequantize(T), gather_dequantize(T))


# ---------------------------------------------------------------- Gabor matrices


def test_gabor_matrix_of_identity_is_gram():
    N = 5
    sys = gabor_system(gaussian_window(N))
    gamma = sys.parseval_window
    M = gabor_matrix(np.eye(N), sys)
    energy = np.sum(np.abs(gamma) ** 2)
    for row in range(N * N):
        mu = (row // N, row % N)
        for col in range(N * N):
            lam = (col // N, col % N)
            expected = np.vdot(tf_shift(mu, gamma), tf_shift(lam, gamma))
            assert abs(M[row, col] - expected) < 1e-13
        assert abs(M[row, row] - energy) < 1e-13


def test_gabor_matrix_of_shift_is_banded():
    N = 5
    z0 = (2, 1)
    sys = gabor_system(gaussian_window(N))
    gamma = sys.parseval_window
    M = gabor_matrix(
        np.exp(2j * np.pi * z0[1] * np.arange(N) / N)[:, None]
        * np.roll(np.eye(N), z0[0], axis=0),
        sys,
    )
    Vgg = np.abs(stft(gamma, gamma))
    for row in range(N * N):
        mu = (row // N, row % N)
        for col in range(N * N):
            lam = (col // N, col % N)
            offset = ((mu[0] - lam[0] - z0[0]) % N, (mu[1] - lam[1] - z0[1]) % N)
            assert abs(abs(M[row, col]) - Vgg[offset]) < 1e-13


def test_gabor_matrix_commutation(rng):
    N = 7
    sys = gabor_system(gaussian_window(N))
    gamma = sys.parseval_window
    for _ in range(5):
        sigma = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        f = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        T = weyl_quantize(sigma)
        M = gabor_matrix(T, sys)
        lhs = stft(T @ f, gamma).ravel()
        rhs = M @ stft(f, gamma).ravel()
        assert np.linalg.norm(lhs - rhs) < 1e-10


def row_block_gabor_matrix(T, sys):
    """The Gabor matrix P^H (T P) one block of rows (rk, .) at a time, each
    block of P^H rebuilt entry for entry from the shift tables."""
    N = sys.N
    translates, phases = _shift_tables(sys.parseval_window)
    TP = T @ shift_bank(sys.parseval_window)
    M = np.empty((N * N, N * N), dtype=complex)
    for rk in range(N):
        M[rk * N:(rk + 1) * N] = np.conj(translates[:, rk, None] * phases).T @ TP
    return M


@pytest.mark.parametrize("N", [5, 13, 31, 43])
def test_gabor_matrix_matches_row_block_loop(rng, N):
    sys = gabor_system(rng.standard_normal(N) + 1j * rng.standard_normal(N))
    T = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    assert np.array_equal(gabor_matrix(T, sys), row_block_gabor_matrix(T, sys))


# ---------------------------------------------------------------- modulation norm


def brute_modulation_sup(sigma, window):
    N = sigma.shape[0]
    sup = np.zeros((N, N))
    for z1 in range(N):
        for z2 in range(N):
            for zeta1 in range(N):
                for zeta2 in range(N):
                    acc = 0j
                    for u1 in range(N):
                        for u2 in range(N):
                            acc += (
                                sigma[u1, u2]
                                * np.conj(window[(u1 - z1) % N, (u2 - z2) % N])
                                * np.exp(-2j * np.pi * (zeta1 * u1 + zeta2 * u2) / N)
                            )
                    sup[zeta1, zeta2] = max(sup[zeta1, zeta2], abs(acc))
    return sup


def test_modulation_norm_of_zero():
    assert modulation_norm(np.zeros((5, 5)), QParams(0.5, 1.0)) == 0.0


def test_modulation_norm_homogeneous(rng):
    N = 5
    sigma = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    p = QParams(0.8, 1.0)
    assert modulation_norm(3.5 * sigma, p) == pytest.approx(
        3.5 * modulation_norm(sigma, p), rel=1e-12
    )


def test_modulation_norm_brute_force():
    N = 5
    from gmlab._lattice import lattice_qnorm

    g = np.asarray(gaussian_window(N))
    window = np.outer(g, g)
    sigma = np.ones((N, N), complex)
    p = QParams(1.0, 0.0)
    expected = lattice_qnorm(brute_modulation_sup(sigma, window), p.q, p.s)
    assert modulation_norm(sigma, p, window) == pytest.approx(expected, rel=1e-10)


def loop_modulation_sup(sigma, window):
    """The sup field of `modulation_norm` with one fft2 per shift (z1, z2)."""
    N = sigma.shape[0]
    sup = np.zeros((N, N))
    for z1 in range(N):
        for z2 in range(N):
            shifted = np.roll(np.roll(window, z1, axis=0), z2, axis=1)
            np.maximum(sup, np.abs(np.fft.fft2(sigma * np.conj(shifted))), out=sup)
    return sup


@pytest.mark.parametrize("N", [5, 7, 13, 31])
def test_modulation_norm_sup_field_matches_loop(rng, monkeypatch, N):
    sigma = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    window = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    fields = []
    monkeypatch.setattr(weyl, "lattice_qnorm", lambda field, q, s: fields.append(field) or 0.0)
    modulation_norm(sigma, QParams(0.5, 1.0), window)
    assert np.array_equal(fields[0], loop_modulation_sup(sigma, window))


def test_modulation_norm_rejects_zero_window():
    with pytest.raises(ValueError):
        modulation_norm(np.ones((5, 5)), QParams(1.0, 0.0), np.zeros((5, 5)))


def test_norm_equivalence_within_frozen_interval(calibration):
    cal = calibration["norm_equivalence"]
    N = cal["N"]
    p = QParams(cal["q"], cal["s"])
    sys = gabor_system(gaussian_window(N))
    rng = np.random.default_rng(20_000)  # fresh suite, not the calibration seed
    symbols = [np.ones((N, N), complex), gaussian_bump_symbol(N)]
    for _ in range(4):
        noise = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        symbols.append(1.0 + 0.25 * noise * gaussian_bump_symbol(N))
    ratios = []
    for sigma in symbols:
        M = gabor_matrix(weyl_quantize(sigma), sys)
        ratios.append(cb_norm(M, p) / modulation_norm(sigma, p))
    assert min(ratios) >= cal["ratio_lo"]
    assert max(ratios) <= cal["ratio_hi"]
    assert max(ratios) / min(ratios) <= cal["spread_threshold"]


def test_almost_diagonalization_envelope_decays():
    # smooth symbol -> Gabor matrix envelope decays away from the diagonal;
    # the quasi-norm stays finite and moves little under a window change
    from gmlab import diagonal_envelope, fio_report, FioEnvelope

    N = 11
    p = QParams(0.8, 1.0)
    sigma = gaussian_bump_symbol(N)
    norms = []
    for width in (1.0, 2.0):
        sys = gabor_system(gaussian_window(N, width))
        M = gabor_matrix(weyl_quantize(sigma), sys)
        d = diagonal_envelope(M)
        rep = fio_report(FioEnvelope(values=d), p)
        assert np.isfinite(rep.quasi_norm)
        assert rep.decay_exponent > 0.5
        norms.append(rep.quasi_norm)
    factor = max(norms) / min(norms)
    print(f"window-change factor for envelope quasi-norm: {factor:.4f}")
    assert factor < 3.0


@pytest.mark.parametrize("N", [5, 11])
def test_gabor_matrix_norm_is_the_operator_norm(rng, N):
    # the Parseval window makes P^H an isometry: ||P^H T P||_2 = ||T||_2
    window = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    T = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    dense = np.linalg.norm(gabor_matrix(T, gabor_system(window)), 2)
    assert np.linalg.norm(T, 2) == pytest.approx(dense, rel=1e-12)
