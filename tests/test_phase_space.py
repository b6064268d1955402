import numpy as np
import pytest
from numpy.testing import assert_allclose

from gmlab import (
    frame_bounds,
    gabor_system,
    gaussian_window,
    stft,
    synthesize,
    tf_shift,
    tf_shift_matrix,
)
from gmlab._lattice import centered, root_of_unity


def brute_stft(f, g):
    N = len(f)
    out = np.zeros((N, N), complex)
    for k in range(N):
        for l in range(N):
            out[k, l] = np.vdot(tf_shift((k, l), g), f)
    return out


def test_shift_identity():
    f = np.arange(5, dtype=complex)
    assert_allclose(tf_shift((0, 0), f), f)


def test_pure_translation():
    f = np.zeros(5, complex)
    f[0] = 1.0
    out = tf_shift((1, 0), f)
    expected = np.zeros(5, complex)
    expected[1] = 1.0
    assert_allclose(out, expected)


def test_pure_modulation():
    N = 5
    f = np.ones(N, complex)
    out = tf_shift((0, 1), f)
    t = np.arange(N)
    assert_allclose(out, np.exp(2j * np.pi * t / N))


@pytest.mark.parametrize("N", [5, 7])
def test_shift_unitarity(N, rng):
    f = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    for k in range(N):
        for l in range(N):
            assert abs(np.linalg.norm(tf_shift((k, l), f)) - np.linalg.norm(f)) < 1e-14


def test_shift_commutation_up_to_phase():
    N = 5
    for k1 in range(N):
        for l1 in range(N):
            A = tf_shift_matrix((k1, l1), N)
            for k2 in range(N):
                for l2 in range(N):
                    B = tf_shift_matrix((k2, l2), N)
                    composite = A @ B
                    phase = np.exp(-2j * np.pi * l2 * k1 / N)
                    target = phase * tf_shift_matrix(((k1 + k2) % N, (l1 + l2) % N), N)
                    assert np.max(np.abs(composite - target)) < 1e-13


@pytest.mark.parametrize("N", [5, 7, 11])
def test_shift_matrix_stack_matches_single_shifts(N):
    """A stack over index arrays holds, bit for bit, the matrix of each point,
    which is the shift tf_shift applies (k and l taken mod N)."""
    k, l = np.meshgrid(np.arange(-N, 2 * N), np.arange(-N, 2 * N), indexing="ij")
    stack = tf_shift_matrix((k, l), N)
    assert stack.shape == (*k.shape, N, N)
    f = np.random.default_rng(N).standard_normal(N) + 0j
    for z in zip(k.ravel().tolist(), l.ravel().tolist()):
        single = tf_shift_matrix(z, N)
        assert single.tobytes() == stack[z[0] + N, z[1] + N].tobytes()
        assert_allclose(single @ f, tf_shift(z, f), atol=1e-14)


@pytest.mark.parametrize("N", [5, 43, 61])
def test_root_of_unity_reads_one_table(N):
    """omega^n depends on n mod N alone, bit for bit, and on 0 <= n < N it is
    exp(2 pi i n / N) exactly."""
    n = np.arange(N, dtype=np.int64)
    assert root_of_unity(n, N).tobytes() == np.exp(2j * np.pi * n / N).tobytes()
    for k in (-3, 1, N**3, 2**62 // N - 1):
        assert root_of_unity(n + k * N, N).tobytes() == root_of_unity(n, N).tobytes()


@pytest.mark.parametrize("N", [3, 7, 61])
def test_centered_reduces_before_shifting(N):
    """The centred representative depends on idx mod N alone, also at the
    int64 limits, where idx + N // 2 would wrap."""
    top, bottom = np.iinfo(np.int64).max, np.iinfo(np.int64).min
    idx = np.array([top, top - 2, bottom, bottom + 1, -1, 0, N // 2, N // 2 + 1])
    want = [(int(i) + N // 2) % N - N // 2 for i in idx]
    assert centered(idx, N).tolist() == want


def test_shifts_reduce_their_indices_mod_n_first():
    """An index beyond int64 (tf_shift) or at its edges (tf_shift_matrix)
    gives the shift of its residue mod N, bit for bit."""
    N = 5
    f = np.arange(1, N + 1) + 0j
    assert tf_shift((0, 2**70), f).tobytes() == tf_shift((0, 2**70 % N), f).tobytes()
    assert tf_shift((0, 2**70), np.ones(N))[1] == np.exp(2j * np.pi * 4 / N)
    for z in [(1, 2**62 + 3), (2**63 - 1, 2), (-(2**63), 2**63 - 1)]:
        reduced = (z[0] % N, z[1] % N)
        assert tf_shift_matrix(z, N).tobytes() == tf_shift_matrix(reduced, N).tobytes()


def test_stft_delta_window_values():
    N = 5
    d = np.zeros(N, complex)
    d[0] = 1.0
    V = stft(d, d)
    assert V[0, 0] == pytest.approx(1.0)
    assert abs(V[1, 0]) < 1e-15


def test_stft_matches_brute_force():
    N = 11
    g = gaussian_window(N)
    rng = np.random.default_rng(2)
    f = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    assert np.max(np.abs(stft(f, g) - brute_stft(f, g))) < 1e-12


def test_stft_rejects_zero_window():
    with pytest.raises(ValueError):
        stft(np.ones(5), np.zeros(5))


def test_parseval_identity(rng):
    N = 7
    g = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    f = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    V = stft(f, g)
    lhs = np.sum(np.abs(V) ** 2)
    rhs = np.linalg.norm(f) ** 2 * (N * np.linalg.norm(g) ** 2)
    assert_allclose(lhs, rhs, rtol=1e-12)


def test_frame_bounds_delta_window():
    N = 5
    d = np.zeros(N, complex)
    d[0] = 1.0
    A, B = frame_bounds(gabor_system(d))
    assert A == pytest.approx(5.0, abs=1e-10)
    assert B == pytest.approx(5.0, abs=1e-10)


def test_frame_bounds_parseval_window():
    N = 7
    g = gaussian_window(N)  # already N ||g||^2 = 1
    A, B = frame_bounds(gabor_system(g))
    assert A == pytest.approx(1.0, abs=1e-10)
    assert B == pytest.approx(1.0, abs=1e-10)


def test_zero_window_rejected():
    with pytest.raises(ValueError):
        gabor_system(np.zeros(5))


def test_synthesize_roundtrip(rng):
    N = 11
    sys = gabor_system(gaussian_window(N))
    f = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    rec = synthesize(stft(f, sys.parseval_window), sys)
    assert np.linalg.norm(rec - f) < 1e-10


def test_synthesize_delta_coefficients():
    N = 7
    sys = gabor_system(gaussian_window(N))
    coeffs = np.zeros((N, N), complex)
    coeffs[0, 0] = 1.0
    assert_allclose(synthesize(coeffs, sys), sys.parseval_window, atol=1e-14)


def test_gaussian_window_normalization():
    for N in (5, 7, 11, 31):
        g = gaussian_window(N)
        assert N * np.sum(np.abs(g) ** 2) == pytest.approx(1.0, rel=1e-12)
