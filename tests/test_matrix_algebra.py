import numpy as np
import pytest
from numpy.testing import assert_allclose

from gmlab import (
    QParams,
    ToleranceError,
    apply_to_sequence,
    cb_norm,
    convolution_matrix,
    diagonal_envelope,
    envelope,
    envelope_convolve,
    gabor_matrix,
    gabor_system,
    gaussian_window,
    lattice_qnorm,
    pseudo_inverse,
    weyl_quantize,
)
from gmlab.metaplectic import symp_apply, symp_inverse
from gmlab.presets import gaussian_bump_symbol
from gmlab.verify import random_decaying_matrix
from gmlab.weyl import gabor_factors


def test_envelope_of_identity():
    N = 5
    d = diagonal_envelope(np.eye(N * N))
    expected = np.zeros((N, N))
    expected[0, 0] = 1.0
    assert_allclose(d, expected)


def test_envelope_of_convolution_matrix(rng):
    N = 5
    field = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    assert_allclose(diagonal_envelope(convolution_matrix(field)), np.abs(field))


@pytest.mark.parametrize(
    "chi",
    [None, [[0, 1], [-1, 0]], [[1, 1], [0, 1]], [[2, 1], [1, 1]]],
    ids=["I", "J", "shear", "cat"],
)
def test_envelope_matches_brute_force(rng, chi):
    N = 5
    A = rng.standard_normal((N * N, N * N)) + 1j * rng.standard_normal((N * N, N * N))
    d = diagonal_envelope(A, chi)
    (a, b), (c, e) = np.eye(2, dtype=int) if chi is None else chi
    brute = np.zeros((N, N))
    for row in range(N * N):
        for col in range(N * N):
            zk, zl = col // N, col % N
            # row = chi col + mu per coordinate, mod N
            mk = (row // N - (a * zk + b * zl)) % N
            ml = (row % N - (c * zk + e * zl)) % N
            brute[mk, ml] = max(brute[mk, ml], abs(A[row, col]))
    assert_allclose(d, brute)


def two_array_gather_envelope(row_block, N, chi=None):
    """The envelope kernel before its fixed gather index: per row block, the
    column table chi^-1 (rk - mu_k, j) and a two-array gather of the slab."""
    chi_inv = symp_inverse(np.eye(2, dtype=int) if chi is None else chi, N)
    t = np.arange(N)
    rows = (t[:, None] + t) % N  # [mu_l, j]: row (rk, mu_l + j) of the block
    d = np.zeros((N, N))
    for rk in range(N):
        zk, zl = symp_apply(chi_inv, ((rk - t[:, None]) % N, t), N)
        slab = np.abs(row_block(rk))[rows, (zk * N + zl)[:, None, :]]
        np.maximum(d, slab.max(axis=2), out=d)
    return d


CHIS = {
    "None": None,
    "I": [[1, 0], [0, 1]],
    "J": [[0, 1], [-1, 0]],
    "shear": [[1, 1], [0, 1]],
    "cat": [[2, 1], [1, 1]],
    "cat2": [[1, 2], [1, 3]],
}


@pytest.mark.parametrize("chi", list(CHIS.values()), ids=list(CHIS))
@pytest.mark.parametrize("N", [5, 7, 11, 31])
def test_envelope_kernel_matches_two_array_gather(rng, N, chi):
    A = rng.standard_normal((N * N, N * N)) + 1j * rng.standard_normal((N * N, N * N))
    oracle = two_array_gather_envelope(lambda rk: A[rk * N:(rk + 1) * N], N, chi)
    assert np.array_equal(diagonal_envelope(A, chi), oracle)


@pytest.mark.parametrize("chi", list(CHIS.values())[1:], ids=list(CHIS)[1:])
@pytest.mark.parametrize("N", [31, 43])
def test_fio_envelope_matches_two_array_gather(rng, N, chi):
    sys = gabor_system(gaussian_window(N))
    T = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    Ph, TP = gabor_factors(T, sys)
    oracle = two_array_gather_envelope(lambda rk: Ph[rk * N:(rk + 1) * N] @ TP, N, chi)
    assert np.array_equal(envelope(T, chi, sys).values, oracle)


def test_envelope_rejects_nonsquare():
    with pytest.raises(ValueError):
        diagonal_envelope(np.ones((4, 9)))
    with pytest.raises(ValueError):
        diagonal_envelope(np.ones((8, 8)))  # not a perfect square


def test_cb_norm_of_identity():
    for q, s in [(0.3, 0.0), (0.5, 1.0), (1.0, 2.0)]:
        assert cb_norm(np.eye(25), QParams(q, s)) == 1.0


def test_cb_norm_of_convolution_matrix(rng):
    N = 5
    p = QParams(0.5, 1.0)
    field = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    assert cb_norm(convolution_matrix(field), p) == pytest.approx(
        lattice_qnorm(np.abs(field), p.q, p.s), rel=1e-12
    )


def test_cb_norm_q_triangle(rng):
    N = 5
    p = QParams(0.5, 1.0)
    for _ in range(20):
        A = random_decaying_matrix(rng, N)
        B = random_decaying_matrix(rng, N)
        assert cb_norm(A + B, p) ** p.q <= cb_norm(A, p) ** p.q + cb_norm(B, p) ** p.q + 1e-10


def test_algebra_property(rng):
    N = 5
    for q in (0.5, 1.0):
        p = QParams(q, 1.0)
        for _ in range(20):
            A = random_decaying_matrix(rng, N)
            B = random_decaying_matrix(rng, N)
            assert cb_norm(A @ B, p) <= cb_norm(A, p) * cb_norm(B, p) + 1e-10
            excess = diagonal_envelope(A @ B) - envelope_convolve(
                diagonal_envelope(A), diagonal_envelope(B)
            )
            assert np.max(excess) < 1e-10


def test_solidity(rng):
    N = 5
    p = QParams(0.5, 1.0)
    for _ in range(20):
        A = random_decaying_matrix(rng, N)
        dominated = A * rng.random(A.shape)
        assert cb_norm(dominated, p) <= cb_norm(A, p) + 1e-12


def test_apply_identity(rng):
    N = 5
    c = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    assert_allclose(apply_to_sequence(np.eye(N * N), c), c)


def test_apply_convolution_matrix_is_cyclic_convolution(rng):
    N = 5
    field = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    c = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    out = apply_to_sequence(convolution_matrix(field), c)
    brute = np.zeros((N, N), complex)
    for k in range(N):
        for l in range(N):
            for kk in range(N):
                for ll in range(N):
                    brute[k, l] += field[(k - kk) % N, (l - ll) % N] * c[kk, ll]
    assert np.max(np.abs(out - brute)) < 1e-12


def test_apply_certifies_action_bounds(rng):
    N = 5
    p = QParams(0.5, 1.0)
    for _ in range(20):
        A = random_decaying_matrix(rng, N)
        c = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        apply_to_sequence(A, c, p)  # raises ToleranceError on violation


def test_apply_size_mismatch():
    with pytest.raises(ValueError):
        apply_to_sequence(np.eye(25), np.ones(24))


# ---------------------------------------------------------------- pseudo-inverse


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
