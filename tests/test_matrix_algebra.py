import numpy as np
import pytest
from numpy.testing import assert_allclose

from gmlab import (
    QParams,
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
    shift_bank,
    weyl_quantize,
)
from gmlab.errors import RANK_TOL
from gmlab.metaplectic import symp_apply, symp_inverse
from gmlab.presets import gaussian_bump_symbol
from gmlab.verify import random_decaying_matrix


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
@pytest.mark.parametrize("N", [31, 43, 61])
def test_fio_envelope_matches_two_array_gather(rng, N, chi):
    # N = 43 and 61 end on a ragged panel (17 + 17 + 9 and 7 x 8 + 5 values of j)
    sys = gabor_system(gaussian_window(N))
    T = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    P = shift_bank(sys.parseval_window)
    Ph, TP = P.conj().T, T @ P
    oracle = two_array_gather_envelope(lambda rk: Ph[rk * N:(rk + 1) * N] @ TP, N, chi)
    h = envelope(T, chi, sys).values
    assert np.abs(h - oracle).max() <= 1e-13 * oracle.max()


def flat_index_envelope(A, chi=None):
    """diagonal_envelope as it was written on flat indices k N + l: one
    (N^2, N^2) index gathers row flat(chi z + mu) of column flat(z)."""
    N = int(np.sqrt(A.shape[0]))
    chi = np.eye(2, dtype=int) if chi is None else np.asarray(chi) % N
    k, l = np.divmod(np.arange(N * N), N)
    ck, cl = symp_apply(chi, (k, l), N)
    rows = (ck + k[:, None]) % N * N + (cl + l[:, None]) % N
    return np.abs(A)[rows, np.arange(N * N)].max(axis=1).reshape(N, N)


def flat_index_convolution_matrix(field):
    """convolution_matrix as it was written on flat indices k N + l."""
    N = field.shape[0]
    rows = np.arange(N * N)
    rk, rl = rows // N, rows % N
    return field[(rk[:, None] - rk[None, :]) % N, (rl[:, None] - rl[None, :]) % N]


FLAT_CHIS = {"None": None, "cat": [[2, 1], [1, 1]], "b3": [[1, 3], [0, 1]]}


@pytest.mark.parametrize("chi", list(FLAT_CHIS.values()), ids=list(FLAT_CHIS))
@pytest.mark.parametrize("N", [5, 9, 15, 31])
def test_lattice_matrices_keep_the_flat_index_order_bit_for_bit(rng, N, chi):
    # at N = 9 and 15, b = 3 of [[1, 3], [0, 1]] is not a unit
    A = rng.standard_normal((N * N, N * N)) + 1j * rng.standard_normal((N * N, N * N))
    assert np.array_equal(diagonal_envelope(A, chi), flat_index_envelope(A, chi))
    for field in (rng.standard_normal((N, N)), A[:N, :N]):
        got, want = convolution_matrix(field), flat_index_convolution_matrix(field)
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("chi", list(FLAT_CHIS.values()), ids=list(FLAT_CHIS))
def test_diagonal_envelope_holds_a_slab_not_a_copy(rng, traced_peak, chi):
    # |A| and the gathered [mu, z] block, each N^4 floats, once held half of
    # A.nbytes apiece: 14.7 MB traced at N = 31 for a 14.1 MB input
    N = 31
    A = rng.standard_normal((N * N, N * N)) + 1j * rng.standard_normal((N * N, N * N))
    assert traced_peak(lambda: diagonal_envelope(A, chi)) < A.nbytes / 4


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


def rolled_sum_convolve(d1, d2):
    """Oracle: the cyclic convolution as a double sum of shifted copies of d2."""
    N = d1.shape[0]
    out = np.zeros((N, N))
    for a in range(N):
        for b in range(N):
            v = d1[a, b]
            if v != 0.0:
                out += v * np.roll(np.roll(d2, a, axis=0), b, axis=1)
    return out


@pytest.mark.parametrize("N", [3, 5, 13, 31])
def test_envelope_convolve_matches_the_rolled_sum(N):
    rng = np.random.default_rng(N)
    d1, d2 = rng.random((2, N, N)) * (rng.random((2, N, N)) < 0.7)  # about 30% zeros
    assert np.any(d1 == 0) and np.any(d2 == 0)
    want = rolled_sum_convolve(d1, d2)
    assert np.max(np.abs(envelope_convolve(d1, d2) - want)) <= 1e-13 * np.max(want)
    assert np.max(np.abs(envelope_convolve(d2, d1) - want)) <= 1e-13 * np.max(want)
    delta = np.zeros((N, N))
    delta[1, N - 1] = 1.0
    shifted = rolled_sum_convolve(delta, d2)
    assert np.array_equal(shifted, np.roll(d2, (1, -1), axis=(0, 1)))
    assert np.array_equal(envelope_convolve(delta, d2), shifted)
    assert np.array_equal(envelope_convolve(d2, delta), shifted)


def test_solidity(rng):
    N = 5
    p = QParams(0.5, 1.0)
    for _ in range(20):
        A = random_decaying_matrix(rng, N)
        dominated = A * rng.random(A.shape)
        assert cb_norm(dominated, p) <= cb_norm(A, p) + 1e-12


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
