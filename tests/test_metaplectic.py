import numpy as np
import pytest
from numpy.testing import assert_allclose

from gmlab import (
    build_metaplectic,
    factor_generators,
    intertwine_defect,
    metaplectic_operator,
    phase_align,
    symp_apply,
    symp_inverse,
    tf_shift_matrix,
    word_matrix,
)
from gmlab.metaplectic import J_MAT, require_odd_prime, require_symplectic
from gmlab.verify import random_sympmat

IDENTITY = np.eye(2, dtype=int)


def all_sl2(N):
    return [
        np.array([[a, b], [c, d]])
        for a in range(N)
        for b in range(N)
        for c in range(N)
        for d in range(N)
        if (a * d - b * c) % N == 1
    ]


def test_factor_identity_is_empty():
    assert factor_generators(IDENTITY, 7) == []


def test_factor_j_is_single_token():
    assert factor_generators(J_MAT, 7) == [("J",)]


def test_factor_chirp():
    chi = np.array([[1, 0], [3, 1]])
    word = factor_generators(chi, 7)
    assert word == [("chirp", 3)]
    assert np.array_equal(word_matrix(word, 7), chi % 7)


def test_factor_rejects_non_symplectic():
    with pytest.raises(ValueError):
        factor_generators(np.array([[1, 0], [0, 2]]), 7)


def test_factor_requires_odd_prime():
    with pytest.raises(ValueError):
        factor_generators(IDENTITY, 9)
    with pytest.raises(ValueError):
        require_odd_prime(15)


@pytest.mark.parametrize("N", [7, 11])
def test_factor_roundtrip_random(N, rng):
    for _ in range(40):
        chi = random_sympmat(rng, N)
        word = factor_generators(chi, N)
        assert len(word) <= 5
        assert np.array_equal(word_matrix(word, N), chi % N)


def test_build_empty_word_is_identity():
    assert_allclose(build_metaplectic([], 5), np.eye(5))


def test_build_j_on_delta_is_constant():
    N = 5
    U = build_metaplectic([("J",)], N)
    d = np.zeros(N, complex)
    d[0] = 1.0
    assert_allclose(U @ d, np.full(N, 1 / np.sqrt(N), dtype=complex), atol=1e-14)


def test_build_chirp_diagonal():
    N = 5
    U = build_metaplectic([("chirp", 1)], N)
    t = np.arange(N)
    assert_allclose(np.diag(U), np.exp(2j * np.pi * 3 * t * t / N), atol=1e-14)
    assert np.max(np.abs(U - np.diag(np.diag(U)))) == 0.0


def test_build_rejects_zero_dilation():
    with pytest.raises(ValueError):
        build_metaplectic([("dilate", 0)], 5)


@pytest.mark.parametrize("build", [word_matrix, build_metaplectic])
@pytest.mark.parametrize(
    "token, message",
    [(("dilate", 0), "Dilate\\(0\\) is singular"),
     (("dilate", 5), "Dilate\\(0\\) is singular"),
     (("shear", 1), "unknown generator token")],
)
def test_words_reject_singular_dilation_and_unknown_tokens(build, token, message):
    with pytest.raises(ValueError, match=message):
        build([("J",), token], 5)


def test_build_unitary(rng):
    N = 11
    for _ in range(10):
        chi = random_sympmat(rng, N)
        U = metaplectic_operator(chi, N)
        assert np.linalg.norm(U.conj().T @ U - np.eye(N), 2) < 1e-12


def test_intertwine_identity_is_zero():
    N = 5
    assert intertwine_defect(IDENTITY, np.eye(N)) < 1e-14


@pytest.mark.parametrize("N", [5, 7, 11])
def test_intertwine_for_fourier_generator(N):
    U = build_metaplectic([("J",)], N)
    assert intertwine_defect(J_MAT, U) < 1e-10


def test_intertwine_random(rng):
    N = 7
    for _ in range(10):
        chi = random_sympmat(rng, N)
        U = metaplectic_operator(chi, N)
        assert intertwine_defect(chi, U) < 1e-10


def per_point_intertwine_defect(chi, U):
    """Oracle: the sweep of intertwine_defect, one lattice point z at a time,
    with the scalar optimal phase."""
    N = U.shape[0]
    worst = 0.0
    for k in range(N):
        for l in range(N):
            conj = U @ tf_shift_matrix((k, l), N) @ U.conj().T
            target = tf_shift_matrix(symp_apply(chi, (k, l), N), N)
            inner = complex(np.trace(target.conj().T @ conj))
            c = inner / abs(inner) if inner else 1.0
            worst = max(worst, float(np.linalg.norm(conj - c * target, 2)))
    return worst


@pytest.mark.parametrize("N", [5, 7, 11])
def test_intertwine_matches_per_point_oracle(N):
    rng = np.random.default_rng(N)
    chi = random_sympmat(rng, N)
    U = metaplectic_operator(chi, N)
    defect = intertwine_defect(chi, U)
    assert abs(defect - per_point_intertwine_defect(chi, U)) < 1e-13
    # a mismatched pair: U of the shear checked against J
    shear = metaplectic_operator(np.array([[1, 1], [0, 1]]), N)
    mismatch = intertwine_defect(J_MAT, shear)
    assert mismatch > 1.0
    assert_allclose(mismatch, per_point_intertwine_defect(J_MAT, shear), rtol=1e-12)


@pytest.mark.parametrize("N", [5, 7])
def test_stacked_intertwine_equals_the_pairwise_calls(N):
    rng = np.random.default_rng(N)
    shear = metaplectic_operator(np.array([[1, 1], [0, 1]]), N)
    chis = [random_sympmat(rng, N) for _ in range(4)]
    pairs = [(chi, metaplectic_operator(chi, N)) for chi in chis] + [(J_MAT, shear)]
    chi_stack = np.array([chi for chi, _ in pairs])
    U_stack = np.array([U for _, U in pairs])
    defects = intertwine_defect(chi_stack, U_stack)
    assert defects.shape == (len(pairs),)
    single = [intertwine_defect(chi, U) for chi, U in pairs]
    assert all(type(d) is float for d in single)
    assert defects.tolist() == single  # exactly
    assert max(single[:-1]) < 1e-10 and single[-1] > 1.0  # the mismatch is seen
    for (chi, U), d in zip(pairs, defects):
        assert abs(d - per_point_intertwine_defect(chi, U)) < 1e-13
    # leading axes broadcast: one map against a stack of unitaries, and a 2-d stack
    assert intertwine_defect(J_MAT, U_stack).tolist() == [
        intertwine_defect(J_MAT, U) for U in U_stack
    ]
    grid = intertwine_defect(chi_stack.reshape(5, 1, 2, 2), U_stack)
    assert grid.shape == (5, 5) and np.array_equal(np.diag(grid), defects)


def test_stacked_intertwine_rejects_one_non_unitary_member():
    N = 5
    U = np.array([np.eye(N), 2.0 * np.eye(N), np.eye(N)])
    with pytest.raises(ValueError, match="not unitary"):
        intertwine_defect(np.array([IDENTITY] * 3), U)


def test_stacked_symplectic_helpers_equal_the_per_matrix_results(rng):
    N = 7
    chis = np.array([random_sympmat(rng, N) + N * rng.integers(-2, 3, (2, 2)) for _ in range(6)])
    reduced = require_symplectic(chis, N)
    assert np.array_equal(reduced, np.array([require_symplectic(chi, N) for chi in chis]))
    k, l = np.arange(N)[:, None], np.arange(N)
    stacked = symp_apply(chis[:, None, None], (k, l), N)
    for chi, zk, zl in zip(chis, *stacked):
        want = symp_apply(chi, (k, l), N)
        assert np.array_equal(zk, want[0]) and np.array_equal(zl, want[1])
    bad = chis.copy()
    bad[4] = [[1, 0], [0, 2]]
    with pytest.raises(ValueError, match="determinant 2 != 1 mod 7: not symplectic"):
        require_symplectic(bad, N)
    with pytest.raises(ValueError, match="must be 2x2"):
        require_symplectic(np.zeros((3, 2, 3), int), N)


def test_intertwine_rejects_non_unitary():
    N = 5
    with pytest.raises(ValueError):
        intertwine_defect(IDENTITY, 2.0 * np.eye(N))


@pytest.mark.parametrize("shape", [(5, 7), (3, 5, 7), (5,)])
def test_intertwine_rejects_a_non_square_operator(shape):
    # N is read from the operator, so a non-square one has no modulus
    with pytest.raises(ValueError, match="not square"):
        intertwine_defect(IDENTITY, np.ones(shape))


def test_symp_apply_and_inverse():
    N = 7
    chi = np.array([[2, 1], [1, 1]])
    z = (3, 4)
    assert symp_apply(symp_inverse(chi, N), symp_apply(chi, z, N), N) == z


def test_projective_uniqueness_exhaustive_n5():
    N = 5
    Jinv = symp_inverse(J_MAT, N)
    for chi in all_sl2(N):
        U1 = metaplectic_operator(chi, N)
        word2 = factor_generators((chi @ Jinv) % N, N) + [("J",)]
        assert np.array_equal(word_matrix(word2, N), chi % N)
        U2 = build_metaplectic(word2, N)
        c = phase_align(U1, U2)
        assert abs(abs(c) - 1.0) < 1e-12
        assert np.max(np.abs(U1 - c * U2)) < 1e-10


def test_require_symplectic_reduces_mod_n():
    chi = require_symplectic(np.array([[8, 7], [7, 8]]), 7)
    assert np.array_equal(chi, np.array([[1, 0], [0, 1]]))
