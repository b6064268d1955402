import numpy as np
import pytest
from numpy.testing import assert_allclose

from gmlab import (
    build_metaplectic,
    build_metaplectic_stack,
    factor_generators,
    intertwine_bound,
    intertwine_defect,
    metaplectic_operator,
    phase_align,
    symp_apply,
    symp_inverse,
    word_matrix,
)
from gmlab.metaplectic import J_MAT, _generator, determinant, require_symplectic
from gmlab.verify import random_sympmat
from reference import tf_shift_matrix

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


@pytest.mark.parametrize("chi, word", [
    ([[2, 1], [1, 1]], [("chirp", 1), ("J",), ("chirp", 2)]),
    ([[1, 2], [1, 3]], [("chirp", 5), ("J",), ("chirp", 2), ("dilate", 2)]),
    ([[4, 0], [3, 2]], [("chirp", 6), ("dilate", 2)]),
])
def test_factor_pinned_words_n7(chi, word):
    # the word fixes the bytes of U_chi, not just its class up to phase
    assert factor_generators(np.array(chi), 7) == word


def test_factor_rejects_non_symplectic():
    with pytest.raises(ValueError):
        factor_generators(np.array([[1, 0], [0, 2]]), 7)


def four_token_word(chi, N):
    """The factorization at prime N, written out: Chirp(c d) Dilate(d) when
    b = 0, else Chirp(d b^-1) J Chirp(a b) Dilate(b), identity tokens dropped."""
    a, b, c, d = (int(x) % N for x in np.ravel(chi))
    if b == 0:
        word = [("chirp", c * d % N), ("dilate", d)]
    else:
        word = [("chirp", d * pow(b, -1, N) % N), ("J",), ("chirp", a * b % N), ("dilate", b)]
    return [token for token in word if token not in (("chirp", 0), ("dilate", 1))]


@pytest.mark.parametrize("N", [3, 5, 7, 11, 13])
def test_factor_every_map_into_the_four_token_formula(N):
    """Over all of SL(2, Z_N), N prime: the word multiplies back to chi and is
    the four-token formula, so it has at most four tokens, none of them the
    identity, in the order chirp, J, chirp, dilate."""
    maps = all_sl2(N)
    assert len(maps) == N * (N * N - 1)
    for chi in maps:
        word = factor_generators(chi, N)
        assert np.array_equal(word_matrix(word, N), chi)
        assert word == four_token_word(chi, N)


@pytest.mark.parametrize("N, order", [(9, 648), (15, 2880)])
def test_factor_every_map_at_composite_n(N, order):
    """|SL(2, Z_N)| = N^3 prod_p (1 - p^-2); each map's word multiplies back
    to it and has at most nine tokens: a map whose b is a nonzero non-unit
    takes the four-token word of chi [[1, k], [0, 1]], k least with a k + b
    a unit, then J J J Chirp(k) J; every other map its four-token word."""
    maps = all_sl2(N)
    assert len(maps) == order
    longest = 0
    for chi in maps:
        word = factor_generators(chi, N)
        assert np.array_equal(word_matrix(word, N), chi)
        longest = max(longest, len(word))
        a, b = int(chi[0, 0]), int(chi[0, 1])
        if b == 0 or np.gcd(b, N) == 1:
            assert word == four_token_word(chi, N)
        else:
            k = next(k for k in range(1, N) if np.gcd(a * k + b, N) == 1)
            shifted = chi @ np.array([[1, k], [0, 1]]) % N
            assert word == four_token_word(shifted, N) + [("J",)] * 3 + [("chirp", k), ("J",)]
    assert longest == 9


def test_factor_shifts_a_non_unit_b_by_the_least_k():
    # b = 3 is not a unit mod 9; k = 1 makes a k + b = 4 one, so
    # chi [[1, 1], [0, 1]] = [[1, 4], [0, 1]] is factored, then J^3 Chirp(1) J
    word = factor_generators(np.array([[1, 3], [0, 1]]), 9)
    assert word == [("chirp", 7), ("J",), ("chirp", 4), ("dilate", 4),
                    ("J",), ("J",), ("J",), ("chirp", 1), ("J",)]


NON_UNIT_B = {  # maps whose upper-right entry is a nonzero non-unit mod N
    9: [[[7, 6], [3, 4]], [[5, 3], [1, 8]], [[1, 3], [0, 1]]],
    15: [[[4, 10], [7, 14]], [[6, 5], [10, 6]]],
    25: [[[23, 5], [3, 17]], [[12, 10], [23, 13]]],
    45: [[[9, 40], [2, 24]], [[40, 3], [13, 1]]],
}


@pytest.mark.parametrize("N", list(NON_UNIT_B))
def test_intertwine_at_composite_n_with_a_non_unit_b(N):
    chis = np.array(NON_UNIT_B[N])
    assert all(np.gcd(b, N) > 1 for b in chis[:, 0, 1])
    U = np.array([metaplectic_operator(chi, N) for chi in chis])
    assert np.all(intertwine_defect(chis, U) <= 1e-13)


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


@pytest.mark.parametrize("N", [5, 9])
def test_stacked_build_equals_the_single_builds_bit_for_bit(N):
    rng = np.random.default_rng(N)
    chis = all_sl2(N) if N == 5 else [random_sympmat(rng, N) for _ in range(30)]
    words = [factor_generators(chi, N) for chi in chis] + [[], [("chirp", 2**70)]]
    stack = build_metaplectic_stack(words, N)
    assert stack.shape == (len(words), N, N)
    for U, word in zip(stack, words):
        fold = np.eye(N, dtype=complex)  # the product in word order, written out
        for token in word:
            fold = fold @ _generator(token, N)[1]()
        assert U.tobytes() == fold.tobytes() == build_metaplectic(iter(word), N).tobytes()
    assert build_metaplectic_stack((iter(word) for word in words), N).tobytes() == stack.tobytes()
    assert build_metaplectic_stack([], N).shape == (0, N, N)
    with pytest.raises(ValueError, match="unknown generator token"):
        build_metaplectic_stack([[("J",)], [("J",), ("shear", 1)]], N)


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


def frobenius_sum(target, conj):
    return complex(np.sum(target.conj() * conj))


def trace_of_product(target, conj):
    return complex(np.trace(target.conj().T @ conj))


def per_point_intertwine_defect(chi, U, inner_product=frobenius_sum):
    """Oracle: the sweep of intertwine_defect, one lattice point z at a time,
    with the scalar optimal phase, 1 for a pair orthogonal up to rounding."""
    N = U.shape[0]
    worst = 0.0
    for k in range(N):
        for l in range(N):
            conj = U @ tf_shift_matrix((k, l), N) @ U.conj().T
            target = tf_shift_matrix(symp_apply(chi, (k, l), N), N)
            inner = inner_product(target, conj)
            floor = 1e-8 * np.linalg.norm(conj) * np.linalg.norm(target)
            c = inner / abs(inner) if abs(inner) > floor else 1.0
            worst = max(worst, float(np.linalg.norm(conj - c * target, 2)))
    return worst


@pytest.mark.parametrize("N", [5, 7, 11])
def test_mismatched_defect_does_not_depend_on_the_summation_order(N):
    """U of the shear against J: at most z the conjugated shift is orthogonal
    to the target, so its phase is 1, not the phase of a rounding residue,
    and the trace of V^H U and the Frobenius sum give one defect, which
    reads 2 cos(pi / 2N) at these N."""
    shear = metaplectic_operator(np.array([[1, 1], [0, 1]]), N)
    mismatch = intertwine_defect(J_MAT, shear)
    for inner_product in (frobenius_sum, trace_of_product):
        assert_allclose(mismatch, per_point_intertwine_defect(J_MAT, shear, inner_product),
                        rtol=1e-12)
    assert_allclose(mismatch, 2 * np.cos(np.pi / (2 * N)), rtol=1e-12)


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


def test_intertwine_defect_is_rounding_level_at_n43():
    """Every phase is read at its exponent mod N, so the intertwining defect
    stays at rounding level instead of growing with the size of h C t^2."""
    N = 43
    chis = np.array([[[2, 1], [1, 1]], [[1, 2], [1, 3]], [[1, 1], [0, 1]]])
    U = np.array([metaplectic_operator(chi, N) for chi in chis])
    assert np.all(intertwine_defect(chis, U) < 1e-13)


def test_chirp_reduces_its_coefficient_before_multiplying():
    N = 5
    big, small = [("chirp", 2**70)], [("chirp", 2**70 % N)]
    assert build_metaplectic(big, N).tobytes() == build_metaplectic(small, N).tobytes()
    assert np.array_equal(word_matrix(big, N), word_matrix(small, N))


@pytest.mark.parametrize("N", [5, 9])
def test_intertwine_defect_scales_with_the_operator(N):
    """The relation U pi(z) = c pi(chi z) U is checked as stated, so a
    scalar multiple a U of a true pair is measured, not refused: its defect
    is |a| times that of U, alone or in a stack, and a mismatched pair
    still reads 2 cos(pi / 2N)."""
    chi = random_sympmat(np.random.default_rng(N), N)
    U = metaplectic_operator(chi, N)
    defect = intertwine_defect(chi, U)
    assert defect < 1e-13
    for a in (2, 0.5j):
        assert abs(intertwine_defect(chi, a * U) - abs(a) * defect) <= 1e-15
    stack = intertwine_defect(chi, np.array([U, 2 * U, U]))
    assert stack.tolist() == [intertwine_defect(chi, V) for V in (U, 2 * U, U)]
    shear = metaplectic_operator(np.array([[1, 1], [0, 1]]), N)
    assert_allclose(intertwine_defect(J_MAT, shear), 2 * np.cos(np.pi / (2 * N)), rtol=1e-12)


@pytest.mark.parametrize("N", [5, 9, 15])
def test_intertwine_bound_holds_the_exact_defect_from_above(N):
    """sqrt(||D||_1 ||D||_inf) is at least ||D||_2 and at most sqrt(N) ||D||_2:
    over all of SL(2, Z_5) and over sampled maps at N = 9 and 15, the bound
    is at least the exact defect, less 1e-14 of rounding, and at most
    sqrt(N) times it; a mismatched pair reads at least 2 cos(pi / 2N)."""
    rng = np.random.default_rng(N)
    chis = np.array(all_sl2(N) if N == 5 else [random_sympmat(rng, N) for _ in range(12)])
    U = build_metaplectic_stack([factor_generators(chi, N) for chi in chis], N)
    bound, defect = intertwine_bound(chis, U), intertwine_defect(chis, U)
    assert np.all(bound >= defect - 1e-14) and np.all(bound <= np.sqrt(N) * defect)
    assert np.all(bound < 1e-13)
    shear = metaplectic_operator(np.array([[1, 1], [0, 1]]), N)
    mismatch, exact = intertwine_bound(J_MAT, shear), intertwine_defect(J_MAT, shear)
    assert exact <= mismatch <= np.sqrt(N) * exact
    assert mismatch >= 2 * np.cos(np.pi / (2 * N))


@pytest.mark.parametrize("N", [5, 7])
def test_stacked_intertwine_bound_equals_the_pairwise_calls(N):
    rng = np.random.default_rng(N)
    shear = metaplectic_operator(np.array([[1, 1], [0, 1]]), N)
    chis = [random_sympmat(rng, N) for _ in range(4)]
    pairs = [(chi, metaplectic_operator(chi, N)) for chi in chis] + [(J_MAT, shear)]
    chi_stack = np.array([chi for chi, _ in pairs])
    U_stack = np.array([U for _, U in pairs])
    single = [intertwine_bound(chi, U) for chi, U in pairs]
    assert all(type(b) is float for b in single)
    assert intertwine_bound(chi_stack, U_stack).tolist() == single  # exactly
    grid = intertwine_bound(chi_stack.reshape(5, 1, 2, 2), U_stack)
    assert grid.shape == (5, 5) and np.diag(grid).tolist() == single
    with pytest.raises(ValueError, match="not square"):
        intertwine_bound(IDENTITY, np.ones((N, N + 1)))


@pytest.mark.parametrize("N, count", [(5, None), (9, 200)])
def test_blocked_sweep_equals_one_call_per_map(N, count):
    """The sweep takes a stack in blocks of maps sized by a byte budget: the
    120 maps of SL(2, Z_5) in 4 blocks, 200 maps at N = 9 in 34, the last
    one ragged in both.  Every map reads the bits of a call on that map
    alone, for true pairs and for the mostly mismatched pairs of the
    reversed stack."""
    rng = np.random.default_rng(N)
    chis = np.array(all_sl2(N) if count is None else [random_sympmat(rng, N) for _ in range(count)])
    U = build_metaplectic_stack([factor_generators(chi, N) for chi in chis], N)
    for V in (U, U[::-1]):
        for check in (intertwine_bound, intertwine_defect):
            one_by_one = np.array([check(chi, W) for chi, W in zip(chis, V)])
            assert np.array_equal(check(chis, V), one_by_one)


def test_intertwine_sweep_holds_one_block_of_maps(traced_peak):
    # the whole stack at once held about five (120, 5, 5, 5) complex arrays
    # per lattice row, a traced peak of 1.2 MB
    N = 5
    chis = np.array(all_sl2(N))
    U = build_metaplectic_stack([factor_generators(chi, N) for chi in chis], N)
    assert traced_peak(lambda: intertwine_bound(chis, U)) < 0.6 * 2**20


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


@pytest.mark.parametrize("shape", [(5, 7), (3, 5, 7), (5,)])
def test_intertwine_rejects_a_non_square_operator(shape):
    # N is read from the operator, so a non-square one has no modulus
    with pytest.raises(ValueError, match="not square"):
        intertwine_defect(IDENTITY, np.ones(shape))


def test_determinant_reduces_before_multiplying():
    N = 7
    rng = np.random.default_rng(20)
    top = np.iinfo(np.int64).max
    chis = rng.integers(-(2**62), 2**62, size=(3, 4, 2, 2))
    chis[0, 0] = [[2**62 + 1, 2**62], [top, -top]]
    chis[0, 1] = [[-3, -5], [-1, -9]]
    want = [[(int(a) * int(d) - int(b) * int(c)) % N for (a, b), (c, d) in row] for row in chis]
    assert determinant(chis, N).tolist() == want
    assert determinant(chis[0, 0], N) == want[0][0]


def test_symp_apply_reduces_map_and_point_before_multiplying():
    N = 7
    zk, _ = symp_apply([[2**62 + 1, 0], [0, 1]], (np.arange(N), 0), N)
    assert zk.tolist() == [0, 5, 3, 1, 6, 4, 2]
    chi, z = np.array([[3, 5], [1, 2]]), (np.int64(2**62 + 1), np.int64(2**62))
    assert symp_apply(chi, z, N) == symp_apply(chi, (z[0] % N, z[1] % N), N)


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


@pytest.mark.parametrize("build", [word_matrix, build_metaplectic])
def test_a_dilation_by_a_non_unit_is_refused(build):
    # 3 divides 9, so t -> 3 t mod 9 is no permutation
    with pytest.raises(ValueError, match="dilation factor 3 is not invertible mod 9"):
        build([("dilate", 3)], 9)
