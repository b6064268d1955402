import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import gmlab
from gmlab import (
    ContractionError,
    QParams,
    SparseSeq,
    ToleranceError,
    VanishingFourierError,
    convolve,
    fourier_series_eval,
    invert_by_fourier,
    neumann_inverse,
    neumann_tail_bound,
    pointwise_product,
    qnorm,
    qnorm_weighted,
)
from gmlab._lattice import centered, radius, square_points, weight
from gmlab.verify import random_sparse

DELTA1 = SparseSeq.delta(1)


def weight_eval(index, s):
    """Oracle: (1 + sqrt(sum n_i^2))**s at one index, in Python floats."""
    return (1.0 + math.sqrt(sum(float(v) ** 2 for v in np.atleast_1d(index)))) ** s


# ---------------------------------------------------------------- weights


def test_weight_at_origin_is_one():
    assert weight((0, 0), 3.0) == 1.0


def test_weight_pythagorean():
    assert weight((3, 4), 1.0) == pytest.approx(6.0, abs=1e-14)


def test_weight_three_dim():
    # (1 + sqrt(5))^2 evaluated independently
    expected = (1.0 + math.sqrt(5.0)) ** 2
    assert weight((1, 0, 2), 2.0) == pytest.approx(expected, rel=1e-14)
    assert expected == pytest.approx(10.47213595499958, rel=1e-12)


def test_weight_of_negative_order_is_the_reciprocal():
    points = np.array([[0, 0], [3, 4], [-7, 2], [40, -33]])
    assert_allclose(weight(points, -1.5), 1.0 / weight(points, 1.5), rtol=1e-15)
    assert np.all(weight(points, -1.5) <= 1.0)


@given(
    st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
    st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
    st.floats(0.0, 4.0),
)
def test_weight_submultiplicative(lam, mu, s):
    total = tuple(a + b for a, b in zip(lam, mu))
    assert weight(total, s) <= weight(lam, s) * weight(mu, s) * (1 + 1e-12)


def test_weight_radius_is_hypot_bit_for_bit():
    # the lattice and amalgam quasi-norms in report.json were computed with
    # np.hypot(a, b): the one weight must reproduce it to the last bit
    def hypot_weight(axis, s):
        a = np.asarray(axis, dtype=float)
        return (1.0 + np.hypot(a[:, None], a[None, :])) ** s

    for N in range(5, 128, 2):
        axis = centered(np.arange(N), N)
        assert weight(square_points(axis), 1.7).tobytes() == hypot_weight(axis, 1.7).tobytes()
    for R in (1, 4, 8, 40, 64):
        axis = np.arange(-R, R)
        assert weight(square_points(axis), 2.0).tobytes() == hypot_weight(axis, 2.0).tobytes()
    points = np.random.default_rng(7).integers(-3000, 3001, size=(4000, 3)).astype(float)
    for m in (1, 2, 3):
        reduced = np.hypot.reduce(points[:, :m], axis=-1, initial=0.0)
        assert radius(points[:, :m]).tobytes() == reduced.tobytes()


def test_weight_in_one_dimension_is_one_plus_modulus():
    n = np.arange(-3000, 3001)
    assert np.array_equal(weight(n[:, None], 1.0), 1.0 + np.abs(n))


@pytest.mark.filterwarnings("error")
def test_weight_beyond_float_range_is_infinite():
    assert weight((300,), 200.0) == math.inf
    assert weight((0,), 1e6) == 1.0
    assert weight((300, 0), -200.0) == 0.0


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
    st.floats(0.01, 2.0),
    st.floats(-3.0, 3.0),
)
def test_qnorm_weighted_against_per_entry_oracle(dim, seed, q, s):
    a = random_sparse(np.random.default_rng(seed), dim=dim, size=8, box=40)
    expected = sum(abs(v) ** q * weight_eval(k, s) ** q for k, v in a.items()) ** (1 / q)
    assert qnorm_weighted(a, q, s) == pytest.approx(expected, rel=1e-13)


# ---------------------------------------------------------------- qnorm


def test_qparams_validation():
    with pytest.raises(ValueError):
        QParams(0.0, 1.0)
    with pytest.raises(ValueError):
        QParams(1.5, 0.0)
    with pytest.raises(ValueError):
        QParams(0.5, -1.0)


@pytest.mark.parametrize("q,s", [(0.3, 0.0), (0.5, 1.0), (1.0, 2.0)])
def test_qnorm_of_unit_is_one(q, s):
    assert qnorm(SparseSeq.delta(2), QParams(q, s)) == 1.0


def test_qnorm_single_mass():
    # single term: (|1|^0.5 * 6^0.5)^2 = 6
    assert qnorm(SparseSeq.unit((3, 4)), QParams(0.5, 1.0)) == pytest.approx(6.0)


def test_qnorm_l1_case():
    a = SparseSeq(1, {(0,): 1.0, (1,): 1.0})
    assert qnorm(a, QParams(1.0, 0.0)) == pytest.approx(2.0)


def test_qnorm_zero_iff_zero():
    assert qnorm(SparseSeq(2), QParams(0.5, 1.0)) == 0.0
    assert qnorm(SparseSeq(2, {(1, 1): 1e-300}), QParams(1.0, 0.0)) > 0.0


@given(st.floats(0.25, 1.0), st.floats(0.0, 2.0), st.complex_numbers(max_magnitude=10))
@settings(max_examples=50)
def test_qnorm_homogeneous(q, s, c):
    rng = np.random.default_rng(7)
    a = random_sparse(rng)
    p = QParams(q, s)
    assert_allclose(qnorm(c * a, p), abs(c) * qnorm(a, p), rtol=1e-10, atol=1e-12)


# ---------------------------------------------------------------- convolution


def test_convolve_unit_element():
    rng = np.random.default_rng(0)
    a = random_sparse(rng, dim=1)
    assert convolve(SparseSeq.delta(1), a) == a


def test_convolve_shift_composition():
    out = convolve(SparseSeq.unit(1), SparseSeq.unit(2))
    assert out == SparseSeq.unit(3)


def test_convolve_square_of_two_ones():
    a = SparseSeq(1, {(0,): 1.0, (1,): 1.0})
    out = convolve(a, a)
    assert out == SparseSeq(1, {(0,): 1.0, (1,): 2.0, (2,): 1.0})


def test_convolve_dimension_mismatch():
    with pytest.raises(ValueError):
        convolve(SparseSeq.delta(1), SparseSeq.delta(2))


def dict_convolve(a, b) -> dict:
    """Oracle: the plain double sum over both supports into a dict."""
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            out[k] = out.get(k, 0j) + va * vb
    return out


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_convolve_against_dense_oracle(dim):
    rng = np.random.default_rng(1)
    a = random_sparse(rng, dim=dim, size=8, box=6)
    b = random_sparse(rng, dim=dim, size=8, box=6)
    out = convolve(a, b)
    expected = dict_convolve(a, b)
    assert {k for k, _ in out.items()} <= set(expected)
    for k, v in expected.items():
        assert abs(out[k] - v) < 1e-12


def shifted_loop_convolve(a, b):
    """Oracle: the kernel of convolve written out.  For each nonzero v of the
    operand with fewer nonzeros (the first on a tie), in lexicographic order,
    v times the other's box array is added at v's offset; returns the corner
    and the untrimmed box array."""
    small, big = (a, b) if len(a) <= len(b) else (b, a)
    out = np.zeros([m + n - 1 for m, n in zip(small.values.shape, big.values.shape)], complex)
    for index, v in small.items():
        box = tuple(slice(i - o, i - o + n) for i, o, n in zip(index, small.lo, big.values.shape))
        out[box] = out[box] + v * big.values
    return a.lo + b.lo, out


def embedded(seq, lo, shape):
    """The values of seq in a zero box of the given corner and shape."""
    out = np.zeros(shape, complex)
    out[tuple(slice(o - c, o - c + n) for o, c, n in zip(seq.lo, lo, seq.values.shape))] = seq.values
    return out


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_convolve_equals_the_shifted_loop_bit_for_bit(dim):
    rng = np.random.default_rng(10 + dim)
    for case in range(40):
        a = random_sparse(rng, dim=dim, size=int(rng.integers(1, 9)), box=int(rng.integers(1, 5)))
        b = random_sparse(rng, dim=dim, size=int(rng.integers(1, 9)), box=int(rng.integers(1, 5)))
        if case % 4 == 0:  # scales far apart, so the order of the sums shows in the bits
            b = 1e12 * b + SparseSeq.unit(tuple(rng.integers(-2, 3, dim)), 1e-3)
        for x, y in ((a, b), (b, a)):
            lo, expected = shifted_loop_convolve(x, y)
            out = convolve(x, y)
            assert embedded(out, lo, expected.shape).tobytes() == expected.tobytes()


def test_convolve_loops_over_the_first_operand_on_a_tie():
    # cell 2 sums 1 + 1e16 - 1e16 over a's nonzeros in order, and reversed over b's
    a = SparseSeq(1, {0: 1.0, 1: 1e16, 2: -1e16})
    b = SparseSeq(1, {0: 1.0, 1: 1.0, 2: 1.0})
    assert len(a) == len(b)
    assert convolve(a, b)[2] == 0.0 and convolve(b, a)[2] == 1.0
    for x, y in ((a, b), (b, a)):
        lo, expected = shifted_loop_convolve(x, y)
        assert embedded(convolve(x, y), lo, expected.shape).tobytes() == expected.tobytes()


def test_convolve_with_non_finite_entries_equals_the_shifted_loop():
    rng = np.random.default_rng(7)
    a = random_sparse(rng, dim=2, size=6, box=3)
    for bad in (np.inf, -np.inf * 1j, complex(np.nan, 1.0)):
        b = random_sparse(rng, dim=2, size=3, box=1) + SparseSeq.unit((1, -1), bad)
        with np.errstate(invalid="ignore"):
            for x, y in ((a, b), (b, a)):
                lo, expected = shifted_loop_convolve(x, y)
                np.testing.assert_array_equal(embedded(convolve(x, y), lo, expected.shape), expected)


def test_convolve_cancels_to_exact_zero():
    # (delta + e) * (delta - e) = delta - 2e: the middle coefficient is exactly 0
    for e in [(1,), (0, 1), (1, 0, -1)]:
        delta = SparseSeq.delta(len(e))
        out = convolve(delta + SparseSeq.unit(e), delta - SparseSeq.unit(e))
        e2 = tuple(2 * v for v in e)
        assert out == SparseSeq(len(e), {e2: -1.0, (0,) * len(e): 1.0})
        assert len(out) == 2 and out[e] == 0


def test_convolve_with_empty_operand():
    a = random_sparse(np.random.default_rng(2), dim=2)
    empty = SparseSeq(2)
    assert convolve(a, empty) == empty and convolve(empty, a) == empty
    assert convolve(empty, empty) == empty and len(empty) == 0
    assert a + empty == a and empty - a == -a


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("q,s", [(0.3, 0.0), (0.75, 1.5), (1.0, 2.0)])
def test_qnorm_against_weight_eval_sum(dim, q, s):
    a = random_sparse(np.random.default_rng(dim), dim=dim, size=10, box=5)
    expected = sum(abs(v) ** q * weight_eval(k, s) ** q for k, v in a.items()) ** (1 / q)
    assert qnorm(a, QParams(q, s)) == pytest.approx(expected, rel=1e-13)
    assert qnorm_weighted(a, q, s) == pytest.approx(expected, rel=1e-13)


def test_duplicate_indices_add_and_zeros_leave_the_support():
    a = SparseSeq(2, [((0, 0), 1.0), ((0, 0), -1.0), ((3, -1), 2.0), ((3, -1), 0.5j)])
    assert a == SparseSeq.unit((3, -1), 2.0 + 0.5j)
    assert len(a) == 1 and a.items() == [((3, -1), 2.0 + 0.5j)]
    assert a[(0, 0)] == 0 and a[(100, 100)] == 0


def test_box_budget():
    with pytest.raises(ValueError, match="cells"):
        SparseSeq(1, {(0,): 1.0, (10**8,): 0.1})
    far = SparseSeq.unit(10**8)  # a one-cell box far from the origin is fine
    assert len(far) == 1 and far[10**8] == 1.0
    with pytest.raises(ValueError, match="cells"):
        SparseSeq.delta(1) + far


I64_MIN, I64_MAX = -(2**63), 2**63 - 1


def test_sum_at_the_int64_corners_is_refused_not_wrapped():
    # the box from -2**63 to 2**63 - 1 is 2**64 cells wide: int64 wrapped it to one mass
    with pytest.raises(ValueError, match="cells"):
        SparseSeq.unit(I64_MAX) + SparseSeq.unit(I64_MIN)
    edge = SparseSeq.unit(I64_MAX) + SparseSeq.unit(I64_MAX - 1, 2.0)
    assert edge.items() == [((I64_MAX - 1,), 2.0), ((I64_MAX,), 1.0)]


def test_convolution_beyond_int64_is_out_of_range():
    for a, b in [(2**62, 2**62), (I64_MIN, -1), ((0, 2**62), (1, 2**62))]:
        with pytest.raises(ValueError, match="sequence index out of range"):
            convolve(SparseSeq.unit(a), SparseSeq.unit(b))
    top = convolve(SparseSeq.unit(2**62), SparseSeq.unit(2**62 - 1, 3.0))
    assert top.items() == [((I64_MAX,), 3.0)]
    bottom = convolve(SparseSeq.unit(-(2**62)), SparseSeq.unit(-(2**62)))
    assert bottom.items() == [((I64_MIN,), 1.0)]
    with pytest.raises(ValueError, match="sequence index out of range"):
        neumann_inverse(0.5 * SparseSeq.unit(2**62), QParams(1.0))  # x^2 at 2**63


def test_pointwise_product_at_the_int64_corner():
    a = SparseSeq(1, {(I64_MAX - 1,): 1.0, (I64_MAX,): 2.0})
    assert pointwise_product(a, SparseSeq.unit(I64_MAX, 3.0)) == SparseSeq.unit(I64_MAX, 6.0)
    assert len(pointwise_product(SparseSeq.unit(I64_MIN), a)) == 0


# ---------------------------------------------------------------- quasi-algebra inequalities


@pytest.mark.parametrize("q", [0.3, 0.5, 0.8, 1.0])
@pytest.mark.parametrize("s", [0.0, 1.0, 2.0])
def test_young_inequality(q, s):
    rng = np.random.default_rng(int(q * 100) + int(s))
    p = QParams(q, s)
    for _ in range(25):
        a = random_sparse(rng)
        b = random_sparse(rng)
        rhs = qnorm(a, p) * qnorm(b, p)
        assert qnorm(convolve(a, b), p) <= rhs * (1 + 1e-12) + 1e-12


@given(st.floats(0.25, 1.0), st.floats(0.0, 2.0), st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_q_triangle_inequality(q, s, seed):
    rng = np.random.default_rng(seed)
    a = random_sparse(rng)
    b = random_sparse(rng)
    p = QParams(q, s)
    rhs = qnorm(a, p) ** q + qnorm(b, p) ** q
    assert qnorm(a + b, p) ** q <= rhs * (1 + 1e-12) + 1e-12


def test_inclusion_monotonicity():
    rng = np.random.default_rng(3)
    for _ in range(30):
        a = random_sparse(rng)
        for s in (0.0, 1.0):
            n03 = qnorm(a, QParams(0.3, s))
            n05 = qnorm(a, QParams(0.5, s))
            n10 = qnorm(a, QParams(1.0, s))
            assert n10 <= n05 * (1 + 1e-12) and n05 <= n03 * (1 + 1e-12)


def test_hoelder_inequality():
    rng = np.random.default_rng(4)
    s = 1.0
    for _ in range(30):
        a = random_sparse(rng)
        b = random_sparse(rng)
        # exponents (p, q, r) = (1, 1, 1/2): 1/p + 1/q = 1/r
        lhs = qnorm_weighted(pointwise_product(a, b), 0.5, 0.0)
        rhs = qnorm_weighted(a, 1.0, s) * qnorm_weighted(b, 1.0, -s)
        assert lhs <= rhs * (1 + 1e-12) + 1e-12


# ---------------------------------------------------------------- Neumann inversion


def test_neumann_of_zero_is_delta():
    assert neumann_inverse(SparseSeq(1), QParams(0.5, 0.0)) == DELTA1


def test_neumann_geometric_series():
    x = 0.4 * SparseSeq.unit(1)
    p = QParams(1.0, 0.0)
    inv = neumann_inverse(x, p, tol=1e-10)
    for n in range(10):
        assert abs(inv[(n,)] - 0.4**n) < 1e-15
    assert qnorm(inv, p) == pytest.approx(5.0 / 3.0, abs=1e-9)


def test_neumann_geometric_tail_closed_form():
    # q = 0.5 tail after degree n is (sum_{j>n} 0.4^(j/2))^2
    for n in (3, 7, 11):
        expected = (0.4 ** ((n + 1) / 2) / (1 - math.sqrt(0.4))) ** 2
        assert neumann_tail_bound(0.4, 0.5, n) == pytest.approx(expected, rel=1e-12)


def test_neumann_same_coefficients_for_smaller_q():
    x = 0.4 * SparseSeq.unit(1)
    inv = neumann_inverse(x, QParams(0.5, 0.0), tol=1e-10)
    for n in range(10):
        assert abs(inv[(n,)] - 0.4**n) < 1e-15


def test_neumann_rejects_noncontractive():
    with pytest.raises(ContractionError):
        neumann_inverse(SparseSeq.unit(1), QParams(1.0, 0.0))
    with pytest.raises(ContractionError):
        neumann_inverse(1.2 * SparseSeq.unit(1), QParams(0.5, 1.0))


def loop_neumann(x, degree):
    """Oracle: delta + x + ... + x^degree, one sequence sum and one
    convolution per term."""
    result = SparseSeq.delta(x.dim)
    power = x
    for _ in range(degree):
        result = result + power
        power = convolve(power, x)
    return result


def neumann_degree(nx, q, tol):
    """The least degree n >= 1 whose closed-form tail is at most tol."""
    n = 1
    while neumann_tail_bound(nx, q, n) > tol:
        n += 1
    return n


@pytest.mark.parametrize("dim", [1, 2])
def test_neumann_equals_the_term_by_term_loop(dim):
    rng = np.random.default_rng(dim)
    for case in range(120):
        p = QParams(rng.uniform(0.4, 1.0), rng.uniform(0.0, 2.0))
        tol = 10.0 ** -rng.integers(4, 11)
        x = random_sparse(rng, dim=dim, size=int(rng.integers(1, 6)), box=2)
        if case % 2:  # a support away from the origin, on either side
            x = convolve(x, SparseSeq.unit(tuple(int(v) for v in rng.integers(-6, 7, dim))))
        # every third case so small that one term suffices
        x = (rng.uniform(0.05, 0.6) if case % 3 else 1e-12) / qnorm(x, p) * x
        n = neumann_degree(qnorm(x, p), p.q, tol)
        assert (n == 1) == (case % 3 == 0)
        assert neumann_inverse(x, p, tol) == loop_neumann(x, n)
    assert neumann_inverse(SparseSeq(dim), QParams(0.5, 1.0)) == SparseSeq.delta(dim)


@pytest.mark.parametrize("q,s", [(0.5, 0.0), (0.8, 1.0), (1.0, 2.0)])
def test_neumann_residual_and_tail_bound(q, s):
    rng = np.random.default_rng(int(10 * q + s))
    p = QParams(q, s)
    tol = 1e-10
    delta = SparseSeq.delta(2)
    for _ in range(5):
        x = random_sparse(rng, size=4, box=2)
        x = (0.45 / qnorm(x, p)) * x
        inv = neumann_inverse(x, p, tol)
        assert qnorm(convolve(delta - x, inv) - delta, p) <= tol
        nx = qnorm(x, p)
        bound = nx**2 / (1.0 - nx**q) ** (1.0 / q)
        assert qnorm(inv - delta - x, p) <= bound * (1 + 1e-9)


# ---------------------------------------------------------------- Fourier series


def test_fourier_series_of_delta():
    for xi in (0.0, 0.25, 0.7):
        assert fourier_series_eval(DELTA1, xi) == pytest.approx(1.0)


def test_fourier_series_values():
    a = DELTA1 - 0.5 * SparseSeq.unit(1)
    assert fourier_series_eval(a, 0.0) == pytest.approx(0.5)
    b = DELTA1 - SparseSeq.unit(1)
    assert abs(fourier_series_eval(b, 0.0)) < 1e-15


def test_l1_norm_is_sup_of_fourier_of_modulus():
    rng = np.random.default_rng(5)
    a = random_sparse(rng, dim=1, size=5, box=4)
    abs_a = SparseSeq(1, {k: abs(v) for k, v in a.items()})
    grid = np.linspace(0.0, 1.0, 2048, endpoint=False)
    values = np.array([abs(fourier_series_eval(abs_a, x)) for x in grid])
    l1 = qnorm(a, QParams(1.0, 0.0))
    assert values.max() == pytest.approx(l1, rel=1e-12)
    assert np.argmax(values) == 0


# ---------------------------------------------------------------- Fourier inversion


def test_invert_by_fourier_of_delta():
    res = invert_by_fourier(DELTA1, grid=64)
    assert res.seq == DELTA1
    assert res.residual < 1e-14


def test_invert_by_fourier_geometric():
    a = DELTA1 - 0.5 * SparseSeq.unit(1)
    res = invert_by_fourier(a, grid=4096)
    assert res.residual < 1e-8
    for n in range(12):
        assert abs(res.seq[(n,)] - 0.5**n) < 1e-12
    assert res.decay_rate == pytest.approx(math.log(2.0), rel=1e-6)


def test_invert_by_fourier_rejects_vanishing():
    with pytest.raises(VanishingFourierError):
        invert_by_fourier(DELTA1 - SparseSeq.unit(1), grid=4096)


def test_invert_by_fourier_two_dim():
    a = SparseSeq.delta(2) - 0.3 * SparseSeq.unit((1, 0)) - 0.2 * SparseSeq.unit((0, 1))
    res = invert_by_fourier(a, grid=128)
    assert res.residual < 1e-8


def test_invert_by_fourier_grid_must_exceed_the_support_box():
    a = DELTA1 + 1e-14 * SparseSeq.unit(5000)  # inverse delta - 1e-14 e_5000 + ...
    with pytest.raises(ValueError, match="not wider than the support box"):
        invert_by_fourier(a, grid=4096)
    with pytest.raises(ValueError, match="not wider than the support box"):
        invert_by_fourier(SparseSeq(2, {(0, 0): 1.0, (0, 300): 0.1}), grid=256)
    res = invert_by_fourier(a)  # the default grid grows to 8192
    assert res.seq == DELTA1
    assert res.residual < 1e-13


def test_invert_by_fourier_residual_gate():
    # a cutoff of 0.2 keeps delta + 0.5 e_1 + 0.25 e_2, which leaves -0.125 e_3
    with pytest.raises(ToleranceError, match="residual 1.250e-01"):
        invert_by_fourier(DELTA1 - 0.5 * SparseSeq.unit(1), grid=64, decay_cutoff=0.2)


def test_invert_by_fourier_default_grid_doubles_while_the_inverse_aliases():
    far = DELTA1 + 0.3 * SparseSeq.unit(5000)  # inverse (-0.3)^j at 5000 j
    with pytest.raises(ToleranceError, match="on the 65536\\^1 grid"):
        invert_by_fourier(far, grid=65536)  # a given grid is kept
    # the residual passes from 2^17 on, but there the entries beyond 65536
    # wrap, and on 2^18 they still sit in the outer quarter
    for grid in (2**17, 2**18):
        with pytest.raises(ToleranceError, match=f"guard band .* the {grid}\\^1 grid"):
            invert_by_fourier(far, grid=grid)
    res = invert_by_fourier(far)  # 8192, 16384, ... up to 2^19
    assert res.residual < 1e-6 and len(res.seq) == 23
    for j in range(23):
        assert res.seq[(5000 * j,)] == pytest.approx((-0.3) ** j, abs=1e-12)


def test_invert_by_fourier_ladder_stops_when_the_residual_stops_falling():
    # too coarse a cutoff leaves the residual at 0.125 on every grid
    with pytest.raises(ToleranceError, match="residual 1.250e-01 .* the (4096|8192|16384)\\^1 grid"):
        invert_by_fourier(DELTA1 - 0.5 * SparseSeq.unit(1), decay_cutoff=0.2)


def test_invert_by_fourier_grid_guard():
    with pytest.raises(ValueError):
        invert_by_fourier(SparseSeq.delta(2), grid=8192)


@pytest.mark.filterwarnings("error")
def test_quasi_norm_overflow_is_an_error_not_a_warning():
    from gmlab._lattice import lattice_qnorm, weighted_qnorm

    a = SparseSeq(1, {(0,): 1.0, (300,): 1e-3})
    with pytest.raises(ValueError, match="not finite"):
        qnorm(a, QParams(1.0, 200.0))
    with pytest.raises(ValueError, match="not finite"):
        qnorm_weighted(a, 1.0, 200.0)
    with pytest.raises(ValueError, match="not finite"):
        lattice_qnorm(np.ones((5, 5)), 0.5, 1000.0)
    assert weighted_qnorm(np.array([3.0, 4.0]), np.ones(2), 1.0) == 7.0


# ---------------------------------------------------------------- refusals


@pytest.mark.parametrize("call, error, message", [
    (lambda: SparseSeq(0, {}), ValueError, "dimension must be >= 1, got 0"),
    (lambda: SparseSeq(2, {(1,): 1.0}), ValueError, "index \\(1,\\) does not match dimension 2"),
    (lambda: SparseSeq(1, {2**63: 1.0}), ValueError, "sequence index out of range"),
    (lambda: setattr(DELTA1, "dim", 2), AttributeError, "SparseSeq is immutable"),
    (lambda: DELTA1 + SparseSeq.delta(2), ValueError, "dimension mismatch"),
    (lambda: pointwise_product(DELTA1, SparseSeq.delta(2)), ValueError, "dimension mismatch"),
    (lambda: neumann_inverse(0.5 * SparseSeq.unit(1), QParams(1.0), tol=0.0),
     ValueError, "tol must be positive"),
    (lambda: fourier_series_eval(SparseSeq.delta(2), 0.5), ValueError, "xi must have 2 coordinates"),
    (lambda: invert_by_fourier(DELTA1, decay_cutoff=0.0), ValueError, "decay_cutoff must be positive"),
    (lambda: invert_by_fourier(DELTA1, grid=2), ValueError, "grid must be at least 4"),
    (lambda: invert_by_fourier(SparseSeq(1, {0: 1e308, 1: 1e308}), grid=4),
     ValueError, "the Fourier series of the sequence overflows"),
])
def test_refusals_name_their_cause(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_numpy_scalar_times_a_sequence_is_the_scalar_product():
    # numpy once read a SparseSeq as a sequence through len and indexing,
    # and np.float64(2.0) * x never returned: run it in a child with a timeout
    script = (
        "import numpy as np\n"
        "from gmlab import SparseSeq\n"
        "for x in (SparseSeq(1, {3: 1.0, 5: 2.0}), SparseSeq(2, {(0, 1): 1.0, (2, -1): 3j})):\n"
        "    for c in (np.float64(2.0), np.complex128(1 - 2j), np.sqrt(2)):\n"
        "        assert c * x == x * c == complex(c) * x\n"
    )
    src = os.path.dirname(os.path.dirname(gmlab.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=30)
