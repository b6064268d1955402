import math

import numpy as np
import pytest

from gmlab import (
    QParams,
    SampledField,
    amalgam_norm,
    bump_field,
    chirped_gaussian_field,
    conv_embedding_check,
    convolve_fields,
    gaussian_field,
    gl_invariance_check,
    refinement_gap,
    sample_field,
)
from gmlab.amalgam import _bilinear

P1 = QParams(1.0, 0.0)


def test_unit_cell_bump_has_norm_one():
    for s in (0.0, 1.0, 2.0):
        F = sample_field(bump_field, R=8, M=32)
        assert amalgam_norm(F, QParams(1.0, s)) == pytest.approx(1.0, abs=1e-12)


def test_gaussian_norm_against_fine_grid_oracle():
    coarse = sample_field(gaussian_field, R=8, M=32)
    fine = sample_field(gaussian_field, R=8, M=256)
    n_coarse = amalgam_norm(coarse, P1)
    n_fine = amalgam_norm(fine, P1)
    assert abs(n_coarse - n_fine) / n_fine < 0.01


def test_zero_field_norm():
    F = SampledField(R=4, M=8, values=np.zeros((64, 64)))
    assert amalgam_norm(F, P1) == 0.0


def test_norm_monotone_in_refinement():
    mid = sample_field(gaussian_field, R=4, M=16)
    fine = sample_field(gaussian_field, R=4, M=32)
    assert amalgam_norm(fine, P1) >= amalgam_norm(mid, P1)


def test_refinement_gap_brackets_next_increment():
    mid = sample_field(gaussian_field, R=4, M=16)
    fine = sample_field(gaussian_field, R=4, M=32)
    next_step = amalgam_norm(fine, P1) - amalgam_norm(mid, P1)
    assert 0.0 <= next_step <= refinement_gap(mid, P1)


def test_inclusion_between_exponents():
    F = sample_field(gaussian_field, R=4, M=16)
    for s in (0.0, 1.0):
        n_half = amalgam_norm(F, QParams(0.5, s))
        n_one = amalgam_norm(F, QParams(1.0, s))
        assert n_one <= n_half + 1e-12


def test_solidity():
    F = sample_field(gaussian_field, R=4, M=16)
    G = SampledField(R=4, M=16, values=0.3 * F.values)
    assert amalgam_norm(G, P1) <= amalgam_norm(F, P1)


# ---------------------------------------------------------------- convolution embedding


def test_conv_embedding_finite_and_stable():
    for q, s in [(1.0, 0.0), (0.8, 1.0)]:
        p = QParams(q, s)
        r32 = conv_embedding_check(
            sample_field(gaussian_field, R=8, M=32),
            sample_field(bump_field, R=8, M=32),
            p,
        )
        r64 = conv_embedding_check(
            sample_field(gaussian_field, R=8, M=64),
            sample_field(bump_field, R=8, M=64),
            p,
        )
        assert np.isfinite(r32) and r32 > 0
        assert abs(r64 - r32) / r32 < 0.05


def test_conv_embedding_within_frozen_constant(calibration):
    threshold = calibration["conv_embedding"]["ratio_threshold"]
    p = QParams(0.8, 1.0)
    bump = sample_field(bump_field, R=8, M=32)
    gauss = sample_field(gaussian_field, R=8, M=32)
    assert conv_embedding_check(bump, bump, p) <= threshold
    assert conv_embedding_check(gauss, bump, p) <= threshold


def test_conv_embedding_zero_field():
    zero = SampledField(R=4, M=8, values=np.zeros((64, 64)))
    F = sample_field(gaussian_field, R=4, M=8)
    assert conv_embedding_check(zero, F, P1) == 0.0


def test_conv_embedding_near_delta():
    # a narrow normalized bump acts as an approximate identity
    def narrow(x, y):
        return 40.0 * bump_field(8 * x + 0.5 - 4.0, 8 * y + 0.5 - 4.0)

    F = sample_field(gaussian_field, R=4, M=32)
    G = sample_field(narrow, R=4, M=32)
    ratio = conv_embedding_check(F, G, P1)
    mass = np.sum(G.values.real) / 32**2
    # F * G ~ mass * F, so ratio ~ mass / ||G||
    expected = mass / amalgam_norm(G, P1)
    print(f"near-delta ratio {ratio:.4f}, predicted {expected:.4f}")
    assert 0.5 * expected < ratio < 2.0 * expected


def test_conv_embedding_grid_mismatch():
    F = sample_field(gaussian_field, R=4, M=8)
    G = sample_field(gaussian_field, R=4, M=16)
    with pytest.raises(ValueError):
        conv_embedding_check(F, G, P1)


def _direct_convolution(f, g, M):
    """Linear convolution as a double sum of shifted copies of g, / M^2,
    on the doubled grid with its trailing line zero."""
    n = f.shape[0]
    out = np.zeros((2 * n, 2 * n), dtype=np.result_type(f, g))
    for i in range(n):
        for j in range(n):
            out[i : i + n, j : j + n] += f[i, j] * g
    return out / M**2


@pytest.mark.parametrize("complex_fields", [False, True])
def test_convolve_fields_matches_direct_sum(rng, complex_fields):
    R, M = 1, 4
    n = 2 * R * M
    f, g = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    if complex_fields:
        f = f + 1j * rng.standard_normal((n, n))
        g = g - 1j * rng.standard_normal((n, n))
    out = convolve_fields(SampledField(R, M, f), SampledField(R, M, g))
    expected = _direct_convolution(f, g, M)
    assert (out.R, out.M) == (2 * R, M)
    assert out.values.dtype == expected.dtype
    np.testing.assert_allclose(out.values, expected, rtol=0, atol=1e-13)
    assert not np.any(out.values[-1]) and not np.any(out.values[:, -1])


# ---------------------------------------------------------------- GL invariance


def _grid_points(F):
    X, Y = np.meshgrid(F.axis(), F.axis(), indexing="ij")
    return np.stack([X.ravel(), Y.ravel()], axis=-1)


def _pointwise_bilinear(F, x, y):
    """Textbook bilinear formula on the cell holding (x, y); 0 off the grid."""
    ax = F.axis()
    if not (ax[0] <= x <= ax[-1] and ax[0] <= y <= ax[-1]):
        return 0.0
    i = min(int(np.searchsorted(ax, x, side="right")) - 1, ax.size - 2)
    j = min(int(np.searchsorted(ax, y, side="right")) - 1, ax.size - 2)
    x0, x1, y0, y1 = ax[i], ax[i + 1], ax[j], ax[j + 1]
    v = F.values
    return (
        (x1 - x) * (y1 - y) * v[i, j]
        + (x - x0) * (y1 - y) * v[i + 1, j]
        + (x1 - x) * (y - y0) * v[i, j + 1]
        + (x - x0) * (y - y0) * v[i + 1, j + 1]
    ) / ((x1 - x0) * (y1 - y0))


def test_bilinear_exact_at_grid_points(rng):
    R, M = 2, 4
    n = 2 * R * M
    F = SampledField(R, M, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    pts = _grid_points(F)
    np.testing.assert_array_equal(_bilinear(F, pts).reshape(n, n), F.values)
    # rotation by pi/2: (x, y) -> (-y, x); -ax[j] = ax[n - j], and -ax[0] = R is off the grid
    rotated = _bilinear(F, pts @ np.array([[0.0, -1.0], [1.0, 0.0]]).T).reshape(n, n)
    expected = np.zeros_like(F.values)
    for i in range(n):
        for j in range(1, n):
            expected[i, j] = F.values[n - j, i]
    np.testing.assert_array_equal(rotated, expected)


def test_bilinear_matches_pointwise_formula(rng):
    F = sample_field(chirped_gaussian_field, R=2, M=4)
    pts = rng.uniform(-F.R - 0.5, F.R + 0.5, size=(400, 2))
    got = _bilinear(F, pts)
    expected = np.array([_pointwise_bilinear(F, x, y) for x, y in pts])
    outside = np.any((pts < F.axis()[0]) | (pts > F.axis()[-1]), axis=1)
    assert 0 < outside.sum() < len(pts)
    assert np.all(got[outside] == 0)
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-15)




def test_gl_identity():
    F = sample_field(gaussian_field, R=4, M=16)
    res = gl_invariance_check(F, np.eye(2), P1)
    assert res.ratio == pytest.approx(1.0, abs=1e-12)


def test_gl_rotation_of_radial_field():
    F = sample_field(gaussian_field, R=8, M=32)
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    res = gl_invariance_check(F, rot, P1)
    assert res.ratio == pytest.approx(1.0, abs=1e-9)


def test_gl_anisotropic_scaling():
    F = sample_field(gaussian_field, R=8, M=32)
    res = gl_invariance_check(F, np.diag([2.0, 0.5]), QParams(0.8, 1.0))
    assert np.isfinite(res.ratio)
    assert res.ratio ** 0.8 <= res.bound


def test_gl_rejects_singular():
    F = sample_field(gaussian_field, R=4, M=8)
    with pytest.raises(ValueError):
        gl_invariance_check(F, np.array([[1.0, 2.0], [2.0, 4.0]]), P1)


def test_field_validation():
    with pytest.raises(ValueError):
        SampledField(R=2, M=2, values=np.zeros((8, 8)))  # M too small
    with pytest.raises(ValueError):
        SampledField(R=2, M=8, values=np.zeros((8, 8)))  # wrong shape
    with pytest.raises(ValueError):
        SampledField(R=1, M=4, values=np.full((8, 8), np.nan))


def test_chirped_gaussian_is_complex():
    F = sample_field(chirped_gaussian_field, R=4, M=8)
    assert np.iscomplexobj(F.values)
    assert amalgam_norm(F, P1) > 0


@pytest.mark.parametrize("text", ["x,y,value\n", "x,y,value\n0,0,1\n"], ids=["header", "one-point"])
def test_load_field_csv_needs_a_grid(tmp_path, text):
    from gmlab.presets import load_field_csv

    path = tmp_path / "field.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match="full square grid"):
        load_field_csv(str(path))


def test_field_grids_are_refused_above_the_cell_budget():
    with pytest.raises(ValueError, match="more than 16777216 cells"):
        sample_field(gaussian_field, R=100000, M=32)  # 298 TiB if it were allocated
    F = SampledField(R=300, M=4, values=np.zeros((2400, 2400)))  # within the budget
    with pytest.raises(ValueError, match="a 4800 x 4800 field grid"):
        convolve_fields(F, F)  # the linear convolution grid is not


def test_resolve_field_rejects_a_non_string():
    from gmlab.presets import resolve_field

    with pytest.raises(ValueError, match=r"unknown field preset \[1\]"):
        resolve_field([1], 2, 4)


@pytest.mark.filterwarnings("error")
def test_gl_invariance_rejects_a_matrix_beyond_the_grid():
    F = sample_field(gaussian_field, R=2, M=4)
    for entry in (1e308, math.inf, math.nan):
        with pytest.raises(ValueError, match="Mmat entries must be finite"):
            gl_invariance_check(F, [[entry, 0.0], [0.0, 1.0]], P1)


@pytest.mark.filterwarnings("error")
def test_amalgam_norm_overflow_is_an_error():
    F = sample_field(bump_field, R=8, M=4)
    with pytest.raises(ValueError, match="not finite"):
        amalgam_norm(F, QParams(0.5, 400.0))  # used to return NaN: 0 * inf weight
