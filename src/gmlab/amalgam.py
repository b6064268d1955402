"""Sampled Wiener amalgam norms on the plane.

A continuous field F on R^2 is truncated to the box [-R, R)^2 and sampled
on a grid of M points per unit cell per axis.  Its amalgam quasi-norm is

    ||F|| = ( sum_lam (sup_{z in Q} |F(z + lam)|)^q (1 + |lam|)^(s q) )^(1/q)

with Q = [0, 1)^2 and lam running over the integer points of the box; cell
suprema are approximated by grid maxima, which are nondecreasing under
refinement, so the error can be bracketed by comparing resolutions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._lattice import QParams, radius, require_cells, square_points, weight, weighted_qnorm
from .errors import BOUND_SLACK, SINGULAR_DET, ToleranceError


@dataclass(frozen=True)
class SampledField:
    """Field samples values[i, j] = F(-R + i/M, -R + j/M) on [-R, R)^2."""

    R: int
    M: int
    values: np.ndarray

    def __post_init__(self):
        if self.R < 1 or self.M < 4:
            raise ValueError(f"need R >= 1 and M >= 4 samples per cell, got {self.R}, {self.M}")
        side = 2 * self.R * self.M
        if self.values.shape != (side, side):
            raise ValueError(f"values must be {side} x {side}")
        if not np.all(np.isfinite(np.abs(self.values))):
            raise ValueError("field samples must be finite")

    def axis(self) -> np.ndarray:
        return _grid_axis(self.R, self.M)


def _grid_axis(R: int, M: int) -> np.ndarray:
    return -R + np.arange(2 * R * M) / M


def sample_field(func, R: int, M: int) -> SampledField:
    """Sample a callable func(x, y) (vectorized) on the standard grid."""
    side = 2 * R * M
    require_cells(side**2, f"a {side} x {side} field grid")
    points = square_points(_grid_axis(R, M))
    return SampledField(R=R, M=M, values=np.asarray(func(points[..., 0], points[..., 1])))


def gaussian_field(x, y):
    return np.exp(-np.pi * (x**2 + y**2))


def bump_field(x, y):
    """Smooth bump of peak 1 supported strictly inside the unit cell [0,1)^2."""
    r2 = ((x - 0.5) ** 2 + (y - 0.5) ** 2) / 0.45**2
    out = np.zeros_like(np.asarray(r2, dtype=float))
    inside = r2 < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - r2[inside]))
    return out


def chirped_gaussian_field(x, y):
    r2 = x**2 + y**2
    return np.exp(-np.pi * r2) * np.exp(1j * np.pi * r2)


FIELD_PRESETS = {
    "gaussian": gaussian_field,
    "bump": bump_field,
    "chirped-gaussian": chirped_gaussian_field,
}


def cell_maxima(F: SampledField) -> np.ndarray:
    """(2R, 2R) array of grid maxima of |F| over each unit cell."""
    side = 2 * F.R
    return (
        np.abs(F.values).reshape(side, F.M, side, F.M).max(axis=(1, 3))
    )


def amalgam_norm(F: SampledField, p: QParams) -> float:
    """Weighted lq sum of cell maxima; the sampled amalgam quasi-norm."""
    lam = square_points(np.arange(-F.R, F.R))
    return weighted_qnorm(cell_maxima(F), weight(radius(lam), p.s), p.q)


def refinement_gap(F: SampledField, p: QParams) -> float:
    """Norm increase from the half-resolution subgrid to the full grid.

    Grid maxima only grow under refinement, so this gap bounds the step
    just taken and estimates the residual discretization error.
    """
    if F.M % 2 != 0:
        raise ValueError("samples per cell must be even to coarsen")
    coarse = SampledField(R=F.R, M=F.M // 2, values=F.values[::2, ::2])
    return amalgam_norm(F, p) - amalgam_norm(coarse, p)


def convolve_fields(F: SampledField, G: SampledField) -> SampledField:
    """Riemann-sum convolution of two fields on the common grid.

    The result lives on the doubled box [-2R, 2R)^2 at the same sample
    rate; the trailing grid line (absent from the linear convolution) is
    zero-padded.
    """
    if F.R != G.R or F.M != G.M:
        raise ValueError("fields live on different grids")
    side = 2 * F.values.shape[0]
    require_cells(side**2, f"a {side} x {side} field grid")
    size = (side - 1,) * 2  # linear, not cyclic, convolution
    conv = np.fft.ifft2(np.fft.fft2(F.values, size) * np.fft.fft2(G.values, size))
    if not (np.iscomplexobj(F.values) or np.iscomplexobj(G.values)):
        conv = conv.real
    out = np.zeros((size[0] + 1, size[1] + 1), dtype=conv.dtype)
    out[:-1, :-1] = conv / F.M**2
    return SampledField(R=2 * F.R, M=F.M, values=out)


def conv_embedding_check(F: SampledField, G: SampledField, p: QParams) -> float:
    """Ratio ||F * G|| / (||F|| ||G||); finite by the amalgam convolution embedding."""
    numerator = amalgam_norm(convolve_fields(F, G), p)
    if numerator == 0.0:
        return 0.0
    denominator = amalgam_norm(F, p) * amalgam_norm(G, p)
    return float(numerator / denominator)


@dataclass(frozen=True)
class GlInvariance:
    """Measured data of a change-of-variables norm comparison.

    ratio = ||F o Mmat|| / ||F||; beta is the empirical covering
    multiplicity (max number of unit cells met by the image of one cell);
    bound = 4 |det A| beta with A = I the lattice generator of Z^2.
    """

    ratio: float
    beta: int
    bound: float


def gl_invariance_check(F: SampledField, Mmat, p: QParams) -> GlInvariance:
    """Compare amalgam norms of F and F o Mmat against the covering bound.

    F o Mmat is resampled by linear interpolation (zero outside the box).
    Raises ToleranceError if ratio**q exceeds 4 * beta beyond slack.
    """
    Mmat = np.asarray(Mmat, dtype=float)
    if Mmat.shape != (2, 2):
        raise ValueError("Mmat must be 2x2")
    if not np.abs(Mmat).max() < 2.0**39 / F.R:  # image points below 2^40 (and finite)
        raise ValueError(f"Mmat entries must be finite and below 2^39 / R, got {Mmat.tolist()}")
    det = float(np.linalg.det(Mmat))
    if abs(det) < SINGULAR_DET:
        raise ValueError("Mmat is singular")

    pts = square_points(F.axis()).reshape(-1, 2) @ Mmat.T  # rows Mmat @ u
    composed = SampledField(R=F.R, M=F.M, values=_bilinear(F, pts).reshape(F.values.shape))

    denom = amalgam_norm(F, p)
    if denom == 0.0:
        raise ValueError("field is identically zero")
    ratio = amalgam_norm(composed, p) / denom

    beta = _covering_multiplicity(pts, F.R, F.M)
    bound = 4.0 * beta  # 4^d |det A| beta with d = 1, A = I
    if ratio**p.q > bound * (1.0 + BOUND_SLACK):
        raise ToleranceError(
            f"covering bound violated: ratio^q = {ratio**p.q:.4g} > {bound:.4g}"
        )
    return GlInvariance(ratio=float(ratio), beta=int(beta), bound=float(bound))


def _bilinear(F: SampledField, pts: np.ndarray) -> np.ndarray:
    """Bilinear interpolation of F's samples at the rows (x, y) of pts.

    Points outside [ax[0], ax[-1]] on either axis get 0.
    """
    ax = F.axis()
    n = ax.shape[0]
    u = (pts - ax[0]) * F.M  # fractional sample index per axis
    i = np.clip(np.floor(u).astype(np.int64), 0, n - 2)
    t = u - i
    (i0, j0), (tx, ty) = i.T, t.T
    v = F.values
    out = (1 - tx) * ((1 - ty) * v[i0, j0] + ty * v[i0, j0 + 1]) + tx * (
        (1 - ty) * v[i0 + 1, j0] + ty * v[i0 + 1, j0 + 1]
    )
    inside = np.all((pts >= ax[0]) & (pts <= ax[-1]), axis=1)
    return np.where(inside, out, 0.0)


def _covering_multiplicity(pts: np.ndarray, R: int, M: int) -> int:
    side = 2 * R
    cells = np.floor(pts).astype(np.int64).reshape(side, M, side, M, 2)
    beta = 0
    for a in range(side):
        for b in range(side):
            flat = cells[a, :, b, :, :].reshape(-1, 2)
            beta = max(beta, np.unique(flat, axis=0).shape[0])
    return beta
