"""Weighted lq convolution quasi-algebras of finitely supported sequences on Z^m.

The algebra carries the quasi-norm

    ||a|| = ( sum_n |a(n)|^q (1 + |n|)^(s q) )^(1/q),     0 < q <= 1,  s >= 0,

with |n| the Euclidean norm of the index.  It is solid and commutative
under exact discrete convolution, its unit is the delta sequence, and for
||x|| < 1 the element delta - x is invertible by a Neumann series whose
truncation error has a closed-form geometric tail.  A second route to
inverses goes through the Fourier series: a is invertible iff its Fourier
series has no zeros, and the inverse coefficients are recovered by
sampling 1/(F a) on a fine grid.

A sequence is one complex ndarray over the index box of its support, of at
most MAX_CELLS cells (like a Fourier grid; a larger box raises ValueError).
Convolution adds one shifted copy of an operand per nonzero of the other.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from ._lattice import MAX_CELLS, QParams, require_cells, weight, weighted_qnorm
from .errors import (
    BOUND_SLACK,
    DECAY_CUTOFF,
    FOURIER_FLOOR,
    INVERSE_RESIDUAL_TOL,
    NEUMANN_TOL,
    ContractionError,
    ToleranceError,
    VanishingFourierError,
)


def _key(index, dim: int) -> tuple:
    idx = tuple(map(operator.index, np.atleast_1d(index).tolist()))
    if len(idx) != dim:
        raise ValueError(f"index {idx} does not match dimension {dim}")
    return idx


def _zeros(shape) -> np.ndarray:
    shape = tuple(int(n) for n in shape)
    require_cells(math.prod(shape), f"sequence box or grid {shape}")
    return np.zeros(shape, dtype=complex)


def _box(offset, shape) -> tuple:
    return tuple(slice(o, o + n) for o, n in zip(offset, shape))


def _ends(a: "SparseSeq") -> list:
    """Box ends lo + shape of a sequence."""
    return [o + n for o, n in zip(a.lo, a.values.shape)]


class SparseSeq:
    """Finitely supported complex sequence on Z^m: values[j] is the entry at
    lo + j, over a box trimmed to the support, so two sequences are equal iff
    their corners and arrays are; lo is a tuple of Python ints, like every
    index.  The object behaves as an immutable vector: +, -, and scalar *
    return new sequences; numpy scalars defer to them (__array_ufunc__ =
    None) instead of reading a sequence as an array."""

    __slots__ = ("lo", "values")
    __array_ufunc__ = None

    def __init__(self, dim: int, entries=None):
        if dim < 1:
            raise ValueError(f"dimension must be >= 1, got {dim}")
        items = list(entries.items() if isinstance(entries, dict) else entries or ())
        keys = [_key(k, dim) for k, _ in items]
        axes = list(zip(*keys)) or [(0,)] * dim  # no entries: one zero cell at 0
        lo = tuple(map(min, axes))
        shape = [max(a) + 1 - o for a, o in zip(axes, lo)]
        _check_int64(lo, shape)
        values = _zeros(shape)
        offsets = np.array(keys, np.int64).reshape(-1, dim) - lo
        np.add.at(values, tuple(offsets.T), [complex(v) for _, v in items])
        self._store(lo, values)

    def _store(self, lo, values: np.ndarray) -> "SparseSeq":
        nonzero, axes = values != 0, range(values.ndim)
        # the support's box: along each axis, the slices that hold a nonzero
        hits = [np.logical_or.reduce(nonzero, axis=tuple(b for b in axes if b != a)).nonzero()[0]
                for a in axes]
        if hits[0].size:
            lo = tuple(o + int(h[0]) for o, h in zip(lo, hits))
            values = values[tuple(slice(h[0], h[-1] + 1) for h in hits)]
        else:  # an empty sequence gets the corner 0 and an empty box
            lo, values = (0,) * values.ndim, values[(slice(0, 0),) * values.ndim]
        values.flags.writeable = False
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "values", values)
        return self

    dim = property(lambda self: self.values.ndim, doc="m of Z^m, the number of axes of values")
    __iter__ = None  # [] answers every index, so iteration (and numpy) would never end

    def __setattr__(self, name, value):
        raise AttributeError("SparseSeq is immutable")

    @classmethod
    def delta(cls, dim: int = 1) -> "SparseSeq":
        """Unit element: value 1 at the origin."""
        return cls(dim, [((0,) * dim, 1.0)])

    @classmethod
    def unit(cls, index, value=1.0) -> "SparseSeq":
        """Single mass `value` at `index` (an int or a tuple of ints)."""
        return cls(np.size(index), [(index, value)])

    def _nonzeros(self) -> tuple[np.ndarray, np.ndarray]:
        """Indices (nnz, m) and values (nnz,) of the support, lexicographically."""
        nz = np.nonzero(self.values)
        return np.add(np.transpose(nz), self.lo, order="C"), self.values[nz]

    def items(self) -> list:
        """(index tuple, complex value) pairs of the support, lexicographically."""
        idx, vals = self._nonzeros()
        return list(zip(map(tuple, idx.tolist()), vals.tolist()))

    def __len__(self):
        return int(np.count_nonzero(self.values))

    def __getitem__(self, index) -> complex:
        j = tuple(map(operator.sub, _key(index, self.dim), self.lo))
        inside = all(0 <= i < n for i, n in zip(j, self.values.shape))
        return complex(self.values[j]) if inside else 0j

    def __eq__(self, other):
        return isinstance(other, SparseSeq) and self.dim == other.dim and (
            self.lo == other.lo and np.array_equal(self.values, other.values)
        )

    def __add__(self, other: "SparseSeq") -> "SparseSeq":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        if not (self.values.size and other.values.size):
            return self if self.values.size else other
        lo = tuple(map(min, self.lo, other.lo))
        out = _zeros([max(e, f) - o for e, f, o in zip(_ends(self), _ends(other), lo)])
        for seq in (self, other):
            view = out[_box(map(operator.sub, seq.lo, lo), seq.values.shape)]
            view += seq.values
        return _from_array(lo, out)

    def __neg__(self) -> "SparseSeq":
        return _from_array(self.lo, -self.values)

    def __sub__(self, other: "SparseSeq") -> "SparseSeq":
        return self + (-other)

    def __mul__(self, scalar) -> "SparseSeq":
        if np.ndim(scalar):  # not a scalar: TypeError
            return NotImplemented
        return _from_array(self.lo, scalar * self.values)

    __rmul__ = __mul__

    def __repr__(self):
        return f"SparseSeq(dim={self.dim}, nnz={len(self)})"


def _from_array(lo, values: np.ndarray) -> SparseSeq:
    """Sequence with values[j] at index lo + j."""
    return object.__new__(SparseSeq)._store(lo, values)


def qnorm(a: SparseSeq, p: QParams) -> float:
    """Weighted quasi-norm (sum |a(n)|^q (1+|n|)^(s q))**(1/q); 0 iff a = 0."""
    return qnorm_weighted(a, p.q, p.s)


def qnorm_weighted(a: SparseSeq, q: float, s: float) -> float:
    """Weighted quasi-norm (sum |a(n)|^q (1+|n|)^(s q))**(1/q) for any q > 0
    and any real s, so that Hoelder can pair the weight v_s with v_-s."""
    idx, vals = a._nonzeros()
    return weighted_qnorm(np.abs(vals), weight(idx, s), q)


def pointwise_product(a: SparseSeq, b: SparseSeq) -> SparseSeq:
    """Entrywise product a(n) * b(n)."""
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    lo = tuple(map(max, a.lo, b.lo))
    shape = [max(min(e, f) - o, 0) for e, f, o in zip(_ends(a), _ends(b), lo)]
    product = (a.values[_box(map(operator.sub, lo, a.lo), shape)]
               * b.values[_box(map(operator.sub, lo, b.lo), shape)])
    return _from_array(lo, product)


def _shifted_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Box array of the convolution of two box arrays: one shifted multiply-add
    of the operand with more nonzeros per nonzero of the other (the first
    operand on a tie), in lexicographic order of those nonzeros.  Each v times
    the contiguous bigger operand goes into one reused buffer and is added
    into its box view of the output, so no cell outside the box is touched.
    """
    small, big = (a, b) if np.count_nonzero(a) <= np.count_nonzero(b) else (b, a)
    out = _zeros([m + n - 1 for m, n in zip(small.shape, big.shape)])
    big = np.ascontiguousarray(big)
    product = np.empty(big.shape, np.result_type(small, big))  # the dtype of v * big
    nz = np.nonzero(small)
    for corner, v in zip(zip(*(i.tolist() for i in nz)), small[nz]):
        view = out[_box(corner, big.shape)]
        view += np.multiply(v, big, out=product)
    return out


def _check_int64(lo, shape) -> None:
    """Refuse a box at corner lo (Python ints) whose indices leave int64."""
    if min(lo) < -(2**63) or max(o + n for o, n in zip(lo, shape)) > 2**63:
        raise ValueError(f"sequence index out of range: the box at {lo} leaves int64")


def convolve(a: SparseSeq, b: SparseSeq) -> SparseSeq:
    """Exact discrete convolution (a * b)(n) = sum_k a(k) b(n-k): one shifted
    multiply-add of the operand with more nonzeros per nonzero of the other.
    There is no transform step, so the only rounding is that of complex
    multiply-accumulate."""
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    if not (a.values.size and b.values.size):
        return b if a.values.size else a
    lo = tuple(map(operator.add, a.lo, b.lo))
    _check_int64(lo, [m + n - 1 for m, n in zip(a.values.shape, b.values.shape)])
    return _from_array(lo, _shifted_sum(a.values, b.values))


def neumann_tail_bound(norm_x: float, q: float, degree: int) -> float:
    """Closed-form q-norm bound on the Neumann tail beyond the given degree:
    (sum_{j>degree} ||x||^(j q))**(1/q)."""
    return norm_x ** (degree + 1) / (1.0 - norm_x**q) ** (1.0 / q)


def neumann_inverse(x: SparseSeq, p: QParams, tol: float = NEUMANN_TOL) -> SparseSeq:
    """Truncated Neumann inverse of (delta - x) for ||x|| < 1.

    Returns s_n = delta + x + ... + x^n with the degree n chosen from the
    closed-form geometric tail so that the omitted part of the series has
    quasi-norm at most `tol`.  Consequently (delta - x) * s_n differs from
    delta by at most tol in the same quasi-norm.  The sum fills one box
    spanning 0 and n lo ... n hi, and every power x^j is kept flat in that
    box's row layout, so that it is one contiguous run of the flat box from
    its corner: x^j is multiplied by x through the kernel of `convolve` on
    such runs, and each product and each add touches one run, not a box of
    rows (numpy adds runs several times faster).  Between the rows of a
    power a run holds +0, as no sum from +0 is -0, and x is finite, as its
    quasi-norm is, so those cells add +-0 to cells that are never -0, which
    leaves them as they were: s_n equals the term-by-term sum of sequences
    exactly.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    nx = qnorm(x, p)
    if nx >= 1.0:
        raise ContractionError(
            f"quasi-norm {nx:.6g} >= 1: Neumann series does not converge"
        )
    if nx == 0.0:
        return SparseSeq.delta(x.dim)
    # smallest n with ||x||^(n+1) (1-||x||^q)^(-1/q) <= tol, at least 1
    target = math.log(tol) + math.log1p(-(nx**p.q)) / p.q
    n = max(1, math.ceil(target / math.log(nx)) - 1)
    # x^j lies in the box j lo ... j hi, so all powers fit from min(0, n lo) to max(0, n hi)
    lo = tuple(min(0, n * o) for o in x.lo)
    shape = [max(0, n * (e - 1)) + 1 - o for e, o in zip(_ends(x), lo)]
    _check_int64(lo, shape)
    total = _zeros(shape)
    total[tuple(-o for o in lo)] = 1.0
    rows = _zeros(x.values.shape[:1] + total.shape[1:])  # x in the rows of the box
    rows[_box([0] * x.dim, x.values.shape)] = x.values
    x_run = rows.reshape(-1)[:1 + np.ravel_multi_index(np.subtract(x.values.shape, 1), total.shape)]
    flat, power = total.reshape(-1), x_run
    for j in range(1, n + 1):
        if j > 1:
            power = _shifted_sum(power, x_run)
        start = np.ravel_multi_index([j * o - c for o, c in zip(x.lo, lo)], total.shape)
        view = flat[start:start + power.size]
        view += power
    return _from_array(lo, total)


def fourier_series_eval(a: SparseSeq, xi) -> complex:
    """Fourier series (F a)(xi) = sum_n a(n) exp(2 pi i n . xi), a finite sum."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if xi.shape != (a.dim,):
        raise ValueError(f"xi must have {a.dim} coordinates")
    idx, vals = a._nonzeros()
    return complex(np.sum(vals * np.exp(2j * np.pi * (idx @ xi))))


@dataclass(frozen=True)
class FourierInverse:
    """Inverse sequence together with its numerical witnesses.

    residual is the l1 norm of a * seq - delta; decay_rate is the fitted
    exponential rate r in |seq(n)| ~ C exp(-r |n|) over the retained support
    (inf when the support is too small to fit).
    """

    seq: SparseSeq
    residual: float
    decay_rate: float


def invert_by_fourier(
    a: SparseSeq, grid: int | None = None, decay_cutoff: float = DECAY_CUTOFF
) -> FourierInverse:
    """Invert the convolution operator of `a` through its Fourier series.

    Samples F a on the uniform grid (j/grid)^m, by default grid = 4096 for
    m = 1 and 256 otherwise, raised to the next power of two above the
    widest axis of the support box; a given grid must be wider than that box
    on every axis (else ValueError: the far entries would alias).  Requires
    the minimum modulus to exceed FOURIER_FLOOR (otherwise the operator is
    declared non-invertible), and returns the inverse discrete transform of
    1/(F a) truncated at magnitude `decay_cutoff`, with the l1 residual of
    a * b - delta and the fitted decay rate of |b(n)|.

    An inverse is accepted when its residual is at most INVERSE_RESIDUAL_TOL
    and it leaves the guard band |n_i| >= grid/4 empty: an entry beyond the
    seam at +-grid/2 wraps, and can pass the residual gate in the wrong
    place.  Otherwise ToleranceError is raised, except on a default grid,
    which doubles while it holds at most MAX_CELLS cells: when only the band
    is reached, or while a failing residual keeps falling (when it stops,
    decay_cutoff is too coarse).
    """
    if decay_cutoff <= 0:
        raise ValueError("decay_cutoff must be positive")
    m = a.dim
    width = max(a.values.shape)
    fitted = grid is None
    if fitted:
        grid = max(4096 if m == 1 else 256, 2 ** width.bit_length())
    if grid < 4:
        raise ValueError("grid must be at least 4")
    if grid <= width:
        raise ValueError(
            f"grid {grid} is not wider than the support box {a.values.shape}: "
            "the far entries would alias"
        )
    previous = math.inf
    while True:
        b, residual = _invert_on_grid(a, grid, decay_cutoff)
        passed = residual <= INVERSE_RESIDUAL_TOL
        in_band = bool(np.any(4 * np.abs(b._nonzeros()[0]) >= grid))
        if passed and not in_band:
            return FourierInverse(seq=b, residual=residual, decay_rate=_fit_decay_rate(b))
        falling = residual < previous * (1.0 - BOUND_SLACK)
        if not (fitted and (passed or falling) and (2 * grid) ** m <= MAX_CELLS):
            if passed:  # the entries beyond the seam at +-grid/2 would wrap
                raise ToleranceError(
                    f"the inverse reaches the guard band |n_i| >= {grid / 4:g} "
                    f"on the {grid}^{m} grid"
                )
            raise ToleranceError(
                f"l1 residual {residual:.3e} of a * b - delta exceeds "
                f"{INVERSE_RESIDUAL_TOL:.0e} on the {grid}^{m} grid "
                "(the inverse aliases, or decay_cutoff is too coarse)"
            )
        grid, previous = 2 * grid, residual


def _invert_on_grid(a: SparseSeq, grid: int, decay_cutoff: float) -> tuple:
    """The truncated inverse of `a` on one grid and its l1 residual."""
    m = a.dim
    padded = _zeros((grid,) * m)
    idx, vals = a._nonzeros()
    np.add.at(padded, tuple(np.mod(idx, grid).T), vals)
    with np.errstate(over="ignore", invalid="ignore"):
        samples = np.fft.ifftn(padded) * grid**m  # F a on the grid
    if not np.all(np.isfinite(samples)):
        raise ValueError("the Fourier series of the sequence overflows")
    low = float(np.abs(samples).min())
    if low <= FOURIER_FLOOR:
        raise VanishingFourierError(
            f"min |F a| = {low:.3e} on the {grid}^{m} grid (floor {FOURIER_FLOOR:.1e}): "
            "convolution operator is not invertible"
        )
    coeff = np.fft.fftn(1.0 / samples) / grid**m
    coeff = np.where(np.abs(coeff) > decay_cutoff, coeff, 0)
    # fftshift puts index n at n + grid // 2, so the corner is -(grid // 2)
    b = _from_array((-(grid // 2),) * m, np.fft.fftshift(coeff))
    return b, qnorm(convolve(a, b) - SparseSeq.delta(m), QParams(1.0, 0.0))


def _fit_decay_rate(b: SparseSeq) -> float:
    idx, vals = b._nonzeros()
    radii = np.sqrt(np.square(idx).sum(axis=1))
    if len(radii) < 2 or radii.max() == radii.min():
        return math.inf
    return float(-np.polyfit(radii, np.log(np.abs(vals)), 1)[0])
