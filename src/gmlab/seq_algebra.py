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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractionError, VanishingFourierError


@dataclass(frozen=True)
class QParams:
    """Exponent pair (q, s): summability exponent q in (0, 1] and weight order s >= 0."""

    q: float
    s: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.q <= 1.0:
            raise ValueError(f"q must lie in (0, 1], got {self.q}")
        if self.s < 0.0:
            raise ValueError(f"weight order s must be >= 0, got {self.s}")


def weight_eval(lam, s: float) -> float:
    """Polynomial weight (1 + |lam|)**s at the integer index lam.

    |.| is the Euclidean norm; lam may be an int (dimension 1) or a tuple.
    Negative s is rejected: only submultiplicative weights are supported.
    """
    if s < 0.0:
        raise ValueError(f"weight order s must be >= 0, got {s}")
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    return float((1.0 + math.sqrt(float(np.dot(lam, lam)))) ** s)


def _key(index, dim: int) -> tuple:
    if np.isscalar(index) or isinstance(index, (int, np.integer)):
        index = (index,)
    idx = tuple(int(v) for v in index)
    if len(idx) != dim:
        raise ValueError(f"index {idx} does not match dimension {dim}")
    return idx


class SparseSeq:
    """Finitely supported complex sequence on Z^m, stored as an index -> value map.

    Exact zeros are dropped on construction, so two sequences are equal iff
    their stored maps are.  Values are plain Python complex numbers and the
    object behaves as an immutable vector: +, -, and scalar * return new
    sequences.
    """

    __slots__ = ("dim", "entries")

    def __init__(self, dim: int, entries=None):
        if dim < 1:
            raise ValueError(f"dimension must be >= 1, got {dim}")
        data: dict[tuple, complex] = {}
        if entries:
            items = entries.items() if isinstance(entries, dict) else entries
            for index, value in items:
                k = _key(index, dim)
                v = data.get(k, 0j) + complex(value)
                if v == 0:
                    data.pop(k, None)
                else:
                    data[k] = v
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "entries", data)

    def __setattr__(self, name, value):
        raise AttributeError("SparseSeq is immutable")

    @classmethod
    def delta(cls, dim: int = 1) -> "SparseSeq":
        """Unit element: value 1 at the origin."""
        return cls(dim, {(0,) * dim: 1.0})

    @classmethod
    def unit(cls, index, value=1.0) -> "SparseSeq":
        """Single mass `value` at `index` (an int or a tuple of ints)."""
        if np.isscalar(index) or isinstance(index, (int, np.integer)):
            index = (int(index),)
        return cls(len(index), {tuple(int(v) for v in index): value})

    def support(self):
        return set(self.entries)

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, index) -> complex:
        return self.entries.get(_key(index, self.dim), 0j)

    def __eq__(self, other):
        return (
            isinstance(other, SparseSeq)
            and self.dim == other.dim
            and self.entries == other.entries
        )

    def __add__(self, other: "SparseSeq") -> "SparseSeq":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        out = dict(self.entries)
        for k, v in other.entries.items():
            out[k] = out.get(k, 0j) + v
        return SparseSeq(self.dim, out)

    def __neg__(self) -> "SparseSeq":
        return SparseSeq(self.dim, {k: -v for k, v in self.entries.items()})

    def __sub__(self, other: "SparseSeq") -> "SparseSeq":
        return self + (-other)

    def __mul__(self, scalar) -> "SparseSeq":
        return SparseSeq(self.dim, {k: scalar * v for k, v in self.entries.items()})

    __rmul__ = __mul__

    def __repr__(self):
        return f"SparseSeq(dim={self.dim}, nnz={len(self.entries)})"


def qnorm(a: SparseSeq, p: QParams) -> float:
    """Weighted quasi-norm (sum |a(n)|^q (1+|n|)^(s q))**(1/q); 0 iff a = 0."""
    if not a.entries:
        return 0.0
    total = sum(
        abs(v) ** p.q * weight_eval(k, p.s) ** p.q for k, v in a.entries.items()
    )
    return float(total ** (1.0 / p.q))


def qnorm_weighted(a: SparseSeq, q: float, weight) -> float:
    """Quasi-norm with an arbitrary positive weight function on indices.

    Used for checks that need reciprocal weights, which `weight_eval`
    deliberately rejects.
    """
    if not a.entries:
        return 0.0
    total = sum(abs(v) ** q * weight(k) ** q for k, v in a.entries.items())
    return float(total ** (1.0 / q))


def pointwise_product(a: SparseSeq, b: SparseSeq) -> SparseSeq:
    """Entrywise product a(n) * b(n)."""
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    small, big = (a, b) if len(a) <= len(b) else (b, a)
    return SparseSeq(
        a.dim,
        {k: v * big.entries[k] for k, v in small.entries.items() if k in big.entries},
    )


def convolve(a: SparseSeq, b: SparseSeq) -> SparseSeq:
    """Exact discrete convolution (a * b)(n) = sum_k a(k) b(n-k).

    Computed by the double sum over both supports, with no transform step,
    so the only rounding is that of complex multiply-accumulate.
    """
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    out: dict[tuple, complex] = {}
    for ka, va in a.entries.items():
        for kb, vb in b.entries.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            out[k] = out.get(k, 0j) + va * vb
    return SparseSeq(a.dim, out)


def neumann_tail_bound(norm_x: float, q: float, degree: int) -> float:
    """Closed-form q-norm bound on the Neumann tail beyond the given degree:
    (sum_{j>degree} ||x||^(j q))**(1/q)."""
    return norm_x ** (degree + 1) / (1.0 - norm_x**q) ** (1.0 / q)


def neumann_inverse(x: SparseSeq, p: QParams, tol: float = 1e-10) -> SparseSeq:
    """Truncated Neumann inverse of (delta - x) for ||x|| < 1.

    Returns s_n = delta + x + ... + x^n with the degree n chosen from the
    closed-form geometric tail so that the omitted part of the series has
    quasi-norm at most `tol`.  Consequently (delta - x) * s_n differs from
    delta by at most tol in the same quasi-norm.
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
    result = SparseSeq.delta(x.dim)
    power = x
    for _ in range(n):
        result = result + power
        power = convolve(power, x)
    return result


def fourier_series_eval(a: SparseSeq, xi) -> complex:
    """Fourier series (F a)(xi) = sum_n a(n) exp(2 pi i n . xi), a finite sum."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if xi.shape != (a.dim,):
        raise ValueError(f"xi must have {a.dim} coordinates")
    total = 0j
    for n, v in a.entries.items():
        total += v * complex(np.exp(2j * np.pi * float(np.dot(n, xi))))
    return total


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
    a: SparseSeq,
    grid: int | None = None,
    decay_cutoff: float = 1e-12,
    floor: float = 1e-8,
) -> FourierInverse:
    """Invert the convolution operator of `a` through its Fourier series.

    Samples F a on the uniform grid (j/grid)^m, by default grid = 4096 for
    m = 1 and 256 otherwise; requires the minimum modulus to exceed `floor`
    (otherwise the operator is declared non-invertible), and returns the
    inverse discrete transform of 1/(F a) truncated at magnitude
    `decay_cutoff`, with the l1 residual of a * b - delta and the fitted
    decay rate of |b(n)|.
    """
    if decay_cutoff <= 0:
        raise ValueError("decay_cutoff must be positive")
    m = a.dim
    if grid is None:
        grid = 4096 if m == 1 else 256
    if grid < 4:
        raise ValueError("grid must be at least 4")
    if grid**m > 2**24:
        raise ValueError(f"grid {grid}^{m} is too large; reduce the resolution")

    padded = np.zeros((grid,) * m, dtype=complex)
    for n, v in a.entries.items():
        padded[tuple(np.mod(n, grid))] += v
    samples = np.fft.ifftn(padded) * grid**m  # F a on the grid
    magnitude = np.abs(samples)
    low = float(magnitude.min())
    if low <= floor:
        raise VanishingFourierError(
            f"min |F a| = {low:.3e} on the {grid}^{m} grid (floor {floor:.1e}): "
            "convolution operator is not invertible"
        )
    coeff = np.fft.fftn(1.0 / samples) / grid**m
    keep = np.argwhere(np.abs(coeff) > decay_cutoff)
    entries = {}
    half = grid // 2
    for idx in keep:
        n = tuple(int(((v + half) % grid) - half) for v in idx)
        entries[n] = complex(coeff[tuple(idx)])
    b = SparseSeq(m, entries)

    ell1 = QParams(1.0, 0.0)
    residual = qnorm(convolve(a, b) - SparseSeq.delta(m), ell1)
    decay_rate = _fit_decay_rate(b)
    return FourierInverse(seq=b, residual=residual, decay_rate=decay_rate)


def _fit_decay_rate(b: SparseSeq) -> float:
    radii, logs = [], []
    for n, v in b.entries.items():
        mag = abs(v)
        if mag > 0.0:
            radii.append(math.sqrt(sum(c * c for c in n)))
            logs.append(math.log(mag))
    if len(radii) < 2 or max(radii) == min(radii):
        return math.inf
    slope = np.polyfit(np.asarray(radii), np.asarray(logs), 1)[0]
    return float(-slope)
