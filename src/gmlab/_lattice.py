"""The conventions of the cyclic lattice Z_N and Z_N x Z_N, decided once: the
exponent pair (q, s) of every weighted lq class (QParams); the modulus, odd and
at least 3 (require_modulus); the side N of every array over Z_N (side,
matrix_side); the cell budget (MAX_CELLS, require_cells); h = (N+1)/2 (half_inverse);
centered representatives mod N; the root of unity omega**n, read from the table
of the N roots; the weight (1 + |z|)**s and the weighted lq quasi-norm."""

import math
from dataclasses import dataclass

import numpy as np

# Most cells a sequence box, a Fourier grid, a field grid or an operator array
# may hold (256 MiB of complex).
MAX_CELLS = 2**24


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


def require_cells(count: int, what: str) -> None:
    """ValueError naming `what` when `count` cells exceed MAX_CELLS; called
    before the array is allocated."""
    if count > MAX_CELLS:
        raise ValueError(f"{what} holds more than {MAX_CELLS} cells")


def require_modulus(N: int) -> int:
    """N, the modulus of Z_N, if it is odd and at least 3; else ValueError."""
    if N < 3 or N % 2 == 0:
        raise ValueError(f"modulus must be odd and at least 3, got {N}")
    return N


def side(a, what: str, ndim: int = 2) -> int:
    """N of an array whose ndim axes all have length N > 0: a signal (ndim 1),
    a symbol or an operator (ndim 2); else ValueError naming `what` and its shape."""
    shape = np.shape(a)
    if len(shape) != ndim or len(set(shape)) != 1:
        raise ValueError(f"{what} of shape {shape} is not {('a vector', 'square')[ndim - 1]}")
    if shape[0] == 0:
        raise ValueError(f"{what} of shape {shape} is empty")
    return shape[0]


def matrix_side(A) -> int:
    """N of an (N^2, N^2) matrix indexed by pairs of lattice points (k*N + l)."""
    n = side(A, "matrix")
    N = math.isqrt(n)
    if N * N != n:
        raise ValueError("matrix size must be a perfect square (lattice-indexed)")
    return N


def half_inverse(N: int) -> int:
    """(N+1)/2, the multiplicative inverse of 2 mod N (require_modulus)."""
    return (require_modulus(N) + 1) // 2


def centered(idx, N):
    """Centered representative of an index mod N, elementwise.

    For odd N the result lies in [-(N-1)/2, (N-1)/2] and is the unique
    representative of minimal absolute value.  idx is reduced mod N before
    the shift, so no index near the int64 limit wraps.
    """
    return ((np.asarray(idx) % N + N // 2) % N) - N // 2


def root_of_unity(n, N) -> np.ndarray:
    """omega**n with omega = exp(2 pi i / N), read from the table of the N
    roots at n mod N, so the phase is exact to rounding for any integer n."""
    return np.exp(2j * np.pi * np.arange(N) / N)[np.mod(n, N)]


def square_points(axis) -> np.ndarray:
    """(n, n, 2) array of the points (a, b) of axis x axis."""
    a = np.asarray(axis)
    points = np.empty((a.size, a.size, 2), a.dtype)
    points[..., 0], points[..., 1] = a[:, None], a
    return points


def centered_points(N) -> np.ndarray:
    """(N, N, 2) array of the centered lattice points of Z_N^2."""
    return square_points(centered(np.arange(N), N))


def radius(points) -> np.ndarray:
    """Euclidean norm over the last axis of an (..., m) point array: hypot
    folded from 0 (sqrt(sum z_i^2) differs in the last bit)."""
    return np.hypot.reduce(points, axis=-1, initial=0.0)


def weight(points, s) -> np.ndarray:
    """Weight (1 + |z|)**s, for any real s, at each point z of an (..., m)
    point array; a weight beyond float range is infinite (weighted_qnorm
    rejects it)."""
    with np.errstate(over="ignore"):
        return (1.0 + radius(points)) ** s


def centered_radius(N):
    """(N, N) array of Euclidean norms of the centered lattice points."""
    return radius(centered_points(N))


def weighted_qnorm(values, weight, q):
    """(sum values**q * weight**q)**(1/q); ValueError, with no overflow
    warning, when it is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        norm = float((values**q * weight**q).sum() ** (1.0 / q))
    if not math.isfinite(norm):
        raise ValueError("weighted quasi-norm is not finite (NaN or overflow)")
    return norm


def lattice_qnorm(values, q, s):
    """Weighted quasi-norm (sum values**q * (1+|mu|)**(s*q))**(1/q) of a
    nonnegative (N, N) field on the centered representatives mu of Z_N^2."""
    values = np.asarray(values, dtype=float)
    return weighted_qnorm(values, weight(centered_points(side(values, "field")), s), q)
