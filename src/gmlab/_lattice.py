"""Index arithmetic on the cyclic lattice Z_N and Z_N x Z_N, the one weight
(1 + |z|)**s and the one weighted lq quasi-norm."""

import math

import numpy as np


def centered(idx, N):
    """Centered representative of an index mod N, elementwise.

    For odd N the result lies in [-(N-1)/2, (N-1)/2] and is the unique
    representative of minimal absolute value.
    """
    idx = np.asarray(idx)
    return ((idx + N // 2) % N) - N // 2


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
    folded from 0, bit for bit np.hypot.reduce(points, axis=-1, initial=0.0)
    but faster on a short axis (sqrt(sum z_i^2) differs in the last bit)."""
    points = np.asarray(points, dtype=float)
    r = 0.0
    for i in range(points.shape[-1]):
        r = np.hypot(r, points[..., i])
    return r


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
        norm = float(np.sum(values**q * weight**q) ** (1.0 / q))
    if not math.isfinite(norm):
        raise ValueError("weighted quasi-norm is not finite (NaN or overflow)")
    return norm


def lattice_qnorm(values, q, s):
    """Weighted quasi-norm (sum values**q * (1+|mu|)**(s*q))**(1/q) of a
    nonnegative (N, N) field on the centered representatives mu of Z_N^2."""
    values = np.asarray(values, dtype=float)
    return weighted_qnorm(values, weight(centered_points(values.shape[0]), s), q)
