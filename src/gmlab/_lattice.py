"""Index arithmetic on the cyclic lattice Z_N and Z_N x Z_N, and the one
weighted lq quasi-norm."""

import math

import numpy as np


def centered(idx, N):
    """Centered representative of an index mod N, elementwise.

    For odd N the result lies in [-(N-1)/2, (N-1)/2] and is the unique
    representative of minimal absolute value.
    """
    idx = np.asarray(idx)
    return ((idx + N // 2) % N) - N // 2


def centered_radius(N):
    """(N, N) array of Euclidean norms of the centered lattice points."""
    c = centered(np.arange(N), N).astype(float)
    return np.hypot(c[:, None], c[None, :])


def radial_weight(axis, s):
    """(n, n) array of (1 + |(a, b)|)**s over the points of axis x axis; a
    weight beyond float range is infinite (weighted_qnorm rejects it)."""
    a = np.asarray(axis, dtype=float)
    with np.errstate(over="ignore"):
        return (1.0 + np.hypot(a[:, None], a[None, :])) ** s


def lattice_weight(N, s):
    """(N, N) array of (1 + |mu|)**s on centered representatives."""
    return radial_weight(centered(np.arange(N), N), s)


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
    return weighted_qnorm(values, lattice_weight(values.shape[0], s), q)
