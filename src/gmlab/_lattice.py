"""Index arithmetic on the cyclic lattice Z_N and Z_N x Z_N."""

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
    """(n, n) array of (1 + |(a, b)|)**s over the points of axis x axis."""
    a = np.asarray(axis, dtype=float)
    return (1.0 + np.hypot(a[:, None], a[None, :])) ** s


def lattice_weight(N, s):
    """(N, N) array of (1 + |mu|)**s on centered representatives."""
    return radial_weight(centered(np.arange(N), N), s)


def lattice_qnorm(values, q, s):
    """Weighted lq quasi-norm of a nonnegative (N, N) field indexed mod N.

    Computes (sum values**q * (1+|mu|)**(s*q))**(1/q) with mu running over
    centered representatives of the N x N cyclic lattice.
    """
    values = np.asarray(values, dtype=float)
    N = values.shape[0]
    w = lattice_weight(N, s)
    total = np.sum(values**q * w**q)
    return float(total ** (1.0 / q))
