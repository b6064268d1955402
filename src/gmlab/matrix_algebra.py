"""Matrices with weighted lq off-diagonal decay over the lattice Z_N x Z_N.

A matrix A indexed by pairs of lattice points, rows and columns in numpy's
C order (A.reshape(N, N, N, N)[k, l, k', l'] is the entry at row (k, l) and
column (k', l')), is summarized by its diagonal envelope

    d_A(mu) = sup_lambda |A[lambda, lambda - mu]|,

the supremum of entry moduli along the mu-th diagonal (index arithmetic
mod N per coordinate, mu read on centered representatives).  The envelope
of `fio` along the graph of a lattice map chi, max_z |A[chi z + mu, z]|, is
d_A' bit for bit, A' the matrix whose column z' is column chi^-1 z' of A,
so no map enters here.  The envelope quasi-norm ||d_A||_{l^q_{v_s}} is
submultiplicative under matrix products because d_{AB} <= d_A * d_B
pointwise (cyclic convolution), so these matrices form a solid
quasi-algebra that acts boundedly on l2 and on the weighted sequences.
"""

from __future__ import annotations

import numpy as np

from ._lattice import QParams, lattice_qnorm, matrix_side, side


_SLAB_BYTES = 2**20  # bytes of the entries of A gathered for one slab of mu_k rows


def diagonal_envelope(A: np.ndarray) -> np.ndarray:
    """Envelope d_A(mu) = max_z |A[z + mu, z]| = sup_lambda |A[lambda, lambda - mu]|
    as an (N, N) field indexed by mu mod N per coordinate (read mu on
    centered representatives).

    The entries at [z + mu, z] are gathered into [mu, z] one slab of
    mu_k rows at a time, as many as fit _SLAB_BYTES (at least one), through
    their flat C-order index in A: the sum of its mu_k part and its
    (mu_l, z) part, tables of at most N^3 from np.ravel_multi_index.  The
    moduli of a slab reduce to its rows of d by the maximum over z, so no
    N^4 array is formed beside A (a copy only when A is not contiguous)."""
    N = matrix_side(A)
    k, l = z = np.arange(N)[:, None], np.arange(N)  # the (N, N) grid of columns
    A = np.ravel(A)
    mu = np.arange(N)
    shape = (N,) * 4
    high = np.ravel_multi_index(((k + mu[:, None, None, None]) % N, 0, 0, 0), shape)  # [mu_k, ., z]
    low = np.ravel_multi_index((0, (l + mu[:, None, None]) % N, *z), shape)  # [mu_l, z]
    step = max(1, _SLAB_BYTES // (A.itemsize * N**3))  # mu_k rows per slab
    d = np.empty((N, N), A.real.dtype)
    for i in range(0, N, step):
        np.abs(np.take(A, high[i:i + step] + low)).max(axis=(2, 3), out=d[i:i + step])
    return d


def cb_norm(A: np.ndarray, p: QParams) -> float:
    """Decay quasi-norm ||d_A||_{l^q_{v_s}} with the weight on centered mu."""
    return lattice_qnorm(diagonal_envelope(A), p)


def convolution_matrix(field: np.ndarray) -> np.ndarray:
    """Matrix of cyclic convolution by an (N, N) field on the lattice.

    A[lambda, lambda'] = field[(lambda - lambda') mod N]; its envelope is
    exactly |field|.
    """
    field = np.asarray(field)
    N = side(field, "field")
    d = np.subtract.outer(np.arange(N), np.arange(N)) % N  # (k - k') mod N
    return field[d[:, None, :, None], d[:, None, :]].reshape(N * N, N * N)


def envelope_convolve(d1: np.ndarray, d2: np.ndarray) -> np.ndarray:
    """Exact cyclic convolution of two (N, N) envelopes, (d1 * d2)(mu) =
    sum_nu d1(nu) d2(mu - nu): the convolution matrix of d2 applied to d1."""
    d1 = np.asarray(d1, dtype=float)
    d2 = np.asarray(d2, dtype=float)
    N = side(d1, "envelope")
    if side(d2, "envelope") != N:
        raise ValueError("envelope moduli differ")
    return (convolution_matrix(d2) @ d1.ravel()).reshape(N, N)
