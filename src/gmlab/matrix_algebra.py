"""Matrices with weighted lq off-diagonal decay over the lattice Z_N x Z_N.

A matrix A indexed by pairs of lattice points (flattened k*N + l) is
summarized by its diagonal envelope

    d_A(mu) = sup_lambda |A[lambda, lambda - mu]|,

the supremum of entry moduli along the mu-th diagonal (index arithmetic
mod N per coordinate, mu read on centered representatives); taken along the
graph of a lattice map chi it is the envelope of `fio`.  The envelope
quasi-norm ||d_A||_{l^q_{v_s}} is submultiplicative under matrix products
because d_{AB} <= d_A * d_B pointwise (cyclic convolution), so these
matrices form a solid quasi-algebra that acts boundedly on l2 and on the
weighted sequence spaces.
"""

from __future__ import annotations

import math

import numpy as np

from ._lattice import lattice_qnorm
from .errors import BOUND_SLACK, ToleranceError
from .metaplectic import symp_apply, symp_inverse
from .seq_algebra import QParams


def _lattice_side(A: np.ndarray) -> int:
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    N = math.isqrt(A.shape[0])
    if N * N != A.shape[0]:
        raise ValueError("matrix size must be a perfect square (lattice-indexed)")
    return N


def diagonal_envelope(A: np.ndarray, chi=None) -> np.ndarray:
    """Envelope d(mu) = max_z |A[chi z + mu, z]| as an (N, N) field indexed by
    mu mod N per coordinate (read mu on centered representatives); chi=None
    is the identity, d_A(mu) = sup_lambda |A[lambda, lambda - mu]|.  chi must
    have determinant 1 mod N.

    A is read one (N, N^2) row block A[rk*N:(rk+1)*N] at a time.  Row
    (rk, mu_l + j) meets the column z = chi^-1 (c, j) at mu = (rk - c, mu_l)
    for every rk, so one flat index into a block,
    [j, mu_l, c] = ((mu_l + j) mod N) N^2 + flat(chi^-1 (c, j)), serves every
    block: e[mu_l, c] = max_j |block|[index] is d at mu = (rk - c, mu_l)."""
    N = _lattice_side(A)
    A = np.asarray(A)
    chi_inv = symp_inverse(np.eye(2, dtype=int) if chi is None else chi, N)
    t = np.arange(N)
    zk, zl = symp_apply(chi_inv, (t, t[:, None]), N)  # z = chi^-1 (c, j) at [j, c]
    index = ((t[:, None] + t) % N * N * N)[:, :, None] + (zk * N + zl)[:, None, :]
    d = np.zeros((N, N))
    for rk in range(N):
        # every index is in range: "clip" only skips the bounds check
        e = np.take(np.abs(A[rk * N:(rk + 1) * N]), index, mode="clip").max(axis=0)
        np.maximum(d, e[:, (rk - t) % N].T, out=d)
    return d


def cb_norm(A: np.ndarray, p: QParams) -> float:
    """Decay quasi-norm ||d_A||_{l^q_{v_s}} with the weight on centered mu."""
    return lattice_qnorm(diagonal_envelope(A), p.q, p.s)


def convolution_matrix(field: np.ndarray) -> np.ndarray:
    """Matrix of cyclic convolution by an (N, N) field on the lattice.

    A[lambda, lambda'] = field[(lambda - lambda') mod N]; its envelope is
    exactly |field|.
    """
    field = np.asarray(field)
    N = field.shape[0]
    if field.shape != (N, N):
        raise ValueError("field must be square")
    rows = np.arange(N * N)
    rk, rl = rows // N, rows % N
    return field[(rk[:, None] - rk[None, :]) % N, (rl[:, None] - rl[None, :]) % N]


def envelope_convolve(d1: np.ndarray, d2: np.ndarray) -> np.ndarray:
    """Exact cyclic convolution of two (N, N) envelopes (direct double sum)."""
    d1 = np.asarray(d1, dtype=float)
    d2 = np.asarray(d2, dtype=float)
    N = d1.shape[0]
    out = np.zeros((N, N))
    for a in range(N):
        for b in range(N):
            v = d1[a, b]
            if v != 0.0:
                out += v * np.roll(np.roll(d2, a, axis=0), b, axis=1)
    return out


def apply_to_sequence(A: np.ndarray, c: np.ndarray, p: QParams | None = None) -> np.ndarray:
    """Apply a lattice-indexed matrix to a coefficient field.

    `c` may be an (N, N) field or a flat vector of length N^2; the result
    has the same shape.  When `p` is given the action bounds
    ||A c||_Y <= ||A||_{C_B} ||c||_Y for Y in {l2, l^q_{v_s}} are certified
    on this instance and a ToleranceError is raised if either fails beyond
    floating-point slack.
    """
    A = np.asarray(A)
    N = _lattice_side(A)
    c = np.asarray(c, dtype=complex)
    flat = c.reshape(-1)
    if flat.shape[0] != N * N:
        raise ValueError("coefficient field size does not match the matrix")
    out = A @ flat
    if p is not None:
        bound = cb_norm(A, p)
        n2_in = float(np.linalg.norm(flat))
        n2_out = float(np.linalg.norm(out))
        if n2_out > bound * n2_in * (1.0 + BOUND_SLACK) + BOUND_SLACK:
            raise ToleranceError("l2 action bound violated")
        nb_in = lattice_qnorm(np.abs(flat).reshape(N, N), p.q, p.s)
        nb_out = lattice_qnorm(np.abs(out).reshape(N, N), p.q, p.s)
        if nb_out > bound * nb_in * (1.0 + BOUND_SLACK) + BOUND_SLACK:
            raise ToleranceError("weighted lq action bound violated")
    return out.reshape(c.shape)


def pseudo_inverse(A: np.ndarray) -> np.ndarray:
    """Pseudo-inverse through the SVD with small singular values zeroed.

    Singular values at or below 1e-10 times the largest are treated as
    zero.  The result inverts A on its retained range and annihilates the
    orthogonal complement.
    """
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2:
        raise ValueError("matrix expected")
    U, sv, Vh = np.linalg.svd(A, full_matrices=False)
    keep = sv > 1e-10 * (float(sv[0]) if sv.size else 1.0)
    if not np.any(keep):
        return np.zeros_like(A.conj().T)
    return (Vh[keep].conj().T * (1.0 / sv[keep])) @ U[:, keep].conj().T
