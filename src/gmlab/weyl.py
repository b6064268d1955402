"""Discrete Wigner distribution, Weyl quantization, and Gabor matrices on Z_N.

Conventions (N odd, h = (N+1)/2 the inverse of 2 mod N):

    W(f, g)(x, xi) = sum_t f(x + h t) conj(g(x - h t)) exp(-2 pi i xi t / N)

    Op(sigma) has kernel K(x, y) = (1/N) sum_xi sigma(h (x+y), xi)
                                   exp(2 pi i xi (x - y) / N)

These two are dual:  <Op(sigma) f, g> = (1/N) sum sigma . conj(W(g, f))
holds exactly, and quantization is a linear bijection between N x N
symbols and N x N operator matrices, inverted by `weyl_dequantize`.
"""

from __future__ import annotations

import numpy as np

from ._lattice import QParams, half_inverse, lattice_qnorm, require_cells, side
from .phase_space import GaborSystem, gaussian_window, shift_bank


def wigner(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Cross-Wigner W(f, g), an (N, N) field indexed (x, xi): the symbol of f g^H."""
    f = np.asarray(f, dtype=complex)
    g = np.asarray(g, dtype=complex)
    if side(f, "signal", 1) != side(g, "signal", 1):
        raise ValueError("signal moduli differ")
    return weyl_dequantize(np.outer(f, np.conj(g)))


def _weyl_index(N: int):
    """(h(x+y), x-y) mod N: where T[x, y] sits in the row-wise inverse FFT of its symbol."""
    h = half_inverse(N)
    x, y = np.ogrid[:N, :N]
    return (h * (x + y)) % N, (x - y) % N


def weyl_quantize(sigma: np.ndarray) -> np.ndarray:
    """Operator matrix of the symbol sigma (N x N field indexed (x, xi))."""
    sigma = np.asarray(sigma, dtype=complex)
    N = side(sigma, "symbol")
    # C[a, d] = (1/N) sum_xi sigma[a, xi] e^{2 pi i xi d / N}
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is rejected below
        C = np.fft.ifft(sigma, axis=1)
    if not np.all(np.isfinite(C)):
        raise ValueError("symbol quantizes to a non-finite operator (overflow)")
    return C[_weyl_index(N)]


def weyl_dequantize(T: np.ndarray) -> np.ndarray:
    """Exact inverse of `weyl_quantize`; recovers the symbol of a matrix."""
    T = np.asarray(T, dtype=complex)
    N = side(T, "operator matrix")
    G = np.empty_like(T)
    G[_weyl_index(N)] = T
    return np.fft.fft(G, axis=1)


def duality_pairing(sigma: np.ndarray, f: np.ndarray, g: np.ndarray) -> complex:
    """(1/N) sum sigma . conj(W(g, f)); equals <Op(sigma) f, g> exactly."""
    N = side(sigma, "symbol")
    return complex(np.sum(sigma * np.conj(wigner(g, f))) / N)


def gabor_matrix(T: np.ndarray, sys: GaborSystem) -> np.ndarray:
    """Matrix of T in the Gabor coordinates of the Parseval window.

    Entry (mu, lambda) = <T pi(lambda) gamma, pi(mu) gamma> with row/column
    index (k, l) flattened as k*N + l.  For a Parseval system this matrix
    intertwines T with the lattice STFT: V(T f) = M V(f).  It holds N^4
    entries, so N^4 > MAX_CELLS raises ValueError before anything is built.
    It is P^H (T P) with P = shift_bank(parseval_window): the definition, and
    the reference that `fio.envelope` is tested against.
    """
    N = sys.N
    require_cells(N**4, f"the Gabor matrix at N = {N} (N^4 = {N**4})")
    T = np.asarray(T, dtype=complex)
    if side(T, "operator matrix") != N:
        raise ValueError("operator matrix and Gabor system moduli differ")
    P = shift_bank(sys.parseval_window)
    TP = T @ P
    return np.conj(P, out=P).T @ TP  # P^H in place: P has no other use, so no N^3 copy


def modulation_norm(sigma: np.ndarray, p: QParams, window: np.ndarray | None = None) -> float:
    """Finite-model mixed modulation quasi-norm of a symbol.

    Computes || zeta -> sup_z |V_Phi sigma(z, zeta)| ||_{l^q_{v_s}} where
    V_Phi sigma is the STFT of sigma over the group Z_N x Z_N and the weight
    (1 + |zeta|)^s is evaluated on centered representatives of zeta.  The
    default Phi is the tensor square of the periodized Gaussian window.
    """
    sigma = np.asarray(sigma, dtype=complex)
    N = side(sigma, "symbol")
    if window is None:
        g = gaussian_window(N)
        window = np.outer(g, g)
    window = np.asarray(window, dtype=complex)
    if side(window, "window") != N:
        raise ValueError("window must match the symbol shape")
    if not np.any(window):
        raise ValueError("window must be nonzero")

    t = np.arange(N)
    sup_field = np.zeros((N, N))
    for z1 in range(N):
        # shifted[z2] = window rolled by (z1, z2)
        shifted = np.roll(window, z1, axis=0)[t[:, None], (t - t[:, None, None]) % N]
        V = np.fft.fft2(sigma * np.conj(shifted))
        np.maximum(sup_field, np.abs(V).max(axis=0), out=sup_field)
    return lattice_qnorm(sup_field, p)
