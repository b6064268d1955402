"""Finite discrete phase space: signals on Z_N and Gabor analysis on Z_N x Z_N.

A signal is a complex vector of length N (N odd so that 2 is invertible
mod N).  Phase-space points z = (k, l) combine a cyclic translation by k
with a modulation by l, and the full lattice Z_N x Z_N always generates a
tight Gabor frame: the frame operator of any nonzero window g is
N ||g||^2 times the identity, so a single scalar renormalization yields a
Parseval frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._lattice import root_of_unity, side


def tf_shift(z, f: np.ndarray) -> np.ndarray:
    """Time-frequency shift pi(z) f(t) = exp(2 pi i l t / N) f(t - k mod N).

    z = (k, l) with k the translation and l the modulation index.
    """
    f = np.asarray(f)
    N = side(f, "signal", 1)
    k, l = (int(z[0]), int(z[1]) % N)
    return root_of_unity(l * np.arange(N), N) * np.roll(f, k)


def stft(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Short-time Fourier transform V_g f(k, l) = <f, pi(k, l) g>.

    Returns the (N, N) array indexed by (translation k, modulation l).
    Column k is the length-N DFT of t -> f(t) conj(g(t - k)), so the whole
    field costs N fast transforms and matches the brute-force inner
    products to near machine precision.
    """
    f = np.asarray(f, dtype=complex)
    g = np.asarray(g, dtype=complex)
    if side(f, "signal", 1) != side(g, "window", 1):
        raise ValueError("signal and window moduli differ")
    if not np.any(g):
        raise ValueError("window must be nonzero")
    shifted = np.conj(_translates(g).T)  # row k holds conj(g(. - k))
    return np.fft.fft(f[None, :] * shifted, axis=1)


@dataclass(frozen=True)
class GaborSystem:
    """Full-lattice Gabor system generated by `window` on Z_N.

    `normalization` is the scalar that turns the raw window into the
    Parseval one: with gamma = normalization * window the analysis map
    f -> <f, pi(lambda) gamma> is an isometry onto its range.
    """

    window: np.ndarray
    normalization: float

    @property
    def N(self) -> int:
        return side(self.window, "window", 1)

    @property
    def parseval_window(self) -> np.ndarray:
        return self.normalization * self.window


def gabor_system(window: np.ndarray) -> GaborSystem:
    """Build the full-lattice Gabor system of a nonzero window."""
    window = np.asarray(window, dtype=complex)
    N = side(window, "window", 1)
    with np.errstate(over="ignore"):
        energy = float(np.sum(np.abs(window) ** 2))
    if not 0.0 < N * energy < np.inf:
        raise ValueError(f"window must be nonzero and of finite energy, got {energy}")
    return GaborSystem(window=window, normalization=1.0 / np.sqrt(N * energy))


def gaussian_window(N: int, width: float = 1.0) -> np.ndarray:
    """Periodized Gaussian sum_j exp(-pi (t - j N)^2 width / N), scaled so
    that N ||g||^2 = 1 (the Parseval normalization for the full lattice)."""
    t = np.arange(N, dtype=float)
    g = np.zeros(N)
    with np.errstate(over="ignore"):  # a huge width: exp(-inf) = 0
        for j in range(-8, 9):
            g += np.exp(-np.pi * (t - j * N) ** 2 * width / N)
    g /= np.sqrt(N * np.sum(g**2))
    return g.astype(complex)


def _translates(g: np.ndarray) -> np.ndarray:
    """The (N, N) translate table of g: column k is g(. - k)."""
    g = np.asarray(g, dtype=complex)
    t = np.arange(side(g, "window", 1))
    return g[(t[:, None] - t[None, :]) % t.size]


def _shift_tables(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (N, N) translates of g and phases, column l the modulation l:
    pi(k, l) g = translates[:, k] * phases[:, l], in this operand order,
    which fixes the rounding of every entry."""
    translates = _translates(g)
    t = np.arange(translates.shape[0])
    return translates, root_of_unity(np.outer(t, t), t.size)


def shift_bank(g: np.ndarray) -> np.ndarray:
    """Synthesis matrix of all time-frequency shifts of g.

    Returns the (N, N^2) complex matrix whose column k*N + l is pi(k, l) g.
    """
    translates, phases = _shift_tables(g)
    N = phases.shape[0]
    # columns ordered (k, l) row-major
    return (translates[:, :, None] * phases[:, None, :]).reshape(N, N * N)


def frame_operator(sys: GaborSystem) -> np.ndarray:
    """Frame operator S = sum_lambda <., pi(lambda) g> pi(lambda) g of the raw window."""
    P = shift_bank(sys.window)
    S = P @ P.conj().T
    return 0.5 * (S + S.conj().T)


def frame_bounds(sys: GaborSystem) -> tuple[float, float]:
    """Extreme eigenvalues (A, B) of the frame operator.

    For the full lattice both equal N ||g||^2, so the frame is tight for
    every nonzero window.
    """
    eig = np.linalg.eigvalsh(frame_operator(sys))
    return float(eig[0]), float(eig[-1])


def synthesize(coeffs: np.ndarray, sys: GaborSystem) -> np.ndarray:
    """Reconstruct sum_lambda c(lambda) pi(lambda) gamma with the Parseval window.

    For coeffs = stft(f, gamma) this returns f (Parseval expansion).
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    N = sys.N
    if side(coeffs, "coefficient field") != N:
        raise ValueError(f"coefficient field must be {N} x {N}")
    # sum_l c(k, l) e^{2 pi i l t / N} = N * ifft over l, then shift by k
    mod_sums = N * np.fft.ifft(coeffs, axis=1)  # rows k, evaluated at t
    translates = _translates(sys.parseval_window).T  # row k = gamma(. - k)
    return np.sum(mod_sums * translates, axis=0)
