"""Envelope calculus for operators twisted by a symplectic map of the lattice.

An operator T on C^N paired with a determinant-one matrix chi is summarized
by its dominating envelope

    h(mu) = max_lambda |<T pi(lambda) g, pi(chi lambda + mu) g>|,

the least sequence bounding the Gabor coefficients of T along the graph of
chi.  Concentration of h near mu = 0 is measured by a weighted lq
quasi-norm, the fraction of q-mass outside the ball |mu| <= N/4, and a
fitted decay exponent.  Products, inverses, and metaplectic factorizations
of such operators preserve concentration with respect to the composed,
inverted, and identity maps, and those statements are exercised here as
finite computations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._lattice import centered_points, centered_radius, weight, weighted_qnorm
from .errors import NotInvertibleError
from .matrix_algebra import _row_block_envelope
from .metaplectic import (
    metaplectic_operator,
    require_symplectic,
    symp_apply,
    symp_inverse,
)
from .phase_space import GaborSystem
from .seq_algebra import QParams
from .weyl import gabor_factors, weyl_dequantize, weyl_quantize


@dataclass(frozen=True)
class FioEnvelope:
    """Least dominating envelope of an operator relative to a lattice map.

    values[mu_k % N, mu_l % N] = max_lambda |<T pi(lambda) g,
    pi(chi lambda + mu) g>| over the full lattice; chi is stored reduced
    mod N.
    """

    chi: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class FioReport:
    """Concentration diagnostics of an envelope.

    quasi_norm: weighted lq quasi-norm of the envelope on centered mu.
    tail_fraction: fraction of the q-mass outside |mu| <= N/4 (in [0, 1]).
    decay_exponent: a in h(mu) ~ C (1 + |mu|)^-a fitted on shell maxima
    (0 for a flat envelope, inf when fewer than two shells carry mass).
    """

    quasi_norm: float
    tail_fraction: float
    decay_exponent: float


def envelope(T: np.ndarray, chi, sys: GaborSystem) -> FioEnvelope:
    """Exact envelope h(mu) = max_lambda |<T pi(lambda) g, pi(chi lambda + mu) g>|:
    the diagonal envelope of the Gabor matrix of T along the graph of chi, read
    one (N, N^2) row block at a time so that matrix is never built."""
    N = sys.N
    chi = require_symplectic(chi, N)
    Ph, TP = gabor_factors(T, sys)
    values = _row_block_envelope(lambda rk: Ph[rk * N:(rk + 1) * N] @ TP, N, chi)
    return FioEnvelope(chi=chi, values=values)


def fio_report(env: FioEnvelope, p: QParams) -> FioReport:
    """Quasi-norm, tail fraction beyond |mu| > N/4, and fitted decay exponent."""
    h = np.asarray(env.values, dtype=float)
    N = h.shape[0]
    radius = centered_radius(N)
    w = weight(centered_points(N), p.s)
    quasi_norm = weighted_qnorm(h, w, p.q)
    mass = h**p.q * w**p.q  # finite, as its sum is
    total = mass.sum()
    tail = float(mass[radius > N / 4.0].sum() / total) if total > 0 else 0.0
    return FioReport(
        quasi_norm=quasi_norm,
        tail_fraction=tail,
        decay_exponent=_shell_decay_exponent(h, radius),
    )


def _shell_decay_exponent(h: np.ndarray, radius: np.ndarray) -> float:
    shells = np.floor(radius).astype(int).ravel()
    maxima = np.zeros(shells.max() + 1)
    np.maximum.at(maxima, shells, h.ravel())
    keep = maxima > 0
    if keep.sum() < 2:
        return math.inf
    r = np.flatnonzero(keep)
    slope = np.polyfit(np.log1p(r.astype(float)), np.log(maxima[keep]), 1)[0]
    return float(-slope)


def compose_check(
    T1: np.ndarray,
    chi1,
    T2: np.ndarray,
    chi2,
    sys: GaborSystem,
    p: QParams,
) -> tuple[FioReport, float, FioEnvelope]:
    """Envelope report of T1 T2 relative to chi1 chi2, the quasi-norm ratio
    ||h(T1 T2)|| / (||h(T1)|| ||h(T2)||), and the envelope of T1 T2."""
    N = sys.N
    chi1 = require_symplectic(chi1, N)
    chi2 = require_symplectic(chi2, N)
    prod_chi = (chi1 @ chi2) % N
    rep1 = fio_report(envelope(T1, chi1, sys), p)
    rep2 = fio_report(envelope(T2, chi2, sys), p)
    env12 = envelope(np.asarray(T1) @ np.asarray(T2), prod_chi, sys)
    rep12 = fio_report(env12, p)
    denom = rep1.quasi_norm * rep2.quasi_norm
    ratio = rep12.quasi_norm / denom if denom > 0 else math.inf
    return rep12, float(ratio), env12


def invert_fio(
    T: np.ndarray,
    chi,
    sys: GaborSystem,
    p: QParams,
    cond_tol: float = 1e12,
) -> tuple[np.ndarray, FioReport, FioEnvelope]:
    """Exact inverse of T with its envelope report and envelope relative to chi^-1.

    Raises NotInvertibleError when the condition number reaches cond_tol.
    """
    if not cond_tol >= 1.0:
        raise ValueError(f"cond_tol must be >= 1, got {cond_tol}")
    N = sys.N
    chi = require_symplectic(chi, N)
    T = np.asarray(T, dtype=complex)
    sv = np.linalg.svd(T, compute_uv=False)
    if sv[-1] == 0.0 or sv[0] / sv[-1] >= cond_tol:
        cond = math.inf if sv[-1] == 0.0 else sv[0] / sv[-1]
        raise NotInvertibleError(
            f"condition number {cond:.3e} exceeds tolerance {cond_tol:.1e}"
        )
    Tinv = np.linalg.inv(T)
    env = envelope(Tinv, symp_inverse(chi, N), sys)
    return Tinv, fio_report(env, p), env


def symbol_pullback(sigma: np.ndarray, chi) -> np.ndarray:
    """(sigma o chi)(z) = sigma(chi z mod N) on the N x N phase space."""
    N = np.shape(sigma)[0]
    chi = require_symplectic(chi, N)
    return np.asarray(sigma)[symp_apply(chi, (np.arange(N)[:, None], np.arange(N)), N)]


def factorize_fio(T: np.ndarray, chi) -> tuple[np.ndarray, np.ndarray, dict]:
    """Split T into a symbol times the metaplectic unitary of chi, both ways.

    Returns (sigma1, sigma2, residuals) where T = Op(sigma1) U and
    T = U Op(sigma2) with U the metaplectic unitary of chi.  Dequantization
    is an exact linear bijection, so both operator-norm residuals are at
    rounding level; the sup-norm modulus defect || |sigma2| - |sigma1 o chi| ||_inf
    is reported as a diagnostic (phases are convention-dependent).  N is
    read from T, which must be square.
    """
    T = np.asarray(T, dtype=complex)
    N = T.shape[0]
    if T.shape != (N, N):
        raise ValueError(f"operator of shape {T.shape} is not square")
    chi = require_symplectic(chi, N)
    U = metaplectic_operator(chi, N)
    Uinv = U.conj().T  # unitary by construction
    sigma1 = weyl_dequantize(T @ Uinv)
    sigma2 = weyl_dequantize(Uinv @ T)
    residuals = {
        "op_then_mu": float(np.linalg.norm(T - weyl_quantize(sigma1) @ U, 2)),
        "mu_then_op": float(np.linalg.norm(T - U @ weyl_quantize(sigma2), 2)),
        "egorov_modulus_defect": float(
            np.max(np.abs(np.abs(sigma2) - np.abs(symbol_pullback(sigma1, chi))))
        ),
    }
    return sigma1, sigma2, residuals
