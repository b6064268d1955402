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
import os
import threading
from dataclasses import dataclass
from functools import partial

import numpy as np

from ._lattice import QParams, centered_points, centered_radius, side, weight, weighted_qnorm
from .errors import COND_TOL, NotInvertibleError
from .metaplectic import (
    metaplectic_operator,
    require_symplectic,
    symp_apply,
    symp_inverse,
)
from .phase_space import GaborSystem, _shift_tables
from .weyl import weyl_dequantize, weyl_quantize


_PANEL_BYTES = 2**19  # one complex panel of `envelope`: cache-sized blocks, never N^3
_FAN_OUT_N = 21  # the least N whose envelope rows repay a second worker thread
_BLOCKS_BYTES = 3 * 2**20  # the blocks and moduli of all of `envelope`'s workers together


@dataclass(frozen=True)
class FioEnvelope:
    """Least dominating envelope of an operator relative to a lattice map.

    values[mu_k % N, mu_l % N] = max_lambda |<T pi(lambda) g,
    pi(chi lambda + mu) g>| over the full lattice.
    """

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
    the diagonal envelope of the Gabor matrix of T along the graph of chi,
    computed without that matrix, its factor T P or a gather index.

    The columns z = chi^-1 (c, j) come in panels of a few values of j: column
    (j, c) of a panel is omega^(-j x) (T pi(z) gamma)(x), omega = e^(2 pi i / N).
    Since omega^(-mu_l x) omega^(-j x) = omega^(-(mu_l + j) x), row mu_l of
    conj(pi(rk, 0) gamma * phases).T @ panel is the Gabor entry of row
    (rk, mu_l + j), so at mu = (rk - c, mu_l), and the max over the panel's j
    folds into h.  The rows rk of each panel are split among `_workers`
    threads, each folding its own maximum; max is exact, so h is the same
    bits at any worker count.  Extra memory is one panel, at most
    _PANEL_BYTES for N <= 181, plus one block and its moduli per worker."""
    N = sys.N
    chi = require_symplectic(chi, N)
    T = np.asarray(T, dtype=complex)
    if side(T, "operator matrix") != N:
        raise ValueError("operator matrix and Gabor system moduli differ")
    translates, phases = _shift_tables(sys.parseval_window)
    t = np.arange(N)
    zk, zl = symp_apply(symp_inverse(chi, N), (t, t[:, None]), N)  # z = chi^-1 (c, j) at [j, c]
    width = _panel_width(N)
    workers = _workers(N)
    d = np.zeros((workers, N, N))
    for j0 in range(0, N, width):
        js = slice(j0, j0 + width)
        panel = (T @ (translates[:, zk[js].ravel()] * phases[:, zl[js].ravel()])).reshape(N, -1, N)
        panel *= np.conj(phases[:, js, None])
        panel = panel.reshape(N, -1)
        _fan_out([partial(_fold_rows, range(w, N, workers), panel, translates, phases, d[w])
                  for w in range(workers)])
    return FioEnvelope(values=d.max(axis=0))


def _fold_rows(rows, panel, translates, phases, d) -> None:
    """Fold the Gabor rows (rk, .) of one panel, rk in rows, into d[mu_l, mu_k].
    Every row's block and moduli reuse one buffer each: a fresh block per
    row costs page faults, which threaded BLAS pays on every core."""
    N = d.shape[0]
    t = np.arange(N)
    block = np.empty(panel.shape, complex)
    moduli = np.empty(panel.shape)
    for rk in rows:
        np.matmul(np.conj(translates[:, rk, None] * phases).T, panel, out=block)
        e = np.abs(block, out=moduli).reshape(N, -1, N).max(axis=1)  # [mu_l, c]
        np.maximum(d, e[:, (rk - t) % N].T, out=d)


def _panel_width(N: int) -> int:
    """Values of j in one panel of `envelope`: N^2 complex entries each."""
    return max(1, _PANEL_BYTES // (16 * N * N))


def _workers(N: int) -> int:
    """Worker threads for the rows of `envelope`: the cores this process may
    run on over the threads BLAS gives each product, no more than keep their
    blocks (a panel's shape) and moduli under _BLOCKS_BYTES, and one below
    _FAN_OUT_N.  BLAS threads are read as OpenBLAS reads them; unset, BLAS
    already spreads every product over all cores, and one worker runs."""
    if N < _FAN_OUT_N:
        return 1
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            blas = int(os.environ.get(name, ""))
        except ValueError:
            continue
        if blas > 0:
            break
    else:
        return 1
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    block_bytes = 24 * N * N * min(_panel_width(N), N)
    return max(1, min(cores // blas, _BLOCKS_BYTES // block_bytes))


def _fan_out(calls) -> None:
    """Run the first call here and each other on a thread of its own, then
    raise the first exception any of them raised."""
    errors = []

    def run(call):
        try:
            call()
        except BaseException as exc:  # raised again below
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(call,)) for call in calls[1:]]
    for thread in threads:
        thread.start()
    try:
        calls[0]()
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


def fio_report(env: FioEnvelope, p: QParams) -> FioReport:
    """Quasi-norm, tail fraction beyond |mu| > N/4, and fitted decay exponent."""
    h = np.asarray(env.values, dtype=float)
    N = side(h, "envelope")
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
    ||h(T1 T2)|| / (||h(T1)|| ||h(T2)||), and the envelope of T1 T2.  A square
    T T along one map reuses h(T) for both factors."""
    N = sys.N
    chi1 = require_symplectic(chi1, N)
    chi2 = require_symplectic(chi2, N)
    prod_chi = (chi1 @ chi2) % N
    rep1 = fio_report(envelope(T1, chi1, sys), p)
    square = np.array_equal(chi1, chi2) and np.array_equal(T1, T2)
    rep2 = rep1 if square else fio_report(envelope(T2, chi2, sys), p)
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
    cond_tol: float = COND_TOL,
) -> tuple[np.ndarray, FioReport, FioEnvelope]:
    """Exact inverse of T with its envelope report and envelope relative to chi^-1.

    Raises NotInvertibleError when the condition number reaches cond_tol.
    """
    if not cond_tol >= 1.0:
        raise ValueError(f"cond_tol must be >= 1, got {cond_tol}")
    N = sys.N
    chi = require_symplectic(chi, N)
    T = np.asarray(T, dtype=complex)
    cond = np.linalg.cond(T)  # s[0] / s[-1] of the singular values, inf when singular
    if not cond < cond_tol:
        raise NotInvertibleError(
            f"condition number {cond:.3e} exceeds tolerance {cond_tol:.1e}"
        )
    Tinv = np.linalg.inv(T)
    env = envelope(Tinv, symp_inverse(chi, N), sys)
    return Tinv, fio_report(env, p), env


def fio_operator(sigma: np.ndarray, chi) -> np.ndarray:
    """Op(sigma) U_chi: the Weyl operator of an (N, N) symbol times the
    metaplectic unitary of chi, symbol on the left.  N is read from sigma;
    `factorize_fio` splits such an operator back into its symbol."""
    return weyl_quantize(sigma) @ metaplectic_operator(chi, side(sigma, "symbol"))


def symbol_pullback(sigma: np.ndarray, chi) -> np.ndarray:
    """(sigma o chi)(z) = sigma(chi z mod N) on the N x N phase space."""
    N = side(sigma, "symbol")
    chi = require_symplectic(chi, N)
    return np.asarray(sigma)[symp_apply(chi, (np.arange(N)[:, None], np.arange(N)), N)]


def factorize_fio(T: np.ndarray, chi) -> tuple[np.ndarray, np.ndarray, dict]:
    """Split T into a symbol times the metaplectic unitary of chi, both ways;
    the first way inverts `fio_operator`: fio_operator(sigma1, chi) = T.

    Returns (sigma1, sigma2, residuals) where T = Op(sigma1) U and
    T = U Op(sigma2) with U the metaplectic unitary of chi.  Dequantization
    is an exact linear bijection, so both operator-norm residuals are at
    rounding level.  As U^* Op(sigma1) U = Op(sigma1 o chi), sigma2 is
    sigma1 o chi, phases included, to rounding; the report carries its
    modulus defect max | |sigma2| - |sigma1 o chi| |.  N is read from T,
    which must be square.
    """
    T = np.asarray(T, dtype=complex)
    N = side(T, "operator")
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
