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

from ._lattice import QParams, centered_radius, side, weight, weighted_qnorm
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
_WORKERS_BYTES = 2**22  # the panels and fold buffers of all of `envelope`'s workers together

# Window matrix entry [i, k] of a row rk at x is _SIGNS[i, k] times component
# _PICK[i, k] of (Re g(x), Im g(x), Re g(x), Im g(x), Re g(-x), Im g(-x), ...),
# g = conj(gamma(. - rk)) at the folded panel's rows: it maps (Re P[x], Im P[x],
# Re P[-x], Im P[-x]) to the even part's real and imaginary parts and the odd
# part's imaginary part and negated real part.
_PICK = np.array([[0, 1, 4, 5], [1, 0, 5, 4], [1, 0, 5, 4], [0, 1, 4, 5]])
_SIGNS = np.array([[1, -1, 1, -1], [1, 1, 1, 1], [1, 1, -1, -1], [-1, 1, 1, -1]])
_SIDES = np.array([1, 1, -1, -1])  # the panel rows x, x, -x, -x of a folded panel
_PARTS = np.array([0, 1, 0, 1])  # and their real, imaginary, real, imaginary parts


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
    (j, c) of a panel P is omega^(-j x) (T pi(z) gamma)(x), omega = e^(2 pi i / N).
    Since omega^(-mu_l x) omega^(-j x) = omega^(-(mu_l + j) x), entry mu_l of
    the length-N DFT y of v(x) = conj(gamma(x - rk)) P[x, (j, c)] is the Gabor
    entry of row (rk, mu_l + j), so at mu = (rk - c, mu_l), and the max over
    the panel's j folds into h.

    The DFT is folded by both of its symmetries.  With h = (N - 1) / 2, the
    even part e(x) = v(x) + v(-x) and the odd part o(x) = v(x) - v(-x),
    x = 0..h, give y(+-l) = C e -+ i S o for l = 0..h, C and S the real cos
    and sin tables of omega on 0..h with C's column x = 0 halved, as
    e(0) = 2 v(0): four real half-size products per row, a quarter of the
    multiply-adds of one complex DFT product.  One batched 4 x 4 window
    matrix per x forms the parts of e and o from the panel's entries at x
    and -x, re-laid once per panel.  The max is taken over squared moduli,
    summed from the squared real and imaginary parts of y(+-l) (the
    expansion |C e|^2 + |S o|^2 -+ 2 Im(...) would cancel), and one sqrt,
    monotone and correctly rounded, ends it, so h matches the unfolded DFT
    to rounding, about 1e-15 of its maximum.  T is first scaled by a power
    of two, which moves no bit, so that the squares stay in float range.

    Worker w of `_workers` builds panels w, w + workers, ... and folds every
    row rk of each into its own maximum; max is exact, so h is the same bits
    at any worker count.  Extra memory is the window matrices (8 N^2 floats)
    and, per worker, one panel and its folded copy, about _PANEL_BYTES each
    for N <= 181, and the fold buffers of one row."""
    N = sys.N
    chi = require_symplectic(chi, N)
    T = np.asarray(T, dtype=complex)
    if side(T, "operator matrix") != N:
        raise ValueError("operator matrix and Gabor system moduli differ")
    # a power of two brings T's largest entry near 1, exactly, so that the
    # squared moduli stay in float range
    scale = math.ldexp(1.0, min(-math.frexp(np.abs(T).max())[1], 1000))
    T = T * scale
    translates, phases = _shift_tables(sys.parseval_window)
    t = np.arange(N)
    zk, zl = symp_apply(symp_inverse(chi, N), (t, t[:, None]), N)  # z = chi^-1 (c, j) at [j, c]
    half = N // 2
    roots = phases[:half + 1, :half + 1]
    cos, sin = np.ascontiguousarray(roots.real), np.ascontiguousarray(roots.imag)  # [l, x], l, x = 0..h
    cos[:, 0] = 0.5  # e(0) = 2 v(0)
    pairs = t[:half + 1, None] * _SIDES  # [x, (x, x, -x, -x)]
    windows = _window_matrices(translates, pairs)
    width = _panel_width(N)
    workers = _workers(N)
    d = np.zeros((workers, N + 1, N))  # squared moduli at [l = 0..h, then -0..-h; mu_k]

    def fold(w):
        for j0 in range(w * width, N, workers * width):
            js = slice(j0, j0 + width)
            panel = translates[:, zk[js].ravel()]  # the atoms pi(z) gamma, then T pi(z) gamma
            panel *= phases[:, zl[js].ravel()]
            panel = (T @ panel).reshape(N, -1, N)
            panel *= np.conj(phases[:, js, None])
            folded = panel.view(float).reshape(N, -1, 2)[pairs, :, _PARTS]  # [x, part, col]
            del panel
            _fold_rows(folded, windows, cos, sin, d[w])
            del folded  # before the next panel is built

    _fan_out([partial(fold, w) for w in range(workers)])
    d = d.max(axis=0)
    values = np.concatenate((d[:half + 1], d[:half + 1:-1])).T.copy()  # [mu_k, mu_l]
    np.sqrt(values, out=values)
    values /= scale
    return FioEnvelope(values=values)


def _window_matrices(translates, pairs) -> np.ndarray:
    """(N, h + 1, 4, 4) window matrices [rk, x] of `_PICK` and `_SIGNS`, from
    the translates gamma(x - rk) at [x, rk] and the folded panel's rows."""
    g = np.conj(translates[pairs].transpose(2, 0, 1), order="C")  # [rk, x, (x, x, -x, -x)]
    return g.view(float)[..., _PICK] * _SIGNS


def _fold_rows(folded, windows, cos, sin, d) -> None:
    """Fold the squared Gabor rows (rk, .) of one folded panel into d[., mu_k],
    one row rk per step.  The rows of y, and of d, are l = 0..h, then
    -0..-h; y(-0) = y(0), as S[0] = 0.  Every step reuses two buffers and
    views of them, each part a contiguous block (strided halves run numpy's
    slow general loop): eo holds the parts of e and o, then S o over the dead
    parts of e and y(-l) over those of o, then y(l) over S o, and a holds
    C e, then the squared moduli."""
    N = d.shape[1]
    rows_e, _, M = folded.shape  # h + 1
    eo = np.empty((4, rows_e, M))  # Re e, Im e, Im o, -Re o
    a = np.empty((2, rows_e, M))  # C Re e, C Im e
    e = np.empty((N + 1, N))  # maxima over the panel's j at [l, c]
    eo_out, even, odd = eo.transpose(1, 0, 2), eo[:2], eo[2:]
    re, im = eo[::2], eo[1::2]  # Re and Im of y(l), y(-l)
    by_j = a.reshape(N + 1, -1, N)
    t = np.arange(N)
    for window, shift in zip(windows, t[:, None] - t):
        np.matmul(window, folded, out=eo_out)
        np.matmul(cos, even, out=a)
        np.matmul(sin, odd, out=even)  # S Im o, -S Re o
        np.subtract(a, even, out=odd)
        np.add(a, even, out=even)
        np.square(eo, out=eo)
        np.add(re, im, out=a)
        np.maximum.reduce(by_j, axis=1, out=e)
        np.maximum(d, e[:, shift], out=d)  # row rk folds column c = rk - mu_k into mu_k


def _panel_width(N: int) -> int:
    """Values of j in one panel of `envelope`: N^2 complex entries each."""
    return max(1, _PANEL_BYTES // (16 * N * N))


def _workers(N: int) -> int:
    """Worker threads of `envelope`: the cores this process may run on over
    the threads BLAS gives each product, no more than the panels, and no
    more than keep what the workers hold under _WORKERS_BYTES, each a panel
    or its folded copy with its fold buffers, 5 (N + 1) floats per panel
    column.  BLAS threads are read as OpenBLAS reads them.  With neither
    variable set one worker runs, and OpenBLAS's own threads spin more than
    they spread the products: on 2 cores at N = 61 the envelope then takes
    113 ms wall for 224 ms CPU (118 ms for 232 ms on two workers), against
    71 ms for 122 ms on two workers under OPENBLAS_NUM_THREADS=1."""
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
    width = min(_panel_width(N), N)
    return max(1, min(cores // blas, -(-N // width), _WORKERS_BYTES // (40 * (N + 1) * N * width)))


def _fan_out(calls) -> None:
    """Run the first call here and each other on a thread of its own, then
    raise the first call's exception, or else the first a thread raised."""
    errors = []

    def run(call, keep=errors.append):
        try:
            call()
        except BaseException as exc:  # raised again below
            keep(exc)

    threads = [threading.Thread(target=run, args=(call,)) for call in calls[1:]]
    for thread in threads:
        thread.start()
    run(calls[0], partial(errors.insert, 0))
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def fio_report(env: FioEnvelope, p: QParams) -> FioReport:
    """Quasi-norm, tail fraction beyond |mu| > N/4, and fitted decay exponent."""
    h = np.asarray(env.values, dtype=float)
    N = side(h, "envelope")
    radius = centered_radius(N)
    w = weight(radius, p.s)
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
