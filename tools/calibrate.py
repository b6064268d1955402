"""Regenerate the frozen diagnostic thresholds in tests/data/calibration.json.

Each threshold is an observed value from a deterministic oracle run times a
safety margin.  Rerun after any change to envelope or norm conventions:

    python tools/calibrate.py
"""

import json
import os
import sys

import numpy as np

import gmlab as g
from gmlab import QParams
from gmlab.presets import _complex_normal, gaussian_bump_symbol
from gmlab.verify import random_sympmat

OUT = os.path.join(os.path.dirname(__file__), "..", "tests", "data", "calibration.json")
RANK_TOL = 1e-10  # pinv's rcond in pseudo_inverse: singular values <= this x largest are zero


def smooth_symbol(rng, N, amplitude=0.25):
    return 1.0 + amplitude * _complex_normal(rng, (N, N)) * gaussian_bump_symbol(N)


def inverse_closedness(N=31):
    p = QParams(0.8, 1.0)
    sys = g.gabor_system(g.gaussian_window(N))
    sigma = 1.0 + 0.1 * gaussian_bump_symbol(N)
    T = g.weyl_quantize(sigma)
    ident = np.eye(2, dtype=int)
    fwd = g.fio_report(g.envelope(T, ident, sys), p)
    Tinv, inv_rep, _ = g.invert_fio(T, ident, sys, p)
    ident_rep = g.fio_report(g.envelope(np.eye(N), ident, sys), p)
    return {
        "N": N,
        "q": p.q,
        "s": p.s,
        "observed_identity_tail": ident_rep.tail_fraction,
        "observed_forward_tail": fwd.tail_fraction,
        "observed_inverse_tail": inv_rep.tail_fraction,
        "inverse_tail_threshold": 3.0 * max(inv_rep.tail_fraction, 1e-12),
        "identity_tail_threshold": 3.0 * max(ident_rep.tail_fraction, 1e-12),
    }


def fio_pairs(N=11, count=10):
    p = QParams(0.8, 1.0)
    rng = np.random.default_rng(2024)
    sys = g.gabor_system(g.gaussian_window(N))
    compose_factors, invert_factors = [], []
    for _ in range(count):
        chi1 = random_sympmat(rng, N)
        chi2 = random_sympmat(rng, N)
        T1 = g.fio_operator(smooth_symbol(rng, N), chi1)
        T2 = g.fio_operator(smooth_symbol(rng, N), chi2)
        tf1 = g.fio_report(g.envelope(T1, chi1, sys), p).tail_fraction
        tf2 = g.fio_report(g.envelope(T2, chi2, sys), p).tail_fraction
        rep12, _, _ = g.compose_check(T1, chi1, T2, chi2, sys, p)
        compose_factors.append(rep12.tail_fraction / max(tf1, tf2))
        _, inv_rep, _ = g.invert_fio(T1, chi1, sys, p)
        invert_factors.append(inv_rep.tail_fraction / tf1)
    return {
        "N": N,
        "q": p.q,
        "s": p.s,
        "count": count,
        "observed_compose_factor": max(compose_factors),
        "observed_invert_factor": max(invert_factors),
        "compose_factor_threshold": 2.0 * max(compose_factors),
        "invert_factor_threshold": 2.0 * max(invert_factors),
    }


def norm_equivalence(N=7):
    p = QParams(0.8, 1.0)
    rng = np.random.default_rng(7)
    sys = g.gabor_system(g.gaussian_window(N))
    ratios = []
    symbols = [
        np.ones((N, N), dtype=complex),
        gaussian_bump_symbol(N),
        1.0 + 0.1 * gaussian_bump_symbol(N),
    ] + [smooth_symbol(rng, N) for _ in range(5)]
    for sigma in symbols:
        M = g.gabor_matrix(g.weyl_quantize(sigma), sys)
        ratios.append(g.cb_norm(M, p) / g.modulation_norm(sigma, p))
    lo, hi = min(ratios), max(ratios)
    return {
        "N": N,
        "q": p.q,
        "s": p.s,
        "observed_ratio_lo": lo,
        "observed_ratio_hi": hi,
        "observed_spread": hi / lo,
        "ratio_lo": lo / 2.0,
        "ratio_hi": hi * 2.0,
        "spread_threshold": 4.0 * hi / lo,
    }


def window_robustness(N=11, count=6):
    p = QParams(0.8, 1.0)
    rng = np.random.default_rng(11)
    sys1 = g.gabor_system(g.gaussian_window(N, 1.0))
    sys2 = g.gabor_system(g.gaussian_window(N, 2.0))
    factors = []
    for _ in range(count):
        chi = random_sympmat(rng, N)
        T = g.fio_operator(smooth_symbol(rng, N), chi)
        t1 = g.fio_report(g.envelope(T, chi, sys1), p).tail_fraction
        t2 = g.fio_report(g.envelope(T, chi, sys2), p).tail_fraction
        factors.append(max(t1 / t2, t2 / t1))
    return {
        "N": N,
        "count": count,
        "observed_factor": max(factors),
        "factor_threshold": 2.0 * max(factors),
    }


def almost_diagonalization(N=31):
    p = QParams(0.8, 1.0)
    sys1 = g.gabor_system(g.gaussian_window(N, 1.0))
    sys2 = g.gabor_system(g.gaussian_window(N, 2.0))
    sigma = gaussian_bump_symbol(N)
    M1 = g.gabor_matrix(g.weyl_quantize(sigma), sys1)
    M2 = g.gabor_matrix(g.weyl_quantize(sigma), sys2)
    n1, n2 = g.cb_norm(M1, p), g.cb_norm(M2, p)
    return {
        "N": N,
        "q": p.q,
        "s": p.s,
        "observed_window_change": max(n1 / n2, n2 / n1),
        "window_change_threshold": 2.0 * max(n1 / n2, n2 / n1),
    }


def pseudo_inverse(A: np.ndarray) -> np.ndarray:
    """Pseudo-inverse with singular values at or below RANK_TOL times the
    largest treated as zero: it inverts A on its retained range and
    annihilates the orthogonal complement."""
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2:
        raise ValueError("matrix expected")
    return np.linalg.pinv(A, rcond=RANK_TOL)


def gabor_pinv_decay(N=7):
    p = QParams(0.8, 1.0)
    sys = g.gabor_system(g.gaussian_window(N))
    sigma = 1.0 + 0.1 * gaussian_bump_symbol(N)
    M = g.gabor_matrix(g.weyl_quantize(sigma), sys)
    ratio = g.cb_norm(pseudo_inverse(M), p) / g.cb_norm(M, p)
    return {
        "N": N,
        "observed_ratio": ratio,
        "ratio_threshold": 3.0 * ratio,
    }


def conv_embedding(R=8, M=32):
    p = QParams(0.8, 1.0)
    fields = {name: g.sample_field(fn, R=R, M=M) for name, fn in
              [("gaussian", g.gaussian_field), ("bump", g.bump_field),
               ("chirped", g.chirped_gaussian_field)]}
    ratios = {}
    for n1, F in fields.items():
        for n2, G in fields.items():
            ratios[f"{n1}*{n2}"] = g.conv_embedding_check(F, G, p)
    worst = max(ratios.values())
    return {
        "R": R,
        "M": M,
        "observed_ratios": ratios,
        "ratio_threshold": 2.0 * worst,
    }


def main():
    cal = {
        "_note": "frozen thresholds = observed oracle values times a safety margin; regenerate with tools/calibrate.py",
        "inverse_closedness": inverse_closedness(),
        "fio_pairs": fio_pairs(),
        "norm_equivalence": norm_equivalence(),
        "window_robustness": window_robustness(),
        "almost_diagonalization": almost_diagonalization(),
        "gabor_pinv_decay": gabor_pinv_decay(),
        "conv_embedding": conv_embedding(),
    }
    os.makedirs(os.path.dirname(OUT), exist_ok=True)
    with open(OUT, "w") as fh:
        json.dump(cal, fh, indent=2, sort_keys=True)
        fh.write("\n")
    json.dump(cal, sys.stdout, indent=2, sort_keys=True)
    print()


if __name__ == "__main__":
    main()
