"""Named windows, symbols, fields, and sequences used by the CLI and demos."""

from __future__ import annotations

import os

import numpy as np

from ._lattice import centered_radius
from .amalgam import FIELD_PRESETS, SampledField, sample_field
from .phase_space import gaussian_window
from .seq_algebra import SparseSeq
from . import serialize


def delta_window(N: int) -> np.ndarray:
    g = np.zeros(N, dtype=complex)
    g[0] = 1.0
    return g


def resolve_window(spec: str, N: int, rng: np.random.Generator) -> np.ndarray:
    """Window from a preset name ('gaussian', 'gaussian:WIDTH', 'delta',
    'random') or a path to a JSON signal."""
    if os.path.exists(spec):
        g = serialize.signal_from_json(serialize.load_json(spec))
        if g.shape[0] != N:
            raise ValueError(f"window file has length {g.shape[0]}, expected {N}")
        return g
    if spec == "delta":
        return delta_window(N)
    if spec == "random":
        g = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        return g
    if spec.startswith("gaussian"):
        width = 1.0
        if ":" in spec:
            width = float(spec.split(":", 1)[1])
        return gaussian_window(N, width)
    raise ValueError(f"unknown window preset {spec!r}")


def gaussian_bump_symbol(N: int) -> np.ndarray:
    """Smooth phase-space bump exp(-pi |z|^2 / N) on centered coordinates."""
    r = centered_radius(N)
    return np.exp(-np.pi * r**2 / N).astype(complex)


def resolve_symbol(spec: str, N: int, rng: np.random.Generator) -> np.ndarray:
    """Symbol from a preset name ('one', 'gaussian-bump', 'near-identity',
    'random') or a path to a JSON field."""
    if os.path.exists(spec):
        sigma = serialize.field_from_json(serialize.load_json(spec))
        if sigma.shape != (N, N):
            raise ValueError(f"symbol file has shape {sigma.shape}, expected ({N}, {N})")
        return sigma
    if spec == "one":
        return np.ones((N, N), dtype=complex)
    if spec == "gaussian-bump":
        return gaussian_bump_symbol(N)
    if spec == "near-identity":
        return 1.0 + 0.1 * gaussian_bump_symbol(N)
    if spec == "random":
        return rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    raise ValueError(f"unknown symbol preset {spec!r}")


def load_field_csv(path: str) -> SampledField:
    """Read a sampled field from CSV columns (x, y, value) on a regular grid."""
    xs, ys, vals = [], [], []
    with open(path) as fh:
        header = fh.readline()
        if header.strip().lower() not in ("x,y,value", "x, y, value"):
            raise ValueError("field CSV must start with header 'x,y,value'")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            x, y, v = line.split(",")
            xs.append(float(x))
            ys.append(float(y))
            vals.append(complex(v))
    ax = np.unique(np.asarray(xs))
    n = ax.shape[0]
    if n * n != len(vals):
        raise ValueError("field CSV does not describe a full square grid")
    step = ax[1] - ax[0]
    M = round(1.0 / step)
    R = round(-ax[0])
    if n != 2 * R * M or not np.allclose(ax, -R + np.arange(n) / M):
        raise ValueError("field CSV grid is not the standard [-R, R) grid")
    values = np.zeros((n, n), dtype=complex)
    ii = np.rint((np.asarray(xs) + R) * M).astype(int)
    jj = np.rint((np.asarray(ys) + R) * M).astype(int)
    values[ii, jj] = vals
    return SampledField(R=R, M=M, values=values)


def resolve_field(spec: str, R: int, M: int) -> SampledField:
    """Field from a preset name (gaussian, bump, chirped-gaussian) or CSV path."""
    if spec in FIELD_PRESETS:
        return sample_field(FIELD_PRESETS[spec], R=R, M=M)
    if isinstance(spec, str) and os.path.exists(spec):
        return load_field_csv(spec)
    raise ValueError(f"unknown field preset {spec!r}")


def resolve_sequence(spec) -> SparseSeq:
    """Sequence from the preset 'geometric', an inline JSON object, or a path."""
    if isinstance(spec, dict):
        return serialize.seq_from_json(spec)
    if spec == "geometric":
        return SparseSeq.delta(1) - 0.5 * SparseSeq.unit(1)
    if isinstance(spec, str) and os.path.exists(spec):
        return serialize.seq_from_json(serialize.load_json(spec))
    raise ValueError(f"unknown sequence preset {spec!r}")
