"""Named windows, symbols, fields, and sequences used by the CLI and demos.

Each resolver is a preset table and a loader under the one rule `_resolve`:
a preset name first, so a file called like a preset never replaces it."""

from __future__ import annotations

import os
from functools import partial

import numpy as np

from ._lattice import centered_radius, square_points
from .amalgam import FIELD_PRESETS, SampledField, _grid_axis, sample_field
from .phase_space import gaussian_window
from .seq_algebra import SparseSeq
from . import serialize


def delta_window(N: int) -> np.ndarray:
    g = np.zeros(N, dtype=complex)
    g[0] = 1.0
    return g


def _complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _spec(spec, what: str) -> str:
    """spec if it is a string, else the unknown-preset error (an int names an fd)."""
    if not isinstance(spec, str):
        raise ValueError(f"unknown {what} preset {spec!r}")
    return spec


def _resolve(spec, what: str, table: dict, load):
    """The one preset rule: `table[spec]()` when spec names a preset, else
    `load(spec)` when it is an existing path, else the unknown-preset error."""
    if _spec(spec, what) in table:
        return table[spec]()
    if os.path.exists(spec):
        return load(spec)
    raise ValueError(f"unknown {what} preset {spec!r}")


def resolve_window(spec: str, N: int, rng: np.random.Generator | None) -> np.ndarray:
    """Window from a preset name ('gaussian', 'gaussian:WIDTH', 'delta',
    'random') or a path to a JSON signal; only 'random' draws from rng."""
    if _spec(spec, "window").startswith("gaussian:"):
        width = spec.partition(":")[2]
        try:
            width = float(width)
        except ValueError:  # still the string, which serialize.number refuses by name
            pass
        width = serialize.number(width, "gaussian window width")
        if width <= 0:
            raise ValueError(f"gaussian window width must be > 0, got {width}")
        return gaussian_window(N, width)
    return _resolve(spec, "window", {
        "gaussian": lambda: gaussian_window(N),
        "delta": lambda: delta_window(N),
        "random": lambda: _complex_normal(rng, N),
    }, lambda path: serialize.signal_from_json(serialize.load_json(path), N, "window file"))


def gaussian_bump_symbol(N: int) -> np.ndarray:
    """Smooth phase-space bump exp(-pi |z|^2 / N) on centered coordinates."""
    r = centered_radius(N)
    return np.exp(-np.pi * r**2 / N).astype(complex)


def resolve_symbol(spec: str, N: int, rng: np.random.Generator | None) -> np.ndarray:
    """Symbol from a preset name ('one', 'gaussian-bump', 'near-identity',
    'random') or a path to a JSON field; only 'random' draws from rng."""
    return _resolve(spec, "symbol", {
        "one": lambda: np.ones((N, N), dtype=complex),
        "gaussian-bump": lambda: gaussian_bump_symbol(N),
        "near-identity": lambda: 1.0 + 0.1 * gaussian_bump_symbol(N),
        "random": lambda: _complex_normal(rng, (N, N)),
    }, lambda path: serialize.field_from_json(serialize.load_json(path), N, "symbol file"))


def load_field_csv(path: str) -> SampledField:
    """Read a sampled field from CSV columns (x, y, value) that hold every
    point of the standard [-R, R)^2 grid once, in any order."""
    with open(path) as fh:
        header = fh.readline()
        if header.strip().lower() not in ("x,y,value", "x, y, value"):
            raise ValueError("field CSV must start with header 'x,y,value'")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    xy = np.array([[float(x), float(y)] for x, y, _ in rows]).reshape(-1, 2)
    values = np.array([complex(v) for _, _, v in rows], dtype=complex)
    ax = np.unique(xy[:, 0])
    n = ax.shape[0]
    if n < 2 or n * n != len(values) or not np.all(np.isfinite(ax)):
        raise ValueError("field CSV does not describe a full square grid")
    R = max(round(-ax[0]), 1)
    M = n // (2 * R)
    if n != 2 * R * M or not np.allclose(ax, _grid_axis(R, M)):
        raise ValueError("field CSV grid is not the standard [-R, R) grid")
    order = np.lexsort((xy[:, 1], xy[:, 0]))  # x-major, as values[i, j] is at (x_i, y_j)
    if not np.allclose(xy[order], square_points(ax).reshape(-1, 2)):
        raise ValueError("field CSV does not hold every point of its grid once")
    return SampledField(R=R, M=M, values=values[order].reshape(n, n))


def resolve_field(spec: str, R: int, M: int) -> SampledField:
    """Field from a preset name (gaussian, bump, chirped-gaussian) or CSV path."""
    table = {name: partial(sample_field, f, R=R, M=M) for name, f in FIELD_PRESETS.items()}
    return _resolve(spec, "field", table, load_field_csv)


def resolve_sequence(spec) -> SparseSeq:
    """Sequence from the preset 'geometric', an inline JSON object, or a path."""
    if isinstance(spec, dict):
        return serialize.seq_from_json(spec)
    return _resolve(spec, "sequence", {
        "geometric": lambda: SparseSeq.delta(1) - 0.5 * SparseSeq.unit(1),
    }, lambda path: serialize.seq_from_json(serialize.load_json(path)))
