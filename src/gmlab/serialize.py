"""JSON and CSV wire formats.

Sequences:      {"dim": m, "entries": [[[n1, ..., nm], re, im], ...]}, m >= 1,
                no index twice, whose index box holds at most
                seq_algebra.MAX_CELLS cells
Signals:        [[re, im], ...] of length N
Fields:         row-major N x N array of [re, im] pairs
Symplectic:     [[a, b], [c, d]]
Envelope CSV:   columns mu_k, mu_l, value (centered indices)
Field CSV:      columns k, l, re, im
Gabor CSV:      columns mu_k, mu_l, lam_k, lam_l, re, im

All writers emit rows in a fixed order so identical inputs produce
byte-identical files.
"""

from __future__ import annotations

import json
import math
import numbers

import numpy as np

from ._lattice import centered
from .seq_algebra import SparseSeq


def seq_to_json(a: SparseSeq) -> dict:
    entries = [[list(k), float(v.real), float(v.imag)] for k, v in a.items()]
    return {"dim": a.dim, "entries": entries}


def _finite_number(v) -> bool:
    real = isinstance(v, numbers.Real) and not isinstance(v, bool)
    return real and (isinstance(v, numbers.Integral) or math.isfinite(v))


def seq_from_json(obj) -> SparseSeq:
    """Sequence from its wire format; rejects a malformed object, non-numeric
    or non-finite entries, fractional indices and a repeated index."""
    if not isinstance(obj, dict) or not isinstance(obj.get("entries"), list):
        raise ValueError('a sequence must be an object with an "entries" list')
    dim = obj.get("dim")
    if isinstance(dim, bool) or not isinstance(dim, numbers.Integral) or dim < 1:
        raise ValueError(f"sequence dim must be an integer >= 1, got {dim!r}")
    for entry in obj["entries"]:
        index = entry[0] if isinstance(entry, list) and len(entry) == 3 else None
        if not (isinstance(index, list) and len(index) == dim):
            raise ValueError(f"sequence entry {entry!r} is not [[{dim} integers], re, im]")
        if not all(_finite_number(v) for v in (*index, *entry[1:])):
            raise ValueError(f"sequence entry {entry!r} is not a finite number")
        if any(v != int(v) for v in index):
            raise ValueError(f"sequence index {index!r} is not an integer")
    entries = {}
    for idx, re, im in obj["entries"]:
        if tuple(idx) in entries:
            raise ValueError(f"sequence index {idx!r} appears twice")
        entries[tuple(idx)] = complex(re, im)
    return SparseSeq(dim, entries)


def _finite(values: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(values)):
        raise ValueError("values must be finite (no NaN or infinity)")
    return values


def signal_from_json(obj) -> np.ndarray:
    return _finite(np.array([complex(re, im) for re, im in obj], dtype=complex))


def field_from_json(obj) -> np.ndarray:
    return _finite(
        np.array([[complex(re, im) for re, im in row] for row in obj], dtype=complex)
    )


def sympmat_to_json(chi: np.ndarray) -> list:
    chi = np.asarray(chi, dtype=int)
    return [[int(chi[0, 0]), int(chi[0, 1])], [int(chi[1, 0]), int(chi[1, 1])]]


def _fmt(x: float) -> str:
    return repr(float(x))


def envelope_csv(values: np.ndarray) -> str:
    """CSV of an (N, N) nonnegative field indexed mod N, on centered mu."""
    values = np.asarray(values)
    N = values.shape[0]
    lines = ["mu_k,mu_l,value"]
    for k in range(N):
        for l in range(N):
            lines.append(
                f"{int(centered(k, N))},{int(centered(l, N))},{_fmt(values[k, l])}"
            )
    return "\n".join(lines) + "\n"


def field_csv(field: np.ndarray) -> str:
    field = np.asarray(field, dtype=complex)
    N = field.shape[0]
    lines = ["k,l,re,im"]
    for k in range(N):
        for l in range(N):
            v = field[k, l]
            lines.append(f"{k},{l},{_fmt(v.real)},{_fmt(v.imag)}")
    return "\n".join(lines) + "\n"


def grid_csv(F) -> str:
    """CSV of a SampledField with columns (x, y, value); complex values are
    written with Python's complex repr so they round-trip."""
    ax = F.axis()
    lines = ["x,y,value"]
    for i, x in enumerate(ax):
        for j, y in enumerate(ax):
            v = F.values[i, j]
            text = _fmt(v) if not np.iscomplexobj(F.values) else repr(complex(v))
            lines.append(f"{_fmt(x)},{_fmt(y)},{text}")
    return "\n".join(lines) + "\n"


def gabor_csv(M: np.ndarray, N: int) -> str:
    M = np.asarray(M, dtype=complex)
    lines = ["mu_k,mu_l,lam_k,lam_l,re,im"]
    for row in range(N * N):
        for col in range(N * N):
            v = M[row, col]
            lines.append(
                f"{row // N},{row % N},{col // N},{col % N},"
                f"{_fmt(v.real)},{_fmt(v.imag)}"
            )
    return "\n".join(lines) + "\n"


def dump_json(obj, path) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_json(path):
    with open(path) as fh:
        return json.load(fh)
