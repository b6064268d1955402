"""JSON and CSV wire formats.

Sequences:      {"dim": m, "entries": [[[n1, ..., nm], re, im], ...]}, m >= 1,
                no index twice, whose index box holds at most
                seq_algebra.MAX_CELLS cells
Signals:        [[re, im], ...] of length N
Fields:         row-major N x N array of [re, im] pairs
                (re and im finite JSON numbers, never bools or strings)
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

import numpy as np

from ._lattice import centered
from .seq_algebra import SparseSeq


def seq_to_json(a: SparseSeq) -> dict:
    entries = [[list(k), float(v.real), float(v.imag)] for k, v in a.items()]
    return {"dim": a.dim, "entries": entries}


def number(value, what: str, kind=float):
    """`value` as a finite `kind` (int or float), else ValueError naming
    `what`: a real number, not a bool or a string, within float range, and
    for int integral and within int64 range."""
    try:
        ok = not isinstance(value, bool) and math.isfinite(value)
        ok = ok and (kind is float or (value == int(value) and abs(value) < 2**63))
    except (TypeError, OverflowError):  # not a real number, or an int beyond float range
        ok = False
    if not ok:
        name = "int64" if kind is int else "float"
        raise ValueError(f"{what} must be a finite {name}, got {value!r}")
    return kind(value)


def seq_from_json(obj) -> SparseSeq:
    """Sequence from its wire format; rejects a malformed object, non-numeric
    or non-finite entries, fractional indices and a repeated index."""
    if not isinstance(obj, dict) or not isinstance(obj.get("entries"), list):
        raise ValueError('a sequence must be an object with an "entries" list')
    dim = number(obj.get("dim"), "sequence dim", int)
    if dim < 1:
        raise ValueError(f"sequence dim must be an integer >= 1, got {dim!r}")
    entries = {}
    for entry in obj["entries"]:
        index = entry[0] if isinstance(entry, list) and len(entry) == 3 else None
        if not (isinstance(index, list) and len(index) == dim):
            raise ValueError(f"sequence entry {entry!r} is not [[{dim} integers], re, im]")
        key = tuple(number(v, f"sequence index {index!r}", int) for v in index)
        re, im = (number(v, f"sequence entry {entry!r}") for v in entry[1:])
        if key in entries:
            raise ValueError(f"sequence index {index!r} appears twice")
        entries[key] = complex(re, im)
    return SparseSeq(dim, entries)


def _pairs_from_json(obj, shape: tuple, what: str) -> np.ndarray:
    """Complex array of `shape` (None: any length) from nested lists whose
    innermost items are [re, im] pairs of finite JSON numbers."""
    pairs = np.array(obj, dtype=object)  # ragged nesting gives fewer dimensions
    want = (*shape, 2)
    fits = pairs.ndim == len(want) and all(n in (None, m) for n, m in zip(want, pairs.shape))
    if not (fits and set(map(type, pairs.flat)) <= {int, float}):
        dims = ", ".join("n" if n is None else str(n) for n in want)
        raise ValueError(f"{what} must be an array of [re, im] number pairs of shape ({dims})")
    try:
        values = pairs.astype(float)
    except OverflowError:  # an integer beyond float range
        values = np.inf
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{what} values must be finite (no NaN or infinity)")
    return values.view(complex)[..., 0]  # a view keeps the sign of every zero


def signal_from_json(obj, N=None, what="signal") -> np.ndarray:
    return _pairs_from_json(obj, (N,), what)


def field_from_json(obj, N=None, what="field") -> np.ndarray:
    return _pairs_from_json(obj, (N, N), what)


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
    """Parsed JSON file; malformed or too deeply nested JSON raises ValueError."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{path} is not valid JSON: {exc}") from exc
