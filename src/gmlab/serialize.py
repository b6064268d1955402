"""JSON and CSV wire formats.

Sequences:      {"dim": m, "entries": [[[n1, ..., nm], re, im], ...]}, m >= 1,
                no index twice, whose index box holds at most
                _lattice.MAX_CELLS cells
Signals:        [[re, im], ...] of length N
Fields:         row-major N x N array of [re, im] pairs
                (re and im finite JSON numbers, never bools or strings)
Symplectic:     [[a, b], [c, d]]
Envelope CSV:   columns mu_k, mu_l, value (centered indices)
Field CSV:      columns k, l, re, im
Gabor CSV:      columns mu_k, mu_l, lam_k, lam_l, re, im

All writers emit rows in a fixed order so identical inputs produce
byte-identical files.  The field and Gabor writers yield their header
line, then one block of lines per matrix row, so a file can be written
one row at a time: a Gabor CSV has N^4 lines.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator

import numpy as np

from ._lattice import centered, matrix_side, side
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


def _fmt(x: float) -> str:
    return repr(float(x))


def envelope_csv(values: np.ndarray) -> str:
    """CSV of an (N, N) nonnegative field indexed mod N, on centered mu."""
    N = side(values, "envelope")
    mu = centered(np.arange(N), N).tolist()
    lines = ["mu_k,mu_l,value"]
    for mu_k, row in zip(mu, np.asarray(values).tolist()):
        lines.extend(f"{mu_k},{mu_l},{_fmt(v)}" for mu_l, v in zip(mu, row))
    return "\n".join(lines) + "\n"


def _complex_csv(header: str, M: np.ndarray, labels: list) -> Iterator[str]:
    """CSV lines `{labels[row]}{labels[col]}{re},{im}` of a square complex
    matrix, formatted one matrix row at a time from tolist(): no cell becomes
    a numpy scalar, and only one row's cell strings are alive at a time."""
    yield header + "\n"
    for row, values in zip(labels, np.asarray(M, dtype=complex)):
        cells = zip(labels, values.real.tolist(), values.imag.tolist())
        yield "".join([f"{row}{col}{re!r},{im!r}\n" for col, re, im in cells])


def field_csv(field: np.ndarray) -> Iterator[str]:
    return _complex_csv("k,l,re,im", field, [f"{k}," for k in range(side(field, "field"))])


def gabor_csv(M: np.ndarray) -> Iterator[str]:
    N = matrix_side(M)
    labels = [f"{k},{l}," for k in range(N) for l in range(N)]
    return _complex_csv("mu_k,mu_l,lam_k,lam_l,re,im", M, labels)


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
