"""Seeded input lists for the workloads.

`build(workload, seed, inputs)` writes the generated window, symbol,
sequence and config files under `inputs` and returns one round: the list of
`gml` operations a run repeats whole.  The same seed gives the same files
and the same round.  Each round has a fixed make-up (commands and lattice
sizes), and for `verify` the seed draws only among settings of equal cost,
so the cost of a round does not depend on the seed; the seed draws
everything else.

`verify` and `fio_large` are the workloads of BENCHMARK.json.  `cli_small`
runs the other `gml` commands; it is run by hand and by the self-tests,
which is where its checks are exercised.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import checks

WORKLOADS = ("verify", "fio_large", "cli_small")

# Determinant-one integer matrices; every one is symplectic mod any N.
CHIS = (
    ((1, 0), (0, 1)),
    ((1, 1), (0, 1)),
    ((1, 0), (1, 1)),
    ((0, -1), (1, 0)),
    ((2, 1), (1, 1)),
    ((1, 2), (1, 3)),
)
QS = (0.5, 0.75, 1.0)
SS = (0.0, 1.0, 2.0)

# verify: every operation of a run is the same `gml verify --N 5` call,
# repeated; the seed draws its --seed, q and s.  About 90% of an operation
# is the seq_neumann suite.  Its Neumann degree depends only on q (34 terms
# for q in {0.75, 1}, 36 for q = 0.5), and its convolution work on the
# supports that --seed draws: over --seed 0..39 that work (sum of len*len
# over convolve calls) ranged from 0.85 M to 2.08 M.  The --seed values
# below all fall within 1.08-1.17 M, so the cost of an operation does not
# depend on the benchmark seed.  N = 5 keeps the exhaustive SL(2, Z_5)
# metaplectic sweep and is the cheapest lattice.  One repeated operation
# makes op_p50_s the median of like samples; a round of unlike operations
# put the median between two of them, and machine noise moved it from one
# to the other.
VERIFY_SEEDS = (1, 3, 6, 8, 12, 28, 29, 36)
VERIFY_QS = (0.75, 1.0)
VERIFY_N = 5

CLI_N = (7, 11, 13)
GABOR_N = 13


@dataclass(frozen=True)
class Op:
    """One `gml` call: its arguments (without --out) and the check of its outputs."""

    key: str
    args: tuple
    check: Callable


def _dump(path: Path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


def _pairs(v: np.ndarray) -> list:
    return [[float(z.real), float(z.imag)] for z in np.ravel(v)]


def _window(rng, N: int) -> np.ndarray:
    """Periodized Gaussian of random width with a 10% complex ripple."""
    t = np.arange(N)
    width = rng.uniform(0.6, 1.6)
    g = sum(np.exp(-np.pi * (t - j * N) ** 2 * width / N) for j in range(-4, 5))
    ripple = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    return g * (1.0 + 0.1 * ripple / np.sqrt(2))


def _symbol(rng, N: int) -> np.ndarray:
    """1 + 0.15 Z b with Z complex normal and b a phase-space bump of random width."""
    c = ((np.arange(N) + N // 2) % N) - N // 2
    r2 = c[:, None] ** 2 + c[None, :] ** 2
    bump = np.exp(-np.pi * r2 / (N * rng.uniform(0.5, 1.5)))
    Z = (rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))) / np.sqrt(2)
    return 1.0 + 0.15 * Z * bump


def _sequence(rng, dim: int, box: int) -> dict:
    """delta - t with four random masses in [-box, box]^dim and ||t||_1 = 0.4."""
    idx = rng.integers(-box, box + 1, size=(4, dim))
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    v *= 0.4 / np.abs(v).sum()
    entries = {(0,) * dim: 1.0 + 0j}
    for i, x in zip(map(tuple, idx.tolist()), v):
        entries[i] = entries.get(i, 0j) - x
    return {"dim": dim, "entries": [[list(i), x.real, x.imag] for i, x in sorted(entries.items())]}


def _chi_flag(chi, N: int) -> str:
    return ",".join(str(int(v) % N) for v in np.ravel(chi))


def _choice(rng, items):
    return items[int(rng.integers(len(items)))]


class _Lattice:
    """Window and symbol files shared by the fio operations of one N."""

    def __init__(self, rng, N: int, inputs: Path, tag: str):
        self.N = N
        self.window = _window(rng, N)
        self.window_file = _dump(inputs / f"window_{tag}.json", _pairs(self.window))
        self.rng = rng
        self.inputs = inputs
        self.tag = tag
        self.symbols: dict = {}

    def symbol(self, name: str):
        if name not in self.symbols:
            sigma = _symbol(self.rng, self.N)
            path = self.inputs / f"symbol_{self.tag}{name}.json"
            self.symbols[name] = (sigma, _dump(path, [_pairs(row) for row in sigma]))
        return self.symbols[name]

    def args(self, command: str, name: str, chi, q: float, s: float) -> list:
        return [
            command, "--N", str(self.N), "--q", str(q), "--s", str(s),
            "--chi", _chi_flag(chi, self.N), "--window", self.window_file,
            "--symbol", self.symbol(name)[1],
        ]


def _fio_group(rng, lat: _Lattice, operators: dict, compose_pair, invert_of, prefix: str) -> list:
    """Envelope ops for each named operator, then a compose (unless
    compose_pair is None) and an invert of them.

    operators maps a name to its chi; the compose and invert checks bound
    their envelopes by the envelope ops of the same round.
    """
    N = lat.N
    ops = []
    for name, chi in operators.items():
        q, s = _choice(rng, QS), _choice(rng, SS)
        sigma = lat.symbol(name)[0]
        ops.append(Op(
            f"{prefix}env{name}", tuple(lat.args("envelope", name, chi, q, s)),
            partial(checks.envelope, N=N, q=q, s=s, sigma=sigma, chi=np.array(chi), window=lat.window),
        ))
    if compose_pair:
        first, second = compose_pair
        q, s = _choice(rng, QS), _choice(rng, SS)
        cfg = _dump(lat.inputs / f"compose_{prefix}.json", {
            "symbol2": lat.symbol(second)[1], "chi2": [list(r) for r in operators[second]],
        })
        ops.append(Op(
            f"{prefix}compose",
            (*lat.args("compose", first, operators[first], q, s), "--config", cfg),
            partial(checks.compose, N=N, q=q, s=s, chi1=np.array(operators[first]),
                    first=f"{prefix}env{first}", second=f"{prefix}env{second}"),
        ))
    q, s = _choice(rng, QS), _choice(rng, SS)
    ops.append(Op(
        f"{prefix}invert", tuple(lat.args("invert", invert_of, operators[invert_of], q, s)),
        partial(checks.invert, N=N, q=q, s=s, chi=np.array(operators[invert_of]),
                window=lat.window, forward=f"{prefix}env{invert_of}"),
    ))
    return ops


def _verify(rng, inputs: Path) -> list:
    gml_seed, q, s = _choice(rng, VERIFY_SEEDS), _choice(rng, VERIFY_QS), _choice(rng, SS)
    return [Op(
        "verify",
        ("verify", "--N", str(VERIFY_N), "--q", str(q), "--s", str(s), "--seed", str(gml_seed)),
        partial(checks.verify, N=VERIFY_N, q=q, s=s, seed=gml_seed),
    )]


def _fio_large(rng, inputs: Path) -> list:
    # N = 61 carries the full group; N = 43 only an envelope and its
    # invert, which keeps a round near 22 s on a 2-core machine.  Sorted by
    # cost, a round is 2 N = 43 ops, the 2 N = 61 envelopes, the N = 61
    # invert and compose, so the median of whole rounds is an N = 61
    # envelope.
    lat = _Lattice(rng, 61, inputs, "n61")
    operators = {"A": CHIS[0], "B": _choice(rng, CHIS[1:])}
    pair = _choice(rng, (("A", "B"), ("B", "A"), ("B", "B"), ("A", "A")))
    ops = _fio_group(rng, lat, operators, pair, _choice(rng, ("A", "B")), "n61")
    lat = _Lattice(rng, 43, inputs, "n43")
    return ops + _fio_group(rng, lat, {"A": _choice(rng, CHIS)}, None, "A", "n43")


def _cli_small(rng, inputs: Path) -> list:
    N = _choice(rng, CLI_N)
    lat = _Lattice(rng, N, inputs, f"n{N}")
    chi = _choice(rng, CHIS)
    ops = _fio_group(rng, lat, {"A": chi}, ("A", "A"), "A", "")
    sigma = lat.symbol("A")[0]
    ops.append(Op(
        "factorize", ("factorize", "--N", str(N), "--chi", _chi_flag(chi, N),
                      "--window", lat.window_file, "--symbol", lat.symbol("A")[1]),
        partial(checks.factorize, N=N, sigma=sigma),
    ))
    window = _window(rng, GABOR_N)
    ops.append(Op(
        "gabor", ("gabor-matrix", "--N", str(GABOR_N), "--symbol", "one",
                  "--window", _dump(inputs / "window_gabor.json", _pairs(window))),
        partial(checks.gabor_matrix, N=GABOR_N, window=window),
    ))
    for dim, box, grid in ((1, 5, 4096), (2, 2, 256)):
        seq = _sequence(rng, dim, box)
        cfg = _dump(inputs / f"seq{dim}d.json", {
            "sequence": _dump(inputs / f"sequence{dim}d.json", seq), "grid": grid,
        })
        ops.append(Op(f"seq{dim}d", ("seq-invert", "--config", cfg),
                      partial(checks.seq_invert, sequence=seq)))
    q, s = _choice(rng, QS), _choice(rng, SS)
    # One dtype in every round: a real field would need ~25 MB less memory.
    cfg = _dump(inputs / "amalgam.json", {
        "field": "chirped-gaussian", "field2": _choice(rng, ("bump", "gaussian")),
    })
    ops.append(Op("amalgam", ("amalgam", "--q", str(q), "--s", str(s), "--config", cfg),
                  partial(checks.amalgam, q=q, s=s)))
    return ops


def build(workload: str, seed: int, inputs: Path) -> tuple:
    """Write the inputs of `workload` for `seed`; return (warm-up op, round in seeded order).

    The warm-up op is the first one built (an envelope for the fio
    workloads, so never the costly compose); it reappears in the round,
    and the repeat must give byte-identical outputs.
    """
    inputs.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    ops = {"verify": _verify, "fio_large": _fio_large, "cli_small": _cli_small}[workload](rng, inputs)
    return ops[0], [ops[i] for i in rng.permutation(len(ops))]
