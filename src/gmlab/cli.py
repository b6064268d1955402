"""Experiment runner: one command per capability, JSON report plus CSV data.

Usage:
    gml COMMAND [--config PATH] [--N INT] [--q F] [--s F] [--chi a,b,c,d]
                [--window NAME|PATH] [--symbol NAME|PATH] [--out DIR]
                [--seed INT]

Commands: gabor-matrix, envelope, compose, invert, factorize, amalgam,
seq-invert, verify.  Options can also be given through a JSON config file;
command-line flags override it.  The file may also hold the keys of one
command (OPTIONS): compose chi2, symbol2; invert cond_tol; amalgam R,
samples_per_cell, field, field2, matrices; seq-invert grid, decay_cutoff,
sequence.  Every key is checked whichever command runs (only seq-invert
parses a sequence object), so one valid file can serve several commands;
a key that no command reads exits 2.  Numbers must be finite JSON numbers,
integers where a count or an index is meant.

Exit codes: 0 success, 2 invalid config, 3 operator not invertible,
4 vanishing Fourier series, 5 numerical tolerance failure.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from dataclasses import asdict, dataclass
from functools import partial
from typing import Callable

import numpy as np

from . import fio, serialize, verify as verify_mod
from ._lattice import QParams, require_cells, require_modulus
from .amalgam import conv_embedding_check, gl_invariance_check
from .errors import (
    COND_TOL,
    DECAY_CUTOFF,
    ContractionError,
    NotInvertibleError,
    ToleranceError,
    VanishingFourierError,
)
from .metaplectic import require_symplectic
from .phase_space import gabor_system
from .presets import _spec, resolve_field, resolve_sequence, resolve_symbol, resolve_window
from .seq_algebra import invert_by_fourier
from .weyl import gabor_matrix, weyl_quantize

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NOT_INVERTIBLE = 3
EXIT_VANISHING_FOURIER = 4
EXIT_TOLERANCE = 5

SCHEMA_VERSION = 1


def _string(value, name: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a string, got {value!r}")
    return value


def _sequence(value, name: str):
    return value if isinstance(value, dict) else _spec(value, name)


def _matrix(value, name: str, kind=int) -> list:
    rows = value if isinstance(value, list) and len(value) == 2 else []
    if not (rows and all(isinstance(row, list) and len(row) == 2 for row in rows)):
        raise ValueError(f"{name} must be a 2x2 matrix [[a, b], [c, d]], got {value!r}")
    return [[serialize.number(v, name, kind) for v in row] for row in rows]


def _matrices(value, name: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{name} must be a list of 2x2 matrices, got {value!r}")
    return [_matrix(m, name, float) for m in value]


def _chi_flag(text: str) -> list:
    try:
        a, b, c, d = (int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects 'a,b,c,d', got {text!r}") from None
    return [[a, b], [c, d]]


_int = partial(serialize.number, kind=int)
_float = serialize.number


def _seed(value, name: str) -> int:
    seed = _int(value, name)
    if seed < 0:
        raise ValueError(f"{name} must be a non-negative int64, got {value!r}")
    return seed


@dataclass(frozen=True)
class Option:
    """One outside value.  `read(value, name)` checks a given value and
    returns it as the commands use it; `default` stands when it is not
    given.  An option with a `flag` (its argparse type) is echoed in
    report.json as read; the config keys of the others as given."""

    read: Callable
    default: object
    flag: Callable | None = None
    help: str | None = None


OPTIONS = {
    "N": Option(_int, 7, flag=int),
    "q": Option(_float, 0.5, flag=float),
    "s": Option(_float, 1.0, flag=float),
    "chi": Option(_matrix, [[1, 0], [0, 1]], flag=_chi_flag, help="symplectic matrix 'a,b,c,d'"),
    "window": Option(_spec, "gaussian", flag=str, help="window preset or JSON path"),
    "symbol": Option(_spec, "near-identity", flag=str, help="symbol preset or JSON path"),
    "out": Option(_string, ".", flag=str, help="output directory"),
    "seed": Option(_seed, 0, flag=int),
    # compose
    "chi2": Option(_matrix, [[1, 0], [0, 1]]),
    "symbol2": Option(_spec, None),  # None: the first symbol
    # invert
    "cond_tol": Option(_float, COND_TOL),
    # amalgam
    "R": Option(_int, 8),
    "samples_per_cell": Option(_int, 32),
    "field": Option(_spec, "gaussian"),
    "field2": Option(_spec, "bump"),
    "matrices": Option(_matrices, [
        [[1.0, 0.0], [0.0, 1.0]], [[0.0, -1.0], [1.0, 0.0]], [[2.0, 0.0], [0.0, 0.5]],
        [[1.0, 1.0], [0.0, 1.0]], [[0.8, -0.6], [0.6, 0.8]],
    ]),
    # seq-invert
    "grid": Option(_int, None),  # None: fitted to the support
    "decay_cutoff": Option(_float, DECAY_CUTOFF),
    "sequence": Option(_sequence, "geometric"),
}


def build_config(args: argparse.Namespace) -> argparse.Namespace:
    """Config file values overridden by flags, each read through OPTIONS, as
    the attributes of a namespace (cfg.N, cfg.grid, ...) with the command,
    `qparams` and `extra`: the config keys without a flag as given, for the
    report."""
    raw = serialize.load_json(args.config) if args.config else {}
    if not isinstance(raw, dict):
        raise ValueError("config file must hold a JSON object")
    unknown = sorted(set(raw) - set(OPTIONS))
    if unknown:
        raise ValueError(f"unknown config key {unknown[0]!r}; known: {', '.join(OPTIONS)}")
    flags = {name: v for name, v in vars(args).items() if name in OPTIONS and v is not None}
    given = {**raw, **flags}
    values = {
        name: opt.read(given[name], name) if name in given else opt.default
        for name, opt in OPTIONS.items()
    }
    extra = {k: v for k, v in raw.items() if not OPTIONS[k].flag}
    cfg = argparse.Namespace(command=args.command, **values, extra=extra,
                             qparams=QParams(values["q"], values["s"]))
    if cfg.command in ("gabor-matrix", "envelope", "compose", "invert", "factorize", "verify"):
        # before any N x N allocation
        require_cells(cfg.N**2, f"N = {cfg.N}: an N x N operator")
        require_modulus(cfg.N)
        require_symplectic(cfg.chi, cfg.N)
    return cfg


def _seeded_system(cfg: argparse.Namespace):
    """The seeded generator and the Gabor system of the configured window;
    a random window takes the generator's first draws.  The generator is
    built only when the window or a symbol is the `random` preset (None
    otherwise), so other inputs never load numpy.random."""
    draws = "random" in (cfg.window, cfg.symbol, cfg.symbol2)
    rng = np.random.default_rng(cfg.seed) if draws else None
    return rng, gabor_system(resolve_window(cfg.window, cfg.N, rng))


def _nulled(results: dict) -> dict:
    """results with JSON null for the documented inf of a decay fit on fewer
    than two points or of a ratio over a zero norm; any other NaN or inf stays."""
    fits = ("decay_rate", "decay_exponent", "quasi_norm_ratio")
    return {**results, **{key: None for key in fits if results.get(key) == np.inf}}


def emit_report(cfg: argparse.Namespace, results: dict, datasets: list) -> None:
    """Write report.json, then each dataset's CSV file one block at a time.

    datasets is a list of (name, csv) pairs, written to name.csv, csv either
    the whole text or an iterable of text blocks; the columns are read from
    the header line that starts the first block.  Nothing is written until
    the report is known to hold no NaN or infinity, which JSON cannot represent.
    """
    blocks = [iter([csv] if isinstance(csv, str) else csv) for _, csv in datasets]
    firsts = [next(csv) for csv in blocks]
    report = {
        "schema_version": SCHEMA_VERSION,
        "config": {
            "command": cfg.command,
            **{name: getattr(cfg, name) for name, opt in OPTIONS.items() if opt.flag},
            "extra": cfg.extra,
        },
        "results": results,
        "datasets": [
            {"name": name, "file": f"{name}.csv", "columns": first.split("\n", 1)[0].split(",")}
            for (name, _), first in zip(datasets, firsts)
        ],
    }
    try:
        json.dumps(report, allow_nan=False)
    except ValueError as exc:
        raise ValueError(f"report.json cannot hold NaN or infinity ({exc})") from None
    os.makedirs(cfg.out, exist_ok=True)
    serialize.dump_json(report, os.path.join(cfg.out, "report.json"))
    for (name, _), first, csv in zip(datasets, firsts, blocks):
        with open(os.path.join(cfg.out, f"{name}.csv"), "w", newline="") as fh:
            fh.write(first)
            fh.writelines(csv)


def cmd_gabor_matrix(cfg: argparse.Namespace) -> int:
    rng, sys_ = _seeded_system(cfg)
    T = weyl_quantize(resolve_symbol(cfg.symbol, cfg.N, rng))
    M = gabor_matrix(T, sys_)
    datasets = [("gabor_matrix", serialize.gabor_csv(M))]
    # the Parseval window gives P P^H = I, so ||P^H T P||_2 = ||T||_2
    emit_report(cfg, {"operator_norm": float(np.linalg.norm(T, 2))}, datasets)
    return EXIT_OK


def cmd_envelope(cfg: argparse.Namespace) -> int:
    rng, sys_ = _seeded_system(cfg)
    T = fio.fio_operator(resolve_symbol(cfg.symbol, cfg.N, rng), cfg.chi)
    env = fio.envelope(T, cfg.chi, sys_)
    datasets = [("envelope", serialize.envelope_csv(env.values))]
    emit_report(cfg, _nulled(asdict(fio.fio_report(env, cfg.qparams))), datasets)
    return EXIT_OK


def cmd_compose(cfg: argparse.Namespace) -> int:
    rng, sys_ = _seeded_system(cfg)
    sigma = resolve_symbol(cfg.symbol, cfg.N, rng)
    sigma2 = sigma if cfg.symbol2 is None else resolve_symbol(cfg.symbol2, cfg.N, rng)
    T1, T2 = fio.fio_operator(sigma, cfg.chi), fio.fio_operator(sigma2, cfg.chi2)
    rep, ratio, env = fio.compose_check(T1, cfg.chi, T2, cfg.chi2, sys_, cfg.qparams)
    datasets = [("composite_envelope", serialize.envelope_csv(env.values))]
    emit_report(cfg, _nulled({**asdict(rep), "quasi_norm_ratio": ratio}), datasets)
    return EXIT_OK


def cmd_invert(cfg: argparse.Namespace) -> int:
    rng, sys_ = _seeded_system(cfg)
    T = fio.fio_operator(resolve_symbol(cfg.symbol, cfg.N, rng), cfg.chi)
    _, rep, env = fio.invert_fio(T, cfg.chi, sys_, cfg.qparams, cfg.cond_tol)
    forward = fio.fio_report(fio.envelope(T, cfg.chi, sys_), cfg.qparams)
    datasets = [("inverse_envelope", serialize.envelope_csv(env.values))]
    results = {"inverse": _nulled(asdict(rep)), "forward": _nulled(asdict(forward))}
    emit_report(cfg, results, datasets)
    return EXIT_OK


def cmd_factorize(cfg: argparse.Namespace) -> int:
    # the system goes unused, but a random window still takes the first
    # draws before a random symbol, and a bad window still exits 2
    rng, _ = _seeded_system(cfg)
    T = fio.fio_operator(resolve_symbol(cfg.symbol, cfg.N, rng), cfg.chi)
    sigma1, sigma2, residuals = fio.factorize_fio(T, cfg.chi)
    datasets = [
        ("sigma1", serialize.field_csv(sigma1)),
        ("sigma2", serialize.field_csv(sigma2)),
    ]
    emit_report(cfg, {"residuals": residuals}, datasets)
    return EXIT_OK


def cmd_amalgam(cfg: argparse.Namespace) -> int:
    F = resolve_field(cfg.field, cfg.R, cfg.samples_per_cell)
    G = resolve_field(cfg.field2, cfg.R, cfg.samples_per_cell)
    ratio = conv_embedding_check(F, G, cfg.qparams)
    gl_results = [
        {"matrix": mat, **asdict(gl_invariance_check(F, np.asarray(mat, float), cfg.qparams))}
        for mat in cfg.matrices
    ]
    emit_report(cfg, {"conv_embedding_ratio": ratio, "gl_invariance": gl_results}, [])
    return EXIT_OK


def cmd_seq_invert(cfg: argparse.Namespace) -> int:
    result = invert_by_fourier(resolve_sequence(cfg.sequence), cfg.grid, cfg.decay_cutoff)
    results = {
        "residual_l1": result.residual,
        "decay_rate": result.decay_rate,
        "support_size": len(result.seq),
        "inverse": serialize.seq_to_json(result.seq),
    }
    emit_report(cfg, _nulled(results), [])
    return EXIT_OK


def cmd_verify(cfg: argparse.Namespace) -> int:
    results = verify_mod.run_all(cfg.N, cfg.qparams, cfg.seed)
    all_passed = all(r.passed for r in results)
    emit_report(
        cfg,
        {
            "suites": [asdict(r) for r in results],
            "suite_count": len(results),
            "all_passed": all_passed,
        },
        [],
    )
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(f"{status}  {r.name}  checks={r.checks}  max_violation={r.max_violation:.3e}")
    return EXIT_OK if all_passed else EXIT_TOLERANCE


COMMANDS = {
    "gabor-matrix": cmd_gabor_matrix,
    "envelope": cmd_envelope,
    "compose": cmd_compose,
    "invert": cmd_invert,
    "factorize": cmd_factorize,
    "amalgam": cmd_amalgam,
    "seq-invert": cmd_seq_invert,
    "verify": cmd_verify,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a one-line JSON diagnostic, like every bad input
        raise ValueError(message)


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gml", description=__doc__)
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="JSON config file; flags override it")
    for name, opt in OPTIONS.items():
        if opt.flag:
            parser.add_argument(f"--{name}", type=opt.flag, help=opt.help)
    return parser


def _diagnostic(kind: str, detail: str) -> None:
    print(json.dumps({"error": kind, "detail": detail}), file=sys.stderr)


def main(argv=None) -> int:
    try:
        args = make_parser().parse_args(argv)
        return COMMANDS[args.command](build_config(args))
    except SystemExit:  # --help printed the usage
        return EXIT_OK
    except (NotInvertibleError, ContractionError, np.linalg.LinAlgError) as exc:
        # LinAlgError subclasses ValueError: a singular matrix, not a bad value
        _diagnostic("not-invertible", str(exc))
        return EXIT_NOT_INVERTIBLE
    except VanishingFourierError as exc:
        _diagnostic("vanishing-fourier-series", str(exc))
        return EXIT_VANISHING_FOURIER
    except ToleranceError as exc:
        _diagnostic("tolerance", str(exc))
        return EXIT_TOLERANCE
    except (ValueError, OSError) as exc:  # a bad outside value, or an unreadable file
        _diagnostic("config", str(exc))
        return EXIT_CONFIG


def entry() -> None:
    gc.freeze()  # the imports live until exit: frozen, the exit collection skips them
    sys.exit(main())


if __name__ == "__main__":
    entry()
