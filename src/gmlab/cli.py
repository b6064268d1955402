"""Experiment runner: one command per capability, JSON report plus CSV data.

Usage:
    gml COMMAND [--config PATH] [--N INT] [--q F] [--s F] [--chi a,b,c,d]
                [--window NAME|PATH] [--symbol NAME|PATH] [--out DIR]
                [--seed INT]

Commands: gabor-matrix, envelope, compose, invert, factorize, amalgam,
seq-invert, verify.  Options can also be given through a JSON config file;
command-line flags override it.

Exit codes: 0 success, 2 invalid config, 3 operator not invertible,
4 vanishing Fourier series, 5 numerical tolerance failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import fio, serialize, verify as verify_mod
from .amalgam import conv_embedding_check, gl_invariance_check
from .errors import (
    ContractionError,
    NotInvertibleError,
    ToleranceError,
    VanishingFourierError,
)
from .metaplectic import metaplectic_operator, require_odd_prime, require_symplectic
from .phase_space import gabor_system
from .presets import resolve_field, resolve_sequence, resolve_symbol, resolve_window
from .seq_algebra import QParams, invert_by_fourier
from .weyl import gabor_matrix, weyl_quantize

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NOT_INVERTIBLE = 3
EXIT_VANISHING_FOURIER = 4
EXIT_TOLERANCE = 5

SCHEMA_VERSION = 1

DEFAULT_MATRICES = [
    [[1.0, 0.0], [0.0, 1.0]],
    [[0.0, -1.0], [1.0, 0.0]],
    [[2.0, 0.0], [0.0, 0.5]],
    [[1.0, 1.0], [0.0, 1.0]],
    [[0.8, -0.6], [0.6, 0.8]],
]


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    command: str
    N: int = 7
    q: float = 0.5
    s: float = 1.0
    chi: list = field(default_factory=lambda: [[1, 0], [0, 1]])
    window: str = "gaussian"
    symbol: str = "near-identity"
    out: str = "."
    seed: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def qparams(self) -> QParams:
        return QParams(self.q, self.s)

    def chi_mat(self) -> np.ndarray:
        return np.asarray(self.chi, dtype=int)

    def to_json(self) -> dict:
        return {
            "command": self.command,
            "N": self.N,
            "q": self.q,
            "s": self.s,
            "chi": serialize.sympmat_to_json(self.chi_mat()),
            "window": self.window,
            "symbol": self.symbol,
            "out": self.out,
            "seed": self.seed,
            "extra": self.extra,
        }


def _parse_chi(text: str) -> list:
    parts = text.split(",")
    if len(parts) != 4:
        raise ConfigError(f"--chi expects 'a,b,c,d', got {text!r}")
    a, b, c, d = (int(v) for v in parts)
    return [[a, b], [c, d]]


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    cfg = ExperimentConfig(command=args.command)
    if args.config:
        try:
            raw = serialize.load_json(args.config)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config file must hold a JSON object")
        known = {"N", "q", "s", "chi", "window", "symbol", "out", "seed"}
        for key, value in raw.items():
            if key in known:
                setattr(cfg, key, value)
            else:
                cfg.extra[key] = value
    for name in ("N", "q", "s", "window", "symbol", "out", "seed"):
        value = getattr(args, name.replace("-", "_"), None)
        if value is not None:
            setattr(cfg, name, value)
    if args.chi is not None:
        cfg.chi = _parse_chi(args.chi)

    _validate(cfg)
    return cfg


def _validate(cfg: ExperimentConfig) -> None:
    try:
        cfg.N = int(cfg.N)
        cfg.q = float(cfg.q)
        cfg.s = float(cfg.s)
        cfg.seed = int(cfg.seed)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed numeric option: {exc}") from exc
    for key in ("window", "symbol", "out"):
        if not isinstance(getattr(cfg, key), str):
            raise ConfigError(f"{key} must be a string, got {getattr(cfg, key)!r}")
    if not 0.0 < cfg.q <= 1.0:
        raise ConfigError(f"q must lie in (0, 1], got {cfg.q}")
    if cfg.s < 0:
        raise ConfigError(f"s must be >= 0, got {cfg.s}")
    needs_lattice = cfg.command in (
        "gabor-matrix", "envelope", "compose", "invert", "factorize", "verify",
    )
    if needs_lattice:
        try:
            require_odd_prime(cfg.N)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        try:
            require_symplectic(cfg.chi_mat(), cfg.N)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


def _extra_number(cfg: ExperimentConfig, key: str, default, kind=float):
    """The `extra` field `key` as a finite `kind`, or `default` when absent;
    bools, strings, NaN, infinity and fractions for an int are rejected."""
    value = cfg.extra.get(key, default)
    finite = serialize._finite_number(value) and abs(value) <= sys.float_info.max
    if key in cfg.extra and not (finite and kind(value) == value):
        raise ConfigError(f"{key} must be a finite {kind.__name__}, got {value!r}")
    return value if value is None else kind(value)


def _seeded_system(cfg: ExperimentConfig):
    """The seeded generator and the Gabor system of the configured window;
    a random window takes the generator's first draws."""
    rng = np.random.default_rng(cfg.seed)
    return rng, gabor_system(resolve_window(cfg.window, cfg.N, rng))


def _resolve_operator(cfg: ExperimentConfig, rng) -> np.ndarray:
    """Weyl operator of the configured symbol times the metaplectic unitary
    of the configured map (identity chi contributes nothing)."""
    sigma = resolve_symbol(cfg.symbol, cfg.N, rng)
    T = weyl_quantize(sigma)
    chi = require_symplectic(cfg.chi_mat(), cfg.N)
    if not np.array_equal(chi, np.eye(2, dtype=int)):
        T = T @ metaplectic_operator(chi, cfg.N)
    return T


def emit_report(cfg: ExperimentConfig, results: dict, datasets: list) -> None:
    """Write report.json and the per-dataset CSV files, all at once.

    datasets is a list of (name, filename, columns, text) tuples; nothing
    is written until every payload has been rendered.
    """
    try:
        os.makedirs(cfg.out, exist_ok=True)
        report = {
            "schema_version": SCHEMA_VERSION,
            "config": cfg.to_json(),
            "results": results,
            "datasets": [
                {"name": name, "file": fname, "columns": cols}
                for name, fname, cols, _ in datasets
            ],
        }
        serialize.dump_json(report, os.path.join(cfg.out, "report.json"))
        for _, fname, _, text in datasets:
            with open(os.path.join(cfg.out, fname), "w", newline="") as fh:
                fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write outputs: {exc}") from exc


def _report_fields(rep: fio.FioReport) -> dict:
    return {
        "quasi_norm": rep.quasi_norm,
        "tail_fraction": rep.tail_fraction,
        "decay_exponent": rep.decay_exponent,
    }


def cmd_gabor_matrix(cfg: ExperimentConfig) -> int:
    rng, sys_ = _seeded_system(cfg)
    T = weyl_quantize(resolve_symbol(cfg.symbol, cfg.N, rng))
    M = gabor_matrix(T, sys_)
    datasets = [
        (
            "gabor_matrix",
            "gabor_matrix.csv",
            ["mu_k", "mu_l", "lam_k", "lam_l", "re", "im"],
            serialize.gabor_csv(M, cfg.N),
        )
    ]
    emit_report(cfg, {"operator_norm": float(np.linalg.norm(M, 2))}, datasets)
    return EXIT_OK


def cmd_envelope(cfg: ExperimentConfig) -> int:
    rng, sys_ = _seeded_system(cfg)
    T = _resolve_operator(cfg, rng)
    env = fio.envelope(T, cfg.chi_mat(), sys_)
    rep = fio.fio_report(env, cfg.qparams)
    datasets = [
        ("envelope", "envelope.csv", ["mu_k", "mu_l", "value"],
         serialize.envelope_csv(env.values)),
    ]
    emit_report(cfg, _report_fields(rep), datasets)
    return EXIT_OK


def cmd_compose(cfg: ExperimentConfig) -> int:
    rng, sys_ = _seeded_system(cfg)
    chi1 = require_symplectic(cfg.chi_mat(), cfg.N)
    chi2 = require_symplectic(
        np.asarray(cfg.extra.get("chi2", [[1, 0], [0, 1]]), dtype=int), cfg.N
    )
    symbol2 = cfg.extra.get("symbol2", cfg.symbol)
    T1 = weyl_quantize(resolve_symbol(cfg.symbol, cfg.N, rng)) @ metaplectic_operator(
        chi1, cfg.N
    )
    T2 = weyl_quantize(resolve_symbol(symbol2, cfg.N, rng)) @ metaplectic_operator(
        chi2, cfg.N
    )
    rep, ratio, env = fio.compose_check(T1, chi1, T2, chi2, sys_, cfg.qparams)
    datasets = [
        ("composite_envelope", "composite_envelope.csv", ["mu_k", "mu_l", "value"],
         serialize.envelope_csv(env.values)),
    ]
    emit_report(cfg, {**_report_fields(rep), "quasi_norm_ratio": ratio}, datasets)
    return EXIT_OK


def cmd_invert(cfg: ExperimentConfig) -> int:
    cond_tol = _extra_number(cfg, "cond_tol", 1e12)
    rng, sys_ = _seeded_system(cfg)
    T = _resolve_operator(cfg, rng)
    _, rep, env = fio.invert_fio(T, cfg.chi_mat(), sys_, cfg.qparams, cond_tol)
    forward = fio.fio_report(fio.envelope(T, cfg.chi_mat(), sys_), cfg.qparams)
    datasets = [
        ("inverse_envelope", "inverse_envelope.csv", ["mu_k", "mu_l", "value"],
         serialize.envelope_csv(env.values)),
    ]
    emit_report(
        cfg,
        {"inverse": _report_fields(rep), "forward": _report_fields(forward)},
        datasets,
    )
    return EXIT_OK


def cmd_factorize(cfg: ExperimentConfig) -> int:
    rng, sys_ = _seeded_system(cfg)
    T = _resolve_operator(cfg, rng)
    sigma1, sigma2, residuals = fio.factorize_fio(T, cfg.chi_mat(), sys_)
    datasets = [
        ("sigma1", "sigma1.csv", ["k", "l", "re", "im"], serialize.field_csv(sigma1)),
        ("sigma2", "sigma2.csv", ["k", "l", "re", "im"], serialize.field_csv(sigma2)),
    ]
    emit_report(cfg, {"residuals": residuals}, datasets)
    return EXIT_OK


def cmd_amalgam(cfg: ExperimentConfig) -> int:
    R = _extra_number(cfg, "R", 8, int)
    M = _extra_number(cfg, "samples_per_cell", 32, int)
    F = resolve_field(cfg.extra.get("field", "gaussian"), R, M)
    G = resolve_field(cfg.extra.get("field2", "bump"), R, M)
    p = cfg.qparams
    ratio = conv_embedding_check(F, G, p)
    matrices = cfg.extra.get("matrices", DEFAULT_MATRICES)
    gl_results = []
    for mat in matrices:
        res = gl_invariance_check(F, np.asarray(mat, dtype=float), p)
        gl_results.append(
            {
                "matrix": [[float(v) for v in row] for row in mat],
                "ratio": res.ratio,
                "beta": res.beta,
                "bound": res.bound,
            }
        )
    emit_report(
        cfg,
        {"conv_embedding_ratio": ratio, "gl_invariance": gl_results},
        [],
    )
    return EXIT_OK


def cmd_seq_invert(cfg: ExperimentConfig) -> int:
    grid = _extra_number(cfg, "grid", None, int)
    cutoff = _extra_number(cfg, "decay_cutoff", 1e-12)
    a = resolve_sequence(cfg.extra.get("sequence", "geometric"))
    result = invert_by_fourier(a, grid, cutoff)
    results = {
        "residual_l1": result.residual,
        "decay_rate": result.decay_rate,
        "support_size": len(result.seq),
        "inverse": serialize.seq_to_json(result.seq),
    }
    emit_report(cfg, results, [])
    return EXIT_OK


def cmd_verify(cfg: ExperimentConfig) -> int:
    results = verify_mod.run_all(cfg.N, cfg.qparams, cfg.seed)
    all_passed = all(r.passed for r in results)
    emit_report(
        cfg,
        {
            "suites": [r.to_json() for r in results],
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


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gml", description=__doc__)
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="JSON config file; flags override it")
    parser.add_argument("--N", type=int, default=None)
    parser.add_argument("--q", type=float, default=None)
    parser.add_argument("--s", type=float, default=None)
    parser.add_argument("--chi", default=None, help="symplectic matrix 'a,b,c,d'")
    parser.add_argument("--window", default=None, help="window preset or JSON path")
    parser.add_argument("--symbol", default=None, help="symbol preset or JSON path")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None)
    return parser


def _diagnostic(kind: str, detail: str) -> None:
    print(json.dumps({"error": kind, "detail": detail}), file=sys.stderr)


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed a message
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        cfg = build_config(args)
    except (ConfigError, ValueError) as exc:
        _diagnostic("config", str(exc))
        return EXIT_CONFIG
    try:
        return COMMANDS[cfg.command](cfg)
    except ConfigError as exc:
        _diagnostic("config", str(exc))
        return EXIT_CONFIG
    except (NotInvertibleError, ContractionError) as exc:
        _diagnostic("not-invertible", str(exc))
        return EXIT_NOT_INVERTIBLE
    except VanishingFourierError as exc:
        _diagnostic("vanishing-fourier-series", str(exc))
        return EXIT_VANISHING_FOURIER
    except ToleranceError as exc:
        _diagnostic("tolerance", str(exc))
        return EXIT_TOLERANCE
    except ValueError as exc:
        _diagnostic("config", str(exc))
        return EXIT_CONFIG


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
