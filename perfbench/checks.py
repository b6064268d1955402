"""Checks of one `gml` operation's outputs, each raising CheckFailed.

Every check derives its expectation from the generated inputs through
`oracles`, or from an inequality the mathematics guarantees; none compares
against a stored copy of an earlier output.  `outputs` maps the key of each
operation in the same round to its output directory, so a product or an
inverse can be bounded by the envelopes of its factors.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import oracles

SUITE_COUNT = 16
EXACT = 1e-10  # relative agreement of two exact computations in float64


class CheckFailed(AssertionError):
    pass


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def close(a: float, b: float, what: str, rel: float = 1e-9) -> None:
    expect(math.isclose(a, b, rel_tol=rel, abs_tol=1e-300), f"{what}: {a!r} != {b!r}")


def report(out: Path) -> dict:
    with open(out / "report.json") as fh:
        return json.load(fh)


def config_echo(rep: dict, **expected) -> None:
    cfg = rep["config"]
    for key, value in expected.items():
        expect(cfg[key] == value, f"report config {key} = {cfg[key]!r}, expected {value!r}")


def read_envelope(path: Path, N: int) -> np.ndarray:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    expect(data.shape == (N * N, 3), f"{path.name}: {data.shape[0]} rows, expected {N * N}")
    h = np.full((N, N), np.nan)
    h[data[:, 0].astype(int) % N, data[:, 1].astype(int) % N] = data[:, 2]
    expect(bool(np.all(np.isfinite(h))), f"{path.name}: lattice points missing")
    expect(bool(np.all(h >= 0)), f"{path.name}: negative envelope value")
    return h


def stats_match(fields: dict, h: np.ndarray, q: float, s: float, what: str) -> None:
    norm, tail = oracles.envelope_stats(h, q, s)
    close(fields["quasi_norm"], norm, f"{what} quasi_norm")
    expect(abs(fields["tail_fraction"] - tail) <= 1e-9, f"{what} tail_fraction {fields['tail_fraction']} != {tail}")


def operator(sigma: np.ndarray, chi: np.ndarray) -> np.ndarray:
    T = oracles.weyl_operator(sigma)
    N = sigma.shape[0]
    if not np.array_equal(chi % N, np.eye(2, dtype=int)):
        T = T @ oracles.metaplectic(chi, N)
    return T


def envelope(out: Path, stdout: Path, outputs: dict, *, N, q, s, sigma, chi, window) -> None:
    """The envelope CSV equals a brute-force max over the whole lattice."""
    rep = report(out)
    config_echo(rep, command="envelope", N=N, q=q, s=s)
    h = read_envelope(out / "envelope.csv", N)
    ref = oracles.envelope(operator(sigma, chi), chi, oracles.parseval(window))
    err = float(np.max(np.abs(h - ref)))
    expect(err <= EXACT * ref.max(), f"envelope differs from brute force by {err:.3e}")
    stats_match(rep["results"], h, q, s, "envelope")


def bound_holds(h: np.ndarray, bound: np.ndarray, what: str) -> None:
    excess = float(np.max(h - bound))
    expect(excess <= EXACT * float(bound.max()), f"{what} exceeds its product bound by {excess:.3e}")


def compose(out: Path, stdout: Path, outputs: dict, *, N, q, s, chi1, first, second) -> None:
    """h_{T1 T2}(mu) <= sum_nu h_{T1}(mu - chi1 nu) h_{T2}(nu), factors from envelope ops."""
    rep = report(out)
    config_echo(rep, command="compose", N=N, q=q, s=s)
    h12 = read_envelope(out / "composite_envelope.csv", N)
    h1 = read_envelope(outputs[first] / "envelope.csv", N)
    h2 = read_envelope(outputs[second] / "envelope.csv", N)
    bound_holds(h12, oracles.twisted_convolution(h1, chi1, h2), "composite envelope")
    res = rep["results"]
    stats_match(res, h12, q, s, "composite")
    n1, _ = oracles.envelope_stats(h1, q, s)
    n2, _ = oracles.envelope_stats(h2, q, s)
    close(res["quasi_norm_ratio"], res["quasi_norm"] / (n1 * n2), "quasi_norm_ratio")


def invert(out: Path, stdout: Path, outputs: dict, *, N, q, s, chi, window, forward) -> None:
    """|V_gamma gamma| = h_I <= sum_nu h_{T^-1}(mu - chi^-1 nu) h_T(nu)."""
    rep = report(out)
    config_echo(rep, command="invert", N=N, q=q, s=s)
    hinv = read_envelope(out / "inverse_envelope.csv", N)
    hT = read_envelope(outputs[forward] / "envelope.csv", N)
    a, b, c, d = (np.asarray(chi) % N).ravel()
    chi_inv = np.array([[d, -b], [-c, a]]) % N
    identity = oracles.ambiguity(oracles.parseval(window))
    bound_holds(identity, oracles.twisted_convolution(hinv, chi_inv, hT), "identity envelope")
    stats_match(rep["results"]["inverse"], hinv, q, s, "inverse")
    stats_match(rep["results"]["forward"], hT, q, s, "forward")


def factorize(out: Path, stdout: Path, outputs: dict, *, N, sigma) -> None:
    """T = Op(sigma1) U must give back the symbol T was built from."""
    rep = report(out)
    config_echo(rep, command="factorize", N=N)
    data = np.loadtxt(out / "sigma1.csv", delimiter=",", skiprows=1, ndmin=2)
    expect(data.shape == (N * N, 4), f"sigma1.csv has {data.shape[0]} rows, expected {N * N}")
    sigma1 = np.zeros((N, N), dtype=complex)
    sigma1[data[:, 0].astype(int), data[:, 1].astype(int)] = data[:, 2] + 1j * data[:, 3]
    err = float(np.max(np.abs(sigma1 - sigma)))
    expect(err <= 1e-9 * float(np.max(np.abs(sigma))), f"sigma1 differs from the input symbol by {err:.3e}")
    for name in ("op_then_mu", "mu_then_op"):
        expect(rep["results"]["residuals"][name] <= 1e-9, f"residual {name} too large")


def gabor_matrix(out: Path, stdout: Path, outputs: dict, *, N, window) -> None:
    """The Gabor matrix of Op(1) = I is P^H P, a projection of norm 1."""
    rep = report(out)
    config_echo(rep, command="gabor-matrix", N=N, symbol="one")
    data = np.loadtxt(out / "gabor_matrix.csv", delimiter=",", skiprows=1, ndmin=2)
    expect(data.shape == (N**4, 6), f"gabor_matrix.csv has {data.shape[0]} rows, expected {N**4}")
    M = np.zeros((N * N, N * N), dtype=complex)
    M[(data[:, 0] * N + data[:, 1]).astype(int), (data[:, 2] * N + data[:, 3]).astype(int)] = (
        data[:, 4] + 1j * data[:, 5]
    )
    err = float(np.max(np.abs(M - oracles.gabor_gram(oracles.parseval(window)))))
    expect(err <= 1e-12, f"Gabor matrix differs from P^H P by {err:.3e}")
    close(rep["results"]["operator_norm"], 1.0, "operator_norm")


def seq_invert(out: Path, stdout: Path, outputs: dict, *, sequence) -> None:
    """a * b - delta, convolved here, must vanish to the inverse's truncation."""
    res = report(out)["results"]
    inverse = res["inverse"]
    expect(inverse["dim"] == sequence["dim"], "inverse has the wrong dimension")
    expect(res["support_size"] == len(inverse["entries"]), "support_size disagrees with the inverse")
    r = oracles.sequence_residual_l1(sequence["entries"], inverse["entries"], sequence["dim"])
    expect(r <= 1e-8, f"a * b - delta has l1 norm {r:.3e}")
    expect(abs(res["residual_l1"] - r) <= 1e-12, f"residual_l1 {res['residual_l1']:.3e} != {r:.3e}")


def amalgam(out: Path, stdout: Path, outputs: dict, *, q, s) -> None:
    """F o I = F exactly, and every ratio respects the covering bound."""
    rep = report(out)
    config_echo(rep, command="amalgam", q=q, s=s)
    res = rep["results"]
    conv = res["conv_embedding_ratio"]
    expect(math.isfinite(conv) and conv > 0, f"conv_embedding_ratio {conv!r}")
    seen_identity = False
    for item in res["gl_invariance"]:
        expect(item["beta"] >= 1, "covering multiplicity below 1")
        expect(item["ratio"] ** q <= item["bound"] * (1 + 1e-9), f"ratio^q above bound for {item['matrix']}")
        if item["matrix"] == [[1.0, 0.0], [0.0, 1.0]]:
            seen_identity = True
            expect(abs(item["ratio"] - 1.0) <= 1e-12, f"identity ratio {item['ratio']!r} != 1")
    expect(seen_identity, "no identity matrix in gl_invariance")


def verify(out: Path, stdout: Path, outputs: dict, *, N, q, s, seed) -> None:
    """Every one of the 16 suites passes, in the report and on stdout."""
    rep = report(out)
    config_echo(rep, command="verify", N=N, q=q, s=s, seed=seed)
    res = rep["results"]
    suites = res["suites"]
    expect(res["suite_count"] == SUITE_COUNT == len(suites), f"{len(suites)} suites, expected {SUITE_COUNT}")
    failed = [x["name"] for x in suites if not x["passed"]]
    expect(res["all_passed"] is True and not failed, f"suites failed: {failed}")
    lines = stdout.read_text().splitlines()
    expect(sum(line.startswith("pass ") for line in lines) == SUITE_COUNT, "stdout lacks 16 pass lines")
