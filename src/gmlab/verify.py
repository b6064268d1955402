"""Deterministic property suites behind the `verify` CLI command.

A suite is one generator `(N, p, rng) -> violations` that yields one
violation per check: how far the checked quantity exceeds its bound (a
negative number when it holds with room to spare).  The `_suite(name, tag,
slack)` line above it registers the generator in `ALL_SUITES` and turns it
into the runner `(N, p, seed) -> SuiteResult`: the runner draws from
`default_rng([seed, tag])`, counts the checks and reports the worst
violation (at least 0.0); the suite passes when that is at most `slack`.
Suites run in definition order; results are sorted by name before
reporting.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass

import numpy as np

from . import fio, matrix_algebra as ma, metaplectic as mp
from ._lattice import centered_radius
from .errors import SUITE_SLACK, VanishingFourierError
from .phase_space import gabor_system, gaussian_window, stft, synthesize, frame_bounds
from .presets import delta_window, gaussian_bump_symbol
from .seq_algebra import (
    QParams,
    SparseSeq,
    convolve,
    invert_by_fourier,
    neumann_inverse,
    pointwise_product,
    qnorm,
    qnorm_weighted,
)
from .weyl import duality_pairing, gabor_matrix, weyl_dequantize, weyl_quantize


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    checks: int
    max_violation: float

    def to_json(self) -> dict:
        return asdict(self)


ALL_SUITES: list = []


def _suite(name: str, tag: int, slack: float = 0.0):
    """Register the check generator below as the suite `name` (see above)."""

    def register(checks):
        @functools.wraps(checks)
        def run(N: int, p: QParams, seed: int) -> SuiteResult:
            worst, n = 0.0, 0
            for violation in checks(N, p, np.random.default_rng([seed, tag])):
                worst, n = max(worst, violation), n + 1
            return SuiteResult(name, worst <= slack, n, worst)

        ALL_SUITES.append(run)
        return run

    return register


def random_sparse(rng, dim=2, size=6, box=3) -> SparseSeq:
    """`size` complex normal draws at indices in [-box, box]^dim; repeats add up."""
    draws = [(rng.integers(-box, box + 1, size=dim), complex(*rng.standard_normal(2)))
             for _ in range(size)]
    return SparseSeq(dim, draws)


def random_sympmat(rng, N: int) -> np.ndarray:
    while True:
        m = rng.integers(0, N, size=(2, 2))
        if (m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]) % N == 1:
            return np.asarray(m, dtype=int)


def random_decaying_matrix(rng, N: int) -> np.ndarray:
    """Lattice matrix with |entries| <= exp(-0.8 |mu|) along diagonal mu."""
    prof = ma.convolution_matrix(np.exp(-0.8 * centered_radius(N)))
    phase = np.exp(2j * np.pi * rng.random((N * N, N * N)))
    mag = rng.random((N * N, N * N))
    return prof * mag * phase


def _rel_excess(lhs: float, rhs: float) -> float:
    """Violation of lhs <= rhs normalized by the bound's own scale."""
    return (lhs - rhs) / max(1.0, abs(rhs))


def _complex_normal(rng, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@_suite("seq_young", 1, SUITE_SLACK)
def suite_seq_young(N, p, rng):
    for _ in range(40):
        a = random_sparse(rng)
        b = random_sparse(rng)
        yield _rel_excess(qnorm(convolve(a, b), p), qnorm(a, p) * qnorm(b, p))


@_suite("seq_qtriangle", 2, SUITE_SLACK)
def suite_seq_qtriangle(N, p, rng):
    for _ in range(40):
        a = random_sparse(rng)
        b = random_sparse(rng)
        yield _rel_excess(qnorm(a + b, p) ** p.q, qnorm(a, p) ** p.q + qnorm(b, p) ** p.q)


@_suite("seq_hoelder", 3, SUITE_SLACK)
def suite_seq_hoelder(N, p, rng):
    for _ in range(40):
        a = random_sparse(rng)
        b = random_sparse(rng)
        lhs = qnorm_weighted(pointwise_product(a, b), p.q, 0.0)
        rhs = qnorm_weighted(a, 2 * p.q, p.s) * qnorm_weighted(b, 2 * p.q, -p.s)
        yield _rel_excess(lhs, rhs)


@_suite("seq_inclusion", 4, SUITE_SLACK)
def suite_seq_inclusion(N, p, rng):
    for _ in range(40):
        a = random_sparse(rng)
        yield max(
            _rel_excess(qnorm(a, QParams(1.0, p.s)), qnorm(a, p)),
            _rel_excess(qnorm(a, p), qnorm(a, QParams(p.q / 2, p.s))),
        )


@_suite("seq_neumann", 5, SUITE_SLACK)
def suite_seq_neumann(N, p, rng):
    tol = 1e-10
    delta = SparseSeq.delta(2)
    for _ in range(10):
        x = random_sparse(rng, size=4, box=2)
        x = (0.5 / qnorm(x, p)) * x
        inv = neumann_inverse(x, p, tol)
        residual = qnorm(convolve(delta - x, inv) - delta, p) - tol
        nx = qnorm(x, p)
        bound = nx**2 / (1.0 - nx**p.q) ** (1.0 / p.q)
        yield max(residual, qnorm(inv - delta - x, p) - bound * (1 + 1e-9))


@_suite("seq_fourier_inverse", 6, SUITE_SLACK)
def suite_seq_fourier(N, p, rng):
    for _ in range(4):
        tail = random_sparse(rng, dim=1, size=3, box=3)
        tail = (0.35 / qnorm(tail, QParams(1.0, 0.0))) * tail
        yield invert_by_fourier(SparseSeq.delta(1) - tail, grid=4096).residual - 1e-8
    for bad in (
        SparseSeq.delta(1) - SparseSeq.unit(1),
        0.5 * SparseSeq.delta(1) + 0.5 * SparseSeq.unit(2),
    ):
        try:
            invert_by_fourier(bad, grid=4096)
            yield 1.0  # rejection expected
        except VanishingFourierError:
            yield 0.0


@_suite("frame_tight", 7)
def suite_frame_tight(N, p, rng):
    for g in [delta_window(N), gaussian_window(N), _complex_normal(rng, N)]:
        sys = gabor_system(g)
        a, b = frame_bounds(sys)
        target = N * float(np.sum(np.abs(g) ** 2))
        yield max(abs(a - target) - 1e-10, abs(b - target) - 1e-10)
        f = _complex_normal(rng, N)
        rec = synthesize(stft(f, sys.parseval_window), sys)
        yield float(np.linalg.norm(rec - f)) - 1e-10


@_suite("weyl_duality", 8)
def suite_weyl_duality(N, p, rng):
    for _ in range(10):
        sigma = _complex_normal(rng, (N, N))
        f = _complex_normal(rng, N)
        g = _complex_normal(rng, N)
        lhs = complex(np.vdot(g, weyl_quantize(sigma) @ f))  # <Op f, g>
        yield abs(lhs - duality_pairing(sigma, f, g)) - 1e-11


@_suite("weyl_roundtrip", 9)
def suite_weyl_roundtrip(N, p, rng):
    for _ in range(5):
        sigma = _complex_normal(rng, (N, N))
        yield float(np.max(np.abs(weyl_dequantize(weyl_quantize(sigma)) - sigma))) - 1e-12


@_suite("weyl_commutation", 10)
def suite_commutation(N, p, rng):
    sys = gabor_system(gaussian_window(N))
    gamma = sys.parseval_window
    for _ in range(10):
        sigma = _complex_normal(rng, (N, N))
        f = _complex_normal(rng, N)
        T = weyl_quantize(sigma)
        lhs = stft(T @ f, gamma).ravel()
        rhs = gabor_matrix(T, sys) @ stft(f, gamma).ravel()
        yield float(np.linalg.norm(lhs - rhs)) - 1e-10


@_suite("cb_algebra", 11, SUITE_SLACK)
def suite_cb_algebra(N, p, rng):
    for _ in range(15):
        A = random_decaying_matrix(rng, N)
        B = random_decaying_matrix(rng, N)
        AB = A @ B
        conv = ma.envelope_convolve(ma.diagonal_envelope(A), ma.diagonal_envelope(B))
        yield max(
            ma.cb_norm(AB, p) - ma.cb_norm(A, p) * ma.cb_norm(B, p),
            float(np.max(ma.diagonal_envelope(AB) - conv)),
        )


@_suite("cb_solidity", 12, SUITE_SLACK)
def suite_cb_solidity(N, p, rng):
    for _ in range(15):
        A = random_decaying_matrix(rng, N)
        Ap = A * rng.random(A.shape)  # entrywise dominated
        yield ma.cb_norm(Ap, p) - ma.cb_norm(A, p)


@_suite("metaplectic", 13)
def suite_metaplectic(N, p, rng):
    if N == 5:
        mats = [
            np.array([[a, b], [c, d]])
            for a in range(N)
            for b in range(N)
            for c in range(N)
            for d in range(N)
            if (a * d - b * c) % N == 1
        ]
    else:
        mats = [random_sympmat(rng, N) for _ in range(30)]
    words = [mp.factor_generators(chi, N) for chi in mats]
    U = np.array([mp.build_metaplectic(word, N) for word in words])
    unitarity = np.linalg.norm(U.conj().swapaxes(-2, -1) @ U - np.eye(N), 2, axis=(-2, -1))
    defects = mp.intertwine_defect(np.array(mats), U)
    for chi, word, unitary, defect in zip(mats, words, unitarity, defects):
        yield max(
            float(not np.array_equal(mp.word_matrix(word, N), chi % N)),
            float(unitary) - 1e-12,
            float(defect) - 1e-10,
        )


@_suite("fio_adjoint", 14)
def suite_fio_adjoint(N, p, rng):
    sys = gabor_system(gaussian_window(N))
    for _ in range(3):
        T = _complex_normal(rng, (N, N))
        chi = random_sympmat(rng, N)
        h_fwd = fio.envelope(T, chi, sys).values
        h_adj = fio.envelope(T.conj().T, mp.symp_inverse(chi, N), sys).values
        h_back = fio.symbol_pullback(h_fwd, -chi)
        yield float(np.max(np.abs(h_adj - h_back))) - 1e-10


@_suite("fio_factorize", 15)
def suite_fio_factorize(N, p, rng):
    for _ in range(3):
        chi = random_sympmat(rng, N)
        sigma = 1.0 + 0.2 * _complex_normal(rng, (N, N)) * gaussian_bump_symbol(N)
        T = weyl_quantize(sigma) @ mp.metaplectic_operator(chi, N)
        _, _, residuals = fio.factorize_fio(T, chi)
        yield max(residuals["op_then_mu"] - 1e-9, residuals["mu_then_op"] - 1e-9)


@_suite("amalgam_basic", 16, SUITE_SLACK)  # draws nothing
def suite_amalgam(N, p, rng):
    from .amalgam import SampledField, amalgam_norm, bump_field, gaussian_field, sample_field

    bump = sample_field(bump_field, R=4, M=8)
    yield abs(amalgam_norm(bump, p) - 1.0) - 1e-12
    gauss = sample_field(gaussian_field, R=4, M=8)
    half = SampledField(R=gauss.R, M=gauss.M, values=0.5 * gauss.values)
    yield amalgam_norm(half, p) - amalgam_norm(gauss, p)
    yield amalgam_norm(gauss, QParams(1.0, p.s)) - amalgam_norm(gauss, p)


def run_all(N: int, p: QParams, seed: int) -> list[SuiteResult]:
    """Run every suite and sort results by name."""
    return sorted((suite(N, p, seed) for suite in ALL_SUITES), key=lambda r: r.name)
