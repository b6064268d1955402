"""Deterministic property suites behind the `verify` CLI command.

Each suite draws its instances from an independently seeded generator,
checks one family of inequalities or identities at fixed tolerances, and
reports the number of checks with the worst violation seen.  Suites run
in order; results are sorted by name before reporting.
"""

from __future__ import annotations

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
    weight_eval,
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


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag])


def random_sparse(rng, dim=2, size=6, box=3, scale=1.0) -> SparseSeq:
    entries = {}
    for _ in range(size):
        idx = tuple(int(v) for v in rng.integers(-box, box + 1, size=dim))
        entries[idx] = entries.get(idx, 0) + scale * complex(
            rng.standard_normal(), rng.standard_normal()
        )
    return SparseSeq(dim, entries)


def random_sympmat(rng, N: int) -> np.ndarray:
    while True:
        m = rng.integers(0, N, size=(2, 2))
        if (m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]) % N == 1:
            return np.asarray(m, dtype=int)


def random_decaying_matrix(rng, N: int, rate: float = 0.8) -> np.ndarray:
    """Lattice matrix with |entries| <= exp(-rate |mu|) along diagonal mu."""
    prof = ma.convolution_matrix(np.exp(-rate * centered_radius(N)))
    phase = np.exp(2j * np.pi * rng.random((N * N, N * N)))
    mag = rng.random((N * N, N * N))
    return prof * mag * phase


def _rel_excess(lhs: float, rhs: float) -> float:
    """Violation of lhs <= rhs normalized by the bound's own scale."""
    return (lhs - rhs) / max(1.0, abs(rhs))


def suite_seq_young(N, p, seed) -> SuiteResult:
    rng = _rng(seed, 1)
    worst = 0.0
    n = 40
    for _ in range(n):
        a = random_sparse(rng)
        b = random_sparse(rng)
        worst = max(
            worst, _rel_excess(qnorm(convolve(a, b), p), qnorm(a, p) * qnorm(b, p))
        )
    return SuiteResult("seq_young", worst <= SUITE_SLACK, n, worst)


def suite_seq_qtriangle(N, p, seed) -> SuiteResult:
    rng = _rng(seed, 2)
    worst = 0.0
    n = 40
    for _ in range(n):
        a = random_sparse(rng)
        b = random_sparse(rng)
        worst = max(
            worst,
            _rel_excess(qnorm(a + b, p) ** p.q, qnorm(a, p) ** p.q + qnorm(b, p) ** p.q),
        )
    return SuiteResult("seq_qtriangle", worst <= SUITE_SLACK, n, worst)


def suite_seq_hoelder(N, p, seed) -> SuiteResult:
    rng = _rng(seed, 3)
    worst = 0.0
    n = 40
    for _ in range(n):
        a = random_sparse(rng)
        b = random_sparse(rng)
        lhs = qnorm_weighted(pointwise_product(a, b), p.q, lambda k: 1.0)
        rhs = qnorm_weighted(a, 2 * p.q, lambda k: weight_eval(k, p.s)) * (
            qnorm_weighted(b, 2 * p.q, lambda k: 1.0 / weight_eval(k, p.s))
        )
        worst = max(worst, _rel_excess(lhs, rhs))
    return SuiteResult("seq_hoelder", worst <= SUITE_SLACK, n, worst)


def suite_seq_inclusion(N, p, seed) -> SuiteResult:
    rng = _rng(seed, 4)
    worst = 0.0
    n = 40
    for _ in range(n):
        a = random_sparse(rng)
        worst = max(worst, _rel_excess(qnorm(a, QParams(1.0, p.s)), qnorm(a, p)))
        worst = max(worst, _rel_excess(qnorm(a, p), qnorm(a, QParams(p.q / 2, p.s))))
    return SuiteResult("seq_inclusion", worst <= SUITE_SLACK, n, worst)


def suite_seq_neumann(N, p, seed) -> SuiteResult:
    rng = _rng(seed, 5)
    worst = 0.0
    n = 10
    tol = 1e-10
    delta = SparseSeq.delta(2)
    for _ in range(n):
        x = random_sparse(rng, size=4, box=2)
        x = (0.5 / qnorm(x, p)) * x
        inv = neumann_inverse(x, p, tol)
        worst = max(worst, qnorm(convolve(delta - x, inv) - delta, p) - tol)
        nx = qnorm(x, p)
        bound = nx**2 / (1.0 - nx**p.q) ** (1.0 / p.q)
        worst = max(worst, qnorm(inv - delta - x, p) - bound * (1 + 1e-9))
    return SuiteResult("seq_neumann", worst <= SUITE_SLACK, n, worst)


def suite_seq_fourier(N, p, seed) -> SuiteResult:
    rng = _rng(seed, 6)
    worst = 0.0
    checks = 0
    for _ in range(4):
        tail = random_sparse(rng, dim=1, size=3, box=3)
        tail = (0.35 / qnorm(tail, QParams(1.0, 0.0))) * tail
        a = SparseSeq.delta(1) - tail
        res = invert_by_fourier(a, grid=4096)
        worst = max(worst, res.residual - 1e-8)
        checks += 1
    for bad in (
        SparseSeq.delta(1) - SparseSeq.unit(1),
        0.5 * SparseSeq.delta(1) + 0.5 * SparseSeq.unit(2),
    ):
        try:
            invert_by_fourier(bad, grid=4096)
            worst = max(worst, 1.0)  # rejection expected
        except VanishingFourierError:
            pass
        checks += 1
    return SuiteResult("seq_fourier_inverse", worst <= SUITE_SLACK, checks, worst)


def suite_frame_tight(N, p, seed) -> SuiteResult:
    rng = _rng(seed, 7)
    worst = 0.0
    checks = 0
    windows = [
        delta_window(N),
        gaussian_window(N),
        rng.standard_normal(N) + 1j * rng.standard_normal(N),
    ]
    for g in windows:
        sys = gabor_system(g)
        a, b = frame_bounds(sys)
        target = N * float(np.sum(np.abs(g) ** 2))
        worst = max(worst, abs(a - target) - 1e-10, abs(b - target) - 1e-10)
        f = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        rec = synthesize(stft(f, sys.parseval_window), sys)
        worst = max(worst, float(np.linalg.norm(rec - f)) - 1e-10)
        checks += 2
    return SuiteResult("frame_tight", worst <= 0.0, checks, worst)


def suite_weyl_duality(N, p, seed) -> SuiteResult:
    rng = _rng(seed, 8)
    worst = 0.0
    n = 10
    for _ in range(n):
        sigma = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        f = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        g = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        lhs = complex(np.vdot(g, weyl_quantize(sigma) @ f))  # <Op f, g>
        worst = max(worst, abs(lhs - duality_pairing(sigma, f, g)) - 1e-11)
    return SuiteResult("weyl_duality", worst <= 0.0, n, worst)


def suite_weyl_roundtrip(N, p, seed) -> SuiteResult:
    rng = _rng(seed, 9)
    worst = 0.0
    n = 5
    for _ in range(n):
        sigma = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        worst = max(
            worst,
            float(np.max(np.abs(weyl_dequantize(weyl_quantize(sigma)) - sigma)))
            - 1e-12,
        )
    return SuiteResult("weyl_roundtrip", worst <= 0.0, n, worst)


def suite_commutation(N, p, seed) -> SuiteResult:
    rng = _rng(seed, 10)
    sys = gabor_system(gaussian_window(N))
    gamma = sys.parseval_window
    worst = 0.0
    n = 10
    for _ in range(n):
        sigma = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        f = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        T = weyl_quantize(sigma)
        M = gabor_matrix(T, sys)
        lhs = stft(T @ f, gamma).ravel()
        rhs = M @ stft(f, gamma).ravel()
        worst = max(worst, float(np.linalg.norm(lhs - rhs)) - 1e-10)
    return SuiteResult("weyl_commutation", worst <= 0.0, n, worst)


def suite_cb_algebra(N, p, seed) -> SuiteResult:
    rng = _rng(seed, 11)
    worst = 0.0
    n = 15
    for _ in range(n):
        A = random_decaying_matrix(rng, N)
        B = random_decaying_matrix(rng, N)
        worst = max(
            worst, ma.cb_norm(A @ B, p) - ma.cb_norm(A, p) * ma.cb_norm(B, p)
        )
        dAB = ma.diagonal_envelope(A @ B)
        conv = ma.envelope_convolve(ma.diagonal_envelope(A), ma.diagonal_envelope(B))
        worst = max(worst, float(np.max(dAB - conv)))
    return SuiteResult("cb_algebra", worst <= SUITE_SLACK, n, worst)


def suite_cb_solidity(N, p, seed) -> SuiteResult:
    rng = _rng(seed, 12)
    worst = 0.0
    n = 15
    for _ in range(n):
        A = random_decaying_matrix(rng, N)
        Ap = A * rng.random(A.shape)  # entrywise dominated
        worst = max(worst, ma.cb_norm(Ap, p) - ma.cb_norm(A, p))
    return SuiteResult("cb_solidity", worst <= SUITE_SLACK, n, worst)


def suite_metaplectic(N, p, seed) -> SuiteResult:
    rng = _rng(seed, 13)
    sys = gabor_system(gaussian_window(N))
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
    worst = 0.0
    for chi in mats:
        word = mp.factor_generators(chi, N)
        if not np.array_equal(mp.word_matrix(word, N), chi % N):
            worst = max(worst, 1.0)
        U = mp.build_metaplectic(word, N)
        worst = max(
            worst,
            float(np.linalg.norm(U.conj().T @ U - np.eye(N), 2)) - 1e-12,
            mp.intertwine_defect(chi, U, sys) - 1e-10,
        )
    return SuiteResult("metaplectic", worst <= 0.0, len(mats), worst)


def suite_fio_adjoint(N, p, seed) -> SuiteResult:
    rng = _rng(seed, 14)
    sys = gabor_system(gaussian_window(N))
    worst = 0.0
    n = 3
    for _ in range(n):
        T = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        chi = random_sympmat(rng, N)
        h_fwd = fio.envelope(T, chi, sys).values
        h_adj = fio.envelope(T.conj().T, mp.symp_inverse(chi, N), sys).values
        h_back = fio.symbol_pullback(h_fwd, -chi, N)
        worst = max(worst, float(np.max(np.abs(h_adj - h_back))) - 1e-10)
    return SuiteResult("fio_adjoint", worst <= 0.0, n, worst)


def suite_fio_factorize(N, p, seed) -> SuiteResult:
    rng = _rng(seed, 15)
    sys = gabor_system(gaussian_window(N))
    worst = 0.0
    n = 3
    for _ in range(n):
        chi = random_sympmat(rng, N)
        sigma = 1.0 + 0.2 * (
            rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        ) * gaussian_bump_symbol(N)
        T = weyl_quantize(sigma) @ mp.metaplectic_operator(chi, N)
        _, _, residuals = fio.factorize_fio(T, chi, sys)
        worst = max(
            worst, residuals["op_then_mu"] - 1e-9, residuals["mu_then_op"] - 1e-9
        )
    return SuiteResult("fio_factorize", worst <= 0.0, n, worst)


def suite_amalgam(N, p, seed) -> SuiteResult:
    from .amalgam import SampledField, amalgam_norm, bump_field, gaussian_field, sample_field

    worst = 0.0
    bump = sample_field(bump_field, R=4, M=8)
    worst = max(worst, abs(amalgam_norm(bump, p) - 1.0) - 1e-12)
    gauss = sample_field(gaussian_field, R=4, M=8)
    half = SampledField(R=gauss.R, M=gauss.M, values=0.5 * gauss.values)
    worst = max(worst, amalgam_norm(half, p) - amalgam_norm(gauss, p))
    worst = max(
        worst, amalgam_norm(gauss, QParams(1.0, p.s)) - amalgam_norm(gauss, p)
    )
    return SuiteResult("amalgam_basic", worst <= SUITE_SLACK, 3, worst)


ALL_SUITES = [
    suite_seq_young,
    suite_seq_qtriangle,
    suite_seq_hoelder,
    suite_seq_inclusion,
    suite_seq_neumann,
    suite_seq_fourier,
    suite_frame_tight,
    suite_weyl_duality,
    suite_weyl_roundtrip,
    suite_commutation,
    suite_cb_algebra,
    suite_cb_solidity,
    suite_metaplectic,
    suite_fio_adjoint,
    suite_fio_factorize,
    suite_amalgam,
]


def run_all(N: int, p: QParams, seed: int) -> list[SuiteResult]:
    """Run every suite and sort results by name."""
    return sorted((suite(N, p, seed) for suite in ALL_SUITES), key=lambda r: r.name)
