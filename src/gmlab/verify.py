"""Deterministic property suites behind the `verify` CLI command.

A suite is one generator `(N, p, rng) -> violations` that yields one
violation per check: how far the checked quantity exceeds its bound (a
negative number when it holds with room to spare).  The `_suite(tag,
slack)` line above it registers the generator in `ALL_SUITES` and turns it
into the runner `(N, p, seed) -> SuiteResult` named after the generator
without `suite_`: it draws from `default_rng([seed, tag])` (a tag written
out, so a new suite moves no other's draws), counts the checks and reports
the worst violation (at least 0.0); the suite passes when that is at most
`slack`.  Suites run in definition order; results are sorted by name.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import fio, matrix_algebra as ma, metaplectic as mp
from ._lattice import QParams, centered, centered_radius, lattice_qnorm
from .errors import (
    ADJOINT_TOL, BOUND_SLACK, BUMP_NORM_TOL, COMMUTATION_TOL, DUALITY_TOL, FACTOR_TOL,
    FRAME_TOL, INTERTWINE_TOL, NEUMANN_TOL, ROUNDTRIP_TOL, SEQ_FOURIER_TOL, SUITE_SLACK,
    UNITARITY_TOL, VanishingFourierError,
)
from .phase_space import gabor_system, gaussian_window, stft, synthesize, frame_bounds
from .presets import _complex_normal, delta_window, gaussian_bump_symbol
from .seq_algebra import (
    SparseSeq,
    convolve,
    invert_by_fourier,
    neumann_inverse,
    neumann_tail_bound,
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


ALL_SUITES: list = []


def _suite(tag: int, slack: float = 0.0):
    """Register the check generator below as a suite (see above)."""

    def register(checks):
        @functools.wraps(checks)
        def run(N: int, p: QParams, seed: int) -> SuiteResult:
            worst, n = 0.0, 0
            for violation in checks(N, p, np.random.default_rng([seed, tag])):
                worst, n = max(worst, violation), n + 1
            return SuiteResult(checks.__name__.removeprefix("suite_"), worst <= slack, n, worst)

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
        if mp.determinant(m, N) == 1:
            return m


def _decay_profile(N: int) -> np.ndarray:
    """The bound exp(-0.8 |mu|) on the entries along each diagonal mu, as an
    (N^2, N^2) matrix; a suite builds it once and draws against it."""
    return ma.convolution_matrix(np.exp(-0.8 * centered_radius(N)))


def _decaying_draw(rng, prof: np.ndarray) -> np.ndarray:
    """A lattice matrix with |entries| <= prof, prof a prebuilt _decay_profile.

    The entries are (prof * mag) * exp(2 pi i theta), theta and then mag
    drawn uniform on [0, 1) over the whole matrix.  Both draws land in one
    real buffer and the complex result is formed in place, in the operand
    order of that product, so the draw holds the result and one real array."""
    buf = np.empty(prof.shape)
    out = np.multiply(2j * np.pi, rng.random(out=buf), dtype=complex)
    np.exp(out, out=out)  # the phase
    np.multiply(prof, rng.random(out=buf), out=buf)  # prof * mag
    return np.multiply(buf, out, out=out)


def _rel_excess(lhs: float, rhs: float) -> float:
    """Violation of lhs <= rhs normalized by the bound's own scale."""
    return (lhs - rhs) / max(1.0, abs(rhs))


@_suite(1, SUITE_SLACK)
def suite_seq_young(N, p, rng):
    for _ in range(40):
        a = random_sparse(rng)
        b = random_sparse(rng)
        yield _rel_excess(qnorm(convolve(a, b), p), qnorm(a, p) * qnorm(b, p))


@_suite(2, SUITE_SLACK)
def suite_seq_qtriangle(N, p, rng):
    for _ in range(40):
        a = random_sparse(rng)
        b = random_sparse(rng)
        yield _rel_excess(qnorm(a + b, p) ** p.q, qnorm(a, p) ** p.q + qnorm(b, p) ** p.q)


@_suite(3, SUITE_SLACK)
def suite_seq_hoelder(N, p, rng):
    for _ in range(40):
        a = random_sparse(rng)
        b = random_sparse(rng)
        lhs = qnorm_weighted(pointwise_product(a, b), p.q, 0.0)
        rhs = qnorm_weighted(a, 2 * p.q, p.s) * qnorm_weighted(b, 2 * p.q, -p.s)
        yield _rel_excess(lhs, rhs)


@_suite(4, SUITE_SLACK)
def suite_seq_inclusion(N, p, rng):
    for _ in range(40):
        a = random_sparse(rng)
        norm = qnorm(a, p)
        yield max(
            _rel_excess(qnorm(a, QParams(1.0, p.s)), norm),
            _rel_excess(norm, qnorm(a, QParams(p.q / 2, p.s))),
        )


@_suite(5, SUITE_SLACK)
def suite_seq_neumann(N, p, rng):
    delta = SparseSeq.delta(2)
    for _ in range(10):
        x = random_sparse(rng, size=4, box=2)
        x = (0.5 / qnorm(x, p)) * x
        inv = neumann_inverse(x, p)
        residual = qnorm(convolve(delta - x, inv) - delta, p) - NEUMANN_TOL
        bound = neumann_tail_bound(qnorm(x, p), p.q, 1)
        yield max(residual, qnorm(inv - delta - x, p) - bound * (1 + BOUND_SLACK))


@_suite(6, SUITE_SLACK)
def suite_seq_fourier_inverse(N, p, rng):
    for _ in range(4):
        tail = random_sparse(rng, dim=1, size=3, box=3)
        tail = (0.35 / qnorm(tail, QParams(1.0, 0.0))) * tail
        yield invert_by_fourier(SparseSeq.delta(1) - tail, grid=4096).residual - SEQ_FOURIER_TOL
    for bad in (
        SparseSeq.delta(1) - SparseSeq.unit(1),
        0.5 * SparseSeq.delta(1) + 0.5 * SparseSeq.unit(2),
    ):
        try:
            invert_by_fourier(bad, grid=4096)
            yield 1.0  # rejection expected
        except VanishingFourierError:
            yield 0.0


@_suite(7)
def suite_frame_tight(N, p, rng):
    for g in [delta_window(N), gaussian_window(N), _complex_normal(rng, N)]:
        sys = gabor_system(g)
        a, b = frame_bounds(sys)
        target = N * float(np.sum(np.abs(g) ** 2))
        yield max(abs(a - target) - FRAME_TOL, abs(b - target) - FRAME_TOL)
        f = _complex_normal(rng, N)
        rec = synthesize(stft(f, sys.parseval_window), sys)
        yield float(np.linalg.norm(rec - f)) - FRAME_TOL


@_suite(8)
def suite_weyl_duality(N, p, rng):
    for _ in range(10):
        sigma = _complex_normal(rng, (N, N))
        f = _complex_normal(rng, N)
        g = _complex_normal(rng, N)
        lhs = complex(np.vdot(g, weyl_quantize(sigma) @ f))  # <Op f, g>
        yield abs(lhs - duality_pairing(sigma, f, g)) - DUALITY_TOL


@_suite(9)
def suite_weyl_roundtrip(N, p, rng):
    for _ in range(5):
        sigma = _complex_normal(rng, (N, N))
        yield float(np.max(np.abs(weyl_dequantize(weyl_quantize(sigma)) - sigma))) - ROUNDTRIP_TOL


@_suite(10)
def suite_weyl_commutation(N, p, rng):
    sys = gabor_system(gaussian_window(N))
    gamma = sys.parseval_window
    for _ in range(10):
        sigma = _complex_normal(rng, (N, N))
        f = _complex_normal(rng, N)
        T = weyl_quantize(sigma)
        lhs = stft(T @ f, gamma).ravel()
        rhs = gabor_matrix(T, sys) @ stft(f, gamma).ravel()
        yield float(np.linalg.norm(lhs - rhs)) - COMMUTATION_TOL


@_suite(11, SUITE_SLACK)
def suite_cb_algebra(N, p, rng):
    prof = _decay_profile(N)
    for _ in range(15):
        yield _algebra_excess(_decaying_draw(rng, prof), _decaying_draw(rng, prof), p)
    # convolution matrices, prof among them, attain d_AB = d_A * d_B, so a
    # wrong convolution shows; the envelope of each is its field exactly,
    # and the asymmetric b shows a transposed envelope
    a = np.exp(-0.8 * centered_radius(N))
    b = a * np.exp(-0.3 * centered(np.arange(N), N))[:, None]
    A, B = prof, ma.convolution_matrix(b)
    yield _algebra_excess(A, B, p)
    yield float(max(np.max(np.abs(ma.diagonal_envelope(A) - a)), np.max(np.abs(ma.diagonal_envelope(B) - b))))


def _algebra_excess(A, B, p) -> float:
    """Violation of ||d_AB|| <= ||d_A|| ||d_B|| or of d_AB <= d_A * d_B."""
    dA, dB, dAB = (ma.diagonal_envelope(M) for M in (A, B, A @ B))
    nA, nB, nAB = (lattice_qnorm(d, p.q, p.s) for d in (dA, dB, dAB))  # cb_norm of each
    return max(nAB - nA * nB, float(np.max(dAB - ma.envelope_convolve(dA, dB))))


@_suite(12, SUITE_SLACK)
def suite_cb_solidity(N, p, rng):
    prof = _decay_profile(N)
    for _ in range(15):
        A = _decaying_draw(rng, prof)
        norm = ma.cb_norm(A, p)
        A *= rng.random(A.shape)  # entrywise dominated
        violation = ma.cb_norm(A, p) - norm
        del A  # before the next check draws its own
        yield violation


@_suite(13)
def suite_metaplectic(N, p, rng):
    if N <= 5:  # all of SL(2, Z_N), in lexicographic order of (a, b, c, d)
        m = np.indices((N,) * 4).reshape(4, -1).T.reshape(-1, 2, 2)
        mats = m[mp.determinant(m, N) == 1]
    else:
        mats = np.array([random_sympmat(rng, N) for _ in range(30)])
    words = [mp.factor_generators(chi, N) for chi in mats]
    U = mp.build_metaplectic_stack(words, N)
    unitarity = np.linalg.norm(U.conj().swapaxes(-2, -1) @ U - np.eye(N), 2, axis=(-2, -1))
    defects = mp.intertwine_bound(mats, U)
    for chi, word, unitary, defect in zip(mats, words, unitarity, defects):
        yield max(
            float(not np.array_equal(mp.word_matrix(word, N), chi)),
            float(unitary) - UNITARITY_TOL,
            float(defect) - INTERTWINE_TOL,
        )


@_suite(14)
def suite_fio_adjoint(N, p, rng):
    sys = gabor_system(gaussian_window(N))
    for _ in range(3):
        T = _complex_normal(rng, (N, N))
        chi = random_sympmat(rng, N)
        h_fwd = fio.envelope(T, chi, sys).values
        h_adj = fio.envelope(T.conj().T, mp.symp_inverse(chi, N), sys).values
        h_back = fio.symbol_pullback(h_fwd, -chi)
        yield float(np.max(np.abs(h_adj - h_back))) - ADJOINT_TOL


@_suite(15)
def suite_fio_factorize(N, p, rng):
    for _ in range(3):
        chi = random_sympmat(rng, N)
        sigma = 1.0 + 0.2 * _complex_normal(rng, (N, N)) * gaussian_bump_symbol(N)
        T = fio.fio_operator(sigma, chi)
        _, _, residuals = fio.factorize_fio(T, chi)
        yield max(residuals["op_then_mu"] - FACTOR_TOL, residuals["mu_then_op"] - FACTOR_TOL)


@_suite(16, SUITE_SLACK)  # draws nothing
def suite_amalgam_basic(N, p, rng):
    from .amalgam import SampledField, amalgam_norm, bump_field, gaussian_field, sample_field

    bump = sample_field(bump_field, R=4, M=8)
    yield abs(amalgam_norm(bump, p) - 1.0) - BUMP_NORM_TOL
    gauss = sample_field(gaussian_field, R=4, M=8)
    half = SampledField(R=gauss.R, M=gauss.M, values=0.5 * gauss.values)
    yield amalgam_norm(half, p) - amalgam_norm(gauss, p)
    yield amalgam_norm(gauss, QParams(1.0, p.s)) - amalgam_norm(gauss, p)


def run_all(N: int, p: QParams, seed: int) -> list[SuiteResult]:
    """Run every suite and sort results by name."""
    return sorted((suite(N, p, seed) for suite in ALL_SUITES), key=lambda r: r.name)
