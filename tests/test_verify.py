"""Every verify suite has teeth: one named mutant of the law each suite
checks, monkeypatched into the namespace that the suite reads, makes it
fail (or refuse to run) at N = 7, seed 1.  The dense draws of the cb
suites keep the bits of the plain products and a bounded memory."""

import ast
import functools
from pathlib import Path

import numpy as np
import pytest

from gmlab import FourierInverse, GmlabError, QParams, VanishingFourierError
from gmlab import amalgam, fio, matrix_algebra, metaplectic, verify

P = QParams(0.5, 1.0)


def scaled(c):
    return lambda f: lambda *args, **kw: c * f(*args, **kw)


def transposed_first(f):
    return lambda a, *rest: f(np.asarray(a).T, *rest)


def transposed_result(f):
    return lambda *args: f(*args).T


def accepting_vanishing_series(invert):
    """invert_by_fourier that returns `a` itself where F a vanishes."""

    def accept(a, *args, **kw):
        try:
            return invert(a, *args, **kw)
        except VanishingFourierError:
            return FourierInverse(seq=a, residual=0.0, decay_rate=0.0)

    return accept


# suite -> (namespace it reads, name there, original -> mutant); the comment
# gives the mutant's max_violation at N = 7, seed 1
MUTANTS = {
    verify.suite_seq_young: (verify, "convolve", scaled(10)),  # 3.1
    verify.suite_seq_qtriangle: (  # a + b + b: 0.26
        verify.SparseSeq, "__add__", lambda add: lambda a, b: add(add(a, b), b)
    ),
    verify.suite_seq_hoelder: (verify, "pointwise_product", scaled(10)),  # 1.41
    verify.suite_seq_inclusion: (  # no 1/q root: 2.13
        verify, "qnorm", lambda qnorm: lambda a, p: qnorm(a, p) ** p.q
    ),
    verify.suite_seq_neumann: (  # the series of -x: 2.69
        verify, "neumann_inverse", lambda inverse: lambda x, p, *tol: inverse(-x, p, *tol)
    ),
    verify.suite_seq_fourier_inverse: (  # raises ToleranceError
        verify, "invert_by_fourier", lambda f: functools.partial(f, decay_cutoff=1e-3)
    ),
    verify.suite_frame_tight: (verify, "synthesize", scaled(1.001)),  # 3.8e-3
    verify.suite_weyl_duality: (verify, "duality_pairing", transposed_first),  # 14.8
    verify.suite_weyl_roundtrip: (verify, "weyl_dequantize", transposed_first),  # 3.5
    verify.suite_weyl_commutation: (verify, "gabor_matrix", transposed_first),  # 9.4
    verify.suite_cb_algebra: (  # rolled by one cell: 0.59
        matrix_algebra, "envelope_convolve", lambda conv: lambda d1, d2: np.roll(conv(d1, d2), 1, axis=0)
    ),
    verify.suite_cb_solidity: (  # |trace|: 0.28
        matrix_algebra, "cb_norm", lambda cb_norm: lambda A, p: float(abs(np.trace(A)))
    ),
    verify.suite_metaplectic: (  # U^T: 4.13
        metaplectic,
        "build_metaplectic_stack",
        lambda build: lambda words, N: build(words, N).swapaxes(-2, -1),
    ),
    verify.suite_fio_adjoint: (  # pulled back along chi for -chi: 0.22
        fio, "symbol_pullback", lambda pullback: lambda sigma, chi: pullback(sigma, -chi)
    ),
    verify.suite_fio_factorize: (fio, "weyl_dequantize", transposed_first),  # 0.134
    verify.suite_amalgam_basic: (amalgam, "cell_maxima", scaled(1.01)),  # 0.01
}

# more mutants of a suite, (suite, label, namespace, name, mutate): the
# random draws of cb_algebra stay far inside its bounds, so its pair of
# convolution matrices, which attains them, rejects these
MORE_MUTANTS = [
    (verify.suite_cb_algebra, "halved", matrix_algebra, "envelope_convolve", scaled(0.5)),  # 1.44
    (verify.suite_cb_algebra, "transposed", matrix_algebra, "diagonal_envelope", transposed_result),  # 0.2
    # its first mutant refuses to run; this one reaches the rejections it expects
    (verify.suite_seq_fourier_inverse, "accepting", verify, "invert_by_fourier",
     accepting_vanishing_series),  # 1.0
]


def test_every_suite_has_a_mutant():
    assert set(MUTANTS) == set(verify.ALL_SUITES)


@pytest.mark.parametrize("suite", verify.ALL_SUITES, ids=lambda suite: suite.__name__)
def test_every_suite_reports_its_generators_name(suite):
    assert suite(3, P, 0).name == suite.__name__.removeprefix("suite_")


@pytest.mark.parametrize(
    "suite, namespace, name, mutate",
    [(suite, *mutant) for suite, mutant in MUTANTS.items()]
    + [(suite, *mutant) for suite, _, *mutant in MORE_MUTANTS],
    ids=[suite.__name__ for suite in MUTANTS]
    + [f"{suite.__name__}-{label}" for suite, label, *_ in MORE_MUTANTS],
)
def test_suite_rejects_its_mutant(monkeypatch, suite, namespace, name, mutate):
    assert suite(7, P, 1).passed
    monkeypatch.setattr(namespace, name, mutate(getattr(namespace, name)))
    try:
        result = suite(7, P, 1)
    except GmlabError:
        return
    assert result.passed is False, result


@pytest.mark.parametrize("N", [3, 5, 7])
def test_decaying_draw_keeps_the_bits_of_the_plain_product(N):
    prof = verify._decay_profile(N)
    rng, ref = np.random.default_rng([N, 11]), np.random.default_rng([N, 11])
    for _ in range(2):
        phase = np.exp(2j * np.pi * ref.random(prof.shape))
        mag = ref.random(prof.shape)
        assert verify._decaying_draw(rng, prof).tobytes() == (prof * mag * phase).tobytes()
    assert rng.random() == ref.random()  # both streams advanced alike


@pytest.mark.parametrize("N", [5, 7])
def test_cb_solidity_yields_the_violations_of_the_plain_loop(N):
    prof = verify._decay_profile(N)
    ref = np.random.default_rng([1, 12])
    want = []
    for _ in range(15):
        phase = np.exp(2j * np.pi * ref.random(prof.shape))
        A = prof * ref.random(prof.shape) * phase
        Ap = A * ref.random(A.shape)
        want.append(matrix_algebra.cb_norm(Ap, P) - matrix_algebra.cb_norm(A, P))
    got = list(verify.suite_cb_solidity.__wrapped__(N, P, np.random.default_rng([1, 12])))
    assert got == want


def test_decaying_draw_holds_its_result_and_one_real_array(traced_peak):
    # the phase, its argument, the magnitudes and prof * mag were once held
    # beside the result: 42.4 MB traced at N = 31 for a 14.1 MB result
    prof = verify._decay_profile(31)
    peak = traced_peak(lambda: verify._decaying_draw(np.random.default_rng(0), prof))
    assert peak < 2 * 16 * prof.size


def test_suite_tags_are_distinct():
    # a suite's tag seeds its draws: two suites of one tag draw the same numbers
    tree = ast.parse(Path(verify.__file__).read_text())
    tags = [node.args[0].value for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_suite"
            and node.args and isinstance(node.args[0], ast.Constant)]
    assert len(tags) == len(set(tags)) == len(verify.ALL_SUITES)
