"""The one guard that reads N from an array over Z_N: every function that
takes a signal, a symbol or an operator refuses an array of the wrong shape
with one ValueError naming it, instead of returning a wrong result."""

import re

import numpy as np
import pytest

from gmlab._lattice import QParams, lattice_qnorm, matrix_side, side
from gmlab.fio import FioEnvelope, envelope, factorize_fio, fio_report, symbol_pullback
from gmlab.matrix_algebra import convolution_matrix, diagonal_envelope, envelope_convolve
from gmlab.phase_space import (
    GaborSystem,
    gabor_system,
    gaussian_window,
    shift_bank,
    stft,
    synthesize,
    tf_shift,
)
from gmlab.serialize import envelope_csv, field_csv, gabor_csv
from gmlab.weyl import (
    duality_pairing,
    gabor_matrix,
    modulation_norm,
    weyl_dequantize,
    weyl_quantize,
    wigner,
)

N = 5
SYS = gabor_system(gaussian_window(N))
FIELD = np.ones((N, N))
SIGNAL = np.ones(N, dtype=complex)
IDENTITY = np.eye(2, dtype=int)
P = QParams(0.5, 1.0)

# Each takes one array over Z_N^2 (a symbol, an operator, an envelope or a field).
FIELD_TAKERS = {
    "lattice_qnorm": lambda a: lattice_qnorm(a, 0.5, 1),
    "weyl_quantize": weyl_quantize,
    "weyl_dequantize": weyl_dequantize,
    "modulation_norm-symbol": lambda a: modulation_norm(a, P),
    "modulation_norm-window": lambda a: modulation_norm(FIELD, P, window=a),
    "duality_pairing-symbol": lambda a: duality_pairing(a, SIGNAL, SIGNAL),
    "gabor_matrix": lambda a: gabor_matrix(a, SYS),
    "envelope": lambda a: envelope(a, IDENTITY, SYS),
    "fio_report": lambda a: fio_report(FioEnvelope(values=a), P),
    "symbol_pullback": lambda a: symbol_pullback(a, IDENTITY),
    "factorize_fio": lambda a: factorize_fio(a, IDENTITY),
    "diagonal_envelope": diagonal_envelope,
    "convolution_matrix": convolution_matrix,
    "envelope_convolve-d1": lambda a: envelope_convolve(a, FIELD),
    "envelope_convolve-d2": lambda a: envelope_convolve(FIELD, a),
    "synthesize": lambda a: synthesize(a, SYS),
    "envelope_csv": envelope_csv,
    "field_csv": field_csv,
    "gabor_csv": gabor_csv,
}

# Each takes one signal over Z_N.
SIGNAL_TAKERS = {
    "tf_shift": lambda a: tf_shift((1, 2), a),
    "stft-signal": lambda a: stft(a, SIGNAL),
    "stft-window": lambda a: stft(SIGNAL, a),
    "wigner-f": lambda a: wigner(a, SIGNAL),
    "wigner-g": lambda a: wigner(SIGNAL, a),
    "duality_pairing-f": lambda a: duality_pairing(FIELD, a, SIGNAL),
    "gabor_system": gabor_system,
    "GaborSystem.N": lambda a: GaborSystem(window=a, normalization=1.0).N,
    "shift_bank": shift_bank,
}

CASES = [(name, shape) for name in FIELD_TAKERS for shape in [(N, 1), (N,), (), (N, N + 2)]]
CASES += [(name, shape) for name in SIGNAL_TAKERS for shape in [(N, 1), (), (N, N + 2), (N, N)]]


@pytest.mark.parametrize("name, shape", CASES,
                         ids=[f"{name}-{'x'.join(map(str, shape)) or '0d'}" for name, shape in CASES])
def test_an_array_of_the_wrong_shape_is_refused_with_its_shape(name, shape):
    call = {**FIELD_TAKERS, **SIGNAL_TAKERS}[name]
    with pytest.raises(ValueError, match=re.escape(f"of shape {shape} is not")):
        call(np.ones(shape))


def test_the_guard_returns_n_and_names_a_non_square_array():
    assert side(FIELD, "field") == N and side(SIGNAL, "signal", 1) == N
    assert side([[1, 2], [3, 4]], "field") == 2
    with pytest.raises(ValueError, match=re.escape("symbol of shape (7, 9) is not square")):
        side(np.ones((7, 9)), "symbol")
    with pytest.raises(ValueError, match=re.escape("signal of shape (5, 5) is not a vector")):
        side(FIELD, "signal", 1)


EMPTY = {  # each takes an array of shape (0,) or (0, 0)
    "tf_shift": lambda a: tf_shift((1, 1), a),
    "lattice_qnorm": lambda a: lattice_qnorm(a, 0.5, 1),
    "envelope_csv": envelope_csv,
    "convolution_matrix": convolution_matrix,
    "weyl_quantize": weyl_quantize,
}


@pytest.mark.parametrize("name", list(EMPTY))
def test_an_empty_array_has_no_modulus(name):
    # N = 0 raised ZeroDivisionError, returned 0.0, a header-only CSV or a
    # (0, 0) matrix, or was refused as an even modulus
    shape = (0,) if name == "tf_shift" else (0, 0)
    with pytest.raises(ValueError, match=re.escape(f"of shape {shape} is empty")):
        EMPTY[name](np.ones(shape))


def test_envelopes_of_two_moduli_are_not_convolved():
    # a (1, 1) operand would broadcast against the (N, N) one
    with pytest.raises(ValueError, match="envelope moduli differ"):
        envelope_convolve(FIELD, np.ones((1, 1)))


@pytest.mark.parametrize("read", [matrix_side, diagonal_envelope, gabor_csv])
def test_a_lattice_indexed_matrix_has_a_square_side(read):
    # an (8, 8) Gabor CSV was written as its 16 cells of N = 2
    assert matrix_side(np.ones((N * N, N * N))) == N
    with pytest.raises(ValueError, match="perfect square"):
        read(np.ones((8, 8)))
