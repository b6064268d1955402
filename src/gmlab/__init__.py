"""gmlab: a finite phase-space laboratory.

Weighted lq convolution quasi-algebras of sequences, Gabor frames on the
cyclic lattice Z_N x Z_N, discrete Weyl quantization, metaplectic unitaries
of SL(2, Z_N), matrix classes with off-diagonal decay, and the envelope
calculus of operators twisted by a lattice symplectic map.  Everything is
exact-finite: theorems about these objects become equalities and
inequalities of small numpy arrays, checkable to near machine precision.
"""

from ._lattice import centered, centered_radius, lattice_qnorm
from .errors import (
    ContractionError,
    GmlabError,
    NotInvertibleError,
    ToleranceError,
    VanishingFourierError,
)
from .seq_algebra import (
    FourierInverse,
    QParams,
    SparseSeq,
    convolve,
    fourier_series_eval,
    invert_by_fourier,
    neumann_inverse,
    neumann_tail_bound,
    pointwise_product,
    qnorm,
    qnorm_weighted,
)
from .phase_space import (
    GaborSystem,
    frame_bounds,
    frame_operator,
    gabor_system,
    gaussian_window,
    shift_bank,
    stft,
    synthesize,
    tf_shift,
    tf_shift_matrix,
)
from .weyl import (
    duality_pairing,
    gabor_matrix,
    half_inverse,
    modulation_norm,
    weyl_dequantize,
    weyl_quantize,
    wigner,
)
from .matrix_algebra import (
    apply_to_sequence,
    cb_norm,
    convolution_matrix,
    diagonal_envelope,
    envelope_convolve,
    pseudo_inverse,
)
from .metaplectic import (
    build_metaplectic,
    factor_generators,
    intertwine_defect,
    metaplectic_operator,
    phase_align,
    symp_apply,
    symp_inverse,
    word_matrix,
)
from .fio import (
    FioEnvelope,
    FioReport,
    compose_check,
    envelope,
    factorize_fio,
    fio_report,
    invert_fio,
    symbol_pullback,
)
from .amalgam import (
    GlInvariance,
    SampledField,
    amalgam_norm,
    bump_field,
    chirped_gaussian_field,
    conv_embedding_check,
    convolve_fields,
    gaussian_field,
    gl_invariance_check,
    refinement_gap,
    sample_field,
)

__version__ = "0.1.0"
