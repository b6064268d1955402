"""Exception types and the one table of floating-point tolerances.

Every threshold a check in gmlab compares against is named here once, with
its value and its meaning; the other modules read it by name and write no
tolerance of their own.
"""

# Relative slack before a proven inequality counts as violated.
BOUND_SLACK = 1e-9  # certified bounds that raise ToleranceError; verify's Neumann tail bound
SUITE_SLACK = 1e-12  # worst excess a `verify` suite may report and still pass
# Largest l1 norm of a * b - delta a Fourier inverse b may leave (ToleranceError).
INVERSE_RESIDUAL_TOL = 1e-6
# Least min |F a| on a Fourier grid for a to count as invertible (VanishingFourierError).
FOURIER_FLOOR = 1e-8

# Library defaults (the CLI's `cond_tol` and `decay_cutoff` are the first two) and guards.
COND_TOL = 1e12  # condition number at which invert_fio raises NotInvertibleError
DECAY_CUTOFF = 1e-12  # magnitude below which invert_by_fourier drops an inverse entry
NEUMANN_TOL = 1e-10  # quasi-norm of the tail that neumann_inverse may omit
PHASE_FLOOR = 1e-8  # relative |<U, V>_F| at which phase_align reads U, V as orthogonal
SINGULAR_DET = 1e-12  # |det M| below which gl_invariance_check rejects M as singular

# Absolute bounds of the `verify` checks whose quantity is 0 in exact arithmetic.
FRAME_TOL = 1e-10  # |frame bound - N ||g||^2|, and ||f - synthesis of its analysis||
DUALITY_TOL = 1e-11  # |<Op(sigma) f, g> - duality_pairing(sigma, f, g)|
ROUNDTRIP_TOL = 1e-12  # max |weyl_dequantize(weyl_quantize(sigma)) - sigma|
COMMUTATION_TOL = 1e-10  # ||V(T f) - gabor_matrix(T) V f|| for the Parseval window
UNITARITY_TOL = 1e-12  # ||U^H U - I||_2 of a build_metaplectic unitary
INTERTWINE_TOL = 1e-10  # intertwine_bound (>= intertwine_defect) of a build_metaplectic unitary
ADJOINT_TOL = 1e-10  # max |envelope of T^H along chi^-1 - pullback of T's along chi|
FACTOR_TOL = 1e-9  # each factorize_fio residual
SEQ_FOURIER_TOL = 1e-8  # invert_by_fourier residual of delta minus a tail of l1 norm 0.35
BUMP_NORM_TOL = 1e-12  # |amalgam_norm of the bump field - 1|


class GmlabError(Exception):
    """Base class for all gmlab-specific failures."""


class ContractionError(GmlabError, ValueError):
    """Neumann inversion requested for an element with quasi-norm >= 1."""


class VanishingFourierError(GmlabError, ValueError):
    """The Fourier series of a sequence vanishes (or nearly so) on the grid,
    so the convolution operator is not invertible."""


class NotInvertibleError(GmlabError, ValueError):
    """An operator is singular or too ill-conditioned to invert reliably."""


class ToleranceError(GmlabError):
    """A certified numerical inequality failed beyond floating-point slack."""
