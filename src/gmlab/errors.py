"""Exception types and floating-point tolerances shared across the package."""

# Relative slack before a proven inequality counts as violated.
BOUND_SLACK = 1e-9  # certified bounds that raise ToleranceError
SUITE_SLACK = 1e-12  # worst excess a `verify` suite may report and still pass
# Largest l1 norm of a * b - delta a Fourier inverse b may leave (ToleranceError).
INVERSE_RESIDUAL_TOL = 1e-6
# Least min |F a| on a Fourier grid for a to count as invertible (VanishingFourierError).
FOURIER_FLOOR = 1e-8


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
