"""Exception types shared across the package."""


class FpicertError(Exception):
    """Base class for all package errors."""


class NotPSD(FpicertError):
    """Matrix expected to be symmetric positive semidefinite is not."""


class ZeroMatrix(FpicertError):
    """Matrix is numerically zero where a nonzero one is required."""


class Infeasible(FpicertError):
    """A polyhedron required to be nonempty is empty.

    ``ray`` is the checked Farkas certificate ``y`` (``y >= 0``,
    ``A^T y = 0``, ``b^T y < 0``) when the projection loop proved the
    emptiness itself, and ``None`` when anything else decided it (HiGHS,
    the brute-force projection or the face walk).
    """

    def __init__(self, message, ray=None):
        self.ray = ray
        super().__init__(message)


class NoCertificate(FpicertError):
    """Projection search finished without a KKT-certified candidate.

    Indicates a tolerance failure; must not occur on well-scaled inputs.
    """


class StepTooLarge(FpicertError):
    """Gradient step length at or beyond the averagedness threshold."""


class NonFinite(FpicertError):
    """An iterate left the finite floating-point range."""


class EmptyFixedSet(FpicertError):
    """Operation requires a nonempty fixed-point set."""


class NoFixedPoints(FpicertError):
    """No piece of the analyzed operator contains a zero of its residual map."""


class TooLarge(FpicertError):
    """Active-set enumeration would exceed the configured budget."""


class KTooSmall(FpicertError):
    """Error-bound constant below the algebraic floor sqrt((1-alpha)/alpha)."""


class RhoOutOfRange(FpicertError):
    """Contraction factor outside [0, 1)."""


class Gamma0OutOfRange(FpicertError):
    """Scaled curvature gamma * lambda_max must lie in (0, 1)."""


class ParseError(FpicertError):
    """Problem file is not syntactically valid."""


class ValidationError(FpicertError):
    """Problem file parsed but violates a semantic invariant.

    ``reason`` is one of ``"infeasible"``, ``"not_psd"``, ``"shape_mismatch"``;
    ``field`` names the offending entry.
    """

    def __init__(self, reason, field, message):
        self.reason = reason
        self.field = field
        super().__init__(f"{field}: {message}")
