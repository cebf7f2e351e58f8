"""Shared exception types."""


class SineconeError(Exception):
    """Base class for all package errors; exit code 4 unless overridden."""

    exit_code = 4


class NegativeRadicand(SineconeError, ValueError):
    """Square root of a negative rational was requested."""


class MixedField(SineconeError, ValueError):
    """Arithmetic between two distinct irrational quadratic fields."""


class NotRepresentable(SineconeError, ValueError):
    """A value left the quadratic-irrational number system (nested radical)."""


class ParseError(SineconeError, ValueError):
    """Input that does not parse as the documented schema."""


class InvariantViolation(SineconeError, ValueError):
    """Input or intermediate data that breaks a stated invariant."""


class CutoffTooSmall(SineconeError, ValueError):
    """A comparison bound lies beyond a spectrum's declared completeness."""


class InsufficientBaseCutoff(SineconeError, ValueError):
    """The input spectrum is not known to be complete far enough to enumerate
    the requested output window."""


class BelowHardyBound(SineconeError, ValueError):
    """Coupling below -(n-1)^2/4, where the radial quadratic form has no
    harmonic-degree dictionary value."""

    exit_code = 3


class UnboundedBelow(SineconeError, ValueError):
    """A tensor eigenvalue below -(n-1)^2/4 makes the cone Einstein operator
    unbounded below (Rayleigh quotients diverge to -infinity on shrinking
    bump profiles)."""

    exit_code = 3


class IllPosed(SineconeError, ValueError):
    exit_code = 3


class ConvergenceFailure(SineconeError, RuntimeError):
    exit_code = 2


class VerificationFailed(SineconeError, AssertionError):
    exit_code = 2


class IdentityFailed(VerificationFailed):
    """A symbolic identity produced a nonzero residual."""


class DecompositionFailed(VerificationFailed):
    pass
