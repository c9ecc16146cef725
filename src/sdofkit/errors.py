"""Exception types shared across the package."""


class SdofError(Exception):
    """Base class for all package-specific errors."""


class DegenerateInput(SdofError):
    """Matrix pair is rank deficient in a way that breaks the full-rank
    dimension bookkeeping of the GSVD."""


class OutOfRange(SdofError):
    """Requested point lies outside the valid parameter range."""


class TargetInfeasible(SdofError):
    """Requested S.D.o.F. pair lies outside the achievable region."""


class ConstructionDeficit(SdofError):
    """A precoder pair for the target could not be assembled, or the
    assembled pair does not score the target, signalling a degenerate
    channel draw."""


class DegenerateDraw(SdofError):
    """Channel sampling failed full-rank checks repeatedly."""


class SchemaViolation(SdofError):
    """A JSON document does not conform to its shipped schema."""
