"""Domain errors shared across the package.

Every error carries a short machine-readable ``code`` so the CLI can map
failures to exit status 2 and emit stable error columns.
"""


class DomainError(ValueError):
    """Base class for all domain-level failures."""

    code = "DOMAIN_ERROR"


class DegenerateSupportError(DomainError):
    """Raised when k_min == k_max and the requested quantity is undefined."""

    code = "DEGENERATE_SUPPORT"


class DivergentError(DomainError):
    """Raised when an integral or moment diverges for the given parameters."""

    code = "DIVERGENT"


class AllIsolatedError(DomainError):
    """Raised when every vertex has degree zero and ratios are undefined."""

    code = "ALL_ISOLATED"


class ImpossibleSequenceError(DomainError):
    """Raised when a degree sequence cannot be realized as a simple graph."""

    code = "IMPOSSIBLE_SEQUENCE"


class TooFewPointsError(DomainError):
    """Raised when fewer than two observations fall in the fitting range."""

    code = "TOO_FEW_POINTS"


class NoMaximumError(DomainError):
    """Raised when the likelihood is monotone on the search bracket."""

    code = "NO_MAXIMUM"


class OutOfRangeError(DomainError):
    """Raised when an observed moment is unattainable on the search bracket."""

    code = "OUT_OF_RANGE"


class NonMonotoneError(DomainError):
    """Raised when the bracket-endpoint monotonicity check fails."""

    code = "NON_MONOTONE"


class TooManyPairsError(DomainError):
    """Raised when an all-pairs traversal would exceed its work limit."""

    code = "TOO_MANY_PAIRS"
