"""Exception types shared across the package, and the one size check.

Everything raised on a domain-level misuse derives from MotzkinError so the
command line driver can map library failures to a single exit code.
Every weight and size the library takes (a rank, a length, endpoints, a
series order, a recurrence's order and degree bounds, a guard or a
count) passes through :func:`check_sizes`.
"""


class MotzkinError(Exception):
    """Base class for all library errors."""


class InvalidSpec(MotzkinError, ValueError):
    """Malformed weight specification or size: a weight, rank, length,
    order, bound or count that is not an int, or is out of range.

    It is a ValueError as well, so callers catching that for a bad
    order or bound still do.
    """


def check_sizes(names, *values, least=0):
    """Raise ``InvalidSpec`` unless every value is an int of at least
    ``least``; a bool is refused like any other non-int."""
    for v in values:
        if not isinstance(v, int) or isinstance(v, bool):
            raise InvalidSpec(f"{names} must be integers, got {v!r}")
    low = min(values)
    if low < least:
        bound = "nonnegative" if least == 0 else f"at least {least}"
        raise InvalidSpec(f"{names} must be {bound}, got {low}")


class InvalidPath(MotzkinError):
    """Step sequence violates the path invariants (height, color range)."""


class GuardExceeded(MotzkinError):
    """Enumeration would produce more output than the configured guard."""


class NotRankOne(MotzkinError):
    """Operation defined only for rank-1 specs was given a higher rank."""


class UnbalancedPath(MotzkinError):
    """Pair matching needs a path from height 0 back to height 0."""


class NonIntegralStep(MotzkinError):
    """A recurrence extension step produced a non-integer value."""


class SingularLeadingCoefficient(MotzkinError):
    """Leading recurrence coefficient vanished at some index n."""

    def __init__(self, n: int):
        super().__init__(f"leading coefficient vanishes at n={n}")
        self.n = n


class ComposeConstantTerm(MotzkinError):
    """Series composition requires the inner series to vanish at 0."""


class SymmetryRequiresAllOnes(MotzkinError):
    """The symmetric system reduction is only valid for all-ones weights."""


class UnsupportedRank(MotzkinError):
    """No reference equation is embedded for the requested rank."""


class InsufficientOrder(MotzkinError):
    """Series truncation order too small for the requested ansatz."""


class InsufficientTerms(MotzkinError):
    """Too few sequence terms for the requested recurrence search."""


class SelfCheckFailed(MotzkinError, RuntimeError):
    """A computed result failed the library's own independent check.

    This signals a defect in the library, not bad input; it is a
    RuntimeError as well so that older callers catching that still do.
    """
