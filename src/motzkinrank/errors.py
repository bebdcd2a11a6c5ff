"""Exception types shared across the package.

Everything raised on a domain-level misuse derives from MotzkinError so the
command line driver can map library failures to a single exit code.
"""


class MotzkinError(Exception):
    """Base class for all library errors."""


class InvalidSpec(MotzkinError):
    """Malformed weight specification (bad rank, lengths, or weights)."""


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
