"""Exception hierarchy.

PreconditionError subclasses signal that an input lies outside a routine's
stated domain (CLI exit code 2); BudgetExceeded signals that an
enumeration hit its work budget (CLI exit code 3).
"""


class KnotconcordError(Exception):
    pass


class PreconditionError(KnotconcordError):
    pass


class SingularAtT(PreconditionError):
    """The hermitianized Seifert form is singular at the requested point
    (the point is a root of the Alexander polynomial on the circle)."""


class EndpointCollision(PreconditionError):
    """The requested parameter is an endpoint of a representation arc,
    where the arc count is ill defined."""


class InfiniteHomology(PreconditionError):
    """The branched cover has infinite first homology."""


class UnsupportedShape(PreconditionError):
    """Polynomial outside the family handled by the hypothesis checker."""


class HypothesisUnverified(PreconditionError):
    """A norm-test verdict was requested under unverified hypotheses."""


class ParseError(PreconditionError):
    """Malformed planar diagram text.

    position is the character offset of the offending token, when known.
    """

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position


class IncidenceError(PreconditionError):
    """Planar diagram code with inconsistent arc incidences.

    arc is the offending edge or arc label, when known.
    """

    def __init__(self, message, arc=None):
        super().__init__(message)
        self.arc = arc


class BudgetExceeded(KnotconcordError):
    """Enumeration exceeded its candidate budget."""

    def __init__(self, message, budget=None):
        super().__init__(message)
        self.budget = budget


class InternalInvariantViolation(KnotconcordError):
    """A theorem-backed postcondition failed; indicates a bug."""
