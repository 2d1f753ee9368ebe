"""Exception types shared across the package."""


class GirthlabError(Exception):
    """Base class for all package-specific errors."""


class UnsupportedOrder(GirthlabError):
    """Requested field order is outside the supported table."""


class ZeroInverse(GirthlabError):
    """Multiplicative inverse of the additive identity requested."""


class NoSuchPair(GirthlabError):
    """No same-part pair at distance two exists in the bipartite graph."""


class BudgetExceeded(GirthlabError):
    """An exhaustive enumeration exceeded its node budget.

    May carry a partial result (``result`` attribute) when the caller can
    use a truncated lower bound.
    """

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


class GirthTooSmall(GirthlabError):
    """Graph girth below what the checked inequality requires."""


class EmptyPart(GirthlabError):
    """A bipartite operation received a graph with an empty part."""


class NotBipartite(GirthlabError):
    """Operation requires a bipartite graph."""


class NotRegular(GirthlabError):
    """Operation requires a regular graph."""


class PartViolation(GirthlabError):
    """A sampled vertex set is not inside the required part."""


class HypothesisFailed(GirthlabError):
    """Preconditions of a conditional inequality do not hold.

    ``failed`` lists which hypothesis labels failed.
    """

    def __init__(self, message, failed=()):
        super().__init__(message)
        self.failed = tuple(failed)


class EpsilonOutOfRange(GirthlabError):
    """Epsilon parameter outside the valid open interval."""


class NoConvergence(GirthlabError):
    """Eigensolver failed to converge within the sweep limit."""


class ParseError(GirthlabError):
    """Malformed graph input (graph6 or JSON edge list)."""


class Unsupported(GirthlabError):
    """Input outside the supported desk-scale range (e.g. graph6 n > 62)."""
