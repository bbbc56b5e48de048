"""Exception types raised across the package."""


class CutlabError(Exception):
    """Base class for all cutlab errors."""


class NotAGroup(CutlabError):
    """A multiplication table violates a group axiom.

    Carries a human-readable reason naming the offending cell or triple.
    """


class OrderCapExceeded(CutlabError):
    """A construction would exceed the configured maximum group order."""


class InvalidParameters(CutlabError):
    """A group-spec document is well-formed but its parameters are invalid."""


class NotAPermutation(InvalidParameters):
    """A generator image sequence is not a bijection on 0..degree-1."""


class NotAPrime(InvalidParameters):
    """A parameter that must be an (odd) prime is not."""


class InvalidMetacyclicParameters(InvalidParameters):
    """Metacyclic parameters fail gcd(r, m) = 1 or r^n = 1 (mod m)."""


class NotNormal(CutlabError):
    """A quotient was requested by a non-normal subgroup."""


class CenterTooLarge(CutlabError):
    """The center has more subgroups than the configured enumeration cap."""


class HypothesisViolated(CutlabError):
    """Inputs do not satisfy the hypotheses of a characterization."""


class ParseError(CutlabError):
    """A group-spec document is malformed.

    Attributes:
        position: character offset into the document, when known.
    """

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position

