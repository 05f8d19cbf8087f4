"""Typed errors shared across the package."""


class ArtinError(Exception):
    """Base class for every domain error raised by this package."""


class DiagramError(ArtinError, ValueError):
    """Malformed diagram input: bad JSON shape, bad labels, bad vertices."""


class RankGuardError(ArtinError):
    """An enumeration over subsets or permutations exceeded its rank guard."""

    def __init__(self, what: str, rank: int, guard: int):
        self.what = what
        self.rank = rank
        self.guard = guard
        super().__init__(f"{what}: rank {rank} exceeds guard {guard}")


DEFAULT_CAP = 10**6  # the bound every capped operation uses unless given one


class CapExceededError(ArtinError):
    """A bounded search (closure, ball, matrix) grew past its cap."""

    def __init__(self, what: str, cap: int):
        self.what = what
        self.cap = cap
        super().__init__(f"{what} exceeded cap {cap}")


class FiniteTypeRequiredError(ArtinError):
    """Operation is defined only for finite-type diagrams (or subsets)."""


class GarsideError(ArtinError):
    """A Garside-structure assertion failed (gcd uniqueness, sigma lookup).

    Raising this signals an internal inconsistency, not a valid input state.
    """
