"""Shared exception types, and the default digit cap past which work is
refused with `ResourceCapError`."""

# Coordinates above this many decimal digits are refused (ResourceCapError);
# `automorphism.Orbit.capped` tests the size bound of the step into an
# iterate.  It lives here so the CLI parser can show it as a default without
# importing the map modules.
DEFAULT_DIGIT_CAP = 2_000_000


class PlaneHeightsError(Exception):
    """Base class for all library errors."""


class PolyParseError(PlaneHeightsError, ValueError):
    """Polynomial or rational text that does not match the grammar."""

    def __init__(self, message, position=None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class DegreeUndefinedError(PlaneHeightsError, ValueError):
    """Total degree requested for the zero polynomial."""


class MapValidationError(PlaneHeightsError, ValueError):
    """A map constructor received data that does not define an automorphism."""


class ResourceCapError(PlaneHeightsError, RuntimeError):
    """Work exceeded a configured bound (digit cap or depth); never a wrong answer.

    A digit-cap refusal of `Orbit.capped` also carries the refused iterate,
    relative to the walk's base (`iterate`), and the bit bound of the step
    into it that passed the cap (`bound_bits`).  The orbit tracker's other two
    refusals, "iterate l is no longer held exactly" and "the naive height
    passed the float range at iterate l", carry the iterate they name; both
    are None on any other."""

    def __init__(self, message, iterate: int | None = None, bound_bits: int | None = None):
        super().__init__(message)
        self.iterate = iterate
        self.bound_bits = bound_bits


class UndecidedPeriodicityError(PlaneHeightsError, RuntimeError):
    """An operation required a periodic/non-periodic verdict but got 'undecided'."""


class PeriodicPointError(PlaneHeightsError, ValueError):
    """An orbit operation that requires an infinite orbit was given a periodic point."""


class OutOfRangeError(PlaneHeightsError, ValueError):
    """Counting threshold below the orbit height (the count is empty there)."""
