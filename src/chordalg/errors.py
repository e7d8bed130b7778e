"""Exception types shared across the library, plus the runtime invariant switch."""


class ChordalgError(Exception):
    """Base class for all library errors."""


class NotChordal(ChordalgError):
    pass


class NotInterval(ChordalgError):
    pass


class NotProperInterval(ChordalgError):
    pass


class TooLarge(ChordalgError):
    pass


class RadiusTooSmall(ChordalgError):
    pass


class DiameterTooSmall(ChordalgError):
    pass


class EpsilonTooSmall(ChordalgError):
    pass


class BadEpsilon(ChordalgError):
    pass


class UnknownNode(ChordalgError):
    pass


class Infeasible(ChordalgError):
    pass


class NonTermination(ChordalgError):
    pass


class BadSpec(ChordalgError):
    pass


class ParseError(ChordalgError):
    pass


class VerificationFailed(ChordalgError):
    pass


class RoundCapExceeded(ChordalgError):
    """Raised when a simulation hits its round cap; carries the partial transcript."""

    def __init__(self, message, transcript=None):
        super().__init__(message)
        self.transcript = transcript


_DEBUG_INVARIANTS = False


def set_debug_invariants(enabled):
    """Toggle expensive runtime assertion sweeps (used by the CLI flag)."""
    global _DEBUG_INVARIANTS
    _DEBUG_INVARIANTS = bool(enabled)


def debug_invariants():
    return _DEBUG_INVARIANTS
