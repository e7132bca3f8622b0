"""Exception hierarchy shared across the package."""


class BiFreeError(Exception):
    """Base class for all errors raised by this package."""


class SizeError(BiFreeError, ValueError):
    """Ground-set size out of range or mismatched between arguments."""


class OrderError(BiFreeError, ValueError):
    """A refinement or chi-order precondition was violated."""


class InsufficientDataError(BiFreeError, LookupError):
    """A moment was requested that the available pure data does not determine."""

    def __init__(self, word_text):
        super().__init__(f"insufficient pure data for word: {word_text}")
        self.word_text = word_text


class DegenerateCentringError(BiFreeError, ArithmeticError):
    """All candidate pivots had zero linear coefficient while centring."""


class DomainError(BiFreeError, ValueError):
    """Input outside the operation's domain (e.g. right-sided letters)."""


class ModeError(BiFreeError, ValueError):
    """Operation requires a distribution layer or mode that is absent."""


class UnknownSymbolError(BiFreeError, KeyError):
    """A word names a symbol that no generator of the family has."""

    __str__ = Exception.__str__  # the message itself, not KeyError's repr of it


class UnknownPairError(BiFreeError, KeyError):
    """A letter names a pair that has no pure distribution."""

    __str__ = Exception.__str__


class PositionError(BiFreeError, IndexError):
    """A position lies outside the word or chi it indexes."""


class SpecError(BiFreeError, ValueError):
    """A specification file does not have the documented shape."""
