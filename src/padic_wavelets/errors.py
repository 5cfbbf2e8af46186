"""Exception hierarchy shared across the package."""


class PadicError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(PadicError, ValueError):
    """Malformed or out-of-domain input (bad prime, zero denominator, ...)."""


class PrimeMismatchError(InvalidInputError):
    """Two operands built over different primes were combined."""


class EnumerationCapError(PadicError):
    """A cell enumeration would exceed the configured cap."""

    def __init__(self, requested: int | str, cap: int):
        self.requested = requested
        self.cap = cap
        super().__init__(
            f"enumeration of {requested} cells exceeds the cap of {cap}"
        )


class FloatRangeError(PadicError, OverflowError):
    """An exact value lies beyond the range of a float."""


class OutputRangeError(PadicError):
    """A result holds an integer too long to be written as text."""


class WindowClipError(PadicError):
    """An operator tried to move a coefficient outside the expansion window."""

    def __init__(self, index, message: str = ""):
        self.index = index
        super().__init__(message or f"index {index} left the window")


class UnsupportedCaseError(PadicError):
    """The requested branch is outside the implemented case table."""
