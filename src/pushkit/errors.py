"""Exception types shared across the package."""

from __future__ import annotations


class PushkitError(Exception):
    """Base class for every error raised by this package."""


class TableMismatchError(PushkitError):
    """Polynomials from different variable tables were combined."""


class UnboundVariableError(PushkitError):
    """A substitution has no image for a variable that occurs."""


class GradingError(PushkitError):
    """A substitution image is not homogeneous of the variable's degree."""


class NotDivisibleError(PushkitError):
    """Exact division left a nonzero remainder."""


class NotInvertibleError(PushkitError):
    """Series inversion was applied to a polynomial with zero constant term."""

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message)
        self.offset = offset


class SymmetryError(PushkitError):
    """A value that must be invariant under permuting the Chern roots is not."""


class LocalizationIntegralityError(PushkitError):
    """The fixed-point sum failed to reduce to a polynomial.

    This signals a broken internal invariant, not bad user input: the sum over
    fixed points is always a polynomial when the inputs are well formed.
    """


class ArityError(PushkitError):
    """A generator subscript is out of range for the working rank."""

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message)
        self.offset = offset


class UnsupportedVariableError(PushkitError):
    """An operation received a variable outside its supported set."""


class ParseError(PushkitError):
    """Expression text could not be parsed; ``offset`` points at the failure."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class ExponentError(ParseError):
    """An exponent is negative or not an integer literal."""


class UsageError(ValueError):
    """The input asks for something out of range: the user's mistake, exit code 2."""
