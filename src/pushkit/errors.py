"""Exception types shared across the package."""

from __future__ import annotations


class PushkitError(Exception):
    """Base class for every error raised by this package."""


class TableMismatchError(PushkitError):
    """Polynomials from different variable tables were combined."""


class UnboundVariableError(PushkitError):
    """A name is not a generator of the variable table it is looked up in."""


class GradingError(PushkitError):
    """A substitution image is not homogeneous of the variable's degree."""


class NotDivisibleError(PushkitError):
    """Exact division left a nonzero remainder."""


class _PositionedError(PushkitError):
    """An error whose ``offset`` is the byte offset of its cause in the input, or None."""

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message)
        self.offset = offset


class NotInvertibleError(_PositionedError):
    """Series inversion was applied to a polynomial with zero constant term."""


class SymmetryError(PushkitError):
    """A value that must be invariant under permuting the Chern roots is not."""


class ArityError(_PositionedError):
    """A generator subscript is out of range for the working rank."""


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
