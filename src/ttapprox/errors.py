"""Exception types shared across the package, and its one integer check."""

import operator


class InvalidArgumentError(ValueError):
    """An argument violates a documented precondition."""


class ParseError(Exception):
    """A serialized file is malformed.

    Carries the byte offset at which parsing failed so corrupt files can
    be diagnosed without a hex editor.
    """

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


def _int(v, what: str, low: int) -> int:
    """v as an int >= low, else InvalidArgumentError: Python and numpy
    integers pass (through operator.index); bool, float and str do not."""
    try:
        n = None if isinstance(v, bool) else operator.index(v)
    except TypeError:
        n = None
    if n is None or n < low:
        raise InvalidArgumentError(f"{what} must be an integer >= {low}, got {v!r}")
    return n
