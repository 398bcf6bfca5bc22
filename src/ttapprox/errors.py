"""Exception types shared across the package, and its one integer check,
one number check and one size check."""

import math
import numbers
import operator
import sys


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


def _ints(v, what: str, low: int) -> tuple:
    """v, a sequence that is not a str, as a tuple of _int(entry, what,
    low), else InvalidArgumentError."""
    try:
        entries = None if isinstance(v, str) else list(v)
    except TypeError:
        entries = None
    if entries is None:
        raise InvalidArgumentError(f"{what} must be a sequence of integers, got {v!r}")
    return tuple(_int(x, what, low) for x in entries)


def _number(v, what: str, low: float = -math.inf, strict: bool = False) -> float:
    """v as a finite float >= low (> low when strict), else
    InvalidArgumentError: Python and numpy reals pass; bool, str, None,
    NaN, +-Inf and ints beyond the float range do not."""
    x = math.nan
    if isinstance(v, numbers.Real) and not isinstance(v, bool):
        try:
            x = float(v)
        except OverflowError:  # an int beyond the float range
            pass
    if not (math.isfinite(x) and (x > low if strict else x >= low)):
        bound = "" if low == -math.inf else f" {'>' if strict else '>='} {low:g}"
        raise InvalidArgumentError(f"{what} must be a finite number{bound}, got {v!r}")
    return x


def _check_indexable(dims) -> None:
    """Raise unless a float64 array of shape dims has fewer bytes than
    numpy can index (sys.maxsize, numpy's intp range), so a huge request
    is an argument error, not numpy's ValueError."""
    if 8 * math.prod(dims) > sys.maxsize:
        raise InvalidArgumentError(f"a {'x'.join(map(str, dims))} float64 array is too big to index")
