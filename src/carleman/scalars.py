"""Scalar number tower: exact rationals or complex doubles.

A whole pipeline run works in a single mode. Exact mode uses
fractions.Fraction (arbitrary precision, always reduced, real only);
Float mode uses the builtin complex. Both support +, -, *, /, ** with
integer exponents, which is all the algebra below ever needs.
"""

from __future__ import annotations

import math
import re
import sys
from enum import Enum
from fractions import Fraction
from typing import Iterable, List, Sequence, Tuple, Union

from .errors import CarlemanError

Scalar = Union[Fraction, complex]


class Mode(Enum):
    EXACT = "exact"
    FLOAT = "float"

    @property
    def zero(self) -> Scalar:
        return _EXACT_ZERO if self is Mode.EXACT else 0j

    @property
    def one(self) -> Scalar:
        return _EXACT_ONE if self is Mode.EXACT else 1 + 0j

    def from_fraction(self, value: Fraction) -> Scalar:
        """Convert an exact literal into this mode's scalar type."""
        if self is Mode.EXACT:
            return Fraction(value)
        try:
            # integer true division rounds once, like float(value)
            return complex(value.numerator / value.denominator)
        except OverflowError:
            # named by its size: the digits of a huge value may pass Python's
            # limit on integer string conversion
            size = math.log10(abs(value.numerator)) - math.log10(value.denominator)
            raise CarlemanError(f"coefficient of about 1e{round(size)} "
                                f"overflows double precision") from None

    def matches(self, value: Scalar) -> bool:
        if self is Mode.EXACT:
            return isinstance(value, Fraction)
        return isinstance(value, complex)


# Fraction is immutable, so every caller can share one instance
_EXACT_ZERO = Fraction(0)
_EXACT_ONE = Fraction(1)

_INTEGER_RATIO = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?").fullmatch


def over_lcm(pairs: Sequence[Tuple[int, int]]) -> Tuple[List[int], int]:
    """Integer fractions (n, d), d > 0, over their lcm L: the numerators
    n * (L // d), in order, and L."""
    common = math.lcm(*[d for _, d in pairs])
    return [n * (common // d) for n, d in pairs], common


def sort_key(value: Scalar):
    """Deterministic ordering key; an exact value is its own key, floats
    sort by magnitude then phase."""
    if isinstance(value, Fraction):
        return value
    return (abs(value), math.atan2(value.imag, value.real), value.real, value.imag)


def nearly_equal(a: Scalar, b: Scalar, tol: float = 1e-9) -> bool:
    """Equality up to tol, relative to the larger magnitude (Float);
    exact equality in Exact mode."""
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a == b
    scale = max(1.0, abs(a), abs(b))
    return abs(a - b) <= tol * scale


def format_scalar(value: Scalar) -> str:
    """Human-readable rendering: 'p/q' or integer for exact values,
    repr floats otherwise (real part alone when imag is zero). Adding
    0.0 turns a negative zero part into 0, so no '-0' is printed."""
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    if value.imag == 0:
        return repr(value.real + 0.0)
    return repr(complex(value.real + 0.0, value.imag + 0.0))


def format_vector(values: Iterable[Scalar]) -> str:
    """Scalars bracketed and comma-separated, e.g. '[1, -1/2]'."""
    return "[" + ", ".join(map(format_scalar, values)) + "]"


def split_sign(value: Scalar) -> Tuple[str, Scalar]:
    """Real scalars give ('-', magnitude) when negative; complex values
    with an imaginary part keep their sign inside ('+', value)."""
    if value.imag == 0 and value.real < 0:
        return "-", -value
    return "+", value


def scalar_to_json(value: Scalar):
    """JSON form: exact scalars as strings, floats as [re, im] pairs."""
    if isinstance(value, Fraction):
        return format_scalar(value)
    return [value.real, value.imag]


def _cut(text: str, chars: int = 24) -> str:
    """text cut to a short prefix, so an error message never quotes a
    long literal in full."""
    return text if len(text) <= chars else text[:chars] + "..."


def _echo(value) -> str:
    return repr(_cut(value)) if isinstance(value, str) else _cut(repr(value))


def _check_length(text: str) -> None:
    """After Fraction or int refused text: a digit run past Python's limit
    is reported by its length, as cli._read_json does."""
    limit = sys.get_int_max_str_digits()
    longest = max(map(len, re.findall(r"\d+", text)), default=0)
    if limit and longest > limit:
        raise CarlemanError(f"cannot read {_echo(text)} as a scalar: "
                            f"number too long ({longest} digits)")


def _finite(number: float) -> float:
    """number, refused if json read it as nan or inf (also for 1e400)."""
    if not math.isfinite(number):
        reason = ("not a number" if math.isnan(number) else
                  "number out of range (magnitude above 1.8e308)")
        raise CarlemanError(f"cannot read a JSON number as a scalar: {reason}")
    return number


def scalar_from_json(mode: Mode, value) -> Scalar:
    """Inverse of scalar_to_json; also tolerant of bare JSON numbers. A
    value that is no scalar raises CarlemanError, quoting at most a short
    prefix of it. Exact text 'n' or 'n/d' is read as two integers, which
    fail as Fraction(text) would."""
    if isinstance(value, float):
        _finite(value)
    try:
        if mode is Mode.EXACT:
            if isinstance(value, str) and (match := _INTEGER_RATIO(value)):
                return Fraction(int(match[1]), int(match[2] or 1))
            if isinstance(value, bool) or isinstance(value, (list, tuple, dict)):
                raise CarlemanError(f"cannot read {_echo(value)} as an exact scalar")
            if isinstance(value, float):
                # decimal text keeps user intent; binary floats would surprise
                return Fraction(repr(value))
            return Fraction(value)
        if isinstance(value, (list, tuple)):
            if len(value) != 2:
                raise CarlemanError(f"float scalar pair must have 2 entries, got {len(value)}")
            return complex(_finite(float(value[0])), _finite(float(value[1])))
        if isinstance(value, str):
            return complex(Fraction(value))
        return complex(value)
    except (ValueError, ZeroDivisionError, OverflowError, TypeError) as exc:
        if isinstance(value, str):
            _check_length(value)
        raise CarlemanError(f"cannot read {_echo(value)} as a scalar: "
                            f"{_cut(str(exc), 72)}") from exc


def parse_scalar_text(mode: Mode, text: str) -> Scalar:
    """Parse a user-typed scalar: 'p/q', integer, or decimal."""
    text = text.strip()
    try:
        frac = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        _check_length(text)
        raise CarlemanError(f"cannot parse scalar {_echo(text)}") from exc
    return mode.from_fraction(frac)
