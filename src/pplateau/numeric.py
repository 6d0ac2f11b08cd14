"""Exact/float number helpers.

Policy: everything that can stay an exact Fraction does (measures, chain
coefficients, cochain values, masses, pairings). Floats only appear when a
concave integrand with irrational values is evaluated, or in Monte-Carlo
estimates. Comparisons pick the right discipline automatically: exact when
both sides are exact, tolerance 1e-9 otherwise.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from .errors import DomainError, ParseError

Number = Union[int, Fraction, float]

FLOAT_TOL = 1e-9


def to_fraction(value) -> Fraction:
    """Coerce ints, Fractions, floats and rational strings to an exact Fraction.

    Fraction(float) is exact (binary floats are dyadic rationals), so nothing
    is lost here; decimal strings like "1.5" are parsed exactly as well.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ParseError(f"not a number: {value!r}")
    if isinstance(value, (int, float)):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"not a rational literal: {value!r}") from exc
    try:
        return Fraction(value)  # numpy scalars and other rational-like numbers
    except (TypeError, ValueError):
        raise ParseError(f"not a number: {value!r}") from None


def is_exact(value: Number) -> bool:
    return isinstance(value, (int, Fraction))


def values_equal(a: Number, b: Number) -> bool:
    if is_exact(a) and is_exact(b):
        return a == b
    return abs(float(a) - float(b)) <= FLOAT_TOL


def strictly_less(a: Number, b: Number) -> bool:
    """a < b, with a FLOAT_TOL margin when either side is a float."""
    if is_exact(a) and is_exact(b):
        return a < b
    return float(a) < float(b) - FLOAT_TOL


def check_int(value, least: int, what: str) -> int:
    if type(value) is not int or value < least:  # a bool is not an int here
        raise DomainError(f"{what} must be an integer >= {least}, got {value!r}")
    return value


def format_rational(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def parse_int(text: str, what: str = "integer") -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ParseError(f"not an {what}: {text!r}") from exc


def json_ready(value):
    """Recursively convert Fractions to 'p/q' strings for stable JSON output."""
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, dict):
        return {k: json_ready(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_ready(v) for v in value]
    return value
