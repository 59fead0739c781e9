"""Exact integer and rational arithmetic primitives.

Every count in this package is an exact integer and every probability an
exact rational, so all combinatorial building blocks live on top of
Python's unbounded ``int`` and ``fractions.Fraction``.  The conventions
matter more than the formulas:

* ``binomial(n, k)`` is defined for arbitrary integer ``n`` (including
  negative) through the falling factorial n(n-1)...(n-k+1)/k!, and is 0
  whenever ``k < 0``.  This is the convention under which the summation
  identities used elsewhere hold verbatim.
* ``pochhammer(q, k)`` is the rising factorial q(q+1)...(q+k-1) with
  ``pochhammer(q, 0) = 1``; the shift count ``k`` must be nonnegative.

Values never leave exact arithmetic here; callers decide when (if ever)
to drop to floating point.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

Rational = Union[int, Fraction]


def factorial(n: int) -> int:
    """n! for nonnegative integer n."""
    if n < 0:
        raise ValueError(f"factorial expects a nonnegative integer, got {n}")
    return math.factorial(n)


def binomial(n: int, k: int) -> int:
    """Binomial coefficient with integer (possibly negative) upper argument.

    k < 0 yields 0.  For n < 0 the value is the k-term falling factorial
    divided by k!, equivalently (-1)**k * binomial(-n+k-1, k).
    """
    if k < 0:
        return 0
    if n >= 0:
        return math.comb(n, k)
    # Falling-factorial continuation for negative upper argument.
    return (-1) ** k * math.comb(-n + k - 1, k)


def pochhammer(q: Rational, k: int) -> Fraction:
    """Rising factorial q(q+1)...(q+k-1); k must be nonnegative."""
    if k < 0:
        raise ValueError(f"pochhammer expects a nonnegative shift count, got {k}")
    result = Fraction(1)
    q = Fraction(q)
    for step in range(k):
        result *= q + step
    return result


def half(n: Rational) -> Fraction:
    """n / 2 as an exact rational."""
    return Fraction(n, 2)


def as_integer(value: Fraction, context: str) -> int:
    """Collapse a rational that must be integral; non-integral values signal a bug."""
    if value.denominator != 1:
        raise ArithmeticError(f"{context}: expected an integer, got {value}")
    return value.numerator
