"""Exact integer and rational arithmetic primitives.

Every count in this package is an exact integer and every probability an
exact rational.  The building blocks work on Python's unbounded ``int``,
with ``fractions.Fraction`` only where a value is rational.  The
conventions matter more than the formulas:

* ``binomial(n, k)`` is defined for arbitrary integer ``n`` (including
  negative) through the falling factorial n(n-1)...(n-k+1)/k!, and is 0
  whenever ``k < 0``.  This is the convention under which the summation
  identities used elsewhere hold verbatim.
* ``pochhammer(q, k)`` is the rising factorial q(q+1)...(q+k-1) with
  ``pochhammer(q, 0) = 1``; the shift count ``k`` must be nonnegative.
  It is one integer product reduced by one gcd, returned as a Fraction.
* ``rising2(x, k)`` is the step-two product x(x+2)...(x+2k-2) = 2**k (x/2)_k,
  computed in the type of ``x``: an integer for integer ``x``, so a sum of
  half-integer rising factorials can run on integers over one power of two.

Values never leave exact arithmetic here; callers decide when (if ever)
to drop to floating point.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

Rational = Union[int, Fraction]


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
    """Rising factorial q(q+1)...(q+k-1) = n(n+d)...(n+(k-1)d) / d**k for q = n/d; k >= 0."""
    if k < 0:
        raise ValueError(f"pochhammer expects a nonnegative shift count, got {k}")
    n, d = Fraction(q).as_integer_ratio()
    return Fraction(math.prod(range(n, n + k * d, d)), d**k)


def rising2(x: Rational, k: int) -> Rational:
    """Step-two rising product x(x+2)...(x+2k-2) = 2**k (x/2)_k in the type of x, 1 for k = 0; k >= 0."""
    if k < 0:
        raise ValueError(f"rising2 expects a nonnegative factor count, got {k}")
    return math.prod(x + 2 * j for j in range(k))


def half(n: Rational) -> Fraction:
    """n / 2 as an exact rational."""
    return Fraction(n, 2)


def as_integer(value: Fraction, context: str) -> int:
    """Collapse a rational that must be integral; non-integral values signal a bug."""
    if value.denominator != 1:
        raise ArithmeticError(f"{context}: expected an integer, got {value}")
    return value.numerator
