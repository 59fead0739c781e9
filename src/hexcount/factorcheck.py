"""Reduced polynomial determinants, their factored forms and row-combination identities.

After row/column reduction, the fixed-rhombus determinant at the
distinguished center positions boils down to an order a-1 matrix whose
(i, j) entry (2 <= i, j <= a) is

    (b+i-j+2)_{j-2} * (c-i+j+2)_{a-j} * H(b, c, x, y, i, j)

with H a fixed quartic and (x, y) specialized to x = (a+b)/2 and either
y = (a+c-1)/2 (the CENTRAL parity class) or y = (a+c)/2 (ALMOST_CENTRAL).
4H is an integer polynomial in b, c, 2x and 2y, evaluated in the type of
b and c (integers on the grid, Fractions at the rational identity points)
and divided by 4 once per entry.  Two families of statements are made:

* factored closed forms for the determinants themselves (products of
  linear factors times a terminating sum), and
* the row-combination identities behind the linear-factor divisibility
  claims: for suitable specializations c = -k or b = -k, an explicit
  weighted sum of rows vanishes.

``hexcount.checks`` turns these into PASS/FAIL records.  Grid agreement
proves a factored form only given a-priori degree bounds on both sides,
and only the determinant's is argued (``checks._degree_bound``).

On the integer grid 4M is an integer matrix, because 4H is an integer
polynomial, so ``checks`` takes det M as det(4M) / 4^(a-1) from the
fraction-free engine of ``pathcount``.  The terminating sums inside the
factored forms are the functions ``formulas`` uses for the closed-form
counts, so grid certification checks the code that counts.
Both factored forms carry the parity of a as a shift s = a % 2, not as a branch.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from typing import Dict, List

from .arith import Rational, half, pochhammer, rising2
from .geometry import ParityClass
from . import formulas

RatMatrix = List[List[Fraction]]


class SingularPoint(ValueError):
    """A row-combination coefficient has a zero denominator at this evaluation point."""


class RowIdentity(enum.Enum):
    """Row-combination identities; one per linear-factor family and variant."""

    C_FACTOR = "c_factor"
    B_FACTOR_1 = "b_factor_1"
    B_FACTOR_2 = "b_factor_2"
    C_FACTOR_HAT = "c_factor_hat"
    B_FACTOR_1_HAT = "b_factor_1_hat"
    B_FACTOR_2_HAT = "b_factor_2_hat"


def _h4(b: Rational, c: Rational, X: Rational, Y: Rational, i: int, j: int) -> Rational:
    """4H at x = X/2, y = Y/2: an integer polynomial in b, c, X and Y."""
    return (
        (b + i - j + 1) * (c - i + j + 1) * (2 * c - Y + 2 * j - 2) * (2 * b + 2 * i - X - 2)
        - (c - i + j) * (c - i + j + 1) * (X - 2 * j + 2) * (2 * b + 2 * i - X - 2)
        - (b + i - j) * (b + i - j + 1) * (Y - 2 * i + 4) * (2 * c - Y + 2 * j - 2)
        + (b + i - j + 1) * (c - i + j + 1) * (X - 2 * j + 2) * (Y - 2 * i + 4)
    )


def build_poly_matrix(a: int, variant: ParityClass, b: Rational, c: Rational) -> RatMatrix:
    """Reduced matrix of order a-1 (rows/columns indexed 2..a) at one (b, c); 4H at X = a+b, Y = 2y."""
    if a < 2:
        raise ValueError(f"matrix order a-1 requires a >= 2, got a={a}")
    if variant is ParityClass.CENTRAL:
        Y = a + c - 1
    elif variant is ParityClass.ALMOST_CENTRAL:
        Y = a + c
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return [
        [
            Fraction(pochhammer(b + i - j + 2, j - 2) * pochhammer(c - i + j + 2, a - j) * _h4(b, c, a + b, Y, i, j), 4)
            for j in range(2, a + 1)
        ]
        for i in range(2, a + 1)
    ]


def _shared_prefactor(a: int, b: Rational, c: Rational) -> Fraction:
    """The part both factored determinants share.

    Its factor 2^(a-1) (h(b+s))_{a//2} (h(b+2-s))_{(a-1)//2}, with h(x) = x/2 and s = a % 2, is
    rising2(b+s, a//2) rising2(b+2-s, (a-1)//2): a//2 + (a-1)//2 = a-1, so the powers of two cancel.
    """
    if a < 2:
        raise ValueError(f"requires a >= 2, got a={a}")
    s = a % 2
    return (
        math.prod(pochhammer(1 + b + c, i - 1) * math.factorial(i) for i in range(1, a))
        * rising2(b + s, a // 2)
        * rising2(b + 2 - s, (a - 1) // 2)
    )


def factored_det_central(a: int, b: Rational, c: Rational) -> Fraction:
    """Factored closed form of det(build_poly_matrix(a, CENTRAL, b, c))."""
    return (
        _shared_prefactor(a, b, c)
        * pochhammer(half(c + 1 + a % 2), a // 2)
        * pochhammer(half(1 + b + c), a // 2)
        * formulas.central_sum(a, b, c)
    )


def factored_det_almost_central(a: int, b: Rational, c: Rational) -> Fraction:
    """Factored closed form of det(build_poly_matrix(a, ALMOST_CENTRAL, b, c))."""
    return (
        _shared_prefactor(a, b, c)
        * pochhammer(half(c + 2 - a % 2), (a - 1) // 2)
        * pochhammer(half(2 + b + c), (a - 1) // 2)
        * formulas.almost_central_sum(a, b, c)
    )


def p_poly(n: int, c: Rational) -> Fraction:
    """Auxiliary polynomial sequence appearing in the B-factor coefficients.

    Its terms (h(1+c-n))_{n-h-1} (h(1+c-2h+n))_h share the denominator 2^(n-1), so one sum of rising2 products.
    """
    if n < 1:
        raise ValueError(f"p_poly is defined for n >= 1, got {n}")
    return Fraction(
        sum(rising2(1 + c - n, n - h - 1) * rising2(1 + c - 2 * h + n, h) for h in range(n)),
        2 ** (n - 1),
    )


def _ratio(numerator: Fraction, denominator: Fraction) -> Fraction:
    if denominator == 0:
        raise SingularPoint("singular coefficient, choose another evaluation point")
    return numerator / denominator


def _c_factor_coeffs(a: int, k: int, b: Fraction, shifted: bool) -> Dict[int, Fraction]:
    t = int(shifted)
    coeffs = {}
    for i in range((a - k + 3 - t) // 2, a - k + 2):
        m = a - k + 1 - i
        numerator = (-1) ** (i - t) * pochhammer(b + i, m) * pochhammer(half(-a + k - 1 - t + 2 * i), m)
        denominator = pochhammer(1, m) * pochhammer(half(b - a + 2 * i - 2), m)
        coeffs[i] = _ratio(numerator, denominator)
    return coeffs


def _b_factor_coeffs(a: int, k: int, c: Fraction, second: bool, shifted: bool) -> Dict[int, Fraction]:
    lo = k + 3 if second else k + 2
    den_shift = 4 if shifted else 3
    # In the second family the other rows sum to minus row k+1, so row k+1 has weight 1.
    coeffs = {k + 1: Fraction(1)} if second else {}
    for i in range(lo, (a + k + 2) // 2 + 1):
        if second:
            length = rising_len = i - k - 1
            poly = p_poly(i - k - 2, c + a - k - i + (1 if shifted else 0))
        else:
            length = i - k if shifted else i - k - 2
            rising_len = i - k - 2
            poly = p_poly(i - k - 1, c + a - k - i + (2 if shifted else 1))
        numerator = (
            (-1) ** (i - k)
            * pochhammer(c + a - i + 2, length)
            * pochhammer(half(a + k - 2 * i + 4), rising_len)
        )
        denominator = pochhammer(1, i - k - 1) * pochhammer(half(c + a - 2 * i + den_shift), i - k - 2) ** 2
        coeffs[i] = _ratio(numerator, denominator) * poly
    return coeffs


def admissible_k(identity: RowIdentity, a: int) -> List[int]:
    """All k values for which the identity makes a claim at this a."""
    if identity is RowIdentity.C_FACTOR:
        return [k for k in range(1, a + 1) if (k - a) % 2 != 0]
    if identity is RowIdentity.C_FACTOR_HAT:
        return [k for k in range(1, a) if (k - a) % 2 == 0]
    if identity in (RowIdentity.B_FACTOR_1, RowIdentity.B_FACTOR_1_HAT):
        # k = a-2 admitted: rows a-1 and a of the matrix vanish there outright.
        return [k for k in range(0, a - 1) if (k - a) % 2 == 0]
    return [k for k in range(1, a - 2) if (k - a) % 2 == 0]


def check_row_combination(identity: RowIdentity, a: int, k: int, free_param: Rational) -> List[Fraction]:
    """Weighted row sum of the specialized matrix, one value per column j=2..a.

    The identity claims the zero vector.  C-type identities set c = -k and
    leave b free; B-type identities set b = -k and leave c free.  A
    vanishing coefficient denominator raises ``SingularPoint``.
    """
    window = admissible_k(identity, a)
    if k not in window:
        raise ValueError(f"{identity.name} needs k in {window}, got a={a}, k={k}")
    free = Fraction(free_param)
    shifted = identity in (RowIdentity.C_FACTOR_HAT, RowIdentity.B_FACTOR_1_HAT, RowIdentity.B_FACTOR_2_HAT)
    variant = ParityClass.ALMOST_CENTRAL if shifted else ParityClass.CENTRAL
    if identity in (RowIdentity.C_FACTOR, RowIdentity.C_FACTOR_HAT):
        coeffs = _c_factor_coeffs(a, k, free, shifted)
        matrix = build_poly_matrix(a, variant, b=free, c=-k)
    else:
        second = identity in (RowIdentity.B_FACTOR_2, RowIdentity.B_FACTOR_2_HAT)
        coeffs = _b_factor_coeffs(a, k, free, second, shifted)
        matrix = build_poly_matrix(a, variant, b=-k, c=free)
    residual = [Fraction(0)] * (a - 1)
    for i, weight in coeffs.items():
        for col, entry in enumerate(matrix[i - 2]):  # rows are indexed 2..a
            residual[col] += weight * entry
    return residual
