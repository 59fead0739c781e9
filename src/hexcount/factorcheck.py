"""Verification layer for the reduced polynomial determinants.

After row/column reduction, the fixed-rhombus determinant at the
distinguished center positions boils down to an order a-1 matrix whose
(i, j) entry (2 <= i, j <= a) is

    (b+i-j+2)_{j-2} * (c-i+j+2)_{a-j} * H(b, c, x, y, i, j)

with H a fixed quartic and (x, y) specialized to x = (a+b)/2 and either
y = (a+c-1)/2 (the CENTRAL parity class) or y = (a+c)/2 (ALMOST_CENTRAL).
Entries are polynomials in b and c.  This module checks two families of
statements about them with exact rational arithmetic:

* factored closed forms for the determinants themselves (products of
  linear factors times a terminating sum), certified by evaluating both
  sides on integer grids larger than the degree bound, and
* the row-combination identities behind the linear-factor divisibility
  claims: for suitable specializations c = -k or b = -k, an explicit
  weighted sum of rows vanishes.

Determinants clear each row's denominators and run the fraction-free
integer engine of ``pathcount``.  The terminating sums inside the factored
forms are the functions ``formulas`` uses for the closed-form counts, so
grid certification checks the code that counts.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

from .arith import Rational, factorial, half, pochhammer
from .geometry import ParityClass
from . import formulas, pathcount

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


def h_poly(b: Rational, c: Rational, x: Rational, y: Rational, i: int, j: int) -> Fraction:
    """The quartic entry factor H."""
    b, c, x, y = Fraction(b), Fraction(c), Fraction(x), Fraction(y)
    return (
        (b + i - j + 1) * (c - i + j + 1) * (c - y + j - 1) * (b + i - x - 1)
        - (c - i + j) * (c - i + j + 1) * (x - j + 1) * (b + i - x - 1)
        - (b + i - j) * (b + i - j + 1) * (y - i + 2) * (c - y + j - 1)
        + (b + i - j + 1) * (c - i + j + 1) * (x - j + 1) * (y - i + 2)
    )


def build_poly_matrix(a: int, variant: ParityClass, b: Rational, c: Rational) -> RatMatrix:
    """Reduced matrix of order a-1 (rows/columns indexed 2..a) at one (b, c)."""
    if a < 2:
        raise ValueError(f"matrix order a-1 requires a >= 2, got a={a}")
    b, c = Fraction(b), Fraction(c)
    x = Fraction(a + b, 2)
    if variant is ParityClass.CENTRAL:
        y = Fraction(a + c - 1, 2)
    elif variant is ParityClass.ALMOST_CENTRAL:
        y = Fraction(a + c, 2)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return [
        [
            pochhammer(b + i - j + 2, j - 2)
            * pochhammer(c - i + j + 2, a - j)
            * h_poly(b, c, x, y, i, j)
            for j in range(2, a + 1)
        ]
        for i in range(2, a + 1)
    ]


def det_rational(matrix: RatMatrix) -> Fraction:
    """Exact determinant over the rationals.

    Each row is scaled by the lcm of its denominators, the integer matrix
    goes through ``det_fraction_free``, and the result is divided by the
    product of the row scales.
    """
    rows = []
    scale = 1
    for row in matrix:
        row = [Fraction(v) for v in row]
        row_scale = math.lcm(*(v.denominator for v in row))
        rows.append([v.numerator * (row_scale // v.denominator) for v in row])
        scale *= row_scale
    return Fraction(pathcount.det_fraction_free(rows), scale)


def _shared_prefactor(a: int, b: Fraction, c: Fraction) -> Fraction:
    value = Fraction(1)
    for i in range(2, a):
        value *= pochhammer(1 + b + c, i - 1)
    for i in range(2, a + 1):
        value *= factorial(i - 1)
    return value


def factored_det_central(a: int, b: Rational, c: Rational) -> Fraction:
    """Factored closed form of det(build_poly_matrix(a, CENTRAL, b, c))."""
    if a < 2:
        raise ValueError(f"requires a >= 2, got a={a}")
    b, c = Fraction(b), Fraction(c)
    value = _shared_prefactor(a, b, c)
    if a % 2 == 1:
        value *= (
            2 ** (a - 1)
            * pochhammer(half(b + 1), (a - 1) // 2) ** 2
            * pochhammer(half(c + 2), (a - 1) // 2)
            * pochhammer(half(1 + b + c), (a - 1) // 2)
        )
    else:
        value *= (
            2 ** (a - 2)
            * b
            * pochhammer(half(b + 2), (a - 2) // 2) ** 2
            * pochhammer(half(c + 1), a // 2)
            * pochhammer(half(1 + b + c), a // 2)
        )
    return value * formulas.central_sum(a, b, c)


def factored_det_almost_central(a: int, b: Rational, c: Rational) -> Fraction:
    """Factored closed form of det(build_poly_matrix(a, ALMOST_CENTRAL, b, c))."""
    if a < 2:
        raise ValueError(f"requires a >= 2, got a={a}")
    b, c = Fraction(b), Fraction(c)
    value = _shared_prefactor(a, b, c) * 2 ** (a - 1)
    if a % 2 == 1:
        value *= (
            pochhammer(half(b + 1), (a - 1) // 2) ** 2
            * pochhammer(half(c + 1), (a - 1) // 2)
            * pochhammer(half(2 + b + c), (a - 1) // 2)
        )
    else:
        value *= (
            pochhammer(half(b), a // 2)
            * pochhammer(half(b + 2), (a - 2) // 2)
            * pochhammer(half(c + 2), (a - 2) // 2)
            * pochhammer(half(2 + b + c), (a - 2) // 2)
        )
    return value * formulas.almost_central_sum(a, b, c)


def p_poly(n: int, c: Rational) -> Fraction:
    """Auxiliary polynomial sequence appearing in the B-factor coefficients."""
    if n < 1:
        raise ValueError(f"p_poly is defined for n >= 1, got {n}")
    c = Fraction(c)
    return sum(
        (
            pochhammer(half(1 + c - n), n - h - 1) * pochhammer(half(1 + c - 2 * h + n), h)
            for h in range(n)
        ),
        Fraction(0),
    )


def _ratio(numerator: Fraction, denominator: Fraction) -> Fraction:
    if denominator == 0:
        raise SingularPoint("singular coefficient, choose another evaluation point")
    return numerator / denominator


def _c_factor_coeffs(a: int, k: int, b: Fraction, shifted: bool) -> Dict[int, Fraction]:
    lo = (a - k + 2 + (0 if shifted else 1)) // 2
    coeffs = {}
    for i in range(lo, a - k + 2):
        m = a - k + 1 - i
        if shifted:
            sign = (-1) ** (i - 1)
            rising = pochhammer(half(-a + k - 2 + 2 * i), m)
        else:
            sign = (-1) ** i
            rising = pochhammer(half(-a + k - 1 + 2 * i), m)
        numerator = sign * pochhammer(b + i, m) * rising
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


# ---------------------------------------------------------------------------
# Verification suite: PASS/FAIL records over grids and evaluation points.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckRecord:
    """One verified claim: an identity name, its parameters, and the defect."""

    identity: str
    params: Dict[str, str]
    passed: bool
    residual: str

    def line(self) -> str:
        parts = [self.identity]
        parts.extend(f"{key}={value}" for key, value in self.params.items())
        parts.append("PASS" if self.passed else "FAIL")
        parts.append(f"residual={self.residual}")
        return " ".join(parts)

    def to_json(self) -> dict:
        return {
            "identity": self.identity,
            "params": dict(self.params),
            "pass": self.passed,
            "residual": self.residual,
        }


def degree_bound(a: int) -> int:
    """Upper bound for the determinant's degree in b (equally in c)."""
    return (a + 2) * (a - 1) // 2


def grid_values(a: int) -> range:
    """Integer evaluation grid per axis: covers -6..6 and exceeds the degree bound."""
    return range(-6, -6 + max(13, degree_bound(a) + 2))


def check_factorization(a: int, variant: ParityClass) -> CheckRecord:
    """Certify det == factored closed form on the full integer grid for one a."""
    rhs = factored_det_central if variant is ParityClass.CENTRAL else factored_det_almost_central
    values = grid_values(a)
    name = "DET_FACTOR_CENTRAL" if variant is ParityClass.CENTRAL else "DET_FACTOR_ALMOST_CENTRAL"
    params = {"a": str(a), "grid": f"{values.start}..{values[-1]}"}
    for b in values:
        for c in values:
            defect = det_rational(build_poly_matrix(a, variant, b, c)) - rhs(a, b, c)
            if defect != 0:
                return CheckRecord(name, {**params, "point": f"({b},{c})"}, False, str(defect))
    return CheckRecord(name, params, True, "0")


# Non-integer points never make a coefficient denominator vanish (the poles
# sit at integers), so IDENTITY_POINTS_NEEDED of these always evaluate.
IDENTITY_POINTS: Tuple[Fraction, ...] = (
    Fraction(5),
    Fraction(13, 2),
    Fraction(23, 3),
    Fraction(9),
    Fraction(7, 2),
)
IDENTITY_POINTS_NEEDED = 3


def check_identity(identity: RowIdentity, a: int, k: int) -> CheckRecord:
    """Evaluate one row combination at the first IDENTITY_POINTS_NEEDED non-singular IDENTITY_POINTS."""
    evaluated = []
    defect = None
    for point in IDENTITY_POINTS:
        if len(evaluated) == IDENTITY_POINTS_NEEDED:
            break
        try:
            residual = check_row_combination(identity, a, k, point)
        except SingularPoint:
            continue
        evaluated.append(point)
        if defect is None:
            defect = next((value for value in residual if value != 0), None)
    params = {
        "a": str(a),
        "k": str(k),
        "point": "(" + ",".join(str(p) for p in evaluated) + ")",
    }
    if len(evaluated) < IDENTITY_POINTS_NEEDED:
        return CheckRecord(identity.name, params, False, "insufficient evaluation points")
    if defect is not None:
        return CheckRecord(identity.name, params, False, str(defect))
    return CheckRecord(identity.name, params, True, "0")
