"""Counting formulas: totals, fixed-rhombus counts, probabilities, asymptotics.

Three independent exact routes are implemented:

* ``macmahon_total``: the classical triple product counting all tilings.
* ``triple_sum_count``: a finite triple sum for the number of tilings
  containing the horizontal rhombus at any admissible (x, y).
* ``closed_central`` / ``closed_almost_central``: single-sum closed forms
  for the rhombus covering (or just above) the hexagon's center, valid in
  the matching parity class.

The total and the triple sum run on integers with exact divisions.  The
closed forms sum integers over one power of two and divide once by their
prefactor's denominator.  Each asserts integrality, and a non-integral
result means the implementation (not the input) is wrong.
The asymptotic occupation probability of the center under proportions
(alpha, beta, gamma) is the arcsine expression implemented by
``arcsin_probability``, and ``convergence_experiment`` watches the exact
central probabilities approach it along a sequence of growing hexagons.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence

from .arith import Rational, as_integer, binomial, half, rising2
from .geometry import (
    HexDims,
    ParityClass,
    RhombusPos,
    almost_central_pos,
    central_pos,
    check_position,
)
from . import bruteforce, pathcount


class Method(enum.Enum):
    LGV = "lgv"
    TRIPLE_SUM = "triple"
    CLOSED_FORM = "closed"
    ORACLE = "oracle"


@dataclass(frozen=True)
class CountReport:
    """One fixed-rhombus count with its total, probability, and provenance."""

    count: int
    total: int
    probability: Fraction
    method: Method


@dataclass(frozen=True)
class AsymptoticInput:
    """Finite nonnegative side proportions (alpha, beta, gamma), not all zero."""

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self) -> None:
        values = (self.alpha, self.beta, self.gamma)
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"proportions must be finite, got {values}")
        if any(v < 0 for v in values):
            raise ValueError(f"proportions must be nonnegative, got {values}")
        if all(v == 0 for v in values):
            raise ValueError("proportions must not all be zero")


@dataclass(frozen=True)
class ConvergenceRecord:
    size: int
    dims: HexDims
    exact: Fraction
    asymptotic: float
    deviation: float


def macmahon_total(dims: HexDims) -> int:
    """Total number of tilings: MacMahon's box product, one layer at a time over the smallest side s.

    T(i) = T(i-1) C(i+m+l-1, l) / C(i+l-1, l) is the (i, m, l) total, so a remainder means a bug.
    """
    s, m, l = sorted((dims.a, dims.b, dims.c))
    total = 1
    for i in range(1, s + 1):
        total, rest = divmod(total * math.comb(i + m + l - 1, l), math.comb(i + l - 1, l))
        if rest:
            raise ArithmeticError(f"macmahon_total: layer {i} of {(s, m, l)} is not an integer")
    return total


def triple_sum_count(dims: HexDims, pos: RhombusPos) -> int:
    """Fixed-rhombus count at (x, y) through the hypergeometric triple sum.

    (b+1)_{s-1} / (b+c+1)_{s-1} = (b+1)_{s-1} (b+c+s)_{a-s} / (b+c+1)_{a-1} makes every term an
    integer; the s-sum, which depends on m alone, is formed once per m.  Times the prefactor
    total * c! / (b+1)_c = total / C(b+c, c), one exact division ends the sum.
    """
    check_position(dims, pos)
    a, b, c = dims.a, dims.b, dims.c
    x, y = pos.x, pos.y
    weights = [
        (-1) ** s
        * binomial(b - x + y + s - 1, b - x + s - 1)
        * math.prod(range(b + 1, b + s))
        * math.prod(range(b + c + s, b + c + a))
        for s in range(1, a + 1)
    ]
    inner = [sum(binomial(m - 1, s - 1) * weights[s - 1] for s in range(1, m + 1)) for m in range(1, a + 1)]
    acc = 0
    for n in range(1, a + 1):
        left = binomial(c + x - y + n - 2, x - 1) * binomial(c + n - 1, n - 1)
        if left:
            acc += (-1) ** n * left * sum(binomial(b + c + m - 1, m - n) * inner[m - 1] for m in range(n, a + 1))
    value, rest = divmod(macmahon_total(dims) * acc, math.comb(b + c, c) * math.prod(range(b + c + 1, b + c + a)))
    if rest:
        raise ArithmeticError(f"triple_sum_count at ({x}, {y}): expected an integer")
    return value


def central_sum(a: int, b: Rational, c: Rational) -> Fraction:
    """The terminating sum in the central closed form, either parity of a.

    ``closed_central`` multiplies it by its prefactor, and so does the
    factored determinant in ``factorcheck``, where b and c are rational.
    Each half-integer rising factorial (x/2)_k is rising2(x, k) / 2^k and
    (1/2)_m / m! is C(2m, m) / 4^m, so term k is 4^k times a product in the
    type of b and c, over the common denominator 16^n.  The two parities
    differ only in s = a % 2: c+1 for odd a is c+2 for even a.
    """
    n, s = (a - 1) // 2, a % 2
    acc = sum(
        4**k
        * rising2(c + 2 - s, k)
        * rising2(1 + b + c, k)
        * rising2(c + 2 * k + 3 - s, n - k)
        * rising2(b + c + 2 * k + 3, n - k)
        * math.comb(2 * (n - k), n - k)
        for k in range(n + 1)
    )
    return Fraction(acc, 16**n)


def almost_central_sum(a: int, b: Rational, c: Rational) -> Fraction:
    """The terminating sum in the almost-central closed form, either parity of a.

    Shared like ``central_sum`` with the factored determinant in
    ``factorcheck``, and summed the same way over 16^n.  The parity of a
    enters only through s = a % 2 and t = 1 - s, in the lengths and shifts.
    """
    n, s = a // 2, a % 2
    t = 1 - s
    acc = (2 * n) ** t * rising2(c + 1 + t, n - t) * rising2(b + c + 2, n) * math.comb(2 * n, n)
    acc += sum(
        4**k
        * rising2(c + 1 + s, k - s)
        * rising2(b + c, k)
        * rising2(c + 2 * k + 1 + t, n - k + s)
        * rising2(b + c + 2 * k + 2, n - k)
        * math.comb(2 * (n - k), n - k)
        for k in range(1, n + 1)
    )
    return Fraction(acc, 16**n)


def _closed_prefactor(dims: HexDims, top: int, q: int) -> Fraction:
    """total * c! / (b+1)_{c+a-1} * 2^(a-1) * C(top, q) * C((a+b+c-1)//2, q), shared by both closed forms."""
    a, b, c = dims.a, dims.b, dims.c
    return Fraction(
        macmahon_total(dims) * math.factorial(c) * binomial(top, q) * binomial((a + b + c - 1) // 2, q) * 2 ** (a - 1),
        math.prod(range(b + 1, b + c + a)),
    )


def closed_central(dims: HexDims) -> int:
    """Closed form for the count at central_pos(dims); CENTRAL only, so a, b share a parity and c has the other."""
    central_pos(dims)  # validates the parity class
    a, b, c = dims.a, dims.b, dims.c
    prefactor = _closed_prefactor(dims, (b + c - 1) // 2, b // 2) * half(b) ** (1 - a % 2)
    return as_integer(prefactor * central_sum(a, b, c), "closed_central")


def closed_almost_central(dims: HexDims) -> int:
    """Closed form for the count at almost_central_pos(dims); ALMOST_CENTRAL only, so a, b, c share a parity."""
    almost_central_pos(dims)  # validates the parity class
    a, b, c = dims.a, dims.b, dims.c
    prefactor = _closed_prefactor(dims, (b + c - 2) // 2, (b - 1) // 2) / half(b) ** (1 - a % 2)
    return as_integer(prefactor * almost_central_sum(a, b, c), "closed_almost_central")


def _closed_form_count(dims: HexDims, pos: RhombusPos) -> int:
    parity = dims.parity_class
    if parity is ParityClass.CENTRAL and pos == central_pos(dims):
        return closed_central(dims)
    if parity is ParityClass.ALMOST_CENTRAL and pos == almost_central_pos(dims):
        return closed_almost_central(dims)
    raise ValueError(
        f"closed form only covers the central or almost-central position, "
        f"not ({pos.x}, {pos.y}) for sides ({dims.a}, {dims.b}, {dims.c})"
    )


def probability_report(dims: HexDims, pos: RhombusPos, method: Method = Method.LGV) -> CountReport:
    """Exact count/total/probability at (x, y) via the chosen route.

    The method changes provenance only, never the value; disagreement
    between routes is an implementation bug, and the test suite checks
    their equality wholesale.
    """
    check_position(dims, pos)
    if method is Method.LGV:
        count = pathcount.count_fixed(dims, pos)
    elif method is Method.TRIPLE_SUM:
        count = triple_sum_count(dims, pos)
    elif method is Method.ORACLE:
        count = bruteforce.oracle_count_fixed(dims, pos)
    elif method is Method.CLOSED_FORM:
        count = _closed_form_count(dims, pos)
    else:
        raise ValueError(f"unknown method {method!r}")
    total = macmahon_total(dims)
    return CountReport(count=count, total=total, probability=Fraction(count, total), method=method)


def arcsin_probability(inp: AsymptoticInput) -> float:
    """Limiting occupation probability of the center under given proportions."""
    alpha, beta, gamma = inp.alpha, inp.beta, inp.gamma
    if alpha + gamma == 0 or beta + gamma == 0:
        raise ValueError(
            f"degenerate proportions ({alpha}, {beta}, {gamma}): "
            "(beta+gamma)*(alpha+gamma) must be positive"
        )
    numerator, denominator = alpha * beta, (beta + gamma) * (alpha + gamma)
    if sys.float_info.min <= numerator and denominator < math.inf:
        ratio = numerator / denominator
    else:  # the quotient would over- or underflow; its factors x/(x+gamma), x = alpha, beta, do not
        ratio = math.prod(
            1 / (1 + gamma / x) if x >= gamma else (x / gamma) / (1 + x / gamma) for x in (alpha, beta)
        )
    if ratio > 1:
        if ratio > 1 + 1e-12:
            raise ValueError(f"proportion ratio {ratio} escapes [0, 1]")
        ratio = 1.0  # floating-point noise only; the exact ratio never exceeds 1
    # abs() drops the sign a -0.0 proportion leaves on a zero ratio, so the limit prints as 0, not -0.
    return (2 / math.pi) * math.asin(math.sqrt(abs(ratio)))


def nearest_dims(inp: AsymptoticInput, size: int, case: ParityClass) -> HexDims:
    """Round (alpha, beta, gamma) * size to the nearest dims in the parity class.

    Components round half-up and stay >= 1; parity is repaired by offsets
    of at most 1, preferring to adjust c, then b, then a, trying 0 before
    -1 before +1 on each axis.
    """
    if case not in (ParityClass.CENTRAL, ParityClass.ALMOST_CENTRAL):
        raise ValueError(f"parity case must be CENTRAL or ALMOST_CENTRAL, got {case}")
    if size > sys.float_info.max:  # value * size would raise OverflowError, not return inf
        raise ValueError(f"size {size} overflows a float")
    base = []
    for name, value in zip(("alpha", "beta", "gamma"), (inp.alpha, inp.beta, inp.gamma)):
        if not math.isfinite(value * size):
            raise ValueError(f"proportion {name}={value} times size {size} overflows a float")
        base.append(max(1, math.floor(value * size + 0.5)))
    for da in (0, -1, 1):
        for db in (0, -1, 1):
            for dc in (0, -1, 1):
                a, b, c = base[0] + da, base[1] + db, base[2] + dc
                if min(a, b, c) < 1:
                    continue
                candidate = HexDims(a, b, c)
                if candidate.parity_class is case:
                    return candidate
    raise ValueError(f"no dims of class {case} within 1 of {tuple(base)}")


def convergence_experiment(
    inp: AsymptoticInput, case: ParityClass, sizes: Sequence[int]
) -> List[ConvergenceRecord]:
    """Exact central probabilities along growing hexagons vs the arcsine limit."""
    limit = arcsin_probability(inp)
    records = []
    for size in sizes:
        if size < 1:
            raise ValueError(f"sizes must be positive, got {size}")
        dims = nearest_dims(inp, size, case)
        if case is ParityClass.CENTRAL:
            count = closed_central(dims)
        else:
            count = closed_almost_central(dims)
        exact = Fraction(count, macmahon_total(dims))
        records.append(
            ConvergenceRecord(
                size=size,
                dims=dims,
                exact=exact,
                asymptotic=limit,
                deviation=abs(float(exact) - limit),
            )
        )
    return records
