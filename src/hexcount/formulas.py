"""Counting formulas: totals, fixed-rhombus counts, probabilities, asymptotics.

Three independent exact routes are implemented:

* ``macmahon_total``: the classical triple product counting all tilings.
* ``triple_sum_count``: a finite triple sum for the number of tilings
  containing the horizontal rhombus at any admissible (x, y).
* ``closed_central`` / ``closed_almost_central``: single-sum closed forms
  for the rhombus covering (or just above) the hexagon's center, valid in
  the matching parity class.

All three assemble exact rationals and assert integrality at the end; a
non-integral result means the implementation (not the input) is wrong.
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

from .arith import Rational, as_integer, binomial, half, pochhammer
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
    """Total number of tilings: product of (i+j+k-1)/(i+j+k-2) over the box."""
    a, b, c = dims.a, dims.b, dims.c
    numerator = math.prod(
        i + j + k - 1 for i in range(1, a + 1) for j in range(1, b + 1) for k in range(1, c + 1)
    )
    denominator = math.prod(
        i + j + k - 2 for i in range(1, a + 1) for j in range(1, b + 1) for k in range(1, c + 1)
    )
    return as_integer(Fraction(numerator, denominator), "macmahon_total")


def triple_sum_count(dims: HexDims, pos: RhombusPos) -> int:
    """Fixed-rhombus count at (x, y) through the hypergeometric triple sum."""
    check_position(dims, pos)
    a, b, c = dims.a, dims.b, dims.c
    x, y = pos.x, pos.y
    acc = Fraction(0)
    for n in range(1, a + 1):
        left = binomial(c + x - y + n - 2, x - 1) * binomial(c + n - 1, n - 1)
        if left == 0:
            continue
        for m in range(n, a + 1):
            shell = left * binomial(b + c + m - 1, m - n)
            for s in range(1, m + 1):
                term = (
                    Fraction(
                        (-1) ** (n + s)
                        * shell
                        * binomial(b - x + y + s - 1, b - x + s - 1)
                        * binomial(m - 1, s - 1)
                    )
                    * pochhammer(b + 1, s - 1)
                    / pochhammer(b + c + 1, s - 1)
                )
                acc += term
    value = Fraction(macmahon_total(dims)) * pochhammer(1, c) / pochhammer(b + 1, c) * acc
    return as_integer(value, f"triple_sum_count at ({x}, {y})")


def central_sum(a: int, b: Rational, c: Rational) -> Fraction:
    """The terminating sum in the central closed form, either parity of a.

    ``closed_central`` multiplies it by its prefactor, and so does the
    factored determinant in ``factorcheck``, where b and c are rational.
    """
    acc = Fraction(0)
    if a % 2 == 1:
        for k in range((a - 1) // 2 + 1):
            tail = (a - 2 * k - 1) // 2
            acc += (
                pochhammer(half(c + 1), k)
                * pochhammer(half(1 + b + c), k)
                * pochhammer(half(c + 2 * k + 2), tail)
                * pochhammer(half(b + c + 2 * k + 3), tail)
                * pochhammer(half(1), tail)
                / pochhammer(1, tail)
            )
    else:
        for k in range((a - 2) // 2 + 1):
            tail = (a - 2 * k - 2) // 2
            acc += (
                pochhammer(half(c + 2), k)
                * pochhammer(half(1 + b + c), k)
                * pochhammer(half(c + 2 * k + 3), tail)
                * pochhammer(half(b + c + 2 * k + 3), tail)
                * pochhammer(half(1), tail)
                / pochhammer(1, tail)
            )
    return acc


def almost_central_sum(a: int, b: Rational, c: Rational) -> Fraction:
    """The terminating sum in the almost-central closed form, either parity of a.

    Shared like ``central_sum`` with the factored determinant in
    ``factorcheck``.
    """
    if a % 2 == 1:
        head = (a - 1) // 2
        acc = (
            pochhammer(half(c + 1), head)
            * pochhammer(half(b + c + 2), head)
            * pochhammer(half(1), head)
            / pochhammer(1, head)
        )
        for k in range(1, (a - 1) // 2 + 1):
            tail = (a - 2 * k - 1) // 2
            acc += (
                pochhammer(half(c + 2), k - 1)
                * pochhammer(half(b + c), k)
                * pochhammer(half(c + 2 * k + 1), (a - 2 * k + 1) // 2)
                * pochhammer(half(b + c + 2 * k + 2), tail)
                * pochhammer(half(1), tail)
                / pochhammer(1, tail)
            )
    else:
        acc = (
            pochhammer(half(c + 2), (a - 2) // 2)
            * pochhammer(half(b + c + 2), a // 2)
            * pochhammer(half(1), a // 2)
            / pochhammer(1, (a - 2) // 2)
        )
        for k in range(1, a // 2 + 1):
            tail = (a - 2 * k) // 2
            acc += (
                pochhammer(half(c + 1), k)
                * pochhammer(half(b + c), k)
                * pochhammer(half(c + 2 * k + 2), tail)
                * pochhammer(half(b + c + 2 * k + 2), tail)
                * pochhammer(half(1), tail)
                / pochhammer(1, tail)
            )
    return acc


def closed_central(dims: HexDims) -> int:
    """Closed form for the count at central_pos(dims); CENTRAL parity only."""
    central_pos(dims)  # validates the parity class
    a, b, c = dims.a, dims.b, dims.c
    total = Fraction(macmahon_total(dims))
    if a % 2 == 1:
        # a, b odd and c even.
        prefactor = (
            total
            * pochhammer(1, c)
            / pochhammer(b + 1, c + a - 1)
            * binomial((b + c - 1) // 2, (b - 1) // 2)
            * binomial((a + b + c - 2) // 2, (b - 1) // 2)
            * 2 ** (a - 1)
        )
    else:
        # a, b even and c odd.
        prefactor = (
            total
            * b
            * pochhammer(1, c)
            / pochhammer(b + 1, c + a - 1)
            * binomial((b + c - 1) // 2, b // 2)
            * binomial((a + b + c - 1) // 2, b // 2)
            * 2 ** (a - 2)
        )
    return as_integer(prefactor * central_sum(a, b, c), "closed_central")


def closed_almost_central(dims: HexDims) -> int:
    """Closed form for the count at almost_central_pos(dims); ALMOST_CENTRAL only."""
    almost_central_pos(dims)  # validates the parity class
    a, b, c = dims.a, dims.b, dims.c
    total = Fraction(macmahon_total(dims))
    if a % 2 == 1:
        # a, b, c all odd.
        prefactor = (
            total
            * pochhammer(1, c)
            / pochhammer(b + 1, c + a - 1)
            * binomial((b + c - 2) // 2, (b - 1) // 2)
            * binomial((a + b + c - 1) // 2, (b - 1) // 2)
            * 2 ** (a - 1)
        )
    else:
        # a, b, c all even.
        prefactor = (
            total
            * pochhammer(1, c)
            / pochhammer(b, c + a)
            * binomial((b + c - 2) // 2, (b - 2) // 2)
            * binomial((a + b + c - 2) // 2, (b - 2) // 2)
            * 2**a
        )
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
    return (2 / math.pi) * math.asin(math.sqrt(ratio))


def nearest_dims(inp: AsymptoticInput, size: int, case: ParityClass) -> HexDims:
    """Round (alpha, beta, gamma) * size to the nearest dims in the parity class.

    Components round half-up and stay >= 1; parity is repaired by offsets
    of at most 1, preferring to adjust c, then b, then a, trying 0 before
    -1 before +1 on each axis.
    """
    if case not in (ParityClass.CENTRAL, ParityClass.ALMOST_CENTRAL):
        raise ValueError(f"parity case must be CENTRAL or ALMOST_CENTRAL, got {case}")
    base = [
        max(1, math.floor(inp.alpha * size + 0.5)),
        max(1, math.floor(inp.beta * size + 0.5)),
        max(1, math.floor(inp.gamma * size + 0.5)),
    ]
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
