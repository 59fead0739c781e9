"""Seeded inputs and independent output checks for the four benchmark workloads.

A workload's input is a deck of ``hexcount`` argument vectors built from
the seed.  Every deck visits each size stratum of its workload equally
often, with seeded shapes and positions inside the stratum, so decks of
different seeds cost about the same while the seed still decides every
input.

The checks never reuse the route that produced the output: totals come
from this file's own factorial product, and counts are compared with a
second route of the program (LGV against the triple sum or a closed form).
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Callable, Dict, List, NamedTuple, Tuple

from hexcount import formulas, pathcount
from hexcount.geometry import HexDims, RhombusPos

Argv = List[str]

# Heatmap strata as (a, b + c).  The seed splits b + c into b, c in 6..20,
# so each stratum yields cubes and skew hexagons with the same cell count
# up to a few percent; the strata span a = 6..16.
HEATMAP_STRATA: Tuple[Tuple[int, int], ...] = ((6, 20), (8, 16), (10, 26), (12, 24), (14, 22), (16, 32))
HEATMAP_CYCLES = 2
HEATMAP_SAMPLE_CELLS = 2

CONVERGE_SIZES = "5,11,21,31,41"
CONVERGE_CYCLES = 5
# Product of the three proportions.  Fixing it keeps the hexagon volume,
# and with it the cost of ``macmahon_total``, level across seeds; at 0.25
# one op takes about 0.1 s, so a deck holds 30 distinct shapes.
CONVERGE_VOLUME = 0.25

VERIFY_ARGV: Argv = ["verify", "--suite", "all", "--max-a", "5"]
VERIFY_CHECKS = 283

QUERY_SIDES = list(range(4, 17))
QUERY_CYCLES = 10
QUERY_METHODS = ("lgv", "triple", "closed")


class Workload(NamedTuple):
    name: str
    deck: Callable[[random.Random], List[Argv]]
    check: Callable[[Argv, int, str], bool]


def macmahon_factorial(a: int, b: int, c: int) -> int:
    """Total tilings from MacMahon's formula in factorials (an independent route)."""
    num = den = 1
    for i in range(1, a + 1):
        num *= math.factorial(i + b + c - 1) * math.factorial(i - 1)
        den *= math.factorial(i + c - 1) * math.factorial(i + b - 1)
    if num % den:
        raise ArithmeticError(f"factorial total not integral for ({a}, {b}, {c})")
    return num // den


def _distinguished(a: int, b: int, c: int, central: bool) -> RhombusPos:
    return RhombusPos((a + b) // 2, (a + c - 1) // 2 if central else (a + c) // 2)


def _is_central(a: int, b: int, c: int) -> bool:
    return a % 2 == b % 2 != c % 2


def _is_almost_central(a: int, b: int, c: int) -> bool:
    return a % 2 == b % 2 == c % 2


def _dims_args(a: int, b: int, c: int) -> Argv:
    return ["-a", str(a), "-b", str(b), "-c", str(c)]


# --------------------------------------------------------------------------- heatmap


def heatmap_deck(rng: random.Random) -> List[Argv]:
    deck = []
    for _ in range(HEATMAP_CYCLES):
        for a, sides in HEATMAP_STRATA:
            b = rng.randint(max(6, sides - 20), min(20, sides - 6))
            deck.append(["heatmap", *_dims_args(a, b, sides - b), "--format", "csv"])
    return deck


def heatmap_check(argv: Argv, code: int, out: str) -> bool:
    a, b, c = (int(argv[i]) for i in (2, 4, 6))
    lines = out.splitlines()
    if code != 0 or not lines or lines[0] != "x,y,count,total,probability":
        return False
    total = macmahon_factorial(a, b, c)
    expected_cells = [(x, y) for y in range(a + c) for x in range(a + b)]
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != len(expected_cells):
        return False
    counts: Dict[Tuple[int, int], int] = {}
    for (x, y), row in zip(expected_cells, rows):
        count = int(row[2])
        if (int(row[0]), int(row[1])) != (x, y) or int(row[3]) != total:
            return False
        if row[4] != _ratio_text(count, total):
            return False
        counts[(x, y)] = count
    # Every tiling holds a*b horizontal rhombi.
    if sum(counts.values()) != a * b * total:
        return False
    sampler = random.Random(f"{a},{b},{c}")
    dims = HexDims(a, b, c)
    for x, y in sampler.sample(expected_cells, HEATMAP_SAMPLE_CELLS):
        if formulas.triple_sum_count(dims, RhombusPos(x, y)) != counts[(x, y)]:
            return False
    return True


def _ratio_text(num: int, den: int) -> str:
    p = Fraction(num, den)
    return f"{p.numerator}/{p.denominator}"


# --------------------------------------------------------------------------- converge


def converge_deck(rng: random.Random) -> List[Argv]:
    """Cycles of six ops: the largest proportion (1) on each axis, cases alternating."""
    deck = []
    for index in range(6 * CONVERGE_CYCLES):
        axis = index % 3
        case = "central" if index % 2 == 0 else "almost-central"
        u = round(rng.uniform(CONVERGE_VOLUME, 1.0), 4)
        props = [u, round(CONVERGE_VOLUME / u, 4)]
        rng.shuffle(props)
        props.insert(axis, 1.0)
        argv = ["converge"]
        for flag, value in zip(("--alpha", "--beta", "--gamma"), props):
            argv += [flag, repr(value)]
        deck.append(argv + ["--case", case, "--sizes", CONVERGE_SIZES])
    return deck


def converge_check(argv: Argv, code: int, out: str) -> bool:
    central = argv[argv.index("--case") + 1] == "central"
    sizes = [int(s) for s in CONVERGE_SIZES.split(",")]
    lines = out.splitlines()
    if code != 0 or not lines or lines[0] != "N,a,b,c,exact,exact_decimal,asymptotic,deviation":
        return False
    if len(lines) != len(sizes) + 1:
        return False
    for size, line in zip(sizes, lines[1:]):
        fields = line.split(",")
        a, b, c = (int(v) for v in fields[1:4])
        if int(fields[0]) != size:
            return False
        if not (_is_central(a, b, c) if central else _is_almost_central(a, b, c)):
            return False
        count = pathcount.count_fixed(HexDims(a, b, c), _distinguished(a, b, c, central))
        if Fraction(fields[4]) != Fraction(count, macmahon_factorial(a, b, c)):
            return False
    return True


# --------------------------------------------------------------------------- verify


def verify_deck(rng: random.Random) -> List[Argv]:
    return [list(VERIFY_ARGV)]


def verify_check(argv: Argv, code: int, out: str) -> bool:
    lines = out.splitlines()
    if code != 0 or not lines:
        return False
    passes = sum(1 for line in lines[:-1] if " PASS " in line)
    return lines[-1] == f"SUMMARY suite=all checks={VERIFY_CHECKS} failures=0" and passes == VERIFY_CHECKS


# --------------------------------------------------------------------------- queries


def _query(a: int, method: str, command: str, u: List[float]) -> Argv:
    """The query whose b, c, x, y sit at fractions u of their ranges."""

    def pick(values: List[int], fraction: float) -> int:
        return values[int(fraction * len(values))]

    if command == "count":
        b, c = pick(QUERY_SIDES, u[0]), pick(QUERY_SIDES, u[1])
        x, y = int(u[2] * (a + b)), int(u[3] * (a + c))
        return ["count", *_dims_args(a, b, c), "-x", str(x), "-y", str(y), "--method", method]
    c_parity = (a + 1) % 2 if command == "central" else a % 2
    b = pick([s for s in QUERY_SIDES if s % 2 == a % 2], u[0])
    c = pick([s for s in QUERY_SIDES if s % 2 == c_parity], u[1])
    return [command, *_dims_args(a, b, c), "--method", method]


def queries_deck(rng: random.Random) -> List[Argv]:
    """QUERY_CYCLES queries per (a, method) pair, in seeded order.

    Within a pair the commands are balanced and b, c, x, y come from a
    Latin hypercube over their ranges: each coordinate falls once in each
    of QUERY_CYCLES equal slices, so every seed covers the box alike and
    the deck's cost, and its tail, vary little with the seed.
    """
    deck = []
    for a in QUERY_SIDES:
        for method in QUERY_METHODS:
            options = ("central", "almost-central") if method == "closed" else ("count", "central", "almost-central")
            commands = [options[k % len(options)] for k in range(QUERY_CYCLES)]
            rng.shuffle(commands)
            slices = [rng.sample(range(QUERY_CYCLES), QUERY_CYCLES) for _ in range(4)]
            for k, command in enumerate(commands):
                u = [(order[k] + rng.random()) / QUERY_CYCLES for order in slices]
                deck.append(_query(a, method, command, u))
    rng.shuffle(deck)
    return deck


def queries_check(argv: Argv, code: int, out: str) -> bool:
    command, method = argv[0], argv[-1]
    a, b, c = (int(argv[i]) for i in (2, 4, 6))
    if command == "count":
        pos = RhombusPos(int(argv[8]), int(argv[10]))
    else:
        pos = _distinguished(a, b, c, command == "central")
    if code != 0 or out.count("\n") != 1 or not out.endswith(f") method={method}\n"):
        return False
    fields = dict(part.split("=", 1) for part in out.split(" (")[0].split())
    count, total = int(fields["count"]), int(fields["total"])
    if total != macmahon_factorial(a, b, c) or fields["probability"] != _ratio_text(count, total):
        return False
    if f"({float(Fraction(count, total)):.12g})" not in out:
        return False
    dims = HexDims(a, b, c)
    if method != "lgv":
        other = pathcount.count_fixed(dims, pos)
    elif command == "central":
        other = formulas.closed_central(dims)
    elif command == "almost-central":
        other = formulas.closed_almost_central(dims)
    else:
        other = formulas.triple_sum_count(dims, pos)
    return count == other


WORKLOADS: Dict[str, Workload] = {
    "heatmap": Workload("heatmap", heatmap_deck, heatmap_check),
    "converge": Workload("converge", converge_deck, converge_check),
    "verify": Workload("verify", verify_deck, verify_check),
    "queries": Workload("queries", queries_deck, queries_check),
}


def deck(workload: Workload, seed: int) -> List[Argv]:
    """The seed's deck of argument vectors for the workload."""
    return workload.deck(random.Random(f"{workload.name}:{seed}"))
