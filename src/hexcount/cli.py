"""Command-line surface: counts, probabilities, heatmaps, asymptotics, verify.

Every data line this tool prints is deterministic: counts are plain
decimal strings, probabilities appear as "p/q" followed by a
12-significant-digit decimal in parentheses, and identical invocations
produce byte-identical output.  Exit codes: 0 success, 1 usage,
validation or file error (message on standard error), 2 verification
failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from typing import List, Optional

from . import formulas, pathcount
from .checks import SUITES
from .formulas import AsymptoticInput, Method
from .geometry import HexDims, ParityClass, RhombusPos, almost_central_pos, central_pos
from .pathcount import HeatmapGrid


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; this tool reserves 2 for
    # verification failures, so flag errors are rerouted to exit 1.
    def error(self, message: str) -> None:
        raise _UsageError(message)


def _positive_sizes(raw: str) -> List[int]:
    try:
        sizes = [int(piece) for piece in raw.split(",") if piece != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"sizes must be a comma-separated integer list, got {raw!r}")
    if not sizes or any(n < 1 for n in sizes):
        raise argparse.ArgumentTypeError(f"sizes must be positive integers, got {raw!r}")
    return sizes


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hexcount", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_dims(p: argparse.ArgumentParser) -> None:
        p.add_argument("-a", type=int, required=True, help="side a (>= 1)")
        p.add_argument("-b", type=int, required=True, help="side b (>= 1)")
        p.add_argument("-c", type=int, required=True, help="side c (>= 1)")

    p_total = sub.add_parser("total", help="number of all tilings")
    add_dims(p_total)
    p_total.set_defaults(func=_cmd_total)

    p_count = sub.add_parser("count", help="tilings containing the rhombus at (x, y)")
    add_dims(p_count)
    p_count.add_argument("-x", type=int, required=True)
    p_count.add_argument("-y", type=int, required=True)
    p_count.add_argument("--method", choices=["lgv", "triple", "oracle"], default="lgv")
    p_count.set_defaults(func=_cmd_count)

    for name in ("central", "almost-central"):
        p_pos = sub.add_parser(name, help=f"count at the {name.replace('-', ' ')} position")
        add_dims(p_pos)
        p_pos.add_argument("--method", choices=["closed", "lgv", "triple", "oracle"], default="closed")
        p_pos.set_defaults(func=_cmd_distinguished, which=name)

    p_heat = sub.add_parser("heatmap", help="occupation counts for every box position")
    add_dims(p_heat)
    p_heat.add_argument("--format", choices=["csv", "json"], default="csv")
    p_heat.add_argument("-o", "--output", default=None, help="write to file instead of stdout")
    p_heat.set_defaults(func=_cmd_heatmap)

    p_asym = sub.add_parser("asympt", help="limiting central occupation probability")
    for flag in ("--alpha", "--beta", "--gamma"):
        p_asym.add_argument(flag, type=float, required=True)
    p_asym.set_defaults(func=_cmd_asympt)

    p_conv = sub.add_parser("converge", help="exact probabilities approaching the limit")
    for flag in ("--alpha", "--beta", "--gamma"):
        p_conv.add_argument(flag, type=float, required=True)
    p_conv.add_argument("--case", choices=["central", "almost-central"], required=True)
    p_conv.add_argument("--sizes", type=_positive_sizes, required=True)
    p_conv.set_defaults(func=_cmd_converge)

    p_verify = sub.add_parser("verify", help="run the invariant suites, print PASS/FAIL lines")
    p_verify.add_argument("--suite", choices=[*SUITES, "all"], default="all")
    p_verify.add_argument("--max-a", type=int, default=5, dest="max_a")
    p_verify.add_argument("--json", default=None, dest="json_path", help="also write records as JSON")
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def _dims(args: argparse.Namespace) -> HexDims:
    return HexDims(args.a, args.b, args.c)


def format_probability(p: Fraction) -> str:
    return f"{p.numerator}/{p.denominator} ({float(p):.12g})"


def format_report(report: formulas.CountReport) -> str:
    return (
        f"count={report.count} total={report.total} "
        f"probability={format_probability(report.probability)} method={report.method.value}"
    )


def heatmap_csv(grid: HeatmapGrid) -> str:
    # grid.counts is in row-major order; one gcd per cell reduces count/total.
    total = grid.total
    lines = ["x,y,count,total,probability"]
    for pos, count in grid.counts.items():
        g = math.gcd(count, total)
        lines.append(f"{pos.x},{pos.y},{count},{total},{count // g}/{total // g}")
    return "\n".join(lines) + "\n"


def heatmap_json(grid: HeatmapGrid) -> str:
    payload = {
        "a": grid.dims.a,
        "b": grid.dims.b,
        "c": grid.dims.c,
        "total": str(grid.total),
        "cells": [{"x": pos.x, "y": pos.y, "count": str(count)} for pos, count in grid.counts.items()],
    }
    return json.dumps(payload, separators=(",", ":")) + "\n"


def converge_csv(records: List[formulas.ConvergenceRecord]) -> str:
    lines = ["N,a,b,c,exact,exact_decimal,asymptotic,deviation"]
    for rec in records:
        lines.append(
            f"{rec.size},{rec.dims.a},{rec.dims.b},{rec.dims.c},"
            f"{rec.exact.numerator}/{rec.exact.denominator},"
            f"{float(rec.exact):.12g},{rec.asymptotic:.12g},{rec.deviation:.12g}"
        )
    return "\n".join(lines) + "\n"


def _emit(text: str, path: Optional[str]) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _cmd_total(args: argparse.Namespace) -> int:
    print(formulas.macmahon_total(_dims(args)))
    return 0


def _cmd_count(args: argparse.Namespace) -> int:
    report = formulas.probability_report(_dims(args), RhombusPos(args.x, args.y), Method(args.method))
    print(format_report(report))
    return 0


def _cmd_distinguished(args: argparse.Namespace) -> int:
    dims = _dims(args)
    pos = central_pos(dims) if args.which == "central" else almost_central_pos(dims)
    report = formulas.probability_report(dims, pos, Method(args.method))
    print(format_report(report))
    return 0


def _cmd_heatmap(args: argparse.Namespace) -> int:
    grid = pathcount.heatmap(_dims(args))
    _emit(heatmap_csv(grid) if args.format == "csv" else heatmap_json(grid), args.output)
    return 0


def _cmd_asympt(args: argparse.Namespace) -> int:
    value = formulas.arcsin_probability(AsymptoticInput(args.alpha, args.beta, args.gamma))
    print(f"{value:.12g}")
    return 0


def _cmd_converge(args: argparse.Namespace) -> int:
    case = ParityClass.CENTRAL if args.case == "central" else ParityClass.ALMOST_CENTRAL
    records = formulas.convergence_experiment(
        AsymptoticInput(args.alpha, args.beta, args.gamma), case, args.sizes
    )
    sys.stdout.write(converge_csv(records))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.max_a < 2:
        raise ValueError(f"--max-a must be at least 2, got {args.max_a}")
    suites = list(SUITES) if args.suite == "all" else [args.suite]
    records = [record for suite in suites for check in SUITES[suite] for record in check(args.max_a)]
    for record in records:
        print(record.line())
    failures = sum(1 for record in records if not record.passed)
    print(f"SUMMARY suite={args.suite} checks={len(records)} failures={failures}")
    if args.json_path is not None:
        _emit(json.dumps([record.to_json() for record in records], indent=1) + "\n", args.json_path)
    return 2 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except SystemExit as err:  # --help
        return int(err.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
