"""hexcount benchmark: four CLI workloads, end-to-end metrics, traced layer breakdown.

Run from the root of a checkout:

    python3 perfbench/run.py --workload heatmap --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

A run repeats passes over the workload's seeded deck of inputs, each pass
in a fresh worker process (``worker.py``) with HEXCOUNT_THREADS removed
from its environment, until the timed ops add up to ``--seconds`` and at
least MIN_PASSES passes are done.  Fresh processes keep a cache inside
the program from carrying results from one pass to the next, as separate
CLI invocations would not.  The first pass checks every output; later
passes must reproduce its outputs byte for byte.

Every time is scaled to the reference speed of a fixed calibration loop
(see calibrate.py): on a shared machine the same op takes up to twice as
long when other tenants are busy, and the scaling removes that while a
change to hexcount still shows in full.  The workers time the loop
between groups of ops; ``run.py`` times it just before each worker starts.

With ``--trace 0`` it reports the end-to-end metrics.  Each op's latency
is the median of its scaled repeats over the passes.  ``setup_s`` is the
median over the passes, topped up to SETUP_SAMPLES by workers that stop
after set-up, of the scaled time from starting the worker until it has
imported hexcount, built the parser and generated the deck.

With ``--trace 1`` untraced and traced passes alternate, and it reports
the per-layer metrics of the median traced pass, against the median
untraced pass for the tracing overhead.  Spans go to ``perfbench/out/``.

``--workload all`` runs the four workloads in turn.  The last line of
standard output is one JSON object.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

from calibrate import REFERENCE_S, calibrate

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PACKAGE = ROOT / "src" / "hexcount" / "__init__.py"
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("heatmap", "converge", "verify", "queries")
MIN_PASSES = 3
# Set-up samples per run: passes, topped up by workers that only set up.
SETUP_SAMPLES = 9
SETUP_CALIBRATION_S = 0.05
# No pass starts after this many seconds, so that a run of a much slower
# program still ends within about 180 s.
START_LIMIT_S = 100.0
RUN_LIMIT_S = 170.0

Metrics = Dict[str, Tuple[float, str]]


class BenchError(Exception):
    pass


def run_pass(
    args: argparse.Namespace, workload: str, deadline: float, trace=False, check=False, setup_only=False
) -> Tuple[float, dict]:
    """One pass in a fresh worker; returns its scaled set-up seconds and its result.

    The calibration sample for the set-up is taken just before the worker
    starts, never while it runs, so the two do not compete for a core.
    The worker times its set-up from the wall-clock time passed to it.
    """
    cmd = [
        sys.executable, str(BENCH_DIR / "worker.py"),
        "--workload", workload, "--seed", str(args.seed),
        "--trace", str(int(trace)), "--check", str(int(check)),
    ]  # fmt: skip
    if setup_only:
        cmd.append("--setup-only")
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        cmd += ["--spans", str(OUT_DIR / f"spans-{workload}-seed{args.seed}.jsonl")]
    env = {key: value for key, value in os.environ.items() if key not in ("HEXCOUNT_THREADS", "PYTHONPATH")}
    cal_s, _ = calibrate(SETUP_CALIBRATION_S)
    cmd += ["--spawned", repr(time.time())]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True, cwd=ROOT)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload} pass did not finish within the {RUN_LIMIT_S:.0f} s limit")
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"{workload} worker exited with code {proc.returncode}: {err.strip()[-2000:]}")
    result = json.loads(out.splitlines()[-1])
    return result["setup_s"] * REFERENCE_S / cal_s, result


def tail(latencies: List[float]) -> Tuple[float, str]:
    """Highest percentile with at least 10 samples beyond it; the max below 20 samples."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 20:
        return ordered[-1], f"max of n={n} inputs (fewer than 20, so no percentile above p50 has 10 beyond it)"
    return ordered[n - 11], f"p{100 * (n - 10) / n:.1f} of n={n} inputs, 10 beyond it"


def scaled(values: List[float], calibration: List[float]) -> List[float]:
    """Seconds scaled to the reference speed of the calibration loop."""
    return [value * REFERENCE_S / cal for value, cal in zip(values, calibration)]


def per_input_median(passes: List[dict], key: str) -> List[float]:
    """Each input's median over the passes of its scaled wall or CPU seconds."""
    runs = [scaled(p[f"{key}_s"], p[f"cal_{key}_s"]) for p in passes]
    return [statistics.median(repeats) for repeats in zip(*runs)]


def end_to_end(untraced: List[dict], setups: List[float]) -> Tuple[Metrics, Dict[str, str]]:
    wall = per_input_median(untraced, "wall")
    tail_s, tail_label = tail(wall)
    metrics = {
        "ops_per_s": (len(wall) / sum(wall), "1/s"),
        "op_p50_s": (statistics.median(wall), "s"),
        "op_tail_s": (tail_s, "s"),
        "op_cpu_s": (statistics.median(per_input_median(untraced, "cpu")), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in untraced), "MB"),
    }
    raw = [statistics.median(repeats) for repeats in zip(*(p["wall_s"] for p in untraced))]
    details = {
        "op_tail_s": tail_label,
        "setup_s": f"median over {len(setups)} fresh workers",
        "unscaled": f"ops_per_s {len(raw) / sum(raw):.4g} and op_p50_s {statistics.median(raw):.4g} as timed",
    }
    return metrics, details


def traced_layers(untraced: List[dict], traced: List[dict]) -> Tuple[Metrics, Dict[str, str]]:
    """Per-layer metrics of the median traced pass, its times scaled like the ops."""
    untraced_s = statistics.median(sum(scaled(p["wall_s"], p["cal_wall_s"])) for p in untraced)
    totals = sorted((sum(scaled(p["wall_s"], p["cal_wall_s"])), i) for i, p in enumerate(traced))
    traced_s, index = totals[(len(totals) - 1) // 2]
    chosen = traced[index]
    scale = traced_s / sum(chosen["wall_s"])
    metrics = {
        name: (value * scale if unit == "s" else value, unit) for name, (value, unit) in chosen["layers"].items()
    }
    self_s = chosen["self_s_total"] * scale
    ops = len(chosen["wall_s"])
    overhead = traced_s / untraced_s - 1
    metrics.update(
        {
            "trace.ops_per_s_untraced": (ops / untraced_s, "1/s"),
            "trace.ops_per_s_traced": (ops / traced_s, "1/s"),
            "trace.overhead_ratio": (overhead, "ratio"),
            "trace.self_over_untraced": (self_s / untraced_s, "ratio"),
        }
    )
    within = abs(self_s / untraced_s - 1) <= abs(overhead) + 0.01
    details = {
        "traced": f"{len(traced)} traced passes of {ops} ops, metrics from the median one ({chosen['spans']} spans)",
        "spans": f"last traced pass in {OUT_DIR.relative_to(ROOT)}/",
        "self_vs_untraced": (
            f"self times sum to {self_s:.4f} s against {untraced_s:.4f} s untraced, "
            f"{self_s / untraced_s - 1:+.2%}: {'within' if within else 'NOT within'} "
            f"the tracing overhead of {overhead:+.2%} (+1 point)"
        ),
    }
    return metrics, details


def run_workload(args: argparse.Namespace, workload: str) -> dict:
    started = time.perf_counter()
    deadline = started + RUN_LIMIT_S
    untraced: List[dict] = []
    traced: List[dict] = []
    setups: List[float] = []
    busy = 0.0
    while True:
        setup_s, result = run_pass(args, workload, deadline, check=not untraced)
        setups.append(setup_s)
        untraced.append(result)
        busy += sum(result["wall_s"])
        if args.trace:
            _, result = run_pass(args, workload, deadline, trace=True)
            traced.append(result)
            busy += sum(result["wall_s"])
        done = busy >= args.seconds and len(untraced) >= MIN_PASSES
        if done or time.perf_counter() - started > START_LIMIT_S:
            break
    while not args.trace and len(setups) < SETUP_SAMPLES:
        setups.append(run_pass(args, workload, deadline, setup_only=True)[0])

    # An op fails when the first pass's check rejects its output, or when a
    # later pass, traced or not, does not reproduce that output.
    first = untraced[0]
    rejected = set(first["failed"])
    passes = untraced + traced
    failed = sum(
        1 for p in passes for i, digest in enumerate(p["digest"]) if i in rejected or digest != first["digest"][i]
    )
    attempted = len(first["digest"]) * len(passes)

    if args.trace:
        metrics, details = traced_layers(untraced, traced)
    else:
        metrics, details = end_to_end(untraced, setups)
    print(f"== {workload} (seed {args.seed}, {args.seconds} s, trace {args.trace})")
    print(f"   deck: {len(first['digest'])} inputs, {len(untraced)} untraced passes, {busy:.2f} s timed")
    print(f"   fail_ratio: {failed}/{attempted} = {failed / attempted:.4g}")
    for key, value in details.items():
        print(f"   {key}: {value}")
    for name, (value, unit) in metrics.items():
        print(f"   {name} = {value!r} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not PACKAGE.is_file():
        print(f"error: {PACKAGE.relative_to(ROOT)} not found; run from a hexcount checkout", file=sys.stderr)
        return 2

    print(
        f"python {platform.python_version()}, nproc {len(os.sched_getaffinity(0))}, cpu {_cpu_model()}, "
        "HEXCOUNT_THREADS unset in workers"
    )
    try:
        if args.workload == "all":
            result = {name: run_workload(args, name) for name in WORKLOADS}
        else:
            result = run_workload(args, args.workload)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
