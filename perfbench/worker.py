"""One pass of the benchmark over a workload's deck, in a fresh process.

Started by ``run.py``, which passes the wall-clock time at which it
started the process.  Set-up runs from then through the import of
hexcount, one parser build and the generation of the seeded deck; with
``--setup-only`` the worker reports it and stops there.

The pass is a closed loop with one client: each op is
``hexcount.cli.main(argv)`` called in this process with standard output
and error captured, and the next op starts when it returns.  Only that
call is timed.  The last line of standard output is a JSON object with
the set-up seconds, each op's wall and CPU seconds, the calibration
samples around it and a digest of its output; with
``--check 1`` also the indices of the ops whose output fails its check,
and with ``--trace 1`` the per-layer metrics of the pass.

    python3 perfbench/worker.py --workload heatmap --seed 1 --trace 0 --check 1 --spawned "$(date +%s.%N)"
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path
from typing import List, NamedTuple, Tuple

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

from hexcount import cli  # noqa: E402

import workloads  # noqa: E402
from calibrate import calibrate  # noqa: E402

CALIBRATE_EVERY_S = 0.05
CALIBRATE_SHARE = 0.1


class Op(NamedTuple):
    code: int
    out: str
    wall_s: float
    cpu_s: float


def run_op(argv: List[str]) -> Op:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        wall0, cpu0 = time.perf_counter(), time.process_time()
        code = cli.main(list(argv))
        wall1, cpu1 = time.perf_counter(), time.process_time()
    return Op(code, out.getvalue(), wall1 - wall0, cpu1 - cpu0)


def passes_check(workload: workloads.Workload, argv: List[str], op: Op) -> bool:
    try:
        return workload.check(argv, op.code, op.out)
    except (ValueError, KeyError, IndexError, ArithmeticError):
        return False


def run_deck(deck: List[List[str]], recorder=None) -> Tuple[List[Op], List[Tuple[float, float]]]:
    """Run every op of the deck, with the calibration loop between groups of ops.

    A group closes once its ops have taken CALIBRATE_EVERY_S.  Each op gets
    the mean (wall, CPU) of the calibration samples just before and just
    after its group; a sample lasts CALIBRATE_SHARE of the group's time, so
    a long op is measured against a long stretch of machine speed.  With a
    recorder, ops run traced and calibration not.
    """
    ops: List[Op] = []
    calibration: List[Tuple[float, float]] = []
    before = calibrate(CALIBRATE_EVERY_S * CALIBRATE_SHARE)
    group_s = 0.0
    for index, argv in enumerate(deck):
        if recorder is None:
            ops.append(run_op(argv))
        else:
            recorder.op = index
            recorder.install()
            try:
                ops.append(run_op(argv))
            finally:
                recorder.uninstall()
        group_s += ops[-1].wall_s
        if group_s >= CALIBRATE_EVERY_S or index == len(deck) - 1:
            after = calibrate(group_s * CALIBRATE_SHARE)
            mean = ((before[0] + after[0]) / 2, (before[1] + after[1]) / 2)
            calibration.extend([mean] * (len(ops) - len(calibration)))
            before, group_s = after, 0.0
    return ops, calibration


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--check", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None, help="where a traced pass writes its spans (JSON lines)")
    parser.add_argument("--spawned", type=float, required=True, help="wall-clock time the process was started")
    parser.add_argument("--setup-only", action="store_true", help="stop after set-up")
    args = parser.parse_args()

    cli.build_parser()
    workload = workloads.WORKLOADS[args.workload]
    deck = workloads.deck(workload, args.seed)
    setup_s = time.time() - args.spawned
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    recorder = None
    if args.trace:
        import tracer

        recorder = tracer.Tracer()
    ops, calibration = run_deck(deck, recorder)

    result = {
        "setup_s": setup_s,
        "wall_s": [op.wall_s for op in ops],
        "cpu_s": [op.cpu_s for op in ops],
        "cal_wall_s": [wall for wall, _ in calibration],
        "cal_cpu_s": [cpu for _, cpu in calibration],
        "digest": [hashlib.sha256(f"{op.code}\n{op.out}".encode()).hexdigest() for op in ops],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if args.check:
        result["failed"] = [i for i, (argv, op) in enumerate(zip(deck, ops)) if not passes_check(workload, argv, op)]
    if recorder is not None:
        layers = tracer.layer_metrics(recorder)
        layers["cli.main.stdout_bytes"] = (sum(len(op.out.encode()) for op in ops), "bytes")
        result["layers"] = layers
        result["spans"] = len(recorder.spans)
        result["self_s_total"] = sum(self_s for _, self_s in recorder.self_times().values())
        if args.spans:
            recorder.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
