"""Benchmark of the uavmec simulator and its schedulers.

Run from the root of a checkout:

    python3 bench/run.py --workload paper-heuristics-eval --seed 1 --seconds 30 --trace 0

``--trace 0`` sets up the workload several times, runs whole rounds of its
operations for ``--seconds`` seconds, checks every output and prints the
end-to-end metrics.  ``--trace 1`` runs set-up and one round twice, once
plain and once with every layer wrapped by ``tracing.Tracer``, requires both
passes to produce identical outputs, checks them, and prints the per-layer
metrics.  The last line of standard output is the result as one JSON object;
the line before it is the run report, which is also written to
``.bench_out/reports/``.  See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("paper-heuristics-eval", "paper-dql-train", "desk-compare")
# Every workload runs single-threaded, NumPy's BLAS included.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def blas_version() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


def run_timed(workload, seconds: float):
    """Set up ``setup_repeats`` times, then whole rounds for ``seconds``.

    Every set-up and operation is bracketed by calibration groups and its
    time is scaled by the host speed around it (calibration.Calibration);
    the raw figures go to the run report.
    """
    from calibration import Calibration

    calibration = Calibration()

    def before_op():
        calibration.measure(workload.calibrations_per_op)

    setup_times = []
    for _ in range(workload.setup_repeats):
        before_op()
        start = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - start)
    rounds, rss = [], None
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(workload.run_round(before_op))
        if rss is None:
            rss = peak_rss_mb()
    before_op()  # the group after the last operation
    workload.check()

    ops = [op for ops in rounds for op in ops]
    scales = [calibration.scale(i) for i in range(len(setup_times) + len(ops))]
    setup_scales, op_scales = scales[: len(setup_times)], scales[len(setup_times):]
    scaled_ops = [op.seconds * f for op, f in zip(ops, op_scales)]
    round_seconds, i = [], 0
    for ops_in_round in rounds:
        round_seconds.append(sum(scaled_ops[i : i + len(ops_in_round)]))
        i += len(ops_in_round)
    metrics = {
        "setup_s": (statistics.median(t * f for t, f in zip(setup_times, setup_scales)), "s"),
        "peak_rss_mb": (rss, "MB"),
        "decisions_per_s": (sum(op.decisions for op in ops) / sum(scaled_ops), "1/s"),
        "episode_ms": (statistics.median(
            1000.0 * t / op.episodes for op, t in zip(ops, scaled_ops)), "ms"),
        "wall_s": (statistics.median(round_seconds), "s"),
    }
    details = {
        "raw_timings": {
            "setup_s": statistics.median(setup_times),
            "decisions_per_s": sum(op.decisions for op in ops) / sum(op.seconds for op in ops),
            "episode_ms": statistics.median(1000.0 * op.seconds / op.episodes for op in ops),
        },
        "time_scale_median": statistics.median(scales),
        "calibration_samples_s": calibration.samples,
        "setup_samples_s": setup_times,
        "rounds": len(rounds),
        "op_seconds": [op.seconds for op in ops],
    }
    return len(ops), metrics, details


def run_traced(workload):
    """Set-up and one round, plain and then traced; outputs must match."""
    from checks import require
    from tracing import Tracer

    tracer = Tracer()
    walls, outputs, attempted = [], [], 0
    for wrapping in (contextlib.nullcontext(), tracer.installed()):
        with wrapping:
            start = time.perf_counter()
            workload.setup()
            attempted += len(workload.run_round(lambda: None))
            walls.append(time.perf_counter() - start)
        outputs.append(workload.outputs())
    require(outputs[0] == outputs[1], "the traced pass changed the program's outputs")
    workload.check()
    details = {"untraced_wall_s": walls[0], "layer_calls": tracer.calls}
    return attempted, tracer.metrics(walls[1], walls[0]), details


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "uavmec" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"bench: no uavmec source tree and configs under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    import uavmec

    if Path(uavmec.__file__).resolve().parent != (SRC / "uavmec").resolve():
        print(f"bench: imported uavmec from {uavmec.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from checks import CheckFailed
    from workloads import WORKLOADS

    work_dir = OUT / "work" / args.workload
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    workload = WORKLOADS[args.workload](ROOT, args.seed, work_dir)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version(),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "cpu_count": os.cpu_count(),
    }
    attempted, failed, metrics = 0, 0, {}
    try:
        if args.trace:
            attempted, metrics, details = run_traced(workload)
        else:
            attempted, metrics, details = run_timed(workload, args.seconds)
        report.update(details)
    except Exception as exc:  # an operation raised or an output failed a check
        if not isinstance(exc, CheckFailed):
            traceback.print_exc()
        print(f"bench: {args.workload}: {exc}", file=sys.stderr)
        report["error"] = str(exc)
        attempted = failed = 1  # the run stops at the first failure
        metrics = {}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    correct = failed == 0
    report.update({
        "config_hash": workload.config_hash() if workload.cfg is not None else None,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
    })
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    report["metrics"] = result["metrics"]
    reports = OUT / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    path = reports / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print("report: " + json.dumps(report))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
