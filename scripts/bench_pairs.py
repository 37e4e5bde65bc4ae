"""Alternating parent/change pairs of the benchmark, summarised as ``BENCH_<n>.json``.

Runs ``bench/run.py --trace 0`` on two checkouts in turn, one pair per seed,
the parent first on even-numbered pairs and the change first on odd ones,
each run in a fresh process from its own checkout.  For every end-to-end
metric that ``BENCHMARK.json`` declares it records the median and quartiles
(inclusive method) of each side, how many pairs the change wins, the
relative change of the medians and the per-run values; each run's report,
which the benchmark writes under its checkout's ``.bench_out/reports/``, is
cited with its raw timings.  One call measures one workload; the result is
merged into ``--out`` under ``workloads.<name>``, so several calls build one
file, and every other key already in it is kept.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload paper-heuristics-eval --pairs 10 --seed 2201 --seconds 10 \\
        --out BENCH_22.json --claim episode_ms
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROUND = 6


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--seed", required=True, type=int, help="seed of the first pair")
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--out", required=True, type=Path, help="BENCH_<n>.json to write or update")
    parser.add_argument("--parent-rev", help="the parent's commit (default: its git HEAD)")
    parser.add_argument("--claim", metavar="METRIC",
                        help="record this workload and metric as the claimed gain")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be >= 1 and --seconds > 0")
    return args


def bench_run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run: its result line, with the report it wrote."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", "0"]
    report_path = Path(".bench_out") / "reports" / f"{workload}-seed{seed}-trace0.json"
    full = checkout / report_path
    full.unlink(missing_ok=True)  # never cite an earlier run's report
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    report = json.loads(full.read_text()) if full.is_file() else {}
    if proc.returncode != 0:
        sys.stderr.write(f"{checkout} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return {
        "ok": proc.returncode == 0 and result.get("correct", False),
        "result": result,
        "report": report,
        "cite": {
            "seed": seed,
            "report": str(report_path),
            "time_scale_median": report.get("time_scale_median"),
            "raw_timings": report.get("raw_timings"),
        },
    }


def summary(values: list) -> dict:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(statistics.median(values), ROUND), "q1": round(q1, ROUND),
            "q3": round(q3, ROUND)}


def metric_record(spec: dict, pairs: list) -> dict:
    """One end-to-end metric over the pairs in which both sides ran correctly."""
    name, lower = spec["name"], spec["better"] == "lower"
    parent = [p["result"]["metrics"][name]["value"] for p, c in pairs]
    change = [c["result"]["metrics"][name]["value"] for p, c in pairs]
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    p_med, c_med = statistics.median(parent), statistics.median(change)
    return {
        "unit": spec["unit"],
        "better": spec["better"],
        "bound": spec["bound"],
        "parent": summary(parent),
        "change": summary(change),
        "change_wins": wins,
        "relative_change": round((c_med - p_med) / p_med, 4) if p_med else None,
        "parent_runs": [round(v, ROUND) for v in parent],
        "change_runs": [round(v, ROUND) for v in change],
    }


def git_rev(checkout: Path) -> str | None:
    proc = subprocess.run(["git", "-C", str(checkout), "rev-parse", "--short", "HEAD"],
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    seeds = [args.seed + i for i in range(args.pairs)]
    pairs = []
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        runs = {side: bench_run(getattr(args, side), args.workload, seed, args.seconds)
                for side in order}
        pairs.append((runs["parent"], runs["change"]))
        print(f"pair {i + 1}/{args.pairs} seed {seed}: " + ", ".join(
            f"{side} {runs[side]['result']['metrics'].get('episode_ms', {}).get('value', 'failed')}"
            for side in order), file=sys.stderr, flush=True)
    good = [(p, c) for p, c in pairs if p["ok"] and c["ok"]]
    record = {
        "pairs": args.pairs,
        "seeds": seeds,
        "attempted": {side: sum(pair[k]["result"].get("attempted", 0) for pair in pairs)
                      for k, side in enumerate(("parent", "change"))},
        "failed": {side: sum(pair[k]["result"].get("failed", 0) for pair in pairs)
                   for k, side in enumerate(("parent", "change"))},
        "all_correct": len(good) == len(pairs),
        "metrics": {m["name"]: metric_record(m, good) for m in spec["end_to_end"]} if good else {},
        "reports": {side: [pair[k]["cite"] for pair in pairs]
                    for k, side in enumerate(("parent", "change"))},
    }

    out = json.loads(args.out.read_text()) if args.out.is_file() else {}
    first = next((r["report"] for pair in pairs for r in pair if r["report"]), {})
    out.setdefault("parent", args.parent_rev or git_rev(args.parent))
    out.setdefault("command", "python3 bench/run.py --workload <name> --seed <n> "
                              f"--seconds {args.seconds:g} --trace 0")
    out.setdefault("method", (
        "alternating parent/change pairs (parent first on even-numbered pairs, change first "
        "on odd), each side in its own checkout with the same bench/; median and quartiles "
        "(inclusive method) over the pairs of each calibration-scaled end-to-end metric; "
        "change_wins counts the pairs in which the change is better; the per-run values are "
        "kept, and each run's report (written under the checkout's .bench_out/reports/, not "
        "committed) is cited with its raw timings"))
    out.setdefault("machine", {
        "cpus": os.cpu_count(),
        "arch": platform.machine(),
        "python": first.get("python", platform.python_version()),
        "numpy": first.get("numpy"),
        "blas": first.get("blas"),
    })
    if args.claim:
        out["claimed"] = {"workload": args.workload, "metric": args.claim}
    out.setdefault("workloads", {})[args.workload] = record
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0 if record["all_correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
