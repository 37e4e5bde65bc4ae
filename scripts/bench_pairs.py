"""Alternating parent/change pairs of the benchmark, summarised as ``BENCH_<n>.json``.

Runs ``bench/run.py --trace 0`` on two checkouts in turn, one pair per seed,
the parent first on even-numbered pairs and the change first on odd ones,
each run in a fresh process from its own checkout.  For every end-to-end
metric that ``BENCHMARK.json`` declares it records the median and quartiles
(inclusive method) of each side, how many pairs the change wins, the
relative change of the medians, the per-run values and a verdict (see
``metric_record``); each run's report, which the benchmark writes under its
checkout's ``.bench_out/reports/``, is cited with its raw timings.  One call
measures one workload; the result is merged into ``--out`` under
``workloads.<name>``, so several calls build one file, and every other key
already in it is kept.

``--trace-runs N`` adds N alternating pairs of ``--trace 1`` runs, on the
seeds after the timed pairs' (``--pairs 0`` runs only these).  For every
per-layer metric that ``BENCHMARK.json`` declares and that reads non-zero
in some run, each side's median and per-run values go under
``trace.<name>``.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload paper-heuristics-eval --pairs 10 --seed 2201 --seconds 10 \\
        --trace-runs 4 --out BENCH_22.json --claim episode_ms
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
    parser.add_argument("--pairs", required=True, type=int, help="timed pairs (--trace 0)")
    parser.add_argument("--seed", required=True, type=int, help="seed of the first pair")
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--out", required=True, type=Path, help="BENCH_<n>.json to write or update")
    parser.add_argument("--parent-rev", help="the parent's commit (default: its git HEAD)")
    parser.add_argument("--claim", metavar="METRIC",
                        help="record this workload and metric as the claimed gain")
    parser.add_argument("--trace-runs", type=int, default=0, metavar="N",
                        help="pairs of --trace 1 runs whose per-layer metrics go under trace")
    args = parser.parse_args(argv)
    if args.pairs < 0 or args.trace_runs < 0 or args.pairs + args.trace_runs < 1:
        parser.error("--pairs and --trace-runs must be >= 0, and one of them >= 1")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def bench_run(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run: its result line, with the report it wrote."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", str(trace)]
    report_path = Path(".bench_out") / "reports" / f"{workload}-seed{seed}-trace{trace}.json"
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


def quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summary(values: list) -> dict:
    q1, q3 = quartiles(values)
    return {"median": round(statistics.median(values), ROUND), "q1": round(q1, ROUND),
            "q3": round(q3, ROUND)}


def metric_record(spec: dict, pairs: list, pairs_run: int, claimed: bool) -> dict:
    """One end-to-end metric over the pairs in which both sides ran correctly,
    of the ``pairs_run`` pairs run, with its verdict:

    - ``gain``, for the ``claimed`` metric only: the change wins at least
      9/10 of the pairs run (ties count for neither side), and its median is
      better than the parent's by more than the parent's q3 - q1;
    - ``worse``: the change's median is worse than the parent's by more than
      the metric's bound, a fraction of the parent's median;
    - ``unresolved``: the parent's q3 - q1 is wider than that bound, and not
      every change run is better than every parent run;
    - ``within_bound`` otherwise.
    """
    name = spec["name"]
    sign = 1 if spec["better"] == "lower" else -1  # sign * value: lower is better
    parent = [p["result"]["metrics"][name]["value"] for p, c in pairs]
    change = [c["result"]["metrics"][name]["value"] for p, c in pairs]
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    limit = spec["bound"] * abs(p_med)
    if claimed and 10 * wins >= 9 * pairs_run and sign * (p_med - c_med) > q3 - q1:
        verdict = "gain"
    elif sign * (c_med - p_med) > limit:
        verdict = "worse"
    elif q3 - q1 > limit and max(sign * v for v in change) >= min(sign * v for v in parent):
        verdict = "unresolved"
    else:
        verdict = "within_bound"
    return {
        "unit": spec["unit"],
        "better": spec["better"],
        "bound": spec["bound"],
        "parent": summary(parent),
        "change": summary(change),
        "change_wins": wins,
        "relative_change": round((c_med - p_med) / p_med, 4) if p_med else None,
        "verdict": verdict,
        "parent_runs": [round(v, ROUND) for v in parent],
        "change_runs": [round(v, ROUND) for v in change],
    }


def alternating_pairs(args, seeds: list, trace: int, shown: str) -> list:
    """(parent, change) runs, one pair per seed, the parent first on
    even-numbered pairs; each run's ``shown`` metric goes to stderr."""
    pairs = []
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        runs = {side: bench_run(getattr(args, side), args.workload, seed, args.seconds, trace)
                for side in order}
        pairs.append((runs["parent"], runs["change"]))
        print(f"trace {trace} pair {i + 1}/{len(seeds)} seed {seed}: " + ", ".join(
            f"{side} {runs[side]['result']['metrics'].get(shown, {}).get('value', 'failed')}"
            for side in order), file=sys.stderr, flush=True)
    return pairs


def side_totals(pairs: list, key: str) -> dict:
    return {side: sum(pair[k]["result"].get(key, 0) for pair in pairs)
            for k, side in enumerate(("parent", "change"))}


def trace_record(spec: dict, pairs: list, seeds: list, seconds: float) -> dict:
    """Each side's median and per-run values of every declared per-layer
    metric, over the pairs in which both sides ran correctly; a layer that
    reads 0 in every run is left out."""
    good = [(p, c) for p, c in pairs if p["ok"] and c["ok"]]
    record = {
        "command": "python3 bench/run.py --workload <name> --seed <n> "
                   f"--seconds {seconds:g} --trace 1",
        "runs": len(pairs),
        "seeds": seeds,
        "order": "alternating, parent first",
        "all_correct": len(good) == len(pairs),
        "parent": {},
        "change": {},
    }
    for metric in spec["per_layer"]:
        name = metric["name"]
        runs = [[pair[k]["result"]["metrics"][name]["value"] for pair in good] for k in (0, 1)]
        if not any(v for side in runs for v in side):
            continue
        for side, values in zip(("parent", "change"), runs):
            record[side][name] = {"median": round(statistics.median(values), ROUND),
                                  "runs": [round(v, ROUND) for v in values]}
    return record


def git_rev(checkout: Path) -> str | None:
    proc = subprocess.run(["git", "-C", str(checkout), "rev-parse", "--short", "HEAD"],
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    seeds = [args.seed + i for i in range(args.pairs)]
    pairs = alternating_pairs(args, seeds, 0, "episode_ms")
    trace_seeds = [args.seed + args.pairs + i for i in range(args.trace_runs)]
    traced = alternating_pairs(args, trace_seeds, 1, "trace.wall_s")
    good = [(p, c) for p, c in pairs if p["ok"] and c["ok"]]
    record = {
        "pairs": args.pairs,
        "seeds": seeds,
        "attempted": side_totals(pairs, "attempted"),
        "failed": side_totals(pairs, "failed"),
        "all_correct": len(good) == len(pairs),
        "metrics": {m["name"]: metric_record(m, good, len(pairs), m["name"] == args.claim)
                    for m in spec["end_to_end"]} if good else {},
        "reports": {side: [pair[k]["cite"] for pair in pairs]
                    for k, side in enumerate(("parent", "change"))},
    }

    out = json.loads(args.out.read_text()) if args.out.is_file() else {}
    first = next((r["report"] for pair in pairs + traced for r in pair if r["report"]), {})
    out.setdefault("parent", args.parent_rev or git_rev(args.parent))
    out.setdefault("command", "python3 bench/run.py --workload <name> --seed <n> "
                              f"--seconds {args.seconds:g} --trace 0")
    out.setdefault("method", (
        "alternating parent/change pairs (parent first on even-numbered pairs, change first "
        "on odd), each side in its own checkout with the same bench/; median and quartiles "
        "(inclusive method) over the pairs of each calibration-scaled end-to-end metric; "
        "change_wins counts the pairs in which the change is better; each metric's verdict "
        "(gain, worse, unresolved or within_bound) follows the rules in scripts/bench_pairs.py "
        "metric_record; the per-run values are "
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
    all_correct = True
    if pairs:
        out.setdefault("workloads", {})[args.workload] = record
        all_correct = record["all_correct"]
    if traced:
        trace = trace_record(spec, traced, trace_seeds, args.seconds)
        out.setdefault("trace", {})[args.workload] = trace
        all_correct = all_correct and trace["all_correct"]
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
