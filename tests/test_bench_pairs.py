"""The per-metric verdicts of ``scripts/bench_pairs.py``, on made-up pairs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

EPISODE_MS = {"name": "episode_ms", "unit": "ms", "better": "lower", "bound": 0.25}
DECISIONS = {"name": "decisions_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}
RSS = {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05}

# Ten parent runs with median 16.225 and q3 - q1 = 0.225.
PARENT = [16.0 + 0.05 * i for i in range(10)]


def pairs(spec, parent, change):
    run = lambda v: {"result": {"metrics": {spec["name"]: {"value": v}}}}  # noqa: E731
    return [(run(p), run(c)) for p, c in zip(parent, change)]


def verdict(spec, parent, change, pairs_run=None, claimed=False):
    record = bench_pairs.metric_record(spec, pairs(spec, parent, change),
                                       len(parent) if pairs_run is None else pairs_run, claimed)
    return record["verdict"]


def test_claimed_metric_reads_gain_when_it_wins_nine_tenths_by_more_than_the_spread():
    faster = [v - 1.0 for v in PARENT]
    assert verdict(EPISODE_MS, PARENT, faster, claimed=True) == "gain"
    # Only the claimed metric can read gain.
    assert verdict(EPISODE_MS, PARENT, faster) == "within_bound"
    # One loss in ten still wins 9/10.
    assert verdict(EPISODE_MS, PARENT, faster[:-1] + [PARENT[-1] + 0.01], claimed=True) == "gain"


@pytest.mark.parametrize("case", ["two-losses", "one-loss-one-tie", "failed-pairs-count"])
def test_claimed_metric_needs_nine_tenths_of_all_pairs_run(case):
    faster = [v - 1.0 for v in PARENT]
    if case == "two-losses":
        change = faster[:-2] + [v + 0.01 for v in PARENT[-2:]]
        assert verdict(EPISODE_MS, PARENT, change, claimed=True) == "within_bound"
    elif case == "one-loss-one-tie":
        # A tie counts for neither side: 8 wins of 10.
        change = faster[:-2] + [PARENT[-2], PARENT[-1] + 0.01]
        assert verdict(EPISODE_MS, PARENT, change, claimed=True) == "within_bound"
    else:
        # Nine good pairs all won, of eleven run: 9 < 9/10 of 11.
        assert verdict(EPISODE_MS, PARENT[:9], faster[:9], pairs_run=11,
                       claimed=True) == "within_bound"
        assert verdict(EPISODE_MS, PARENT[:9], faster[:9], pairs_run=10, claimed=True) == "gain"


def test_claimed_metric_needs_the_medians_apart_by_more_than_the_parent_spread():
    # Every pair won, but by 0.2 against a parent q3 - q1 of 0.225.
    assert verdict(EPISODE_MS, PARENT, [v - 0.2 for v in PARENT], claimed=True) == "within_bound"
    assert verdict(EPISODE_MS, PARENT, [v - 0.25 for v in PARENT], claimed=True) == "gain"


@pytest.mark.parametrize("spec, factor", [(EPISODE_MS, 1.3), (DECISIONS, 0.7), (RSS, 1.06)])
def test_median_worse_by_more_than_the_bound_reads_worse(spec, factor):
    assert verdict(spec, PARENT, [v * factor for v in PARENT]) == "worse"
    # The claim does not save a regression.
    assert verdict(spec, PARENT, [v * factor for v in PARENT], claimed=True) == "worse"


@pytest.mark.parametrize("spec, factor", [(EPISODE_MS, 1.2), (DECISIONS, 0.8), (RSS, 1.04)])
def test_median_worse_within_the_bound_reads_within_bound(spec, factor):
    assert verdict(spec, PARENT, [v * factor for v in PARENT]) == "within_bound"


def test_parent_spread_wider_than_the_bound_reads_unresolved():
    # Parent q3 - q1 is 2.25 MB against a bound of 5% of 17.25 MB.
    parent = [15.0 + 0.5 * i for i in range(10)]
    assert verdict(RSS, parent, parent[::-1]) == "unresolved"
    assert verdict(RSS, parent, [v - 0.5 for v in parent]) == "unresolved"
    # Unless every change run is better than every parent run.
    assert verdict(RSS, parent, [v - 5.0 for v in parent]) == "within_bound"
    assert verdict(RSS, parent, [v - 4.5 for v in parent]) == "unresolved"
