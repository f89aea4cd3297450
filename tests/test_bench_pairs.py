"""``tools/bench_pairs.py`` gives each workload metric a verdict from the
paired runs and the metric's bound in ``BENCHMARK.json``."""

import importlib.util
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"
BOUNDS = {"setup_s": 0.25, "wall_s": 0.24, "peak_rss_mb": 0.1}


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOLS / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(wall, setup=0.5, rss=100.0):
    """One synthetic ``run_once`` result."""
    return {"metrics": {"setup_s": setup, "wall_s": wall, "peak_rss_mb": rss},
            "failed": 0, "attempted": 3, "environment": "test",
            "cases": [{"case": "a", "median_s": wall, "worst_errors": {"err": 1e-9}}]}


def wall_verdict(bench_pairs, parent, change):
    record = bench_pairs.summarize({"parent": [run(w) for w in parent],
                                    "change": [run(w) for w in change]}, BOUNDS)
    return record["metrics"]["wall_s"]["verdict"]


TIGHT = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]  # quartiles 1.0225-1.0675
WIDE = [0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.3, 1.4, 1.5]  # quartiles 0.825-1.275


def test_gain(bench_pairs):
    assert wall_verdict(bench_pairs, TIGHT, [w - 0.2 for w in TIGHT]) == "gain"


def test_gain_needs_nine_tenths_of_the_pairs(bench_pairs):
    # one tie in ten pairs still wins nine tenths; two do not, ties counting for neither
    one_tie = [w - 0.2 for w in TIGHT[:9]] + [TIGHT[9]]
    two_ties = [w - 0.2 for w in TIGHT[:8]] + TIGHT[8:]
    assert wall_verdict(bench_pairs, TIGHT, one_tie) == "gain"
    assert wall_verdict(bench_pairs, TIGHT, two_ties) == "within_bound"


def test_gain_needs_medians_apart_by_the_parent_spread(bench_pairs):
    # lower in every pair, by less than the parent's interquartile range
    assert wall_verdict(bench_pairs, TIGHT, [w - 0.01 for w in TIGHT]) == "within_bound"


def test_worse(bench_pairs):
    assert wall_verdict(bench_pairs, TIGHT, [1.3 * w for w in TIGHT]) == "worse"
    # within the 24 % bound: not worse
    assert wall_verdict(bench_pairs, TIGHT, [1.2 * w for w in TIGHT]) == "within_bound"


def test_unresolved(bench_pairs):
    assert wall_verdict(bench_pairs, WIDE, WIDE[::-1]) == "unresolved"


def test_wide_parent_resolved_when_every_change_run_is_lower(bench_pairs):
    # medians 2.0 and 0.9, apart by less than the parent's quartiles 1.0-3.0
    parent = [1.0] * 5 + [3.0] * 5
    assert wall_verdict(bench_pairs, parent, [0.9] * 10) == "within_bound"
    assert wall_verdict(bench_pairs, parent, [0.9] * 9 + [1.0]) == "unresolved"


def test_every_metric_judged_against_its_own_bound(bench_pairs):
    parent = [run(1.0, setup=0.5, rss=100.0 + k) for k in range(10)]
    change = [run(1.0, setup=0.5, rss=112.0 + k) for k in range(10)]  # +11 %, bound 10 %
    metrics = bench_pairs.summarize({"parent": parent, "change": change}, BOUNDS)["metrics"]
    assert {name: m["verdict"] for name, m in metrics.items()} == {
        "setup_s": "within_bound", "wall_s": "within_bound", "peak_rss_mb": "worse"}


def test_bounds_read_from_benchmark_json(bench_pairs):
    bounds = bench_pairs.end_to_end_bounds()
    assert set(bounds) == set(bench_pairs.METRICS) and all(b > 0 for b in bounds.values())
