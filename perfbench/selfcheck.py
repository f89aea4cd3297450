"""Fast self-check of the benchmark harness.

Covers the self-time arithmetic on nested and threaded spans, the median and
percentile helpers, the accuracy gate's failure path, and the agreement of
``BENCHMARK.json`` with the metrics the harness reports.  Run from the root
of a source checkout:

    python3 perfbench/selfcheck.py
"""

from __future__ import annotations

import json
import math
import sys
import threading
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from spans import (Span, Tracer, covered_length, median, percentile,  # noqa: E402
                   self_times, tail_percentile)


def _span(sid, parent, start, end, thread=1):
    return Span(sid, f"s{sid}", start, parent, thread, None, end)


def test_self_time_nested():
    spans = [_span(1, None, 0.0, 10.0), _span(2, 1, 1.0, 4.0), _span(3, 2, 2.0, 3.0),
             _span(4, 1, 5.0, 6.0)]
    own = self_times(spans)
    assert own == {1: 6.0, 2: 2.0, 3: 1.0, 4: 1.0}, own


def test_self_time_threaded_children_overlap():
    # two worker threads under one parent: only the union of their intervals
    # is covered, and a child running past the parent's end is clipped
    spans = [_span(1, None, 0.0, 10.0), _span(2, 1, 1.0, 6.0, thread=2),
             _span(3, 1, 2.0, 8.0, thread=3), _span(4, 1, 9.0, 12.0, thread=2)]
    own = self_times(spans)
    assert math.isclose(own[1], 10.0 - 7.0 - 1.0), own
    assert covered_length([(0.0, 1.0), (3.0, 4.0), (0.5, 2.0)], 0.0, 10.0) == 3.0


def test_tracer_threads_adopt_and_recursion():
    tracer = Tracer()

    def leaf(x):
        time.sleep(0.02)
        return x

    def fan_out(k):
        threads = [threading.Thread(target=traced_leaf, args=(i,)) for i in range(k)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5.0)
        assert not any(t.is_alive() for t in threads)
        return k

    def countdown(n):
        return n if n == 0 else traced_countdown(n - 1)

    traced_leaf = tracer.wrap("leaf", leaf)
    traced_countdown = tracer.wrap("countdown", countdown)
    traced_fan_out = tracer.wrap("fan_out", fan_out, adopt=True,
                                 after=lambda a, k, out: {"workers": out})
    tracer.enabled = True
    with tracer.span("case"):
        traced_fan_out(2)
        traced_countdown(5)
    tracer.enabled = False

    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    fan = by_name["fan_out"][0]
    leaves = by_name["leaf"]
    assert len(leaves) == 2 and all(s.parent == fan.id for s in leaves)
    assert len({s.thread for s in leaves} | {fan.thread}) == 3
    assert fan.meta == {"workers": 2}
    assert len(by_name["countdown"]) == 1  # recursion adds no nested spans
    assert by_name["harness"][0].parent == by_name["case"][0].id
    own = self_times(tracer.spans)
    covered = covered_length([(s.start, s.end) for s in leaves], fan.start, fan.end)
    assert math.isclose(own[fan.id], fan.duration - covered)
    assert own[fan.id] < fan.duration - 0.015


def test_install_replaces_every_binding():
    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")

    def f():
        return 1

    a.f = f
    b.f = f  # as after ``from .a import f``
    b.g = lambda: b.f() + 1
    sys.modules.update({"fakepkg": pkg, "fakepkg.a": a, "fakepkg.b": b})
    try:
        tracer = Tracer()
        tracer.install("fakepkg", {"a.f": {}})
        assert a.f is not f and b.f is a.f
        tracer.enabled = True
        assert b.g() == 2
        assert [s.name for s in tracer.spans] == ["a.f"]
        tracer.uninstall()
        assert a.f is f and b.f is f
    finally:
        for name in ("fakepkg", "fakepkg.a", "fakepkg.b"):
            sys.modules.pop(name)


def test_median_and_percentiles():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5
    vals = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(vals, 0) == 1.0 and percentile(vals, 100) == 5.0
    assert percentile(vals, 50) == 3.0 and percentile(vals, 25) == 2.0
    assert math.isclose(percentile([1.0, 2.0], 25), 1.25)
    assert tail_percentile(10) is None and tail_percentile(20) is None
    assert tail_percentile(40) == 75 and tail_percentile(1000) == 99


def test_gate_rejects_wrong_reference():
    import run
    import workloads

    case = workloads._bmax_case("bmax_1d_401", workloads._gaussian_model(1, 401, 8.0),
                                10.0, workloads.BMAX_1D_RTOL)
    good = run.run_case(case, {})
    assert good["failures"] == [], good["failures"]
    right = case.reference()
    bad = run.run_case(case, {case.id: right * (1.0 + 1e-4)})
    assert len(bad["failures"]) == 1 and "bmax_rel_error" in bad["failures"][0]
    _, failures = workloads.evaluate(case, case.run(), math.nan)
    assert failures, "a NaN error must fail the gate"
    broken = workloads.Case("raises", run=lambda: 1 / 0, check=lambda out, ref: [])
    assert run.run_case(broken, {})["failures"]


def test_benchmark_json_matches_harness():
    import layers
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "wall_s", "peak_rss_mb"]
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert per_layer == {k: v[:2] for k, v in layers.PER_LAYER.items()}


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print(f"PASS {name}")
        except Exception as exc:  # report every failing check, then exit non-zero
            failed += 1
            print(f"FAIL {name}: {type(exc).__name__}: {exc}")
    print(f"{len(tests) - failed} of {len(tests)} self-checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
