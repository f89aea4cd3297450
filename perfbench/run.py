"""Benchmark of the bcrb package: end-to-end timings and traced per-layer metrics.

Run one workload from the root of a source checkout:

    python3 perfbench/run.py --workload sweeps --seed 1 --seconds 24 --trace 0

or every workload, each in its own process, timed and then traced:

    python3 perfbench/run.py --workload all --seed 1

A run repeats passes over the workload's cases until ``--seconds`` have
elapsed (timed runs make at least three passes).  With ``--trace 0`` it reports the end-to-end
metrics (``setup_s``, ``wall_s``, ``peak_rss_mb``); with ``--trace 1`` it
runs a warm-up pass, then untraced and traced passes in turn, and reports
the per-layer metrics of ``layers.PER_LAYER``.  Every case's output is checked against its
reference; a failed check counts in ``failed``.  The last line of standard
output is one JSON object; details go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

from spans import median, percentile, tail_percentile

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("cli_configs", "solve_ladder", "sweeps")
SETUP_SAMPLES = 3
MIN_PASSES = 3  # per-case medians of timed runs discount a slow first pass
SETUP_TIMEOUT_S = 120
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BCRB_THREADS")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the workload's inputs, print 'ready' and exit")
    return parser.parse_args(argv)


def cap_threads(env) -> int:
    """Cap BLAS, OpenMP and BCRB_THREADS at the usable CPU count."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            wanted = int(env.get(var, nproc))
        except ValueError:
            wanted = nproc
        env[var] = str(min(max(wanted, 1), nproc))
    return nproc


def environment(nproc: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        **{var: int(os.environ[var]) for var in THREAD_VARS},
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def time_setup(args) -> float:
    """Seconds from starting a fresh process to its first case being ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.communicate(timeout=SETUP_TIMEOUT_S)
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"setup process failed (exit {proc.returncode})")
    return elapsed


def run_case(case, refs: dict, tracer=None) -> dict:
    from workloads import evaluate

    gc.collect()
    if tracer is not None:
        tracer.case = case.id
        tracer.enabled = True
        root = tracer.open("case")
    start = time.perf_counter()
    try:
        out, error = case.run(), None
    except Exception as exc:  # a failing case is counted and the run goes on
        out, error = None, f"{case.id}: {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    if tracer is not None:
        tracer.close(root)
        tracer.enabled = False
    measures, failures = [], []
    if error is None:
        try:
            if case.id not in refs:
                refs[case.id] = case.reference()
            measures, failures = evaluate(case, out, refs[case.id])
        except Exception as exc:  # a check that cannot run fails the case
            failures = [f"{case.id}: check raised {type(exc).__name__}: {exc}"]
    else:
        failures = [error]
    return {"case": case.id, "seconds": seconds, "measures": measures, "failures": failures}


def wall_s(passes: list[list[dict]]) -> float:
    """Sum over cases of each case's median time across passes."""
    return sum(median(p[i]["seconds"] for p in passes) for i in range(len(passes[0])))


def timed_run(args, cases, refs) -> tuple[list, dict, dict]:
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < args.seconds:
        passes.append([run_case(c, refs) for c in cases])
    metrics = {"wall_s": wall_s(passes),
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    return passes, metrics, {"wall_s": len(passes), "peak_rss_mb": 1}


def traced_run(args, cases, refs) -> tuple[list, dict, dict, list]:
    """A warm-up pass, then untraced and traced passes in turn."""
    import layers
    from spans import Tracer

    start = time.perf_counter()
    warmup = [run_case(c, refs) for c in cases]
    tracer = Tracer()
    tracer.install("bcrb", layers.TRACED)
    untraced, traced, samples, spans = [], [], [], []
    try:
        while not traced or time.perf_counter() - start < args.seconds:
            untraced.append([run_case(c, refs) for c in cases])
            tracer.spans = []
            results = [run_case(c, refs, tracer) for c in cases]
            traced.append(results)
            samples.append(layers.pass_metrics(
                tracer.spans, [m for r in results for m in r["measures"]]))
            spans.extend({"pass": len(traced) - 1, **s.to_dict()} for s in tracer.spans)
    finally:
        tracer.uninstall()
    metrics = {name: median(s[name] for s in samples)
               for name in layers.PER_LAYER if name != "trace.overhead_s"}
    metrics["trace.overhead_s"] = wall_s(traced) - wall_s(untraced)
    counts = {name: len(samples) for name in metrics}
    return [warmup] + untraced + traced, metrics, counts, spans


def case_table(passes: list[list[dict]]) -> list[dict]:
    rows = []
    for i, first in enumerate(passes[0]):
        times = [p[i]["seconds"] for p in passes]
        errors = {}
        for p in passes:
            for m in p[i]["measures"]:
                worst = max if m.hi < math.inf else min  # toward the violated side
                errors[m.label] = worst(errors.get(m.label, m.value), m.value)
        row = {"case": first["case"], "samples": len(times), "median_s": median(times),
               "min_s": min(times), "max_s": max(times), "worst_errors": errors}
        q = tail_percentile(len(times))
        if q is not None:
            row[f"p{q}_s"] = percentile(times, q)
        rows.append(row)
    return rows


def print_report(args, env, setup_samples, rows, metrics, counts, units, failures,
                 failed, attempted):
    print(f"# bcrb benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    if setup_samples:
        print(f"# setup_s samples: {', '.join(f'{t:.4f}' for t in setup_samples)}")
    print(f"# {'case':32s} {'n':>3s} {'median_s':>10s} {'min_s':>10s} {'max_s':>10s}  worst error")
    for r in rows:
        errs = ", ".join(f"{k}={v:.3g}" for k, v in r["worst_errors"].items())
        print(f"  {r['case']:32s} {r['samples']:3d} {r['median_s']:10.4f} "
              f"{r['min_s']:10.4f} {r['max_s']:10.4f}  {errs}")
    for name, value in metrics.items():
        print(f"  {name:48s} {value:14.6g} {units[name]:6s} (samples: {counts[name]})")
    print(f"  {'failed_frac':48s} {failed / attempted:14.6g} ratio  "
          f"({failed} of {attempted} case executions)")
    for msg in failures:
        print(f"  FAILED {msg}")


def run_workload(args, nproc: int) -> int:
    setup_samples = [] if args.trace else [time_setup(args) for _ in range(SETUP_SAMPLES)]
    tmp = OUT / f"tmp-{os.getpid()}"
    try:
        from workloads import build

        cases = build(args.workload, args.seed, tmp)
        env = environment(nproc)
        refs: dict = {}
        if args.trace:
            import layers

            passes, metrics, counts, spans = traced_run(args, cases, refs)
            units = {name: spec[0] for name, spec in layers.PER_LAYER.items()}
        else:
            passes, metrics, counts = timed_run(args, cases, refs)
            metrics = {"setup_s": median(setup_samples), **metrics}
            counts["setup_s"] = len(setup_samples)
            units = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
            spans = []
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    failures = [f for p in passes for r in p for f in r["failures"]]
    failed = sum(bool(r["failures"]) for p in passes for r in p)
    attempted = sum(len(p) for p in passes)
    rows = case_table(passes)
    print_report(args, env, setup_samples, rows, metrics, counts, units, failures,
                 failed, attempted)

    OUT.mkdir(exist_ok=True)
    detail = OUT / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    detail.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "environment": env, "setup_samples_s": setup_samples, "cases": rows,
        "case_seconds": [[r["seconds"] for r in p] for p in passes],
        "metrics": {k: {"value": v, "unit": units[k], "samples": counts[k]}
                    for k, v in metrics.items()},
        "failed": failed, "attempted": attempted, "failures": failures,
        "spans": spans,
    }, indent=1))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Self-check, then every workload timed and traced, each in a fresh process."""
    here = Path(__file__).resolve().parent
    status = subprocess.run([sys.executable, str(here / "selfcheck.py")], cwd=ROOT).returncode
    summary = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            print(proc.stdout, end="")
            status = status or proc.returncode
            lines = proc.stdout.strip().splitlines()
            if proc.returncode == 0 and lines:
                summary[f"{workload}/trace{trace}"] = json.loads(lines[-1])
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in (ROOT / "src" / "bcrb" / "__init__.py", ROOT / "configs")
               if not p.exists()]
    if missing:
        print("error: not a bcrb source checkout; missing "
              + ", ".join(str(p.relative_to(ROOT)) for p in missing), file=sys.stderr)
        return 2
    nproc = cap_threads(os.environ)  # before numpy loads its BLAS
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        from workloads import build

        build(args.workload, args.seed, OUT / f"tmp-{os.getpid()}")
        print("ready", flush=True)
        return 0
    return run_workload(args, nproc)


if __name__ == "__main__":
    sys.exit(main())
