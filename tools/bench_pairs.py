"""Paired benchmark record: a parent and a changed revision, run in turns.

Exports both git revisions into fresh directories, then runs the unchanged
``perfbench/run.py`` of each (timed, ``--trace 0``) once per seed, alternating
which revision goes first so that slow drift of the machine hits both
equally.  Writes one compact JSON record:

- per workload and metric (``setup_s``, ``wall_s``, ``peak_rss_mb``): the
  median and quartiles over seeds for each revision, and in how many pairs
  the change was lower;
- per case: the median over seeds of the per-run median seconds, and the
  smallest and largest value of every accuracy figure over all runs (the
  worst one is the largest for an error and the smallest for a margin);
- failed and attempted case executions, the environment line and both
  revisions.

Run from the repository root, for example:

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD \\
        --workload solve_ladder --seeds 21-30 --seconds 24 --out BENCH_<n>.json

Runs are sequential; a run takes about ``--seconds`` plus three fresh-process
setups.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRICS = ("setup_s", "wall_s", "peak_rss_mb")
WORKLOADS = ("cli_configs", "solve_ladder", "sweeps")


def parse_seeds(text: str) -> list[int]:
    """``21-30`` or ``1,4,9``."""
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def resolve(rev: str) -> str:
    return subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                          check=True, capture_output=True, text=True).stdout.strip()


def export(sha: str, dest: Path) -> Path:
    """The committed tree of ``sha`` in a new directory, as ``git archive`` gives it."""
    dest.mkdir(parents=True)
    archive = dest.with_suffix(".tar")
    subprocess.run(["git", "archive", "--format=tar", "-o", str(archive), sha],
                   cwd=ROOT, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()
    return dest


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads(
        (checkout / ".perfbench_out" / f"{workload}_seed{seed}_trace0.json").read_text())
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "failed": result["failed"], "attempted": result["attempted"],
            "cases": detail["cases"], "environment": detail["environment"]}


def spread(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def end_to_end_bounds() -> dict[str, float]:
    """Each end-to-end metric's bound, relative to the parent's median."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}


def verdict(parent: list[float], change: list[float], bound: float) -> str:
    """How a lower-is-better metric moved over paired runs.

    - ``gain``: the change is lower in at least nine tenths of the pairs (a
      tie counts for neither side), and the parent's median exceeds the
      change's by more than the parent's interquartile range;
    - ``worse``: the change's median exceeds the parent's by more than
      ``bound`` times the parent's median;
    - ``unresolved``: neither, and the parent's interquartile range is wider
      than that bound, unless every change run is below every parent run;
    - ``within_bound`` otherwise.
    """
    p, c = spread(parent), spread(change)
    iqr = p["q3"] - p["q1"]
    lower = sum(ci < pi for pi, ci in zip(parent, change))
    if 10 * lower >= 9 * len(change) and p["median"] - c["median"] > iqr:
        return "gain"
    if c["median"] - p["median"] > bound * p["median"]:
        return "worse"
    if iqr > bound * p["median"] and not max(change) < min(parent):
        return "unresolved"
    return "within_bound"


def summarize(runs: dict[str, list[dict]], bounds: dict[str, float]) -> dict:
    """Compact record of one workload from the parent and change runs;
    ``bounds`` maps each metric to its relative bound."""
    out = {"pairs": len(runs["change"]), "metrics": {}, "cases": {}}
    for name in METRICS:
        per_rev = {rev: [r["metrics"][name] for r in runs[rev]] for rev in runs}
        out["metrics"][name] = {
            **{rev: spread(v) for rev, v in per_rev.items()},
            "change_lower_pairs": sum(c < p for p, c in zip(per_rev["parent"],
                                                            per_rev["change"])),
            "verdict": verdict(per_rev["parent"], per_rev["change"], bounds[name]),
        }
    for rev in runs:
        out.setdefault("failed", {})[rev] = sum(r["failed"] for r in runs[rev])
        out.setdefault("attempted", {})[rev] = sum(r["attempted"] for r in runs[rev])
    for rev, rev_runs in runs.items():
        for i, row in enumerate(rev_runs[0]["cases"]):
            case = out["cases"].setdefault(row["case"], {})
            case[f"{rev}_median_s"] = statistics.median(r["cases"][i]["median_s"]
                                                        for r in rev_runs)
            accuracy = case.setdefault(f"{rev}_accuracy", {})
            for r in rev_runs:
                for label, value in r["cases"][i]["worst_errors"].items():
                    lo, hi = accuracy.get(label, (value, value))
                    accuracy[label] = (min(lo, value), max(hi, value))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the baseline")
    parser.add_argument("--change", required=True, help="git revision of the change")
    parser.add_argument("--workload", action="append", choices=WORKLOADS, required=True)
    parser.add_argument("--seeds", default="21-30")
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)

    shas = {"parent": resolve(args.parent), "change": resolve(args.change)}
    bounds = end_to_end_bounds()
    seeds = parse_seeds(args.seeds)
    record = {
        "revisions": shas,
        "command": f"python3 perfbench/run.py --workload <w> --seed <s> "
                   f"--seconds {args.seconds:g} --trace 0",
        "seeds": seeds,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        checkouts = {rev: export(sha, Path(tmp) / rev) for rev, sha in shas.items()}
        for workload in args.workload:
            runs: dict[str, list[dict]] = {"parent": [], "change": []}
            for k, seed in enumerate(seeds):
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                for rev in order:
                    run = run_once(checkouts[rev], workload, seed, args.seconds)
                    runs[rev].append(run)
                    print(f"{workload} seed={seed} {rev}: " + ", ".join(
                        f"{name}={v:.4g}" for name, v in run["metrics"].items())
                        + f", failed={run['failed']}/{run['attempted']}", flush=True)
            record["workloads"][workload] = summarize(runs, bounds)
            record["environment"] = runs["change"][-1]["environment"]
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
