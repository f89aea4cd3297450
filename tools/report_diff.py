"""Byte-compare the shipped configs' outputs between two git revisions.

Exports both revisions into fresh directories (as ``tools/bench_pairs.py``
does), runs every ``configs/*.json`` of each through its own
``python -m bcrb.cli`` at each grid scale, one process at a time, and
compares the output directories file by file.  Prints every file that
differs or exists on one side only, and every run whose exit code differs,
then a summary line; exits 1 if anything differs, else 0.

Run from the repository root, for example:

    python3 tools/report_diff.py --parent HEAD~1 --change HEAD

The 7 shipped configs at grid scales 1 and 4 take about a minute per
revision.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import export, resolve

GRID_SCALES = (1, 4)


def run_configs(checkout: Path, out: Path) -> dict[str, int]:
    """Run every shipped config at every grid scale; exit code per output directory."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    codes = {}
    for config in sorted((checkout / "configs").glob("*.json")):
        kind = json.loads(config.read_text())["kind"]
        for scale in GRID_SCALES:
            name = f"{config.stem}_x{scale}"
            proc = subprocess.run(
                [sys.executable, "-m", "bcrb.cli", kind, "--config", str(config),
                 "--out", str(out / name), "--grid-scale", str(scale)],
                cwd=checkout, env=env, capture_output=True, text=True)
            codes[name] = proc.returncode
            print(f"{checkout.name} {name}: exit {proc.returncode}", flush=True)
    return codes


def differing_files(parent: Path, change: Path) -> list[str]:
    """Relative paths of files that differ in bytes or exist under one root only."""
    def files(root: Path) -> set[str]:
        return {str(p.relative_to(root)) for p in root.rglob("*") if p.is_file()}

    ours, theirs = files(parent), files(change)
    return sorted(rel for rel in ours | theirs
                  if rel not in ours or rel not in theirs
                  or (parent / rel).read_bytes() != (change / rel).read_bytes())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the baseline")
    parser.add_argument("--change", required=True, help="git revision of the change")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="report-diff-") as tmp:
        outs, codes = {}, {}
        for rev in ("parent", "change"):
            sha = resolve(getattr(args, rev))
            checkout = export(sha, Path(tmp) / rev)
            outs[rev] = Path(tmp) / f"{rev}-out"
            codes[rev] = run_configs(checkout, outs[rev])
        changed_codes = sorted(name for name in codes["parent"].keys() | codes["change"].keys()
                               if codes["parent"].get(name) != codes["change"].get(name))
        changed_files = differing_files(outs["parent"], outs["change"])
        compared = sum(1 for p in outs["parent"].rglob("*") if p.is_file())

    for name in changed_codes:
        print(f"exit code differs: {name} ({codes['parent'].get(name)} -> "
              f"{codes['change'].get(name)})")
    for rel in changed_files:
        print(f"differs: {rel}")
    if changed_codes or changed_files:
        print(f"{len(changed_files)} of {compared} output files differ")
        return 1
    print(f"all {compared} output files byte-identical "
          f"({len(codes['parent'])} runs, grid scales {', '.join(map(str, GRID_SCALES))})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
