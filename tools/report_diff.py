"""Byte-compare the shipped configs' outputs between two git revisions.

Exports both revisions into fresh directories (as ``tools/bench_pairs.py``
does), runs every ``configs/*.json`` of each through its own
``python -m bcrb.cli`` at each grid scale, one process at a time, and
compares the output directories file by file.  Prints every file that
differs or exists on one side only, and every run whose exit code differs,
then a summary line; exits 1 if anything differs, else 0.  For a text file
on both sides it also prints how the file moved: its first differing line in
both versions and the largest relative difference over its numeric cells.

Run from the repository root, for example:

    python3 tools/report_diff.py --parent HEAD~1 --change HEAD

The 7 shipped configs at grid scales 1 and 4 take about a minute per
revision.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
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


def _cells(line: str) -> list[str]:
    """The cells of a CSV or canonical-JSON line: split at separators and quotes."""
    return [cell for cell in re.split(r'[\s,:"\[\]{}]+', line) if cell]


def describe_move(parent_text: str, change_text: str) -> list[str]:
    """How a text file moved: its first differing line (number, parent text,
    change text), and the largest |change - parent| / max(|parent|, |change|)
    over the numeric cells of lines that hold as many cells on both sides
    (inf where a cell turns non-finite)."""
    old, new = parent_text.splitlines(), change_text.splitlines()
    first = next((i for i, (a, b) in enumerate(zip(old, new)) if a != b),
                 min(len(old), len(new)))
    shown = [repr(lines[first]) if first < len(lines) else "<end of file>" for lines in (old, new)]
    out = [f"  line {first + 1}: parent {shown[0]}, change {shown[1]}"]
    moves = []  # (relative difference, line number, parent cell, change cell)
    for number, (old_line, new_line) in enumerate(zip(old, new), start=1):
        old_cells, new_cells = _cells(old_line), _cells(new_line)
        if len(old_cells) != len(new_cells):
            continue
        for a_cell, b_cell in zip(old_cells, new_cells):
            try:
                a, b = float(a_cell), float(b_cell)
            except ValueError:
                continue
            if a_cell == b_cell or a == b:
                continue
            finite = math.isfinite(a) and math.isfinite(b)
            rel = abs(b - a) / max(abs(a), abs(b)) if finite else math.inf
            moves.append((rel, number, a_cell, b_cell))
    if moves:
        rel, number, a_cell, b_cell = max(moves, key=lambda move: move[0])
        out.append(f"  largest relative difference {rel:.3e} at line {number} "
                   f"({a_cell} -> {b_cell})")
    else:
        out.append("  no numeric cell differs")
    return out


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
        how_moved = {}
        for rel in changed_files:
            try:
                texts = [(outs[rev] / rel).read_text() for rev in ("parent", "change")]
            except (FileNotFoundError, UnicodeDecodeError):  # one side only, or not text
                continue
            how_moved[rel] = describe_move(*texts)

    for name in changed_codes:
        print(f"exit code differs: {name} ({codes['parent'].get(name)} -> "
              f"{codes['change'].get(name)})")
    for rel in changed_files:
        print(f"differs: {rel}")
        for line in how_moved.get(rel, []):
            print(line)
    if changed_codes or changed_files:
        print(f"{len(changed_files)} of {compared} output files differ")
        return 1
    print(f"all {compared} output files byte-identical "
          f"({len(codes['parent'])} runs, grid scales {', '.join(map(str, GRID_SCALES))})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
