"""Command-line front end: `bcrb <subcommand> --config <path> [--out <dir>]`.

Subcommands mirror the scenario kinds (bound, optimal, minimax, quantum,
waveform, imaging, invariance).  Each run writes ``report.json`` plus any
CSV tables into the output directory, deterministically: identical inputs
produce byte-identical files.  Exit codes: 0 success, 2 configuration or
schema violation, 3 numerical failure, 4 unwritable output.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .errors import BcrbError, ScenarioError
from .scenarios import (
    RUNNERS,
    ScenarioResult,
    canonical_json,
    format_value,
    load_config,
    run_scenario_config,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_OUTPUT = 4


def emit_report(result: ScenarioResult, out_dir) -> list[str]:
    """Write report.json and the CSV tables; returns the written paths."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    report_path = os.path.join(out_dir, "report.json")
    with open(report_path, "w", newline="") as fh:
        fh.write(canonical_json(result.report))
        fh.write("\n")
    written.append(report_path)
    for name in sorted(result.tables):
        header, rows = result.tables[name]
        path = os.path.join(out_dir, f"{name}.csv")
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(map(format_value, row)) + "\n")
        written.append(path)
    return written


def run_scenario(config_path, out_dir, kind: str, grid_scale: int = 1,
                 seed: int | None = None) -> int:
    """Load, validate, run, and emit one scenario; returns the exit code."""
    try:
        config = load_config(config_path)
        if config["kind"] != kind:
            raise ScenarioError(
                f"config kind {config['kind']!r} does not match "
                f"subcommand {kind!r}", field_path="kind",
            )
        result = run_scenario_config(config, grid_scale=grid_scale, seed=seed)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (BcrbError, ArithmeticError, ValueError, np.linalg.LinAlgError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    try:
        written = emit_report(result, out_dir)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_OUTPUT
    for path in written:
        print(path)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bcrb",
        description="Bayesian Cramer-Rao bound scenarios on discretized "
                    "parameter spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in RUNNERS:
        p = sub.add_parser(kind, help=f"run a '{kind}' scenario config")
        p.add_argument("--config", required=True, help="scenario JSON path")
        p.add_argument("--out", default="bcrb_out", help="output directory")
        p.add_argument("--grid-scale", type=int, default=1,
                       help="multiply grid resolutions by this factor")
        p.add_argument("--seed", type=int, default=None,
                       help="seed for randomized sweeps (default: fixed 0)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.grid_scale < 1:
        print("error: --grid-scale must be >= 1", file=sys.stderr)
        return EXIT_CONFIG
    return run_scenario(args.config, args.out, args.command, args.grid_scale, args.seed)


if __name__ == "__main__":
    sys.exit(main())
