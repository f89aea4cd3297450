"""Traced layers: which bcrb functions get spans, and the per-layer metrics.

Each per-layer metric is named ``<module>.<function>.<stat>``.  ``self_s`` is
span time minus child spans and ``calls`` the number of calls, both per pass.
``MOVES`` records, for each metric, the end-to-end metric and the workloads
it should move.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from bcrb import minimax

from spans import Span, self_times


def _operator_size(args, kwargs, op) -> dict:
    return {"unknowns": int(op.matrix.shape[0]), "nnz": int(op.matrix.nnz)}


def _interior_values(op, values: np.ndarray) -> np.ndarray:
    flat = values.reshape(op.grid.num_nodes, op.grid.dim)
    return np.concatenate([flat[op.interior, a] for a in range(op.grid.dim)])


def _solve_residual(args, kwargs, v) -> dict:
    """||L v - w u|| / ||w u|| on interior unknowns, from the operator and field."""
    op = args[0] if args else kwargs["op"]
    u = args[1] if len(args) > 1 else kwargs["u"]
    rhs = op.weight * _interior_values(op, u.values)
    norm = float(np.linalg.norm(rhs))
    if norm == 0.0:
        return {}
    resid = op.matrix @ _interior_values(op, v.values) - rhs
    return {"relative_residual": float(np.linalg.norm(resid)) / norm}


def _rate_fit_workers(args, kwargs, result) -> dict:
    workers = kwargs.get("workers", args[3] if len(args) > 3 else None)
    return {"workers": workers or min(len(result.n_values), minimax.thread_cap())}


# function (module.name inside bcrb) -> options for Tracer.wrap
TRACED = {
    "grids.diff_matrix": {},
    "grids.divergence_matrix": {},
    "geometry.pushforward_model": {},
    "geometry.invariance_report": {},
    "bounds.functionals": {},
    "bounds.gill_levit_bound": {},
    "optimal.assemble_L": {"after": _operator_size},
    "optimal.solve_least_favorable": {"after": _solve_residual},
    "optimal.bmax": {},
    "minimax.assemble_H": {},
    "minimax.ground_state": {},
    "minimax.converged_ground_energy": {},
    "minimax.rate_fit": {"after": _rate_fit_workers, "adopt": True},
    "minimax.lambda_scan": {},
    "quantum.helstrom_matrix": {},
    "quantum.qmax": {},
    "waveform.rectangle_spectra": {},
    "waveform.continuum_qmax": {},
    "waveform.build_circulant_bound": {"alloc": True},
    "imaging.information_along": {},
    "imaging.imaging_helstrom": {},
    "imaging.helstrom_along": {},
    "imaging.minimax_rate": {},
    "imaging.quantum_vs_classical": {},
    "scenarios.load_config": {},
    "scenarios.validate_config": {},
    "scenarios.run_scenario_config": {},
    "scenarios.canonical_json": {},
    "cli.main": {},
    "cli.emit_report": {},
}

CLI = "cli_configs"
LADDER = "solve_ladder"
SWEEPS = "sweeps"

# metric -> (unit, better, end-to-end metric it should move, workloads)
PER_LAYER = {
    "grids.diff_matrix.self_s": ("s", "lower", "wall_s", (LADDER,)),
    "grids.divergence_matrix.self_s": ("s", "lower", "wall_s", (SWEEPS,)),
    "optimal.assemble_L.self_s": ("s", "lower", "wall_s", (SWEEPS,)),
    "optimal.assemble_L.calls": ("count", "lower", "wall_s", (SWEEPS,)),
    "optimal.assemble_L.unknowns": ("count", "lower", "none: exact problem size", (LADDER, SWEEPS)),
    "optimal.assemble_L.nnz": ("count", "lower", "none: exact problem size", (LADDER, SWEEPS)),
    "optimal.solve_least_favorable.self_s": ("s", "lower", "wall_s", (LADDER,)),
    "optimal.solve.relative_residual_max": ("ratio", "lower", "none: accuracy", (LADDER, SWEEPS)),
    "optimal.bmax.rel_error_max": ("ratio", "lower", "none: accuracy", (LADDER, CLI)),
    "minimax.ground_state.calls": ("count", "lower", "wall_s", (LADDER, SWEEPS)),
    "minimax.ground_state.self_s": ("s", "lower", "wall_s", (LADDER, SWEEPS)),
    "minimax.assemble_H.self_s": ("s", "lower", "wall_s", (LADDER, SWEEPS)),
    "minimax.rate_fit.self_s": ("s", "lower", "wall_s", (LADDER, SWEEPS)),
    "minimax.rate_fit.parallel_eff": ("ratio", "higher", "wall_s", (LADDER,)),
    "minimax.lambda_scan.self_s": ("s", "lower", "wall_s", (LADDER,)),
    "waveform.build_circulant_bound.self_s": ("s", "lower", "wall_s", (LADDER, CLI)),
    "waveform.build_circulant_bound.peak_alloc_mb": ("MB", "lower", "peak_rss_mb", (LADDER,)),
    "waveform.rectangle_spectra.self_s": ("s", "lower", "wall_s", (CLI,)),
    "waveform.continuum_qmax.self_s": ("s", "lower", "wall_s", (CLI,)),
    "imaging.imaging_helstrom.calls": ("count", "lower", "wall_s", (SWEEPS,)),
    "imaging.imaging_helstrom.self_s": ("s", "lower", "wall_s", (SWEEPS,)),
    "imaging.helstrom_along.self_s": ("s", "lower", "wall_s", (SWEEPS,)),
    "imaging.information_along.calls": ("count", "lower", "wall_s", (SWEEPS,)),
    "imaging.information_along.self_s": ("s", "lower", "wall_s", (SWEEPS,)),
    "quantum.helstrom_matrix.calls": ("count", "lower", "wall_s", (SWEEPS,)),
    "quantum.helstrom_matrix.self_s": ("s", "lower", "wall_s", (SWEEPS,)),
    "quantum.qmax.self_s": ("s", "lower", "wall_s", (SWEEPS,)),
    "geometry.pushforward_model.self_s": ("s", "lower", "wall_s", (SWEEPS, CLI)),
    "geometry.invariance_report.self_s": ("s", "lower", "wall_s", (SWEEPS, CLI)),
    "bounds.gill_levit_bound.self_s": ("s", "lower", "wall_s", (SWEEPS, CLI)),
    "bounds.functionals.self_s": ("s", "lower", "wall_s", (SWEEPS, CLI)),
    "scenarios.validate_config.calls_per_scenario": ("ratio", "lower", "wall_s", (CLI,)),
    "scenarios.validate_config.self_s": ("s", "lower", "wall_s", (CLI,)),
    "scenarios.run_scenario_config.self_s": ("s", "lower", "wall_s", (CLI,)),
    "scenarios.canonical_json.self_s": ("s", "lower", "wall_s", (CLI,)),
    "cli.emit_report.self_s": ("s", "lower", "wall_s", (CLI,)),
    "trace.overhead_s": ("s", "lower", "none: traced minus untraced wall_s", (CLI, LADDER, SWEEPS)),
    "trace.spans": ("count", "lower", "none: spans per traced pass", (CLI, LADDER, SWEEPS)),
}


def pass_metrics(spans: list[Span], measures) -> dict[str, float]:
    """Per-layer metrics of one traced pass (``trace.overhead_s`` excluded).

    ``measures`` are the accuracy measures of the pass's cases; the Gaussian
    ``bmax`` errors among them give ``optimal.bmax.rel_error_max``.
    """
    own = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    out: dict[str, float] = {}
    for metric in PER_LAYER:
        fn, stat = metric.rsplit(".", 1)
        if stat == "self_s":
            out[metric] = sum(own[s.id] for s in by_name[fn])
        elif stat == "calls":
            out[metric] = len(by_name[fn])

    assembled = by_name["optimal.assemble_L"]
    out["optimal.assemble_L.unknowns"] = sum(s.meta["unknowns"] for s in assembled)
    out["optimal.assemble_L.nnz"] = sum(s.meta["nnz"] for s in assembled)
    out["optimal.solve.relative_residual_max"] = max(
        (s.meta.get("relative_residual", 0.0) for s in by_name["optimal.solve_least_favorable"]),
        default=0.0)
    out["optimal.bmax.rel_error_max"] = max(
        (m.value for m in measures if m.label == "bmax_rel_error"), default=0.0)

    fits = by_name["minimax.rate_fit"]
    fit_ids = {s.id for s in fits}
    busy = sum(s.duration for s in by_name["minimax.converged_ground_energy"]
               if s.parent in fit_ids)
    capacity = sum(s.duration * s.meta["workers"] for s in fits)
    out["minimax.rate_fit.parallel_eff"] = busy / capacity if capacity else 0.0

    out["waveform.build_circulant_bound.peak_alloc_mb"] = max(
        (s.meta.get("peak_alloc_bytes", 0) / 2**20
         for s in by_name["waveform.build_circulant_bound"]), default=0.0)
    scenarios = len(by_name["scenarios.run_scenario_config"])
    out["scenarios.validate_config.calls_per_scenario"] = (
        len(by_name["scenarios.validate_config"]) / scenarios if scenarios else 0.0)
    out["trace.spans"] = len(spans)
    return out
