"""The benchmark's three workloads: cases, seeded inputs and accuracy checks.

A case is one timed call into the library (``run``) plus an untimed check of
its output against a reference (``check``), which returns the case's
accuracy measures.  A measure outside its admissible range fails the case.
The seed jitters parameters only; problem sizes are fixed, so timings stay
comparable across seeds.
"""

from __future__ import annotations

import io
import json
import math
import shutil
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from bcrb import bounds, cli, geometry, grids, imaging, minimax, optimal, waveform

# accuracy tolerances of the cases
BMAX_1D_RTOL = 1e-6                               # against gaussian_closed_form
BMAX_2D_RTOL = {81: 1e-4, 161: 1e-5, 321: 1e-6}   # O(h^4) discretization error
BMAX_3D_RTOL = {21: 5e-3, 41: 5e-4}
QMAX_RECTANGLE_ATOL = 1e-6                        # continuum_qmax against 1/2
CIRCULANT_ERROR_TIMES_P = 4.0                     # |B_p - Q| / Q <= 4 / p
RATE_SLOPE_ATOL = 0.05                            # against -2 / (m + 2)
LAMBDA_SCAN_RTOL = 1e-8                           # dense scan against bworst
QUANTUM_ORDER_ATOL = 1e-10                        # Q_max - B_max
OPTIMALITY_RTOL = 1e-8                            # van Trees field never beats B_max
INVARIANCE_RTOL = 1e-5                            # transformed field
CONTROL_MIN_RDIFF = 1e-3                          # untransformed field, nonlinear map
SNR_GAP_ATOL = 1e-8                               # qubit SNR at the score vs Helstrom


@dataclass(frozen=True)
class Measure:
    """One accuracy figure of a case with its admissible range."""

    label: str
    value: float
    hi: float = math.inf
    lo: float = -math.inf

    @property
    def ok(self) -> bool:
        return self.lo <= self.value <= self.hi  # false for NaN


@dataclass
class Case:
    id: str
    run: Callable[[], Any]
    check: Callable[[Any, Any], list[Measure]]
    reference: Callable[[], Any] = lambda: None


def evaluate(case: Case, out, ref) -> tuple[list[Measure], list[str]]:
    """The accuracy gate: the case's measures and its failure messages."""
    measures = case.check(out, ref)
    failures = [f"{case.id}: {m.label} = {m.value!r} outside [{m.lo}, {m.hi}]"
                for m in measures if not m.ok]
    return measures, failures


def _jittered_logspace(rng, lo_exp: float, hi_exp: float, count: int,
                       jitter: float = 0.05) -> np.ndarray:
    """Log-spaced values, each shifted by up to ``jitter`` decades."""
    exps = np.linspace(lo_exp, hi_exp, count) + rng.uniform(-jitter, jitter, count)
    return np.sort(10.0 ** exps)


def _slope_measure(fit, m: float) -> Measure:
    return Measure("rate_slope_error", abs(fit.slope + 2.0 / (m + 2.0)), hi=RATE_SLOPE_ATOL)


def _bump_prior(lo: float, hi: float, center: float = 1.2, variance: float = 0.09):
    def fn(c):
        th = np.asarray(c)[..., 0]
        s = np.clip((th - lo) / (hi - lo), 0.0, 1.0)
        return np.exp(-((th - center) ** 2) / (2.0 * variance)) * np.sin(np.pi * s) ** 4
    return fn


def _ones_vector(c):
    return np.ones(np.shape(c))


def _bump_model(nodes: int, lo: float = 0.5, hi: float = 2.0):
    """F = 1 + theta^2, unit weight, gaussian_bump prior on [lo, hi]."""
    return geometry.StatisticalModel.from_callables(
        grids.ParameterGrid([(lo, hi)], [nodes]),
        fisher_fn=lambda c: (1.0 + np.asarray(c)[..., 0] ** 2)[..., None, None],
        weight_fn=_ones_vector,
        prior_fn=_bump_prior(lo, hi),
    )


# ---------------------------------------------------------------------------
# solve_ladder: one large problem per case, no reuse between calls

def _gaussian_model(dim: int, nodes: int, half_width: float):
    """Identity information, unit weight, standard Gaussian prior on a cube."""
    eye = np.eye(dim)
    return geometry.StatisticalModel.from_callables(
        grids.ParameterGrid([(-half_width, half_width)] * dim, [nodes] * dim),
        fisher_fn=lambda c: np.broadcast_to(eye, np.shape(c)[:-1] + (dim, dim)).copy(),
        weight_fn=_ones_vector,
        prior_fn=lambda c: np.exp(-0.5 * np.sum(np.asarray(c) ** 2, axis=-1)),
    )


def _bmax_case(case_id: str, model, n: float, rtol: float) -> Case:
    dim = model.grid.dim
    return Case(
        case_id,
        run=lambda: optimal.bmax(model, n=n),
        reference=lambda: optimal.gaussian_closed_form(np.eye(dim), np.eye(dim),
                                                       np.ones(dim), n),
        check=lambda rep, ref: [Measure("bmax_rel_error", abs(rep.bound - ref) / ref,
                                        hi=rtol)],
    )


def _circulant_case(p: int, spectra) -> Case:
    disc = waveform.TimeDiscretization.instant_weight(p * 0.25, p)
    return Case(
        f"circulant_p{p}",
        run=lambda: waveform.build_circulant_bound(disc, spectra),
        reference=lambda: waveform.continuum_qmax(spectra),
        check=lambda val, ref: [Measure("circulant_rel_error_times_p",
                                        abs(val - ref) / ref * p,
                                        hi=CIRCULANT_ERROR_TIMES_P)],
    )


def solve_ladder(rng) -> list[Case]:
    cases = []
    for dim, nodes, half in ((1, 2001, 8.0), (1, 20001, 8.0), (1, 200001, 8.0),
                             (2, 81, 8.0), (2, 161, 8.0), (2, 321, 8.0),
                             (3, 21, 6.0), (3, 41, 6.0)):
        rtol = {1: BMAX_1D_RTOL, 2: BMAX_2D_RTOL.get(nodes), 3: BMAX_3D_RTOL.get(nodes)}[dim]
        n = 10.0 * (1.0 + rng.uniform(-0.1, 0.1))
        cases.append(_bmax_case(f"bmax_{dim}d_{nodes}", _gaussian_model(dim, nodes, half),
                                n, rtol))

    rectangle = waveform.rectangle_spectra(nodes=2_000_001)
    cases.append(Case(
        "continuum_qmax_2000001",
        run=lambda: waveform.continuum_qmax(rectangle),
        check=lambda q, _: [Measure("qmax_abs_error", abs(q - 0.5), hi=QMAX_RECTANGLE_ATOL)],
    ))

    spectra = waveform.rectangle_spectra(nodes=200_001)
    cases.extend(_circulant_case(p, spectra) for p in (512, 2048, 8192))

    quadratic = minimax.SchrodingerProblem(
        (-0.5, 0.5), lambda t: np.asarray(t, dtype=float) ** 2, nodes=200_001)
    fit_ns = _jittered_logspace(rng, 2.0, 6.0, 5)
    cases.append(Case(
        "rate_fit_m2_200001",
        run=lambda: minimax.rate_fit(quadratic, fit_ns),
        check=lambda fit, _: [_slope_measure(fit, 2.0)],
    ))

    oscillator = minimax.SchrodingerProblem(
        (-3.0, 3.0), lambda t: np.asarray(t, dtype=float) ** 2, nodes=2001)
    scan_n = 10.0 * (1.0 + rng.uniform(-0.1, 0.1))
    cases.append(Case(
        "lambda_scan_2001",
        run=lambda: minimax.lambda_scan(oscillator, scan_n),
        reference=lambda: minimax.bworst(oscillator, scan_n),
        check=lambda res, ref: [Measure("lambda_scan_rel_error",
                                        abs(res.best_bound - ref) / ref,
                                        hi=LAMBDA_SCAN_RTOL)],
    ))
    return cases


# ---------------------------------------------------------------------------
# sweeps: many medium evaluations reusing one model

def _nsweep_check(values, ref) -> list[Measure]:
    vals, unit_bounds = np.asarray(values), np.asarray(ref)
    return [
        Measure("optimality_rel_excess", float(np.max((unit_bounds - vals) / vals)),
                hi=OPTIMALITY_RTOL),
        Measure("nonmonotone_steps", float(np.sum(np.diff(vals) >= 0)), hi=0.0),
    ]


def _rank_trend_check(reports, _) -> list[Measure]:
    ratios = [r.eigenvalue_row()[2] / r.eigenvalue_row()[1] for r in reports]
    return [Measure("rank_trend_violations",
                    float(sum(b >= a for a, b in zip(ratios, ratios[1:]))), hi=0.0)]


def _invariance_case(name: str, model, map_obj, target_nodes: int, linear: bool) -> Case:
    v = grids.VectorField.constant(model.grid, [1.0])
    target = geometry.derive_target_grid(map_obj, model.grid, (target_nodes,))

    def run():
        return [geometry.invariance_report(model, model.prior, v, map_obj, 10.0,
                                           target_grid=target, transform_v=transform,
                                           v_fn=_ones_vector)
                for transform in (True, False)]

    def check(reps, _):
        transformed, control = reps
        # a constant Jacobian rescales v uniformly, which the bound ignores,
        # so only nonlinear maps expose the untransformed control
        ctl = (Measure("control_rel_diff", control.relative_difference, hi=INVARIANCE_RTOL)
               if linear else
               Measure("control_rel_diff", control.relative_difference, lo=CONTROL_MIN_RDIFF))
        return [Measure("invariance_rel_diff", transformed.relative_difference,
                        hi=INVARIANCE_RTOL), ctl]

    return Case(f"invariance_{name}", run, check)


def sweeps(rng) -> list[Case]:
    cases = []
    model = _bump_model(20001)
    unit = grids.VectorField.constant(model.grid, [1.0])
    ns = _jittered_logspace(rng, 0.0, 4.0, 16)
    cases.append(Case(
        "bmax_nsweep_16",
        run=lambda: [optimal.bmax(model, n=n).bound for n in ns],
        reference=lambda: [bounds.gill_levit_bound(model, model.prior, unit, n).bound
                           for n in ns],
        check=_nsweep_check,
    ))

    psf = imaging.gaussian_psf(1.0)
    separation = 0.5 * (1.0 + rng.uniform(-0.1, 0.1))
    centroid = rng.uniform(-0.1, 0.1)
    pair = imaging.SourceConfiguration([centroid - separation / 2, centroid + separation / 2])
    cases.append(Case(
        "quantum_vs_classical_257",
        run=lambda: imaging.quantum_vs_classical(psf, pair, n=1.0),
        check=lambda reps, _: [Measure("qmax_minus_bmax", reps[1].bound - reps[0].bound,
                                       hi=QUANTUM_ORDER_ATOL)],
    ))

    triple = imaging.SourceConfiguration(
        np.array([-0.4, 0.05, 0.45]) + rng.uniform(-0.05, 0.05, 3))
    cases.append(Case(
        "helstrom_rank_trend_5",
        run=lambda: [imaging.imaging_helstrom(psf, triple.scaled(0.5**k)) for k in range(5)],
        check=_rank_trend_check,
    ))

    rate_ns = _jittered_logspace(rng, 2.0, 6.0, 5)
    cases.append(Case(
        "minimax_rate_imaging_1501",
        run=lambda: imaging.minimax_rate(psf, [1.0, -1.0], rate_ns, nodes=1501),
        check=lambda fit, _: [_slope_measure(fit, 2.0)],
    ))

    quartic = minimax.SchrodingerProblem(
        (-0.5, 0.5), lambda t: np.asarray(t, dtype=float) ** 4, nodes=20001)
    quartic_ns = _jittered_logspace(rng, 2.0, 6.0, 9)
    cases.append(Case(
        "rate_fit_m4_20001",
        run=lambda: minimax.rate_fit(quartic, quartic_ns),
        check=lambda fit, _: [_slope_measure(fit, 4.0)],
    ))

    bump = _bump_model(4001)
    scale = 2.0 * (1.0 + rng.uniform(-0.25, 0.25))
    offset = 1.0 + rng.uniform(-0.5, 0.5)
    cases.append(_invariance_case("odd_power", bump, geometry.odd_power_map(3), 20001, False))
    cases.append(_invariance_case("logistic", bump, geometry.logistic_map(), 4001, False))
    cases.append(_invariance_case("affine", bump, geometry.affine_map([scale], [offset]),
                                  4001, True))
    return cases


# ---------------------------------------------------------------------------
# cli_configs: the shipped configs through the command line, in-process

def _report_measures(kind: str, config: dict, results: dict) -> list[Measure]:
    """Accuracy of one scenario report, by scenario kind."""
    if kind in ("optimal", "bound"):
        value = results["bmax"] if kind == "optimal" else results["bound_report"]["bound"]
        ref = optimal.gaussian_closed_form(config["model"]["fisher"]["value"],
                                           1.0 / config["prior"]["variance"],
                                           config["model"]["weight"]["value"], config["n"])
        label = "bmax_rel_error" if kind == "optimal" else "bound_rel_error"
        return [Measure(label, abs(value - ref) / ref, hi=BMAX_1D_RTOL)]
    if kind == "waveform":
        slots = config["discretization"]["slots"]
        circ = abs(results["circulant_bound"] - results["qmax"]) / results["qmax"] * slots
        return [Measure("qmax_abs_error", abs(results["qmax"] - 0.5), hi=QMAX_RECTANGLE_ATOL),
                Measure("circulant_rel_error_times_p", circ, hi=CIRCULANT_ERROR_TIMES_P)]
    if kind == "minimax":
        return [Measure("rate_slope_error", abs(results["slope"] - results["expected_slope"]),
                        hi=RATE_SLOPE_ATOL)]
    if kind == "invariance":
        return [Measure("invariance_rel_diff", results["relative_difference"],
                        hi=INVARIANCE_RTOL),
                Measure("control_rel_diff", results["control_relative_difference"],
                        lo=CONTROL_MIN_RDIFF)]
    if kind == "quantum":
        return [Measure("snr_bounded", float(results["all_bounded"]), lo=1.0),
                Measure("snr_equality_gap", results["equality_gap"], hi=SNR_GAP_ATOL)]
    if kind == "imaging":
        return [Measure("rank_trend_monotone", float(results["rank_trend_monotone"]), lo=1.0)]
    raise ValueError(f"no accuracy check for scenario kind {kind!r}")


def _cli_case(path: Path, scale: int, seed: int, out_dir: Path) -> Case:
    with open(path) as fh:
        config = json.load(fh)
    kind = config["kind"]
    argv = [kind, "--config", str(path), "--out", str(out_dir),
            "--grid-scale", str(scale), "--seed", str(seed)]
    first_pass: dict[str, bytes] = {}

    def run():
        log = io.StringIO()
        with redirect_stdout(log), redirect_stderr(log):
            code = cli.main(argv)
        return code, log.getvalue()

    def check(out, _):
        code, log = out
        if code != 0:
            raise RuntimeError(f"exit code {code}: {log.strip()}")
        files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
        shutil.rmtree(out_dir)
        if not first_pass:
            first_pass.update(files)
        changed = sum(files.get(name) != data for name, data in first_pass.items())
        changed += len(set(files) - set(first_pass))
        results = json.loads(files["report.json"])["results"]
        return [Measure("files_differing_from_first_pass", float(changed), hi=0.0),
                *_report_measures(kind, config, results)]

    return Case(f"{path.stem}_x{scale}", run, check)


def cli_configs(seed: int, tmp: Path) -> list[Case]:
    paths = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))
    if len(paths) != 7:
        raise FileNotFoundError(f"expected the 7 shipped configs, found {len(paths)}")
    return [_cli_case(p, scale, seed, tmp / f"{p.stem}_x{scale}")
            for scale in (1, 4) for p in paths]


def build(workload: str, seed: int, tmp: Path) -> list[Case]:
    """The workload's cases, with inputs drawn from ``seed``.

    ``tmp`` is the directory the command-line cases write their outputs to.
    """
    rng = np.random.default_rng(seed)
    if workload == "cli_configs":
        return cli_configs(seed, tmp)
    if workload == "solve_ladder":
        return solve_ladder(rng)
    if workload == "sweeps":
        return sweeps(rng)
    raise ValueError(f"unknown workload {workload!r}")

