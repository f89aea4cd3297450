"""Scenario configs: validation, model building, and the per-kind runners.

Scenarios are JSON documents validated against the shipped schema
(``bcrb/schema/scenario.schema.json``).  Grids, models and priors in configs
are scalar (one-dimensional parameter); the library API handles higher
dimensions directly.  Every runner returns a plain-dict report plus optional
CSV tables, both of plain values; `format_value` writes every value, in one
fixed float format, and serialization is canonical (sorted keys) so
identical inputs produce byte-identical outputs.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass, field as dc_field
from importlib import resources
from typing import Callable

import numpy as np

from . import bounds, geometry, imaging, minimax, optimal, quantum, waveform
from .errors import GridValueError, ScenarioError
from .grids import ParameterGrid, VectorField

DEFAULT_SEED = 0


# ---------------------------------------------------------------------------
# canonical serialization

def format_value(x) -> str:
    """A report value as text: ``%.12e`` for a float, numpy floats included
    (``nan``, ``inf`` or ``-inf`` when not finite), ``str`` for the rest."""
    if isinstance(x, (float, np.floating)):
        return "%.12e" % x
    return str(x)


def canonical_json(obj, indent: int = 0) -> str:
    """Deterministic JSON: sorted keys, floats as %.12e, no whitespace drift."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key in sorted(obj):
            items.append(f'{pad}  "{key}": {canonical_json(obj[key], indent + 1)}')
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {canonical_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_value(obj) if np.isfinite(obj) else json.dumps(format_value(obj))
    if obj is None:
        return "null"
    return json.dumps(str(obj))


def scenario_hash(config: dict) -> str:
    """Hash of the canonical form, stable across reserialization."""
    return hashlib.sha256(canonical_json(config).encode()).hexdigest()


# ---------------------------------------------------------------------------
# validation

def load_schema() -> dict:
    ref = resources.files("bcrb").joinpath("schema/scenario.schema.json")
    with ref.open() as fh:
        return json.load(fh)


@functools.cache
def _validator():
    """The shipped schema's validator (the schema's own validity is a test).

    Its "integer" is a JSON integer: the standard type also admits an
    integral float such as 2048.0, which no count in a builder accepts."""
    import jsonschema

    schema = load_schema()
    cls = jsonschema.validators.validator_for(schema)
    checker = cls.TYPE_CHECKER.redefine(
        "integer", lambda _, value: isinstance(value, int) and not isinstance(value, bool))
    return jsonschema.validators.extend(cls, type_checker=checker)(schema)


def validate_config(config: dict) -> None:
    """Raise ScenarioError for the error `jsonschema.validate` would report."""
    import jsonschema

    error = jsonschema.exceptions.best_match(_validator().iter_errors(config))
    if error is not None:
        path = ".".join(str(p) for p in error.absolute_path) or "<root>"
        raise ScenarioError(error.message, field_path=path)


def _finite_float(text: str) -> float:
    """``json.load`` hook for every non-integer number and for the constants
    NaN, Infinity and -Infinity, which JSON lacks: a value that is not a
    finite double (those three, or a literal such as 1e400) raises."""
    value = float(text)
    if not np.isfinite(value):
        raise ScenarioError(f"config contains the non-finite number {text}; "
                            "use finite JSON numbers", field_path="<root>")
    return value


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            config = json.load(fh, parse_float=_finite_float, parse_constant=_finite_float)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"config is not valid JSON: {exc}", field_path="<root>") from exc
    except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, unreadable
        reason = getattr(exc, "strerror", None) or exc
        raise ScenarioError(f"cannot read config {str(path)!r}: {reason}") from exc
    if not isinstance(config, dict):
        raise ScenarioError("config must be a JSON object", field_path="<root>")
    validate_config(config)
    return config


# ---------------------------------------------------------------------------
# builders (scalar parameter)

def _scaled_nodes(nodes: int, grid_scale: int) -> int:
    return (nodes - 1) * grid_scale + 1


def _build_grid(spec: dict, grid_scale: int) -> ParameterGrid:
    if spec["upper"] <= spec["lower"]:
        raise ScenarioError("upper must exceed lower", "grid.upper")
    try:
        return ParameterGrid([(spec["lower"], spec["upper"])],
                             [_scaled_nodes(spec["nodes"], grid_scale)])
    except GridValueError as exc:  # such as an upper - lower that overflows
        raise ScenarioError(str(exc), "grid") from exc


def _field_callable(spec: dict) -> Callable:
    if spec["type"] == "constant":
        value = float(spec["value"])
        return lambda th: np.full_like(np.asarray(th, dtype=float), value)
    coeffs = [float(c) for c in spec["coeffs"]]
    return lambda th: np.polynomial.polynomial.polyval(np.asarray(th, dtype=float), coeffs)


def _prior_callable(spec: dict, grid: ParameterGrid) -> Callable:
    kind = spec["type"]
    (lo, hi), = grid.bounds
    center = float(spec.get("center", 0.5 * (lo + hi) if kind != "gaussian" else 0.0))
    variance = float(spec.get("variance", 1.0))
    power = int(spec.get("power", 4))

    def window(th):
        s = np.clip((th - lo) / (hi - lo), 0.0, 1.0)
        return np.sin(np.pi * s) ** power

    if kind == "gaussian":
        return lambda th: np.exp(-((th - center) ** 2) / (2 * variance))
    if kind == "gaussian_bump":
        return lambda th: np.exp(-((th - center) ** 2) / (2 * variance)) * window(th)
    if kind == "bump":
        return window
    return lambda th: np.ones_like(np.asarray(th, dtype=float))  # uniform


def _build_model(config: dict, grid_scale: int):
    grid = _build_grid(config["grid"], grid_scale)
    fisher1d = _field_callable(config["model"]["fisher"])
    weight1d = _field_callable(config["model"]["weight"])
    prior1d = _prior_callable(config["prior"], grid)
    model = geometry.StatisticalModel.from_callables(
        grid,
        fisher_fn=lambda c: fisher1d(np.asarray(c)[..., 0])[..., None, None],
        weight_fn=lambda c: weight1d(np.asarray(c)[..., 0])[..., None],
        prior_fn=lambda c: prior1d(np.asarray(c)[..., 0]),
    )
    return model


def _build_v(config: dict, model) -> VectorField:
    spec = config["v"]
    choice = spec["choice"]
    if choice == "unit":
        return VectorField.from_callable(model.grid, np.ones_like)
    if choice == "natural":
        return bounds.natural_v(model)
    if choice == "van_trees":
        return bounds.van_trees_v(model, float(config["n"]))
    coeffs = [float(c) for c in spec.get("coeffs", [1.0])]
    return VectorField.from_callable(model.grid, lambda c: np.polynomial.polynomial.polyval(
        np.asarray(c, dtype=float)[..., 0], coeffs)[..., None])


def _build_map(spec: dict) -> geometry.Diffeomorphism:
    catalog = spec["catalog"]
    try:
        if catalog == "identity":
            return geometry.identity_map()
        if catalog == "affine":
            return geometry.affine_map([spec.get("scale", 2.0)], [spec.get("offset", 0.0)])
        if catalog == "odd_power":
            return geometry.odd_power_map(int(spec.get("power", 3)))
        return geometry.logistic_map()
    except GridValueError as exc:  # parameters the schema admits but the map rejects
        raise ScenarioError(str(exc), "map") from exc


def _n_values(spec: dict) -> np.ndarray:
    return np.logspace(np.log10(spec["start"]), np.log10(spec["stop"]), spec["count"])


def _build_psf(spec: dict, path: str) -> imaging.PointSpreadFunction:
    if "csv" in spec:
        try:
            return imaging.psf_from_csv(spec["csv"])
        except (GridValueError, OSError) as exc:  # a missing or malformed input file
            raise ScenarioError(str(exc), f"{path}.csv") from exc
    try:
        return imaging.PSF_CATALOG[spec["catalog"]](float(spec.get("sigma", 1.0)))
    except GridValueError as exc:  # a width whose constants leave the floats
        raise ScenarioError(str(exc), f"{path}.sigma") from exc


def _build_spectra(spec: dict, grid_scale: int, path: str) -> waveform.SpectralModel:
    if "csv" in spec:
        try:
            return waveform.SpectralModel.from_csv(spec["csv"],
                                                   hbar=float(spec.get("hbar", 1.0)))
        except (GridValueError, OSError) as exc:
            raise ScenarioError(str(exc), f"{path}.csv") from exc
    return waveform.rectangle_spectra(
        band=float(spec.get("band", 2.0 * np.pi)),
        s_q_level=float(spec.get("s_q", 0.75)),
        s_theta_level=float(spec.get("s_theta", 1.0)),
        span_factor=float(spec.get("span_factor", 2.0)),
        nodes=_scaled_nodes(int(spec.get("nodes", 2_000_001)), grid_scale),
        hbar=float(spec.get("hbar", 1.0)),
    )


# ---------------------------------------------------------------------------
# runners

@dataclass
class ScenarioResult:
    report: dict
    tables: dict = dc_field(default_factory=dict)  # name -> (header, rows of values)


def _bound_table(rep: bounds.BoundReport) -> tuple[list[str], list[list]]:
    """``bound.csv``: one row of n, the functionals, B, the field and its residual."""
    header = ["n", "alignment", "information", "prior_information", "bound",
              "v_choice", "boundary_residual"]
    row = [rep.n, rep.alignment, rep.information, rep.prior_information, rep.bound,
           rep.v_choice, rep.diagnostics["boundary_residual"]]
    return header, [row]


def _run_bound(config, grid_scale, rng) -> ScenarioResult:
    model = _build_model(config, grid_scale)
    v = _build_v(config, model)
    rep = bounds.gill_levit_bound(model, model.prior, v, float(config["n"]),
                                  config["v"]["choice"])
    return ScenarioResult({"bound_report": rep.to_dict()}, {"bound": _bound_table(rep)})


def _run_optimal(config, grid_scale, rng) -> ScenarioResult:
    model = _build_model(config, grid_scale)
    rep = optimal.bmax(model, n=float(config["n"]))
    tables = {"bound": _bound_table(rep)}
    if rep.attaining_v is not None:
        rows = list(zip(model.grid.coordinates[..., 0], rep.attaining_v.values[..., 0]))
        tables["least_favorable"] = (["theta_1", "v_1"], rows)
    return ScenarioResult({"bmax": rep.bound, "bound_report": rep.to_dict()}, tables)


def _rates_table(res: minimax.RateFitResult) -> tuple[list[str], list[tuple]]:
    return ["n", "e_min", "b_worst"], list(zip(res.n_values, res.ground_energies, res.bounds))


def _run_minimax(config, grid_scale, rng) -> ScenarioResult:
    pot = config["potential"]
    exponent = float(pot.get("exponent", 2.0))
    amplitude = float(pot.get("amplitude", 1.0))
    dom = config["domain"]

    def potential(t):
        with np.errstate(over="ignore"):  # assemble_H raises on a non-finite n*F
            return amplitude * np.abs(np.asarray(t, dtype=float)) ** exponent

    problem = minimax.SchrodingerProblem(
        (-dom["half_width"], dom["half_width"]),
        potential,
        alignment=float(config.get("alignment", 1.0)),
        nodes=_scaled_nodes(dom["nodes"], grid_scale),
    )
    res = minimax.rate_fit(problem, _n_values(config["n_list"]))
    report = {
        "slope": res.slope,
        "intercept": res.intercept,
        "trial_energy_slope": res.trial_energy_slope,
        "width_exponent": res.width_exponent,
        "potential_exponent": exponent,
        "expected_slope": -2.0 / (exponent + 2.0),
    }
    return ScenarioResult(report, {"rates": _rates_table(res)})


def _run_quantum(config, grid_scale, rng) -> ScenarioResult:
    if config["problem"] == "qubit":
        theta = float(config.get("theta", 0.35))
        trials = int(config.get("snr_trials", 100))
        fam = quantum.diagonal_qubit_family()
        k_val = quantum.helstrom_matrix(fam, [theta])[0, 0]
        (score,) = quantum.sld_scores(fam, [theta])
        snr_at_score = quantum.snr_observable(fam, [theta], [1.0], score)
        best = 0.0
        for _ in range(trials):
            y = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            y = (y + y.conj().T) / 2.0
            best = max(best, quantum.snr_observable(fam, [theta], [1.0], y))
        return ScenarioResult({
            "helstrom": k_val,
            "snr_at_score": snr_at_score,
            "snr_best_random": best,
            "snr_trials": trials,
            "all_bounded": bool(best <= k_val + 1e-8),
            "equality_gap": abs(snr_at_score - k_val),
        })
    k = np.asarray(config["helstrom"], dtype=float)
    g = np.asarray(config["prior_curvature"], dtype=float)
    u = np.asarray(config["weight_vector"], dtype=float)
    q_val, risk = quantum.gaussian_shift_bounds(k, g, u)
    return ScenarioResult({
        "qmax": q_val,
        "achieved_risk": risk,
        "sandwich_holds": bool(q_val <= risk <= 2.0 * q_val + 1e-12 * max(1.0, q_val)),
    })


def _run_waveform(config, grid_scale, rng) -> ScenarioResult:
    spectra = _build_spectra(config["spectra"], grid_scale, "spectra")
    report: dict = {"qmax": waveform.continuum_qmax(spectra)}
    if spectra.s_z is not None and spectra.hx_abs2 is not None:
        report["wiener_risk"] = waveform.wiener_risk(spectra)
        violations = waveform.noise_floor_check(spectra)
        report["violations"] = [v.to_dict() for v in violations]
    else:
        report["violations"] = []
    tables = {}
    if "discretization" in config:
        disc_spec = config["discretization"]
        slots = disc_spec["slots"]
        sweep = disc_spec.get("sweep", [slots])
        bound_at = {}
        for p in dict.fromkeys([*sweep, slots]):  # each count once, slots even if unswept
            disc = waveform.TimeDiscretization.instant_weight(p * disc_spec["dt"], p)
            bound_at[p] = waveform.build_circulant_bound(disc, spectra)
        report["circulant_bound"] = bound_at[slots]
        rows = [[p, bound_at[p], abs(bound_at[p] - report["qmax"])] for p in sweep]
        tables["circulant"] = (["slots", "bound", "abs_error"], rows)
    return ScenarioResult(report, tables)


def _run_imaging(config, grid_scale, rng) -> ScenarioResult:
    psf = _build_psf(config["psf"], "psf")
    task = config["task"]
    if task == "fisher":
        sources = imaging.SourceConfiguration(config.get("sources", [0.0]))
        f = imaging.direct_imaging_fisher(psf, sources)
        eigs = np.linalg.eigvalsh(f)
        return ScenarioResult({
            "fisher": [[float(x) for x in row] for row in f],
            "eigenvalues": [float(x) for x in np.sort(eigs)[::-1]],
            "numerical_rank": int(np.sum(eigs > 1e-8 * max(eigs.max(), 1e-300))),
        })
    if task == "exponent":
        sep = config.get("separations", {"start": 3e-3, "stop": 3e-1, "count": 8})
        fit = imaging.exponent_fit(
            psf, config.get("direction", [1.0, -1.0]), _n_values(sep))
        return ScenarioResult(
            {"exponent": fit.exponent, "amplitude": fit.amplitude,
             "r_squared": fit.r_squared},
            {"information": (["tau", "information"], list(zip(fit.taus, fit.information)))},
        )
    if task == "helstrom_rank":
        base = imaging.SourceConfiguration(config.get("sources", [-0.4, 0.05, 0.45]))
        halvings = int(config.get("halvings", 4))
        rows = []
        ratios = []
        for k in range(halvings + 1):
            scale = 0.5**k
            rep = imaging.imaging_helstrom(psf, base.scaled(scale))
            eigs = rep.eigenvalue_row()
            rows.append([scale, *eigs[:3]])
            if len(eigs) >= 3:
                ratios.append(eigs[2] / eigs[1])
        return ScenarioResult(
            {"rank_trend_monotone": bool(all(b < a for a, b in zip(ratios, ratios[1:]))),
             "final_ratio": ratios[-1] if ratios else None},
            {"eigenvalues": (["scale", "lambda1", "lambda2", "lambda3"], rows)},
        )
    if task == "rate":
        res = imaging.minimax_rate(
            psf, config.get("direction", [1.0, -1.0]),
            _n_values(config.get("n_list", {"start": 1e2, "stop": 1e6, "count": 5})),
            nodes=_scaled_nodes(1501, grid_scale),
        )
        return ScenarioResult({"slope": res.slope}, {"rates": _rates_table(res)})
    sources = imaging.SourceConfiguration(config.get("sources", [-0.25, 0.25]))
    classical, quantum_rep = imaging.quantum_vs_classical(
        psf, sources, n=float(config.get("n", 1.0)))
    return ScenarioResult({
        "bmax": classical.bound,
        "qmax": quantum_rep.bound,
        "ordering_holds": bool(quantum_rep.bound <= classical.bound + 1e-10),
    })


def _run_invariance(config, grid_scale, rng) -> ScenarioResult:
    model = _build_model(config, grid_scale)
    v = _build_v(config, model)
    map_obj = _build_map(config["map"])
    target_nodes = config["map"].get("target_nodes")
    target = None
    if target_nodes is not None:
        target = geometry.derive_target_grid(
            map_obj, model.grid, (_scaled_nodes(target_nodes, grid_scale),))
    n = float(config["n"])
    rep = geometry.invariance_report(model, model.prior, v, map_obj, n, target_grid=target)
    control = geometry.invariance_report(
        model, model.prior, v, map_obj, n, target_grid=target, transform_v=False)
    return ScenarioResult({
        "v_choice": config["v"]["choice"],
        "map": map_obj.name,
        "bound_source": rep.bound_source.bound,
        "bound_target": rep.bound_target.bound,
        "relative_difference": rep.relative_difference,
        "invariant": rep.invariant,
        "control_relative_difference": control.relative_difference,
    })


RUNNERS = {
    "bound": _run_bound,
    "optimal": _run_optimal,
    "minimax": _run_minimax,
    "quantum": _run_quantum,
    "waveform": _run_waveform,
    "imaging": _run_imaging,
    "invariance": _run_invariance,
}


def run_scenario_config(config: dict, grid_scale: int = 1,
                        seed: int | None = None) -> ScenarioResult:
    """Dispatch a validated config to its runner and wrap provenance."""
    kind = config["kind"]
    rng = np.random.default_rng(DEFAULT_SEED if seed is None else seed)
    result = RUNNERS[kind](config, grid_scale, rng)
    result.report = {
        "kind": kind,
        "name": config["name"],
        "scenario_hash": scenario_hash(config),
        "config": config,
        "grid_scale": grid_scale,
        "seed": DEFAULT_SEED if seed is None else seed,
        "results": result.report,
        "artifacts": sorted(f"{name}.csv" for name in result.tables),
    }
    return result
