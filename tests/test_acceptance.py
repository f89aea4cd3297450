"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion lines.
"""

import json
import warnings

import numpy as np
import pytest

from bcrb.bounds import VectoralWeight, gill_levit_bound
from bcrb.cli import main as cli_main
from bcrb.geometry import (
    StatisticalModel,
    affine_map,
    derive_target_grid,
    invariance_report,
    logistic_map,
    odd_power_map,
    pushforward_model,
)
from bcrb.grids import ParameterGrid, ScalarField, VectorField, integrate, rho_weights
from bcrb.imaging import (
    SourceConfiguration,
    direct_imaging_fisher,
    exponent_fit,
    gaussian_psf,
    hermite_gauss_psf,
    imaging_helstrom,
    quantum_vs_classical,
)
from bcrb.minimax import SchrodingerProblem, assemble_H, ground_state, rate_fit
from bcrb.optimal import assemble_L, bmax, solve_least_favorable, vectoral_bmax
from bcrb.quantum import (
    diagonal_qubit_family,
    gaussian_shift_bounds,
    helstrom_matrix,
    sld_scores,
    snr_observable,
)
from bcrb.waveform import (
    SpectralModel,
    TimeDiscretization,
    build_circulant_bound,
    continuum_qmax,
    rectangle_spectra,
    wiener_risk,
)

from conftest import (
    bump_scalar_model,
    const_matrix_fn,
    const_vector_fn,
    gaussian_prior_fn,
    gaussian_scalar_model,
    line_grid,
    unit_field,
)


def record(num: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"[ACCEPT-{num:02d}] {status} — {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_gaussian_closed_form():
    model = gaussian_scalar_model()
    op = assemble_L(model, 10.0)
    v = solve_least_favorable(op, model.weight)
    w = rho_weights(model.prior, model.metric)
    value = float(np.sum(w * np.einsum("...a,...a->...", model.weight.values, v.values)))
    rep = bmax(model, n=10.0)
    rel = max(abs(value - 1.0 / 11.0), abs(rep.bound - 1.0 / 11.0)) * 11.0
    record(1, rel <= 1e-5,
           f"assemble -> solve -> bmax gives {rep.bound:.9f} vs 1/11 "
           f"(relative error {rel:.2e} <= 1e-5)")


def test_criterion_02_invariance_suite():
    model = bump_scalar_model()
    v = unit_field(model.grid)
    v_fn = const_vector_fn([1.0])
    maps = {
        "affine": affine_map([2.0], [1.0]),
        "odd_power": odd_power_map(3),
        "logistic": logistic_map(),
    }
    target_nodes = {"affine": 4001, "odd_power": 20001, "logistic": 4001}
    worst_bound = 0.0
    worst_bmax = 0.0
    worst_control = np.inf
    for name, map_obj in maps.items():
        tgt = derive_target_grid(map_obj, model.grid, (target_nodes[name],))
        rep = invariance_report(model, model.prior, v, map_obj, 10.0,
                                target_grid=tgt, v_fn=v_fn)
        worst_bound = max(worst_bound, rep.relative_difference)
        src = bmax(model, n=10.0)
        pushed = pushforward_model(model, map_obj, tgt)
        tgt_rep = bmax(pushed, n=10.0)
        worst_bmax = max(worst_bmax, abs(tgt_rep.bound - src.bound) / src.bound)
        if name != "affine":
            # constant Jacobians rescale v uniformly, which the bound ignores,
            # so only the nonlinear maps expose the untransformed-v mistake
            control = invariance_report(model, model.prior, v, map_obj, 10.0,
                                        target_grid=tgt, transform_v=False,
                                        v_fn=v_fn)
            worst_control = min(worst_control, control.relative_difference)
    ok = worst_bound <= 1e-5 and worst_bmax <= 1e-5 and worst_control > 1e-3
    record(2, ok,
           f"bound invariance {worst_bound:.2e} <= 1e-5, optimal-bound "
           f"invariance {worst_bmax:.2e} <= 1e-5, nonlinear control "
           f"difference {worst_control:.2e} > 1e-3")


def _random_scalar_fields(grid, rng, count):
    th = grid.coordinates[..., 0]
    lo, hi = grid.bounds[0]
    mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
    s = (th - mid) / half
    for _ in range(count):
        c = rng.normal(size=4)
        vals = c[0] + c[1] * s + c[2] * s**2 + c[3] * np.sin(3.0 * s)
        yield VectorField(grid, vals[..., None])


def test_criterion_03_optimality_property():
    rng = np.random.default_rng(2025)
    scenarios = []
    m1 = gaussian_scalar_model()
    scenarios.append((m1, 10.0))
    m2 = bump_scalar_model()
    scenarios.append((m2, 5.0))
    grid3 = ParameterGrid([(-6.5, 6.5), (-6.5, 6.5)], [101, 101])
    m3 = StatisticalModel.from_callables(
        grid3,
        fisher_fn=const_matrix_fn([[1.0, 0.2], [0.2, 2.0]]),
        weight_fn=const_vector_fn([1.0, 0.5]),
        prior_fn=lambda c: np.exp(-np.sum(np.asarray(c) ** 2, axis=-1) / 2.0),
    )
    scenarios.append((m3, 3.0))

    worst_excess = -np.inf
    for model, n in scenarios:
        best = bmax(model, n=n).bound
        if model.grid.dim == 1:
            fields = _random_scalar_fields(model.grid, rng, 200)
        else:
            def fields_gen():
                th = model.grid.coordinates
                s = th / 6.5
                for _ in range(200):
                    c = rng.normal(size=(2, 3))
                    vals = np.stack([
                        c[a, 0] + c[a, 1] * s[..., 0] + c[a, 2] * s[..., 1]
                        for a in range(2)
                    ], axis=-1)
                    yield VectorField(model.grid, vals)

            fields = fields_gen()
        for field in fields:
            b = gill_levit_bound(model, model.prior, field, n).bound
            worst_excess = max(worst_excess, b - best)
    record(3, worst_excess <= 1e-8,
           f"600 random admissible fields never beat the optimal bound "
           f"(worst excess {worst_excess:.2e} <= 1e-8)")


def test_criterion_04_asymptotic_local_theory():
    grid = line_grid(-7.0, 7.0, 4001)
    model = StatisticalModel.from_callables(
        grid,
        fisher_fn=lambda c: (1.0 + 0.3 * np.asarray(c)[..., 0] ** 2)[..., None, None],
        weight_fn=const_vector_fn([1.0]),
        prior_fn=gaussian_prior_fn(1.0),
    )
    n = 1e6
    rep = bmax(model, n=n)
    th = grid.coordinates[..., 0]
    local = ScalarField(grid, model.prior.values / (1.0 + 0.3 * th**2))
    c_avg = integrate(local)
    rel = abs(n * rep.bound - c_avg) / c_avg
    record(4, rel <= 1e-3,
           f"n * bmax = {n * rep.bound:.6f} vs <C> = {c_avg:.6f} at n = 1e6 "
           f"(relative gap {rel:.2e} <= 1e-3)")


def test_criterion_05_ground_state_energies():
    harmonic = SchrodingerProblem((-10.0, 10.0), lambda t: np.asarray(t) ** 2,
                                  nodes=2001)
    e_h, _ = ground_state(assemble_H(harmonic, 100.0))
    box = SchrodingerProblem((0.0, 1.0), lambda t: np.zeros_like(t), nodes=4001)
    e_b, _ = ground_state(assemble_H(box, 1.0))
    rel_h = abs(e_h - 20.0) / 20.0
    rel_b = abs(e_b - 4.0 * np.pi**2) / (4.0 * np.pi**2)
    record(5, rel_h <= 5e-3 and rel_b <= 1e-3,
           f"harmonic E = {e_h:.5f} (20 within {rel_h:.2e} <= 0.5%), "
           f"box E = {e_b:.5f} (4 pi^2 within {rel_b:.2e} <= 0.1%)")


def test_criterion_06_minimax_rates():
    import time

    start = time.time()
    n_list = [1e2, 1e3, 1e4, 1e5, 1e6]
    slopes = {}
    for m, half in ((2.0, 0.5), (1.0, 0.5), (0.0, 2.0)):
        problem = SchrodingerProblem(
            (-half, half),
            lambda t, m=m: np.abs(np.asarray(t, dtype=float)) ** m,
            nodes=2001,
        )
        slopes[m] = rate_fit(problem, n_list).slope
    elapsed = time.time() - start
    targets = {2.0: -0.5, 1.0: -2.0 / 3.0, 0.0: -1.0}
    gaps = {m: abs(slopes[m] - targets[m]) for m in slopes}
    ok = all(g <= 0.05 for g in gaps.values()) and elapsed <= 300.0
    record(6, ok,
           "fitted slopes " + ", ".join(
               f"m={m:g}: {slopes[m]:.4f} (target {targets[m]:.4f})"
               for m in (2.0, 1.0, 0.0)) + f"; runtime {elapsed:.1f}s <= 300s")


def test_criterion_07_quantum_ordering_and_snr():
    classical, quantum = quantum_vs_classical(
        gaussian_psf(1.0), SourceConfiguration([-0.25, 0.25]), n=1.0, nodes=121)
    ordering_ok = quantum.bound <= classical.bound + 1e-10

    fam = diagonal_qubit_family()
    theta = 0.35
    k = helstrom_matrix(fam, [theta])[0, 0]
    (score,) = sld_scores(fam, [theta])
    eq_gap = abs(snr_observable(fam, [theta], [1.0], score) - k)
    rng = np.random.default_rng(99)
    worst = -np.inf
    for _ in range(100):
        y = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        y = (y + y.conj().T) / 2.0
        worst = max(worst, snr_observable(fam, [theta], [1.0], y) - k)
    ok = ordering_ok and worst <= 1e-8 and eq_gap <= 1e-8
    record(7, ok,
           f"imaging: qmax {quantum.bound:.6e} <= bmax {classical.bound:.6e}; "
           f"100 random observables below the information (worst excess "
           f"{worst:.2e}), score equality gap {eq_gap:.2e} <= 1e-8")


def test_criterion_08_gaussian_shift_sandwich():
    rng = np.random.default_rng(4)
    worst_low, worst_high = np.inf, -np.inf
    for _ in range(100):
        m = int(rng.integers(1, 4))
        a = rng.normal(size=(2 * m, 2 * m))
        k = a @ a.T + 1e-9 * np.eye(2 * m)
        b = rng.normal(size=(2 * m, 2 * m))
        g = b @ b.T + 1e-9 * np.eye(2 * m)
        u = rng.normal(size=2 * m)
        q, risk = gaussian_shift_bounds(k, g, u)
        scale = max(q, 1e-300)
        worst_low = min(worst_low, (risk - q) / scale)
        worst_high = max(worst_high, (risk - 2.0 * q) / scale)
    ok = worst_low >= -1e-10 and worst_high <= 1e-10
    record(8, ok,
           f"100 random shift models: qmax <= risk <= 2 qmax "
           f"(margins {worst_low:.2e}, {worst_high:.2e})")


def test_criterion_09_waveform_rectangle():
    spectra = rectangle_spectra()
    q_val = continuum_qmax(spectra)
    rect_err = abs(q_val - 0.5)

    disc = TimeDiscretization.instant_weight(2048 * 0.25, 2048)
    circulant = build_circulant_bound(disc, rectangle_spectra(nodes=200001))
    circ_rel = abs(circulant - q_val) / q_val

    omega = spectra.omega[::100]
    n = len(omega)
    s_q = np.full(n, 0.75)
    s_theta = np.where(np.abs(omega) <= 2 * np.pi + 1e-12, 1.0, 0.0)
    matched = SpectralModel(
        omega, s_q=s_q, s_theta=s_theta, h_abs2=np.ones(n),
        hx_abs2=np.ones(n), s_z=np.full(n, 1.0 / 3.0),
    )  # |h_X|^2 / S_Z = 3 = 4 S_q / hbar^2 pointwise
    wiener_gap = abs(wiener_risk(matched) - continuum_qmax(matched))
    ok = rect_err <= 1e-6 and circ_rel <= 0.01 and wiener_gap == 0.0
    record(9, ok,
           f"rectangle qmax = {q_val:.8f} (|err| {rect_err:.2e} <= 1e-6); "
           f"circulant p=2048 within {circ_rel:.2e} <= 1%; "
           f"wiener risk equals qmax at the quantum-limited point "
           f"(gap {wiener_gap:.1e})")


def test_criterion_10_imaging_structure():
    gpsf = gaussian_psf(1.0)
    f1 = direct_imaging_fisher(gpsf, SourceConfiguration([0.0]))[0, 0]
    single_ok = abs(f1 - 1.0) <= 1e-3

    f0 = direct_imaging_fisher(gpsf, SourceConfiguration([0.0, 0.0]))
    eig, vec = np.linalg.eigh(f0)
    w = np.array([1.0, 1.0]) / np.sqrt(2.0)
    null_dir = vec[:, 0]
    rank_ok = eig[0] <= 1e-8 * eig[1] and abs(null_dir @ w) <= 1e-4

    m_gauss = exponent_fit(gpsf, [1.0, -1.0], np.logspace(-2.5, -0.5, 9)).exponent
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # imperfect-R^2 note
        m_herm = exponent_fit(hermite_gauss_psf(1.0), [1.0, -1.0],
                              np.logspace(-3, -1, 9)).exponent
    exp_ok = abs(m_gauss - 2.0) <= 0.1 and abs(m_herm - 1.0) <= 0.15

    base = SourceConfiguration([-0.4, 0.05, 0.45])
    ratios = []
    for k in range(5):
        rep = imaging_helstrom(gpsf, base.scaled(0.5**k))
        eigs = np.sort(rep.eigenvalues)[::-1]
        ratios.append(eigs[2] / eigs[1])
    trend_ok = all(b < a for a, b in zip(ratios, ratios[1:]))

    ok = single_ok and rank_ok and exp_ok and trend_ok
    record(10, ok,
           f"single-source information {f1:.6f} (1/sigma^2 within 1e-3); "
           f"coincident rank 1 with null direction orthogonal to the centroid; "
           f"exponents {m_gauss:.3f} (2 +- 0.1) and {m_herm:.3f} (1 +- 0.15); "
           f"rank-2 trend ratios {['%.1e' % r for r in ratios]}")


def test_criterion_11_vectoral_reduction():
    model = gaussian_scalar_model()
    weights_q1 = VectoralWeight(model.grid, np.array([[1.0]]), (model.weight,))
    vec_rep = vectoral_bmax(model, weights_q1, 10.0)
    scl_rep = bmax(model, n=10.0)
    q1_gap = abs(vec_rep.bound - scl_rep.bound)

    grid2 = ParameterGrid([(-6.5, 6.5), (-6.5, 6.5)], [81, 81])

    def fisher_fn(c):
        c = np.asarray(c)
        out = np.zeros(c.shape[:-1] + (2, 2))
        out[..., 0, 0] = 1.0
        out[..., 1, 1] = 2.0
        return out

    model2 = StatisticalModel.from_callables(
        grid2,
        fisher_fn=fisher_fn,
        weight_fn=const_vector_fn([1.0, 1.0]),
        prior_fn=lambda c: np.exp(-np.sum(np.asarray(c) ** 2, axis=-1) / 2.0),
    )
    weights_q2 = VectoralWeight(
        grid2, np.eye(2),
        (VectorField.constant(grid2, [1.0, 0.0], variance="covariant"),
         VectorField.constant(grid2, [0.0, 1.0], variance="covariant")),
    )
    block_rep = vectoral_bmax(model2, weights_q2, 4.0)

    def scalar_block(fisher):
        g1 = line_grid(-6.5, 6.5, 81)
        m = StatisticalModel.from_callables(
            g1, fisher_fn=const_matrix_fn([[fisher]]),
            weight_fn=const_vector_fn([1.0]), prior_fn=gaussian_prior_fn(1.0))
        return bmax(m, n=4.0).bound

    sum_gap = abs(block_rep.bound - (scalar_block(1.0) + scalar_block(2.0)))
    ok = q1_gap <= 1e-10 and sum_gap <= 1e-8
    record(11, ok,
           f"q=1 reduction gap {q1_gap:.2e} <= 1e-10; decoupled 2-block sum "
           f"gap {sum_gap:.2e} <= 1e-8")


def test_criterion_12_cli_determinism(tmp_path):
    configs = {
        "bound": {
            "kind": "bound", "name": "d-bound",
            "grid": {"lower": -8.0, "upper": 8.0, "nodes": 401},
            "model": {"fisher": {"type": "constant", "value": 1.0},
                      "weight": {"type": "constant", "value": 1.0}},
            "prior": {"type": "gaussian", "variance": 1.0},
            "v": {"choice": "unit"}, "n": 10.0,
        },
        "optimal": {
            "kind": "optimal", "name": "d-optimal",
            "grid": {"lower": -8.0, "upper": 8.0, "nodes": 401},
            "model": {"fisher": {"type": "constant", "value": 1.0},
                      "weight": {"type": "constant", "value": 1.0}},
            "prior": {"type": "gaussian", "variance": 1.0}, "n": 10.0,
        },
        "minimax": {
            "kind": "minimax", "name": "d-minimax",
            "potential": {"type": "power", "exponent": 2.0, "amplitude": 1.0},
            "domain": {"half_width": 0.5, "nodes": 501},
            "n_list": {"start": 1e2, "stop": 1e5, "count": 4},
        },
        "quantum": {
            "kind": "quantum", "name": "d-quantum", "problem": "qubit",
            "theta": 0.3, "snr_trials": 20,
        },
        "waveform": {
            "kind": "waveform", "name": "d-waveform",
            "spectra": {"type": "rectangle", "nodes": 40001},
            "discretization": {"slots": 256, "dt": 0.25},
        },
        "imaging": {
            "kind": "imaging", "name": "d-imaging",
            "psf": {"catalog": "gaussian", "sigma": 1.0},
            "task": "fisher", "sources": [0.0],
        },
        "invariance": {
            "kind": "invariance", "name": "d-invariance",
            "grid": {"lower": 0.5, "upper": 2.0, "nodes": 501},
            "model": {"fisher": {"type": "polynomial", "coeffs": [1.0, 0.0, 1.0]},
                      "weight": {"type": "constant", "value": 1.0}},
            "prior": {"type": "gaussian_bump", "center": 1.2, "variance": 0.09},
            "v": {"choice": "unit"}, "n": 10.0,
            "map": {"catalog": "odd_power", "power": 3},
        },
    }
    mismatched = []
    for kind, cfg in configs.items():
        cfg_path = tmp_path / f"{kind}.json"
        cfg_path.write_text(json.dumps(cfg))
        outs = []
        for run in ("a", "b"):
            out = tmp_path / f"{kind}-{run}"
            code = cli_main([kind, "--config", str(cfg_path), "--out", str(out)])
            assert code == 0, f"{kind} scenario failed"
            artifacts = sorted(p.name for p in out.iterdir())
            outs.append({name: (out / name).read_bytes() for name in artifacts})
        if outs[0] != outs[1]:
            mismatched.append(kind)
    record(12, not mismatched,
           "all seven scenario kinds byte-identical across repeated runs"
           + (f" (mismatches: {mismatched})" if mismatched else ""))
