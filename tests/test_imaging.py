import csv
import re
import threading
import warnings

import numpy as np
import pytest
import scipy.interpolate
from numpy.polynomial.hermite import hermval
from scipy.interpolate import CubicSpline

from bcrb import imaging
from bcrb.errors import GridValueError, ProjectionError
from bcrb.grids import ParameterGrid, trapezoid_weights_1d
from bcrb.imaging import (
    PSF_CATALOG,
    ExponentFit,
    PointSpreadFunction,
    SourceConfiguration,
    direct_imaging_fisher,
    exponent_fit,
    gaussian_psf,
    helstrom_along,
    hermite_gauss_psf,
    imaging_helstrom,
    information_along,
    minimax_rate,
    psf_from_csv,
    quantum_vs_classical,
    sinc_psf,
)
from bcrb.minimax import SchrodingerProblem, converged_ground_energy, rate_fit
from bcrb.quantum import DensityFamily, helstrom_matrix


def padded_svd_helstrom(psf, config, basis_size=20, span_sigmas=16.0, nodes=8193):
    """Reference K: the state span padded with Hermite-Gauss modes up to
    basis_size, orthonormalized by an SVD of the whole image-grid matrix."""
    pos = config.positions
    x = imaging._measurement_grid(psf, pos, span_sigmas, nodes)
    sw = np.sqrt(trapezoid_weights_1d(len(x), x[1] - x[0]))
    states = [psf.pair_at(x - t)[0] for t in pos]
    dstates = [-psf.pair_at(x - t)[1] for t in pos]
    scale = np.sqrt(2.0) * psf.width
    pads = [hermval((x - pos.mean()) / scale, np.eye(k + 1)[k])
            * np.exp(-((x - pos.mean()) ** 2) / (2.0 * scale**2)) for k in range(basis_size)]
    raw = np.array(states + dstates + pads).T * sw[:, None]
    raw = raw / np.linalg.norm(raw, axis=0)
    u_mat, svals, _ = np.linalg.svd(raw, full_matrices=False)
    basis = u_mat[:, svals > 1e-10 * svals[0]]
    cs = [basis.T @ (s * sw) for s in states]
    dcs = [basis.T @ (d * sw) for d in dstates]
    p, dim = config.p, basis.shape[1]
    rho = sum(np.outer(c, c) for c in cs) / p
    drho = np.array([np.outer(dc, c) + np.outer(c, dc) for c, dc in zip(cs, dcs)]) / p
    family = DensityFamily(dim, p, lambda _t: rho.astype(complex),
                           lambda _t: drho.astype(complex))
    return helstrom_matrix(family, np.zeros(p))


def write_psf_csv(tmp_path, psf, stride=1):
    path = tmp_path / "psf.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "amplitude"])
        for x, a in zip(psf.x[::stride], psf.amplitude[::stride]):
            writer.writerow([x, a])
    return path


@pytest.fixture(scope="session")
def gpsf():
    return gaussian_psf(1.0)


@pytest.fixture(scope="session")
def hpsf():
    return hermite_gauss_psf(1.0)


class TestPointSpreadFunction:
    def test_catalog_normalization(self):
        for name, factory in PSF_CATALOG.items():
            psf = factory(1.0)
            assert abs(np.trapezoid(psf.amplitude**2, psf.x) - 1.0) <= 1e-8, name

    def test_csv_round_trip(self, tmp_path, gpsf):
        loaded = psf_from_csv(write_psf_csv(tmp_path, gpsf, stride=4))
        assert abs(loaded.width - 1.0) <= 1e-3
        pts = np.linspace(-2, 2, 17)
        assert np.max(np.abs(loaded.pair_at(pts)[0] - gpsf.pair_at(pts)[0])) <= 1e-6

    @pytest.mark.parametrize("array", ["x", "amplitude"])
    def test_non_finite_samples_rejected(self, gpsf, array):
        samples = {"x": gpsf.x.copy(), "amplitude": gpsf.amplitude.copy()}
        samples[array][100] = np.inf
        with pytest.raises(GridValueError, match="finite"):
            PointSpreadFunction(samples["x"], samples["amplitude"], 1.0)

    def test_csv_spline_fitted_once(self, tmp_path, gpsf, monkeypatch):
        path = write_psf_csv(tmp_path, gpsf)
        fits = []

        class CountingSpline(CubicSpline):
            def __init__(self, *args, **kwargs):
                fits.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(scipy.interpolate, "CubicSpline", CountingSpline)
        psf = psf_from_csv(path)
        spline = CubicSpline(psf.x, psf.amplitude, extrapolate=False)
        pts = np.linspace(-30.0, 30.0, 1001)
        for _ in range(3):
            a, d = psf.pair_at(pts)
            assert np.array_equal(a, np.nan_to_num(spline(pts), nan=0.0))
            assert np.array_equal(d, np.nan_to_num(spline.derivative()(pts), nan=0.0))
        information_along(psf, [1.0, -1.0], np.linspace(0.01, 0.5, 300))
        imaging_helstrom(psf, SourceConfiguration([-0.2, 0.2]))
        assert len(fits) == 1

    @pytest.mark.parametrize("scale, mass", [(0.0, "0.0"), (1e-170, "0.0"), (1e200, "inf")],
                             ids=["zero", "underflowing_square", "overflowing_square"])
    def test_no_finite_intensity_mass_refused_by_name(self, gpsf, scale, mass):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GridValueError, match=rf"^PSF intensity integrates to {mass}; "
                                                     "it needs positive, finite mass"):
                PointSpreadFunction(gpsf.x, scale * gpsf.amplitude, 1.0, gpsf.pair_fn)

    def test_csv_without_intensity_mass_refused_naming_the_path(self, tmp_path, gpsf):
        path = tmp_path / "psf.csv"
        path.write_text("x,amplitude\n" + "".join("%.17g,0\n" % x for x in gpsf.x[::64]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GridValueError,
                               match=f"^{re.escape(str(path))}: PSF intensity integrates to 0.0"):
                psf_from_csv(path)

    @pytest.mark.parametrize("width", [np.nan, np.inf])
    def test_non_finite_width_rejected(self, gpsf, width):
        with pytest.raises(GridValueError, match="width scale must be finite and positive"):
            PointSpreadFunction(gpsf.x, gpsf.amplitude, width)

    def test_spline_fallback_matches_analytic(self, gpsf):
        numeric = PointSpreadFunction(gpsf.x, gpsf.amplitude, 1.0)
        pts = np.linspace(-3, 3, 101)
        (a, d), (a_ref, d_ref) = numeric.pair_at(pts), gpsf.pair_at(pts)
        assert np.max(np.abs(a - a_ref)) <= 1e-9
        assert np.max(np.abs(d - d_ref)) <= 1e-6


class TestDirectImagingFisher:
    def test_single_gaussian_source(self, gpsf):
        f = direct_imaging_fisher(gpsf, SourceConfiguration([0.0]))
        assert abs(f[0, 0] - 1.0) <= 1e-4

    def test_single_source_scaling(self):
        psf = gaussian_psf(2.0)
        f = direct_imaging_fisher(psf, SourceConfiguration([0.3]))
        assert abs(f[0, 0] - 0.25) <= 1e-4

    def test_coincident_pair_rank_one(self, gpsf):
        f0 = direct_imaging_fisher(gpsf, SourceConfiguration([0.0, 0.0]))
        eig, vec = np.linalg.eigh(f0)
        assert eig[0] <= 1e-8 * eig[1]
        # range spanned by the centroid direction
        w = np.array([0.5, 0.5]) / np.linalg.norm([0.5, 0.5])
        angle = np.arccos(np.clip(abs(vec[:, 1] @ w), -1.0, 1.0))
        assert angle <= 1e-4

    def test_coincident_centroid_value(self, gpsf):
        # v F(0) v = (v.w)^2 * int (h')^2/h for any v
        f0 = direct_imaging_fisher(gpsf, SourceConfiguration([0.0, 0.0]))
        v = np.array([1.0, 3.0])
        w = np.array([0.5, 0.5])
        expected = (v @ w) ** 2 * 1.0  # int (h')^2/h = 1/sigma^2 = 1
        assert abs(v @ f0 @ v - expected) <= 1e-4

    def test_coverage_guard(self, gpsf, monkeypatch):
        monkeypatch.setattr(imaging, "DEFAULT_SPAN_SIGMAS", 2.0)
        with pytest.raises(GridValueError, match="widen"):
            direct_imaging_fisher(gpsf, SourceConfiguration([0.0]))

    def test_coverage_guard_sees_nan_mass(self, gpsf, monkeypatch):
        monkeypatch.setattr(imaging, "DEFAULT_SPAN_SIGMAS", np.nan)
        with pytest.raises(GridValueError, match="captures mass nan"):
            direct_imaging_fisher(gpsf, SourceConfiguration([0.0]))

    @pytest.mark.parametrize("positions", [[0.0, 0.0], [-0.3, 0.4], [1.4, 2.1],
                                           [-0.4, 0.05, 0.45]])
    def test_symmetric_and_matches_per_entry_sums(self, hpsf, positions):
        config = SourceConfiguration(positions)
        f = direct_imaging_fisher(hpsf, config)
        assert np.array_equal(f, f.T)
        x = imaging._measurement_grid(hpsf, config.positions, imaging.DEFAULT_SPAN_SIGMAS,
                                      imaging.DEFAULT_GRID_NODES)
        amp, damp = hpsf.pair_at(x - config.positions[:, None])
        dens = (amp**2).mean(axis=0)
        scores = -2.0 * amp * damp / config.p
        ok = dens > imaging.INTENSITY_SUPPORT_FLOOR
        w = trapezoid_weights_1d(len(x), x[1] - x[0])
        ref = np.array([[np.sum(w[ok] * sa[ok] * sb[ok] / dens[ok]) for sb in scores]
                        for sa in scores])
        assert np.max(np.abs(f - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("positions", [[np.nan], [0.0, np.inf]])
    def test_non_finite_positions_rejected(self, gpsf, positions):
        with pytest.raises(GridValueError, match="source positions must be finite"):
            direct_imaging_fisher(gpsf, SourceConfiguration(positions))


class TestExponentFit:
    def test_gaussian_pair_quadratic(self, gpsf):
        fit = exponent_fit(gpsf, [1.0, -1.0], np.logspace(-2.5, -0.5, 9))
        assert abs(fit.exponent - 2.0) <= 0.1

    def test_hermite_pair_linear(self, hpsf):
        # near the amplitude zero the power law carries corrections, so the
        # fit reports a slightly imperfect R^2 alongside the exponent
        with pytest.warns(UserWarning, match="power law"):
            fit = exponent_fit(hpsf, [1.0, -1.0], np.logspace(-3, -1, 8))
        assert abs(fit.exponent - 1.0) <= 0.15

    def test_centroid_flat(self, gpsf):
        # constant information: the fit flags it as a degenerate power law
        with pytest.warns(UserWarning, match="power law"):
            fit = exponent_fit(gpsf, [0.5, 0.5], np.logspace(-2, 0, 8))
        assert abs(fit.exponent) <= 0.05

    def test_narrow_range_rejected(self, gpsf):
        with pytest.raises(GridValueError, match="decades"):
            exponent_fit(gpsf, [1.0, -1.0], [0.1, 0.2, 0.3])

    def test_non_power_law_warns(self, gpsf):
        # mix regimes: separations reaching well past the width break the law
        with pytest.warns(UserWarning, match="power law"):
            exponent_fit(gpsf, [1.0, -1.0], np.logspace(-2, 0.8, 10))


class TestImagingHelstrom:
    def test_single_source_momentum_variance(self, gpsf):
        report = imaging_helstrom(gpsf, SourceConfiguration([0.0]))
        assert abs(report.helstrom[0, 0] - 1.0) <= 1e-4
        assert report.numerical_rank == 1

    def test_pair_full_rank_at_moderate_separation(self, gpsf):
        report = imaging_helstrom(gpsf, SourceConfiguration([-0.25, 0.25]))
        assert report.numerical_rank == 2

    def test_triple_rank_two_trend(self, gpsf):
        base = SourceConfiguration([-0.4, 0.05, 0.45])
        ratios = []
        for scale in (1.0, 0.5, 0.25, 0.125, 0.0625):
            report = imaging_helstrom(gpsf, base.scaled(scale))
            eigs = np.sort(report.eigenvalues)[::-1]
            ratios.append(eigs[2] / eigs[1])
        assert all(b < a for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] <= 1e-3

    def test_projection_guard(self, gpsf, monkeypatch):
        from bcrb.errors import ProjectionError

        monkeypatch.setattr(imaging, "HELSTROM_SPAN_SIGMAS", 3.0)
        with pytest.raises(ProjectionError, match="deficit"):
            imaging_helstrom(gpsf, SourceConfiguration([-0.3, 0.3]))

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_sinc_tail_norm_deficit_raises(self, p):
        # the sinc tail leaves about 6e-3 of the norm outside the 16-width window
        with pytest.raises(ProjectionError, match="deficit") as exc:
            imaging_helstrom(sinc_psf(1.0), SourceConfiguration(np.linspace(-0.3, 0.3, p)))
        assert "basis" not in str(exc.value)

    def test_span_dimension(self, gpsf):
        assert imaging_helstrom(gpsf, SourceConfiguration([-0.3, 0.4])).span_dimension == 4
        # coincident sources share one state and one derivative
        assert imaging_helstrom(gpsf, SourceConfiguration([0.2, 0.2])).span_dimension == 2

    def test_information_ordering_along_separation(self, gpsf):
        taus = np.array([0.2, 0.5, 1.0])
        v = np.array([-0.5, 0.5])
        f_vals = information_along(gpsf, v, taus)
        k_vals = helstrom_along(gpsf, v, taus)
        assert np.all(k_vals >= f_vals - 1e-8)

    def test_shift_invariance(self, gpsf):
        base = SourceConfiguration([-0.3, 0.4])
        moved = SourceConfiguration(base.positions + 1.7)
        e1 = np.sort(imaging_helstrom(gpsf, base).eigenvalues)
        e2 = np.sort(imaging_helstrom(gpsf, moved).eigenvalues)
        f1 = np.sort(np.linalg.eigvalsh(direct_imaging_fisher(gpsf, base)))
        f2 = np.sort(np.linalg.eigvalsh(direct_imaging_fisher(gpsf, moved)))
        assert np.max(np.abs(e1 - e2)) <= 1e-8
        assert np.max(np.abs(f1 - f2)) <= 1e-8

    def test_reflection_symmetry(self, gpsf):
        base = SourceConfiguration([-0.3, 0.4])
        mirrored = SourceConfiguration([-0.4, 0.3])
        e1 = np.sort(imaging_helstrom(gpsf, base).eigenvalues)
        e2 = np.sort(imaging_helstrom(gpsf, mirrored).eigenvalues)
        f1 = np.sort(np.linalg.eigvalsh(direct_imaging_fisher(gpsf, base)))
        f2 = np.sort(np.linalg.eigvalsh(direct_imaging_fisher(gpsf, mirrored)))
        assert np.max(np.abs(e1 - e2)) <= 1e-8
        assert np.max(np.abs(f1 - f2)) <= 1e-8


class TestHelstromMatchesPaddedSvd:
    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("factory", [gaussian_psf, hermite_gauss_psf])
    def test_agrees_across_separations(self, factory, p):
        psf = factory(1.0)
        for sep in (0.01, 0.05, 0.2, 1.0, 3.0):
            config = SourceConfiguration(0.37 + sep * (np.arange(p) - (p - 1) / 2.0))
            ref = padded_svd_helstrom(psf, config)
            k = imaging_helstrom(psf, config).helstrom
            assert np.max(np.abs(k - ref)) <= 1e-10 * np.max(np.abs(ref)), sep

    def test_rank_trend_eigenvalues(self, gpsf):
        base = SourceConfiguration([-0.4, 0.05, 0.45])
        for k in range(5):
            config = base.scaled(0.5**k)
            ref = np.linalg.eigvalsh(padded_svd_helstrom(gpsf, config))
            eigs = np.sort(imaging_helstrom(gpsf, config).eigenvalues)
            assert np.all(np.abs(eigs - ref) <= 1e-10 * np.abs(ref)), k


class TestMinimaxRate:
    def test_gaussian_separation_rate(self, gpsf):
        res = minimax_rate(gpsf, [1.0, -1.0], [1e2, 1e3, 1e4, 1e5, 1e6],
                           nodes=1501)
        assert abs(res.slope - (-0.5)) <= 0.05

    def test_rate_fits_start_no_thread(self, gpsf, monkeypatch):
        def refuse(thread):
            raise AssertionError(f"thread {thread.name} started")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        quadratic = SchrodingerProblem((-0.5, 0.5), lambda t: np.asarray(t) ** 2, nodes=401)
        rate_fit(quadratic, [1e2, 1e3, 1e4, 1e5])
        minimax_rate(gpsf, [1.0, -1.0], [1e2, 1e3, 1e4, 1e5], nodes=401)

    def test_zero_bearing_rate(self, hpsf):
        res = minimax_rate(hpsf, [1.0, -1.0], [1e2, 1e3, 1e4, 1e5, 1e6],
                           nodes=1501)
        assert abs(res.slope - (-2.0 / 3.0)) <= 0.05

    def test_centroid_parametric_rate(self, gpsf):
        res = minimax_rate(gpsf, [0.5, 0.5], [1e2, 1e3, 1e4, 1e5, 1e6],
                           nodes=1001, initial_half_width=1.0)
        assert abs(res.slope - (-1.0)) <= 0.05

    def test_zero_direction_rejected_before_sampling(self, gpsf, monkeypatch):
        def refuse(*args):
            raise AssertionError("information sampled along a zero direction")

        monkeypatch.setattr(imaging, "information_along", refuse)
        with pytest.raises(GridValueError, match="direction must be nonzero"):
            minimax_rate(gpsf, [0.0, 0.0], [1e2, 1e3, 1e4])


class TestQuantumVsClassical:
    def test_ordering_at_moderate_separation(self, gpsf):
        classical, quantum = quantum_vs_classical(
            gpsf, SourceConfiguration([-0.25, 0.25]), n=1.0, nodes=121)
        assert quantum.bound <= classical.bound + 1e-10
        assert quantum.diagnostics["classical_bound"] == classical.bound

    def test_equal_information_debug_route(self, gpsf):
        # forcing K = F must produce identical bounds
        from bcrb.geometry import StatisticalModel
        from bcrb.grids import MatrixField, ParameterGrid, ScalarField, VectorField
        from bcrb.optimal import bmax
        from bcrb.quantum import qmax

        grid = ParameterGrid([(0.3, 0.7)], [121])
        s = grid.axes[0]
        f_vals = information_along(gpsf, [-0.5, 0.5], s)
        bump = np.sin(np.pi * (s - 0.3) / 0.4) ** 4
        model = StatisticalModel(
            grid,
            MatrixField(grid, f_vals[:, None, None]),
            VectorField.constant(grid, [1.0], variance="covariant"),
            prior=ScalarField(grid, bump).normalized(),
        )
        helstrom = MatrixField(grid, f_vals[:, None, None])
        assert abs(qmax(model, helstrom).bound - bmax(model).bound) <= 1e-12

    def test_zero_weight_pair(self, gpsf):
        from bcrb.geometry import StatisticalModel
        from bcrb.grids import MatrixField, ParameterGrid, ScalarField, VectorField
        from bcrb.optimal import bmax
        from bcrb.quantum import qmax

        grid = ParameterGrid([(0.3, 0.7)], [61])
        s = grid.axes[0]
        f_vals = information_along(gpsf, [-0.5, 0.5], s)
        bump = np.sin(np.pi * (s - 0.3) / 0.4) ** 4
        model = StatisticalModel(
            grid,
            MatrixField(grid, f_vals[:, None, None]),
            VectorField.constant(grid, [0.0], variance="covariant"),
            prior=ScalarField(grid, bump).normalized(),
        )
        assert bmax(model).bound == 0.0
        assert qmax(model, MatrixField(grid, f_vals[:, None, None])).bound == 0.0


class TestSincPsf:
    def test_zeros_and_derivative(self):
        psf = sinc_psf(1.0)
        zeros = np.array([1.0, 2.0, 3.0, -2.0])
        assert np.max(np.abs(psf.pair_at(zeros)[0])) <= 1e-12
        pts = np.linspace(-3.3, 3.3, 41)
        step = 1e-6
        fd = (psf.pair_at(pts + step)[0] - psf.pair_at(pts - step)[0]) / (2 * step)
        assert np.max(np.abs(fd - psf.pair_at(pts)[1])) <= 1e-6

    def test_normalized_callable_consistent_with_samples(self):
        psf = sinc_psf(2.0)  # raw intensity integrates to sigma, not 1
        assert abs(np.trapezoid(psf.amplitude**2, psf.x) - 1.0) <= 1e-8
        mid = len(psf.x) // 2
        assert abs(psf.pair_at(np.array([psf.x[mid]]))[0][0]
                   - psf.amplitude[mid]) <= 1e-12


class TestSeparationHelstromConstant:
    def test_quarter_inverse_variance_at_all_separations(self, gpsf):
        # the separation information of two equal incoherent sources is
        # 1/(4 sigma^2) at every separation, unlike the direct-imaging value
        d = np.array([-0.5, 0.5])
        taus = np.array([0.1, 0.3, 0.6, 1.2, 2.5])
        k = helstrom_along(gpsf, d, taus)
        assert np.max(np.abs(k - 0.25)) <= 1e-8

    def test_scales_with_width(self):
        from bcrb.imaging import gaussian_psf

        wide = gaussian_psf(2.0)
        k = helstrom_along(wide, np.array([-0.5, 0.5]), np.array([0.4]))
        assert abs(k[0] - 1.0 / 16.0) <= 1e-8

    def test_scalar_tau(self, gpsf):
        d = np.array([-0.5, 0.5])
        assert np.array_equal(helstrom_along(gpsf, d, 0.3), helstrom_along(gpsf, d, [0.3]))

    @pytest.mark.parametrize("name, direction, taus, origin", [
        ("direction", [-0.5, np.nan], [0.3], None),
        ("tau", [-0.5, 0.5], [0.3, np.inf], None),
        ("origin", [-0.5, 0.5], [0.3], [np.nan, 0.0]),
    ])
    def test_non_finite_inputs_named(self, gpsf, name, direction, taus, origin):
        with pytest.raises(GridValueError, match=f"{name} must be finite"):
            helstrom_along(gpsf, direction, taus, origin)

    @pytest.mark.parametrize("along", [helstrom_along, information_along])
    @pytest.mark.parametrize("name, taus, origin", [
        ("tau", [[0.3, 0.4]], None),
        ("tau", np.zeros((2, 2, 1)), None),
        ("origin", [0.3], [0.0, 0.0, 0.0]),
        ("origin", [0.3], [0.0]),
    ])
    def test_malformed_submodel_named(self, gpsf, along, name, taus, origin):
        with pytest.raises(GridValueError, match=f"^{name} "):
            along(gpsf, [-0.5, 0.5], taus, origin)

    @pytest.mark.parametrize("sigma", [1.0, 2.0])
    def test_constant_over_the_quantum_vs_classical_window(self, sigma):
        # the 257 separations quantum_vs_classical solves on, for the pair
        # (-sigma/4, sigma/4)
        taus = ParameterGrid([(0.35 * sigma, 0.65 * sigma)], [257]).axes[0]
        k = helstrom_along(gaussian_psf(sigma), [-0.5, 0.5], taus, [0.1, 0.1])
        assert np.max(np.abs(k * 4.0 * sigma**2 - 1.0)) <= 1e-13

    def test_coincident_and_separated_points_match_single_reports(self, gpsf, monkeypatch):
        stacks = []

        def counting_stack(rho, drho, at=None):
            stacks.append(len(rho))
            return helstrom_stack(rho, drho, at)

        helstrom_stack = imaging._helstrom_stack
        monkeypatch.setattr(imaging, "_helstrom_stack", counting_stack)
        d, origin = np.array([-0.5, 0.5]), np.array([0.2, 0.2])
        taus = np.array([0.0, 0.3, 0.0, 0.8, 1.5])
        k = helstrom_along(gpsf, d, taus, origin)
        # one stacked solve per span dimension: 2 at the coincident points, 4 elsewhere
        assert sorted(stacks) == [2, 3]
        stacks.clear()
        reports = [imaging_helstrom(gpsf, SourceConfiguration(origin + t * d)) for t in taus]
        assert [r.span_dimension for r in reports] == [2, 4, 2, 4, 4]
        assert np.array_equal(k, [d @ r.helstrom @ d for r in reports])
        assert np.array_equal(k[taus == 0.0], [0.0, 0.0])
        assert stacks == [1] * len(taus)

    def test_one_stacked_solve_for_a_window(self, gpsf, monkeypatch):
        calls = []

        def counting_stack(rho, drho, at=None):
            calls.append(len(rho))
            return helstrom_stack(rho, drho, at)

        helstrom_stack = imaging._helstrom_stack
        monkeypatch.setattr(imaging, "_helstrom_stack", counting_stack)
        helstrom_along(gpsf, [-0.5, 0.5], np.linspace(0.35, 0.65, 257))
        assert calls == [257]

    def test_empty_taus(self, gpsf):
        out = helstrom_along(gpsf, [-0.5, 0.5], [])
        assert out.shape == (0,)

    @pytest.mark.parametrize("factor, stem", [(0.0, "vanished"), (1.01, "deficit")])
    def test_failing_point_named_by_tau(self, gpsf, factor, stem):
        # the amplitude is off at the point tau = 0.3 only, where the
        # displaced arguments are centred on -0.15 and +0.15
        def pair(pts, out):
            amp, damp = gpsf.pair_fn(pts, out)
            if abs(abs(np.mean(pts)) - 0.15) < 1e-9:
                amp *= factor
                damp *= factor
            return amp, damp

        psf = PointSpreadFunction(gpsf.x, gpsf.amplitude, gpsf.width, pair)
        taus = [0.2, 0.25, 0.3, 0.35]
        with pytest.raises(ProjectionError, match=stem) as exc:
            helstrom_along(psf, [-0.5, 0.5], taus)
        assert "at tau = 0.3" in str(exc.value)
        assert np.all(helstrom_along(psf, [-0.5, 0.5], [0.2, 0.25, 0.35]) > 0.0)


def separate_formulas(name, sigma):
    """The catalog amplitude and derivative as two separate callables, each
    with its own exp/sinc evaluation."""
    norm = (2.0 * np.pi * sigma**2) ** -0.25
    if name == "gaussian":
        def amp(x):
            return norm * np.exp(-np.asarray(x) ** 2 / (4.0 * sigma**2))

        def damp(x):
            x = np.asarray(x)
            return amp(x) * (-x / (2.0 * sigma**2))
    elif name == "first_order_hermite":
        def amp(x):
            x = np.asarray(x)
            return norm * (x / sigma) * np.exp(-(x**2) / (4.0 * sigma**2))

        def damp(x):
            x = np.asarray(x)
            return norm * np.exp(-(x**2) / (4.0 * sigma**2)) * (
                1.0 / sigma - x**2 / (2.0 * sigma**3))
    else:
        def amp(x):
            return np.sinc(np.asarray(x) / sigma)

        def damp(x):
            x = np.asarray(x) / sigma
            out = np.zeros_like(x)
            nz = np.abs(x) > 1e-8
            xs = x[nz]
            out[nz] = (np.cos(np.pi * xs) - np.sinc(xs)) / xs / sigma
            small = ~nz
            out[small] = -(np.pi**2 / 3.0) * x[small] / sigma
            return out
    return amp, damp


class TestJointEvaluation:
    """One pass over the points gives exactly what two separate passes gave."""

    # both sinc branches, an exact zero, and the (rows, p, nodes) layout
    pts = np.concatenate([np.linspace(-30.0, 30.0, 3999), [0.0, 3e-9, -7e-9]]).reshape(2, 3, 667)

    @pytest.mark.parametrize("name,sigma", [("gaussian", 1.0), ("gaussian", 0.6),
                                            ("first_order_hermite", 1.0),
                                            ("first_order_hermite", 1.7),
                                            ("sinc", 1.0), ("sinc", 2.0)])
    def test_catalog_pair_matches_separate_formulas(self, name, sigma):
        psf = PSF_CATALOG[name](sigma)
        amp, damp = separate_formulas(name, sigma)
        expected_a, expected_d = amp(self.pts), damp(self.pts)
        norm = np.trapezoid(amp(psf.x) ** 2, psf.x)
        if abs(norm - 1.0) > imaging.INTENSITY_NORMALIZATION_ATOL:  # sinc_psf(2.0)
            factor = 1.0 / np.sqrt(norm)
            expected_a, expected_d = factor * expected_a, factor * expected_d
        a, d = psf.pair_at(self.pts)
        assert np.array_equal(a, expected_a) and np.array_equal(d, expected_d)

    def test_custom_pair_is_rescaled_as_the_samples(self):
        def amp(x):
            return 3.0 * np.exp(-np.asarray(x) ** 2 / 2.0)

        def damp(x):
            x = np.asarray(x)
            return -3.0 * x * np.exp(-x**2 / 2.0)

        def pair(pts, out):
            np.copyto(out[0], amp(pts))
            np.copyto(out[1], damp(pts))
            return out

        x = np.linspace(-12.0, 12.0, 2001)
        psf = PointSpreadFunction(x, amp(x), 1.0, pair)
        factor = 1.0 / np.sqrt(np.trapezoid(amp(x) ** 2, x))
        assert abs(np.trapezoid(psf.amplitude**2, psf.x) - 1.0) <= 1e-12
        a, d = psf.pair_at(self.pts)
        assert np.array_equal(a, factor * np.asarray(amp(self.pts)))
        assert np.array_equal(d, factor * np.asarray(damp(self.pts)))


class TestPairIntoBuffers:
    """``pair_at(pts, out)`` writes the pair that ``pair_at(pts)`` returns."""

    # 0 and +-1e-9 reach the sinc's small-argument branch
    pts = np.concatenate([np.linspace(-20.0, 20.0, 3081), [0.0, 1e-9, -1e-9]]).reshape(4, 3, 257)

    def through_out(self, psf):
        out = (np.full(self.pts.shape, np.nan), np.full(self.pts.shape, np.nan))
        got = psf.pair_at(self.pts, out=out)
        assert got[0] is out[0] and got[1] is out[1]
        return got

    @pytest.mark.parametrize("name,sigma", [("gaussian", 1.0), ("gaussian", 0.7),
                                            ("first_order_hermite", 1.0),
                                            ("sinc", 1.0), ("sinc", 2.0)])
    def test_catalog_pair_written_in_place(self, name, sigma):
        psf = PSF_CATALOG[name](sigma)
        a, d = self.through_out(psf)
        expected_a, expected_d = psf.pair_at(self.pts)
        assert np.array_equal(a, expected_a) and np.array_equal(d, expected_d)

    def test_custom_pair_writes_into_the_callers_arrays(self, gpsf):
        given = []

        def pair(pts, out):
            given.append(out)
            return gpsf.pair_fn(pts, out)

        psf = PointSpreadFunction(gpsf.x, gpsf.amplitude, gpsf.width, pair)
        a, d = self.through_out(psf)
        assert given[0][0] is a and given[0][1] is d
        expected_a, expected_d = psf.pair_at(self.pts)
        assert np.array_equal(a, expected_a) and np.array_equal(d, expected_d)

    def test_csv_spline_copied_in(self, tmp_path, gpsf):
        psf = psf_from_csv(write_psf_csv(tmp_path, gpsf, stride=16))
        a, d = self.through_out(psf)
        expected_a, expected_d = psf.pair_at(self.pts)
        assert np.array_equal(a, expected_a) and np.array_equal(d, expected_d)


class TestKernelBuffersReused:
    """The image-plane kernels hand ``pair_at`` the same buffers every time."""

    @staticmethod
    def record_outs(monkeypatch):
        seen = []

        def recording(self, pts, out=None):
            seen.append(out)
            return pair_at(self, pts, out)

        pair_at = PointSpreadFunction.pair_at
        monkeypatch.setattr(PointSpreadFunction, "pair_at", recording)
        return seen

    def test_information_blocks_share_two_buffers(self, gpsf, monkeypatch):
        seen = self.record_outs(monkeypatch)
        taus = TestInformationAlongBlocks.taus  # the 2,130 separations of a level
        information_along(gpsf, [1.0, -1.0], taus)
        assert len(seen) > 100  # one call per block
        buffers = {(a.ctypes.data, d.ctypes.data, a.base is d.base) for a, d in seen}
        assert len(buffers) == 1 and not buffers.pop()[2]
        assert all(a.base is seen[0][0].base and d.base is seen[0][1].base for a, d in seen)

    def test_helstrom_writes_rows_of_one_buffer(self, gpsf, monkeypatch):
        seen = self.record_outs(monkeypatch)
        taus = np.linspace(0.2, 0.8, 41)
        helstrom_along(gpsf, [-0.5, 0.5], taus)
        assert len(seen) == 2 * len(taus)  # one call per source and point
        buf = seen[0][0].base
        assert buf.shape == (4, imaging.HELSTROM_GRID_NODES)
        assert all(a.base is buf and d.base is buf for a, d in seen)
        rows = {a.ctypes.data: d.ctypes.data for a, d in seen}
        row = buf.strides[0]
        assert rows == {buf.ctypes.data: buf.ctypes.data + 2 * row,
                        buf.ctypes.data + row: buf.ctypes.data + 3 * row}


class TestCatalogWidthRange:
    """A width whose normalization or scale constants leave the normal floats
    is refused by name, without a numerical warning."""

    @pytest.mark.parametrize("make,sigma", [(gaussian_psf, 1e-200), (gaussian_psf, 1e-160),
                                            (gaussian_psf, 1e160), (hermite_gauss_psf, 1e-120),
                                            (hermite_gauss_psf, 1e120)])
    def test_refused(self, make, sigma):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GridValueError,
                               match=re.escape(f"sigma = {sigma!r} is out of range")):
                make(sigma)

    def test_narrow_gaussian_still_accepted(self):
        sigma = 1e-120
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = imaging_helstrom(gaussian_psf(sigma),
                                      SourceConfiguration([-0.4, 0.05, 0.45]).scaled(sigma))
        assert report.numerical_rank == 3


def per_separation_information(psf, direction, taus):
    """v F v with the integrand built for one separation at a time.

    The rows are then summed in stacks of 256 against the quadrature
    weights, as one matrix-vector product each: the BLAS sums a lone row in
    another order than a row of a stack, so this is the grouping under
    which the numbers are compared.
    """
    p = len(direction)
    thetas = taus[:, None] * direction[None, :]
    half = np.abs(thetas).max() + imaging.DEFAULT_SPAN_SIGMAS * psf.width
    x = np.linspace(-half, half, imaging.DEFAULT_GRID_NODES)
    w = trapezoid_weights_1d(len(x), x[1] - x[0])
    rows = np.empty((len(taus), len(x)))
    for i, theta in enumerate(thetas):
        pts = x - theta[:, None]
        amp, damp = psf.pair_at(pts)
        f = (amp**2).mean(axis=0)
        num = np.einsum("a,ax->x", direction, -2.0 * amp * damp / p) ** 2
        ok = f > imaging.INTENSITY_SUPPORT_FLOOR
        rows[i] = np.where(ok, num / np.where(ok, f, 1.0), 0.0)
    return np.concatenate([rows[s:s + 256] @ w for s in range(0, len(taus), 256)])


class TestInformationAlongBlocks:
    # the 2,130 separations a minimax_rate potential samples at radius 4
    taus = np.concatenate([np.linspace(0.0, 4.0, 2001), 4.0 * np.logspace(-8, 0, 129)])
    direction = np.array([1.0, -1.0])

    def test_matches_per_separation_evaluation(self, gpsf):
        blocked = information_along(gpsf, self.direction, self.taus)
        assert np.array_equal(blocked, per_separation_information(gpsf, self.direction,
                                                                  self.taus))

    @pytest.mark.parametrize("direction", [[1.0, -1.0, 0.5], [1.0]])
    def test_block_size_does_not_reach_the_numbers(self, gpsf, direction):
        taus = self.taus[::7]
        assert np.array_equal(information_along(gpsf, direction, taus),
                              per_separation_information(gpsf, np.array(direction), taus))

    def test_memory_bounded(self, gpsf):
        import tracemalloc

        tracemalloc.start()
        try:
            information_along(gpsf, self.direction, self.taus)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("name, direction, taus, origin", [
        ("direction", [1.0, np.nan], [0.5], None),
        ("tau", [1.0, -1.0], np.nan, None),
        ("tau", [1.0, -1.0], [0.5, np.inf], None),
        ("origin", [1.0, -1.0], [0.5], [0.0, np.inf]),
    ])
    def test_non_finite_inputs_rejected(self, gpsf, name, direction, taus, origin):
        with pytest.raises(GridValueError, match=f"{name} must be finite"):
            information_along(gpsf, direction, taus, origin)


class TestQuantumVsClassicalSolves:
    def test_each_field_equation_solved_once(self, gpsf, monkeypatch):
        from bcrb import quantum

        solved = []

        def counting_bmax(model, *args, **kwargs):
            solved.append(kwargs.get("v_choice", "least_favorable"))
            return bmax(model, *args, **kwargs)

        bmax = quantum.bmax
        monkeypatch.setattr(quantum, "bmax", counting_bmax)
        classical, quantum_rep = quantum_vs_classical(gpsf, SourceConfiguration([-0.25, 0.25]),
                                                      nodes=65)
        assert sorted(solved) == ["least_favorable", "quantum_least_favorable"]
        assert quantum_rep.diagnostics["classical_bound"] == classical.bound
        assert quantum_rep.bound <= classical.bound


class TestRatePotentialIsPure:
    def test_each_level_sampled_once(self, gpsf, monkeypatch):
        # from a narrow box, the small n double it past 16 initial half-widths
        sampled = []

        def recording(psf, direction, taus, origin=None):
            sampled.append(float(np.max(taus)))
            return information_along(psf, direction, taus, origin)

        monkeypatch.setattr(imaging, "information_along", recording)
        minimax_rate(gpsf, [1.0, -1.0], [1e0, 1e1, 1e2, 1e3, 1e4],
                     nodes=401, initial_half_width=0.01)
        assert len(sampled) == len(set(sampled)) > 1  # several levels, each sampled once

    def test_centroid_energies_match_direct_information(self, gpsf):
        ns = [1e2, 1e4, 1e6]
        fit = minimax_rate(gpsf, [0.5, 0.5], ns, nodes=1001, initial_half_width=1.0)
        direct = SchrodingerProblem(
            (-1.0, 1.0), lambda t: information_along(gpsf, [0.5, 0.5], t), nodes=1001)
        energies = [converged_ground_energy(direct, n)[0] for n in ns]
        np.testing.assert_allclose(fit.ground_energies, energies, rtol=1e-10, atol=0.0)
