import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from bcrb import scenarios
from bcrb.errors import GridValueError
from bcrb.geometry import (
    Diffeomorphism,
    StatisticalModel,
    affine_map,
    derive_target_grid,
    identity_map,
    invariance_report,
    logistic_map,
    odd_power_map,
    pushforward_model,
    transform_vector_field,
)
from bcrb.grids import MatrixField, ParameterGrid, ScalarField, VectorField, integrate

from conftest import (
    bump_scalar_model,
    const_matrix_fn,
    const_vector_fn,
    count_linalg_calls,
    gaussian_prior_fn,
    line_grid,
    unit_field,
)


def cube_map():
    return odd_power_map(3)


class TestDiffeomorphism:
    def test_round_trip(self):
        g = line_grid(0.5, 2.0, 101)
        assert cube_map().check_round_trip(g) <= 1e-8

    def test_exact_map_far_from_the_origin_pushes(self):
        # the round-trip error of an exact map grows with |theta|: 1.2e-7 at 1e9
        grid = line_grid(1e9, 1e9 + 10.0, 101)
        model = StatisticalModel.from_callables(
            grid, const_matrix_fn([[1.0]]), const_vector_fn([1.0]),
            gaussian_prior_fn(1.0, center=1e9 + 5.0))
        pushed = pushforward_model(model, affine_map([3.0], [0.1]))
        assert np.max(np.abs(pushed.fisher.values - 1.0 / 9.0)) <= 1e-15
        wrong = Diffeomorphism(lambda c: 3.0 * np.asarray(c) + 0.1,
                               lambda c: (np.asarray(c) - 0.1) / 2.0, None, "wrong scale")
        with pytest.raises(GridValueError, match="map inverse does not undo forward"):
            pushforward_model(model, wrong)

    def test_fd_jacobian_close_to_analytic(self):
        m = cube_map()
        fd = Diffeomorphism(m.forward, m.inverse, None)
        pts = np.linspace(0.5, 2.0, 7)[:, None]
        lengths = np.array([1.5])
        got = fd.jacobian_at(pts, lengths)
        want = m.jacobian_at(pts, lengths)
        assert np.max(np.abs(got - want)) <= 1e-6

    def test_catalog_names(self):
        # every catalog name the schema admits builds its own map, not the
        # builder's logistic fall-through
        names = scenarios.load_schema()["properties"]["map"]["properties"]["catalog"]["enum"]
        assert set(names) == {"identity", "affine", "odd_power", "logistic"}
        for name in names:
            assert scenarios._build_map({"catalog": name}).name.startswith(name)


class TestPushforward:
    def test_identity_map_unchanged(self, bump_model):
        pushed = pushforward_model(bump_model, identity_map())
        assert np.max(np.abs(pushed.fisher.values - bump_model.fisher.values)) <= 1e-12
        assert np.max(np.abs(pushed.weight.values - bump_model.weight.values)) <= 1e-12
        assert np.max(np.abs(pushed.prior.values - bump_model.prior.values)) <= 1e-12

    @pytest.mark.parametrize("analytic", [True, False], ids=["callable", "interpolated"])
    def test_cube_map_fisher_law(self, bump_model, analytic):
        # F~(t) = F(t^(1/3)) / (9 t^(4/3)), from the callable or from the
        # interpolated samples; a Helstrom information K obeys the same law
        sampled = MatrixField(bump_model.grid, bump_model.fisher.values)  # no callable
        model = bump_model if analytic else replace(bump_model, fisher=sampled)
        pushed = pushforward_model(model, cube_map())
        tt = pushed.grid.coordinates[..., 0]
        th = tt ** (1.0 / 3.0)
        expected = (1.0 + th**2) / (9.0 * tt ** (4.0 / 3.0))
        got = pushed.fisher.values[..., 0, 0]
        assert np.max(np.abs(got - expected) / np.abs(expected)) <= 1e-6

    def test_replaced_information_is_pushed(self):
        # K = 2F replaces F together with its callable, so the push carries K
        model = bump_scalar_model(n_nodes=401)
        helstrom = MatrixField.from_callable(
            model.grid, lambda c: 2.0 * (1.0 + np.asarray(c)[..., 0] ** 2)[..., None, None])
        pushed_f = pushforward_model(model, cube_map()).fisher.values
        pushed_k = pushforward_model(replace(model, fisher=helstrom), cube_map()).fisher.values
        assert np.max(np.abs(pushed_k / pushed_f - 2.0)) <= 1e-12

    def test_pushed_prior_is_pulled_callable(self, bump_model):
        pushed = pushforward_model(bump_model, cube_map())
        tt = pushed.grid.coordinates
        assert np.array_equal(pushed.prior.fn(tt), pushed.prior.values)
        stripped = replace(bump_model, prior=ScalarField(bump_model.grid,
                                                         bump_model.prior.values))
        assert pushforward_model(stripped, cube_map()).prior.fn is None

    def test_affine_density_change_of_variables(self):
        model = bump_scalar_model(n_nodes=2001)
        amap = affine_map([2.0], [1.0])
        pushed = pushforward_model(model, amap)
        # effective density pi~ = rho~ sqrt(g~) must integrate to one and
        # equal pi(theta(t~)) / 2
        total = integrate(pushed.prior, pushed.metric)
        assert abs(total - 1.0) <= 1e-8
        sqrtg = np.sqrt(np.linalg.det(pushed.metric.values))
        tt = pushed.grid.coordinates[..., 0]
        th = (tt - 1.0) / 2.0
        idx = len(tt) // 3
        src_interp = np.interp(th, model.grid.axes[0], model.prior.values)
        got = (pushed.prior.values * sqrtg)[idx]
        assert abs(got - src_interp[idx] / 2.0) <= 1e-8

    def test_singular_jacobian_reports_node(self, bump_model):
        bad = Diffeomorphism(
            lambda c: np.asarray(c, dtype=float),
            lambda c: np.asarray(c, dtype=float),
            lambda c: np.zeros(np.asarray(c).shape + (np.asarray(c).shape[-1],)),
            "broken",
        )
        with pytest.raises(GridValueError, match="singular Jacobian"):
            pushforward_model(bump_model, bad)

    def test_singular_jacobian_names_node_with_plain_ints(self):
        model = bump_scalar_model(n_nodes=11)
        bad_theta = model.grid.axes[0][3]
        bad = Diffeomorphism(
            lambda c: np.asarray(c, dtype=float),
            lambda c: np.asarray(c, dtype=float),
            lambda c: np.where(np.asarray(c) == bad_theta, 0.0, 1.0)[..., None],
            "vanishing at node 3",
        )
        with pytest.raises(GridValueError, match=r"singular Jacobian at target node \(3,\), "):
            pushforward_model(model, bad, model.grid)

    def test_round_trip_tensor_property(self):
        # no callbacks: exercises the cubic-interpolation path
        model = bump_scalar_model(n_nodes=801)
        grid = model.grid
        stripped = type(model)(grid, MatrixField(grid, model.fisher.values),
                               VectorField(grid, model.weight.values, "covariant"),
                               prior=ScalarField(grid, model.prior.values))
        m = cube_map()
        inv = Diffeomorphism(m.inverse, m.forward, None, "cube_inverse")
        there = pushforward_model(stripped, m)
        back = pushforward_model(there, inv, target_grid=grid)
        # interpolation error dominated by the coarser intermediate grid
        tol = 5 * max(dx**2 for dx in grid.spacing + there.grid.spacing)
        inner = ~grid.boundary_mask
        assert np.max(np.abs(back.fisher.values[inner] - model.fisher.values[inner])) <= tol
        assert np.max(np.abs(back.weight.values[inner] - model.weight.values[inner])) <= tol
        assert np.max(np.abs(back.prior.values[inner] - model.prior.values[inner])) <= tol


class TestModelChecks:
    def test_non_psd_information_names_node_with_plain_ints(self):
        grid = line_grid(0.0, 1.0, 11)
        fisher = np.ones((11, 1, 1))
        fisher[3] = -1.0
        weight = VectorField.constant(grid, [1.0], variance="covariant")
        with pytest.raises(GridValueError, match=r"not positive semidefinite at node \(3,\)$"):
            StatisticalModel(grid, MatrixField(grid, fisher), weight)

    def test_unnormalized_prior_rejected(self):
        grid = line_grid(0.0, 1.0, 11)
        weight = VectorField.constant(grid, [1.0], variance="covariant")
        with pytest.raises(GridValueError, match=r"prior integrates to 2\.0, expected 1 "
                                                 r"within 1e-08; normalize it first"):
            StatisticalModel(grid, MatrixField.identity(grid), weight,
                             prior=ScalarField(grid, np.full(11, 2.0)))

    @pytest.mark.parametrize("prior_fn, total", [
        (gaussian_prior_fn(0.01, center=100.0), r"0\.0"),  # underflows on the grid
        (lambda c: -np.ones(np.shape(c)[:-1]), r"-15\.9+6"),  # -16 to rounding
        (lambda c: np.full(np.shape(c)[:-1], 1e308), r"inf"),  # the sum overflows
    ], ids=["no-mass", "negative", "overflow"])
    def test_prior_without_positive_mass_rejected(self, prior_fn, total):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GridValueError,
                               match=rf"^prior integrates to {total} on the grid; it needs "
                                     "positive, finite mass"):
                StatisticalModel.from_callables(line_grid(-8.0, 8.0, 201),
                                                const_matrix_fn([[1.0]]),
                                                const_vector_fn([1.0]), prior_fn)


class TestTransformVectorField:
    def test_identity(self):
        g = line_grid(0.5, 2.0, 101)
        v = unit_field(g)
        out = transform_vector_field(v, identity_map())
        assert np.max(np.abs(out.values - 1.0)) <= 1e-12

    def test_cube_map_constant_field(self):
        g = line_grid(0.5, 2.0, 201)
        v = VectorField.from_callable(g, const_vector_fn([1.0]))
        out = transform_vector_field(v, cube_map())
        tt = out.grid.coordinates[..., 0]
        expected = 3.0 * tt ** (2.0 / 3.0)
        assert np.max(np.abs(out.values[..., 0] - expected)) <= 1e-8

    def test_linear_map_exact(self):
        g = ParameterGrid([(0, 1), (0, 1)], [9, 9])
        amap = affine_map([2.0, 3.0], [0.0, 0.0])
        v = VectorField.from_callable(g, lambda c: np.stack(
            [c[..., 0] + 1.0, c[..., 1] - 2.0], axis=-1))
        out = transform_vector_field(v, amap)
        src = np.asarray(amap.inverse(out.grid.coordinates))
        expected = np.stack([2.0 * (src[..., 0] + 1.0), 3.0 * (src[..., 1] - 2.0)], axis=-1)
        assert np.max(np.abs(out.values - expected)) <= 1e-12

    def test_covariant_rejected(self):
        g = line_grid(0, 1, 11)
        v = VectorField.constant(g, [1.0], variance="covariant")
        with pytest.raises(GridValueError, match="contravariant"):
            transform_vector_field(v, identity_map())


class TestInvarianceReport:
    def test_identity_map_exact(self, bump_model):
        rep = invariance_report(
            bump_model, bump_model.prior, unit_field(bump_model.grid),
            identity_map(), n=10.0, v_fn=const_vector_fn([1.0]),
        )
        assert rep.relative_difference <= 1e-14
        assert rep.invariant

    def test_cube_map_transformed_v(self, bump_model):
        tgt = derive_target_grid(cube_map(), bump_model.grid,
                                 (14 * (bump_model.grid.shape[0] - 1) // 3 + 1,))
        rep = invariance_report(
            bump_model, bump_model.prior, unit_field(bump_model.grid),
            cube_map(), n=10.0, target_grid=tgt, v_fn=const_vector_fn([1.0]),
        )
        assert rep.relative_difference <= 1e-6
        assert rep.v_transformed

    def test_cube_map_untransformed_control(self, bump_model):
        rep = invariance_report(
            bump_model, bump_model.prior, unit_field(bump_model.grid),
            cube_map(), n=10.0, transform_v=False, v_fn=const_vector_fn([1.0]),
        )
        assert rep.relative_difference > 1e-3
        assert not rep.invariant

    def test_functionals_individually_invariant(self, bump_model):
        # each of <A>, <F>, <P> agrees across coordinates, not just the ratio
        from bcrb.bounds import functionals
        from bcrb.geometry import pushforward_model as push

        v = unit_field(bump_model.grid)
        a1, f1, p1 = functionals(bump_model, bump_model.prior, v)
        tgt = derive_target_grid(cube_map(), bump_model.grid,
                                 (14 * (bump_model.grid.shape[0] - 1) // 3 + 1,))
        pushed = push(bump_model, cube_map(), tgt)
        v_t = transform_vector_field(VectorField.from_callable(v.grid, const_vector_fn([1.0])),
                                     cube_map(), tgt)
        a2, f2, p2 = functionals(pushed, pushed.prior, v_t)
        assert abs(a2 - a1) / abs(a1) <= 1e-6
        assert abs(f2 - f1) / abs(f1) <= 1e-6
        assert abs(p2 - p1) / abs(p1) <= 1e-6

    def test_local_bound_invariant_at_matched_points(self, bump_model):
        pushed = pushforward_model(bump_model, cube_map())
        f_t = pushed.fisher.values[..., 0, 0]
        u_t = pushed.weight.values[..., 0]
        local_t = u_t**2 / f_t
        th = pushed.grid.coordinates[..., 0] ** (1.0 / 3.0)
        local_s = 1.0 / (1.0 + th**2)
        assert np.max(np.abs(local_t - local_s) / local_s) <= 1e-6


class TestLogisticMap:
    def test_invariance_under_logistic(self, bump_model):
        rep = invariance_report(
            bump_model, bump_model.prior, unit_field(bump_model.grid),
            logistic_map(), n=10.0, v_fn=const_vector_fn([1.0]),
        )
        assert rep.relative_difference <= 1e-6


class TestCatalogInvarianceForVChoices:
    def test_natural_field_invariant_across_catalog(self, bump_model):
        # the per-point natural field, transformed contravariantly, gives the
        # same bound in every catalog parametrization
        from bcrb.bounds import natural_v

        v = natural_v(bump_model)
        v_fn = lambda c: (1.0 / (1.0 + np.asarray(c, dtype=float)[..., 0] ** 2))[..., None]
        for map_obj, nodes in ((affine_map([2.0], [1.0]), 8001),
                               (odd_power_map(3), 20001),
                               (logistic_map(), 8001)):
            tgt = derive_target_grid(map_obj, bump_model.grid, (nodes,))
            rep = invariance_report(bump_model, bump_model.prior, v, map_obj,
                                    10.0, target_grid=tgt, v_fn=v_fn)
            assert rep.relative_difference <= 1e-6, map_obj.name

    def test_polynomial_field_invariant_across_catalog(self, bump_model):
        th = bump_model.grid.coordinates[..., 0]
        v = VectorField(bump_model.grid, (1.0 + 0.5 * th)[..., None])
        v_fn = lambda c: (1.0 + 0.5 * np.asarray(c, dtype=float)[..., 0])[..., None]
        for map_obj, nodes in ((odd_power_map(3), 20001), (logistic_map(), 8001)):
            tgt = derive_target_grid(map_obj, bump_model.grid, (nodes,))
            rep = invariance_report(bump_model, bump_model.prior, v, map_obj,
                                    10.0, target_grid=tgt, v_fn=v_fn)
            assert rep.relative_difference <= 1e-6, map_obj.name


class TestOneDimensionalInterpolator:
    @pytest.mark.parametrize("nodes", [4, 5, 41])
    def test_equals_cubic_legacy_bitwise(self, nodes):
        from scipy.interpolate import RegularGridInterpolator

        from bcrb.geometry import _interpolator

        grid = line_grid(-1.5, 2.0, nodes)
        x = grid.axes[0]
        values = np.sin(3.0 * x) + x**2
        pts = np.concatenate([x, (x[1:] + x[:-1]) / 2.0,
                              [x[0] - 1e-12, x[-1] + 1e-12, np.nan]])[:, None]
        reference = RegularGridInterpolator(grid.axes, values, method="cubic_legacy",
                                            bounds_error=False, fill_value=None)(pts)
        assert np.array_equal(_interpolator(grid, values)(pts), reference, equal_nan=True)


class TestFieldCallables:
    def test_x4_invariance_config_interpolates_nothing_and_decomposes_once(
            self, monkeypatch):
        from bcrb import geometry

        splines = []
        real = geometry._interpolator
        monkeypatch.setattr(geometry, "_interpolator",
                            lambda *args: splines.append(args) or real(*args))
        seen = count_linalg_calls(monkeypatch, "det", "eigvalsh")
        config = scenarios.load_config(
            Path(__file__).parent.parent / "configs" / "invariance_cube_map.json")
        scenarios.run_scenario_config(config, grid_scale=4)
        # every field of the model and of v has its callable
        assert splines == []
        # the source information and the two pushed ones, besides two metrics
        fisher = [a for a in seen["eigvalsh"] if not any(a is d for d in seen["det"])]
        assert len(fisher) == 3
        assert len({id(a) for a in seen["eigvalsh"]}) == len(seen["eigvalsh"])


class TestVolumeElementReuse:
    def test_x4_invariance_config_checks_each_metric_once(self, monkeypatch):
        seen = count_linalg_calls(monkeypatch, "det", "eigvalsh")
        config = scenarios.load_config(
            Path(__file__).parent.parent / "configs" / "invariance_cube_map.json")
        scenarios.run_scenario_config(config, grid_scale=4)
        # two Jacobians and the two pushed metrics; 10 when every reader
        # recomputed sqrt(det g)
        assert len(seen["det"]) <= 4
        # a metric is an array both decomposed: each is checked exactly once
        metrics = {id(a): a for a in seen["eigvalsh"] if any(a is d for d in seen["det"])}
        assert len(metrics) == 2
        for metric in metrics.values():
            assert sum(a is metric for a in seen["eigvalsh"]) == 1
            assert sum(a is metric for a in seen["det"]) == 1
