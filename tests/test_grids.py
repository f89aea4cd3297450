import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from bcrb.errors import GridMismatchError, GridValueError
from bcrb.grids import (
    MatrixField,
    ParameterGrid,
    ScalarField,
    VectorField,
    boundary_residual,
    diff_matrix,
    divergence_matrix,
    gradient,
    integrate,
    metric_sqrt_det,
    read_csv,
    rho_weights,
    trapezoid_weights_1d,
)

from conftest import count_linalg_calls, weighted_divergence


def line(lo, hi, n):
    return ParameterGrid([(lo, hi)], [n])


def loop_diff_matrix(grid, axis):
    """Entry-by-entry build of the derivative stencil, the reference for diff_matrix."""
    n = grid.shape[axis]
    dx = grid.spacing[axis]
    d1 = sp.lil_matrix((n, n))
    for i in range(1, n - 1):
        d1[i, i - 1] = -0.5 / dx
        d1[i, i + 1] = 0.5 / dx
    d1[0, 0], d1[0, 1], d1[0, 2] = -1.5 / dx, 2.0 / dx, -0.5 / dx
    d1[n - 1, n - 1], d1[n - 1, n - 2], d1[n - 1, n - 3] = 1.5 / dx, -2.0 / dx, 0.5 / dx
    out = sp.csr_matrix(d1) if axis == 0 else sp.identity(grid.shape[0], format="csr")
    for ax in range(1, grid.dim):
        m = sp.csr_matrix(d1) if ax == axis else sp.identity(grid.shape[ax], format="csr")
        out = sp.kron(out, m, format="csr")
    return out


def gauss_density(grid, s2=1.0):
    th = grid.coordinates[..., 0]
    return ScalarField(grid, np.exp(-(th**2) / (2 * s2)) / np.sqrt(2 * np.pi * s2))


class TestGridConstruction:
    def test_basic_properties(self):
        g = ParameterGrid([(0.0, 1.0), (-1.0, 1.0)], [5, 9])
        assert g.dim == 2
        assert g.num_nodes == 45
        assert g.spacing == (0.25, 0.25)
        assert g.coordinates.shape == (5, 9, 2)
        assert g.boundary_mask.sum() == 45 - 3 * 7

    def test_too_few_nodes_rejected(self):
        with pytest.raises(GridValueError):
            ParameterGrid([(0, 1)], [2])

    def test_bad_bounds_rejected(self):
        with pytest.raises(GridValueError):
            ParameterGrid([(1.0, 1.0)], [5])

    @pytest.mark.parametrize("bounds", [(-1e308, 1e308), (0.0, np.inf), (-np.inf, 0.0)],
                             ids=["overflowing_width", "inf_upper", "inf_lower"])
    def test_non_finite_width_rejected(self, bounds):
        with pytest.raises(GridValueError, match=r"^axis 1 bounds .* must be finite"):
            ParameterGrid([(0.0, 1.0), bounds], [5, 11])

    def test_grid_mismatch_error_names_both(self):
        a, b = line(0, 1, 5), line(0, 2, 5)
        with pytest.raises(GridMismatchError) as exc:
            integrate(ScalarField(a, np.ones(5)), MatrixField.identity(b))
        assert "0.0" in str(exc.value) and "2.0" in str(exc.value)


class TestIntegrate:
    def test_unit_box_volume(self):
        g = line(0, 1, 11)
        val = integrate(ScalarField(g, np.ones(11)), MatrixField.identity(g))
        assert abs(val - 1.0) <= 1e-12

    def test_gaussian_normalization(self):
        g = line(-8, 8, 2001)
        assert abs(integrate(gauss_density(g)) - 1.0) <= 1e-8

    def test_gaussian_second_moment(self):
        g = line(-8, 8, 2001)
        th = g.coordinates[..., 0]
        f = ScalarField(g, th**2 * gauss_density(g).values)
        assert abs(integrate(f) - 1.0) <= 1e-6

    def test_metric_volume_factor(self):
        # diagonal metric g = diag(4) -> sqrt|g| = 2
        g = line(0, 1, 21)
        metric = MatrixField.constant(g, [[4.0]])
        val = integrate(ScalarField(g, np.ones(21)), metric)
        assert abs(val - 2.0) <= 1e-12

    def test_non_pd_metric_rejected(self):
        g = line(0, 1, 5)
        with pytest.raises(GridValueError):
            integrate(ScalarField(g, np.ones(5)), MatrixField.constant(g, [[-1.0]]))

    def test_second_order_convergence(self):
        # smooth non-periodic integrand: error must drop ~4x per refinement
        exact = np.exp(1.0) - 1.0
        errs = []
        for n in (17, 33, 65):
            g = line(0, 1, n)
            f = ScalarField.from_callable(g, lambda c: np.exp(c[..., 0]))
            errs.append(abs(integrate(f) - exact))
        order = np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2])
        assert all(1.8 <= o <= 2.2 for o in order)


class TestVolumeElement:
    def curved(self, g):
        th = g.coordinates[..., 0]
        return MatrixField(g, (2.0 + np.sin(th))[..., None, None])

    def test_checked_and_computed_once_per_metric_field(self, monkeypatch):
        g = line(0, 1, 201)
        metric = self.curved(g)
        rho = ScalarField(g, np.sin(np.pi * g.coordinates[..., 0]) ** 4)
        v = VectorField.constant(g, [1.0])
        seen = count_linalg_calls(monkeypatch, "eigvalsh", "det")
        sqrtg = metric_sqrt_det(metric, g)
        integrate(rho, metric)
        rho_weights(rho, metric)
        weighted_divergence(rho, v, metric)
        divergence_matrix(g, rho, metric)
        assert metric_sqrt_det(metric, g) is sqrtg
        assert [len(seen["eigvalsh"]), len(seen["det"])] == [1, 1]
        # a second field object with the same values runs its own check
        twin = MatrixField(g, metric.values)
        assert np.array_equal(metric_sqrt_det(twin, g), sqrtg)
        assert [len(seen["eigvalsh"]), len(seen["det"])] == [2, 2]
        exact = np.sqrt(2.0 + np.sin(g.coordinates[..., 0]))
        assert np.allclose(sqrtg, exact, rtol=1e-14, atol=0)

    def test_read_only(self):
        g = line(0, 1, 11)
        metric = self.curved(g)
        with pytest.raises(ValueError, match="read-only"):
            metric.volume_element[3] = 1.0
        with pytest.raises(AttributeError):
            metric.volume_element = np.ones(11)

    def test_non_pd_metric_raises_on_every_call(self, monkeypatch):
        g = line(0, 1, 11)
        vals = np.ones((11, 1, 1))
        vals[3] = -1.0
        metric = MatrixField(g, vals)
        seen = count_linalg_calls(monkeypatch, "eigvalsh")
        node = r"metric is not positive definite at node index \(3,\)$"
        for _ in range(2):
            with pytest.raises(GridValueError, match=node):
                metric_sqrt_det(metric, g)
            # the check runs on every call, on eigenvalues decomposed once
            assert len(seen["eigvalsh"]) == 1


class TestGradient:
    def test_linear_field(self):
        g = line(-2, 3, 41)
        grad = gradient(ScalarField.from_callable(g, lambda c: c[..., 0]))
        assert grad.variance == "covariant"
        interior = ~g.boundary_mask
        assert np.max(np.abs(grad.values[interior, 0] - 1.0)) <= 1e-12

    def test_quadratic_exact(self):
        g = line(-1, 1, 201)
        grad = gradient(ScalarField.from_callable(g, lambda c: c[..., 0] ** 2))
        th = g.coordinates[..., 0]
        interior = ~g.boundary_mask
        assert np.max(np.abs(grad.values[..., 0] - 2 * th)[interior]) <= 1e-10

    def test_sine_truncation(self):
        g = line(0, np.pi, 401)
        grad = gradient(ScalarField.from_callable(g, lambda c: np.sin(c[..., 0])))
        th = g.coordinates[..., 0]
        interior = ~g.boundary_mask
        assert np.max(np.abs(grad.values[..., 0] - np.cos(th))[interior]) <= 1e-4

    def test_constant_gradient_zero(self):
        g = ParameterGrid([(0, 1), (0, 2)], [9, 11])
        grad = gradient(ScalarField(g, np.full(g.shape, 3.7)))
        assert np.max(np.abs(grad.values)) <= 1e-12


class TestWeightedDivergence:
    def test_gaussian_log_derivative(self):
        s2 = 1.0
        g = line(-5, 5, 50001)
        rho = gauss_density(g, s2)
        v = VectorField.constant(g, [1.0])
        with pytest.warns(UserWarning):
            d = weighted_divergence(rho, v)
        th = g.coordinates[..., 0]
        interior = ~g.boundary_mask
        assert np.max(np.abs(d.values + th / s2)[interior]) <= 1e-6

    def test_zero_field(self):
        g = line(-1, 1, 21)
        rho = ScalarField(g, np.ones(21)).normalized()
        d = weighted_divergence(rho, VectorField.constant(g, [0.0]))
        assert np.max(np.abs(d.values)) == 0.0

    def test_divergence_of_linear_field(self):
        g = line(-1, 1, 101)
        rho = ScalarField(g, np.ones(101)).normalized()
        v = VectorField.from_callable(g, lambda c: c)
        with pytest.warns(UserWarning):
            d = weighted_divergence(rho, v)
        interior = ~g.boundary_mask
        assert np.max(np.abs(d.values[interior] - 1.0)) <= 1e-12

    def test_interior_floor_violation_reports_node(self):
        g = line(-1, 1, 101)
        vals = np.ones(101)
        vals[40] = 1e-20
        rho = ScalarField(g, vals)
        with pytest.raises(GridValueError) as exc:
            weighted_divergence(rho, VectorField.constant(g, [1.0]))
        assert "interior node" in str(exc.value)
        assert "40" in str(exc.value)

    def test_covariant_input_rejected(self):
        g = line(-1, 1, 11)
        rho = ScalarField(g, np.ones(11))
        v = VectorField.constant(g, [1.0], variance="covariant")
        with pytest.raises(GridValueError):
            weighted_divergence(rho, v)

    def test_boundary_zero_density_allowed(self):
        # compact bump prior: boundary nodes below floor contribute zero
        g = line(0, 1, 201)
        th = g.coordinates[..., 0]
        rho = ScalarField(g, np.sin(np.pi * th) ** 4).normalized()
        v = VectorField.constant(g, [1.0])
        d = weighted_divergence(rho, v)
        assert np.all(np.isfinite(d.values))
        assert d.values[0] == 0.0 and d.values[-1] == 0.0


class TestIntegrationByParts:
    def test_second_order_decay(self):
        # | int phi (1/rho) div(rho v) rho eps + int v^a d_a phi rho eps | = O(dx^2)
        def residual(n):
            g = line(0, 1, n)
            th = g.coordinates[..., 0]
            rho = ScalarField(g, np.sin(np.pi * th) ** 4).normalized()
            v = VectorField(g, (1.0 + 0.3 * np.sin(2 * np.pi * th))[..., None])
            phi = ScalarField(g, np.cos(1.7 * th) + th**2)
            d = weighted_divergence(rho, v)
            lhs = integrate(ScalarField(g, phi.values * d.values * rho.values))
            gphi = gradient(phi)
            rhs = integrate(
                ScalarField(g, np.sum(v.values * gphi.values, axis=-1) * rho.values)
            )
            return abs(lhs + rhs)

        r1, r2 = residual(201), residual(401)
        assert r2 <= r1 / 3.0  # observed second-order decay


class TestSparseOperators:
    def test_diff_matrix_matches_gradient(self):
        g = ParameterGrid([(0, 1), (-1, 1)], [7, 9])
        f = ScalarField.from_callable(g, lambda c: np.sin(c[..., 0]) * c[..., 1] ** 2)
        grad = gradient(f)
        for ax in range(2):
            got = diff_matrix(g, ax) @ f.values.ravel()
            assert np.allclose(got, grad.values[..., ax].ravel(), atol=1e-13)

    @pytest.mark.parametrize("shape", [(3,), (2001,), (4, 3), (50, 7), (9, 8, 5), (3, 6, 4)])
    def test_diff_matrix_equals_loop_reference(self, shape):
        g = ParameterGrid([(-1.0 - ax, 0.5 + 2.0 * ax) for ax in range(len(shape))], shape)
        for ax in range(len(shape)):
            ref = loop_diff_matrix(g, ax)
            got = diff_matrix(g, ax)
            assert got.shape == ref.shape
            assert (got != ref).nnz == 0

    def test_divergence_matrix_matches_function(self):
        g = line(-4, 4, 801)
        rho = gauss_density(g)
        v = VectorField.from_callable(g, lambda c: 1.0 + 0.1 * c)
        with pytest.warns(UserWarning):
            d = weighted_divergence(rho, v)
        mat = divergence_matrix(g, rho)
        # component blocks are concatenated: [v^1 at all nodes, v^2 ...]
        flat = np.concatenate([v.values[..., a].ravel() for a in range(g.dim)])
        got = mat @ flat
        assert np.allclose(got, d.values.ravel(), atol=1e-12)


class TestFieldCallable:
    def test_only_sampling_sets_it(self):
        g = line(-1.0, 1.0, 11)
        fn = lambda c: 1.0 + c[..., 0] ** 2
        field = ScalarField.from_callable(g, fn)
        assert field.fn is fn
        assert replace(field, values=np.ones(11)).fn is None
        assert ScalarField(g, field.values).fn is None
        vec = VectorField.from_callable(g, lambda c: c, "covariant")
        assert vec.fn is not None and replace(vec, values=-vec.values).fn is None
        assert MatrixField.from_callable(g, lambda c: c[..., None] ** 2).fn is not None
        with pytest.raises(ValueError, match="init=False"):
            replace(field, fn=fn)

    def test_normalized_divides_the_callable(self):
        g = line(-1.0, 1.0, 11)
        rho = ScalarField.from_callable(g, lambda c: 1.0 + c[..., 0] ** 2).normalized()
        assert integrate(rho) == pytest.approx(1.0, abs=1e-15)
        assert np.array_equal(rho.fn(g.coordinates), rho.values)
        assert ScalarField(g, np.ones(11)).normalized().fn is None

    def test_normalized_refuses_an_overflowing_mass(self):
        g = line(0.0, 1e10, 11)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GridValueError, match=r"^prior integrates to inf on the grid"):
                ScalarField(g, np.full(11, 1e300)).normalized()

    def test_eigenvalues_cached_and_read_only(self, monkeypatch):
        g = line(0.0, 1.0, 11)
        metric = MatrixField.identity(g)
        seen = count_linalg_calls(monkeypatch, "eigvalsh")
        assert metric.eigenvalues is metric.eigenvalues
        assert len(seen["eigvalsh"]) == 1
        with pytest.raises(ValueError, match="read-only"):
            metric.eigenvalues[0, 0] = 2.0


class TestFieldValidation:
    def test_matrix_symmetry_enforced(self):
        g = line(0, 1, 3)
        vals = np.zeros((3, 1, 1))
        MatrixField(g, vals)  # ok
        g2 = ParameterGrid([(0, 1), (0, 1)], [3, 3])
        bad = np.zeros((3, 3, 2, 2))
        bad[..., 0, 1] = 1.0
        with pytest.raises(GridValueError):
            MatrixField(g2, bad)

    def test_fields_are_readonly(self):
        g = line(0, 1, 5)
        f = ScalarField(g, np.ones(5))
        with pytest.raises(ValueError):
            f.values[0] = 2.0

    def test_boundary_residual(self):
        g = line(-8, 8, 401)
        rho = gauss_density(g)
        v = VectorField.constant(g, [1.0])
        assert boundary_residual(rho, v) <= 1e-8
        flat = ScalarField(g, np.ones(401)).normalized()
        assert boundary_residual(flat, v) == 1.0


class TestCsvRoundTrip:
    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(GridValueError, match="line 1: missing header row"):
            read_csv(path)


class TestTrapezoidWeights:
    @pytest.mark.parametrize("lo, hi, n", [(-1.0, 1.0, 4001), (-12.3, 7.9, 8193),
                                           (0.0, 0.3, 3), (-3e-3, 5e2, 257)])
    def test_matches_hand_rolled_bits(self, lo, hi, n):
        x = np.linspace(lo, hi, n)
        ref = np.full(len(x), x[1] - x[0])
        ref[0] = ref[-1] = (x[1] - x[0]) / 2.0
        assert trapezoid_weights_1d(len(x), x[1] - x[0]).tobytes() == ref.tobytes()

    def test_grid_weights_match_per_axis_loop_bits(self):
        g = ParameterGrid([(-1.0, 2.5), (0.0, 0.7), (-3.3, 3.3)], [9, 5, 12])
        ref = np.ones(g.shape)
        for ax, (n, dx) in enumerate(zip(g.shape, g.spacing)):
            w1 = np.full(n, dx)
            w1[0] = w1[-1] = dx / 2.0
            shape = [1] * g.dim
            shape[ax] = n
            ref = ref * w1.reshape(shape)
        assert g.trapezoid_weights.tobytes() == ref.tobytes()


class TestQuadratureExactness:
    def test_bilinear_polynomial_exact(self):
        # trapezoid reproduces per-axis degree-1 polynomials exactly
        g = ParameterGrid([(0.0, 2.0), (-1.0, 3.0)], [7, 5])
        f = ScalarField.from_callable(
            g, lambda c: (1.0 + 2.0 * c[..., 0]) * (0.5 - c[..., 1]))
        exact = (2.0 + 4.0) * (0.5 * 4.0 - (9.0 - 1.0) / 2.0)
        assert abs(integrate(f) - exact) <= 1e-12 * max(abs(exact), 1.0)
