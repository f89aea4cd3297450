import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from bcrb.bounds import VectoralWeight, gill_levit_bound
from bcrb.errors import GridValueError, OperatorRangeError
from bcrb.geometry import StatisticalModel, odd_power_map, pushforward_model
from bcrb.grids import ParameterGrid, VectorField
from bcrb import optimal
from bcrb.optimal import (
    SOLVE_RTOL,
    assemble_L,
    bmax,
    gaussian_closed_form,
    solve_least_favorable,
    vectoral_bmax,
)

from conftest import (
    const_matrix_fn,
    const_vector_fn,
    gaussian_2d,
    gaussian_prior_fn,
    gaussian_scalar_model,
    line_grid,
    square_model,
    unit_field,
)


class TestAssembleL:
    def test_constant_field_gaussian_identity(self):
        # (L c)(theta) = (n F0 + 1/s2) c for a Gaussian prior, any box
        n, f0, c, s2 = 10.0, 1.0, 0.7, 1.0
        model = gaussian_scalar_model(lo=-2.0, hi=2.0, n_nodes=8001, fisher=f0)
        op = assemble_L(model, model.prior, n)
        v = VectorField.constant(model.grid, [c])
        with pytest.warns(UserWarning):
            out = op.apply(v)
        expected = (n * f0 + 1.0 / s2) * c
        # the one-node halo mixes one-sided and central stencils (locally
        # first order); the identity holds at full accuracy inside it
        strict = np.zeros(model.grid.shape, dtype=bool)
        strict[2:-2] = True
        assert np.max(np.abs(out.values[strict, 0] - expected)) <= 1e-6

    def test_uniform_prior_laplacian_eigenfunction(self):
        grid = line_grid(0.0, 1.0, 401)
        model = StatisticalModel.from_callables(
            grid,
            fisher_fn=const_matrix_fn([[0.0]]),
            weight_fn=const_vector_fn([1.0]),
            prior_fn=lambda coords: np.ones(np.asarray(coords).shape[:-1]),
        )
        op = assemble_L(model, model.prior, 0.0)
        th = grid.coordinates[..., 0]
        v = VectorField(grid, np.sin(np.pi * th)[..., None])
        out = op.apply(v)
        expected = np.pi**2 * np.sin(np.pi * th)
        strict = np.zeros(grid.shape, dtype=bool)
        strict[2:-2] = True
        rel = np.abs(out.values[strict, 0] - expected[strict]) / np.pi**2
        assert np.max(rel) <= 1e-4

    def test_zero_information_zero_field(self):
        grid = line_grid(0.0, 1.0, 101)
        model = StatisticalModel.from_callables(
            grid,
            fisher_fn=const_matrix_fn([[0.0]]),
            weight_fn=const_vector_fn([1.0]),
            prior_fn=lambda coords: np.ones(np.asarray(coords).shape[:-1]),
        )
        op = assemble_L(model, model.prior, 0.0)
        out = op.apply(VectorField.constant(grid, [0.0]))
        assert np.max(np.abs(out.values)) == 0.0

    def test_self_adjoint_and_psd(self, gauss_model):
        op = assemble_L(gauss_model, gauss_model.prior, 3.0)
        assert op.self_adjointness_defect() <= 1e-8
        rng = np.random.default_rng(3)
        for _ in range(10):
            v = rng.normal(size=op.matrix.shape[0])
            assert op.quadratic_form(v) >= -1e-10 * np.dot(v, v)


class TestSolveLeastFavorable:
    def test_gaussian_constant_solution(self):
        model = gaussian_scalar_model(n_nodes=8001)
        op = assemble_L(model, model.prior, 10.0)
        v = solve_least_favorable(op, model.weight)
        th = model.grid.coordinates[..., 0]
        # constant away from the Dirichlet boundary layer and the prior tail
        core = np.abs(th) <= 4.0
        assert np.max(np.abs(v.values[core, 0] - 1.0 / 11.0)) <= 1e-6

    def test_zero_weight_zero_solution(self, gauss_model):
        op = assemble_L(gauss_model, gauss_model.prior, 10.0)
        zero = VectorField.constant(gauss_model.grid, [0.0], variance="covariant")
        v = solve_least_favorable(op, zero)
        assert np.max(np.abs(v.values)) == 0.0

    def test_quadratic_information_self_convergence(self):
        def solve(n_nodes):
            grid = line_grid(-6.0, 6.0, n_nodes)
            model = StatisticalModel.from_callables(
                grid,
                fisher_fn=lambda c: (np.asarray(c)[..., 0] ** 2)[..., None, None],
                weight_fn=const_vector_fn([1.0]),
                prior_fn=gaussian_prior_fn(1.0),
            )
            op = assemble_L(model, model.prior, 4.0)
            return grid, solve_least_favorable(op, model.weight)

        g_coarse, coarse = solve(2001)
        _, fine = solve(8001)
        ref = fine.values[::4, 0]
        scale = np.max(np.abs(ref))
        th = g_coarse.coordinates[..., 0]
        core = np.abs(th) <= 5.5  # outside the Dirichlet boundary layer
        assert np.max(np.abs(coarse.values[core, 0] - ref[core])) / scale <= 1e-4

    def test_out_of_range_detected(self, gauss_model):
        op = assemble_L(gauss_model, gauss_model.prior, 10.0)
        broken = sp.csr_matrix(op.matrix.shape)
        object.__setattr__(op, "matrix", broken)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(OperatorRangeError, match="range"):
                solve_least_favorable(op, gauss_model.weight)


class TestBmax:
    def test_gaussian_one_eleventh(self, gauss_model):
        rep = bmax(gauss_model, n=10.0)
        assert abs(rep.bound - 1.0 / 11.0) <= 1e-6 / 11.0
        assert rep.attaining_v is not None

    def test_matches_closed_form(self, gauss_model):
        rep = bmax(gauss_model, n=10.0)
        oracle = gaussian_closed_form(1.0, 1.0, 1.0, 10.0)
        assert abs(rep.bound - oracle) <= 1e-6 * oracle

    def test_large_n_approaches_local_theory(self):
        model = gaussian_scalar_model(lo=-7.0, hi=7.0, n_nodes=2001)
        n = 1e6
        rep = bmax(model, n=n)
        assert abs(n * rep.bound - 1.0) <= 1e-3

    def test_zero_weight(self):
        model = gaussian_scalar_model(weight=0.0, n_nodes=801)
        rep = bmax(model, n=10.0)
        assert rep.bound == 0.0

    def test_optimality_over_random_fields(self, gauss_model):
        rng = np.random.default_rng(42)
        rep = bmax(gauss_model, n=10.0)
        th = gauss_model.grid.coordinates[..., 0]
        for _ in range(50):
            coeffs = rng.normal(size=4)
            vals = (
                coeffs[0]
                + coeffs[1] * th / 8.0
                + coeffs[2] * (th / 8.0) ** 2
                + coeffs[3] * np.sin(th)
            )
            b = gill_levit_bound(
                gauss_model, gauss_model.prior,
                VectorField(gauss_model.grid, vals[..., None]), 10.0,
            ).bound
            assert b <= rep.bound + 1e-8

    def test_invariant_under_cube_map(self, bump_model):
        rep_src = bmax(bump_model, n=10.0)
        cube = odd_power_map(3)
        n_tgt = 14 * (bump_model.grid.shape[0] - 1) // 3 + 1
        from bcrb.geometry import derive_target_grid

        tgt = derive_target_grid(cube, bump_model.grid, (n_tgt,))
        pushed = pushforward_model(bump_model, cube, tgt)
        rep_tgt = bmax(pushed, n=10.0)
        assert abs(rep_tgt.bound - rep_src.bound) <= 1e-5 * rep_src.bound

    def test_grid_convergence_at_least_second_order(self):
        oracle = gaussian_closed_form(1.0, 1.0, 1.0, 10.0)
        errs = []
        for n_nodes in (251, 501, 1001):
            model = gaussian_scalar_model(n_nodes=n_nodes)
            errs.append(abs(bmax(model, n=10.0).bound - oracle))
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert all(o >= 1.8 for o in orders)


class TestGaussianClosedForm:
    def test_scalar(self):
        assert abs(gaussian_closed_form(1.0, 1.0, 1.0, 10.0) - 1.0 / 11.0) <= 1e-15

    def test_zero_weight(self):
        assert gaussian_closed_form(1.0, 1.0, 0.0, 10.0) == 0.0

    def test_diagonal_2d(self):
        val = gaussian_closed_form(np.diag([1.0, 2.0]), np.eye(2), [1.0, 1.0], 2.0)
        assert abs(val - (1.0 / 3.0 + 1.0 / 5.0)) <= 1e-14

    def test_non_pd_rejected(self):
        with pytest.raises(GridValueError, match="positive definite"):
            gaussian_closed_form(-1.0, 0.0, 1.0, 1.0)


def decoupled_setup(n_nodes=81):
    grid = ParameterGrid([(-6.5, 6.5), (-6.5, 6.5)], [n_nodes, n_nodes])

    def fisher_fn(c):
        c = np.asarray(c)
        out = np.zeros(c.shape[:-1] + (2, 2))
        out[..., 0, 0] = 1.0
        out[..., 1, 1] = 2.0
        return out

    model = StatisticalModel.from_callables(
        grid,
        fisher_fn=fisher_fn,
        weight_fn=const_vector_fn([1.0, 1.0]),
        prior_fn=lambda c: np.exp(-np.sum(np.asarray(c) ** 2, axis=-1) / 2.0),
    )
    u1 = VectorField.constant(grid, [1.0, 0.0], variance="covariant")
    u2 = VectorField.constant(grid, [0.0, 1.0], variance="covariant")
    return model, u1, u2


class TestVectoralBmax:
    def test_q1_equals_scalar(self, gauss_model):
        weights = VectoralWeight(
            gauss_model.grid, np.array([[1.0]]), (gauss_model.weight,),
            (unit_field(gauss_model.grid),),
        )
        rep_vec = vectoral_bmax(gauss_model, gauss_model.prior, weights, 10.0)
        rep_scl = bmax(gauss_model, n=10.0)
        assert abs(rep_vec.bound - rep_scl.bound) <= 1e-10

    def test_decoupled_blocks_sum(self):
        model, u1, u2 = decoupled_setup()
        grid = model.grid
        weights = VectoralWeight(
            grid, np.eye(2), (u1, u2),
            (VectorField.constant(grid, [1.0, 0.0]), VectorField.constant(grid, [0.0, 1.0])),
        )
        rep = vectoral_bmax(model, model.prior, weights, 4.0)

        def scalar_bmax(fisher, n_nodes=81):
            g1 = line_grid(-6.5, 6.5, n_nodes)
            m = StatisticalModel.from_callables(
                g1,
                fisher_fn=const_matrix_fn([[fisher]]),
                weight_fn=const_vector_fn([1.0]),
                prior_fn=gaussian_prior_fn(1.0),
            )
            return bmax(m, n=4.0).bound

        expected = scalar_bmax(1.0) + scalar_bmax(2.0)
        assert abs(rep.bound - expected) <= 1e-8

    def test_gamma_scaling(self, gauss_model):
        base = VectoralWeight(
            gauss_model.grid, np.array([[1.0]]), (gauss_model.weight,),
            (unit_field(gauss_model.grid),),
        )
        scaled = VectoralWeight(
            gauss_model.grid, np.array([[3.0]]), (gauss_model.weight,),
            (unit_field(gauss_model.grid),),
        )
        b1 = vectoral_bmax(gauss_model, gauss_model.prior, base, 10.0).bound
        b3 = vectoral_bmax(gauss_model, gauss_model.prior, scaled, 10.0).bound
        assert abs(b3 - 3.0 * b1) <= 1e-10 * b1


SOLVE_KEYS = {"solver", "iterations", "relative_residual", "unknowns", "nnz", "fallback"}


def theta1_squared_fisher(c):
    """F = diag(theta_1^2, 1): information vanishing quadratically on a line."""
    c = np.asarray(c)
    out = np.zeros(c.shape[:-1] + (2, 2))
    out[..., 0, 0] = c[..., 0] ** 2
    out[..., 1, 1] = 1.0
    return out


def gaussian_bump_2d(lo, hi):
    """Gaussian envelope times a sin^4 window on each axis (compact support)."""
    def fn(c):
        c = np.asarray(c)
        s = np.clip((c - lo) / (hi - lo), 0.0, 1.0)
        window = np.prod(np.sin(np.pi * s) ** 4, axis=-1)
        return np.exp(-np.sum((c - 1.2) ** 2, axis=-1) / 0.18) * window
    return fn


# the hard set for the 2-D PCG path: name -> (model builder, n)
HARD_SET = {
    "theta1_squared": (
        lambda: square_model(121, theta1_squared_fisher, gaussian_2d, -8.0, 8.0), 1.0),
    "gaussian_bump": (
        lambda: square_model(81, const_matrix_fn(np.eye(2)), gaussian_bump_2d(0.5, 2.0),
                             0.5, 2.0), 1.0),
    "small_n": (
        lambda: square_model(121, const_matrix_fn(np.eye(2)), gaussian_2d, -8.0, 8.0), 0.01),
}


def direct_alignment(model, n):
    """<u, L^{-1} u> from a direct sparse solve of the assembled system."""
    op = assemble_L(model, model.prior, n)
    rhs = op.weight * optimal._interior_dofs(model.weight.values, op.interior)
    return float(rhs @ spla.spsolve(sp.csc_matrix(op.matrix), rhs))


class TestSolverPolicy:
    def test_one_dimensional_is_direct(self, gauss_model):
        rep = bmax(gauss_model, n=10.0)
        op = assemble_L(gauss_model, gauss_model.prior, 10.0)
        assert SOLVE_KEYS <= set(rep.diagnostics)
        assert rep.diagnostics["solver"] == "direct"
        assert rep.diagnostics["iterations"] == 0
        assert rep.diagnostics["fallback"] is None
        assert rep.diagnostics["unknowns"] == op.matrix.shape[0]
        assert rep.diagnostics["nnz"] == op.matrix.nnz
        assert rep.diagnostics["relative_residual"] <= SOLVE_RTOL

    @pytest.mark.parametrize("case", sorted(HARD_SET))
    def test_pcg_matches_direct_on_hard_set(self, case):
        build, n = HARD_SET[case]
        model = build()
        rep = bmax(model, n=n)
        assert rep.diagnostics["solver"] == "pcg"
        assert rep.diagnostics["fallback"] is None
        assert 0 < rep.diagnostics["iterations"] < optimal.CG_MAXITER
        assert rep.diagnostics["relative_residual"] <= SOLVE_RTOL
        ref = direct_alignment(model, n)
        assert abs(rep.bound - ref) <= 1e-9 * ref

    def test_iteration_cap_forces_recorded_fallback(self, monkeypatch):
        model = square_model(41, const_matrix_fn(np.eye(2)), gaussian_2d)
        monkeypatch.setattr(optimal, "CG_MAXITER", 2)
        with pytest.warns(RuntimeWarning, match="falling back to the direct solve"):
            rep = bmax(model, n=1.0)
        assert rep.diagnostics["solver"] == "direct"
        assert rep.diagnostics["iterations"] == 2
        assert "pcg flag 2" in rep.diagnostics["fallback"]
        ref = direct_alignment(model, 1.0)
        assert rep.alignment == ref
        assert abs(rep.bound - ref) <= 1e-12 * ref

    def test_vectoral_carries_solve_fields(self):
        model, u1, u2 = decoupled_setup(41)
        grid = model.grid
        weights = VectoralWeight(
            grid, np.eye(2), (u1, u2),
            (VectorField.constant(grid, [1.0, 0.0]), VectorField.constant(grid, [0.0, 1.0])),
        )
        rep = vectoral_bmax(model, model.prior, weights, 4.0)
        assert SOLVE_KEYS <= set(rep.diagnostics)
        assert rep.diagnostics["solver"] == "pcg"
        assert rep.diagnostics["unknowns"] == 2 * 2 * 39 * 39
        assert rep.diagnostics["relative_residual"] <= SOLVE_RTOL
