import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from bcrb.bounds import VectoralWeight, functionals, gill_levit_bound, vectoral_bound
from bcrb.errors import DegenerateBoundError, GridValueError, OperatorRangeError
from bcrb.geometry import StatisticalModel, odd_power_map, pushforward_model
from bcrb.grids import (
    MatrixField,
    ParameterGrid,
    ScalarField,
    VectorField,
    _tiny_density_mask,
    divergence_matrix,
    integrate,
    rho_weights,
)
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
    bump_scalar_model,
    const_matrix_fn,
    const_vector_fn,
    gaussian_2d,
    gaussian_bump_fn,
    gaussian_prior_fn,
    gaussian_scalar_model,
    line_grid,
    square_model,
)


def applied(op, v):
    """Lv on the full grid from the assembled matrix: matrix @ dofs / weight
    at interior nodes, zero on the boundary."""
    dofs = optimal._interior_dofs(v.values, op.interior)
    return optimal._full_grid(op.grid, op.interior, op.matrix @ dofs / op.weight)


class TestAssembleL:
    def test_constant_field_gaussian_identity(self):
        # (L c)(theta) = (n F0 + 1/s2) c for a Gaussian prior, any box
        n, f0, c, s2 = 10.0, 1.0, 0.7, 1.0
        model = gaussian_scalar_model(lo=-2.0, hi=2.0, n_nodes=8001, fisher=f0)
        op = assemble_L(model, n)
        out = applied(op, VectorField.constant(model.grid, [c]))
        expected = (n * f0 + 1.0 / s2) * c
        # the matrix holds v = 0 on the boundary and the composed stencils
        # carry that two nodes in; the identity holds at full accuracy inside
        strict = np.zeros(model.grid.shape, dtype=bool)
        strict[3:-3] = True
        assert np.max(np.abs(out[strict, 0] - expected)) <= 1e-6

    def test_uniform_prior_laplacian_eigenfunction(self):
        grid = line_grid(0.0, 1.0, 401)
        model = StatisticalModel.from_callables(
            grid,
            fisher_fn=const_matrix_fn([[0.0]]),
            weight_fn=const_vector_fn([1.0]),
            prior_fn=lambda coords: np.ones(np.asarray(coords).shape[:-1]),
        )
        op = assemble_L(model, 0.0)
        th = grid.coordinates[..., 0]
        out = applied(op, VectorField(grid, np.sin(np.pi * th)[..., None]))
        expected = np.pi**2 * np.sin(np.pi * th)
        strict = np.zeros(grid.shape, dtype=bool)
        strict[3:-3] = True
        rel = np.abs(out[strict, 0] - expected[strict]) / np.pi**2
        assert np.max(rel) <= 1e-4

    def test_zero_information_zero_field(self):
        grid = line_grid(0.0, 1.0, 101)
        model = StatisticalModel.from_callables(
            grid,
            fisher_fn=const_matrix_fn([[0.0]]),
            weight_fn=const_vector_fn([1.0]),
            prior_fn=lambda coords: np.ones(np.asarray(coords).shape[:-1]),
        )
        op = assemble_L(model, 0.0)
        out = applied(op, VectorField.constant(grid, [0.0]))
        assert np.max(np.abs(out)) == 0.0

    def test_self_adjoint_and_psd(self, gauss_model):
        op = assemble_L(gauss_model, 3.0)
        assert (op.matrix != op.matrix.T).nnz == 0
        rng = np.random.default_rng(3)
        for _ in range(10):
            v = rng.normal(size=op.matrix.shape[0])
            assert v @ (op.matrix @ v) >= -1e-10 * np.dot(v, v)


class TestSolveLeastFavorable:
    def test_gaussian_constant_solution(self):
        model = gaussian_scalar_model(n_nodes=8001)
        op = assemble_L(model, 10.0)
        v = solve_least_favorable(op, model.weight)
        th = model.grid.coordinates[..., 0]
        # constant away from the Dirichlet boundary layer and the prior tail
        core = np.abs(th) <= 4.0
        assert np.max(np.abs(v.values[core, 0] - 1.0 / 11.0)) <= 1e-6

    def test_zero_weight_zero_solution(self, gauss_model):
        op = assemble_L(gauss_model, 10.0)
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
            op = assemble_L(model, 4.0)
            return grid, solve_least_favorable(op, model.weight)

        g_coarse, coarse = solve(2001)
        _, fine = solve(8001)
        ref = fine.values[::4, 0]
        scale = np.max(np.abs(ref))
        th = g_coarse.coordinates[..., 0]
        core = np.abs(th) <= 5.5  # outside the Dirichlet boundary layer
        assert np.max(np.abs(coarse.values[core, 0] - ref[core])) / scale <= 1e-4

    def test_out_of_range_detected(self, gauss_model):
        op = assemble_L(gauss_model, 10.0)
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

    def test_negative_prior_named(self):
        def prior_fn(coords):
            values = gaussian_prior_fn()(coords)
            values[400] = -0.13
            return values

        model = StatisticalModel.from_callables(
            line_grid(-8.0, 8.0, 801), fisher_fn=const_matrix_fn([[1.0]]),
            weight_fn=const_vector_fn([1.0]), prior_fn=prior_fn)
        with pytest.raises(GridValueError, match="density has negative values"):
            bmax(model, n=10.0)

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

    @pytest.mark.parametrize("which", ["fisher", "prior_curvature"])
    def test_non_square_rejected(self, which):
        args = {"fisher": np.eye(2), "prior_curvature": np.eye(2)}
        args[which] = np.ones((2, 3))
        with pytest.raises(GridValueError, match=f"{which} has shape \\(2, 3\\).*square"):
            gaussian_closed_form(args["fisher"], args["prior_curvature"], [1.0, 1.0], 1.0)

    @pytest.mark.parametrize("which", ["fisher", "prior_curvature", "weight"])
    def test_size_mismatch_rejected(self, which):
        args = {"fisher": np.eye(2), "prior_curvature": np.eye(2), "weight": [1.0, 1.0]}
        args[which] = np.eye(3) if which != "weight" else [1.0, 1.0, 1.0]
        with pytest.raises(GridValueError, match="weight has shape"):
            gaussian_closed_form(args["fisher"], args["prior_curvature"], args["weight"], 1.0)

    @pytest.mark.parametrize("which", ["fisher", "prior_curvature"])
    def test_asymmetric_rejected(self, which):
        # Cholesky reads one triangle only: [[1, 2], [0, 1]] would pass as
        # [[1, 0], [0, 1]]
        args = {"fisher": np.eye(2), "prior_curvature": np.eye(2)}
        args[which] = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(GridValueError, match=f"{which} asymmetry"):
            gaussian_closed_form(args["fisher"], args["prior_curvature"], [1.0, 1.0], 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("which", ["fisher", "prior_curvature", "weight"])
    def test_non_finite_rejected(self, which, bad):
        # NaN would pass the symmetry check and return nan; inf would return 0
        args = {"fisher": 1.0, "prior_curvature": 1.0, "weight": 1.0, which: bad}
        with pytest.raises(GridValueError, match=f"{which} has non-finite"):
            gaussian_closed_form(args["fisher"], args["prior_curvature"], args["weight"], 1.0)

    def test_asymmetry_within_tolerance_accepted(self):
        f = np.array([[2.0, 1.0], [1.0 + 1e-13, 2.0]])
        sym = (f + f.T) / 2.0
        assert (abs(gaussian_closed_form(f, np.eye(2), [1.0, 1.0], 1.0)
                    - gaussian_closed_form(sym, np.eye(2), [1.0, 1.0], 1.0)) <= 1e-12)


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
        weights = VectoralWeight(gauss_model.grid, np.array([[1.0]]), (gauss_model.weight,))
        rep_vec = vectoral_bmax(gauss_model, weights, 10.0)
        rep_scl = bmax(gauss_model, n=10.0)
        # one operator, solve and report path: bit for bit, not to rounding
        for name in ("alignment", "information", "prior_information", "bound"):
            assert getattr(rep_vec, name) == getattr(rep_scl, name), name
        assert rep_vec.diagnostics == rep_scl.diagnostics

    def test_decoupled_blocks_sum(self):
        model, u1, u2 = decoupled_setup()
        grid = model.grid
        weights = VectoralWeight(grid, np.eye(2), (u1, u2))
        rep = vectoral_bmax(model, weights, 4.0)

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
        base = VectoralWeight(gauss_model.grid, np.array([[1.0]]), (gauss_model.weight,))
        scaled = VectoralWeight(gauss_model.grid, np.array([[3.0]]), (gauss_model.weight,))
        b1 = vectoral_bmax(gauss_model, base, 10.0).bound
        b3 = vectoral_bmax(gauss_model, scaled, 10.0).bound
        assert abs(b3 - 3.0 * b1) <= 1e-10 * b1


class TestOneFunctionalKernel:
    """B_max is reported as the Gill-Levit bound of its attaining field."""

    @pytest.mark.parametrize("n", [10.0, 1e8])
    @pytest.mark.parametrize("name", ["gauss_model", "bump_model"])
    def test_bmax_functionals_are_those_of_its_field(self, request, name, n):
        model = request.getfixturevalue(name)
        rep = bmax(model, n=n)
        assert (rep.alignment, rep.information, rep.prior_information) == functionals(
            model, rep.attaining_v)

    def test_prior_functional_summed_directly_at_large_n(self, gauss_model):
        # v* = 1/(n+1) for F = 1 and a unit Gaussian prior, so <P> = 1/(n+1)^2;
        # <v*, Lv*> - n<F> would lose about eps n<F>/<P> = 1e-8 of it
        n = 1e8
        rep = bmax(gauss_model, n=n)
        exact = 1.0 / (n + 1.0) ** 2
        assert abs(rep.prior_information - exact) <= 1e-8 * exact

    def test_underflowed_functionals_are_loud(self, gauss_model):
        # v* = 1/(n+1), so <F> ~ 1/n^2 leaves the normal range near n = 1e154
        assert abs(1e150 * bmax(gauss_model, n=1e150).bound - 1.0) <= 1e-12
        with pytest.raises(GridValueError, match=r"information .* underflowed .* n = 1e\+160"):
            bmax(gauss_model, n=1e160)
        degenerate = r"^degenerate direction: .* n = 1e\+170, or the functionals underflowed"
        with pytest.raises(DegenerateBoundError, match=degenerate):
            bmax(gauss_model, n=1e170)

    def test_vectoral_bmax_functionals_are_those_of_its_fields(self):
        model, u1, u2 = decoupled_setup(41)
        grid, n = model.grid, 1e8
        weights = VectoralWeight(grid, np.eye(2), (u1, u2))
        rep = vectoral_bmax(model, weights, n)

        gamma_inv = weights.gamma_inverse().reshape(grid.num_nodes, 2, 2)
        matrix, w, interior = optimal._assemble_system(model, n, gamma_inv)
        rhs = np.concatenate([np.tile(w[interior], 2) * optimal._interior_dofs(u.values, interior)
                              for u in (u1, u2)])
        sol, _ = optimal._solve_system(matrix, rhs, grid.dim)
        fields = tuple(VectorField(grid, optimal._full_grid(grid, interior, block))
                       for block in np.split(sol, 2))
        ref = vectoral_bound(model, weights, fields, n)
        assert (rep.alignment, rep.information, rep.prior_information) == (
            ref.alignment, ref.information, ref.prior_information)
        assert rep.diagnostics["boundary_residual"] == ref.diagnostics["boundary_residual"]
        assert len(rep.attaining_v) == 2
        for got, want in zip(rep.attaining_v, fields):
            assert np.array_equal(got.values, want.values)


def triple_product_system(model, prior, n, gamma_inv):
    """The field-equation matrix as the sparse triple product D^T W D of the
    divergence matrix, block by block: the reference for _assemble_system."""
    grid = model.grid
    p, num = grid.dim, grid.num_nodes
    w = rho_weights(prior, model.metric).ravel()
    interior = np.flatnonzero(~grid.boundary_mask.ravel())
    div = divergence_matrix(grid, prior, model.metric)
    div_int = sp.csr_matrix(div[:, np.concatenate([interior + a * num for a in range(p)])])
    f_int = model.fisher.values.reshape(num, p, p)[interior]
    q = gamma_inv.shape[-1]
    blocks = []
    for j in range(q):
        row = []
        for k in range(q):
            wg = w * gamma_inv[:, j, k]
            info_term = sp.bmat([[sp.diags(wg[interior] * f_int[:, a, b]) for b in range(p)]
                                 for a in range(p)])
            prior_term = div_int.T @ sp.diags(wg) @ div_int
            row.append((n * info_term + prior_term).tocsr())
        blocks.append(row)
    return sp.bmat(blocks, format="csr"), w, interior


def with_curved_metric(model):
    """The model under a non-constant, non-diagonal metric, its prior renormalized."""
    x = model.grid.coordinates
    p = model.grid.dim
    metric = np.eye(p) * (1.5 + 0.5 * np.sin(x[..., :1, None]))
    metric = metric + 0.2 * np.cos(x[..., :1, None]) * (np.ones((p, p)) - np.eye(p))
    metric = MatrixField(model.grid, metric)
    prior = ScalarField(model.grid, model.prior.values / integrate(model.prior, metric))
    return dataclasses.replace(model, metric=metric, prior=prior)


def coupled_fisher_fn(c):
    """Non-diagonal information that varies over the grid."""
    c = np.asarray(c)
    p = c.shape[-1]
    off = (np.ones((p, p)) - np.eye(p)) * np.exp(-np.sum(c**2, axis=-1))[..., None, None]
    return np.eye(p) * (2.0 + np.tanh(c[..., :1, None])) + 0.3 * off


def cube_model(dim, nodes, half, fisher_fn=coupled_fisher_fn):
    """Unit weight and a standard Gaussian prior on a cube."""
    grid = ParameterGrid([(-half, half)] * dim, [nodes] * dim)
    return StatisticalModel.from_callables(
        grid, fisher_fn=fisher_fn, weight_fn=const_vector_fn([1.0] * dim),
        prior_fn=lambda c: np.exp(-0.5 * np.sum(np.asarray(c) ** 2, axis=-1)))


def assert_matches_triple_product(model, n, gamma_inv):
    got = optimal._assemble_system(model, n, gamma_inv)
    ref = triple_product_system(model, model.prior, n, gamma_inv)
    mat, want = got[0], ref[0]
    assert abs(mat - want).max() <= 1e-14 * abs(want).max()
    assert mat.nnz == want.nnz
    assert (mat != mat.T).nnz == 0
    assert mat.has_sorted_indices
    assert np.array_equal(got[1], ref[1]) and np.array_equal(got[2], ref[2])


class TestStencilAssembly:
    """_assemble_system builds the triple product D^T W D from its stencil."""

    def test_line_with_tail_below_density_floor(self):
        grid = line_grid(0.5, 2.0, 201)
        model = StatisticalModel.from_callables(
            grid, fisher_fn=lambda c: (1.0 + np.asarray(c)[..., 0] ** 2)[..., None, None],
            weight_fn=const_vector_fn([1.0]),
            prior_fn=gaussian_bump_fn(0.5, 2.0, 1.0, 0.01))
        assert np.any(_tiny_density_mask(grid, model.prior.values)[1:-1])
        assert_matches_triple_product(model, 3.0, np.ones((grid.num_nodes, 1, 1)))

    @pytest.mark.parametrize("dim, nodes, half", [(2, 41, 6.0), (3, 13, 5.0)])
    def test_curved_metric_and_coupled_information(self, dim, nodes, half):
        model = with_curved_metric(cube_model(dim, nodes, half))
        assert_matches_triple_product(model, 2.5, np.ones((model.grid.num_nodes, 1, 1)))

    def test_two_components_with_varying_weight_matrix(self):
        model, u1, u2 = decoupled_setup(41)
        x = model.grid.coordinates
        gamma = np.empty(model.grid.shape + (2, 2))
        gamma[..., 0, 0] = 2.0 + np.sin(x[..., 0])
        gamma[..., 1, 1] = 1.5 + 0.5 * np.cos(x[..., 1])
        gamma[..., 0, 1] = gamma[..., 1, 0] = 0.4 * np.cos(x[..., 0] * x[..., 1])
        weights = VectoralWeight(model.grid, gamma, (u1, u2))
        gamma_inv = weights.gamma_inverse().reshape(model.grid.num_nodes, 2, 2)
        assert_matches_triple_product(model, 4.0, gamma_inv)

    @pytest.mark.parametrize("dim, nodes, half", [(2, 321, 8.0), (3, 41, 6.0)])
    def test_memory_bounded(self, dim, nodes, half):
        # the benchmark's Gaussian ladder models; the first call fills the grid caches
        model = cube_model(dim, nodes, half, const_matrix_fn(np.eye(dim)))
        assemble_L(model, 10.0)
        tracemalloc.start()
        try:
            mat = assemble_L(model, 10.0).matrix
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * (mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes)


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
    op = assemble_L(model, n)
    rhs = op.weight * optimal._interior_dofs(model.weight.values, op.interior)
    return float(rhs @ spla.spsolve(sp.csc_matrix(op.matrix), rhs))


class TestSolverPolicy:
    def test_one_dimensional_is_direct(self, gauss_model):
        rep = bmax(gauss_model, n=10.0)
        op = assemble_L(gauss_model, 10.0)
        assert SOLVE_KEYS <= set(rep.diagnostics)
        assert rep.diagnostics["solver"] == "banded_cholesky"
        assert rep.diagnostics["iterations"] == 0
        assert rep.diagnostics["fallback"] is None
        assert rep.diagnostics["unknowns"] == op.matrix.shape[0]
        assert rep.diagnostics["nnz"] == op.matrix.nnz
        assert rep.diagnostics["relative_residual"] <= SOLVE_RTOL

    def test_failed_banded_cholesky_forces_recorded_fallback(self, gauss_model, monkeypatch):
        def failing(*args, **kwargs):
            raise optimal.LinAlgError("3th leading minor not positive definite")

        monkeypatch.setattr(scipy.linalg, "solveh_banded", failing)
        with pytest.warns(RuntimeWarning, match="falling back to the direct solve"):
            rep = bmax(gauss_model, n=10.0)
        assert rep.diagnostics["solver"] == "direct"
        assert rep.diagnostics["fallback"] == (
            "banded Cholesky failed: 3th leading minor not positive definite")
        # the fallback's field is the direct sparse solve of the same system
        op = assemble_L(gauss_model, 10.0)
        rhs = op.weight * optimal._interior_dofs(gauss_model.weight.values, op.interior)
        direct = spla.spsolve(sp.csc_matrix(op.matrix), rhs)
        assert np.array_equal(
            optimal._interior_dofs(rep.attaining_v.values, op.interior), direct)
        ref = direct_alignment(gauss_model, 10.0)
        assert abs(rep.bound - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("n", [1.0, 1e2, 1e4])
    def test_banded_matches_direct_on_bump(self, n):
        # the sweeps model: its prior decays like sin^4 into both ends
        model = bump_scalar_model(n_nodes=20001)
        rep = bmax(model, n=n)
        assert rep.diagnostics["solver"] == "banded_cholesky"
        ref = direct_alignment(model, n)
        assert abs(rep.bound - ref) <= 1e-9 * ref

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
        # the fallback's field is the direct sparse solve of the same system
        op = assemble_L(model, 1.0)
        rhs = op.weight * optimal._interior_dofs(model.weight.values, op.interior)
        direct = spla.spsolve(sp.csc_matrix(op.matrix), rhs)
        assert np.array_equal(
            optimal._interior_dofs(rep.attaining_v.values, op.interior), direct)
        ref = direct_alignment(model, 1.0)
        assert abs(rep.bound - ref) <= 1e-12 * ref

    def test_vectoral_carries_solve_fields(self):
        model, u1, u2 = decoupled_setup(41)
        grid = model.grid
        weights = VectoralWeight(grid, np.eye(2), (u1, u2))
        rep = vectoral_bmax(model, weights, 4.0)
        assert SOLVE_KEYS <= set(rep.diagnostics)
        assert rep.diagnostics["solver"] == "pcg"
        assert rep.diagnostics["unknowns"] == 2 * 2 * 39 * 39
        assert rep.diagnostics["relative_residual"] <= SOLVE_RTOL
