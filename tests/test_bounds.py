from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

from bcrb import scenarios
from bcrb.bounds import (
    BoundReport,
    VectoralWeight,
    functionals,
    gill_levit_bound,
    natural_v,
    van_trees_v,
    vectoral_bound,
)
from bcrb.errors import (
    BoundaryConditionError,
    DegenerateBoundError,
    GridValueError,
    SingularInformationError,
)
from bcrb.geometry import StatisticalModel, invariance_report, odd_power_map, pushforward_model
from bcrb.grids import MatrixField, ParameterGrid, ScalarField, VectorField, rho_weights
from bcrb.optimal import bmax, gaussian_closed_form, vectoral_bmax
from bcrb.quantum import qmax

from conftest import (
    bump_scalar_model,
    const_matrix_fn,
    const_vector_fn,
    count_linalg_calls,
    gaussian_scalar_model,
    line_grid,
    unit_field,
    weighted_divergence,
    window_bump_fn,
)


class TestFunctionals:
    def test_gaussian_unit_triple(self, gauss_model):
        v = unit_field(gauss_model.grid)
        a, f, p = functionals(gauss_model, v)
        assert abs(a - 1.0) <= 1e-6
        assert abs(f - 1.0) <= 1e-6
        assert abs(p - 1.0) <= 1e-6

    def test_zero_field(self, gauss_model):
        v = VectorField.constant(gauss_model.grid, [0.0])
        a, f, p = functionals(gauss_model, v)
        assert (a, f, p) == (0.0, 0.0, 0.0)

    def test_zero_information_positive_prior_term(self):
        grid = line_grid(0.0, 1.0, 801)
        model = StatisticalModel.from_callables(
            grid,
            fisher_fn=const_matrix_fn([[0.0]]),
            weight_fn=const_vector_fn([1.0]),
            prior_fn=window_bump_fn(0.0, 1.0),
        )
        v = VectorField.from_callable(grid, lambda c: np.ones_like(c))
        a, f, p = functionals(model, v)
        assert f == 0.0
        assert p > 0.0

    def test_boundary_violation_is_hard_error(self):
        grid = line_grid(-1.0, 1.0, 201)
        model = StatisticalModel.from_callables(
            grid,
            fisher_fn=const_matrix_fn([[1.0]]),
            weight_fn=const_vector_fn([1.0]),
            prior_fn=lambda c: np.ones(np.asarray(c).shape[:-1]),
        )
        with pytest.raises(BoundaryConditionError, match="enlarge the domain"):
            functionals(model, unit_field(grid))


class TestGillLevitBound:
    def test_gaussian_one_eleventh(self, gauss_model):
        rep = gill_levit_bound(gauss_model, gauss_model.prior, unit_field(gauss_model.grid), 10.0)
        assert abs(rep.bound - 1.0 / 11.0) <= 1e-6

    @pytest.mark.parametrize("evaluate", [
        lambda model, v: functionals(model, v),
        lambda model, v: gill_levit_bound(model, model.prior, v, 1.0),
        lambda model, v: vectoral_bound(
            model, VectoralWeight(model.grid, [[1.0]], (model.weight,)), (v,), 1.0),
    ], ids=["functionals", "gill_levit_bound", "vectoral_bound"])
    def test_covariant_field_refused(self, evaluate):
        # the bound is invariant only for a contravariant v; a covariant one
        # with the same components would give a finite bound in one chart
        model = gaussian_scalar_model(n_nodes=401)
        v = VectorField.constant(model.grid, [1.0], variance="covariant")
        with pytest.raises(GridValueError, match="contravariant"):
            evaluate(model, v)

    def test_zero_weight_gives_zero(self):
        model = gaussian_scalar_model(weight=0.0)
        rep = gill_levit_bound(model, model.prior, unit_field(model.grid), 10.0)
        assert rep.bound == 0.0

    def test_prior_only_variance(self, gauss_model):
        rep = gill_levit_bound(gauss_model, gauss_model.prior, unit_field(gauss_model.grid), 0.0)
        assert abs(rep.bound - 1.0) <= 1e-6

    def test_zero_denominator_raises(self):
        grid = line_grid(-1.0, 1.0, 101)
        model = StatisticalModel.from_callables(
            grid,
            fisher_fn=const_matrix_fn([[0.0]]),
            weight_fn=const_vector_fn([1.0]),
            prior_fn=window_bump_fn(-1.0, 1.0),
        )
        v = VectorField.constant(grid, [0.0])
        with pytest.raises(DegenerateBoundError):
            gill_levit_bound(model, model.prior, v, 1.0)

    def test_scaling_invariance_in_v(self, gauss_model):
        rng = np.random.default_rng(7)
        th = gauss_model.grid.coordinates[..., 0]
        base = 1.0 + 0.2 * np.sin(th) + 0.05 * th
        b0 = gill_levit_bound(
            gauss_model, gauss_model.prior,
            VectorField(gauss_model.grid, base[..., None]), 5.0,
        ).bound
        for _ in range(5):
            c = rng.uniform(0.1, 10.0) * rng.choice([-1.0, 1.0])
            b = gill_levit_bound(
                gauss_model, gauss_model.prior,
                VectorField(gauss_model.grid, (c * base)[..., None]), 5.0,
            ).bound
            assert abs(b - b0) <= 1e-10 * abs(b0)

    def test_positivity_and_zero_iff_alignment_zero(self, gauss_model):
        rng = np.random.default_rng(11)
        th = gauss_model.grid.coordinates[..., 0]
        for _ in range(20):
            coeffs = rng.normal(size=3)
            vals = coeffs[0] + coeffs[1] * th / 8.0 + coeffs[2] * (th / 8.0) ** 2
            rep = gill_levit_bound(
                gauss_model, gauss_model.prior,
                VectorField(gauss_model.grid, vals[..., None]), 3.0,
            )
            assert rep.bound >= 0.0
            if rep.bound == 0.0:
                assert rep.alignment == 0.0


class TestTheModelOwnsItsPrior:
    @pytest.mark.parametrize("call", [
        lambda m: bmax(m, n=1.0),
        lambda m: vectoral_bmax(m, VectoralWeight(m.grid, [[1.0]], (m.weight,)), 1.0),
        lambda m: van_trees_v(m, 1.0),
        lambda m: functionals(m, unit_field(m.grid)),
        lambda m: qmax(m, m.fisher, n=1.0),
    ], ids=["bmax", "vectoral_bmax", "van_trees_v", "functionals", "qmax"])
    def test_a_model_without_a_prior_is_refused_by_name(self, gauss_model, call):
        with pytest.raises(GridValueError,
                           match=r"^the bound needs a prior density, and the model has no prior$"):
            call(replace(gauss_model, prior=None))

    def test_a_prior_of_mass_two_is_refused_by_name(self, bump_model):
        # the bound of 2 rho would read twice the bound of rho
        doubled = ScalarField(bump_model.grid, 2.0 * bump_model.prior.values)
        v = unit_field(bump_model.grid)
        with pytest.raises(GridValueError, match=r"^prior integrates to 2\.0"):
            gill_levit_bound(bump_model, doubled, v, 10.0)
        with pytest.raises(GridValueError, match=r"^prior integrates to 2\.0"):
            invariance_report(bump_model, doubled, v, odd_power_map(3), 10.0)

    def test_bounds_on_a_built_model_decompose_nothing(self, monkeypatch):
        model = bump_scalar_model(n_nodes=2001)
        v = unit_field(model.grid)
        seen = count_linalg_calls(monkeypatch, "eigvalsh")
        for n in np.logspace(0.0, 4.0, 16):
            gill_levit_bound(model, model.prior, v, n)
        assert seen["eigvalsh"] == []


class TestBoundReport:
    def test_stored_identity_enforced(self):
        with pytest.raises(GridValueError):
            BoundReport(1.0, 1.0, 1.0, 1.0, bound=0.7, v_choice="x")

    def test_negative_information_rejected(self):
        with pytest.raises(GridValueError):
            BoundReport(1.0, -0.5, 1.0, 1.0, bound=2.0, v_choice="x")

    def test_csv_round_trip_columns(self, gauss_model):
        rep = gill_levit_bound(gauss_model, gauss_model.prior, unit_field(gauss_model.grid), 10.0)
        header, (values,) = scenarios._bound_table(rep)
        row = [scenarios.format_value(x) for x in values]
        assert len(row) == len(header)
        assert float(row[0]) == 10.0
        assert abs(float(row[4]) - rep.bound) <= 1e-12 * rep.bound
        assert row[5] == "custom"

    def test_json_dict(self, gauss_model):
        rep = gill_levit_bound(gauss_model, gauss_model.prior, unit_field(gauss_model.grid), 10.0)
        d = rep.to_dict()
        assert set(d) == {"n", "alignment", "information", "prior_information",
                          "bound", "v_choice", "diagnostics"}


class TestNonFiniteFunctionals:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
    @pytest.mark.parametrize("which", ["alignment", "information", "prior_information"])
    def test_assemble_rejects_and_names_it(self, which, bad):
        values = {"alignment": 1.0, "information": 1.0, "prior_information": 1.0, which: bad}
        with pytest.raises(GridValueError, match=rf"^{which} is {bad!r} at n = 2.0"):
            BoundReport.assemble(*values.values(), 2.0, "x")

    def test_assemble_rejects_overflowing_denominator(self):
        # each functional is finite, but n * <F> is not: the bound would read 0
        with pytest.raises(GridValueError, match=r"overflows at n = 10000000000\.0 "
                                                 r"with information 1e\+300"):
            BoundReport.assemble(1.0, 1e300, 1.0, 1e10, "x")


class TestInvalidN:
    """Every bound rejects n < 0, NaN and infinite n; the Gill-Levit family
    checks it in one place, `BoundReport.assemble`."""

    @pytest.fixture(scope="class")
    def small_model(self):
        return gaussian_scalar_model(n_nodes=201)

    @pytest.mark.parametrize("n", [-1.0, -0.5, float("nan"), float("inf")])
    def test_every_bound_rejects_invalid_n(self, small_model, n):
        model = small_model
        v = unit_field(model.grid)
        weights = VectoralWeight(model.grid, np.array([[1.0]]), (model.weight,))
        calls = [
            lambda: gill_levit_bound(model, model.prior, v, n),
            lambda: vectoral_bound(model, weights, (v,), n),
            lambda: BoundReport.assemble(1.0, 1.0, 1.0, n, "custom"),
            lambda: bmax(model, n=n),
            lambda: van_trees_v(model, n),
            lambda: gaussian_closed_form(1.0, 1.0, 1.0, n),
        ]
        for call in calls:
            with pytest.raises(GridValueError, match="n must be nonnegative"):
                call()


class TestNaturalV:
    def test_scalar_unit(self, gauss_model):
        v = natural_v(gauss_model)
        assert np.max(np.abs(v.values - 1.0)) <= 1e-12
        assert v.variance == "contravariant"

    def test_2d_diagonal(self):
        grid = ParameterGrid([(-1, 1), (-1, 1)], [5, 5])
        model = StatisticalModel.from_callables(
            grid,
            fisher_fn=const_matrix_fn([[1.0, 0.0], [0.0, 4.0]]),
            weight_fn=const_vector_fn([1.0, 1.0]),
        )
        v = natural_v(model)
        assert np.allclose(v.values[..., 0], 1.0, atol=1e-12)
        assert np.allclose(v.values[..., 1], 0.25, atol=1e-12)
        local = np.einsum("...a,...a->...", v.values, model.weight.values)
        assert np.allclose(local, 1.25, atol=1e-12)

    def test_rank_deficient_errors(self):
        grid = ParameterGrid([(-1, 1), (-1, 1)], [3, 3])
        w = np.full((3, 3, 2, 2), 0.25)  # rank-1: c * w w^T pattern
        model = StatisticalModel(
            grid,
            MatrixField(grid, w),
            VectorField.constant(grid, [1.0, -1.0], variance="covariant"),
        )
        with pytest.raises(SingularInformationError, match="rank deficient"):
            natural_v(model)

    def test_rank_deficient_names_node_with_plain_ints(self):
        grid = ParameterGrid([(-1, 1), (-1, 1)], [3, 3])
        f = np.broadcast_to(np.eye(2), (3, 3, 2, 2)).copy()
        f[1, 2] = 0.25  # rank 1 at node (1, 2) only
        model = StatisticalModel(grid, MatrixField(grid, f),
                                 VectorField.constant(grid, [1.0, -1.0], variance="covariant"))
        with pytest.raises(SingularInformationError, match=r"rank deficient at node \(1, 2\);"):
            natural_v(model)

    def test_natural_bound_matches_borovkov_form(self, gauss_model):
        # B = <C>^2/(n<C> + <P>) with C = u F^-1 u = 1 here
        v = natural_v(gauss_model)
        rep = gill_levit_bound(gauss_model, gauss_model.prior, v, 10.0, v_choice="natural")
        assert abs(rep.bound - 1.0 / 11.0) <= 1e-6


class TestVanTrees:
    """The van Trees bound is the Gill-Levit bound of the van Trees field."""

    def test_scalar_gaussian(self, gauss_model):
        v = van_trees_v(gauss_model, 10.0)
        rep = gill_levit_bound(gauss_model, gauss_model.prior, v, 10.0)
        assert abs(rep.bound - 1.0 / 11.0) <= 1e-6
        assert np.allclose(v.values, 1.0 / 11.0, atol=1e-6)

    def test_zero_weight(self):
        # the zero field has no information and no prior term, as for any
        # zero field: the bound is degenerate, not 0
        model = gaussian_scalar_model(weight=0.0)
        v = van_trees_v(model, 10.0)
        assert np.max(np.abs(v.values)) == 0.0
        with pytest.raises(DegenerateBoundError, match="degenerate direction"):
            gill_levit_bound(model, model.prior, v, 10.0)

    def test_2d_diagonal(self):
        model = contract_model("2d")
        v = van_trees_v(model, 1.0)
        assert abs(gill_levit_bound(model, model.prior, v, 1.0).bound - 1.0 / 3.0) <= 1e-6

    def test_prior_vanishing_at_edges(self):
        # sin^4 on [0, 1] is zero at both edge nodes; the quotient score is
        # zeroed there, and B does not change when v is scaled, so the constant
        # van Trees field gives the unit field's bound
        model = sin_power_model(101, 4)
        v = van_trees_v(model, 1.0)
        rep = gill_levit_bound(model, model.prior, v, 1.0)
        unit = gill_levit_bound(model, model.prior, unit_field(model.grid), 1.0)
        assert rep.bound <= bmax(model, n=1.0).bound * (1 + 1e-10)
        assert abs(rep.bound - unit.bound) <= 1e-12 * unit.bound


@lru_cache(maxsize=None)
def contract_model(name):
    """The 1-D Gaussian model (F = u = 1 on [-8, 8]) at ``name`` nodes, or
    "2d": F = 2I, u = (1, 0) under a standard Gaussian on [-6.5, 6.5]^2."""
    if name != "2d":
        return gaussian_scalar_model(n_nodes=name)
    grid = ParameterGrid([(-6.5, 6.5), (-6.5, 6.5)], [201, 201])
    return StatisticalModel.from_callables(
        grid,
        fisher_fn=const_matrix_fn([[2.0, 0.0], [0.0, 2.0]]),
        weight_fn=const_vector_fn([1.0, 0.0]),
        prior_fn=lambda c: np.exp(-np.sum(np.asarray(c) ** 2, axis=-1) / 2.0),
    )


CONTRACT_CASES = [(nodes, n) for nodes in (101, 401, 2001) for n in (0.1, 1.0, 10.0, 1e3)]
CONTRACT_CASES.append(("2d", 1.0))


@pytest.mark.parametrize("name, n", CONTRACT_CASES)
class TestEveryFieldBelowBmax:
    """B <= B_max on the grid for every field the library builds, and the van
    Trees bound, the Gill-Levit bound of its field, has its closed form."""

    def test_no_field_exceeds_bmax(self, name, n):
        model = contract_model(name)
        grid = model.grid
        fields = {
            "unit": unit_field(grid),
            "natural": natural_v(model),
            "van_trees": van_trees_v(model, n),
            "polynomial": VectorField(grid, 1.0 + grid.coordinates / 2.0),
        }
        b_max = bmax(model, n=n).bound
        for label, v in fields.items():
            assert gill_levit_bound(model, model.prior, v, n).bound <= b_max * (1 + 1e-10), label

    def test_van_trees_report_is_that_of_its_field(self, name, n):
        model = contract_model(name)
        grid = model.grid
        rep = gill_levit_bound(model, model.prior, van_trees_v(model, n), n)
        # the closed form u (nF + G)^-1 u of the averaged matrices, G from the
        # prior score (1/d) d_a d of weighted_divergence on the axis fields
        p = grid.dim
        w = rho_weights(model.prior, model.metric).ravel()
        score = np.stack([weighted_divergence(model.prior, VectorField.constant(grid, e)).values
                          for e in np.eye(p)], axis=-1).reshape(-1, p)
        g_bar = np.einsum("n,na,nb->ab", w, score, score)
        f_bar = np.einsum("n,nab->ab", w, model.fisher.values.reshape(-1, p, p))
        u_bar = np.einsum("n,na->a", w, model.weight.values.reshape(-1, p))
        closed = u_bar @ np.linalg.solve(n * f_bar + g_bar, u_bar)
        assert abs(rep.bound - closed) <= 1e-13 * closed


@lru_cache(maxsize=None)
def coupled_2d_model():
    """F = [[1 + t1^2, 0.4 tanh(t1 t2)], [0.4 tanh(t1 t2), 1 + t2^2 / 2]] under
    a standard Gaussian prior on [-6.5, 6.5]^2 at 81^2 nodes."""
    grid = ParameterGrid([(-6.5, 6.5), (-6.5, 6.5)], [81, 81])

    def fisher_fn(c):
        c = np.asarray(c)
        out = np.empty(c.shape[:-1] + (2, 2))
        out[..., 0, 0] = 1.0 + c[..., 0] ** 2
        out[..., 1, 1] = 1.0 + c[..., 1] ** 2 / 2.0
        out[..., 0, 1] = out[..., 1, 0] = 0.4 * np.tanh(c[..., 0] * c[..., 1])
        return out

    return StatisticalModel.from_callables(
        grid,
        fisher_fn=fisher_fn,
        weight_fn=const_vector_fn([1.0, 0.0]),
        prior_fn=lambda c: np.exp(-np.sum(np.asarray(c) ** 2, axis=-1) / 2.0),
    )


@pytest.mark.parametrize("n", [1.0, 10.0])
class TestEveryVectoralFieldBelowBmax:
    """B <= B_max for a vector parameter: u_j = e_j weighted by a constant
    gamma on the coupled model, for fields the solve does not produce."""

    def test_no_field_pair_exceeds_vectoral_bmax(self, n):
        model = coupled_2d_model()
        grid = model.grid
        axes = np.eye(2)
        weights = VectoralWeight(grid, np.array([[2.0, 0.5], [0.5, 1.0]]), tuple(
            VectorField.constant(grid, a, "covariant") for a in axes))
        t1, t2 = grid.coordinates[..., 0], grid.coordinates[..., 1]
        pairs = {
            "axes": tuple(VectorField.constant(grid, a) for a in axes),
            "inverse_information": tuple(
                VectorField(grid, np.linalg.solve(model.fisher.values, np.broadcast_to(
                    a, grid.shape + (2,))[..., None])[..., 0]) for a in axes),
            "polynomial": (VectorField(grid, np.stack([1.0 + t1 / 2.0, t2 / 3.0], axis=-1)),
                           VectorField(grid, np.stack([-t2 / 4.0, 1.0 - t1 / 3.0], axis=-1))),
        }
        b_max = vectoral_bmax(model, weights, n).bound
        for label, fields in pairs.items():
            bound = vectoral_bound(model, weights, fields, n).bound
            assert bound <= b_max * (1 + 1e-10), label


def sin_power_model(n_nodes, power):
    """F = u = 1 under the prior sin^power(pi theta) on [0, 1]."""
    return StatisticalModel.from_callables(
        line_grid(0.0, 1.0, n_nodes),
        fisher_fn=const_matrix_fn([[1.0]]),
        weight_fn=const_vector_fn([1.0]),
        prior_fn=window_bump_fn(0.0, 1.0, power),
    )


class TestEdgeSlopeConvergence:
    """A prior whose sqrt has a nonzero slope at the box edge (sin^2) converges
    at first order: the density form of <P> weights the quotient by rho = 0
    at the edge node and drops the edge value of rho'^2 / rho.  With sin^4
    the slope vanishes and the order is second."""

    NODES = (401, 801, 1601)

    @pytest.mark.parametrize("power, prior_information, ratio", [
        (2, 4.0 * np.pi**2, 2.0),
        (4, 16.0 * np.pi**2 / 3.0, 4.0),
    ], ids=["sin2", "sin4"])
    def test_unit_field_error_ratio(self, power, prior_information, ratio):
        exact = 1.0 / (10.0 + prior_information)
        errors = []
        for nodes in self.NODES:
            model = sin_power_model(nodes, power)
            errors.append(gill_levit_bound(model, model.prior, unit_field(model.grid),
                                           10.0).bound - exact)
        for coarse, fine in zip(errors, errors[1:]):
            assert abs(coarse / fine - ratio) <= 0.1 * ratio

    def test_bmax_sin_squared_first_order(self):
        b = [bmax(sin_power_model(nodes, 2), n=10.0).bound for nodes in self.NODES]
        assert abs((b[0] - b[1]) / (b[1] - b[2]) - 2.0) <= 0.2


def decoupled_2d_model(n_nodes=161):
    grid = ParameterGrid([(-6.5, 6.5), (-6.5, 6.5)], [n_nodes, n_nodes])

    def fisher_fn(c):
        c = np.asarray(c)
        out = np.zeros(c.shape[:-1] + (2, 2))
        out[..., 0, 0] = 1.0
        out[..., 1, 1] = 2.0
        return out

    return StatisticalModel.from_callables(
        grid,
        fisher_fn=fisher_fn,
        weight_fn=const_vector_fn([1.0, 1.0]),
        prior_fn=lambda c: np.exp(-np.sum(np.asarray(c) ** 2, axis=-1) / 2.0),
    )


def axis_weights(gamma):
    """VectoralWeight of the first q coordinate axes on a 5 x 5 grid."""
    grid = ParameterGrid([(-1.0, 1.0)] * 2, [5, 5])
    axes = np.eye(2)[:len(gamma)]
    return VectoralWeight(grid, np.array(gamma),
                          tuple(VectorField.constant(grid, a, "covariant") for a in axes))


class TestVectoralBound:
    def test_q1_reduces_to_scalar(self, gauss_model):
        grid = gauss_model.grid
        v = unit_field(grid)
        weights = VectoralWeight(grid, np.array([[1.0]]), (gauss_model.weight,))
        rep_vec = vectoral_bound(gauss_model, weights, (v,), 10.0)
        rep_scl = gill_levit_bound(gauss_model, gauss_model.prior, v, 10.0)
        assert abs(rep_vec.bound - rep_scl.bound) <= 1e-12

    def test_q1_unit_gamma_equals_scalar_exactly(self):
        # one functional kernel: with a metric, a varying F and a varying field
        # the two paths agree bit for bit, not just to rounding
        model = pushforward_model(bump_scalar_model(n_nodes=1601), odd_power_map(3))
        v = natural_v(model)
        weights = VectoralWeight(model.grid, np.array([[1.0]]), (model.weight,))
        rep_vec = vectoral_bound(model, weights, (v,), 2.0)
        rep_scl = gill_levit_bound(model, model.prior, v, 2.0)
        for name in ("alignment", "information", "prior_information", "bound"):
            assert getattr(rep_vec, name) == getattr(rep_scl, name), name

    def test_decoupled_alignment_sums(self):
        model = decoupled_2d_model()
        grid = model.grid
        u1 = VectorField.constant(grid, [1.0, 0.0], variance="covariant")
        u2 = VectorField.constant(grid, [0.0, 1.0], variance="covariant")
        v1 = VectorField.constant(grid, [1.0, 0.0])
        v2 = VectorField.constant(grid, [0.0, 1.0])
        weights = VectoralWeight(grid, np.eye(2), (u1, u2))
        rep = vectoral_bound(model, weights, (v1, v2), 4.0)

        a1 = gill_levit_bound(
            StatisticalModel(grid, model.fisher, u1, prior=model.prior), model.prior, v1, 4.0
        ).alignment
        a2 = gill_levit_bound(
            StatisticalModel(grid, model.fisher, u2, prior=model.prior), model.prior, v2, 4.0
        ).alignment
        assert abs(rep.alignment - (a1 + a2)) <= 1e-10

    def test_gamma_scaling_doubles_bound(self, gauss_model):
        grid = gauss_model.grid
        v = unit_field(grid)
        w1 = VectoralWeight(grid, np.array([[1.0]]), (gauss_model.weight,))
        w2 = VectoralWeight(grid, np.array([[2.0]]), (gauss_model.weight,))
        b1 = vectoral_bound(gauss_model, w1, (v,), 10.0)
        b2 = vectoral_bound(gauss_model, w2, (v,), 10.0)
        assert abs(b2.alignment - b1.alignment) <= 1e-14
        assert abs(b2.information - b1.information / 2.0) <= 1e-12
        assert abs(b2.prior_information - b1.prior_information / 2.0) <= 1e-12
        assert abs(b2.bound - 2.0 * b1.bound) <= 1e-10 * b1.bound

    @pytest.mark.parametrize("gamma, match", [
        ([[-1.0]], "positive definite"),
        ([[np.nan]], "gamma values contain non-finite"),
        ([[1.0, 0.0], [0.0, np.inf]], "gamma values contain non-finite"),
        # the assembly reads one triangle of its inverse, the functionals both
        ([[1.0, 0.9], [0.0, 1.0]], "gamma asymmetry"),
    ], ids=["non_pd", "nan", "inf", "asymmetric"])
    def test_non_pd_gamma_rejected(self, gamma, match):
        with pytest.raises(GridValueError, match=match):
            axis_weights(gamma)

    @pytest.mark.parametrize("q_fields", [1, 3])
    def test_field_count_must_match_weights(self, q_fields):
        model = decoupled_2d_model(21)
        weights = VectoralWeight(model.grid, np.eye(2), tuple(
            VectorField.constant(model.grid, a, "covariant") for a in np.eye(2)))
        fields = (unit_field(model.grid),) * q_fields
        with pytest.raises(GridValueError, match=f"got {q_fields} fields for 2 weights"):
            vectoral_bound(model, weights, fields, 1.0)

    def test_gamma_stored_symmetric(self):
        weights = axis_weights([[2.0, 0.5], [0.5 + 1e-13, 1.0]])
        assert np.array_equal(weights.gamma, np.swapaxes(weights.gamma, -1, -2))


class TestNaturalVOnImagingInformation:
    def test_coincident_source_matrix_rejected(self):
        # the direct-imaging information at coincident sources is rank one,
        # so the per-point natural field does not exist there
        from bcrb.imaging import SourceConfiguration, direct_imaging_fisher, gaussian_psf

        f0 = direct_imaging_fisher(gaussian_psf(1.0), SourceConfiguration([0.0, 0.0]))
        grid = ParameterGrid([(-0.1, 0.1), (-0.1, 0.1)], [3, 3])
        model = StatisticalModel(
            grid,
            MatrixField.constant(grid, f0),
            VectorField.constant(grid, [1.0, -1.0], variance="covariant"),
        )
        with pytest.raises(SingularInformationError, match="rank deficient"):
            natural_v(model)
