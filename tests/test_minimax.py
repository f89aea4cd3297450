from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from bcrb import imaging, minimax, scenarios
from bcrb.bounds import functionals
from bcrb.errors import (
    BoundaryConditionError,
    EigensolverError,
    GridValueError,
)
from bcrb.geometry import StatisticalModel, odd_power_map, pushforward_model
from bcrb.grids import ScalarField, VectorField
from bcrb.minimax import (
    DiscretizedHamiltonian,
    SchrodingerProblem,
    Wavefunction,
    assemble_H,
    bworst,
    converged_ground_energy,
    ground_state,
    lambda_scan,
    rate_fit,
)

from conftest import (
    bump_scalar_model,
    const_matrix_fn,
    const_vector_fn,
    gaussian_scalar_model,
    line_grid,
    unit_field,
    wave_functionals,
)


def harmonic_problem(nodes=2001, half_width=10.0):
    return SchrodingerProblem((-half_width, half_width), lambda t: np.asarray(t) ** 2,
                              alignment=1.0, nodes=nodes)


def hamiltonian_matrix(ham):
    """The tridiagonal H as a sparse CSR matrix."""
    return sp.diags([ham.off_diagonal, ham.diagonal, ham.off_diagonal], [-1, 0, 1]).tocsr()


def diagonal_hamiltonian(problem, n):
    """The potential n F(tau) alone: H without its kinetic term."""
    grid = problem.grid()
    tau = grid.axes[0]
    return DiscretizedHamiltonian(grid, n * np.asarray(problem.information(tau[1:-1])),
                                  np.zeros(len(tau) - 3))


class TestWaveFunctionals:
    def test_gaussian_unit_triple(self):
        model = gaussian_scalar_model(n_nodes=20001)
        a, f, p = wave_functionals(model, unit_field(model.grid))
        assert abs(a - 1.0) <= 1e-6
        assert abs(f - 1.0) <= 1e-6
        assert abs(p - 1.0) <= 1e-6

    def test_parity_kills_alignment(self):
        grid = line_grid(-8.0, 8.0, 2001)
        th = grid.coordinates[..., 0]
        model = StatisticalModel.from_callables(
            grid,
            fisher_fn=const_matrix_fn([[1.0]]),
            weight_fn=lambda c: np.asarray(c).copy(),  # odd weight u = theta
        )
        psi = Wavefunction.normalized(grid, np.exp(-(th**2) / 4.0))
        a, _, _ = wave_functionals(replace(model, prior=psi.density()), unit_field(grid))
        assert abs(a) <= 1e-12

    def test_zero_field(self):
        model = gaussian_scalar_model(n_nodes=801)
        a, f, p = wave_functionals(model, VectorField.constant(model.grid, [0.0]))
        assert (a, f, p) == (0.0, 0.0, 0.0)

    def test_boundary_violation_same_error_as_density_route(self):
        # psi^2 v does not vanish at +-2: both routes reject the hypothesis
        model = gaussian_scalar_model(lo=-2.0, hi=2.0, n_nodes=401)
        v = unit_field(model.grid)
        with pytest.raises(BoundaryConditionError, match="boundary residual"):
            functionals(model, v)
        with pytest.raises(BoundaryConditionError, match="boundary residual"):
            wave_functionals(model, v)

    def test_matches_density_route(self):
        # same functionals through the rho = psi^2 path, second-order close
        model = gaussian_scalar_model(n_nodes=200001)
        v = unit_field(model.grid)
        aw, fw, pw = wave_functionals(model, v)
        ad, fd, pd_ = functionals(model, v)
        assert abs(aw - ad) <= 1e-8
        assert abs(fw - fd) <= 1e-8
        assert abs(pw - pd_) <= 1e-8

    def test_pushed_metric_matches_density_route(self):
        # in the cube coordinate t the bump model carries the metric (3 t^(2/3))^-2;
        # <A> and <F> share the density route's weights, <P> converges to it
        gaps = []
        for nodes in (1601, 6401):
            model = pushforward_model(bump_scalar_model(n_nodes=nodes), odd_power_map(3))
            assert model.metric is not None
            v = unit_field(model.grid)
            aw, fw, pw = wave_functionals(model, v)
            ad, fd, pd_ = functionals(model, v)
            assert (aw, fw) == (ad, fd)
            gaps.append(abs(pw - pd_) / pd_)
        assert gaps[0] <= 5e-4 and gaps[1] <= 3e-5
        assert gaps[0] / gaps[1] >= 12.0  # second order: dx is quartered, so 16


class TestAssembleH:
    def test_particle_in_a_box(self):
        prob = SchrodingerProblem((0.0, 1.0), lambda t: np.zeros_like(t), nodes=2001)
        e, _ = ground_state(assemble_H(prob, 1.0))
        assert abs(e - 4 * np.pi**2) <= 1e-3 * 4 * np.pi**2

    def test_harmonic_ground_energy(self):
        e, _ = ground_state(assemble_H(harmonic_problem(), 100.0))
        assert abs(e - 20.0) <= 0.005 * 20.0

    def test_wide_box_constant_potential(self):
        n, c = 5.0, 1.0
        previous = np.inf
        for half in (2.0, 4.0, 8.0, 16.0, 32.0):
            prob = SchrodingerProblem((-half, half), lambda t: np.full_like(t, c),
                                      nodes=2001)
            e, _ = ground_state(assemble_H(prob, n))
            assert e <= previous + 1e-12
            previous = e
        assert abs(previous - n * c) <= 0.01 * n * c

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_potential_rejected(self, bad):
        prob = SchrodingerProblem((-1.0, 1.0),
                                  lambda t: np.where(np.asarray(t) > 0.5, bad, 1.0), nodes=101)
        with pytest.raises(GridValueError, match=r"n\*F is not finite at tau = 0\.52 "):
            assemble_H(prob, 10.0)


class TestGroundState:
    def test_harmonic_profile(self):
        e, psi = ground_state(assemble_H(harmonic_problem(nodes=4001), 100.0))
        tau = psi.grid.axes[0]
        exact = np.exp(-np.sqrt(100.0) * tau**2 / 4.0)
        exact = Wavefunction.normalized(psi.grid, exact)
        assert abs(e - 20.0) <= 0.005 * 20.0
        assert np.max(np.abs(psi.values - exact.values)) <= 1e-3

    def test_box_half_sine(self):
        prob = SchrodingerProblem((0.0, 1.0), lambda t: np.zeros_like(t), nodes=2001)
        e, psi = ground_state(assemble_H(prob, 1.0))
        th = psi.grid.axes[0]
        exact = Wavefunction.normalized(psi.grid, np.sin(np.pi * th))
        assert abs(e - 4 * np.pi**2) <= 1e-3 * 4 * np.pi**2
        assert np.max(np.abs(psi.values - exact.values)) <= 1e-3

    def test_diagonal_test_mode(self):
        prob = SchrodingerProblem((-1.0, 1.0), lambda t: 2.0 + np.sin(t), nodes=101)
        ham = diagonal_hamiltonian(prob, 3.0)
        e, _ = ground_state(ham)
        tau = np.linspace(-1, 1, 101)[1:-1]
        assert abs(e - 3.0 * np.min(2.0 + np.sin(tau))) <= 1e-12

    def test_rayleigh_lower_bound(self):
        ham = assemble_H(harmonic_problem(nodes=1001), 100.0)
        e_min, _ = ground_state(ham)
        rng = np.random.default_rng(5)
        mat = hamiltonian_matrix(ham)
        for _ in range(50):
            psi = rng.normal(size=mat.shape[0])
            quotient = (psi @ (mat @ psi)) / (psi @ psi)
            assert quotient >= e_min - 1e-8 * abs(e_min)

    def test_sign_structure_cannot_lower_energy(self):
        ham = assemble_H(harmonic_problem(nodes=1001), 100.0)
        rng = np.random.default_rng(6)
        mat = hamiltonian_matrix(ham)
        for _ in range(20):
            psi = rng.normal(size=mat.shape[0])
            e_signed = psi @ (mat @ psi)
            e_abs = np.abs(psi) @ (mat @ np.abs(psi))
            assert e_abs <= e_signed + 1e-8 * abs(e_signed)

    def test_virial_balance(self):
        n = 100.0
        ham = assemble_H(harmonic_problem(nodes=4001), n)
        e, psi = ground_state(ham)
        dx = psi.grid.spacing[0]
        tau = psi.grid.axes[0]
        potential = float(np.sum(psi.grid.trapezoid_weights * n * tau**2 * psi.values**2))
        kinetic = e - potential
        assert abs(potential - kinetic) <= 0.01 * e


def reference_ground_state(ham):
    """The bisection path ground_state replaced: eigh_tridiagonal(select="i").

    Returns (E_0, phi_0, E_1 - E_0); the gap bounds how far two accurate
    eigenvectors may differ.
    """
    vals, vecs = scipy.linalg.eigh_tridiagonal(
        ham.diagonal, ham.off_diagonal, select="i", select_range=(0, 1))
    return vals[0], vecs[:, 0], vals[1] - vals[0]


# (information, half width, kinetic coefficient) per shape of the panel
SOLVER_PANEL = {
    "harmonic": (lambda t: np.asarray(t) ** 2, 0.5, 4.0),
    "quartic": (lambda t: np.asarray(t) ** 4, 0.5, 4.0),
    "double_well": (lambda t: (np.asarray(t) ** 2 - 0.01) ** 2, 0.5, 4.0),
    "flat_box": (lambda t: np.ones_like(t), 2.0, 4.0),
    "diagonal": (lambda t: 2.0 + np.sin(3.0 * np.asarray(t)), 1.0, 0.0),
}


def panel_hamiltonians(shape, nodes):
    information, half, kinetic = SOLVER_PANEL[shape]
    prob = SchrodingerProblem((-half, half), information, nodes=nodes)
    if kinetic == 0.0:
        # n = 0 with no kinetic term is the zero matrix, whose spectrum is degenerate
        return [(n, diagonal_hamiltonian(prob, n)) for n in (1e2, 1e4, 1e6)]
    return [(n, assemble_H(prob, n)) for n in (0.0, 1e2, 1e4, 1e6)]


class TestCertifiedGroundState:
    EPS = np.finfo(float).eps

    @pytest.mark.parametrize("nodes", [101, 2001, 200001])
    @pytest.mark.parametrize("shape", sorted(SOLVER_PANEL))
    def test_matches_bisection_reference(self, shape, nodes):
        for n, ham in panel_hamiltonians(shape, nodes):
            e, psi = ground_state(ham)
            e_ref, vec_ref, spectral_gap = reference_ground_state(ham)
            scale = self.EPS * ham.gershgorin()[1]
            assert abs(e - e_ref) <= scale, (n, (e - e_ref) / scale)
            vec = psi.values[1:-1] / np.linalg.norm(psi.values[1:-1])
            vec_ref = vec_ref * np.sign(vec_ref @ vec)
            # both residuals are O(eps ||H||): each vector is within
            # residual / gap of the eigenvector (Davis-Kahan)
            assert np.linalg.norm(vec - vec_ref) <= 10.0 * scale / spectral_gap, n

    @pytest.mark.parametrize("shape", sorted(SOLVER_PANEL))
    def test_certificate_brackets_ground_energy(self, shape):
        for _, ham in panel_hamiltonians(shape, 2001):
            e, psi = ground_state(ham)
            vec = psi.values[1:-1] / np.linalg.norm(psi.values[1:-1])
            resid = ham.residual_norms(np.array([e]), vec[:, None])[0]
            tau = max(resid, minimax.CERTIFIED_GAP_EPS * self.EPS * ham.gershgorin()[1])
            _, _, info = scipy.linalg.lapack.dpttrf(ham.diagonal - (e - tau),
                                                    ham.off_diagonal)
            assert info == 0
            e_ref = reference_ground_state(ham)[0]
            assert e - tau < e_ref <= e + self.EPS * ham.gershgorin()[1]

    def test_factorization_failure_is_loud(self, monkeypatch):
        def not_definite(d, e, **_):
            return d, e, 1

        monkeypatch.setattr(scipy.linalg.lapack, "dpttrf", not_definite)
        with pytest.raises(EigensolverError, match="not positive definite"):
            ground_state(assemble_H(harmonic_problem(nodes=201), 100.0))

    def test_failed_certificate_is_loud(self, monkeypatch):
        # only the Gershgorin factorization succeeds: no shift is ever
        # certified near E_min, so the final certificate cannot hold either
        exact = scipy.linalg.lapack.dpttrf
        calls = []

        def first_only(d, e, **kwargs):
            calls.append(None)
            d_f, e_f, info = exact(d, e, **kwargs)
            return d_f, e_f, info if len(calls) == 1 else 1

        monkeypatch.setattr(scipy.linalg.lapack, "dpttrf", first_only)
        with pytest.raises(EigensolverError, match="not certified"):
            ground_state(assemble_H(harmonic_problem(nodes=201), 100.0))

    def test_iteration_cap_is_loud(self, monkeypatch):
        monkeypatch.setattr(minimax, "INVERSE_ITERATION_MAXITER", 1)
        with pytest.raises(EigensolverError, match="did not converge"):
            ground_state(assemble_H(harmonic_problem(nodes=201), 100.0))

    def test_residual_check_is_loud(self, monkeypatch):
        monkeypatch.setattr(minimax, "RESIDUAL_RTOL", 1e-30)
        with pytest.raises(EigensolverError, match="residual"):
            ground_state(assemble_H(harmonic_problem(nodes=201), 100.0))

    def test_non_finite_hamiltonian_is_loud(self):
        ham = assemble_H(harmonic_problem(nodes=201), 100.0)
        diagonal = ham.diagonal.copy()
        diagonal[50] = np.nan
        with pytest.raises(EigensolverError, match="non-finite"):
            ground_state(minimax.DiscretizedHamiltonian(ham.grid, diagonal, ham.off_diagonal))

    def test_single_unknown(self):
        prob = SchrodingerProblem((-1.0, 1.0), lambda t: np.asarray(t) ** 2 + 1.0, nodes=3)
        ham = assemble_H(prob, 10.0)
        e, _ = ground_state(ham)
        assert e == ham.diagonal[0]


class TestBworst:
    def test_harmonic_value(self):
        assert abs(bworst(harmonic_problem(), 100.0) - 0.05) <= 0.005 * 0.05

    def test_flat_information_parametric(self):
        prob = SchrodingerProblem((-40.0, 40.0), lambda t: np.ones_like(t),
                                  alignment=1.0, nodes=4001)
        n = 50.0
        assert abs(bworst(prob, n) - 1.0 / n) <= 0.01 / n

    def test_pure_kinetic_box(self):
        prob = SchrodingerProblem((0.0, 1.0), lambda t: np.zeros_like(t),
                                  alignment=1.0, nodes=2001)
        val = bworst(prob, 0.0)
        assert abs(val - 1.0 / (4 * np.pi**2)) <= 1e-3 / (4 * np.pi**2)

    def test_least_favorable_prior_returned(self):
        prior = ground_state(assemble_H(harmonic_problem(), 100.0))[1].density().normalized()
        assert isinstance(prior, ScalarField)
        # concentrated where the information is smallest (tau = 0)
        tau = prior.grid.axes[0]
        assert abs(tau[np.argmax(prior.values)]) <= 0.05

    def test_consistency_with_wave_functionals(self):
        # B from the quadratic forms equals A^2 / E_min; both routes are
        # second order, so the Richardson-extrapolated defect must vanish
        def gap(nodes):
            prob = harmonic_problem(nodes=nodes)
            e, psi = ground_state(assemble_H(prob, 100.0))
            model = StatisticalModel.from_callables(
                psi.grid,
                fisher_fn=lambda c: (np.asarray(c)[..., 0] ** 2)[..., None, None],
                weight_fn=const_vector_fn([1.0]),
            )
            a, f, p = wave_functionals(replace(model, prior=psi.density()), unit_field(psi.grid))
            return a * a / (100.0 * f + p) - 1.0 / e

        g1, g2 = gap(20001), gap(40001)
        assert 3.5 <= g1 / g2 <= 4.5  # second-order defect
        assert abs(4.0 * g2 - g1) / 3.0 <= 1e-8 * 0.05

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("solve", [lambda prob: bworst(prob, 1.0),
                                       lambda prob: rate_fit(prob, [1e2, 1e3, 1e4, 1e5])],
                             ids=["bworst", "rate_fit"])
    def test_non_finite_alignment_rejected(self, bad, solve):
        prob = SchrodingerProblem((-2.0, 2.0), lambda t: np.asarray(t) ** 2,
                                  alignment=bad, nodes=101)
        with pytest.raises(GridValueError, match="alignment must be finite"):
            solve(prob)


class TestConvergedGroundEnergy:
    def test_expands_until_stable(self):
        prob = SchrodingerProblem((-0.25, 0.25), lambda t: np.abs(t), nodes=2001)
        e, dom = converged_ground_energy(prob, 1000.0)
        # Airy ground energy for n|tau| with kinetic 4 d^2: (4 n^2)^(1/3) |a1'|
        exact = (4.0 * 1000.0**2) ** (1.0 / 3.0) * 1.018792971647471
        assert abs(e - exact) <= 2e-3 * exact
        assert dom[1] - dom[0] > 0.5


class TestRateFit:
    def test_quadratic_information_rate(self):
        prob = SchrodingerProblem((-0.5, 0.5), lambda t: np.asarray(t) ** 2, nodes=2001)
        res = rate_fit(prob, [1e2, 1e3, 1e4, 1e5, 1e6])
        assert abs(res.slope - (-0.5)) <= 0.05
        assert abs(res.trial_energy_slope - 0.5) <= 0.05
        assert abs(res.width_exponent - (-0.25)) <= 0.05
        assert np.all(res.trial_bounds <= res.bounds + 1e-12)

    def test_linear_information_rate(self):
        prob = SchrodingerProblem((-0.5, 0.5), lambda t: np.abs(t), nodes=2001)
        res = rate_fit(prob, [1e2, 1e3, 1e4, 1e5, 1e6])
        assert abs(res.slope - (-2.0 / 3.0)) <= 0.05
        assert abs(res.width_exponent - (-1.0 / 3.0)) <= 0.05

    def test_flat_information_parametric_rate(self):
        prob = SchrodingerProblem((-2.0, 2.0), lambda t: np.ones_like(t), nodes=2001)
        res = rate_fit(prob, [1e2, 1e3, 1e4, 1e5, 1e6])
        assert abs(res.slope - (-1.0)) <= 0.05
        # flat potential: the trial energy is monotone in the width, so the
        # minimizing width pins at the cap instead of scaling with n
        assert np.all(res.trial_widths == res.trial_widths[0])
        assert np.isnan(res.width_exponent)

    def test_insufficient_range_rejected(self):
        prob = harmonic_problem(nodes=501)
        with pytest.raises(GridValueError, match="decades"):
            rate_fit(prob, [10.0, 100.0, 1000.0])

    def test_zero_alignment_rejected(self):
        # a zero alignment makes every bound zero, and the log-log fit NaN
        prob = SchrodingerProblem((-0.5, 0.5), lambda t: np.asarray(t) ** 2,
                                  alignment=0.0, nodes=501)
        with pytest.raises(GridValueError, match="alignment"):
            rate_fit(prob, [1e2, 1e3, 1e4, 1e5])

    def test_table_format(self):
        prob = SchrodingerProblem((-0.5, 0.5), lambda t: np.asarray(t) ** 2, nodes=1001)
        res = rate_fit(prob, [1e2, 1e4, 1e6])
        _, rows = scenarios._rates_table(res)
        assert len(rows) == 3
        assert all(len(r) == 3 for r in rows)
        assert rows[0][0] == 1e2


def warm_fit_problems():
    """The quadratic, |tau| and imaging-Gaussian potentials of the rate fits."""
    psf_potential = imaging._sampled_information(imaging.gaussian_psf(1.0), np.array([1.0, -1.0]),
                                                 16.0 * 0.25)
    return {
        "quadratic": SchrodingerProblem((-0.5, 0.5), lambda t: np.asarray(t) ** 2, nodes=2001),
        "abs": SchrodingerProblem((-0.5, 0.5), lambda t: np.abs(t), nodes=2001),
        "imaging_gaussian": SchrodingerProblem((-0.25, 0.25), psf_potential, nodes=1501),
    }


def box_count(problem, n):
    """How many boxes `converged_ground_energy` solves at n, and its energy."""
    e_min, (lo, hi) = converged_ground_energy(problem, n)
    width = problem.domain[1] - problem.domain[0]
    return round(np.log2((hi - lo) / width)) + 1, e_min


def cold_chain(problem, n, boxes):
    """Ground energy of each of the first ``boxes`` boxes, solved from the default start."""
    center = 0.5 * (problem.domain[0] + problem.domain[1])
    half = 0.5 * (problem.domain[1] - problem.domain[0])
    return [ground_state(assemble_H(problem, n, (center - half * 2**k, center + half * 2**k)))[0]
            for k in range(boxes)]


class TestWarmStart:
    EPS = np.finfo(float).eps
    NS = [1e2, 1e3, 1e4, 1e5, 1e6]

    @pytest.mark.parametrize("name", ["quadratic", "abs", "imaging_gaussian"])
    def test_fit_energies_match_cold_solves(self, name):
        problem = warm_fit_problems()[name]
        fit = rate_fit(problem, self.NS)
        for n, e_fit in zip(self.NS, fit.ground_energies):
            boxes, e_chained = box_count(problem, n)
            e_cold = cold_chain(problem, n, boxes)[-1]
            assert abs(e_fit - e_cold) <= 1e-12 * e_cold, n
            assert abs(e_chained - e_cold) <= 1e-12 * e_cold, n

    def certified_cold_match(self, ham, start):
        # the stored H defines E_min to about eps ||H||_inf, and warm and cold
        # solves may land on either side of it: each is held to the bisection
        # reference as TestCertifiedGroundState holds the cold solve
        e, psi = ground_state(ham, start)
        norm = ham.gershgorin()[1]
        assert abs(e - reference_ground_state(ham)[0]) <= self.EPS * norm
        vec = psi.values[1:-1] / np.linalg.norm(psi.values[1:-1])
        resid = ham.residual_norms(np.array([e]), vec[:, None])[0]
        tau = max(resid, minimax.CERTIFIED_GAP_EPS * self.EPS * norm)
        assert scipy.linalg.lapack.dpttrf(ham.diagonal - (e - tau), ham.off_diagonal)[2] == 0

    @pytest.mark.parametrize("n", [1e2, 1e4])
    def test_spike_at_one_end(self, n):
        ham = assemble_H(SchrodingerProblem((-0.5, 0.5), lambda t: np.asarray(t) ** 2,
                                            nodes=2001), n)
        spike = np.zeros(ham.grid.shape)
        spike[-2] = 1.0
        self.certified_cold_match(ham, Wavefunction.normalized(ham.grid, spike))

    @staticmethod
    def unrelated_state():
        """A positive bump on a 1,001-node grid that covers part of each panel box."""
        other = SchrodingerProblem((-0.3, 0.9), lambda t: np.ones_like(t), nodes=1001).grid()
        tau = other.axes[0]
        return Wavefunction.normalized(other, np.exp(-((tau - 0.4) / 0.2) ** 2))

    @pytest.mark.parametrize("shape", sorted(set(SOLVER_PANEL) - {"diagonal"}))
    def test_state_from_unrelated_grid(self, shape):
        # with a kinetic term H is irreducible, so its ground state is positive
        # at every node and overlaps any nonnegative start
        for _, ham in panel_hamiltonians(shape, 2001):
            self.certified_cold_match(ham, self.unrelated_state())

    def test_start_orthogonal_to_ground_state_is_loud(self):
        # the diagonal H's ground state sits at tau = -pi/6, where the start is zero
        ham = panel_hamiltonians("diagonal", 2001)[0][1]
        with pytest.raises(EigensolverError):
            ground_state(ham, self.unrelated_state())

    def test_start_outside_the_box_falls_back(self):
        ham = assemble_H(harmonic_problem(nodes=201), 100.0)
        far = SchrodingerProblem((50.0, 60.0), lambda t: np.ones_like(t), nodes=101).grid()
        start = Wavefunction.normalized(far, np.ones(101))
        assert ground_state(ham, start)[0] == ground_state(ham)[0]

    def test_doubled_box_resamples_every_other_node(self):
        prob = SchrodingerProblem((-1.0, 1.0), lambda t: np.asarray(t) ** 2, nodes=201)
        _, psi = ground_state(assemble_H(prob, 100.0))
        wide = prob.grid((-2.0, 2.0))
        vec = minimax._resampled(psi, wide)
        assert np.array_equal(vec[49:150], psi.values[::2])
        assert not vec[:49].any() and not vec[150:].any()

    def test_warm_fit_factors_less_than_cold_chain(self, monkeypatch):
        problem = warm_fit_problems()["quadratic"]
        boxes = [box_count(problem, n)[0] for n in self.NS]
        exact = scipy.linalg.lapack.dpttrf
        calls = []

        def counting(d, e, **kwargs):
            calls.append(None)
            return exact(d, e, **kwargs)

        monkeypatch.setattr(scipy.linalg.lapack, "dpttrf", counting)
        fit = rate_fit(problem, self.NS)
        warm = len(calls)
        calls.clear()
        cold = [cold_chain(problem, n, k)[-1] for n, k in zip(self.NS, boxes)]
        assert warm < len(calls)
        np.testing.assert_allclose(fit.ground_energies, cold, rtol=1e-13, atol=0.0)


def dense_lambda_scan(problem, n):
    """Reference (eigenvalues, candidate bounds) from dense eigh of A^{-1/2} H A^{-1/2}."""
    grid = problem.grid()
    tau, dx = grid.axes[0], grid.spacing[0]
    a_vals = np.asarray(problem.alignment(tau[1:-1]), dtype=float)
    inv_sqrt = 1.0 / np.sqrt(a_vals)
    dense = hamiltonian_matrix(assemble_H(problem, n)).toarray()
    reduced = inv_sqrt[:, None] * dense * inv_sqrt[None, :]
    lam, phi = scipy.linalg.eigh((reduced + reduced.T) / 2.0)
    psi = inv_sqrt[:, None] * phi
    psi = psi / np.sqrt(dx * np.sum(psi**2, axis=0))
    return lam, dx * np.sum(a_vals[:, None] * psi**2, axis=0) / lam


class TestLambdaScan:
    @pytest.mark.parametrize("alignment", [
        lambda t: 1.0 + 0.1 * np.asarray(t) ** 2,
        lambda t: 1.5 + np.sin(np.asarray(t)),
        lambda t: np.exp(-0.05 * np.asarray(t) ** 2),
        # low at the centre, so the first excited pair wins
        lambda t: 0.05 + np.asarray(t) ** 2 * np.exp(-np.asarray(t) ** 2),
    ], ids=["quadratic", "sine", "gaussian", "off_centre"])
    def test_tridiagonal_matches_dense(self, alignment):
        prob = SchrodingerProblem((-10.0, 10.0), lambda t: np.asarray(t) ** 2,
                                  alignment=alignment, nodes=1201)
        scan = lambda_scan(prob, 100.0)
        lam, cand = dense_lambda_scan(prob, 100.0)
        assert np.all(lam > 0)
        # each evaluated pair is the dense pair nearest to it
        index = np.array([np.argmin(np.abs(lam - x)) for x in scan.eigenvalues])
        assert np.max(np.abs(scan.eigenvalues - lam[index]) / lam[index]) <= 1e-10
        assert np.max(np.abs(scan.bounds - cand[index]) / cand[index]) <= 1e-10
        assert abs(scan.best_bound - cand.max()) <= 1e-10 * cand.max()
        # the window is the lowest pairs up to max(A)/B_0, and every pruned
        # candidate loses
        assert np.array_equal(np.unique(index), np.arange(index.max() + 1))
        top = np.max(alignment(prob.grid().axes[0][1:-1])) / scan.bounds[0]
        assert np.all(lam[index.max() + 1:] > top * (1.0 - 1e-10))
        assert np.all(cand[index.max() + 1:] < scan.best_bound)

    def test_solver_failure_is_loud(self, monkeypatch):
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("stemr did not converge")

        monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", failing)
        with pytest.raises(EigensolverError, match="stemr did not converge"):
            lambda_scan(harmonic_problem(nodes=201), 100.0)

    def test_inaccurate_eigenvectors_are_loud(self, monkeypatch):
        exact = scipy.linalg.eigh_tridiagonal

        def perturbed(*args, **kwargs):
            vals, vecs = exact(*args, **kwargs)
            vecs = vecs.copy()
            vecs[:, 0] += 1e-6 * np.random.default_rng(0).normal(size=len(vecs))
            return vals, vecs

        monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", perturbed)
        with pytest.raises(EigensolverError, match="residual"):
            lambda_scan(harmonic_problem(nodes=201), 100.0)

    def test_constant_alignment_matches_bworst(self):
        prob = SchrodingerProblem((-10.0, 10.0), lambda t: np.asarray(t) ** 2,
                                  alignment=2.0, nodes=1201)
        direct = bworst(prob, 100.0)
        scan = lambda_scan(prob, 100.0)
        assert abs(scan.best_bound - direct) <= 1e-8 * direct

    def test_varying_alignment_beats_frozen_minimum(self):
        varying = SchrodingerProblem(
            (-10.0, 10.0), lambda t: np.asarray(t) ** 2,
            alignment=lambda t: 1.0 + 0.1 * np.asarray(t) ** 2, nodes=1201,
        )
        frozen = SchrodingerProblem((-10.0, 10.0), lambda t: np.asarray(t) ** 2,
                                    alignment=1.0, nodes=1201)
        assert lambda_scan(varying, 100.0).best_bound >= bworst(frozen, 100.0) - 1e-10

    def test_quadratic_homogeneity_in_alignment(self):
        # B(c*A) = c^2 B(A): the bound is a squared mean over a fixed energy
        base = SchrodingerProblem((-10.0, 10.0), lambda t: np.asarray(t) ** 2,
                                  alignment=lambda t: 1.0 + 0.1 * np.asarray(t) ** 2,
                                  nodes=801)
        scaled = SchrodingerProblem((-10.0, 10.0), lambda t: np.asarray(t) ** 2,
                                    alignment=lambda t: 3.0 * (1.0 + 0.1 * np.asarray(t) ** 2),
                                    nodes=801)
        b1 = lambda_scan(base, 100.0).best_bound
        b3 = lambda_scan(scaled, 100.0).best_bound
        assert abs(b3 - 9.0 * b1) <= 1e-9 * b1

    def test_sign_indefinite_alignment_rejected(self):
        prob = SchrodingerProblem((-2.0, 2.0), lambda t: np.asarray(t) ** 2,
                                  alignment=lambda t: np.asarray(t), nodes=101)
        with pytest.raises(GridValueError, match="strictly positive"):
            lambda_scan(prob, 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_alignment_rejected(self, bad):
        prob = SchrodingerProblem((-2.0, 2.0), lambda t: np.asarray(t) ** 2,
                                  alignment=lambda t: np.where(np.asarray(t) > 1.0, bad, 1.0),
                                  nodes=101)
        with pytest.raises(GridValueError, match="alignment must be finite"):
            lambda_scan(prob, 1.0)


class TestLambdaScanLarge:
    """200,001 nodes, far beyond what a full spectrum could hold."""

    @staticmethod
    def problem(alignment):
        return SchrodingerProblem((-10.0, 10.0), lambda t: np.asarray(t) ** 2,
                                  alignment=alignment, nodes=200_001)

    def test_constant_alignment_matches_bworst(self):
        # forming A^{-1/2} H A^{-1/2} moves its eigenvalues by about
        # eps * ||H||_inf, 1.2e-8 of E_min here; the candidates do not use them
        prob = self.problem(2.0)
        direct = bworst(prob, 100.0)
        scan = lambda_scan(prob, 100.0)
        assert abs(scan.best_bound - direct) <= 1e-12 * direct

    def test_varying_alignment_passes_residual_check(self, monkeypatch):
        checked = []

        def spy(worst, norm):
            checked.append((worst, norm))
            return check(worst, norm)

        check = minimax._check_residual
        monkeypatch.setattr(minimax, "_check_residual", spy)
        scan = lambda_scan(self.problem(lambda t: 1.5 + np.sin(np.asarray(t))), 100.0)
        # the ground pair's eigensolve and the window's, checked even when the
        # window holds nothing but the ground pair again
        assert len(checked) == 2
        assert all(worst <= minimax.RESIDUAL_RTOL * max(norm, 1.0) for worst, norm in checked)
        assert np.isfinite(scan.best_bound) and scan.best_bound == scan.bounds.max()

    def test_window_does_not_repeat_ground_pair(self, monkeypatch):
        # bisection places lambda_0 1.8e-8 relative above the index solve here,
        # inside the window (lambda_0, max(A)/B_0]
        windows = []

        def spy(self, select, select_range):
            vals, vecs = eigh(self, select, select_range)
            windows.append(vals)
            return vals, vecs

        eigh = minimax.DiscretizedHamiltonian.eigh
        monkeypatch.setattr(minimax.DiscretizedHamiltonian, "eigh", spy)
        scan = lambda_scan(self.problem(lambda t: 1.5 + np.sin(np.asarray(t))), 100.0)
        ground, window = windows
        assert len(window) == 1 and abs(window[0] / ground[0] - 1.0) <= 1e-7
        assert np.array_equal(scan.eigenvalues, ground)
        assert len(np.unique(scan.eigenvalues)) == len(scan.eigenvalues)
        # the repeat carried the ground pair's candidate, so the best is the same
        assert scan.best_lambda == ground[0]
        assert scan.best_bound == scan.bounds[0]
        assert abs(scan.best_bound - 0.11923286070585228) <= 1e-12 * scan.best_bound
