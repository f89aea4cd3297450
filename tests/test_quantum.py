import numpy as np
import pytest

from bcrb.errors import GridValueError
from bcrb.geometry import StatisticalModel
from bcrb.optimal import bmax
from bcrb.quantum import (
    DensityFamily,
    _helstrom_stack,
    diagonal_qubit_family,
    gaussian_shift_bounds,
    helstrom_matrix,
    qmax,
    sld_scores,
    snr_observable,
)

from conftest import (
    const_matrix_fn,
    const_vector_fn,
    gaussian_prior_fn,
    line_grid,
)


def constant_family(matrix):
    """theta-independent one-parameter family: all scores vanish."""
    matrix = np.asarray(matrix, dtype=complex)
    dim = matrix.shape[0]
    zeros = np.zeros((1, dim, dim), dtype=complex)
    return DensityFamily(dim, 1, lambda _t: matrix, lambda _t: zeros)


def pure_state_family(sigma=1.0, dim=12):
    """Displaced Gaussian wavepacket expanded in its own Hermite basis.

    Analytic within the truncation: the coefficient vector of the displaced
    state in the harmonic eigenbasis is the coherent-state expansion.
    """
    # coherent-state-like amplitudes: c_k(t) = e^{-t^2/(8s^2)} (t/2s)^k/sqrt(k!)
    def coeffs(t):
        alpha = t / (2.0 * sigma)
        k = np.arange(dim)
        log_fact = np.cumsum(np.log(np.maximum(k, 1)))
        amp = np.exp(-(alpha**2) / 2.0 + k * np.log(np.abs(alpha) + 1e-300) - log_fact / 2.0)
        amp *= np.sign(alpha) ** k
        amp[0] = np.exp(-(alpha**2) / 2.0)
        return amp

    def rho_fn(theta):
        c = coeffs(float(theta[0]))
        c = c / np.linalg.norm(c)
        return np.outer(c, c).astype(complex)

    return DensityFamily(dim, 1, rho_fn, None, fd_step=1e-6)


class TestSldScores:
    def test_diagonal_qubit_scores(self):
        fam = diagonal_qubit_family()
        for t in (0.0, 0.3, -0.5):
            (score,) = sld_scores(fam, [t])
            expected = np.diag([1.0 / (1.0 + t), -1.0 / (1.0 - t)])
            assert np.max(np.abs(score - expected)) <= 1e-10

    def test_constant_family_zero_scores(self):
        fam = constant_family(np.diag([0.7, 0.3]))
        (score,) = sld_scores(fam, [0.1])
        assert np.max(np.abs(score)) <= 1e-12

    def test_pure_state_residual(self):
        fam = pure_state_family()
        rho = fam.rho([0.2])
        drho = fam.drho([0.2])
        (score,) = sld_scores(fam, [0.2])
        resid = rho @ score + score @ rho - 2.0 * drho[0]
        # residual on the support subspace: project on range(rho) from either side
        pvals, basis = np.linalg.eigh(rho)
        keep = pvals[:, None] + pvals[None, :] > 1e-12
        rb = basis.conj().T @ resid @ basis
        assert np.linalg.norm(rb[keep]) <= 1e-6

    def test_unreachable_derivative_rejected(self):
        # rho stays rank-1 in the first block, derivative lives in the zero block
        def rho_fn(_t):
            return np.diag([1.0, 0.0, 0.0]).astype(complex)

        def drho_fn(_t):
            d = np.zeros((1, 3, 3), dtype=complex)
            d[0, 1, 2] = d[0, 2, 1] = 1.0
            return d

        fam = DensityFamily(3, 1, rho_fn, drho_fn)
        with pytest.raises(GridValueError, match="reachable"):
            sld_scores(fam, [0.0])


class TestNonFiniteFamily:
    def test_nan_density_entry_rejected(self):
        def rho_fn(_t):
            return np.array([[0.5, np.nan], [np.nan, 0.5]], dtype=complex)

        fam = DensityFamily(2, 1, rho_fn, lambda _t: np.zeros((1, 2, 2)))
        with pytest.raises(GridValueError, match="density matrix has non-finite"):
            helstrom_matrix(fam, [0.0])

    @pytest.mark.parametrize("analytic", [True, False])
    def test_nan_derivative_rejected(self, analytic):
        qubit = diagonal_qubit_family()

        def rho_fn(theta):  # finite at 0 only, so central differences see NaN
            return qubit.rho_fn(theta) if theta[0] == 0.0 else np.full((2, 2), np.nan)

        def drho_fn(_t):
            return np.full((1, 2, 2), np.nan)

        fam = DensityFamily(2, 1, rho_fn, drho_fn if analytic else None)
        with pytest.raises(GridValueError, match="derivatives have non-finite"):
            helstrom_matrix(fam, [0.0])


class TestHelstromMatrix:
    def test_qubit_at_zero(self):
        assert abs(helstrom_matrix(diagonal_qubit_family(), [0.0])[0, 0] - 1.0) <= 1e-10

    def test_qubit_at_point_six(self):
        val = helstrom_matrix(diagonal_qubit_family(), [0.6])[0, 0]
        assert abs(val - 1.5625) <= 1e-8

    def test_constant_family_zero(self):
        assert abs(helstrom_matrix(constant_family(np.diag([0.7, 0.3])), [0.0])[0, 0]) <= 1e-12

    def test_classical_reduction(self):
        # diagonal family: K equals the Fisher information of the eigenvalues
        fam = diagonal_qubit_family()
        for t in (0.0, 0.25, 0.6, -0.4):
            k = helstrom_matrix(fam, [t])[0, 0]
            fisher = 1.0 / (1.0 - t**2)
            assert abs(k - fisher) <= 1e-8

    def test_unitary_conjugation_invariance(self):
        fam = diagonal_qubit_family()
        rng = np.random.default_rng(0)
        h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        h = (h + h.conj().T) / 2.0
        w, vec = np.linalg.eigh(h)
        unitary = vec  # fixed unitary

        def rho_fn(theta):
            return unitary @ fam.rho(theta) @ unitary.conj().T

        def drho_fn(theta):
            return np.array([unitary @ fam.drho(theta)[0] @ unitary.conj().T])

        rotated = DensityFamily(2, 1, rho_fn, drho_fn)
        for t in (0.0, 0.5):
            k0 = helstrom_matrix(fam, [t])[0, 0]
            k1 = helstrom_matrix(rotated, [t])[0, 0]
            assert abs(k0 - k1) <= 1e-8

    def test_pure_state_momentum_variance(self):
        # displaced wavepacket: K = 1/sigma^2
        fam = pure_state_family(sigma=1.0)
        val = helstrom_matrix(fam, [0.15])[0, 0]
        assert abs(val - 1.0) <= 1e-4

    def test_rho_built_and_checked_once(self):
        qubit = diagonal_qubit_family()
        calls = []

        def rho_fn(theta):
            calls.append(1)
            return qubit.rho_fn(theta)

        fam = DensityFamily(2, 1, rho_fn, qubit.drho_fn)
        assert helstrom_matrix(fam, [0.6])[0, 0] == helstrom_matrix(qubit, [0.6])[0, 0]
        assert len(calls) == 1
        sld_scores(fam, [0.6])
        assert len(calls) == 2


def _broken_entry(kind):
    """(rho, drho) of a qubit with the fault ``kind``, for one stack entry."""
    rho = np.diag([0.5, 0.5]).astype(complex)
    drho = np.array([np.diag([0.5, -0.5])], dtype=complex)
    if kind == "non-finite":
        rho[0, 1] = np.nan
    elif kind == "trace":
        rho = 1.5 * rho
    elif kind == "Hermitian":
        rho[0, 1] = 0.1
    elif kind == "negative":
        rho = np.diag([1.5, -0.5]).astype(complex)
    elif kind == "derivatives":
        drho[0, 1, 1] = np.inf
    elif kind == "reachable":
        rho = np.diag([1.0, 0.0]).astype(complex)
        drho = np.array([[[0.0, 0.0], [0.0, 1.0]]], dtype=complex)
    elif kind == "residual":
        # a derivative that is not Hermitian has no Hermitian score
        drho = np.array([[[0.0, 1.0], [0.0, 0.0]]], dtype=complex)
    return rho, drho


class TestHelstromStack:
    def test_stack_matches_single_points(self):
        fam = diagonal_qubit_family()
        thetas = [0.0, 0.35, -0.6]
        k, scores = _helstrom_stack(np.array([fam.rho([t]) for t in thetas]),
                                    np.array([fam.drho([t]) for t in thetas]))
        for t, k_t, s_t in zip(thetas, k, scores):
            assert np.array_equal(k_t, helstrom_matrix(fam, [t]))
            assert np.array_equal(s_t[0], sld_scores(fam, [t])[0])

    @pytest.mark.parametrize("kind, stem", [
        ("non-finite", "density matrix has non-finite entries"),
        ("trace", "density matrix trace"),
        ("Hermitian", "density matrix is not Hermitian"),
        ("negative", "density matrix has negative eigenvalue"),
        ("derivatives", "density-matrix derivatives have non-finite entries"),
        ("reachable", "derivative along axis 0 has weight"),
        ("residual", "score-equation residual"),
    ])
    def test_each_check_names_the_failing_entry(self, kind, stem):
        good, bad = _broken_entry(None), _broken_entry(kind)
        rho = np.array([good[0], bad[0], good[0]])
        drho = np.array([good[1], bad[1], good[1]])
        with pytest.raises(GridValueError, match=stem) as exc:
            _helstrom_stack(rho, drho, ["first", "second", "third"])
        assert str(exc.value).endswith(" at second")
        with pytest.raises(GridValueError, match=stem) as exc:
            _helstrom_stack(bad[0][None], bad[1][None])
        assert "second" not in str(exc.value)


class TestQmax:
    def test_equal_information_equal_bounds(self):
        grid = line_grid(-8.0, 8.0, 1201)
        model = StatisticalModel.from_callables(
            grid,
            fisher_fn=const_matrix_fn([[1.0]]),
            weight_fn=const_vector_fn([1.0]),
            prior_fn=gaussian_prior_fn(1.0),
            helstrom_fn=const_matrix_fn([[1.0]]),
        )
        quantum = qmax(model, n=10.0)
        classical = bmax(model, n=10.0)
        assert abs(quantum.bound - classical.bound) <= 1e-12

    def test_dominating_information_orders_bounds(self):
        grid = line_grid(-8.0, 8.0, 1201)
        model = StatisticalModel.from_callables(
            grid,
            fisher_fn=lambda c: (0.5 + 0.4 * np.tanh(np.asarray(c)[..., 0]) ** 2)[..., None, None],
            weight_fn=const_vector_fn([1.0]),
            prior_fn=gaussian_prior_fn(1.0),
            helstrom_fn=lambda c: (1.0 + 0.1 * np.asarray(c)[..., 0] ** 2)[..., None, None],
        )
        rep = qmax(model, n=3.0)
        assert rep.bound <= rep.diagnostics["classical_bound"] + 1e-10

    def test_gaussian_scalar_closed_form(self):
        grid = line_grid(-8.0, 8.0, 2001)
        model = StatisticalModel.from_callables(
            grid,
            fisher_fn=const_matrix_fn([[2.0]]),
            weight_fn=const_vector_fn([1.0]),
            prior_fn=gaussian_prior_fn(1.0),
            helstrom_fn=const_matrix_fn([[2.0]]),
        )
        rep = qmax(model, n=1.0)
        assert abs(rep.bound - 1.0 / 3.0) <= 1e-6

    def test_missing_helstrom_rejected(self, gauss_model):
        with pytest.raises(GridValueError, match="Helstrom"):
            qmax(gauss_model, n=1.0)


class TestSnrObservable:
    def test_score_achieves_equality(self):
        fam = diagonal_qubit_family()
        for t in (0.0, 0.6):
            (score,) = sld_scores(fam, [t])
            k = helstrom_matrix(fam, [t])[0, 0]
            snr = snr_observable(fam, [t], [1.0], score)
            assert abs(snr - k) <= 1e-8 * k

    def test_identity_observable_zero(self):
        fam = diagonal_qubit_family()
        assert snr_observable(fam, [0.3], [1.0], np.eye(2)) == 0.0

    def test_random_observables_bounded(self):
        fam = diagonal_qubit_family()
        t = 0.35
        k = helstrom_matrix(fam, [t])[0, 0]
        rng = np.random.default_rng(12)
        for _ in range(100):
            y = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            y = (y + y.conj().T) / 2.0
            snr = snr_observable(fam, [t], [1.0], y)
            assert snr <= k + 1e-8

    def test_zero_variance_with_sensitivity_rejected(self):
        # contrived family: variance of Y vanishes but mean still moves
        def rho_fn(_t):
            return np.diag([1.0, 0.0]).astype(complex)

        def drho_fn(_t):
            d = np.zeros((1, 2, 2), dtype=complex)
            d[0, 0, 0] = 1.0
            d[0, 1, 1] = -1.0
            return d

        fam = DensityFamily(2, 1, rho_fn, drho_fn)
        with pytest.raises(GridValueError, match="zero-variance"):
            snr_observable(fam, [0.0], [1.0], np.diag([1.0, -1.0]))


class TestGaussianShift:
    def test_scalar_example(self):
        q, risk = gaussian_shift_bounds(2.0, 1.0, 1.0)
        assert abs(q - 1.0 / 3.0) <= 1e-14
        assert abs(risk - 1.0 / 2.0) <= 1e-14
        assert q <= risk <= 2.0 * q

    def test_strong_prior_limit(self):
        q, risk = gaussian_shift_bounds(2.0, 1e6, 1.0)
        assert abs(q - 1e-6) <= 1e-11
        assert abs(risk - 1e-6) <= 1e-11

    def test_zero_weight(self):
        q, risk = gaussian_shift_bounds(2.0, 1.0, 0.0)
        assert q == 0.0 and risk == 0.0

    def test_non_pd_rejected(self):
        with pytest.raises(GridValueError, match="positive definite"):
            gaussian_shift_bounds(-1.0, 0.0, 1.0)

    def test_random_sandwich_sweep(self):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            m = rng.integers(1, 4)
            a = rng.normal(size=(2 * m, 2 * m))
            k = a @ a.T + 1e-6 * np.eye(2 * m)
            b = rng.normal(size=(2 * m, 2 * m))
            g = b @ b.T + 1e-6 * np.eye(2 * m)
            u = rng.normal(size=2 * m)
            q, risk = gaussian_shift_bounds(k, g, u)
            assert q <= risk + 1e-10 * max(1.0, q)
            assert risk <= 2.0 * q + 1e-10 * max(1.0, q)
