import tracemalloc
import warnings

import numpy as np
import pytest

from bcrb import waveform
from bcrb.errors import GridValueError, SpectralDomainError
from bcrb.waveform import (
    NoiseFloorViolation,
    SpectralModel,
    TimeDiscretization,
    build_circulant_bound,
    continuum_qmax,
    noise_floor_check,
    rectangle_spectra,
    wiener_risk,
)


def lorentzian_spectra(n=4001, span=60.0, with_measurement=True, floor_scale=1.0):
    """Smooth decaying integrand: prior with Lorentzian spectrum."""
    omega = np.linspace(-span, span, n)
    s_q = np.full(n, 0.25)
    s_theta = 1.0 / (1.0 + omega**2) ** 2
    h_abs2 = 1.0 / (1.0 + omega**2)
    kwargs = {}
    if with_measurement:
        # quantum-limited equality point: |h_X|^2/S_Z = 4 S_q/hbar^2, scaled
        kwargs["hx_abs2"] = np.ones(n)
        kwargs["s_z"] = np.full(n, 1.0 / (4.0 * 0.25)) / floor_scale
    return SpectralModel(omega, s_q=s_q, s_theta=s_theta, h_abs2=h_abs2, **kwargs)


def dense_circulant_bound(disc, spectra):
    """Reference bound with the weights' transform as a dense p x p DFT."""
    w_j = disc.frequencies
    s_q = waveform._interp_spectrum(spectra.omega, spectra.s_q, w_j, "s_q")
    s_th = waveform._interp_spectrum(spectra.omega, spectra.s_theta, w_j, "s_theta")
    den = 4.0 * s_q / spectra.hbar**2 + waveform._inverse_prior(s_th)
    transform = disc.dt * np.exp(-1j * np.outer(w_j, disc.times)) @ disc.weights
    h2 = np.abs(transform) ** 2
    good = den > 0
    return float(np.sum(h2[good] / den[good]) / disc.total_time)


def full_grid_interp_spectrum(omega_grid, values, omega_out):
    """Reference interpolation over the whole spectral grid (no coverage check).

    A frequency exactly on a node takes that node's value.
    """
    finite = np.where(np.isfinite(values), values, np.nan)
    out = np.interp(omega_out, omega_grid, finite)
    inf_mask = ~np.isfinite(values)
    if inf_mask.any():
        idx = np.searchsorted(omega_grid, omega_out)
        idx_lo = np.clip(idx - 1, 0, len(omega_grid) - 1)
        idx_hi = np.clip(idx, 0, len(omega_grid) - 1)
        out[inf_mask[idx_lo] | inf_mask[idx_hi]] = np.inf
        on_node = omega_grid[idx_hi] == omega_out
        out[on_node] = values[idx_hi[on_node]]
    return out


class TestSpectralModel:
    def test_rejects_asymmetric_grid(self):
        with pytest.raises(GridValueError, match="symmetric"):
            SpectralModel(np.linspace(0, 1, 11), s_q=1.0, s_theta=1.0)

    def test_rejects_odd_spectrum(self):
        omega = np.linspace(-1, 1, 11)
        with pytest.raises(GridValueError, match="even"):
            SpectralModel(omega, s_q=np.abs(omega) + omega * 0.1, s_theta=1.0)

    def test_rejects_infinity_on_one_side(self):
        omega = np.linspace(-1, 1, 11)
        s_theta = np.ones(11)
        s_theta[-2] = np.inf  # at +omega only
        with pytest.raises(GridValueError, match="s_theta must be an even"):
            SpectralModel(omega, s_q=1.0, s_theta=s_theta)
        s_theta[1] = np.inf  # mirrored: accepted
        assert np.isinf(SpectralModel(omega, s_q=1.0, s_theta=s_theta).s_theta[1])

    @pytest.mark.parametrize("mismatch, accepted", [(2e-9, False), (5e-10, True)])
    def test_mirror_mismatch_relative_to_largest_finite_value(self, mismatch, accepted):
        omega = np.linspace(-1, 1, 11)
        scale = 40.0
        s_q = scale / (1.0 + omega**2)
        s_q[0] = np.inf
        s_q[-1] = np.inf  # infinities must not enter the scale
        s_q[3] += mismatch * scale
        if accepted:
            assert SpectralModel(omega, s_q=s_q, s_theta=1.0).s_q[3] == s_q[3]
        else:
            with pytest.raises(GridValueError, match="s_q must be an even"):
                SpectralModel(omega, s_q=s_q, s_theta=1.0)

    def test_rejects_negative(self):
        omega = np.linspace(-1, 1, 11)
        with pytest.raises(GridValueError, match="nonnegative"):
            SpectralModel(omega, s_q=np.full(11, -1.0), s_theta=1.0)

    def test_scalar_spectrum_is_read_only_view(self):
        model = SpectralModel(np.linspace(-1, 1, 11), s_q=0.5, s_theta=1.0)
        assert model.s_q.shape == (11,) and model.s_q.strides == (0,)
        assert not model.s_q.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            model.s_q[3] = 1.0

    @pytest.mark.parametrize("value", [-1.0, np.nan])
    def test_rejects_negative_or_nan_scalar(self, value):
        with pytest.raises(GridValueError, match="s_q must be nonnegative"):
            SpectralModel(np.linspace(-1, 1, 11), s_q=value, s_theta=1.0)

    def test_csv_round_trip(self, tmp_path):
        import csv

        omega = np.linspace(-2, 2, 9)
        path = tmp_path / "spec.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["omega", "s_q", "s_theta"])
            for w in omega:
                writer.writerow([w, 0.5, 1.0 / (1.0 + w * w)])
        model = SpectralModel.from_csv(path)
        assert np.allclose(model.omega, omega)
        assert np.allclose(model.s_q, 0.5)

    @pytest.mark.parametrize("omega", [[-np.inf, 0.0, np.inf], [-1.0, 0.0, np.inf],
                                       [np.nan, 0.0, 1.0]],
                             ids=["both_infinite", "one_infinite", "nan"])
    def test_rejects_non_finite_frequency(self, omega):
        # an infinite step passes the uniform-step test, and -inf + inf is a
        # NaN that would slip through the symmetry test with a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GridValueError, match="frequency grid must be finite"):
                SpectralModel(np.array(omega), s_q=1.0, s_theta=1.0,
                              h_abs2=np.array([0.0, 1.0, 0.0]))

    @pytest.mark.parametrize("hbar", [np.nan, 0.0, -1.0, np.inf])
    def test_hbar_must_be_finite_and_positive(self, hbar):
        with pytest.raises(GridValueError, match="hbar must be finite and positive"):
            SpectralModel(np.linspace(-1, 1, 11), s_q=1.0, s_theta=1.0, hbar=hbar)


class TestBlockwiseChecks:
    """Each defect sits in a late block or across a block edge of a grid with
    more than three blocks, and is still rejected with the same message."""

    N = 3 * waveform.BLOCK + 1
    LATE = [2 * waveform.BLOCK, 3 * waveform.BLOCK - 3, 3 * waveform.BLOCK]

    def omega(self):
        return np.linspace(-10.0, 10.0, self.N)

    @pytest.mark.parametrize("k", LATE)
    def test_one_non_uniform_step(self, k):
        omega = self.omega()
        omega[k:] += 1e-7  # only the step into node k changes
        with pytest.raises(GridValueError, match="uniform and increasing"):
            SpectralModel(omega, s_q=1.0, s_theta=1.0)

    @pytest.mark.parametrize("k", LATE)
    def test_odd_perturbation(self, k):
        omega = self.omega()
        s_q = 1.0 + 1e-8 * np.sin(omega) * (np.abs(omega) >= abs(omega[k]))
        with pytest.raises(GridValueError, match="s_q must be an even"):
            SpectralModel(omega, s_q=s_q, s_theta=1.0)

    @pytest.mark.parametrize("k", LATE)
    def test_infinity_on_one_side(self, k):
        s_theta = np.ones(self.N)
        s_theta[k] = np.inf
        with pytest.raises(GridValueError, match="s_theta must be an even"):
            SpectralModel(self.omega(), s_q=1.0, s_theta=s_theta)
        s_theta[self.N - 1 - k] = np.inf  # mirrored: accepted
        SpectralModel(self.omega(), s_q=1.0, s_theta=s_theta)

    @pytest.mark.parametrize("bad", [np.nan, -1.0])
    @pytest.mark.parametrize("k", LATE)
    def test_nan_or_negative_value(self, k, bad):
        s_theta = np.ones(self.N)
        s_theta[k] = s_theta[self.N - 1 - k] = bad
        with pytest.raises(GridValueError, match="s_theta must be nonnegative"):
            SpectralModel(self.omega(), s_q=1.0, s_theta=s_theta)

    @pytest.mark.parametrize("k", LATE)
    def test_zero_denominator_with_weight(self, k):
        omega = self.omega()
        s_theta = np.exp(-omega**2)
        s_theta[k] = s_theta[self.N - 1 - k] = np.inf  # no prior, no noise there
        spectra = SpectralModel(omega, s_q=0.0, s_theta=s_theta, h_abs2=1.0)
        with pytest.raises(GridValueError, match="zero denominator"):
            continuum_qmax(spectra)

    def test_integrand_not_decaying_at_edges(self):
        omega = self.omega()
        h_abs2 = np.exp(-omega**2)
        h_abs2[0] = h_abs2[-1] = 1e-3
        spectra = SpectralModel(omega, s_q=0.75, s_theta=1.0, h_abs2=h_abs2)
        with pytest.raises(SpectralDomainError, match="widen"):
            continuum_qmax(spectra)
        h_abs2[0] = h_abs2[-1] = 0.0
        decaying = SpectralModel(omega, s_q=0.75, s_theta=1.0, h_abs2=h_abs2)
        assert continuum_qmax(decaying) > 0.0

    @pytest.mark.parametrize("factor", [0.9, 1.1])
    def test_uniform_step_as_allclose(self, factor):
        # one node moved by factor times the tolerance of np.allclose(rtol=1e-9):
        # the steps on either side of it move by plus and minus that much
        omega = self.omega()
        step = omega[1] - omega[0]
        omega[self.LATE[1]] += factor * (1e-8 + 1e-9 * abs(step))
        accepted = np.allclose(np.diff(omega), step, rtol=1e-9)
        assert accepted == (factor < 1.0)
        if accepted:
            SpectralModel(omega, s_q=1.0, s_theta=1.0)
        else:
            with pytest.raises(GridValueError, match="uniform and increasing"):
                SpectralModel(omega, s_q=1.0, s_theta=1.0)

    def test_infinite_mirrored_blocks_accepted(self):
        # inf - inf is NaN in the mirror difference, which the evenness check
        # skips, also next to a finite mismatch in the same block
        s_theta = np.full(self.N, 0.5)
        s_theta[:waveform.BLOCK] = s_theta[-waveform.BLOCK:] = np.inf
        model = SpectralModel(self.omega(), s_q=1.0, s_theta=s_theta)
        assert np.array_equal(model.s_theta, s_theta)
        k = waveform.BLOCK // 2
        s_theta[k] = s_theta[self.N - 1 - k] = 0.5
        s_theta[k] += 1e-8  # beyond 1e-9 of the largest finite value
        with pytest.raises(GridValueError, match="s_theta must be an even"):
            SpectralModel(self.omega(), s_q=1.0, s_theta=s_theta)

    def spectra_with_zeros_and_infinities(self):
        def pairs(*nodes):  # each node and its mirror
            return np.r_[nodes, self.N - 1 - np.array(nodes)]

        omega = self.omega()
        B = waveform.BLOCK
        s_theta = 1.0 / (1.0 + omega**2)
        s_theta[pairs(B // 2, 3 * B // 2 - 2, 2 * B)] = np.inf
        s_theta[pairs(7, B, 2 * B + 5)] = 0.0
        s_q = np.full(self.N, 0.25)
        s_q[pairs(20, B - 1, 2 * B + 5)] = np.inf
        s_q[pairs(30, B + 1)] = 0.0
        h_abs2 = np.exp(-omega**2 / 4.0)
        h_abs2[np.abs(omega) < 0.5] = 0.0
        s_z = np.where(np.abs(omega) > 8.0, np.inf, 2.0 + np.cos(omega))
        hx_abs2 = np.where(np.abs(omega) < 1.0, 0.0, 1.0 / (1.0 + omega**2))
        return SpectralModel(omega, s_q=s_q, s_theta=s_theta, h_abs2=h_abs2,
                             s_z=s_z, hx_abs2=hx_abs2)

    def test_integrals_equal_trapezoid_reference(self):
        spectra = self.spectra_with_zeros_and_infinities()
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = np.where(spectra.s_theta > 0, 1.0 / spectra.s_theta, np.inf)
            inv = np.where(np.isinf(spectra.s_theta), 0.0, inv)
            s_z, hx_abs2 = spectra.s_z, spectra.hx_abs2
            meas = np.where(s_z > 0, hx_abs2 / s_z, np.inf)
        meas = np.where(np.isinf(s_z), 0.0, meas)
        meas = np.where((hx_abs2 == 0) & (s_z == 0), 0.0, meas)
        assert (meas + inv == 0).any()  # where the weight is 0
        for den, value in ((4.0 * spectra.s_q / spectra.hbar**2 + inv, continuum_qmax(spectra)),
                           (meas + inv, wiener_risk(spectra))):
            good = (den > 0) & np.isfinite(den)
            assert np.isinf(den).any()
            integrand = np.divide(spectra.h_abs2, den, out=np.zeros(self.N), where=good)
            assert value == np.trapezoid(integrand, spectra.omega) / (2.0 * np.pi)
            assert value > 0.0

    # at 301 and 381 nodes the edge nodes round to just outside the band, and
    # the 1e-12 slack keeps them in it
    @pytest.mark.parametrize("nodes, span_factor", [
        (5, 2.0), (9, 2.0), (10, 2.0), (301, 2.0), (381, 2.0), (401, 1.0), (1001, 3.0),
        (N, 2.0), (N + 1, 2.0), (N + 2, 1.5),
    ])
    def test_rectangle_prior_is_the_band(self, nodes, span_factor):
        band, level = 2.0 * np.pi, 0.625
        spectra = rectangle_spectra(band=band, s_theta_level=level, span_factor=span_factor,
                                    nodes=nodes)
        inside = np.abs(spectra.omega) <= band + 1e-12
        assert np.array_equal(spectra.s_theta, np.where(inside, level, 0.0))
        if (nodes - 1) % (2 * span_factor) == 0:  # the band edges sit on nodes, inside it
            assert inside.sum() == (nodes - 1) / span_factor + 1


class TestSpectralMemory:
    def test_traced_peak_proportional_to_grid(self):
        # omega and s_theta are the rectangle's only full-length arrays, and
        # the trapezoid terms are continuum_qmax's only one
        n = 2_000_001
        tracemalloc.start()
        try:
            spectra = rectangle_spectra(nodes=n)
            build_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            value = continuum_qmax(spectra)
            integral_peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert build_peak <= 2.2 * 8 * n
        assert integral_peak <= 1.2 * 8 * n
        assert abs(value - 0.5) <= 1e-6


class TestContinuumQmax:
    def test_rectangle_half(self):
        # flat unit weight, 4 S_q/hbar^2 = 3 and S_theta = 1 inside |w| <= 2 pi
        spectra = rectangle_spectra()
        assert abs(continuum_qmax(spectra) - 0.5) <= 1e-6

    @pytest.mark.parametrize("nodes", [200_001, 400_001, 800_001])
    def test_rectangle_error_is_first_order(self, nodes):
        # the known exception to second order: each band edge sits on a node,
        # where the trapezoid rule adds h * 0.25 / 2 / (2 pi); two edges give
        # exactly d_omega / (8 pi)
        spectra = rectangle_spectra(nodes=nodes)
        d_omega = spectra.omega[1] - spectra.omega[0]
        ratio = (continuum_qmax(spectra) - 0.5) / d_omega
        assert abs(ratio * 8.0 * np.pi - 1.0) <= 1e-9

    def test_infinitely_informative_measurement(self):
        spectra = lorentzian_spectra()
        noiseless = SpectralModel(
            spectra.omega, s_q=np.full(len(spectra.omega), np.inf),
            s_theta=spectra.s_theta, h_abs2=spectra.h_abs2,
        )
        assert continuum_qmax(noiseless) == 0.0

    def test_edge_decay_guard(self):
        omega = np.linspace(-2 * np.pi, 2 * np.pi, 1001)
        flat = SpectralModel(omega, s_q=0.75, s_theta=1.0, h_abs2=np.ones(1001))
        with pytest.raises(SpectralDomainError, match="widen"):
            continuum_qmax(flat)

    def test_instant_weight_horizon_independent(self):
        # |h~| = 1: the value is a steady-state quantity with no horizon in it
        val = continuum_qmax(rectangle_spectra())
        for p, t in ((256, 64.0), (1024, 256.0)):
            disc = TimeDiscretization.instant_weight(t, p)
            discrete = build_circulant_bound(disc, rectangle_spectra(nodes=100001))
            assert abs(discrete - val) <= 0.05 * val


class TestCirculantBound:
    def test_converges_to_continuum(self):
        spectra = rectangle_spectra(nodes=100001)
        target = continuum_qmax(rectangle_spectra())
        errs = []
        for p in (128, 256, 512, 1024, 2048, 4096):
            disc = TimeDiscretization.instant_weight(p * 0.25, p)
            errs.append(abs(build_circulant_bound(disc, spectra) - target))
        for a, b in zip(errs, errs[1:]):
            assert b <= a * 1.05  # monotone trend
        assert errs[-2] <= 0.01 * target  # within 1% at p = 2048

    def test_perfect_prior_kills_bound(self):
        omega = np.linspace(-13, 13, 2001)
        spectra = SpectralModel(omega, s_q=0.5, s_theta=np.zeros(2001))
        disc = TimeDiscretization.instant_weight(32.0, 128)
        assert build_circulant_bound(disc, spectra) == 0.0

    def test_zero_weights_zero_bound(self):
        omega = np.linspace(-20, 20, 2001)
        spectra = SpectralModel(omega, s_q=0.5, s_theta=1.0)
        disc = TimeDiscretization(16.0, 64, np.zeros(64))
        assert build_circulant_bound(disc, spectra) == 0.0

    def test_band_coverage_required(self):
        omega = np.linspace(-1, 1, 101)
        spectra = SpectralModel(omega, s_q=0.5, s_theta=1.0)
        disc = TimeDiscretization.instant_weight(16.0, 64)  # band +-4pi
        with pytest.raises(SpectralDomainError, match="covered"):
            build_circulant_bound(disc, spectra)

    @pytest.mark.parametrize("total_time", [np.nan, np.inf])
    def test_non_finite_total_time_rejected(self, total_time):
        with pytest.raises(GridValueError, match="total_time must be finite and positive"):
            TimeDiscretization(total_time, 64, np.zeros(64))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weight_rejected(self, bad):
        w = np.zeros(64)
        w[[5, 9]] = bad
        with pytest.raises(GridValueError, match=f"weights must be finite, got {bad} at slot 5"):
            TimeDiscretization(16.0, 64, w)


class TestCirculantFFT:
    @pytest.mark.parametrize("p", [2, 3, 127, 128, 1001, 2048])
    def test_random_weights_match_dense(self, p):
        spectra = rectangle_spectra(nodes=20001)
        weights = np.random.default_rng(p).normal(size=p)
        disc = TimeDiscretization(p * 0.25, p, weights)
        ref = dense_circulant_bound(disc, spectra)
        assert abs(build_circulant_bound(disc, spectra) - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("p", [128, 512, 2048])
    def test_instant_weight_bitwise_dense(self, p):
        spectra = rectangle_spectra(nodes=200001)
        disc = TimeDiscretization.instant_weight(p * 0.25, p)
        assert build_circulant_bound(disc, spectra) == dense_circulant_bound(disc, spectra)

    def test_large_p_memory(self):
        # the dense p x p phase matrix would need > 100 GB at p = 2^16
        p = 2**16
        spectra = rectangle_spectra(nodes=200001)
        target = 0.5  # closed form of the default rectangle
        disc = TimeDiscretization.instant_weight(p * 0.25, p)
        tracemalloc.start()
        try:
            value = build_circulant_bound(disc, spectra)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert abs(value - target) <= 4.0 / p * target


class TestInterpSpectrum:
    @pytest.mark.parametrize("p", [2, 3, 128, 1001])
    def test_rectangle_bitwise_full_grid(self, p):
        spectra = rectangle_spectra(nodes=20001)
        w_j = TimeDiscretization(p * 0.25, p, np.zeros(p)).frequencies
        for name in ("s_q", "s_theta"):
            values = getattr(spectra, name)
            np.testing.assert_array_equal(
                waveform._interp_spectrum(spectra.omega, values, w_j, name),
                full_grid_interp_spectrum(spectra.omega, values, w_j))

    def test_infinite_entries_bitwise_full_grid(self):
        omega = np.linspace(-10.0, 10.0, 2001)
        values = 1.0 / (1.0 + omega**2)
        values[np.abs(omega) > 8.0] = np.inf
        values[[700, 1000, 1001, 1300]] = np.inf
        values[0] = values[-1] = np.inf
        rng = np.random.default_rng(5)
        step = omega[1] - omega[0]
        omega_out = np.concatenate([
            omega,                                  # exactly on every node
            omega[:-1] + 0.5 * step,                # midpoints
            rng.uniform(-10.0, 10.0, 500),
            [omega[0] - 5e-13, omega[-1] + 5e-13],  # grid ends, within tolerance
        ])
        out = waveform._interp_spectrum(omega, values, omega_out, "s_theta")
        np.testing.assert_array_equal(out, full_grid_interp_spectrum(omega, values, omega_out))
        assert np.isinf(out[[0, 700, 1000, 1001, 1300, 2000]]).all()
        # the midpoints next to an infinite node inherit it; the nodes on
        # either side keep their own finite values
        assert np.isinf(out[2001 + 699]) and np.isinf(out[2001 + 700])
        assert np.isfinite(out[[698, 699, 701, 702]]).all()
        np.testing.assert_array_equal(out[[699, 701]], values[[699, 701]])

    @pytest.mark.parametrize("level", [0.0, 0.75, np.inf])
    def test_constant_spectrum_bitwise_full_grid(self, level):
        spectra = SpectralModel(np.linspace(-20.0, 20.0, 2001), s_q=level, s_theta=1.0)
        assert spectra.s_q.strides == (0,)
        rng = np.random.default_rng(3)
        w_j = np.concatenate([spectra.omega[::7], rng.uniform(-20.0, 20.0, 300),
                              TimeDiscretization(32.0, 128, np.zeros(128)).frequencies])
        np.testing.assert_array_equal(
            waveform._interp_spectrum(spectra.omega, spectra.s_q, w_j, "s_q"),
            full_grid_interp_spectrum(spectra.omega, spectra.s_q, w_j))

    def test_coverage_checked(self):
        omega = np.linspace(-1.0, 1.0, 101)
        with pytest.raises(SpectralDomainError, match="covered"):
            waveform._interp_spectrum(omega, np.ones(101), np.array([0.0, 1.0 + 1e-9]), "s_q")


class TestWienerRisk:
    def test_equality_at_quantum_limit(self):
        spectra = lorentzian_spectra()
        assert wiener_risk(spectra) == continuum_qmax(spectra)

    def test_suboptimal_measurement_costs(self):
        half = lorentzian_spectra(floor_scale=0.5)  # S_Z doubled
        assert wiener_risk(half) > continuum_qmax(half)

    def test_uninformative_measurement_prior_only(self):
        spectra = lorentzian_spectra()
        blind = SpectralModel(
            spectra.omega, s_q=spectra.s_q, s_theta=spectra.s_theta,
            h_abs2=spectra.h_abs2, hx_abs2=spectra.hx_abs2,
            s_z=np.full(len(spectra.omega), np.inf),
        )
        prior_only = np.trapezoid(spectra.h_abs2 * spectra.s_theta, spectra.omega) / (2 * np.pi)
        assert abs(wiener_risk(blind) - prior_only) <= 1e-12

    def test_dominates_quantum_bound_when_floor_holds(self):
        for scale in (1.0, 2.0, 7.5):
            spectra = lorentzian_spectra(floor_scale=1.0 / scale)
            assert noise_floor_check(spectra) == []
            assert wiener_risk(spectra) >= continuum_qmax(spectra) - 1e-15


class TestNoiseFloor:
    def test_quantum_limited_passes(self):
        assert noise_floor_check(lorentzian_spectra()) == []

    def test_halved_noise_violates_everywhere(self):
        # S_Z halved on a grid of several blocks: one band across their edges
        bad = lorentzian_spectra(n=3 * waveform.BLOCK + 1, floor_scale=2.0)
        (band,) = noise_floor_check(bad)
        assert (band.omega_lo, band.omega_hi) == (bad.omega[0], bad.omega[-1])
        assert band.omega == bad.omega[0]  # every margin ties: the first node
        assert band.margin == 2.0

    def test_one_record_per_band_across_blocks(self):
        # S_Z dips below the floor wherever cos(omega) < 0: ten bands of about
        # 10,500 nodes, some crossing a block edge, give ten records
        omega = np.linspace(-30.0, 30.0, 200_001)
        depth = 1.0 + 0.5 * np.cos(omega)
        spectra = SpectralModel(omega, s_q=0.25, s_theta=1.0, hx_abs2=1.0, s_z=depth)
        violations = noise_floor_check(spectra)
        # bands around the odd multiples of pi inside [-30, 30]
        centers = np.pi * np.arange(-9, 10, 2)
        assert len(violations) == len(centers)
        nodes = np.flatnonzero(depth < 1.0 * (1.0 - waveform.FLOOR_VIOLATION_RTOL))
        assert sum(round((v.omega_hi - v.omega_lo) / (omega[1] - omega[0])) + 1
                   for v in violations) == len(nodes)
        edges = np.arange(waveform.BLOCK, len(omega), waveform.BLOCK)
        assert any(v.omega_lo < omega[e] <= v.omega_hi for v in violations for e in edges)
        for v, center in zip(violations, centers):
            assert v.omega_lo < center < v.omega_hi
            assert v.omega_lo <= v.omega <= v.omega_hi
            assert abs(v.omega - center) <= omega[1] - omega[0]
            assert v.margin == 1.0 / v.noise_floor
            assert abs(v.margin - 2.0) <= 1e-8

    def test_infinite_probe_noise_never_violated(self):
        spectra = lorentzian_spectra()
        free = SpectralModel(
            spectra.omega, s_q=np.full(len(spectra.omega), np.inf),
            s_theta=spectra.s_theta, h_abs2=spectra.h_abs2,
            hx_abs2=spectra.hx_abs2, s_z=np.full(len(spectra.omega), 1e-12),
        )
        assert noise_floor_check(free) == []

    def test_violation_record_fields(self):
        v = NoiseFloorViolation(0.5, 1.5, 1.0, 0.5, 1.0)
        d = v.to_dict()
        assert d["margin"] == 2.0
        assert set(d) == {"omega_lo", "omega_hi", "omega", "noise_floor",
                          "quantum_floor", "margin"}
