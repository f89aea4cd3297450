"""Waveform estimation in the stationary, long-observation-time regime.

Discretizing a continuously measured waveform over p time slots turns the
quantum information and the prior covariance into circulant matrices whose
symbols are the power spectral densities, so the optimal quantum bound
diagonalizes in the frequency domain:

    Q_max = (1/T) sum_j |h~(w_j)|^2 / (4 S_q(w_j)/hbar^2 + 1/S_theta(w_j)),

which converges, as the slot width shrinks and the horizon grows, to

    Q_max -> int |h~(w)|^2 / (4 S_q/hbar^2 + 1/S_theta) dw / (2 pi).

A linear measurement with transfer function h_X and noise spectrum S_Z
reaches the Wiener-smoother risk with the same structure, and comparing the
two integrands gives the quantum limit on the measurement noise floor:
S_Z / |h_X|^2 >= hbar^2 / (4 S_q) at every frequency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridValueError, SpectralDomainError
from .grids import read_csv

EDGE_DECAY_RTOL = 1e-6
EVENNESS_RTOL = 1e-9
FLOOR_VIOLATION_RTOL = 1e-12
# entries per block of the spectral checks and integrals: their temporaries
# stay this size however many frequency nodes the grid has
BLOCK = 2**15


def _blocks(n):
    """The [a, b) ranges of at most BLOCK indices that cover range(n), in order."""
    return ((a, min(a + BLOCK, n)) for a in range(0, n, BLOCK))


def _as_spectrum(values, n, name) -> np.ndarray:
    """``values`` as a checked length-n spectrum; a scalar becomes a read-only
    stride-0 view of its one value."""
    if np.isscalar(values):
        values = np.broadcast_to(float(values), (n,))
    arr = np.asarray(values, dtype=float)
    if arr.shape != (n,):
        raise GridValueError(f"{name} has shape {arr.shape}, expected ({n},)")
    # the minimum is NaN if any entry is; a stride-0 spectrum is checked at its one value
    if not np.min(arr[:1] if arr.strides == (0,) else arr) >= 0:
        raise GridValueError(f"{name} must be nonnegative (inf allowed)")
    return arr


def _is_even(arr) -> bool:
    """Infinities mirror exactly, finite values to within EVENNESS_RTOL of the
    largest finite value (at least 1); compares each block of the first half
    with its mirror.  |x - mirror| is NaN where both are inf, which fmax skips,
    and inf where only one is, which fails."""
    n = len(arr)
    largest = worst = 0.0
    for a, b in _blocks((n + 1) // 2):
        block, mirror = arr[a:b], arr[n - b:n - a]
        with np.errstate(invalid="ignore"):
            diff = np.subtract(block, mirror[::-1])
        worst = max(worst, float(np.fmax.reduce(np.abs(diff, out=diff), initial=0.0)))
        for half in (block, mirror):
            top = np.max(half)
            if top == np.inf:
                top = np.max(half, where=np.isfinite(half), initial=0.0)
            largest = max(largest, float(top))
    return worst <= EVENNESS_RTOL * max(largest, 1.0)


@dataclass(frozen=True, eq=False)
class SpectralModel:
    """Spectra and transfer functions on a symmetric uniform frequency grid.

    ``s_q`` is the symmetrized position-noise spectrum of the probe,
    ``s_theta`` the prior spectrum of the waveform, ``s_z`` the measurement
    noise spectrum, ``h_abs2`` the squared magnitude of the estimation
    weight transform and ``hx_abs2`` that of the measurement transfer
    function.  All spectra are nonnegative and even; infinities are allowed
    (an infinite prior spectrum means no prior information at that
    frequency).  A spectrum given as a scalar is stored as a read-only
    stride-0 view, so a constant spectrum holds one number, not one per node.
    """

    omega: np.ndarray
    s_q: np.ndarray
    s_theta: np.ndarray
    s_z: np.ndarray | None = None
    h_abs2: np.ndarray | None = None
    hx_abs2: np.ndarray | None = None
    hbar: float = 1.0

    def __post_init__(self):
        omega = np.asarray(self.omega, dtype=float)
        n = len(omega)
        if n < 3:
            raise GridValueError("need at least 3 frequency nodes")
        if not 0 < self.hbar < np.inf:
            raise GridValueError(f"hbar must be finite and positive, got {self.hbar}")
        # finite ends and the increasing steps checked next make every node finite
        if not (np.isfinite(omega[0]) and np.isfinite(omega[-1])):
            raise GridValueError(
                f"frequency grid must be finite, got endpoints {omega[0]} and {omega[-1]}")
        # every step positive and np.allclose(steps, step, rtol=1e-9), from the
        # extreme steps of each block (both NaN if one step is); allclose's
        # x == y alone admits an infinite step
        step = omega[1] - omega[0]
        tol = 1e-8 + 1e-9 * abs(step)
        for a, b in _blocks(n - 1):
            steps = omega[a + 1:b + 1] - omega[a:b]
            lo, hi = np.min(steps), np.max(steps)
            close = lo == hi == step or (
                np.isfinite(step) and hi - step <= tol and step - lo <= tol)
            if not (lo > 0 and close):
                raise GridValueError("frequency grid must be uniform and increasing")
        if abs(omega[0] + omega[-1]) > 1e-9 * max(abs(omega[0]), 1.0):
            raise GridValueError("frequency grid must be symmetric about zero")
        object.__setattr__(self, "omega", omega)
        for name in ("s_q", "s_theta", "s_z", "h_abs2", "hx_abs2"):
            val = getattr(self, name)
            if val is None:
                continue
            arr = _as_spectrum(val, n, name)
            if arr.strides != (0,) and not _is_even(arr):  # a constant is even
                raise GridValueError(f"{name} must be an even function of frequency")
            object.__setattr__(self, name, arr)

    @classmethod
    def from_csv(cls, path, hbar: float = 1.0) -> "SpectralModel":
        """Columns: omega plus any of s_q, s_theta, s_z, h_abs2, hx_abs2."""
        header, rows = read_csv(path)
        if "omega" not in header:
            raise GridValueError("spectra CSV needs an 'omega' column")
        cols = {name: rows[:, i] for i, name in enumerate(header)}
        order = np.argsort(cols["omega"])
        kwargs = {name: cols[name][order] for name in
                  ("s_q", "s_theta", "s_z", "h_abs2", "hx_abs2") if name in cols}
        return cls(cols["omega"][order], hbar=hbar, **kwargs)


@dataclass(frozen=True, eq=False)
class TimeDiscretization:
    """p time slots of width total_time / p, with the matching DFT frequencies."""

    total_time: float
    slots: int
    weights: np.ndarray  # h sampled at the slot times

    def __post_init__(self):
        if self.slots < 2:
            raise GridValueError("need at least 2 time slots")
        if not 0 < self.total_time < np.inf:
            raise GridValueError(f"total_time must be finite and positive, got {self.total_time}")
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (self.slots,):
            raise GridValueError(f"weights have shape {w.shape}, expected ({self.slots},)")
        bad = np.flatnonzero(~np.isfinite(w))
        if bad.size:
            raise GridValueError(f"weights must be finite, got {w[bad[0]]} at slot {bad[0]}")
        object.__setattr__(self, "weights", w)

    @property
    def dt(self) -> float:
        return self.total_time / self.slots

    @property
    def times(self) -> np.ndarray:
        return -self.total_time / 2.0 + (np.arange(self.slots) + 1) * self.dt

    @property
    def frequencies(self) -> np.ndarray:
        return -np.pi / self.dt + 2.0 * np.pi * np.arange(self.slots) / self.total_time

    @classmethod
    def instant_weight(cls, total_time: float, slots: int):
        """Weight approximating a delta at the slot nearest t = 0 (estimate the
        value there)."""
        disc = cls(total_time, slots, np.zeros(slots))
        idx = int(np.argmin(np.abs(disc.times)))
        w = np.zeros(slots)
        w[idx] = 1.0 / disc.dt
        return cls(total_time, slots, w)


def _interp_spectrum(omega_grid, values, omega_out, name):
    if np.any(omega_out < omega_grid[0] - 1e-12) or np.any(omega_out > omega_grid[-1] + 1e-12):
        raise SpectralDomainError(
            f"discretization band [{omega_out[0]:.4g}, {omega_out[-1]:.4g}] is not "
            f"covered by the {name} grid [{omega_grid[0]:.4g}, {omega_grid[-1]:.4g}]"
        )
    if values.strides == (0,):
        # a constant spectrum: np.interp returns the value itself, but would
        # first copy the view into a contiguous array of the whole grid
        return np.full(len(omega_out), values[0])
    # np.interp reads only the nodes bracketing each frequency, and every
    # frequency with an infinite bracketing node is set to infinity below, so
    # no pass over the whole grid is needed: O(len(omega_out) log N).  A
    # frequency exactly on a node takes that node's own value instead.
    out = np.interp(omega_out, omega_grid, values)
    idx = np.searchsorted(omega_grid, omega_out)
    idx_lo = np.clip(idx - 1, 0, len(omega_grid) - 1)
    idx_hi = np.clip(idx, 0, len(omega_grid) - 1)
    out[~np.isfinite(values[idx_lo]) | ~np.isfinite(values[idx_hi])] = np.inf
    on_node = omega_grid[idx_hi] == omega_out
    out[on_node] = values[idx_hi[on_node]]
    return out


def _inverse_prior(s_theta):
    """1/S_theta with 1/0 = inf and 1/inf = 0; the magnitude turns 1/-0.0 into inf."""
    with np.errstate(divide="ignore"):
        inv = np.divide(1.0, s_theta)
    return np.abs(inv, out=inv)


def _segment(spectrum, a, b):
    """``spectrum`` on nodes [a, b), or the one value of a constant (stride-0) one."""
    return spectrum[0] if spectrum.strides == (0,) else spectrum[a:b]


def build_circulant_bound(disc: TimeDiscretization, spectra: SpectralModel) -> float:
    """Discrete optimal bound from the circulant information and prior.

    Evaluates u (K + G)^{-1} u with u the slot-weighted estimation weights,
    using the frequency-domain diagonalization of the circulant matrices;
    the weights' transform costs one FFT, O(p log p) time and O(p) memory.
    """
    w_j = disc.frequencies
    s_q = _interp_spectrum(spectra.omega, spectra.s_q, w_j, "s_q")
    s_th = _interp_spectrum(spectra.omega, spectra.s_theta, w_j, "s_theta")
    den = 4.0 * s_q / spectra.hbar**2 + _inverse_prior(s_th)

    # exp(-i w_j t_k) = c (-1)^j (-1)^(k+1) exp(-2 pi i j (k+1) / p) with |c| = 1,
    # so the weights' transform is one FFT of the sign-alternated weights
    alternating = disc.weights.copy()
    alternating[1::2] *= -1.0
    h2 = (disc.dt * np.abs(np.fft.fft(alternating))) ** 2
    if np.any((den == 0) & (h2 > 0)):
        raise GridValueError(
            "zero denominator: no measurement noise and no prior at a "
            "frequency carrying estimation weight"
        )
    good = den > 0
    return float(np.sum(h2[good] / den[good]) / disc.total_time)


def _spectral_integral(omega, num, den_block) -> float:
    """(1/2pi) * integral of num/den over the frequencies where den is positive
    and finite; raises when a zero denominator carries weight or the integrand
    does not decay at the grid edges.

    ``den_block(a, b)`` returns the denominator on nodes [a, b).  One pass over
    the blocks checks each block's denominator, fills its integrand into a
    buffer that also holds the previous block's last value, keeps the running
    peak and writes np.trapezoid's terms (w[i+1] - w[i]) * (f[i+1] + f[i]) / 2.0
    into the one full-length buffer, the n - 1 terms.  Their sum is the same
    contiguous reduction np.trapezoid makes, so the value is np.trapezoid's,
    bit for bit.
    """
    n = len(omega)
    terms = np.empty(n - 1)
    # the integrand on nodes [a - 1, b) of a block, and its sums f[i] + f[i + 1]
    values, pairs = np.empty(BLOCK + 1), np.empty(BLOCK)
    peak = 0.0
    for a, b in _blocks(n):
        den, weight = den_block(a, b), _segment(num, a, b)
        lo, hi = np.min(den), np.max(den)
        if not lo > 0 and np.any((den == 0) & (weight > 0)):
            raise GridValueError("zero denominator at a frequency carrying weight")
        integrand = values[1:b - a + 1]
        if lo > 0 and hi < np.inf:  # every node counts: no mask
            np.divide(weight, den, out=integrand)
        else:
            integrand.fill(0.0)
            np.divide(weight, den, out=integrand, where=(den > 0) & np.isfinite(den))
        peak = max(peak, float(np.max(integrand)))
        if a == 0:
            first = integrand[0]
        # the integrand on nodes [s, b) gives the terms of intervals [s, b - 1)
        s = max(a - 1, 0)
        f, t = values[s - a + 1:b - a + 1], terms[s:b - 1]
        np.subtract(omega[s + 1:b], omega[s:b - 1], out=t)
        t *= np.add(f[1:], f[:-1], out=pairs[:b - 1 - s])
        t /= 2.0
        values[0] = integrand[-1]
    if peak > 0:
        edge = max(first, values[0])
        if edge > EDGE_DECAY_RTOL * peak:
            raise SpectralDomainError(
                f"integrand does not decay at the grid edges "
                f"(edge {edge:.3e} vs peak {peak:.3e}); widen the frequency grid"
            )
    return float(terms.sum() / (2.0 * np.pi))


def continuum_qmax(spectra: SpectralModel) -> float:
    """Frequency-integral form of the optimal quantum bound (SPLOT limit)."""
    if spectra.h_abs2 is None:
        raise GridValueError("continuum_qmax needs the h_abs2 transfer spectrum")

    def den(a, b):
        inv = _inverse_prior(spectra.s_theta[a:b])
        inv += 4.0 * _segment(spectra.s_q, a, b) / spectra.hbar**2
        return inv

    return _spectral_integral(spectra.omega, spectra.h_abs2, den)


def wiener_risk(spectra: SpectralModel) -> float:
    """Minimum mean-square risk of the linear smoother in the SPLOT limit."""
    for name in ("h_abs2", "hx_abs2", "s_z"):
        if getattr(spectra, name) is None:
            raise GridValueError(f"wiener_risk needs the {name} spectrum")

    def den(a, b):
        s_z, hx_abs2 = spectra.s_z[a:b], spectra.hx_abs2[a:b]
        with np.errstate(divide="ignore", invalid="ignore"):
            meas = np.where(s_z > 0, hx_abs2 / s_z, np.inf)
        meas = np.where(np.isinf(s_z), 0.0, meas)
        meas = np.where((hx_abs2 == 0) & (s_z == 0), 0.0, meas)
        return meas + _inverse_prior(spectra.s_theta[a:b])

    return _spectral_integral(spectra.omega, spectra.h_abs2, den)


@dataclass(frozen=True)
class NoiseFloorViolation:
    """One band [omega_lo, omega_hi] of consecutive violating nodes; ``omega``
    and the two floors are those of its worst node, the one with the largest
    margin."""

    omega_lo: float
    omega_hi: float
    omega: float
    noise_floor: float
    quantum_floor: float

    @property
    def margin(self) -> float:
        """How many times below the quantum floor the noise sits."""
        return self.quantum_floor / self.noise_floor if self.noise_floor > 0 else np.inf

    def to_dict(self) -> dict:
        return {
            "omega_lo": self.omega_lo,
            "omega_hi": self.omega_hi,
            "omega": self.omega,
            "noise_floor": self.noise_floor,
            "quantum_floor": self.quantum_floor,
            "margin": self.margin,
        }


def noise_floor_check(spectra: SpectralModel) -> list[NoiseFloorViolation]:
    """Bands where the noise floor beats the quantum limit (impossible).

    The floor S_Z / |h_X|^2 must dominate hbar^2 / (4 S_q) wherever the
    transfer function is nonzero; an empty list means the linear model is
    consistent with the quantum bound.  Each maximal run of consecutive
    violating nodes is one record, sorted by frequency; its worst node is
    the first with the run's largest margin.
    """
    for name in ("hx_abs2", "s_z"):
        if getattr(spectra, name) is None:
            raise GridValueError(f"noise_floor_check needs the {name} spectrum")
    runs = []  # (first node, last node, worst node, its margin, floor, quantum floor)
    for a, b in _blocks(len(spectra.omega)):
        s_q, s_z, hx_abs2 = spectra.s_q[a:b], spectra.s_z[a:b], spectra.hx_abs2[a:b]
        with np.errstate(divide="ignore", invalid="ignore"):
            floor = np.where(hx_abs2 > 0, s_z / hx_abs2, np.inf)
            quantum = np.where(
                np.isinf(s_q), 0.0,
                np.where(s_q > 0, spectra.hbar**2 / (4.0 * s_q), np.inf),
            )
            margin = np.where(floor > 0, quantum / floor, np.inf)
        checked = hx_abs2 > 0
        bad = np.flatnonzero(checked & (floor < quantum * (1.0 - FLOOR_VIOLATION_RTOL)))
        if bad.size == 0:
            continue
        for run in np.split(bad, np.flatnonzero(np.diff(bad) > 1) + 1):
            i = run[np.argmax(margin[run])]
            row = (a + run[0], a + run[-1], a + i, margin[i], floor[i], quantum[i])
            if runs and runs[-1][1] == row[0] - 1:  # continues across the block edge
                prev = runs.pop()
                row = (prev[0], row[1], *(prev if prev[3] >= row[3] else row)[2:])
            runs.append(row)
    omega = spectra.omega
    return [NoiseFloorViolation(float(omega[lo]), float(omega[hi]), float(omega[k]),
                                float(f), float(q))
            for lo, hi, k, _, f, q in runs]


def rectangle_spectra(
    band: float = 2.0 * np.pi,
    s_q_level: float = 0.75,
    s_theta_level: float = 1.0,
    span_factor: float = 2.0,
    nodes: int = 2_000_001,
    hbar: float = 1.0,
) -> SpectralModel:
    """Flat spectra inside |omega| <= band, no prior outside.

    The closed form is Q_max = (band / pi) / (4 s_q/hbar^2 + 1/s_theta);
    with the defaults, 0.5.
    """
    omega = np.linspace(-span_factor * band, span_factor * band, nodes)
    # on an increasing grid |omega| <= c is -c <= omega <= c: one run of nodes
    c = band + 1e-12
    s_theta = np.zeros(nodes)
    s_theta[np.searchsorted(omega, -c, "left"):np.searchsorted(omega, c, "right")] = s_theta_level
    return SpectralModel(omega, s_q=s_q_level, s_theta=s_theta, h_abs2=1.0, hbar=hbar)
