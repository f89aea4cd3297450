"""Subdiffraction incoherent imaging of point sources on a line.

Each detected photon carries the mixture state of p equally bright sources
displaced by their positions; measuring position (direct imaging) gives the
classical information

    v F(theta) v = int [sum_a v^a d_a h(x - theta^a)]^2 / (p^2 f) dx,

which at coincident sources collapses to rank one along the centroid
direction: every other direction loses information as a power of the
separation, and the exponent of that power law sets the minimax rate of any
estimator through the ground-state machinery.  The quantum (Helstrom)
information of the mixture, computed in a finite orthonormal basis spanning
the displaced amplitudes and their derivatives, stays full rank for two
sources but degenerates to rank two for three or more as they merge.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable, Sequence

import numpy as np
from scipy.linalg.lapack import dgeqrf

from .errors import GridValueError, ProjectionError
from .geometry import StatisticalModel
from .grids import (
    MatrixField,
    ParameterGrid,
    ScalarField,
    VectorField,
    read_csv,
    trapezoid_weights_1d,
)
from .minimax import RateFitResult, SchrodingerProblem, rate_fit
from .quantum import _helstrom_stack, _quantum_and_classical

INTENSITY_NORMALIZATION_ATOL = 1e-8
COVERAGE_ATOL = 1e-6
INTENSITY_SUPPORT_FLOOR = 1e-14
DEFAULT_GRID_NODES = 4096
DEFAULT_SPAN_SIGMAS = 12.0
INFORMATION_BLOCK = 2**16
HELSTROM_SPAN_SIGMAS = 16.0
HELSTROM_GRID_NODES = 8193
SAMPLED_INFORMATION_NODES = 2001
POWER_LAW_R2_WARN = 0.99
PROJECTION_DEFICIT_TOL = 1e-6
RANK_RTOL = 1e-6


@dataclass(frozen=True, eq=False)
class PointSpreadFunction:
    """Real amplitude on an image-plane grid, unit-normalized intensity.

    ``pair_fn``, when present (catalog entries), is called as
    ``pair_fn(pts, out)`` with ``out = (amp, damp)``, two float arrays of the
    points' shape: it writes the exact pair (amplitude, spatial derivative)
    into them from one pass over the points and returns them.  Otherwise a
    cubic spline of the stored samples, fitted once per instance, is used,
    with zero extension outside the stored window.  The sampled intensity
    must have positive, finite mass.
    """

    x: np.ndarray
    amplitude: np.ndarray
    width: float
    pair_fn: Callable | None = None
    name: str = "custom"

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        amp = np.asarray(self.amplitude, dtype=float)
        if x.ndim != 1 or x.shape != amp.shape or len(x) < 8:
            raise GridValueError("point-spread function needs matching 1-d arrays")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(amp))):
            raise GridValueError("point-spread function samples must be finite")
        if not 0 < self.width < np.inf:
            raise GridValueError(f"width scale must be finite and positive, got {self.width}")
        norm = _intensity_mass(x, amp)
        if abs(norm - 1.0) > INTENSITY_NORMALIZATION_ATOL:
            factor = 1.0 / np.sqrt(norm)
            amp = amp * factor
            # keep the analytic pair consistent with the stored samples
            if self.pair_fn is not None:
                def scaled(pts, out, _f=self.pair_fn, _c=factor):
                    a, d = _f(pts, out)
                    np.multiply(_c, a, out=a)
                    np.multiply(_c, d, out=d)
                    return a, d

                object.__setattr__(self, "pair_fn", scaled)
        x.setflags(write=False)
        amp.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "amplitude", amp)

    @cached_property
    def _pair(self) -> Callable:
        """``pair_fn``, or else the spline pair, fitted here once per instance."""
        if self.pair_fn is not None:
            return self.pair_fn
        from scipy.interpolate import CubicSpline  # slow import, needed only here

        spline = CubicSpline(self.x, self.amplitude, extrapolate=False)
        dspline = spline.derivative()

        def pair(pts, out):
            for buf, fn in zip(out, (spline, dspline)):
                np.copyto(buf, fn(pts))
                np.nan_to_num(buf, copy=False, nan=0.0)
            return out

        return pair

    def pair_at(self, pts: np.ndarray, out: tuple[np.ndarray, np.ndarray] | None = None
                ) -> tuple[np.ndarray, np.ndarray]:
        """Amplitude and its derivative at ``pts``, from one evaluation,
        written into ``out = (amp, damp)``, two float arrays of the points'
        shape that do not overlap them, and returned; without ``out`` the
        two arrays are allocated here."""
        pts = np.asarray(pts, dtype=float)
        if out is None:
            out = (np.empty(pts.shape), np.empty(pts.shape))
        return self._pair(pts, out)


def _intensity_mass(x: np.ndarray, amp: np.ndarray) -> float:
    """The trapezoid mass of amp**2 on x; raises :class:`GridValueError`
    unless it is positive and finite, the rule priors obey."""
    with np.errstate(over="ignore"):  # an infinite mass raises below instead
        mass = float(np.trapezoid(amp**2, x))
    if not 0.0 < mass < np.inf:  # false for NaN too
        raise GridValueError(f"PSF intensity integrates to {mass!r}; it needs positive, "
                             "finite mass to be normalized")
    return mass


def _catalog_psf(sigma: float, pair: Callable, name: str, span: float = 24.0,
                 nodes: int = 8193) -> PointSpreadFunction:
    """The PSF of ``pair``, sampled through the same call on ``nodes`` even
    points within ``span`` widths of the origin."""
    x = np.linspace(-span * sigma, span * sigma, nodes)
    amp = pair(x, (np.empty(nodes), np.empty(nodes)))[0]
    return PointSpreadFunction(x, amp, sigma, pair, name)


def _gaussian_constants(sigma: float, cube: bool = False) -> tuple[float, ...]:
    """(2 pi sigma^2)^(-1/4), 4 sigma^2, 2 sigma^2 and, with ``cube``,
    2 sigma^3, each refused by name unless it is a finite normal float."""
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        s = np.float64(sigma)
        consts = ((2.0 * np.pi * s**2) ** -0.25, 4.0 * s**2, 2.0 * s**2) + (
            (2.0 * s**3,) if cube else ())
    if not all(np.isfinite(c) and c >= np.finfo(float).tiny for c in consts):
        raise GridValueError(
            f"sigma = {sigma!r} is out of range: the PSF's normalization and width "
            "constants overflow or underflow the normal floats")
    return tuple(float(c) for c in consts)


def gaussian_psf(sigma: float = 1.0) -> PointSpreadFunction:
    """Gaussian amplitude; intensity is the normal density with scale sigma."""
    norm, four_s2, two_s2 = _gaussian_constants(sigma)

    def pair(x, out):
        amp, damp = out
        # amp = norm exp(-x^2 / 4 s^2), damp = amp (-x / 2 s^2)
        np.square(x, out=amp)
        np.negative(amp, out=amp)
        np.divide(amp, four_s2, out=amp)
        np.exp(amp, out=amp)
        np.multiply(norm, amp, out=amp)
        np.negative(x, out=damp)
        np.divide(damp, two_s2, out=damp)
        np.multiply(amp, damp, out=damp)
        return amp, damp

    return _catalog_psf(sigma, pair, "gaussian")


def hermite_gauss_psf(sigma: float = 1.0) -> PointSpreadFunction:
    """First-order Hermite-Gaussian amplitude: a zero at the origin."""
    norm, four_s2, _, two_s3 = _gaussian_constants(sigma, cube=True)

    def pair(x, out):
        amp, damp = out
        # amp = norm (x / s) e, damp = norm e (1 / s - x^2 / 2 s^3) with the
        # envelope e = exp(-x^2 / 4 s^2), the one scratch array
        envelope = np.square(x)
        np.negative(envelope, out=envelope)
        np.divide(envelope, four_s2, out=envelope)
        np.exp(envelope, out=envelope)
        np.divide(x, sigma, out=amp)
        np.multiply(norm, amp, out=amp)
        np.multiply(amp, envelope, out=amp)
        np.square(x, out=damp)
        np.divide(damp, two_s3, out=damp)
        np.subtract(1.0 / sigma, damp, out=damp)
        np.multiply(norm, envelope, out=envelope)
        np.multiply(envelope, damp, out=damp)
        return amp, damp

    return _catalog_psf(sigma, pair, "first_order_hermite")


def sinc_psf(sigma: float = 1.0) -> PointSpreadFunction:
    """Band-limited amplitude sin(pi x / s) / (pi x / s): periodic zeros."""

    def pair(x, out):
        u = np.divide(x, sigma)  # the one scratch array
        amp, damp = out
        # amp = np.sinc(u), as numpy computes it: sin(y) / y, y = pi u or eps
        np.multiply(np.pi, u, out=damp)
        np.copyto(damp, np.finfo(float).eps, where=damp == 0)
        np.sin(damp, out=amp)
        np.divide(amp, damp, out=amp)
        # damp = (cos(pi u) - amp) / u / s, and its Taylor form near u = 0
        nz = np.absolute(u, out=damp) > 1e-8
        np.multiply(np.pi, u, out=damp)
        np.cos(damp, out=damp)
        np.subtract(damp, amp, out=damp)
        np.divide(damp, u, out=damp, where=nz)
        np.multiply(-(np.pi**2 / 3.0), u, out=damp, where=~nz)
        np.divide(damp, sigma, out=damp)
        return amp, damp

    return _catalog_psf(sigma, pair, "sinc", span=400.0, nodes=65537)


PSF_CATALOG: dict[str, Callable[..., PointSpreadFunction]] = {
    "gaussian": gaussian_psf,
    "first_order_hermite": hermite_gauss_psf,
    "sinc": sinc_psf,
}


def psf_from_csv(path) -> PointSpreadFunction:
    """Columns: x, amplitude.  The width is the intensity std dev.

    Raises :class:`GridValueError`, naming the path, when the samples are not
    finite, an ``x`` value repeats or the intensity has no positive, finite
    mass.
    """
    header, rows = read_csv(path)
    if len(header) < 2:
        raise GridValueError("PSF CSV needs columns x, amplitude")
    if not np.all(np.isfinite(rows[:, :2])):
        raise GridValueError(f"{path}: PSF samples must be finite")
    order = np.argsort(rows[:, 0])
    x, amp = rows[order, 0], rows[order, 1]
    if np.any(np.diff(x) <= 0):
        raise GridValueError(f"{path}: x values must be distinct")
    try:
        mass = _intensity_mass(x, amp)
    except GridValueError as exc:
        raise GridValueError(f"{path}: {exc}") from None
    h = amp**2 / mass
    mean = np.trapezoid(x * h, x)
    width = float(np.sqrt(np.trapezoid((x - mean) ** 2 * h, x)))
    return PointSpreadFunction(x, amp, width, name="csv")


@dataclass(frozen=True, eq=False)
class SourceConfiguration:
    """p equally bright point sources on the object line."""

    positions: np.ndarray

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float).reshape(-1)
        if len(pos) < 1:
            raise GridValueError("need at least one source")
        if not np.all(np.isfinite(pos)):
            raise GridValueError(
                f"source positions must be finite, got {pos[~np.isfinite(pos)][0]}")
        pos.setflags(write=False)
        object.__setattr__(self, "positions", pos)

    @property
    def p(self) -> int:
        return len(self.positions)

    def scaled(self, factor: float) -> "SourceConfiguration":
        return SourceConfiguration(self.positions * factor)


def _measurement_grid(psf: PointSpreadFunction, positions: np.ndarray,
                      span_sigmas: float, nodes: int) -> np.ndarray:
    lo = positions.min() - span_sigmas * psf.width
    hi = positions.max() + span_sigmas * psf.width
    return positions.mean() + np.linspace(lo - positions.mean(), hi - positions.mean(), nodes)


def _submodel(direction, taus, origin) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """v, the separations tau (0-D or 1-D) and the rows theta(tau) = origin +
    v tau (origin 0 by default), each input checked by name."""
    direction = np.asarray(direction, dtype=float).reshape(-1)
    taus = np.asarray(taus, dtype=float)
    if taus.ndim > 1:
        raise GridValueError(f"tau must be a scalar or a 1-d array, got shape {taus.shape}")
    taus = np.atleast_1d(taus)
    origin = np.zeros(len(direction)) if origin is None else np.asarray(origin, dtype=float)
    if origin.shape != direction.shape:
        raise GridValueError(f"origin has shape {origin.shape}, but direction has "
                             f"{len(direction)} entries")
    for name, value in (("direction", direction), ("tau", taus), ("origin", origin)):
        if not np.all(np.isfinite(value)):
            raise GridValueError(f"{name} must be finite, got {value[~np.isfinite(value)][0]}")
    return direction, taus, origin[None, :] + taus[:, None] * direction[None, :]


def _information_gram(psf: PointSpreadFunction, thetas: np.ndarray,
                      directions: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row theta (of nt, p), the exactly symmetric k x k Gram
    sum_x w (D_i.df)(D_j.df)/f over the k directions D (zero where f is below
    the support floor) and the captured mass sum_x w f, with w the trapezoid
    weights of the uniform grid x, f = mean_a a^2 the mixture density and
    d_a f = -2 a a' / p its scores (a and a' the amplitude and its derivative
    at x - theta^a).  Batched in blocks of about INFORMATION_BLOCK elements of
    each (rows, p, nodes) array, so the working set stays in cache whatever
    the number of rows.  Every block runs its steps with ``out=`` into the
    same arrays, allocated once per call: temporaries of this size lie above
    glibc's mmap threshold, so fresh ones per block were mapped and
    page-faulted anew each time.
    """
    w = trapezoid_weights_1d(len(x), x[1] - x[0])
    nt, p = thetas.shape
    i, j = np.triu_indices(len(directions))
    gram, mass = np.empty((nt, len(directions), len(directions))), np.empty(nt)
    # whole groups of four rows: OpenBLAS's dgemv sums four rows at a time and
    # a leftover row in another order, so blocking keeps every row's sum
    rows = 4 * max(1, INFORMATION_BLOCK // (4 * p * len(x)))
    nb, nx = min(rows, nt), len(x)
    buffers = (np.empty((nb, p, nx)), np.empty((nb, p, nx)), np.empty((nb, p, nx)),
               np.empty((nb, nx)), np.empty((nb, nx), dtype=bool),
               np.empty((nb, len(directions), nx)), np.empty((nb, len(i), nx)),
               np.empty((nb, len(i))))
    for start in range(0, nt, rows):
        nb = min(rows, nt - start)
        block = slice(start, start + nb)
        pts, amp, damp, f, ok, proj, ratio, sums = (buf[:nb] for buf in buffers)
        np.subtract(x, thetas[block, :, None], out=pts)
        psf.pair_at(pts, out=(amp, damp))
        np.mean(np.square(amp, out=pts), axis=-2, out=f)  # the points are spent
        np.multiply(-2.0, amp, out=amp)                   # the scores d_a f, into amp
        np.multiply(amp, damp, out=amp)
        np.divide(amp, p, out=amp)
        np.einsum("ka,bax->bkx", directions, amp, out=proj)
        np.greater(f, INTENSITY_SUPPORT_FLOOR, out=ok)
        ratio.fill(0.0)
        for q, (di, dj) in enumerate(zip(i, j)):
            np.multiply(proj[:, di], proj[:, dj], out=ratio[:, q], where=ok)
        np.divide(ratio, f[:, None, :], out=ratio, where=ok[:, None, :])
        np.matmul(ratio.reshape(-1, nx), w, out=sums.reshape(-1))
        gram[block, i, j] = gram[block, j, i] = sums
        np.matmul(f, w, out=mass[block])
    return gram, mass


def direct_imaging_fisher(
    psf: PointSpreadFunction,
    config: SourceConfiguration,
) -> np.ndarray:
    """Information matrix of position-basis measurement (one photon).

    Entries are quadratures of (d_a f)(d_b f)/f with the mixture density f
    on DEFAULT_SPAN_SIGMAS widths beyond the extreme sources; the integrand
    is zeroed below the intensity support floor, and the grid must capture
    the full density (unit mass within 1e-6).
    """
    pos = config.positions
    x = _measurement_grid(psf, pos, DEFAULT_SPAN_SIGMAS, DEFAULT_GRID_NODES)
    gram, mass = _information_gram(psf, pos[None, :], np.eye(config.p), x)
    if not abs(mass[0] - 1.0) <= COVERAGE_ATOL:
        raise GridValueError(
            f"measurement grid captures mass {float(mass[0])!r}; widen the span "
            f"(currently {DEFAULT_SPAN_SIGMAS} widths beyond the extreme sources)"
        )
    return gram[0]


def information_along(
    psf: PointSpreadFunction,
    direction: np.ndarray,
    taus: np.ndarray,
    origin: np.ndarray | None = None,
) -> np.ndarray:
    """v F(theta(tau)) v along the submodel theta(tau) = origin + v tau.

    One image grid, symmetric about zero, reaches DEFAULT_SPAN_SIGMAS widths
    beyond the largest |theta| of the call; the quadrature is batched as in
    `_information_gram`.
    """
    direction, _, thetas = _submodel(direction, taus, origin)
    reach = np.abs(thetas).max() if len(thetas) else 0.0
    half = reach + DEFAULT_SPAN_SIGMAS * psf.width
    x = np.linspace(-half, half, DEFAULT_GRID_NODES)
    return _information_gram(psf, thetas, direction[None, :], x)[0][:, 0, 0]


@dataclass(frozen=True)
class ExponentFit:
    exponent: float
    amplitude: float
    r_squared: float
    taus: np.ndarray
    information: np.ndarray


def exponent_fit(
    psf: PointSpreadFunction,
    direction: np.ndarray,
    taus: Sequence[float],
) -> ExponentFit:
    """Log-log fit of the directional information against A |tau|^m."""
    taus = np.asarray(sorted(float(t) for t in taus))
    if len(taus) < 3 or taus[0] <= 0:
        raise GridValueError("need at least three positive separations")
    if taus[-1] / taus[0] < 99.0:
        raise GridValueError(
            f"separation range {taus[0]:g}..{taus[-1]:g} spans less than two decades"
        )
    info = information_along(psf, direction, taus)
    if np.any(info <= 0):
        raise GridValueError("information vanished identically along the direction")
    logt, logf = np.log(taus), np.log(info)
    slope, intercept = np.polyfit(logt, logf, 1)
    fitted = slope * logt + intercept
    ss_res = float(np.sum((logf - fitted) ** 2))
    ss_tot = float(np.sum((logf - logf.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    if r2 < POWER_LAW_R2_WARN:
        warnings.warn(
            f"information is not a clean power law (R^2 = {r2:.4f}); "
            "residuals attached to the fit",
            stacklevel=2,
        )
    return ExponentFit(float(slope), float(np.exp(intercept)), r2, taus, info)


def _sampled_information(psf, direction, radius: float) -> Callable:
    """The directional information as a pure function of tau, by levels.

    A call reads a cubic spline in |tau| on [0, radius * 4**k], with k the
    smallest level covering the call's largest |tau|: 2001 even nodes plus
    129 log-spaced ones, sampled once per level.  The value at a tau array
    depends only on that array, never on earlier calls.  At the nodes the
    spline holds `information_along`'s values.  Between them, for the
    Gaussian PSF along (1, -1) and (1/2, 1/2), it matches `information_along`
    to 2e-9 of the level's maximum up to radius 16 (2e-7 at 64).  For PSFs
    with zeros (Hermite-Gauss, sinc), `information_along` itself moves by
    0.2-2 % with the reach of its image grid at radii 4 to 64, and the
    spline is no closer than that.
    """
    @cache
    def level(k: int):
        from scipy.interpolate import CubicSpline  # slow import, needed only here

        top = radius * 4.0**k
        s = np.unique(np.concatenate([np.linspace(0.0, top, SAMPLED_INFORMATION_NODES),
                                      top * np.logspace(-8, 0, 129)]))
        return CubicSpline(s, information_along(psf, direction, s))

    def potential(tau):
        tau = np.abs(np.asarray(tau, dtype=float))
        top = float(tau.max()) if tau.size else 0.0
        k = 0
        while top > radius * 4.0**k:
            k += 1
        return np.clip(level(k)(tau), 0.0, None)

    return potential


def minimax_rate(
    psf: PointSpreadFunction,
    direction: np.ndarray,
    n_list: Sequence[float],
    initial_half_width: float | None = None,
    nodes: int = 2001,
) -> RateFitResult:
    """Worst-case-rate fit with the directional information as the potential."""
    direction = np.asarray(direction, dtype=float)
    if not np.any(direction):
        raise GridValueError("direction must be nonzero: along a zero direction the "
                             "information potential vanishes and there is no rate to fit")
    half = initial_half_width if initial_half_width is not None else 0.25 * psf.width
    potential = _sampled_information(psf, direction, 16.0 * half)
    problem = SchrodingerProblem((-half, half), potential, nodes=nodes)
    return rate_fit(problem, n_list)


@dataclass(frozen=True)
class HelstromReport:
    helstrom: np.ndarray
    eigenvalues: np.ndarray
    numerical_rank: int
    projection_deficit: float
    span_dimension: int

    def eigenvalue_row(self) -> list[float]:
        return [float(v) for v in np.sort(self.eigenvalues)[::-1]]


def _span_coefficients(psf: PointSpreadFunction, positions: np.ndarray, rows: np.ndarray,
                       at: str | None = None) -> tuple[np.ndarray, np.ndarray, float]:
    """Coefficients of the displaced states and their derivatives in an
    orthonormal basis of their span, for sources at ``positions``.

    The 2p rows of ``rows`` (each HELSTROM_GRID_NODES long) receive each
    source's pair straight from `PointSpreadFunction.pair_at`, evaluated at
    points shifted in one buffer per call, and are weighted in place into
    the columns sqrt(w) psi_a and -sqrt(w) d psi_a, then unit-scaled; R comes
    from LAPACK ``dgeqrf`` on the rows' transpose, which overwrites them.
    Returns the coefficients of the states and of their derivatives, each
    (p, dim), and the projection deficit; ``at`` names the point in errors.
    """
    p = len(positions)
    x = _measurement_grid(psf, positions, HELSTROM_SPAN_SIGMAS, HELSTROM_GRID_NODES)
    root_w = np.sqrt(trapezoid_weights_1d(len(x), x[1] - x[0]))
    pts = np.empty_like(x)
    for a, t in enumerate(positions):
        np.subtract(x, t, out=pts)
        psf.pair_at(pts, out=(rows[a], rows[p + a]))
    rows *= root_w
    rows[p:] *= -1.0
    # row by row, so no temporary is as large as the buffer
    squares = np.array([np.square(row).sum() for row in rows])
    norms = np.sqrt(squares)
    where = "" if at is None else f" at {at}"
    if np.any(norms == 0):
        raise ProjectionError(f"a basis vector vanished on the image grid{where}")
    # rows / norms = (Q R)^T = ((Q U) S V^T)^T: the columns' coefficients in
    # the orthonormal basis Q U are S V^T
    rows /= norms[:, None]
    packed = dgeqrf(rows.T, overwrite_a=True)[0]
    _, svals, vt = np.linalg.svd(np.triu(packed[:len(rows)]))
    keep = svals > 1e-10 * svals[0]
    unit = svals[keep, None] * vt[keep]

    # norm deficit: each displaced state must carry its continuum norm on the
    # grid, else the window or resolution cannot represent it
    deficit = max(float(np.max(np.abs(squares[:p] - 1.0))),
                  float(np.max(1.0 - np.sum(unit**2, axis=0))))
    if not deficit <= PROJECTION_DEFICIT_TOL:
        raise ProjectionError(
            f"projection deficit {deficit:.3e} exceeds {PROJECTION_DEFICIT_TOL:.0e}{where}; "
            "widen the image window or refine it"
        )
    # a translation family keeps each state's norm, so dividing a state and
    # its derivative by the state's grid norm is exact and gives tr rho = 1
    # however coarsely the PSF is sampled
    return unit[:, :p].T, (unit[:, p:] * (norms[p:] / norms[:p])).T, deficit


def _projected_helstrom(cs: np.ndarray, dcs: np.ndarray, at=None) -> np.ndarray:
    """K of the mixtures rho = sum_a |c_a><c_a| / p for stacked coefficients
    ``cs`` and their derivatives ``dcs``, each (m, p, dim)."""
    p = cs.shape[1]
    outer = cs[:, :, :, None] * cs[:, :, None, :]
    rho = (outer.sum(axis=1) / p).astype(complex)
    drho = ((dcs[:, :, :, None] * cs[:, :, None, :] + cs[:, :, :, None] * dcs[:, :, None, :])
            / p).astype(complex)
    return _helstrom_stack(rho, drho, at)[0]


def imaging_helstrom(
    psf: PointSpreadFunction,
    config: SourceConfiguration,
) -> HelstromReport:
    """Helstrom information of the source mixture in the span of its states.

    rho = sum_a |psi_a><psi_a| / p and every d_a rho lie in the span of the
    displaced amplitudes psi_a and their derivatives, at most 2p dimensions,
    so that span represents the family exactly.  The weighted columns are
    unit-scaled and orthonormalized by a QR factorization and a singular-value
    factorization of the small triangular factor, dropping directions below
    1e-10 of the largest singular value; the projection deficit of every
    physical vector is checked against 1e-6.  The image grid reaches
    HELSTROM_SPAN_SIGMAS widths beyond the extreme sources.  `helstrom_along`
    runs the same code on a stack of points.
    """
    buf = np.empty((2 * config.p, HELSTROM_GRID_NODES))
    cs, dcs, deficit = _span_coefficients(psf, config.positions, buf)
    k_matrix = _projected_helstrom(cs[None], dcs[None])[0]
    eigs = np.linalg.eigvalsh(k_matrix)
    rank = int(np.sum(eigs > RANK_RTOL * max(eigs.max(), 1e-300)))
    return HelstromReport(k_matrix, eigs, rank, deficit, cs.shape[1])


def helstrom_along(
    psf: PointSpreadFunction,
    direction: np.ndarray,
    taus: np.ndarray,
    origin: np.ndarray | None = None,
) -> np.ndarray:
    """v K(theta(tau)) v along a submodel, via the projected family.

    Each point is projected as in `imaging_helstrom`, into one image buffer
    allocated per call; the Helstrom algebra then runs once per span
    dimension on the stacked points (all of them share one, except where
    sources coincide).  Errors name the failing point's tau.
    """
    direction, taus, thetas = _submodel(direction, taus, origin)
    buf = np.empty((2 * len(direction), HELSTROM_GRID_NODES))
    at = [f"tau = {float(t)!r}" for t in taus]
    spans = [_span_coefficients(psf, theta, buf, name) for theta, name in zip(thetas, at)]
    dims = np.array([cs.shape[1] for cs, _, _ in spans], dtype=int)
    out = np.empty(len(thetas))
    for dim in np.unique(dims):
        group = np.flatnonzero(dims == dim)
        k = _projected_helstrom(np.array([spans[i][0] for i in group]),
                                np.array([spans[i][1] for i in group]),
                                [at[i] for i in group])
        out[group] = k @ direction @ direction
    return out


def quantum_vs_classical(
    psf: PointSpreadFunction,
    config: SourceConfiguration,
    n: float = 1.0,
    nodes: int = 257,
):
    """Classical and quantum optimal bounds for two-source separation.

    Builds the one-dimensional separation submodel theta(s) = centroid +
    (-s/2, +s/2) on a window of ``nodes`` nodes spanning 0.7 to 1.3 times the
    configured separation, puts a compact bump prior on it, evaluates the
    direct-imaging information and the Helstrom information along it, and
    solves both field equations.  Returns the pair of reports (classical,
    quantum); the quantum bound never exceeds the classical one.
    """
    if config.p != 2:
        raise GridValueError("the separation submodel needs exactly two sources")
    separation = float(abs(config.positions[1] - config.positions[0]))
    centroid = float(config.positions.mean())
    if separation <= 0:
        raise GridValueError("separation must be positive")
    half = 0.3 * separation
    lo, hi = separation - half, separation + half
    grid = ParameterGrid([(lo, hi)], [nodes])
    s_nodes = grid.axes[0]
    bump = np.sin(np.pi * np.clip((s_nodes - lo) / (hi - lo), 0.0, 1.0)) ** 4
    prior = ScalarField(grid, bump).normalized()
    d_theta = np.array([-0.5, 0.5])
    origin = np.array([centroid, centroid])

    f_vals = information_along(psf, d_theta, s_nodes, origin)
    k_vals = helstrom_along(psf, d_theta, s_nodes, origin)

    model = StatisticalModel(
        grid,
        MatrixField(grid, f_vals[:, None, None]),
        VectorField.constant(grid, [1.0], variance="covariant"),
        prior=prior,
    )
    quantum, classical = _quantum_and_classical(model, MatrixField(grid, k_vals[:, None, None]), n)
    return classical, quantum
