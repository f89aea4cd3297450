"""Minimax bounds via the wave picture.

Writing the prior as the square of a real wavefunction makes every term of
the bound quadratic in psi and its gradient.  For a constant direction field
and flat metric, maximizing the bound over the prior is a ground-state
problem for

    H = n * F(tau) - 4 d^2/dtau^2        (Dirichlet boundary),

where F(tau) is the information along the direction and the coefficient 4 is
fixed by the quadratic form.  The worst-case bound is then

    B_worst = A^2 / E_min,

with E_min the ground-state energy, attained by the prior rho = psi_0^2.
When the information vanishes like A |tau|^m near a point, E_min grows as
n^{2/(m+2)} and B_worst decays as n^{-2/(m+2)}; `rate_fit` measures that
exponent and reproduces the variational trial-function argument behind it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dpttrf, dpttrs

from .bounds import _check_boundary, _check_n
from .errors import EigensolverError, GridValueError
from .geometry import StatisticalModel
from .grids import (
    ParameterGrid,
    ScalarField,
    VectorField,
    _divergence_of,
    gradient,
    integrate,
    metric_sqrt_det,
    rho_weights,
    trapezoid_weights_1d,
)

KINETIC_COEFFICIENT = 4.0
NORMALIZATION_ATOL = 1e-10
RESIDUAL_RTOL = 1e-8
INVERSE_ITERATION_MAXITER = 50
CERTIFIED_GAP_EPS = 4.0   # smallest certified gap below E_min, in eps * ||H||_inf
BOX_CONVERGENCE_RTOL = 1e-3   # ground energy change between box doublings
MAX_BOX_DOUBLINGS = 40        # each doubling also doubles dx at a fixed node count


def thread_cap() -> int:
    """Worker count of `rate_fit`, which solves its n values one after another.

    No library code calls this.  It stays only for the benchmark hook that
    reads `rate_fit`'s worker count (``perfbench/layers.py``), and ROADMAP
    item 1 deletes it together with that hook.
    """
    return 1


@dataclass(frozen=True, eq=False)
class Wavefunction:
    """Real, unit-norm function on a grid; its square is a prior density."""

    grid: ParameterGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.shape != self.grid.shape:
            raise GridValueError(
                f"wavefunction shape {vals.shape} does not match grid {self.grid.shape}"
            )
        norm = integrate(ScalarField(self.grid, vals**2))
        if abs(norm - 1.0) > NORMALIZATION_ATOL:
            raise GridValueError(f"wavefunction norm^2 is {norm!r}, expected 1")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def normalized(cls, grid, values) -> "Wavefunction":
        values = np.asarray(values, dtype=float)
        norm = integrate(ScalarField(grid, values**2))
        if norm <= 0:
            raise GridValueError("cannot normalize a null wavefunction")
        return cls(grid, values / np.sqrt(norm))

    def density(self) -> ScalarField:
        return ScalarField(self.grid, self.values**2)


@dataclass(frozen=True, eq=False)
class SchrodingerProblem:
    """Constant-direction ground-state problem on an interval.

    ``information`` maps an array of submodel coordinates tau to the
    information along the direction; ``alignment`` is the (usually constant)
    overlap of direction and weight.  The direction itself only enters
    through the parametrization of tau.
    """

    domain: tuple[float, float]
    information: Callable
    alignment: float | Callable = 1.0
    nodes: int = 2001

    def __post_init__(self):
        lo, hi = self.domain
        if not hi > lo:
            raise GridValueError(f"domain must be an interval, got {self.domain}")
        if self.nodes < 3:
            raise GridValueError("need at least 3 nodes")

    def grid(self, domain=None) -> ParameterGrid:
        return ParameterGrid([domain or self.domain], [self.nodes])


@dataclass(frozen=True, eq=False)
class DiscretizedHamiltonian:
    """Symmetric tridiagonal operator on interior nodes (Dirichlet)."""

    grid: ParameterGrid
    diagonal: np.ndarray
    off_diagonal: np.ndarray

    @property
    def matrix(self) -> sp.csr_matrix:
        return sp.diags(
            [self.off_diagonal, self.diagonal, self.off_diagonal], [-1, 0, 1]
        ).tocsr()

    def gershgorin(self) -> tuple[float, float]:
        """(lower bound of the spectrum, ||H||_inf) from the Gershgorin discs."""
        radii = np.zeros_like(self.diagonal)
        radii[:-1] += np.abs(self.off_diagonal)
        radii[1:] += np.abs(self.off_diagonal)
        return (float(np.min(self.diagonal - radii)),
                float(np.max(np.abs(self.diagonal) + radii)))

    def row_sums(self) -> np.ndarray:
        """d_i + e_{i-1} + e_i, as `_difference_rayleigh` takes them."""
        sums = self.diagonal.copy()
        sums[:-1] += self.off_diagonal
        sums[1:] += self.off_diagonal
        return sums

    def residual_norms(self, vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
        """||H phi_j - lambda_j phi_j|| for the columns phi_j of ``vecs``."""
        diag, off = self.diagonal, self.off_diagonal
        resid = vecs * (diag[:, None] - vals)
        resid[:-1] += off[:, None] * vecs[1:]
        resid[1:] += off[:, None] * vecs[:-1]
        return np.linalg.norm(resid, axis=0)

    def eigh(self, select: str, select_range: tuple) -> tuple[np.ndarray, np.ndarray]:
        """The eigenpairs in a window, from the tridiagonal eigensolver, failing loudly.

        ``select`` and ``select_range`` name the window as `eigh_tridiagonal`
        does: eigenvalue indices ``"i"`` (both ends included) or a half-open
        value interval ``"v"``.  A solver failure, or any returned eigenpair
        with a residual ||H phi - lambda phi|| above RESIDUAL_RTOL *
        max(||H||_inf, 1), raises :class:`EigensolverError`.
        """
        try:
            vals, vecs = eigh_tridiagonal(self.diagonal, self.off_diagonal,
                                          select=select, select_range=select_range)
        except Exception as exc:  # LinAlgError or convergence failures
            raise EigensolverError(f"tridiagonal eigensolver failed: {exc}") from exc
        if vals.size:
            _check_residual(float(np.max(self.residual_norms(vals, vecs))), self.gershgorin()[1])
        return vals, vecs


def _check_residual(worst: float, norm: float) -> None:
    """Raise unless ``worst`` <= RESIDUAL_RTOL * max(||H||_inf, 1)."""
    if not worst <= RESIDUAL_RTOL * max(norm, 1.0):
        raise EigensolverError(
            f"eigenpair residual {worst:.3e} exceeds tolerance "
            f"({RESIDUAL_RTOL:.0e} * ||H||)"
        )


def assemble_H(
    problem: SchrodingerProblem,
    n: float,
    domain: tuple[float, float] | None = None,
) -> DiscretizedHamiltonian:
    """Discretize n*F(tau) - 4 (d/dtau)^2 with Dirichlet ends."""
    _check_n(n)
    grid = problem.grid(domain)
    tau = grid.axes[0]
    dx = grid.spacing[0]
    pot = n * np.asarray(problem.information(tau[1:-1]), dtype=float)
    bad = ~np.isfinite(pot)
    if bad.any():
        raise GridValueError(
            f"potential n*F is not finite at tau = {float(tau[1:-1][bad][0])!r} (n = {n:g})")
    if np.any(pot < -1e-12 * max(1.0, np.max(np.abs(pot)))):
        raise GridValueError("information potential must be nonnegative")
    k = KINETIC_COEFFICIENT / dx**2
    diag = pot + 2.0 * k
    off = np.full(len(tau) - 3, -k)
    return DiscretizedHamiltonian(grid, diag, off)


def _positive_definite_factors(ham: DiscretizedHamiltonian, shift: float):
    """LDL^T factors of H - shift*I, or None when it is not positive definite.

    A successful factorization proves shift < E_min (Sylvester's law of
    inertia), which is what certifies every shift of `ground_state`.
    """
    # the wrapper rejects an empty off-diagonal; a 1 x 1 H takes a dummy one
    off = ham.off_diagonal if ham.off_diagonal.size else np.zeros(1)
    d, e, info = dpttrf(ham.diagonal - shift, off, overwrite_d=True)
    return (d, e) if info == 0 else None


def _difference_rayleigh(row_sums: np.ndarray, off: np.ndarray, vec: np.ndarray) -> float:
    """v^T H v as sum (d_i + e_{i-1} + e_i) v_i^2 - sum e_i (v_{i+1} - v_i)^2.

    ``row_sums`` holds d_i + e_{i-1} + e_i.  The direct sum of d_i v_i^2 and
    2 e_i v_i v_{i+1} cancels the 2k - k - k of the stencil and loses digits
    of order eps * k; this form adds terms of one sign only.
    """
    step = np.diff(vec)
    return float(np.einsum("i,i,i->", row_sums, vec, vec)
                 - np.einsum("i,i,i->", off, step, step))


def _certified_inverse_iteration(ham: DiscretizedHamiltonian) -> tuple[float, np.ndarray]:
    """(E_min, unit eigenvector) by inverse iteration with certified shifts.

    It starts at the Gershgorin lower bound.  After each solve it tries the
    shift rho - max(||H v - rho v||, gap), with rho the Rayleigh quotient and
    gap = CERTIFIED_GAP_EPS * eps * ||H||_inf, and keeps it only if H minus
    that shift has an LDL^T factorization.  Once rho stagnates, the
    factorization at rho - tau, tau = max(||H v - rho v||, gap), certifies
    E_min in (rho - tau, rho].  A failed factorization,
    INVERSE_ITERATION_MAXITER iterations without stagnation, a non-finite
    rho, a failed certificate or a residual above RESIDUAL_RTOL *
    max(||H||_inf, 1) raises :class:`EigensolverError`.
    """
    d, e = ham.diagonal, ham.off_diagonal
    lowest, norm = ham.gershgorin()
    gap = CERTIFIED_GAP_EPS * np.finfo(float).eps * norm
    shift = lowest - gap
    factors = _positive_definite_factors(ham, shift)
    if factors is None:
        raise EigensolverError(
            f"H - sigma I is not positive definite at the Gershgorin bound {shift!r}")
    row_sums = ham.row_sums()
    vec = np.ones_like(d)
    rho_prev = np.inf
    for _ in range(INVERSE_ITERATION_MAXITER):
        prev = vec
        vec, _ = dpttrs(*factors, prev)
        scale = np.linalg.norm(vec)
        vec /= scale
        rho = _difference_rayleigh(row_sums, e, vec)
        if not np.isfinite(rho):
            raise EigensolverError("inverse iteration produced a non-finite Rayleigh quotient")
        if rho_prev - rho <= gap:
            break
        rho_prev = rho
        # (H - shift) vec = prev / scale gives the residual without a product by H
        prev /= scale
        prev -= (rho - shift) * vec
        resid = float(np.linalg.norm(prev))
        trial = rho - max(resid, gap)
        candidate = _positive_definite_factors(ham, trial) if trial > shift else None
        if candidate is not None:
            shift, factors = trial, candidate
    else:
        raise EigensolverError(
            f"inverse iteration did not converge in {INVERSE_ITERATION_MAXITER} iterations")
    del factors, prev, row_sums  # free them before the residual's temporaries
    resid = float(ham.residual_norms(np.array([rho]), vec[:, None])[0])
    tau = max(resid, gap)
    if _positive_definite_factors(ham, rho - tau) is None:
        raise EigensolverError(
            f"ground energy {rho!r} not certified: H - (E - {tau:.3e}) I "
            f"is not positive definite")
    _check_residual(resid, norm)
    return rho, vec


def ground_state(ham: DiscretizedHamiltonian) -> tuple[float, Wavefunction]:
    """Smallest eigenpair; the eigenvector is quadrature-normalized.

    Inverse iteration on the tridiagonal H whose every shift is certified to
    lie below E_min by an LDL^T factorization; the energy comes with the
    certificate E_min in (E - tau, E] (see `_certified_inverse_iteration`).
    """
    e_min, vec = _certified_inverse_iteration(ham)
    full = np.zeros(ham.grid.shape)
    full[1:-1] = vec
    if full[np.argmax(np.abs(full))] < 0:
        full *= -1.0
    # the ends are zero and ||vec|| = 1, so the trapezoid norm^2 of full is dx
    return e_min, Wavefunction(ham.grid, full / np.sqrt(ham.grid.spacing[0]))


def converged_ground_energy(
    problem: SchrodingerProblem,
    n: float,
) -> tuple[float, tuple[float, float]]:
    """Ground energy with the box doubled until it changes by less than
    BOX_CONVERGENCE_RTOL."""
    lo, hi = problem.domain
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    e_prev = None
    for _ in range(MAX_BOX_DOUBLINGS):
        dom = (center - half, center + half)
        e_cur = ground_state(assemble_H(problem, n, domain=dom))[0]
        if e_prev is not None and abs(e_cur - e_prev) <= BOX_CONVERGENCE_RTOL * abs(e_cur):
            return e_cur, dom
        e_prev = e_cur
        half *= 2.0
    raise EigensolverError(
        f"ground energy did not converge within {MAX_BOX_DOUBLINGS} box doublings"
    )


def _constant_alignment(problem: SchrodingerProblem) -> float:
    if callable(problem.alignment):
        raise GridValueError(
            "this operation needs a constant alignment; "
            "use lambda_scan for position-dependent alignment"
        )
    return float(problem.alignment)


def bworst(problem: SchrodingerProblem, n: float) -> float:
    """sup over priors of the bound: alignment^2 / E_min on the given box.

    The least-favorable prior is the ground state's density, psi_0^2.
    """
    a_val = _constant_alignment(problem)
    e_min, _ = ground_state(assemble_H(problem, n))
    if e_min <= 1e-12 * max(1.0, abs(n)):
        raise DegenerateGroundStateError(e_min)
    return a_val**2 / e_min


class DegenerateGroundStateError(EigensolverError):
    def __init__(self, e_min: float):
        super().__init__(
            f"ground energy {e_min!r} is not positive; the worst-case bound diverges"
        )


COSINE_BUMP_NODES = 4001


def _trial_profile() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Nodes y on [-1, 1], their trapezoid weights, the unit-L2 cos^2 bump
    phi and its derivative."""
    y = np.linspace(-1.0, 1.0, COSINE_BUMP_NODES)
    phi = np.cos(np.pi * y / 2.0) ** 2
    dphi = -(np.pi / 2.0) * np.sin(np.pi * y)
    w = trapezoid_weights_1d(len(y), y[1] - y[0])
    # normalize phi to unit L2 so trial energies are Rayleigh quotients
    norm = np.sqrt(np.sum(w * phi**2))
    return y, w, phi / norm, dphi / norm


def _trial_integrals(problem: SchrodingerProblem, widths: np.ndarray):
    """(potential integral per width, kinetic constant) for the bump family.

    The potential integral int F(W y) phi(y)^2 dy does not depend on n, so
    rate fits evaluate it once per width and sweep n arithmetically.
    """
    y, w, phi, dphi = _trial_profile()
    kin = KINETIC_COEFFICIENT * float(np.sum(w * dphi**2))
    pots = np.array([
        float(np.sum(w * phi**2 * np.asarray(problem.information(width * y))))
        for width in widths
    ])
    return pots, kin


@dataclass(frozen=True)
class RateFitResult:
    n_values: np.ndarray
    ground_energies: np.ndarray
    bounds: np.ndarray
    slope: float
    intercept: float
    trial_bounds: np.ndarray
    trial_widths: np.ndarray
    trial_energy_slope: float
    width_exponent: float

    def table(self) -> list[tuple[float, float, float]]:
        """(n, E_min, B_worst) rows for CSV export."""
        return [
            (float(n), float(e), float(b))
            for n, e, b in zip(self.n_values, self.ground_energies, self.bounds)
        ]


def rate_fit(
    problem: SchrodingerProblem,
    n_list: Sequence[float],
) -> RateFitResult:
    """Fit the decay exponent of the worst-case bound against n.

    For each n the box is grown until the ground energy stabilizes, the
    bound alignment^2 / E_min is recorded, and the log-log slope against n
    is fitted.  The scaled cosine-bump trial family provides a matching
    variational upper bound on the energy together with the minimizing
    width, whose scaling in n is fitted as ``width_exponent``.
    """
    n_arr = np.asarray(sorted(float(x) for x in n_list))
    if len(n_arr) < 3 or n_arr[0] <= 0:
        raise GridValueError("need at least three positive n values")
    if n_arr[-1] / n_arr[0] < 999.0:
        raise GridValueError(
            f"n range {n_arr[0]:g}..{n_arr[-1]:g} spans less than three decades"
        )
    a_val = _constant_alignment(problem)
    if a_val == 0 or not np.isfinite(a_val):  # the bound a^2 / E_min has no log
        raise GridValueError(f"rate fit needs a finite nonzero alignment, got {a_val:g}")

    half0 = 0.5 * (problem.domain[1] - problem.domain[0])
    width_grid = half0 * np.logspace(-5, 0, 161)  # trial widths, five decades below half0
    trial_pots, trial_kin = _trial_integrals(problem, width_grid)

    def solve_one(n: float):
        e_min, dom = converged_ground_energy(problem, n)
        trial = n * trial_pots + trial_kin / width_grid**2
        k = int(np.argmin(trial))
        return e_min, trial[k], width_grid[k]

    rows = [solve_one(n) for n in n_arr]

    energies = np.array([r[0] for r in rows])
    trial_e = np.array([r[1] for r in rows])
    widths = np.array([r[2] for r in rows])
    bounds = a_val**2 / energies
    slope, intercept = np.polyfit(np.log(n_arr), np.log(bounds), 1)
    # the trial construction assumes the width cap is inactive ("large enough
    # n"); fit the scaling exponents only where the minimizer is interior
    cap = float(np.max(width_grid))
    free = widths < cap * (1.0 - 1e-9)
    if free.sum() >= 3:
        trial_slope = float(np.polyfit(np.log(n_arr[free]), np.log(trial_e[free]), 1)[0])
        width_exp = float(np.polyfit(np.log(n_arr[free]), np.log(widths[free]), 1)[0])
    else:
        trial_slope = float("nan")
        width_exp = float("nan")
    return RateFitResult(
        n_arr, energies, bounds, float(slope), float(intercept),
        a_val**2 / trial_e, widths, trial_slope, width_exp,
    )


@dataclass(frozen=True)
class LambdaScanResult:
    """The best candidate and every evaluated one: the ground pair first, then
    the eigenvalues of the pruning window in ascending order."""

    best_lambda: float
    best_bound: float
    eigenvalues: np.ndarray
    bounds: np.ndarray


def lambda_scan(
    problem: SchrodingerProblem,
    n: float,
) -> LambdaScanResult:
    """Maximize the bound over priors when the alignment varies with position.

    The stationary priors solve the generalized problem H psi = lambda A psi;
    each normalized eigenfunction psi yields the candidate <A>^2 / <psi, H psi>,
    the bound of the prior psi^2, and the scan returns the best.  The
    alignment must be strictly positive so the symmetric reduction by its
    square root is well posed.  <psi, H psi> is summed in difference form,
    as `ground_state` does, so rounding the reduced matrix does not reach
    the candidates.

    For an exact eigenpair the candidate is <psi, A psi> / lambda =
    1 / (phi^T A^{-1} phi) / lambda with phi the unit eigenvector of
    A^{-1/2} H A^{-1/2}, so it is at most max(A) / lambda.  Once the ground
    pair gives the candidate B_0, only eigenvalues up to max(A) / B_0 can
    beat it, and only that window is computed; the result holds the
    evaluated candidates, ground pair first.
    """
    grid = problem.grid()
    tau = grid.axes[0]
    dx = grid.spacing[0]
    if callable(problem.alignment):
        a_vals = np.asarray(problem.alignment(tau[1:-1]), dtype=float)
    else:
        a_vals = np.full(len(tau) - 2, float(problem.alignment))
    if not np.all((a_vals > 0) & (a_vals < np.inf)):
        raise GridValueError(
            "alignment must be finite and strictly positive for the generalized "
            "ground-state problem to be elliptic"
        )
    ham = assemble_H(problem, n)
    inv_sqrt = 1.0 / np.sqrt(a_vals)
    # A^{-1/2} H A^{-1/2} keeps the tridiagonal structure
    reduced = DiscretizedHamiltonian(
        ham.grid, ham.diagonal / a_vals, ham.off_diagonal * inv_sqrt[:-1] * inv_sqrt[1:])

    row_sums = ham.row_sums()

    def candidates(phi):
        psi = inv_sqrt[:, None] * phi
        psi /= np.sqrt(dx * np.sum(psi**2, axis=0))
        mean_a = dx * np.sum(a_vals[:, None] * psi**2, axis=0)
        energy = dx * np.array([_difference_rayleigh(row_sums, ham.off_diagonal, col)
                                for col in psi.T])
        return mean_a**2 / energy

    lam, phi = reduced.eigh("i", (0, 0))
    if not lam[0] > 0:
        raise EigensolverError(f"ground eigenvalue {lam[0]!r} is not positive")
    cand = candidates(phi)
    top = float(np.max(a_vals)) / cand[0]
    if top > lam[0]:
        # a pair at the window's top edge that rounding leaves out is within
        # rounding of a candidate already evaluated
        more, vecs = reduced.eigh("v", (lam[0], top))
        # bisection can place lambda_0 just inside the window and return the
        # ground pair again; distinct eigenvectors are orthogonal
        fresh = np.abs(phi[:, 0] @ vecs) <= 0.5
        more, vecs = more[fresh], vecs[:, fresh]
        lam, cand = np.concatenate([lam, more]), np.concatenate([cand, candidates(vecs)])
    k = int(np.argmax(cand))
    return LambdaScanResult(float(lam[k]), float(cand[k]), lam, cand)


def wave_functionals(
    psi: Wavefunction,
    v: VectorField,
    model: StatisticalModel,
) -> tuple[float, float, float]:
    """(<A>, <F>, <P>) computed from the wavefunction quadratic forms.

    <P> uses the first-order form D psi = (div v) psi + 2 v . grad psi, so
    only psi and its gradient are differentiated; agrees with the density
    -based functionals for rho = psi^2 up to discretization.  Like them, it
    raises :class:`BoundaryConditionError` when psi^2 v does not vanish on
    the boundary.
    """
    grid = model.grid
    grid.require_same(psi.grid, "wave_functionals")
    grid.require_same(v.grid, "wave_functionals field")
    if v.variance != "contravariant":
        raise GridValueError("wave_functionals needs a contravariant field")
    rho = psi.density()
    _check_boundary(rho, v)
    w = rho_weights(rho, model.metric)
    a_val = float(np.sum(w * np.einsum("...a,...a->...", v.values, model.weight.values)))
    f_val = float(np.sum(w * np.einsum("...a,...ab,...b->...", v.values,
                                       model.fisher.values, v.values)))
    sqrtg = metric_sqrt_det(model.metric, grid)
    div_v = _divergence_of(grid, sqrtg[..., None] * v.values)
    div_v /= sqrtg
    grad_psi = gradient(ScalarField(grid, psi.values)).values
    d_psi = div_v * psi.values + 2.0 * np.einsum("...a,...a->...", v.values, grad_psi)
    p_val = float(np.sum(grid.trapezoid_weights * sqrtg * d_psi**2))
    return a_val, f_val, p_val
