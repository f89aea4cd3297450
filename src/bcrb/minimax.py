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

from .bounds import _check_n
from .errors import EigensolverError, GridValueError
from .grids import ParameterGrid, ScalarField, integrate, trapezoid_weights_1d

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
        # the trapezoid norm^2, summed without temporaries; NaN fails the test
        norm = float(np.einsum("i,i,i->", self.grid.trapezoid_weights.ravel(),
                                   vals.ravel(), vals.ravel()))
        if not abs(norm - 1.0) <= NORMALIZATION_ATOL:
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

    def gershgorin(self) -> tuple[float, float]:
        """(lower bound of the spectrum, ||H||_inf) from the Gershgorin discs."""
        radii = np.zeros_like(self.diagonal)
        step = np.abs(self.off_diagonal)
        radii[:-1] += step
        radii[1:] += step
        lower = float(np.min(self.diagonal - radii))
        radii += np.abs(self.diagonal)
        return lower, float(np.max(radii))

    def row_sums(self) -> np.ndarray:
        """d_i + e_{i-1} + e_i, as `_difference_rayleigh` takes them."""
        sums = self.diagonal.copy()
        sums[:-1] += self.off_diagonal
        sums[1:] += self.off_diagonal
        return sums

    def residual_norms(self, vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
        """||H phi_j - lambda_j phi_j|| for the columns phi_j of ``vecs``."""
        diag, off = self.diagonal, self.off_diagonal
        resid = diag[:, None] - vals
        resid *= vecs
        coupled = off[:, None] * vecs[1:]
        resid[:-1] += coupled
        resid[1:] += np.multiply(off[:, None], vecs[:-1], out=coupled)
        return np.sqrt(np.einsum("ij,ij->j", resid, resid))

    def eigh(self, select: str, select_range: tuple) -> tuple[np.ndarray, np.ndarray]:
        """The eigenpairs in a window, from the tridiagonal eigensolver, failing loudly.

        ``select`` and ``select_range`` name the window as `eigh_tridiagonal`
        does: eigenvalue indices ``"i"`` (both ends included) or a half-open
        value interval ``"v"``.  A solver failure, or any returned eigenpair
        with a residual ||H phi - lambda phi|| above RESIDUAL_RTOL *
        max(||H||_inf, 1), raises :class:`EigensolverError`.
        """
        from scipy.linalg import eigh_tridiagonal  # slow import, needed only by the solvers

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
    with np.errstate(over="ignore"):  # an overflowing n*F is raised below
        diag = n * np.asarray(problem.information(tau[1:-1]), dtype=float)
    lowest, highest = float(np.min(diag)), float(np.max(diag))  # NaN propagates
    if not (np.isfinite(lowest) and np.isfinite(highest)):
        bad = ~np.isfinite(diag)
        raise GridValueError(
            f"potential n*F is not finite at tau = {float(tau[1:-1][bad][0])!r} (n = {n:g})")
    if lowest < -1e-12 * max(1.0, -lowest, highest):
        raise GridValueError("information potential must be nonnegative")
    k = KINETIC_COEFFICIENT / dx**2
    diag += 2.0 * k
    off = np.full(len(tau) - 3, -k)
    return DiscretizedHamiltonian(grid, diag, off)


def _positive_definite_factors(ham: DiscretizedHamiltonian, shift: float,
                               d: np.ndarray, e: np.ndarray):
    """LDL^T factors of H - shift*I, written into the buffers ``d`` and ``e``,
    or None when it is not positive definite.

    A successful factorization proves shift < E_min (Sylvester's law of
    inertia), which is what certifies every shift of `ground_state`.  ``e``
    holds at least one entry: the wrapper rejects an empty off-diagonal, so a
    1 x 1 H keeps a dummy zero.
    """
    from scipy.linalg.lapack import dpttrf

    np.subtract(ham.diagonal, shift, out=d)
    e[:ham.off_diagonal.size] = ham.off_diagonal
    d, e, info = dpttrf(d, e, overwrite_d=True, overwrite_e=True)
    return (d, e) if info == 0 else None


def _difference_rayleigh(row_sums: np.ndarray, off: np.ndarray, vec: np.ndarray,
                         step: np.ndarray | None = None) -> float:
    """v^T H v as sum (d_i + e_{i-1} + e_i) v_i^2 - sum e_i (v_{i+1} - v_i)^2.

    ``row_sums`` holds d_i + e_{i-1} + e_i.  The direct sum of d_i v_i^2 and
    2 e_i v_i v_{i+1} cancels the 2k - k - k of the stencil and loses digits
    of order eps * k; this form adds terms of one sign only.  ``step``, when
    given, is a buffer of len(vec) - 1 entries for the differences.
    """
    step = np.subtract(vec[1:], vec[:-1], out=step)
    return float(np.einsum("i,i,i->", row_sums, vec, vec)
                 - np.einsum("i,i,i->", off, step, step))


def _certified_inverse_iteration(
    ham: DiscretizedHamiltonian,
    start: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """(E_min, unit eigenvector) by inverse iteration with certified shifts.

    It starts from ``start``, which it overwrites (all ones when None or
    zero), at the Gershgorin lower bound.  After each solve it tries the
    shift rho - max(||H v - rho v||, gap), with rho the Rayleigh quotient and
    gap = CERTIFIED_GAP_EPS * eps * ||H||_inf, and keeps it only if H minus
    that shift has an LDL^T factorization.  Once rho stagnates, the factorization at rho - tau, tau
    = max(||H v - rho v||, gap), certifies E_min in (rho - tau, rho].  A
    failed factorization, INVERSE_ITERATION_MAXITER iterations without
    stagnation, a non-finite rho, a failed certificate or a residual above
    RESIDUAL_RTOL * max(||H||_inf, 1) raises :class:`EigensolverError`.

    Every factorization and solve writes into buffers allocated once per
    call: two (d, e) pairs, the accepted shift's and a trial's, swapped when
    a trial is accepted, and two iterates solved in place.
    """
    from scipy.linalg.lapack import dpttrs

    e = ham.off_diagonal
    lowest, norm = ham.gershgorin()
    gap = CERTIFIED_GAP_EPS * np.finfo(float).eps * norm
    shift = lowest - gap
    spare, factors = [(np.empty_like(ham.diagonal), np.zeros(max(e.size, 1)))
                      for _ in range(2)]
    factors = _positive_definite_factors(ham, shift, *factors)
    if factors is None:
        raise EigensolverError(
            f"H - sigma I is not positive definite at the Gershgorin bound {shift!r}")
    row_sums = ham.row_sums()
    step = np.empty(e.size)
    if start is not None and np.any(start):
        vec = start
    else:
        vec = np.ones_like(ham.diagonal)
    prev = np.empty_like(vec)
    rho_prev = np.inf
    for _ in range(INVERSE_ITERATION_MAXITER):
        prev, vec = vec, prev
        vec[:] = prev
        vec = dpttrs(*factors, vec, overwrite_b=True)[0]
        scale = np.linalg.norm(vec)
        vec /= scale
        rho = _difference_rayleigh(row_sums, e, vec, step)
        if not np.isfinite(rho):
            raise EigensolverError("inverse iteration produced a non-finite Rayleigh quotient")
        if rho_prev - rho <= gap:
            break
        rho_prev = rho
        # (H - shift) vec = prev / scale gives the residual without a product by H
        prev -= ((rho - shift) * scale) * vec
        resid = float(np.linalg.norm(prev)) / scale
        trial = rho - max(resid, gap)
        candidate = _positive_definite_factors(ham, trial, *spare) if trial > shift else None
        if candidate is not None:
            shift, factors, spare = trial, candidate, factors
    else:
        raise EigensolverError(
            f"inverse iteration did not converge in {INVERSE_ITERATION_MAXITER} iterations")
    resid = float(ham.residual_norms(np.array([rho]), vec[:, None])[0])
    tau = max(resid, gap)
    if _positive_definite_factors(ham, rho - tau, *spare) is None:
        raise EigensolverError(
            f"ground energy {rho!r} not certified: H - (E - {tau:.3e}) I "
            f"is not positive definite")
    _check_residual(resid, norm)
    return rho, vec


def _resampled(start: Wavefunction, grid: ParameterGrid) -> np.ndarray:
    """``start`` on the interior nodes of the 1-D ``grid``, zero outside its box.

    When every node of ``grid`` is a node of ``start.grid`` at a fixed stride
    (the same grid, or a doubled box at a fixed node count, whose nodes are
    every other old node) this is an exact strided copy; otherwise it
    interpolates linearly.
    """
    old, (lo, _) = start.grid, grid.bounds[0]
    old_dx = old.spacing[0]
    stride = grid.spacing[0] / old_dx
    first = (lo - old.bounds[0][0]) / old_dx + stride  # first interior node, in old nodes
    s, f = round(stride), round(first)
    count = grid.shape[0] - 2
    if s >= 1 and abs(stride - s) <= 1e-9 * s and abs(first - f) <= 1e-9 * max(abs(first), 1.0):
        out = np.zeros(count)
        j0 = max(0, -(f // s))  # the first j with f + s j >= 0
        j1 = min(count, (old.shape[0] - 1 - f) // s + 1)
        if j1 > j0:
            out[j0:j1] = start.values[f + s * j0:f + s * (j1 - 1) + 1:s]
        return out
    return np.interp(grid.axes[0][1:-1], old.axes[0], start.values, left=0.0, right=0.0)


def ground_state(
    ham: DiscretizedHamiltonian,
    start: Wavefunction | None = None,
) -> tuple[float, Wavefunction]:
    """Smallest eigenpair; the eigenvector is quadrature-normalized.

    Inverse iteration on the tridiagonal H whose every shift is certified to
    lie below E_min by an LDL^T factorization; the energy comes with the
    certificate E_min in (E - tau, E] (see `_certified_inverse_iteration`).
    ``start``, a previous state on any 1-D grid, is resampled onto the
    interior of H's grid (zero outside its box) to start the iteration; a
    start close to the ground state saves iterations, and any start gives
    the same certified energy.
    """
    if start is not None and start.grid.dim != 1:
        raise GridValueError(f"a start state needs a 1-D grid, got {start.grid.dim}-D")
    e_min, vec = _certified_inverse_iteration(
        ham, None if start is None else _resampled(start, ham.grid))
    # the ends are zero and ||vec|| = 1, so the trapezoid norm^2 of full is dx
    sign = -1.0 if vec[np.argmax(np.abs(vec))] < 0 else 1.0
    full = np.zeros(ham.grid.shape)
    np.divide(vec, sign * np.sqrt(ham.grid.spacing[0]), out=full[1:-1])
    return e_min, Wavefunction(ham.grid, full)


def converged_ground_energy(
    problem: SchrodingerProblem,
    n: float,
    *,
    chain: list | None = None,
) -> tuple[float, tuple[float, float]]:
    """Ground energy with the box doubled until it changes by less than
    BOX_CONVERGENCE_RTOL; each box starts from the previous box's state.

    ``chain``, which `rate_fit` passes, is a one-item list that carries a
    state from call to call: an item other than None starts the first box,
    and on return the item is the first box's state.
    """
    lo, hi = problem.domain
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    state = chain[0] if chain else None
    e_prev = None
    for _ in range(MAX_BOX_DOUBLINGS):
        dom = (center - half, center + half)
        e_cur, state = ground_state(assemble_H(problem, n, domain=dom), state)
        if e_prev is None and chain is not None:
            chain[0] = state
        if e_prev is not None and abs(e_cur - e_prev) <= BOX_CONVERGENCE_RTOL * abs(e_cur):
            return e_cur, dom
        e_prev = e_cur
        half *= 2.0
    raise EigensolverError(
        f"ground energy at n = {n:g} did not converge within {MAX_BOX_DOUBLINGS} box "
        f"doublings: the last box {dom!r} has dx = {state.grid.spacing[0]:.3e}; at a "
        f"fixed node count each doubling also doubles dx, so the fix is more nodes "
        f"(nodes = {problem.nodes})"
    )


def _constant_alignment(problem: SchrodingerProblem) -> float:
    if callable(problem.alignment):
        raise GridValueError(
            "this operation needs a constant alignment; "
            "use lambda_scan for position-dependent alignment"
        )
    a_val = float(problem.alignment)
    if not np.isfinite(a_val):
        raise GridValueError(f"alignment must be finite, got {a_val}")
    return a_val


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


def _stretched(psi: Wavefunction, ratio: float) -> Wavefunction:
    """psi(c + (tau - c) / ratio) / sqrt(ratio), c the center of its box: the
    same unit-norm profile on a box ``ratio`` times as wide."""
    ((lo, hi),) = psi.grid.bounds
    center, half = 0.5 * (lo + hi), 0.5 * (hi - lo) * ratio
    return Wavefunction(ParameterGrid([(center - half, center + half)], psi.grid.shape),
                        psi.values / np.sqrt(ratio))


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
    if a_val == 0:  # the bound a^2 / E_min has no log
        raise GridValueError(f"rate fit needs a nonzero alignment, got {a_val:g}")

    half0 = 0.5 * (problem.domain[1] - problem.domain[0])
    width_grid = half0 * np.logspace(-5, 0, 161)  # trial widths, five decades below half0
    trial_pots, trial_kin = _trial_integrals(problem, width_grid)

    rows = []
    chain = [None]  # each n's first-box state, stretched, starts the next n
    for n in n_arr:
        trial = n * trial_pots + trial_kin / width_grid**2
        k = int(np.argmin(trial))
        if chain[0] is not None:
            chain[0] = _stretched(chain[0], width_grid[k] / rows[-1][2])
        e_min, _ = converged_ground_energy(problem, n, chain=chain)
        rows.append((e_min, trial[k], width_grid[k]))

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
