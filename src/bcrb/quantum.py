"""Helstrom information from density-matrix families and quantum bounds.

For a family of density matrices rho(theta), the score operators S_a solve
the Jordan-product equation  d_a rho = (rho S_a + S_a rho) / 2  and the
Helstrom information matrix is  K_ab = Re tr[rho (S_a o S_b)].  K upper
-bounds the Fisher information of every measurement, so replacing F by K in
any bound of this package, by passing ``replace(model, fisher=K)`` in place
of the model, yields a measurement-independent quantum bound (K obeys F's
law and brings its own callable, so `pushforward_model` of that model
carries K to new coordinates); in particular the optimal quantum bound
`qmax` is <u, R^{-1} u>_rho with R built from K exactly as the field
operator is built from F.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .bounds import BoundReport
from .errors import GridValueError
from .geometry import StatisticalModel
from .grids import MatrixField, ScalarField, _first_node
from .optimal import bmax, gaussian_closed_form

TRACE_ATOL = 1e-10
HERMITIAN_ATOL = 1e-12
EIGENVALUE_FLOOR = -1e-10
SLD_SUPPORT_CUTOFF = 1e-12    # relative to trace: p_j + p_k below it is "unreachable"
SLD_RESIDUAL_RTOL = 1e-8
DEFAULT_FD_STEP = 1e-5
QUANTUM_ORDER_SLACK = 1e-10


@dataclass(frozen=True, eq=False)
class DensityFamily:
    """theta -> d x d density matrix, with optional analytic derivatives.

    ``rho_fn`` maps a parameter vector (shape ``(p,)``) to a Hermitian,
    unit-trace, positive-semidefinite matrix.  ``drho_fn`` optionally maps
    the same point to the stacked derivatives, shape ``(p, d, d)``; without
    it central differences with a step of ``fd_step * max(1, |theta|)`` per
    axis are used.
    """

    dim: int
    num_parameters: int
    rho_fn: Callable
    drho_fn: Callable | None = None
    fd_step: float = DEFAULT_FD_STEP

    def rho(self, theta) -> np.ndarray:
        return _checked_states(self._matrix(theta)[None])[0][0]

    def drho(self, theta) -> np.ndarray:
        return _finite_derivatives(self._derivatives(theta)[None])[0]

    def _matrix(self, theta) -> np.ndarray:
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        mat = np.asarray(self.rho_fn(theta), dtype=complex)
        if mat.shape != (self.dim, self.dim):
            raise GridValueError(f"density matrix has shape {mat.shape}, expected "
                                 f"({self.dim}, {self.dim})")
        return mat

    def _derivatives(self, theta) -> np.ndarray:
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        if self.drho_fn is not None:
            out = np.asarray(self.drho_fn(theta), dtype=complex)
            if out.shape != (self.num_parameters, self.dim, self.dim):
                raise GridValueError(
                    f"derivative stack has shape {out.shape}, expected "
                    f"({self.num_parameters}, {self.dim}, {self.dim})"
                )
        else:
            out = np.empty((self.num_parameters, self.dim, self.dim), dtype=complex)
            for a in range(self.num_parameters):
                step = self.fd_step * max(1.0, abs(theta[a]))
                hi = theta.copy()
                lo = theta.copy()
                hi[a] += step
                lo[a] -= step
                out[a] = (np.asarray(self.rho_fn(hi), dtype=complex)
                          - np.asarray(self.rho_fn(lo), dtype=complex)) / (2 * step)
        return out


def _check(bad: np.ndarray, message: Callable, at) -> None:
    """Raise GridValueError for the first True entry of ``bad`` (shape (m,) or
    (m, p)); ``message`` gets its index, and ``at[i]``, when given, names the
    stack entry."""
    if np.any(bad):
        index = _first_node(bad)
        where = "" if at is None else f" at {at[index[0]]}"
        raise GridValueError(message(*index) + where)


def _checked_states(rho: np.ndarray, at=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A stack of density matrices, shape (m, d, d), checked finite, of unit
    trace, Hermitian and above the eigenvalue floor, made exactly Hermitian;
    returned with its eigenvalues (m, d) and eigenvectors (m, d, d)."""
    _check(~np.isfinite(rho).all(axis=(-2, -1)),
           lambda i: "density matrix has non-finite entries", at)
    trace = np.trace(rho, axis1=-2, axis2=-1)
    _check((np.abs(trace.real - 1.0) > TRACE_ATOL) | (np.abs(trace.imag) > TRACE_ATOL),
           lambda i: f"density matrix trace {trace[i]} != 1", at)
    adjoint = rho.conj().swapaxes(-2, -1)
    _check(np.abs(rho - adjoint).max(axis=(-2, -1))
           > HERMITIAN_ATOL * np.maximum(1.0, np.abs(rho).max(axis=(-2, -1))),
           lambda i: "density matrix is not Hermitian", at)
    rho = (rho + adjoint) / 2.0
    pvals, basis = np.linalg.eigh(rho)
    _check(pvals[:, 0] < EIGENVALUE_FLOOR * np.maximum(1.0, pvals[:, -1]),
           lambda i: f"density matrix has negative eigenvalue {pvals[i, 0]:.3e}", at)
    return rho, pvals, basis


def _finite_derivatives(drho: np.ndarray, at=None) -> np.ndarray:
    _check(~np.isfinite(drho).all(axis=(-3, -2, -1)),
           lambda i: "density-matrix derivatives have non-finite entries", at)
    return drho


def _helstrom_stack(rho: np.ndarray, drho: np.ndarray,
                    at=None) -> tuple[np.ndarray, np.ndarray]:
    """Helstrom information and score operators of m states at once.

    ``rho`` has shape (m, d, d) and ``drho`` (m, p, d, d).  Every check of a
    single state runs on each of the m, and a failure names the first
    failing one by ``at[i]`` when given.  Each score is solved in the
    eigenbasis of rho as in `sld_scores`, and K_ab = Re tr[rho (S_a S_b +
    S_b S_a)] / 2 is exactly symmetric.  Returns K, shape (m, p, p), and the
    scores, shape (m, p, d, d).
    """
    rho, pvals, basis = _checked_states(rho, at)
    _finite_derivatives(drho, at)
    cutoff = SLD_SUPPORT_CUTOFF * np.trace(rho, axis1=-2, axis2=-1).real
    psum = (pvals[:, :, None] + pvals[:, None, :])[:, None]
    reachable = psum > cutoff[:, None, None, None]
    left, right = basis.conj().swapaxes(-2, -1)[:, None], basis[:, None]

    d_in_basis = left @ drho @ right
    magnitude = np.abs(d_in_basis)
    unreachable = np.where(reachable, 0.0, magnitude).max(axis=(-2, -1))
    _check(unreachable > 1e-8 * np.maximum(magnitude.max(axis=(-2, -1)), 1.0),
           lambda i, a: f"derivative along axis {a} has weight {unreachable[i, a]:.3e} "
           "outside the reachable subspace; family is not differentiable in trace "
           "norm at this point", at)
    s_in_basis = np.divide(2.0 * d_in_basis, psum, out=np.zeros_like(d_in_basis),
                           where=reachable)
    scores = right @ s_in_basis @ left
    scores = (scores + scores.conj().swapaxes(-2, -1)) / 2.0

    resid = rho[:, None] @ scores + scores @ rho[:, None] - 2.0 * drho
    resid_in_basis = np.where(reachable, left @ resid @ right, 0.0)
    resid_norm = np.linalg.norm(resid_in_basis, axis=(-2, -1)) / 2.0
    _check(resid_norm > SLD_RESIDUAL_RTOL * np.maximum(1.0, np.linalg.norm(drho, axis=(-2, -1))),
           lambda i, a: f"score-equation residual {resid_norm[i, a]:.3e} on the support "
           "subspace", at)

    jordan = (scores[:, :, None] @ scores[:, None, :]
              + scores[:, None, :] @ scores[:, :, None]) / 2.0
    k = np.trace(rho[:, None, None] @ jordan, axis1=-2, axis2=-1).real
    return k, scores


def sld_scores(family: DensityFamily, theta) -> list[np.ndarray]:
    """Score operators solving the Jordan-product equation at a point.

    Solved in the eigenbasis of rho: S_jk = 2 (drho)_jk / (p_j + p_k), with
    entries on eigenvalue pairs below the support cutoff set to zero; if the
    derivative has weight on such a pair the family is not differentiable in
    trace norm there and the solve fails.
    """
    return list(_helstrom_stack(family._matrix(theta)[None],
                                family._derivatives(theta)[None])[1][0])


def helstrom_matrix(family: DensityFamily, theta) -> np.ndarray:
    """K_ab = Re tr[rho (S_a S_b + S_b S_a)] / 2, symmetric PSD."""
    return _helstrom_stack(family._matrix(theta)[None],
                           family._derivatives(theta)[None])[0][0]


def qmax(
    model: StatisticalModel,
    helstrom: MatrixField,
    prior: ScalarField | None = None,
    n: float = 1.0,
) -> BoundReport:
    """Optimal quantum bound: the field-equation solve with the Helstrom
    information ``helstrom`` (K, on the model's grid) in place of the
    model's F.

    The classical optimal bound of ``model`` is computed alongside and the
    ordering Q_max <= B_max is verified; both values, and the classical
    solve's ``fallback``, land in the report diagnostics.
    """
    return _quantum_and_classical(model, helstrom, prior, n)[0]


def _quantum_and_classical(
    model: StatisticalModel,
    helstrom: MatrixField,
    prior: ScalarField | None,
    n: float,
) -> tuple[BoundReport, BoundReport]:
    """`qmax`'s report and the classical `bmax` report it checks against.

    The quantum model is ``model`` with F replaced by K, so K passes the
    model's grid and PSD checks."""
    quantum_model = replace(model, fisher=helstrom)
    rep = bmax(quantum_model, prior, n, v_choice="quantum_least_favorable")
    classical = bmax(model, prior, n)
    if rep.bound > classical.bound + QUANTUM_ORDER_SLACK * max(1.0, classical.bound):
        raise GridValueError(
            f"quantum bound {rep.bound!r} exceeds the classical bound "
            f"{classical.bound!r}; the information fields are inconsistent "
            "(K must dominate F)"
        )
    diagnostics = {**rep.diagnostics, "classical_bound": classical.bound,
                   "classical_fallback": classical.diagnostics["fallback"]}
    return replace(rep, diagnostics=diagnostics), classical


def snr_observable(family: DensityFamily, theta, v, observable: np.ndarray) -> float:
    """Signal-to-noise ratio of one observable against a direction.

    (v^a d_a <Y>)^2 / Var(Y); bounded above by v K v with equality at
    Y = v^a S_a.  Returns 0 when both the sensitivity and the variance
    vanish (constant observable); raises when only the variance does.
    """
    v = np.atleast_1d(np.asarray(v, dtype=float))
    y = np.asarray(observable, dtype=complex)
    for name, value, shape in (("v", v, (family.num_parameters,)),
                               ("observable", y, (family.dim, family.dim))):
        if value.shape != shape:
            raise GridValueError(f"{name} has shape {value.shape}, expected {shape}")
        if not np.all(np.isfinite(value)):
            raise GridValueError(f"{name} must be finite, got {value[~np.isfinite(value)][0]}")
    rho = family.rho(theta)
    drho = family.drho(theta)
    if np.max(np.abs(y - y.conj().T)) > HERMITIAN_ATOL * max(1.0, np.abs(y).max()):
        raise GridValueError("observable must be Hermitian")
    mean = np.trace(rho @ y).real
    centered = y - mean * np.eye(family.dim)
    variance = np.trace(rho @ centered @ centered).real
    sensitivity = float(np.trace(np.tensordot(v, drho, axes=1) @ y).real)
    scale = max(1.0, float(np.abs(y).max()) ** 2)
    if variance <= 1e-14 * scale:
        if abs(sensitivity) <= 1e-14 * scale:
            return 0.0
        raise GridValueError(
            "zero-variance observable with nonzero sensitivity; SNR is ill-posed"
        )
    return sensitivity**2 / variance


def gaussian_shift_bounds(
    helstrom: np.ndarray,
    prior_curvature: np.ndarray,
    weight: np.ndarray,
) -> tuple[float, float]:
    """Quantum Gaussian shift model: optimal bound and the achieved risk.

    For a shift family with constant Helstrom matrix K and Gaussian prior
    with inverse covariance G,  Q_max = u^T (K + G)^{-1} u,  while measuring
    jointly with a matched Gaussian auxiliary achieves classical information
    K/2 and Bayes risk u^T (K/2 + G)^{-1} u.  The pair brackets the best
    achievable risk within a factor of two, which is asserted.
    """
    q_val = gaussian_closed_form(helstrom, prior_curvature, weight, 1.0)
    risk = gaussian_closed_form(helstrom, prior_curvature, weight, 0.5)
    slack = 1e-10 * max(q_val, risk, 1.0)
    if not (q_val <= risk + slack and risk <= 2.0 * q_val + slack):
        raise GridValueError(
            f"sandwich violated: Q_max={q_val!r}, risk={risk!r}"
        )
    return q_val, risk


# ---------------------------------------------------------------------------
# ready-made families

def diagonal_qubit_family() -> DensityFamily:
    """Classical bit embedded as diag((1+theta)/2, (1-theta)/2)."""

    def rho_fn(theta):
        t = float(theta[0])
        return np.diag([(1.0 + t) / 2.0, (1.0 - t) / 2.0]).astype(complex)

    def drho_fn(theta):
        return np.array([np.diag([0.5, -0.5])], dtype=complex)

    return DensityFamily(2, 1, rho_fn, drho_fn)

