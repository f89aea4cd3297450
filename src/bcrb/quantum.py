"""Helstrom information from density-matrix families and quantum bounds.

For a family of density matrices rho(theta), the score operators S_a solve
the Jordan-product equation  d_a rho = (rho S_a + S_a rho) / 2  and the
Helstrom information matrix is  K_ab = Re tr[rho (S_a o S_b)].  K upper
-bounds the Fisher information of every measurement, so replacing F by K in
any bound of this package yields a measurement-independent quantum bound;
in particular the optimal quantum bound is <u, R^{-1} u>_rho with R built
from K exactly as the field operator is built from F.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .bounds import BoundReport
from .errors import GridValueError
from .geometry import StatisticalModel
from .grids import MatrixField, ParameterGrid, ScalarField
from .optimal import bmax

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
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        mat = np.asarray(self.rho_fn(theta), dtype=complex)
        if mat.shape != (self.dim, self.dim):
            raise GridValueError(f"density matrix has shape {mat.shape}, expected "
                                 f"({self.dim}, {self.dim})")
        if abs(np.trace(mat).real - 1.0) > TRACE_ATOL or abs(np.trace(mat).imag) > TRACE_ATOL:
            raise GridValueError(f"density matrix trace {np.trace(mat)} != 1")
        if np.max(np.abs(mat - mat.conj().T)) > HERMITIAN_ATOL * max(1.0, np.abs(mat).max()):
            raise GridValueError("density matrix is not Hermitian")
        ev = np.linalg.eigvalsh(mat)
        if ev[0] < EIGENVALUE_FLOOR * max(1.0, ev[-1]):
            raise GridValueError(f"density matrix has negative eigenvalue {ev[0]:.3e}")
        return (mat + mat.conj().T) / 2.0

    def drho(self, theta) -> np.ndarray:
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        if self.drho_fn is not None:
            out = np.asarray(self.drho_fn(theta), dtype=complex)
            if out.shape != (self.num_parameters, self.dim, self.dim):
                raise GridValueError(
                    f"derivative stack has shape {out.shape}, expected "
                    f"({self.num_parameters}, {self.dim}, {self.dim})"
                )
            return out
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


@dataclass(frozen=True, eq=False)
class HelstromField:
    """Helstrom information matrices over a grid, with spectrum diagnostics."""

    grid: ParameterGrid
    matrices: MatrixField

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        return self.matrices.eigenvalues()

    def numerical_rank(self, rtol: float = 1e-6) -> np.ndarray:
        ev = self.eigenvalues
        top = ev[..., -1][..., None]
        return (ev > rtol * np.maximum(top, 1e-300)).sum(axis=-1)

    def dominates(self, fisher: MatrixField, atol: float = 1e-8) -> bool:
        diff = self.matrices.values - fisher.values
        ev = np.linalg.eigvalsh((diff + np.swapaxes(diff, -1, -2)) / 2.0)
        return bool(np.all(ev[..., 0] >= -atol * max(1.0, np.abs(self.matrices.values).max())))


def sld_scores(family: DensityFamily, theta) -> list[np.ndarray]:
    """Score operators solving the Jordan-product equation at a point.

    Solved in the eigenbasis of rho: S_jk = 2 (drho)_jk / (p_j + p_k), with
    entries on eigenvalue pairs below the support cutoff set to zero; if the
    derivative has weight on such a pair the family is not differentiable in
    trace norm there and the solve fails.
    """
    rho = family.rho(theta)
    drho = family.drho(theta)
    pvals, basis = np.linalg.eigh(rho)
    cutoff = SLD_SUPPORT_CUTOFF * float(np.trace(rho).real)
    psum = pvals[:, None] + pvals[None, :]
    reachable = psum > cutoff

    scores = []
    for a in range(family.num_parameters):
        d_in_basis = basis.conj().T @ drho[a] @ basis
        unreachable_weight = np.abs(d_in_basis[~reachable])
        scale = max(np.abs(d_in_basis).max(), 1.0)
        if unreachable_weight.size and unreachable_weight.max() > 1e-8 * scale:
            raise GridValueError(
                f"derivative along axis {a} has weight "
                f"{unreachable_weight.max():.3e} outside the reachable subspace; "
                "family is not differentiable in trace norm at this point"
            )
        s_in_basis = np.zeros_like(d_in_basis)
        s_in_basis[reachable] = 2.0 * d_in_basis[reachable] / psum[reachable]
        score = basis @ s_in_basis @ basis.conj().T
        score = (score + score.conj().T) / 2.0

        resid = rho @ score + score @ rho - 2.0 * drho[a]
        resid_in_basis = basis.conj().T @ resid @ basis
        resid_norm = np.linalg.norm(resid_in_basis[reachable]) / 2.0
        if resid_norm > SLD_RESIDUAL_RTOL * max(1.0, np.linalg.norm(drho[a])):
            raise GridValueError(
                f"score-equation residual {resid_norm:.3e} on the support subspace"
            )
        scores.append(score)
    return scores


def helstrom_matrix(family: DensityFamily, theta) -> np.ndarray:
    """K_ab = Re tr[rho (S_a S_b + S_b S_a)] / 2, symmetric PSD."""
    rho = family.rho(theta)
    scores = sld_scores(family, theta)
    p = family.num_parameters
    out = np.empty((p, p))
    for a in range(p):
        for b in range(a, p):
            jordan = (scores[a] @ scores[b] + scores[b] @ scores[a]) / 2.0
            out[a, b] = out[b, a] = float(np.trace(rho @ jordan).real)
    return out


def helstrom_field(family: DensityFamily, grid: ParameterGrid) -> HelstromField:
    """Evaluate the Helstrom matrix at every grid node."""
    coords = grid.coordinates.reshape(-1, grid.dim)
    p = family.num_parameters
    vals = np.empty((len(coords), p, p))
    for i, theta in enumerate(coords):
        vals[i] = helstrom_matrix(family, theta)
    return HelstromField(grid, MatrixField(grid, vals.reshape(grid.shape + (p, p))))


def qmax(
    model: StatisticalModel,
    prior: ScalarField | None = None,
    n: float = 1.0,
    check_classical: bool = True,
) -> BoundReport:
    """Optimal quantum bound: the field-equation solve with K in place of F.

    When the model also carries a classical information field, the classical
    optimal bound is computed alongside and the ordering Q_max <= B_max is
    verified; both values, and the classical solve's ``fallback``, land in the
    report diagnostics.
    """
    if model.helstrom is None:
        raise GridValueError("qmax needs a model with a Helstrom information field")
    quantum_model = model.with_information(model.helstrom, model.helstrom_fn)
    rep = bmax(quantum_model, prior, n, v_choice="quantum_least_favorable")
    diagnostics = dict(rep.diagnostics)
    if check_classical and model.fisher is not None:
        classical = bmax(model, prior, n)
        diagnostics["classical_bound"] = classical.bound
        diagnostics["classical_fallback"] = classical.diagnostics["fallback"]
        if rep.bound > classical.bound + QUANTUM_ORDER_SLACK:
            raise GridValueError(
                f"quantum bound {rep.bound!r} exceeds the classical bound "
                f"{classical.bound!r}; the information fields are inconsistent "
                "(K must dominate F)"
            )
    return BoundReport(
        rep.alignment, rep.information, rep.prior_information, rep.n, rep.bound,
        rep.v_choice, diagnostics, rep.attaining_v,
    )


def snr_observable(family: DensityFamily, theta, v, observable: np.ndarray) -> float:
    """Signal-to-noise ratio of one observable against a direction.

    (v^a d_a <Y>)^2 / Var(Y); bounded above by v K v with equality at
    Y = v^a S_a.  Returns 0 when both the sensitivity and the variance
    vanish (constant observable); raises when only the variance does.
    """
    v = np.atleast_1d(np.asarray(v, dtype=float))
    rho = family.rho(theta)
    drho = family.drho(theta)
    y = np.asarray(observable, dtype=complex)
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
    k = np.atleast_2d(np.asarray(helstrom, dtype=float))
    g = np.atleast_2d(np.asarray(prior_curvature, dtype=float))
    u = np.atleast_1d(np.asarray(weight, dtype=float))

    def solve_pd(mat, vec, label):
        try:
            chol = np.linalg.cholesky(mat)
        except np.linalg.LinAlgError as exc:
            raise GridValueError(f"{label} is not positive definite: {exc}") from exc
        half = np.linalg.solve(chol, vec)
        return float(half @ half)

    q_val = solve_pd(k + g, u, "K + G")
    risk = solve_pd(k / 2.0 + g, u, "K/2 + G")
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


def constant_family(matrix: np.ndarray, num_parameters: int = 1) -> DensityFamily:
    """theta-independent family: all scores vanish."""
    matrix = np.asarray(matrix, dtype=complex)
    dim = matrix.shape[0]
    zeros = np.zeros((num_parameters, dim, dim), dtype=complex)
    return DensityFamily(dim, num_parameters, lambda _t: matrix, lambda _t: zeros)
