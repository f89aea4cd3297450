"""The exact optimal bound in the Gill-Levit family.

The bound B = <A>^2 / (n<F> + <P>) is a Rayleigh quotient in the free field
v, maximized by solving the second-order field equation

    n F_ab v^b - d_a[ (1/rho) div(rho v) ] = u_a,      v = 0 on the boundary,

after which  B_max = <u, v>_rho  with the rho-weighted inner product
<v, u>_rho = int (v.u) rho eps.  Discretely the equation becomes a symmetric
positive-semidefinite sparse system: the prior term is assembled as
D^T W D (exactly self-adjoint in the discrete inner product), so the
variational structure, and with it B <= B_max for every admissible v, is
preserved on the grid.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .bounds import BoundReport, VectoralWeight, _check_boundary
from .errors import GridValueError, OperatorRangeError
from .geometry import StatisticalModel
from .grids import (
    DEFAULT_RHO_FLOOR,
    ParameterGrid,
    ScalarField,
    VectorField,
    boundary_residual,
    divergence_matrix,
    gradient,
    metric_sqrt_det,
    weighted_divergence,
)

SOLVE_RTOL = 1e-8          # target relative residual of the sparse solve
RANGE_RTOL = 1e-6          # above this residual the RHS is declared out of range
CG_MAXITER = 5000          # PCG cap, over 5x the worst count measured on 2-D 321^2 grids (919)


@dataclass(frozen=True)
class SolveInfo:
    """How one field-equation system was solved (deterministic, no timings).

    ``iterations`` counts PCG iterations, also those of a PCG attempt that
    gave way to the direct solve; ``fallback`` is None or the reason.
    """

    solver: str
    iterations: int
    relative_residual: float
    unknowns: int
    nnz: int
    fallback: str | None = None


@dataclass(frozen=True, eq=False)
class OperatorL:
    """Discretized field-equation operator with Dirichlet (v = 0) boundary.

    ``matrix`` is the symmetric PSD system on interior nodes: for flattened
    interior fields v, w (component blocks concatenated),
    ``w @ matrix @ v`` equals the discrete inner product <w, Lv>_rho, and
    ``weight`` is the diagonal of quadrature weights so that
    ``w @ weight @ v`` is <w, v>_rho (``node_weights``: the same weights at
    every node, flattened).  ``apply`` evaluates the operator on a full-grid
    field (boundary values included) with the composition of divergence and
    gradient stencils, for pointwise diagnostics.
    """

    grid: ParameterGrid
    n: float
    rho: ScalarField
    model: StatisticalModel
    matrix: sp.csr_matrix
    weight: np.ndarray
    interior: np.ndarray  # flat indices of interior nodes
    rho_floor: float
    node_weights: np.ndarray

    def inner(self, v: VectorField, u: VectorField) -> float:
        """<v, u>_rho over the full grid."""
        w = self.node_weights.reshape(self.grid.shape)
        return float(np.sum(w * np.einsum("...a,...a->...", v.values, u.values)))

    def apply(self, v: VectorField) -> VectorField:
        """(Lv)_a = n F_ab v^b - d_a[(1/rho) div(rho v)] on the full grid."""
        self.grid.require_same(v.grid, "OperatorL.apply")
        div = weighted_divergence(v=v, rho=self.rho, metric=self.model.metric,
                                  rho_floor=self.rho_floor)
        grad_div = gradient(div).values
        fv = np.einsum("...ab,...b->...a", self.model.fisher.values, v.values)
        return VectorField(self.grid, self.n * fv - grad_div, variance="covariant")

    def self_adjointness_defect(self, trials: int = 8, seed: int = 0) -> float:
        """max |<w,Lv> - <Lw,v>| over random interior fields, scaled by ||L||."""
        rng = np.random.default_rng(seed)
        dim = self.matrix.shape[0]
        norm = spla.norm(self.matrix, np.inf)
        worst = 0.0
        for _ in range(trials):
            v = rng.normal(size=dim)
            w = rng.normal(size=dim)
            worst = max(worst, abs(w @ (self.matrix @ v) - (self.matrix @ w) @ v))
        return worst / max(norm, 1e-300)

    def quadratic_form(self, flat_interior: np.ndarray) -> float:
        return float(flat_interior @ (self.matrix @ flat_interior))


@dataclass(frozen=True, eq=False)
class LeastFavorableField(VectorField):
    """Solution of Lv = u, with how its system was solved."""

    solve: SolveInfo | None = None


def _interior_dofs(values: np.ndarray, interior: np.ndarray) -> np.ndarray:
    """Interior values of a full-grid vector field, component blocks concatenated."""
    return values.reshape(-1, values.shape[-1])[interior].T.ravel()


def _full_grid(grid: ParameterGrid, interior: np.ndarray, dofs: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_interior_dofs`, zero on the boundary."""
    out = np.zeros((grid.num_nodes, grid.dim))
    out[interior] = dofs.reshape(grid.dim, -1).T
    return out.reshape(grid.shape + (grid.dim,))


def _assemble_system(
    model: StatisticalModel,
    prior: ScalarField,
    n: float,
    rho_floor: float,
    gamma_inv: np.ndarray,
) -> tuple[sp.csr_matrix, np.ndarray, np.ndarray]:
    """The q x q block field-equation matrix on interior unknowns.

    Block (j, k) is  n g^{jk} W F + D^T (g^{jk} W) D  with W the node
    quadrature weights, F the information blocks and D the divergence
    matrix restricted to interior columns; ``gamma_inv`` holds g per node,
    shape ``(num_nodes, q, q)``.  q = 1 with g = 1 is the operator L.
    Returns the matrix, the node weights (flat, full grid) and the flat
    interior node indices.
    """
    grid = model.grid
    if n < 0:
        raise GridValueError(f"n must be nonnegative, got {n}")
    p = grid.dim
    num = grid.num_nodes

    w = (grid.trapezoid_weights * metric_sqrt_det(model.metric, grid) * prior.values).ravel()
    interior = np.flatnonzero(~grid.boundary_mask.ravel())
    div = divergence_matrix(grid, prior, model.metric, rho_floor)  # (num, num*p)
    div_int = sp.csr_matrix(div[:, np.concatenate([interior + a * num for a in range(p)])])

    f_int = model.fisher.values.reshape(num, p, p)[interior]

    q = gamma_inv.shape[-1]
    blocks = []
    for j in range(q):
        row = []
        for k in range(q):
            wg = w * gamma_inv[:, j, k]
            # the information term couples components a, b of each node
            info_term = sp.bmat([[sp.diags(wg[interior] * f_int[:, a, b]) for b in range(p)]
                                 for a in range(p)])
            prior_term = div_int.T @ sp.diags(wg) @ div_int
            row.append((n * info_term + prior_term).tocsr())
        blocks.append(row)
    return sp.bmat(blocks, format="csr"), w, interior


def assemble_L(
    model: StatisticalModel,
    prior: ScalarField,
    n: float,
    rho_floor: float = DEFAULT_RHO_FLOOR,
) -> OperatorL:
    """Build the discrete operator n*F + (prior-curvature term)."""
    grid = model.grid
    grid.require_same(prior.grid, "assemble_L prior")
    matrix, w, interior = _assemble_system(
        model, prior, n, rho_floor, np.ones((grid.num_nodes, 1, 1)))
    weight = np.tile(w[interior], grid.dim)
    return OperatorL(grid, float(n), prior, model, matrix, weight, interior, rho_floor, w)


def _pcg(matrix: sp.csr_matrix, rhs: np.ndarray) -> tuple[np.ndarray, int, int]:
    """Jacobi-preconditioned CG capped at CG_MAXITER: solution, flag, iterations."""
    diag = matrix.diagonal()
    diag[diag <= 0] = 1.0
    count = [0]

    def tick(_):
        count[0] += 1

    # CG tracks a recursive residual; stopping at half the target keeps its
    # drift from the true residual from failing the SOLVE_RTOL check
    sol, flag = spla.cg(matrix, rhs, rtol=SOLVE_RTOL / 2, maxiter=CG_MAXITER,
                        M=sp.diags(1.0 / diag), callback=tick)
    return sol, int(flag), count[0]


def _solve_system(matrix: sp.csr_matrix, rhs: np.ndarray, p: int) -> tuple[np.ndarray, SolveInfo]:
    """Direct sparse solve on 1-D grids, Jacobi-PCG on higher-dimensional ones.

    A 1-D system is banded and factors without fill, while 2-D and 3-D
    factorizations fill in and PCG converges in a few hundred iterations.
    PCG is accepted only with flag 0 and a true relative residual within
    SOLVE_RTOL; otherwise the direct solve runs, the reason is recorded as
    ``fallback`` and a RuntimeWarning is issued.  Raises
    :class:`OperatorRangeError` when the residual shows ``rhs`` lies outside
    the numerical range of the operator (no least-favorable field exists).
    """
    size = {"unknowns": int(matrix.shape[0]), "nnz": int(matrix.nnz)}
    if not np.any(rhs):
        return np.zeros_like(rhs), SolveInfo("direct" if p == 1 else "pcg", 0, 0.0, **size)
    rhs_norm = max(np.linalg.norm(rhs), 1e-300)
    iterations, fallback = 0, None
    if p > 1:
        sol, flag, iterations = _pcg(matrix, rhs)
        resid = float(np.linalg.norm(matrix @ sol - rhs) / rhs_norm)
        if flag == 0 and resid <= SOLVE_RTOL:
            return sol, SolveInfo("pcg", iterations, resid, **size)
        fallback = (f"pcg flag {flag} after {iterations} iterations, "
                    f"relative residual {resid:.3e} (target {SOLVE_RTOL:.0e})")
        warnings.warn(f"{fallback}; falling back to the direct solve", RuntimeWarning,
                      stacklevel=3)
    sol = spla.spsolve(sp.csc_matrix(matrix), rhs)
    resid = float(np.linalg.norm(matrix @ sol - rhs) / rhs_norm)
    if not np.all(np.isfinite(sol)) or resid > RANGE_RTOL:
        raise OperatorRangeError(
            "weight is outside the numerical range of the operator "
            f"(relative residual {resid:.3e}); "
            "no least-favorable field exists for this problem"
        )
    return sol, SolveInfo("direct", iterations, resid, fallback=fallback, **size)


def solve_least_favorable(op: OperatorL, u: VectorField) -> LeastFavorableField:
    """Solve Lv = u; the solution maximizes the bound over all fields.

    Raises :class:`OperatorRangeError` when the residual shows u lies outside
    the numerical range of the operator (no least-favorable field exists).
    """
    op.grid.require_same(u.grid, "solve_least_favorable")
    rhs = op.weight * _interior_dofs(u.values, op.interior)
    sol, info = _solve_system(op.matrix, rhs, op.grid.dim)
    return LeastFavorableField(op.grid, _full_grid(op.grid, op.interior, sol),
                               "contravariant", info)


def _functionals(model, interior, w, gamma_inv, matrix, rhs, sol, n) -> tuple[float, float, float]:
    """Alignment, information and prior functional of a block solution.

    The information is sum_jk <v_j, g^{jk} F v_k>; the prior functional is
    the rest of <v, Lv> once n times the information is taken out.
    """
    p = model.grid.dim
    f_int = model.fisher.values.reshape(-1, p, p)[interior]
    fields = [np.ascontiguousarray(block.reshape(p, -1).T)
              for block in np.split(sol, gamma_inv.shape[-1])]
    information = 0.0
    for j, vj in enumerate(fields):
        for k, vk in enumerate(fields):
            information += float(np.einsum(
                "n,na,nab,nb->", w[interior] * gamma_inv[interior, j, k], vj, f_int, vk))
    prior_information = max(float(sol @ (matrix @ sol)) - n * information, 0.0)
    return float(rhs @ sol), information, prior_information


def bmax(
    model: StatisticalModel,
    prior: ScalarField | None = None,
    n: float = 1.0,
    rho_floor: float = DEFAULT_RHO_FLOOR,
    v_choice: str = "least_favorable",
) -> BoundReport:
    """The optimal bound <u, L^{-1} u>_rho with the attaining field.

    The diagnostics carry the boundary residual, the grid and the
    :class:`SolveInfo` fields of the solve.
    """
    if prior is None:
        prior = model.prior
    if prior is None:
        raise GridValueError("bmax needs a prior density")
    op = assemble_L(model, prior, n, rho_floor)
    v = solve_least_favorable(op, model.weight)
    rhs = op.weight * _interior_dofs(model.weight.values, op.interior)
    align, info_val, prior_val = _functionals(
        model, op.interior, op.node_weights, np.ones((model.grid.num_nodes, 1, 1)),
        op.matrix, rhs, _interior_dofs(v.values, op.interior), op.n)
    _check_boundary(prior, v)
    diagnostics = {"boundary_residual": boundary_residual(prior, v),
                   "grid": model.grid.describe(), **asdict(v.solve)}
    return BoundReport.assemble(align, info_val, prior_val, n, v_choice, diagnostics,
                                attaining_v=v, allow_zero=True)


def gaussian_closed_form(fisher, prior_curvature, weight, n: float) -> float:
    """Closed form u^T (nF + G)^{-1} u for constant F, u and Gaussian prior.

    ``prior_curvature`` is the inverse covariance of the Gaussian prior.
    Serves as the oracle for `bmax` on Gaussian scenarios; requires nF + G
    positive definite.
    """
    f = np.atleast_2d(np.asarray(fisher, dtype=float))
    g = np.atleast_2d(np.asarray(prior_curvature, dtype=float))
    u = np.atleast_1d(np.asarray(weight, dtype=float))
    mat = n * f + g
    try:
        chol = np.linalg.cholesky(mat)
    except np.linalg.LinAlgError as exc:
        raise GridValueError(f"nF + G is not positive definite: {exc}") from exc
    half = np.linalg.solve(chol, u)
    return float(half @ half)


def vectoral_bmax(
    model: StatisticalModel,
    prior: ScalarField,
    weights: VectoralWeight,
    n: float,
    rho_floor: float = DEFAULT_RHO_FLOOR,
) -> BoundReport:
    """Optimal bound for a vector parameter of interest (block sparse solve).

    The block operator couples the q component fields through the inverse of
    the weight matrix:
    (Lv)^j_a = n g^{jk} F_ab v_k^b - d_a[(g^{jk}/rho) div(rho v_k)].
    """
    grid = model.grid
    grid.require_same(prior.grid, "vectoral_bmax prior")
    grid.require_same(weights.grid, "vectoral_bmax weights")
    p = grid.dim
    q = weights.q
    gamma_inv = weights.gamma_inverse().reshape(grid.num_nodes, q, q)
    matrix, w, interior = _assemble_system(model, prior, n, rho_floor, gamma_inv)
    weight = np.tile(w[interior], p)
    rhs = np.concatenate([weight * _interior_dofs(u.values, interior) for u in weights.weights])
    sol, info = _solve_system(matrix, rhs, p)
    align, info_val, prior_val = _functionals(
        model, interior, w, gamma_inv, matrix, rhs, sol, n)
    return BoundReport.assemble(
        align, info_val, prior_val, n, f"vectoral_least_favorable(q={q})",
        {"grid": grid.describe(), **asdict(info)}, allow_zero=True)
