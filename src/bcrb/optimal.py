"""The exact optimal bound in the Gill-Levit family.

The bound B = <A>^2 / (n<F> + <P>) is a Rayleigh quotient in the free field
v, maximized by solving the second-order field equation

    n F_ab v^b - d_a[ (1/rho) div(rho v) ] = u_a,      v = 0 on the boundary,

after which  B_max = B(v*) = <u, v*>_rho  at the least-favorable solution v*,
with the rho-weighted inner product <v, u>_rho = int (v.u) rho eps.
Discretely the equation becomes a symmetric positive-semidefinite sparse
system: the prior term D^T W D, built from the stencil diagonals of the
divergence D, is exactly self-adjoint in the discrete inner product, so the
variational structure, and B <= B_max for every admissible v, hold on the grid.

`bmax` is the q = 1 case of the q coupled fields of `vectoral_bmax`: both
take the one path `_operator`, `_solve_fields`, `bounds._bound_report`, and
so report B_max as the Gill-Levit bound of v*, with <P> the direct sum of
w [(1/rho) div(rho v*)]^2, not <v*, L v*> - n<F>, which would cancel digits
once n<F> dwarfs <P>.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import LinAlgError, solveh_banded

from .bounds import BoundReport, VectoralWeight, _bound_report, _check_n
from .errors import GridValueError, OperatorRangeError
from .geometry import StatisticalModel
from .grids import (
    ParameterGrid,
    ScalarField,
    VectorField,
    _density,
    check_symmetric,
    rho_weights,
)

SOLVE_RTOL = 1e-8          # target relative residual of the sparse solve
RANGE_RTOL = 1e-6          # above this residual the RHS is declared out of range
CG_MAXITER = 5000          # PCG cap, over 5x the worst count measured on 2-D 321^2 grids (919)
ASSEMBLY_BLOCK = 8192      # grid nodes per row block of the field-equation assembly


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
    ``w @ weight @ v`` is <w, v>_rho.  With q coupled fields the matrix holds
    q such blocks and ``weight`` is that of one.
    """

    grid: ParameterGrid
    matrix: sp.csr_matrix
    weight: np.ndarray
    interior: np.ndarray  # flat indices of interior nodes


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
    gamma_inv: np.ndarray,
) -> tuple[sp.csr_matrix, np.ndarray, np.ndarray]:
    """The q x q block field-equation matrix on interior unknowns.

    Block (j, k) is  n g^{jk} W F + D^T (g^{jk} W) D  with W the node weights,
    F the information blocks and D = (1/d) Delta d the divergence on interior
    columns (d = rho sqrt(det g), Delta the stencil of `grids.gradient`);
    ``gamma_inv`` holds g per node, shape ``(num_nodes, q, q)``; q = 1, g = 1
    is L.  With c = w g^{jk} / d^2 (0 below the density floor), axes a, b
    couple m to m' = m + r2 e_b - r1 e_a by  sum_i c_i Delta_a(i, r1)
    Delta_b(i, r2) d_m d_m'  over stencil rows i = m - r1 e_a, filled into the
    CSR rows in blocks of ASSEMBLY_BLOCK nodes: columns sorted, zeros left out
    and each lower entry the product of its upper mirror, so exactly
    symmetric.  Returns it, the node weights and the interior node indices.
    """
    grid = model.grid
    _check_n(n)
    p, num, shape, q = grid.dim, grid.num_nodes, grid.shape, gamma_inv.shape[-1]
    w = rho_weights(prior, model.metric).ravel()
    d, ok = (a.ravel() for a in _density(grid, prior, model.metric))
    c = np.divide(w, d * d, out=np.zeros(num), where=ok)
    interior = np.flatnonzero(inner := ~grid.boundary_mask.ravel())
    size, step = q * p * interior.size, [int(np.prod(shape[a + 1:])) for a in range(p)]
    pad = 2 * step[0]  # the widest shift: two nodes along axis 0
    # padded, and zero on the boundary, so every entry of an eliminated node vanishes
    col_of, d_in = np.zeros(num + 2 * pad, np.int32), np.zeros(num + 2 * pad)
    col_of[pad + interior], d_in[pad + interior] = np.arange(interior.size), d[interior]
    w_in, data, indices, ends, nnz = np.where(inner, w, 0.0), [], [], [[0]], 0
    starts = [*range(interior[0], interior[-1] + 1, ASSEMBLY_BLOCK), interior[-1] + 1]
    for j, a in np.ndindex(q, p):
        s, h2 = step[a], (0.5 / grid.spacing[a]) ** 2
        cands = []  # (first column, offset, [(c part, i - m, factor)], information term)
        for k in range(q):
            g = gamma_inv[:, min(j, k), max(j, k)]  # lower blocks mirror the upper ones
            cg = (c * g).reshape(shape)
            edge, mid, last, whole = parts = np.zeros((4, num + 2 * pad))
            for part, sl in zip(parts, ([0], slice(1, -1), [-1], slice(None))):
                cut = (slice(None),) * a + (sl,)
                part[pad:pad + num].reshape(shape)[cut] = cg[cut]
            for b in range(p):
                if b == a:  # one-sided rows: 4h, -h on the first node, -4h, h on the last
                    offsets = {-2 * s: [(mid, -s, -h2)], 2 * s: [(mid, s, -h2)],
                               -s: [(edge, -2 * s, -4 * h2), (last, s, -4 * h2)],
                               s: [(edge, -s, -4 * h2), (last, 2 * s, -4 * h2)],
                               0: [(mid, -s, h2), (mid, s, h2), (edge, -s, 16 * h2),
                                   (edge, -2 * s, h2), (last, s, 16 * h2), (last, 2 * s, h2)]}
                else:  # valid entries only come from rows interior along a and b
                    hab = (0.5 / grid.spacing[a]) * (0.5 / grid.spacing[b])
                    offsets = {0: []} | {r2 * step[b] - r1 * s: [(whole, -r1 * s, r1 * r2 * hab)]
                                         for r1 in (-1, 1) for r2 in (-1, 1)}
                info = n * ((w_in * g) * model.fisher.values.reshape(num, p, p)[:, a, b])
                cands += [((k * p + b) * interior.size, off, offsets[off], None if off else info)
                          for off in sorted(offsets)]
        vals = np.empty((ASSEMBLY_BLOCK, len(cands)))  # a row per node, compacted in place
        cols = np.empty(vals.shape, np.int32)
        for lo, hi in zip(starts, starts[1:]):
            block_vals, block_cols = vals[:hi - lo], cols[:hi - lo]
            for val, col, (first, off, terms, info) in zip(block_vals.T, block_cols.T, cands):
                np.multiply(d_in[pad + lo:pad + hi], d_in[pad + lo + off:pad + hi + off], out=val)
                val *= sum(f * arr[pad + lo + i:pad + hi + i] for arr, i, f in terms)
                if info is not None:
                    val += info[lo:hi]
                np.add(col_of[pad + lo + off:pad + hi + off], first, out=col)
            block = sp.csr_matrix((block_vals.ravel(), block_cols.ravel(), np.arange(
                0, block_vals.size + 1, len(cands), dtype=np.int32)), shape=(hi - lo, size))
            block.eliminate_zeros()
            ends.append(nnz + block.indptr[1:][inner[lo:hi]])
            data.append(block.data.copy())
            indices.append(block.indices.copy())
            nnz += block.nnz
    data = np.concatenate(data)  # each chunk list is freed once joined
    indices = np.concatenate(indices)
    return sp.csr_matrix((data, indices, np.concatenate(ends)), shape=(size, size)), w, interior


def _operator(model, prior, n, gamma_inv) -> OperatorL:
    """The operator of q fields coupled by ``gamma_inv``, shape ``(num_nodes, q, q)``."""
    matrix, w, interior = _assemble_system(model, prior, n, gamma_inv)
    return OperatorL(model.grid, matrix, np.tile(w[interior], model.grid.dim), interior)


def assemble_L(model: StatisticalModel, prior: ScalarField, n: float) -> OperatorL:
    """Build the discrete operator n*F + (prior-curvature term)."""
    model.grid.require_same(prior.grid, "assemble_L prior")
    return _operator(model, prior, n, np.ones((model.grid.num_nodes, 1, 1)))


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


def _banded_cholesky(matrix: sp.csr_matrix, rhs: np.ndarray) -> np.ndarray:
    """Solve a 1-D system by LAPACK banded Cholesky (``pbsv``).

    On a 1-D grid the system holds one field (q <= p = 1) and is
    pentadiagonal, so only its main and two upper diagonals are read.
    Raises ``LinAlgError`` when a leading minor is not positive definite.
    """
    band = np.zeros((3, matrix.shape[0]))
    for k in range(3):
        band[2 - k, k:] = matrix.diagonal(k)
    return solveh_banded(band, rhs, overwrite_ab=True, check_finite=False)


def _solve_system(matrix: sp.csr_matrix, rhs: np.ndarray, p: int) -> tuple[np.ndarray, SolveInfo]:
    """Banded Cholesky on 1-D grids, Jacobi-PCG on higher-dimensional ones.

    A 1-D system is banded and factors without fill, while 2-D and 3-D
    factorizations fill in and PCG converges in a few hundred iterations.
    PCG is accepted only with flag 0 and a true relative residual within
    SOLVE_RTOL, the banded Cholesky only if every leading minor is positive
    definite; otherwise the direct sparse solve (SuperLU) runs, the reason
    is recorded as ``fallback`` and a RuntimeWarning is issued.  Raises
    :class:`OperatorRangeError` when the residual shows ``rhs`` lies outside
    the numerical range of the operator (no least-favorable field exists).
    """
    size = {"unknowns": int(matrix.shape[0]), "nnz": int(matrix.nnz)}
    if not np.any(rhs):
        return np.zeros_like(rhs), SolveInfo(
            "banded_cholesky" if p == 1 else "pcg", 0, 0.0, **size)
    rhs_norm = max(np.linalg.norm(rhs), 1e-300)
    solver, iterations = "direct", 0
    if p == 1:
        try:
            sol, solver, fallback = _banded_cholesky(matrix, rhs), "banded_cholesky", None
        except LinAlgError as exc:
            fallback = f"banded Cholesky failed: {exc}"
    else:
        sol, flag, iterations = _pcg(matrix, rhs)
        resid = float(np.linalg.norm(matrix @ sol - rhs) / rhs_norm)
        if flag == 0 and resid <= SOLVE_RTOL:
            return sol, SolveInfo("pcg", iterations, resid, **size)
        fallback = (f"pcg flag {flag} after {iterations} iterations, "
                    f"relative residual {resid:.3e} (target {SOLVE_RTOL:.0e})")
    if fallback is not None:
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
    return sol, SolveInfo(solver, iterations, resid, fallback=fallback, **size)


def _solve_fields(op: OperatorL, weights) -> tuple[list[np.ndarray], SolveInfo]:
    """The q full-grid fields that solve ``op`` for the q weights, and how."""
    rhs = np.empty((len(weights), op.weight.size))  # one block per weight
    for block, u in zip(rhs, weights):
        np.multiply(op.weight, _interior_dofs(u.values, op.interior), out=block)
    sol, info = _solve_system(op.matrix, rhs.ravel(), op.grid.dim)
    return [_full_grid(op.grid, op.interior, block) for block in sol.reshape(rhs.shape)], info


def solve_least_favorable(op: OperatorL, u: VectorField) -> LeastFavorableField:
    """Solve Lv = u; the solution maximizes the bound over all fields.

    Raises :class:`OperatorRangeError` when the residual shows u lies outside
    the numerical range of the operator (no least-favorable field exists).
    """
    op.grid.require_same(u.grid, "solve_least_favorable")
    (values,), info = _solve_fields(op, (u,))
    return LeastFavorableField(op.grid, values, "contravariant", info)


def bmax(
    model: StatisticalModel,
    prior: ScalarField | None = None,
    n: float = 1.0,
    v_choice: str = "least_favorable",
) -> BoundReport:
    """The optimal bound <u, L^{-1} u>_rho with the attaining field."""
    prior = model.prior if prior is None else prior
    if prior is None:
        raise GridValueError("bmax needs a prior density")
    v = solve_least_favorable(assemble_L(model, prior, n), model.weight)
    return _bound_report(model, prior, (model.weight,), (v,), np.ones((1, 1)), n, v_choice,
                         solve=v.solve, attaining_v=v, allow_zero=True)


def gaussian_closed_form(fisher, prior_curvature, weight, n: float) -> float:
    """Closed form u^T (nF + G)^{-1} u for constant F, u and Gaussian prior.

    ``prior_curvature`` is the inverse covariance of the Gaussian prior.
    Serves as the oracle for `bmax` on Gaussian scenarios; requires F and G
    symmetric, of the size of u, and nF + G positive definite.
    """
    _check_n(n)
    f = np.atleast_2d(np.asarray(fisher, dtype=float))
    g = np.atleast_2d(np.asarray(prior_curvature, dtype=float))
    u = np.atleast_1d(np.asarray(weight, dtype=float))
    for name, m in (("fisher", f), ("prior_curvature", g), ("weight", u)):
        if not np.all(np.isfinite(m)):
            raise GridValueError(f"{name} has non-finite entries")
    for name, m in (("fisher", f), ("prior_curvature", g)):
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise GridValueError(f"{name} has shape {m.shape}; it must be a square matrix")
        if u.shape != m.shape[:1]:
            raise GridValueError(f"{name} is {m.shape[0]}x{m.shape[0]} but weight has "
                                 f"shape {u.shape}")
        check_symmetric(m, name)
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
) -> BoundReport:
    """Optimal bound for a vector parameter of interest (block sparse solve).

    The block operator couples the q component fields through the inverse of
    the weight matrix:
    (Lv)^j_a = n g^{jk} F_ab v_k^b - d_a[(g^{jk}/rho) div(rho v_k)].
    """
    grid = model.grid
    grid.require_same(prior.grid, "vectoral_bmax prior")
    grid.require_same(weights.grid, "vectoral_bmax weights")
    q = weights.q
    gamma_inv = weights.gamma_inverse()
    op = _operator(model, prior, n, gamma_inv.reshape(grid.num_nodes, q, q))
    values, info = _solve_fields(op, weights.weights)
    return _bound_report(model, prior, weights.weights,
                         tuple(VectorField(grid, v) for v in values), gamma_inv, n,
                         f"vectoral_least_favorable(q={q})", solve=info, allow_zero=True)
