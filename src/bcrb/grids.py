"""Uniform rectangular grids, fields on them, quadrature, and the
metric-weighted differential operators the bound machinery is built on.

Conventions
-----------
A grid discretizes a p-dimensional box with at least three nodes per axis.
Scalar fields store one value per node, vector fields store p components per
node (tagged covariant or contravariant), matrix fields store a symmetric
p x p matrix per node.  All integrals are trapezoidal quadratures of
``value * sqrt(det g)`` over the box; all derivatives are second-order
central differences with second-order one-sided stencils on the boundary.
"""

from __future__ import annotations

import csv
import dataclasses
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import GridMismatchError, GridValueError

# Relative floor under which a prior density value is treated as numerically
# zero for the quotient (1/rho) d(rho v).  Such nodes contribute zero to the
# divergence; an interior below-floor node whose neighborhood is not itself
# vanishing (a hole or cliff rather than a smooth decay) is a hard error.
DEFAULT_RHO_FLOOR = 1e-15

# an interior below-floor node is a "hole" when some axis neighbor exceeds it
# by this factor; smooth polynomial or exponential decay stays far below it
HOLE_NEIGHBOR_RATIO = 1e6

# max boundary |rho v| may not exceed this fraction of the overall max
BOUNDARY_RESIDUAL_TOL = 1e-8


def trapezoid_weights_1d(n: int, dx: float) -> np.ndarray:
    """Trapezoidal quadrature weights of ``n`` uniform nodes ``dx`` apart."""
    w = np.full(n, dx)
    w[0] = w[-1] = dx / 2.0
    return w


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class ParameterGrid:
    """Uniform rectangular discretization of a parameter box.

    Parameters
    ----------
    bounds : sequence of (lower, upper) pairs, one per axis
    shape : node count per axis, each >= 3
    """

    bounds: tuple[tuple[float, float], ...]
    shape: tuple[int, ...]

    def __init__(self, bounds: Sequence[Sequence[float]], shape: Sequence[int]):
        bounds = tuple((float(lo), float(hi)) for lo, hi in bounds)
        shape = tuple(int(n) for n in shape)
        if len(bounds) != len(shape) or not bounds:
            raise GridValueError(
                f"bounds and shape must be nonempty and equal length, "
                f"got {len(bounds)} and {len(shape)}"
            )
        for axis, ((lo, hi), n) in enumerate(zip(bounds, shape)):
            if not hi > lo:
                raise GridValueError(f"axis bounds must increase, got ({lo}, {hi})")
            if not np.isfinite(hi - lo):  # an infinite bound gives an infinite width too
                raise GridValueError(f"axis {axis} bounds ({lo}, {hi}) must be finite and "
                                     "their width a finite double")
            if n < 3:
                raise GridValueError(f"need >= 3 nodes per axis for central differences, got {n}")
        object.__setattr__(self, "bounds", bounds)
        object.__setattr__(self, "shape", shape)

    @property
    def dim(self) -> int:
        return len(self.shape)

    @property
    def num_nodes(self) -> int:
        return int(np.prod(self.shape))

    @cached_property
    def spacing(self) -> tuple[float, ...]:
        return tuple((hi - lo) / (n - 1) for (lo, hi), n in zip(self.bounds, self.shape))

    @cached_property
    def axes(self) -> tuple[np.ndarray, ...]:
        axes = tuple(np.linspace(lo, hi, n) for (lo, hi), n in zip(self.bounds, self.shape))
        for ax in axes:
            ax.setflags(write=False)
        return axes

    @cached_property
    def coordinates(self) -> np.ndarray:
        """Node coordinates, shape ``(*shape, p)``."""
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return _readonly(np.stack(mesh, axis=-1))

    @cached_property
    def boundary_mask(self) -> np.ndarray:
        mask = np.zeros(self.shape, dtype=bool)
        for ax, n in enumerate(self.shape):
            idx = [slice(None)] * self.dim
            idx[ax] = 0
            mask[tuple(idx)] = True
            idx[ax] = n - 1
            mask[tuple(idx)] = True
        mask.setflags(write=False)
        return mask

    @cached_property
    def trapezoid_weights(self) -> np.ndarray:
        """Tensor-product trapezoidal quadrature weights, shape ``shape``."""
        w = None
        for ax, (n, dx) in enumerate(zip(self.shape, self.spacing)):
            shape = [1] * self.dim
            shape[ax] = n
            part = trapezoid_weights_1d(n, dx).reshape(shape)
            w = part if w is None else w * part
        w.setflags(write=False)
        return w

    def describe(self) -> dict:
        return {"bounds": [list(b) for b in self.bounds], "shape": list(self.shape)}

    def same_as(self, other: "ParameterGrid") -> bool:
        return self.bounds == other.bounds and self.shape == other.shape

    def require_same(self, other: "ParameterGrid", context: str = "") -> None:
        if not self.same_as(other):
            raise GridMismatchError(self.describe(), other.describe(), context)

    def __repr__(self) -> str:  # compact, used in error messages
        return f"ParameterGrid(bounds={self.bounds}, shape={self.shape})"


def _check_values(grid: ParameterGrid, values: np.ndarray, trailing: tuple[int, ...], kind: str):
    expected = grid.shape + trailing
    if values.shape != expected:
        raise GridValueError(f"{kind} values have shape {values.shape}, expected {expected}")
    if not np.all(np.isfinite(values)):
        raise GridValueError(f"{kind} values contain non-finite entries")


def _with_fn(field, fn: Callable | None):
    """Set a field's ``fn``: the batched callable its values were sampled from.
    Only ``from_callable`` and ``normalized`` set it, so ``replace`` drops it."""
    object.__setattr__(field, "fn", fn)
    return field


@dataclass(frozen=True, eq=False)
class ScalarField:
    grid: ParameterGrid
    values: np.ndarray
    fn: Callable | None = dataclasses.field(init=False, default=None)

    def __post_init__(self):
        vals = _readonly(self.values)
        _check_values(self.grid, vals, (), "scalar field")
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_callable(cls, grid: ParameterGrid, fn: Callable) -> "ScalarField":
        """Evaluate ``fn`` on node coordinates; ``fn`` maps ``(..., p) -> (...)``."""
        return _with_fn(cls(grid, np.asarray(fn(grid.coordinates), dtype=float)), fn)

    def normalized(self) -> "ScalarField":
        """This prior, and its callable, divided by its positive, finite mass."""
        with np.errstate(over="ignore"):  # an infinite mass raises below instead
            mass = integrate(self)
        if not 0.0 < mass < np.inf:  # false for NaN too
            raise GridValueError(f"prior integrates to {mass!r} on the grid; it needs "
                                 "positive, finite mass to be normalized")
        return self._divided(mass)

    def _divided(self, z: float) -> "ScalarField":
        """Values, and the callable when there is one, divided by ``z``."""
        fn = None if self.fn is None else lambda c, f=self.fn: np.asarray(f(c)) / z
        return _with_fn(ScalarField(self.grid, self.values / z), fn)


@dataclass(frozen=True, eq=False)
class VectorField:
    """Per-node p-vector; ``variance`` records the transformation law."""

    grid: ParameterGrid
    values: np.ndarray
    variance: str = "contravariant"
    fn: Callable | None = dataclasses.field(init=False, default=None)

    def __post_init__(self):
        if self.variance not in ("contravariant", "covariant"):
            raise GridValueError(f"unknown variance {self.variance!r}")
        vals = _readonly(self.values)
        _check_values(self.grid, vals, (self.grid.dim,), "vector field")
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_callable(cls, grid, fn, variance="contravariant") -> "VectorField":
        return _with_fn(cls(grid, np.asarray(fn(grid.coordinates), dtype=float), variance), fn)

    @classmethod
    def constant(cls, grid, components, variance="contravariant") -> "VectorField":
        comp = np.asarray(components, dtype=float).reshape(-1)
        vals = np.broadcast_to(comp, grid.shape + (grid.dim,))
        return cls(grid, np.array(vals), variance)


MATRIX_SYMMETRY_RTOL = 1e-12


def check_symmetric(vals: np.ndarray, kind: str) -> None:
    """Raise unless the trailing square axes of ``vals`` are symmetric to
    MATRIX_SYMMETRY_RTOL relative to max(max |entry|, 1)."""
    asym = np.max(np.abs(vals - np.swapaxes(vals, -1, -2)))
    if asym > MATRIX_SYMMETRY_RTOL * max(np.max(np.abs(vals)), 1.0):
        raise GridValueError(
            f"{kind} asymmetry {asym:.3e} exceeds {MATRIX_SYMMETRY_RTOL:.0e} relative")


@dataclass(frozen=True, eq=False)
class MatrixField:
    """Per-node symmetric p x p matrix (information, metric, ...)."""

    grid: ParameterGrid
    values: np.ndarray
    fn: Callable | None = dataclasses.field(init=False, default=None)

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        _check_values(self.grid, vals, (self.grid.dim,) * 2, "matrix field")
        check_symmetric(vals, "matrix field")
        vals = _readonly((vals + np.swapaxes(vals, -1, -2)) / 2.0)
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_callable(cls, grid, fn) -> "MatrixField":
        return _with_fn(cls(grid, np.asarray(fn(grid.coordinates), dtype=float)), fn)

    @classmethod
    def identity(cls, grid: ParameterGrid) -> "MatrixField":
        eye = np.eye(grid.dim)
        return cls(grid, np.broadcast_to(eye, grid.shape + eye.shape).copy())

    @classmethod
    def constant(cls, grid: ParameterGrid, matrix) -> "MatrixField":
        m = np.asarray(matrix, dtype=float)
        if m.ndim == 0:
            m = m.reshape(1, 1)
        return cls(grid, np.broadcast_to(m, grid.shape + m.shape).copy())

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Per-node eigenvalues, shape ``(*shape, p)``, ascending, read-only;
        computed once per field object."""
        ev = np.linalg.eigvalsh(self.values)
        ev.setflags(write=False)
        return ev

    @cached_property
    def volume_element(self) -> np.ndarray:
        """sqrt(det g) per node of this field read as a metric g, read-only.

        Checked and computed once per field object.  Raises, on every access,
        if the metric is not positive definite at some node.
        """
        ev = self.eigenvalues
        if np.any(ev <= 0):
            raise GridValueError("metric is not positive definite at node index "
                                 f"{_first_node(ev.min(axis=-1) <= 0)}")
        sqrtg = np.sqrt(np.linalg.det(self.values))
        sqrtg.setflags(write=False)
        return sqrtg


def _first_node(mask: np.ndarray) -> tuple[int, ...]:
    """Index of the first True entry of ``mask``, as plain ints for messages."""
    return tuple(int(i) for i in np.argwhere(mask)[0])


def metric_sqrt_det(metric: MatrixField | None, grid: ParameterGrid) -> np.ndarray:
    """sqrt(det g) per node; identity metric when ``metric`` is None.

    Raises if the metric is not positive definite at some node; the metric's
    own :attr:`MatrixField.volume_element` holds the value.
    """
    if metric is None:
        return np.ones(grid.shape)
    grid.require_same(metric.grid, "metric")
    return metric.volume_element


def rho_weights(rho: ScalarField, metric: MatrixField | None) -> np.ndarray:
    """Per-node weights of the quadrature ``int (.) rho eps``.

    ``trapezoid * sqrt(det g) * rho``: summing ``rho_weights * f`` gives the
    prior expectation of ``f``, the building block of <A>, <F> and <P>.
    """
    grid = rho.grid
    return grid.trapezoid_weights * metric_sqrt_det(metric, grid) * rho.values


def integrate(field: ScalarField, metric: MatrixField | None = None) -> float:
    """Trapezoidal quadrature of ``field * sqrt(det g)`` over the box."""
    grid = field.grid
    sqrtg = metric_sqrt_det(metric, grid)
    return float(np.sum(grid.trapezoid_weights * field.values * sqrtg))


def gradient(field: ScalarField) -> VectorField:
    """Covariant node-wise gradient (central interior, one-sided boundary)."""
    grid = field.grid
    comps = [
        np.gradient(field.values, grid.spacing[ax], axis=ax, edge_order=2)
        for ax in range(grid.dim)
    ]
    return VectorField(grid, np.stack(comps, axis=-1), variance="covariant")


def _quotient_divergence(grid: ParameterGrid, dens: np.ndarray, v_values: np.ndarray,
                         ok: np.ndarray | bool = True) -> np.ndarray:
    """The quotient ``(1/d) d_a(d v^a)`` per node of the density ``d``, with
    ``v_values`` per node or one p-vector for every node.

    Zero where ``ok`` is False: the nodes below the density floor of
    :func:`_tiny_density_mask`.
    """
    flux = dens[..., None] * v_values
    div = np.zeros(grid.shape)
    for ax in range(grid.dim):
        div += np.gradient(flux[..., ax], grid.spacing[ax], axis=ax, edge_order=2)
    out = np.zeros(grid.shape)
    np.divide(div, dens, out=out, where=ok)
    return out


def _tiny_density_mask(grid: ParameterGrid, rho_values: np.ndarray):
    """Nodes numerically outside the prior support, erroring on interior holes.

    A node is tiny when ``rho < DEFAULT_RHO_FLOOR * max(rho)``.  Tiny
    boundary nodes and tiny interior nodes inside a smoothly vanishing tail
    are fine (the quotient is zeroed there); a tiny interior node with a
    non-tiny axis neighbor is a hole in a region that should carry mass,
    which the quotient cannot represent, so it raises; so does a negative
    density.
    """
    if np.any(rho_values < 0):
        raise GridValueError("density has negative values")
    floor = DEFAULT_RHO_FLOOR * float(rho_values.max(initial=0.0))
    tiny = rho_values < floor if floor > 0 else rho_values <= 0
    if not np.any(tiny):
        return tiny
    neighbor_max = np.zeros_like(rho_values)
    for ax in range(grid.dim):
        lo = [slice(None)] * grid.dim
        hi = [slice(None)] * grid.dim
        lo[ax] = slice(None, -1)
        hi[ax] = slice(1, None)
        neighbor_max[tuple(lo)] = np.maximum(neighbor_max[tuple(lo)], rho_values[tuple(hi)])
        neighbor_max[tuple(hi)] = np.maximum(neighbor_max[tuple(hi)], rho_values[tuple(lo)])
    hole = tiny & (~grid.boundary_mask) & (
        neighbor_max > HOLE_NEIGHBOR_RATIO * np.maximum(rho_values, floor / HOLE_NEIGHBOR_RATIO**2)
    )
    if np.any(hole):
        node = _first_node(hole)
        raise GridValueError(
            f"density below floor {floor:.3e} at {int(hole.sum())} interior node(s) "
            f"with non-vanishing neighborhoods; first offender index "
            f"{node} at coordinates {grid.coordinates[node]}"
        )
    return tiny


def _density(grid: ParameterGrid, rho: ScalarField,
             metric: MatrixField | None) -> tuple[np.ndarray, np.ndarray]:
    """The density ``d = sqrt(det g) rho`` per node and the mask of nodes at
    or above the floor of :func:`_tiny_density_mask`, the nodes where the
    quotient ``(1/d) d_a(d v^a)`` is taken."""
    return metric_sqrt_det(metric, grid) * rho.values, ~_tiny_density_mask(grid, rho.values)


def boundary_residual(rho: ScalarField, v: VectorField) -> float:
    """max boundary |rho v| over max overall |rho v| (0 when both vanish)."""
    rv = np.abs(rho.values[..., None] * v.values)
    rv_max = float(rv.max(initial=0.0))
    if rv_max == 0:
        return 0.0
    return float(rv[rho.grid.boundary_mask].max(initial=0.0)) / rv_max


# ---------------------------------------------------------------------------
# sparse operator building blocks (the reference the field-equation assembly is tested against)

def diff_matrix(grid: ParameterGrid, axis: int) -> sp.csr_matrix:
    """Sparse matrix applying d/dtheta^axis to a flattened scalar field.

    Matches the stencils of :func:`gradient` exactly: central differences at
    interior nodes, second-order one-sided stencils at the boundary.
    """
    n = grid.shape[axis]
    dx = grid.spacing[axis]
    inner = np.arange(1, n - 1)
    rows = np.concatenate([inner, inner, [0, 0, 0, n - 1, n - 1, n - 1]])
    cols = np.concatenate([inner - 1, inner + 1, [0, 1, 2, n - 1, n - 2, n - 3]])
    vals = np.concatenate([
        np.full(n - 2, -0.5 / dx), np.full(n - 2, 0.5 / dx),
        [-1.5 / dx, 2.0 / dx, -0.5 / dx, 1.5 / dx, -2.0 / dx, 0.5 / dx],
    ])
    mats = [sp.identity(m, format="csr") for m in grid.shape]
    mats[axis] = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    out = mats[0]
    for m in mats[1:]:
        out = sp.kron(out, m, format="csr")
    return out


def divergence_matrix(
    grid: ParameterGrid,
    rho: ScalarField,
    metric: MatrixField | None = None,
) -> sp.csr_matrix:
    """Sparse operator: flattened contravariant field -> ``(1/rho) div(rho v)``.

    Shape ``(num_nodes, num_nodes * p)`` with component blocks concatenated;
    same floor semantics as :func:`_tiny_density_mask`.
    """
    dens, ok = (a.ravel() for a in _density(grid, rho, metric))
    inv = np.zeros_like(dens)
    inv[ok] = 1.0 / dens[ok]
    blocks = [
        sp.diags(inv) @ diff_matrix(grid, ax) @ sp.diags(dens) for ax in range(grid.dim)
    ]
    return sp.hstack(blocks, format="csr")


# ---------------------------------------------------------------------------
# CSV input

def read_csv(path) -> tuple[list[str], np.ndarray]:
    """A header row of column names (stripped) and numeric data rows.

    Raises :class:`GridValueError`, naming the path and line, when the file
    has no header or no data rows, a row's length differs from the header's,
    or a cell is not a number.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader, [])]
        if not header:
            raise GridValueError(f"{path}: line 1: missing header row")
        rows = []
        for row in reader:
            where = f"{path}: line {reader.line_num}"
            if len(row) != len(header):
                raise GridValueError(
                    f"{where}: {len(row)} cells, the header has {len(header)}")
            try:
                rows.append([float(x) for x in row])
            except ValueError as exc:
                raise GridValueError(f"{where}: non-numeric cell ({exc})") from exc
    if not rows:
        raise GridValueError(f"{path}: no data rows after the header")
    return header, np.array(rows)

