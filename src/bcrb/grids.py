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
import warnings
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
        for (lo, hi), n in zip(bounds, shape):
            if not hi > lo:
                raise GridValueError(f"axis bounds must increase, got ({lo}, {hi})")
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
        return tuple(
            _readonly(np.linspace(lo, hi, n)) for (lo, hi), n in zip(self.bounds, self.shape)
        )

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
        w = np.ones(self.shape)
        for ax, (n, dx) in enumerate(zip(self.shape, self.spacing)):
            w1 = np.full(n, dx)
            w1[0] = w1[-1] = dx / 2.0
            shape = [1] * self.dim
            shape[ax] = n
            w = w * w1.reshape(shape)
        w.setflags(write=False)
        return w

    def refined(self, factor: int) -> "ParameterGrid":
        """Grid with the same box and ``(n - 1) * factor + 1`` nodes per axis."""
        if factor < 1:
            raise GridValueError(f"refinement factor must be >= 1, got {factor}")
        return ParameterGrid(self.bounds, tuple((n - 1) * factor + 1 for n in self.shape))

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


@dataclass(frozen=True, eq=False)
class ScalarField:
    grid: ParameterGrid
    values: np.ndarray

    def __post_init__(self):
        vals = _readonly(self.values)
        _check_values(self.grid, vals, (), "scalar field")
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_callable(cls, grid: ParameterGrid, fn: Callable) -> "ScalarField":
        """Evaluate ``fn`` on node coordinates; ``fn`` maps ``(..., p) -> (...)``."""
        return cls(grid, np.asarray(fn(grid.coordinates), dtype=float))

    def normalized(self, metric: "MatrixField | None" = None) -> "ScalarField":
        """Rescale so the metric-weighted integral over the box equals one."""
        total = integrate(self, metric)
        if total <= 0:
            raise GridValueError("cannot normalize a field with non-positive integral")
        return ScalarField(self.grid, self.values / total)


@dataclass(frozen=True, eq=False)
class VectorField:
    """Per-node p-vector; ``variance`` records the transformation law."""

    grid: ParameterGrid
    values: np.ndarray
    variance: str = "contravariant"

    def __post_init__(self):
        if self.variance not in ("contravariant", "covariant"):
            raise GridValueError(f"unknown variance {self.variance!r}")
        vals = _readonly(self.values)
        _check_values(self.grid, vals, (self.grid.dim,), "vector field")
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_callable(cls, grid, fn, variance="contravariant") -> "VectorField":
        vals = np.asarray(fn(grid.coordinates), dtype=float)
        return cls(grid, vals, variance)

    @classmethod
    def constant(cls, grid, components, variance="contravariant") -> "VectorField":
        comp = np.asarray(components, dtype=float).reshape(-1)
        vals = np.broadcast_to(comp, grid.shape + (grid.dim,))
        return cls(grid, np.array(vals), variance)


MATRIX_SYMMETRY_RTOL = 1e-12


@dataclass(frozen=True, eq=False)
class MatrixField:
    """Per-node symmetric p x p matrix (information, metric, ...)."""

    grid: ParameterGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        _check_values(self.grid, vals, (self.grid.dim,) * 2, "matrix field")
        asym = np.max(np.abs(vals - np.swapaxes(vals, -1, -2)))
        scale = max(np.max(np.abs(vals)), 1.0)
        if asym > MATRIX_SYMMETRY_RTOL * scale:
            raise GridValueError(
                f"matrix field asymmetry {asym:.3e} exceeds {MATRIX_SYMMETRY_RTOL:.0e} relative"
            )
        vals = _readonly((vals + np.swapaxes(vals, -1, -2)) / 2.0)
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_callable(cls, grid, fn) -> "MatrixField":
        return cls(grid, np.asarray(fn(grid.coordinates), dtype=float))

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

    def eigenvalues(self) -> np.ndarray:
        """Per-node eigenvalues, shape ``(*shape, p)``, ascending."""
        return np.linalg.eigvalsh(self.values)

    def min_eigenvalue(self) -> float:
        return float(self.eigenvalues().min())


def metric_sqrt_det(metric: MatrixField | None, grid: ParameterGrid) -> np.ndarray:
    """sqrt(det g) per node; identity metric when ``metric`` is None.

    Raises if the metric is not positive definite at some node.
    """
    if metric is None:
        return np.ones(grid.shape)
    grid.require_same(metric.grid, "metric")
    det = np.linalg.det(metric.values)
    if np.any(det <= 0):
        bad = np.argwhere(det <= 0)[0]
        raise GridValueError(f"metric is not positive definite at node index {tuple(bad)}")
    ev = np.linalg.eigvalsh(metric.values)
    if np.any(ev <= 0):
        bad = np.argwhere(ev.min(axis=-1) <= 0)[0]
        raise GridValueError(f"metric is not positive definite at node index {tuple(bad)}")
    return np.sqrt(det)


def integrate(field: ScalarField, metric: MatrixField | None = None) -> float:
    """Trapezoidal quadrature of ``field * sqrt(det g)`` over the box."""
    grid = field.grid
    if metric is not None:
        grid.require_same(metric.grid, "integrate")
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


def _divergence_of(grid: ParameterGrid, flux_components: np.ndarray) -> np.ndarray:
    out = np.zeros(grid.shape)
    for ax in range(grid.dim):
        out += np.gradient(flux_components[..., ax], grid.spacing[ax], axis=ax, edge_order=2)
    return out


def _tiny_density_mask(grid: ParameterGrid, rho_values: np.ndarray, rho_floor: float):
    """Nodes numerically outside the prior support, erroring on interior holes.

    A node is tiny when ``rho < rho_floor * max(rho)``.  Tiny boundary nodes
    and tiny interior nodes inside a smoothly vanishing tail are fine (the
    quotient is zeroed there); a tiny interior node with a non-tiny axis
    neighbor is a hole in a region that should carry mass, which the
    quotient cannot represent, so it raises.
    """
    floor = rho_floor * float(rho_values.max(initial=0.0))
    tiny = rho_values < floor if floor > 0 else rho_values <= 0
    if not np.any(tiny):
        return tiny, floor
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
        nodes = np.argwhere(hole)
        coords = grid.coordinates[tuple(nodes[0])]
        raise GridValueError(
            f"density below floor {floor:.3e} at {len(nodes)} interior node(s) "
            f"with non-vanishing neighborhoods; first offender index "
            f"{tuple(int(i) for i in nodes[0])} at coordinates {coords}"
        )
    return tiny, floor


def weighted_divergence(
    rho: ScalarField,
    v: VectorField,
    metric: MatrixField | None = None,
    rho_floor: float = DEFAULT_RHO_FLOOR,
) -> ScalarField:
    """The scalar ``(1/rho) div(rho v)`` with the metric volume factor.

    Computes ``(1 / (sqrt|g| rho)) d_a (sqrt|g| rho v^a)``.  Nodes where
    ``rho`` falls below ``rho_floor * max(rho)`` contribute zero; an interior
    below-floor node whose neighborhood carries mass raises (see
    ``_tiny_density_mask``).  Warns when ``rho * v`` fails to vanish on the
    boundary.
    """
    grid = rho.grid
    grid.require_same(v.grid, "weighted_divergence")
    if v.variance != "contravariant":
        raise GridValueError("weighted_divergence needs a contravariant field")
    if np.any(rho.values < 0):
        raise GridValueError("density has negative values")
    sqrtg = metric_sqrt_det(metric, grid)

    dens = sqrtg * rho.values
    tiny, _ = _tiny_density_mask(grid, rho.values, rho_floor)
    ok = ~tiny

    rv = np.abs(rho.values[..., None] * v.values)
    rv_max = float(rv.max(initial=0.0))
    if rv_max > 0:
        boundary_max = float(rv[grid.boundary_mask].max(initial=0.0))
        if boundary_max > BOUNDARY_RESIDUAL_TOL * rv_max:
            warnings.warn(
                f"rho*v does not vanish on the boundary "
                f"(boundary max {boundary_max:.3e} vs overall max {rv_max:.3e}); "
                "enlarge the domain or use a decaying prior",
                stacklevel=2,
            )

    flux = dens[..., None] * v.values
    div = _divergence_of(grid, flux)
    out = np.zeros(grid.shape)
    np.divide(div, dens, out=out, where=ok)
    return ScalarField(grid, out)


def boundary_residual(rho: ScalarField, v: VectorField) -> float:
    """max boundary |rho v| over max overall |rho v| (0 when both vanish)."""
    rv = np.abs(rho.values[..., None] * v.values)
    rv_max = float(rv.max(initial=0.0))
    if rv_max == 0:
        return 0.0
    return float(rv[rho.grid.boundary_mask].max(initial=0.0)) / rv_max


# ---------------------------------------------------------------------------
# sparse operator building blocks (used by the field-equation solver)

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
    rho_floor: float = DEFAULT_RHO_FLOOR,
) -> sp.csr_matrix:
    """Sparse operator: flattened contravariant field -> ``(1/rho) div(rho v)``.

    Shape ``(num_nodes, num_nodes * p)`` with component blocks concatenated;
    same floor semantics as :func:`weighted_divergence`.
    """
    sqrtg = metric_sqrt_det(metric, grid)
    dens = (sqrtg * rho.values).ravel()
    tiny, _ = _tiny_density_mask(grid, rho.values, rho_floor)
    ok = (~tiny).ravel()
    inv = np.zeros_like(dens)
    inv[ok] = 1.0 / dens[ok]
    blocks = [
        sp.diags(inv) @ diff_matrix(grid, ax) @ sp.diags(dens) for ax in range(grid.dim)
    ]
    return sp.hstack(blocks, format="csr")


# ---------------------------------------------------------------------------
# CSV serialization

def _coord_header(p: int) -> list[str]:
    return [f"theta_{a + 1}" for a in range(p)]


def field_to_csv(field, path) -> None:
    """Write a field as rows of node coordinates plus value columns."""
    grid = field.grid
    p = grid.dim
    coords = grid.coordinates.reshape(-1, p)
    if isinstance(field, ScalarField):
        header = _coord_header(p) + ["value"]
        data = field.values.reshape(-1, 1)
    elif isinstance(field, VectorField):
        tag = "v" if field.variance == "contravariant" else "u"
        header = _coord_header(p) + [f"{tag}_{a + 1}" for a in range(p)]
        data = field.values.reshape(-1, p)
    elif isinstance(field, MatrixField):
        header = _coord_header(p) + [f"m_{a + 1}{b + 1}" for a in range(p) for b in range(p)]
        data = field.values.reshape(-1, p * p)
    else:
        raise TypeError(f"cannot serialize {type(field).__name__}")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for c, row in zip(coords, data):
            writer.writerow(["%.12e" % x for x in c] + ["%.12e" % x for x in row])


def _grid_from_coords(coords: np.ndarray) -> tuple[ParameterGrid, tuple[int, ...]]:
    p = coords.shape[1]
    axes = [np.unique(coords[:, a]) for a in range(p)]
    shape = tuple(len(a) for a in axes)
    if int(np.prod(shape)) != coords.shape[0]:
        raise GridValueError("CSV nodes do not form a full rectangular grid")
    for a in axes:
        steps = np.diff(a)
        if steps.size and not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12):
            raise GridValueError("CSV grid is not uniformly spaced")
    grid = ParameterGrid([(a[0], a[-1]) for a in axes], shape)
    return grid, shape


def _read_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = np.array([[float(x) for x in row] for row in reader])
    return header, rows


def scalar_field_from_csv(path) -> ScalarField:
    header, rows = _read_csv(path)
    p = sum(1 for h in header if h.startswith("theta_"))
    grid, shape = _grid_from_coords(rows[:, :p])
    order = np.lexsort(tuple(rows[:, a] for a in reversed(range(p))))
    return ScalarField(grid, rows[order, p].reshape(shape))


def vector_field_from_csv(path) -> VectorField:
    header, rows = _read_csv(path)
    p = sum(1 for h in header if h.startswith("theta_"))
    variance = "contravariant" if header[p].startswith("v_") else "covariant"
    grid, shape = _grid_from_coords(rows[:, :p])
    order = np.lexsort(tuple(rows[:, a] for a in reversed(range(p))))
    return VectorField(grid, rows[order, p:].reshape(shape + (p,)), variance)


def matrix_field_from_csv(path) -> MatrixField:
    header, rows = _read_csv(path)
    p = sum(1 for h in header if h.startswith("theta_"))
    grid, shape = _grid_from_coords(rows[:, :p])
    order = np.lexsort(tuple(rows[:, a] for a in reversed(range(p))))
    return MatrixField(grid, rows[order, p:].reshape(shape + (p, p)))
