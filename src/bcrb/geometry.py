"""Statistical models on grids and diffeomorphic reparametrization.

A model bundles the pointwise information matrix F_ab, the covariant weight
field u_a = d(beta)/d(theta^a), an optional metric, and an optional prior
density rho (a scalar under reparametrization, normalized against the metric
volume element).  Reparametrization follows the tensor laws

    u = J u~,   F = J F~ J^T,   g = J g~ J^T,   rho~(t~) = rho(theta(t~)),

with J[a, b] = d theta~^b / d theta^a, so pulling a model to new coordinates
multiplies by the inverse Jacobian.  Contravariant vector fields transform as
v~ = J^T v; bounds computed with fields transformed this way are
parametrization independent, which `invariance_report` verifies numerically.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import GridValueError
from .grids import (
    MatrixField,
    ParameterGrid,
    ScalarField,
    VectorField,
    _first_node,
    integrate,
)

PRIOR_NORMALIZATION_ATOL = 1e-8
ROUND_TRIP_SPACINGS = 1e-6  # round-trip error allowed beyond rounding, in grid spacings
ROUND_TRIP_ULPS = 4         # the rounding allowance, in ulps of |theta|
JACOBIAN_FD_STEP = 1e-6  # relative to axis length
INVARIANCE_RTOL = 1e-5   # source/target bound gap of an invariant report


@dataclass(frozen=True, eq=False)
class StatisticalModel:
    """Pointwise information, weight, metric, and prior on a grid.

    A field sampled from a callable keeps it as its ``fn``, and
    reparametrization evaluates that callable at arbitrary points instead of
    interpolating the samples.  Replacing a field replaces its callable with
    it: ``replace(model, fisher=K)`` carries K, never F.
    """

    grid: ParameterGrid
    fisher: MatrixField
    weight: VectorField
    metric: MatrixField | None = None
    prior: ScalarField | None = None

    def __post_init__(self):
        self.grid.require_same(self.fisher.grid, "model fisher")
        self.grid.require_same(self.weight.grid, "model weight")
        if self.weight.variance != "covariant":
            raise GridValueError("model weight field must be covariant")
        if (node := self.fisher.definiteness[0]) is not None:  # once per information field
            raise GridValueError(f"information matrix not positive semidefinite at node {node}")
        if self.metric is not None:
            self.grid.require_same(self.metric.grid, "model metric")
        if self.prior is not None:
            self.grid.require_same(self.prior.grid, "model prior")
            total = integrate(self.prior, self.metric)
            if not abs(total - 1.0) <= PRIOR_NORMALIZATION_ATOL:  # true for NaN too
                raise GridValueError(
                    f"prior integrates to {total!r}, expected 1 within "
                    f"{PRIOR_NORMALIZATION_ATOL:.0e}; normalize it first"
                )

    @classmethod
    def from_callables(
        cls,
        grid: ParameterGrid,
        fisher_fn: Callable,
        weight_fn: Callable,
        prior_fn: Callable | None = None,
    ) -> "StatisticalModel":
        """Fields sampled from the callables, which they keep (flat metric)."""
        fisher = MatrixField.from_callable(grid, fisher_fn)
        weight = VectorField.from_callable(grid, weight_fn, variance="covariant")
        prior = None if prior_fn is None else ScalarField.from_callable(grid, prior_fn).normalized()
        return cls(grid, fisher, weight, prior=prior)


@dataclass(frozen=True, eq=False)
class Diffeomorphism:
    """Bijective differentiable coordinate change with explicit inverse.

    ``forward`` and ``inverse`` are batched maps ``(..., p) -> (..., p)``;
    ``jacobian`` optionally returns ``J[a, b] = d theta~^b / d theta^a`` as a
    ``(..., p, p)`` array.  Without it, a central finite-difference fallback
    with step ``1e-6 * axis_length`` is used (lower accuracy).
    """

    forward: Callable
    inverse: Callable
    jacobian: Callable | None = None
    name: str = "custom"

    def jacobian_at(self, theta: np.ndarray, axis_lengths: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if self.jacobian is not None:
            return np.asarray(self.jacobian(theta), dtype=float)
        p = theta.shape[-1]
        out = np.empty(theta.shape + (p,))
        for a in range(p):
            step = JACOBIAN_FD_STEP * float(axis_lengths[a])
            hi = theta.copy()
            lo = theta.copy()
            hi[..., a] += step
            lo[..., a] -= step
            out[..., a, :] = (
                np.asarray(self.forward(hi)) - np.asarray(self.forward(lo))
            ) / (2 * step)
        return out

    def check_round_trip(self, grid: ParameterGrid) -> float:
        """Max |inverse(forward(theta)) - theta| over nodes and axes, beyond
        ROUND_TRIP_ULPS ulps of |theta|, in grid spacings of the axis: 0 for a
        map exact to rounding, however far from the origin."""
        coords = grid.coordinates
        back = np.asarray(self.inverse(np.asarray(self.forward(coords))))
        excess = np.abs(back - coords) - ROUND_TRIP_ULPS * np.spacing(np.abs(coords))
        return float(np.max(np.maximum(excess, 0.0) / np.asarray(grid.spacing)))


# ---------------------------------------------------------------------------
# built-in map catalog (all separable per axis, boxes map to boxes)

def _diagonal(diag: np.ndarray) -> np.ndarray:
    """``(..., p, p)`` Jacobians of a separable map from its ``(..., p)`` diagonal."""
    p = diag.shape[-1]
    out = np.zeros(diag.shape + (p,))
    idx = np.arange(p)
    out[..., idx, idx] = diag
    return out


def identity_map() -> Diffeomorphism:
    eye = lambda c: _diagonal(np.ones(np.asarray(c).shape))
    return Diffeomorphism(lambda c: np.asarray(c, dtype=float),
                          lambda c: np.asarray(c, dtype=float), eye, "identity")


def affine_map(scale, offset) -> Diffeomorphism:
    scale = np.atleast_1d(np.asarray(scale, dtype=float))
    offset = np.atleast_1d(np.asarray(offset, dtype=float))
    if np.any(scale == 0):
        raise GridValueError("affine map needs nonzero scale")

    def jac(c):
        return _diagonal(np.broadcast_to(scale, np.asarray(c).shape))

    return Diffeomorphism(
        lambda c: np.asarray(c) * scale + offset,
        lambda c: (np.asarray(c) - offset) / scale,
        jac,
        "affine",
    )


def odd_power_map(power: int = 3) -> Diffeomorphism:
    if power < 1 or power % 2 == 0:
        raise GridValueError("power map must use a positive odd exponent")

    def forward(c):
        c = np.asarray(c, dtype=float)
        return np.sign(c) * np.abs(c) ** power

    def inverse(c):
        c = np.asarray(c, dtype=float)
        return np.sign(c) * np.abs(c) ** (1.0 / power)

    def jac(c):
        return _diagonal(power * np.abs(np.asarray(c, dtype=float)) ** (power - 1))

    return Diffeomorphism(forward, inverse, jac, f"odd_power_{power}")


def logistic_map() -> Diffeomorphism:
    def forward(c):
        return 1.0 / (1.0 + np.exp(-np.asarray(c, dtype=float)))

    def inverse(c):
        c = np.asarray(c, dtype=float)
        return np.log(c / (1.0 - c))

    def jac(c):
        s = forward(c)
        return _diagonal(s * (1.0 - s))

    return Diffeomorphism(forward, inverse, jac, "logistic")


# ---------------------------------------------------------------------------
# evaluation helpers

def _interpolator(grid: ParameterGrid, values: np.ndarray):
    # slow imports, needed only here
    from scipy.interpolate import RegularGridInterpolator, make_interp_spline

    if grid.dim == 1 and grid.shape[0] >= 4:
        # what cubic_legacy computes in 1-D, without its per-point copy loop
        spline = make_interp_spline(grid.axes[0], values, k=3)
        return lambda pts: spline(np.asarray(pts, dtype=float)[..., 0])
    # cubic_legacy reproduces nodal values exactly; the windowed "cubic" does not
    method = "cubic_legacy" if min(grid.shape) >= 4 else "linear"
    return RegularGridInterpolator(grid.axes, values, method=method, bounds_error=False,
                                   fill_value=None)


def _eval(field: ScalarField | VectorField | MatrixField, points: np.ndarray) -> np.ndarray:
    """A field at ``points``: its ``fn`` when it has one, else each trailing
    component interpolated (matrix fields are stored exactly symmetric, so
    both triangles interpolate to mirrored values)."""
    if field.fn is not None:
        return np.asarray(field.fn(points), dtype=float)
    grid = field.grid
    comps = field.values.reshape(grid.shape + (-1,))
    out = np.stack([_interpolator(grid, comps[..., k])(points)
                    for k in range(comps.shape[-1])], axis=-1)
    return out.reshape(points.shape[:-1] + field.values.shape[grid.dim:])


def derive_target_grid(map: Diffeomorphism, grid: ParameterGrid,
                       shape: tuple[int, ...] | None = None) -> ParameterGrid:
    """Image box of a per-axis monotone map, with the given node counts."""
    corners = np.stack([np.array([lo for lo, _ in grid.bounds]),
                        np.array([hi for _, hi in grid.bounds])])
    images = np.asarray(map.forward(corners))
    lows = images.min(axis=0)
    highs = images.max(axis=0)
    return ParameterGrid(list(zip(lows, highs)), shape or grid.shape)


def _axis_lengths(grid: ParameterGrid) -> np.ndarray:
    return np.array([hi - lo for lo, hi in grid.bounds])


def pushforward_model(
    model: StatisticalModel,
    map: Diffeomorphism,
    target_grid: ParameterGrid | None = None,
) -> StatisticalModel:
    """The same statistical problem expressed in the image coordinates.

    Fields are sampled at the preimages of the target nodes (analytic
    callables when available, cubic interpolation otherwise) and transformed
    with the Jacobian: information and metric as (0,2) tensors, the weight
    covariantly, the prior as a scalar.
    """
    rt = map.check_round_trip(model.grid)
    if not rt <= ROUND_TRIP_SPACINGS:  # true for NaN too
        raise GridValueError(f"map inverse does not undo forward on the grid (max error "
                             f"{rt:.3e} grid spacings beyond rounding)")
    if target_grid is None:
        target_grid = derive_target_grid(map, model.grid)
    lengths = _axis_lengths(model.grid)

    pts_src = np.asarray(map.inverse(target_grid.coordinates), dtype=float)
    jac = map.jacobian_at(pts_src, lengths)  # J at theta(theta~)
    det = np.linalg.det(jac)
    if np.any(det == 0) or not np.all(np.isfinite(det)):
        bad = _first_node((det == 0) | ~np.isfinite(det))
        raise GridValueError(
            f"singular Jacobian at target node {bad}, "
            f"coordinates {target_grid.coordinates[bad]}"
        )
    jac_inv = np.linalg.inv(jac)

    f_src = _eval(model.fisher, pts_src)
    u_src = _eval(model.weight, pts_src)
    f_new = np.einsum("...ca,...cd,...db->...ab", jac_inv, f_src, jac_inv)
    u_new = np.einsum("...ba,...b->...a", jac_inv, u_src)

    if model.metric is not None:
        g_src = _eval(model.metric, pts_src)
    else:
        g_src = np.broadcast_to(np.eye(model.grid.dim), pts_src.shape + (model.grid.dim,))
    g_new = np.einsum("...ca,...cd,...db->...ab", jac_inv, g_src, jac_inv)
    metric_new = MatrixField(target_grid, np.ascontiguousarray(g_new))

    prior_new = None
    if model.prior is not None:
        pulled = lambda c: np.clip(
            _eval(model.prior, np.asarray(map.inverse(c), dtype=float)), 0.0, None)
        # a prior sampled from a callable is pushed as one, rho o theta
        rho = (ScalarField.from_callable(target_grid, pulled) if model.prior.fn is not None
               else ScalarField(target_grid, pulled(target_grid.coordinates)))
        # re-normalize against the target quadrature so the pushed model is
        # itself valid; the factor is 1 + O(dx^2)
        prior_new = rho._divided(integrate(rho, metric_new))

    return StatisticalModel(
        target_grid,
        MatrixField(target_grid, np.ascontiguousarray(f_new)),
        VectorField(target_grid, np.ascontiguousarray(u_new), variance="covariant"),
        metric_new,
        prior_new,
    )


def transform_vector_field(
    v: VectorField,
    map: Diffeomorphism,
    target_grid: ParameterGrid | None = None,
) -> VectorField:
    """Contravariant push of a vector field: ``v~^b = v^a J_a^b`` at preimages."""
    if v.variance != "contravariant":
        raise GridValueError(
            "transform_vector_field needs a contravariant field; "
            "covariant components obey the inverse-Jacobian law"
        )
    if target_grid is None:
        target_grid = derive_target_grid(map, v.grid)
    pts_src = np.asarray(map.inverse(target_grid.coordinates), dtype=float)
    jac = map.jacobian_at(pts_src, _axis_lengths(v.grid))
    vals = _eval(v, pts_src)
    new_vals = np.einsum("...a,...ab->...b", vals, jac)
    return VectorField(target_grid, np.ascontiguousarray(new_vals), variance="contravariant")


@dataclass(frozen=True)
class InvarianceReport:
    bound_source: "object"
    bound_target: "object"
    relative_difference: float
    v_transformed: bool

    @property
    def invariant(self) -> bool:
        return self.relative_difference <= INVARIANCE_RTOL


def invariance_report(
    model: StatisticalModel,
    prior: ScalarField,
    v: VectorField,
    map: Diffeomorphism,
    n: float,
    target_grid: ParameterGrid | None = None,
    transform_v: bool = True,
    v_fn: Callable | None = None,
) -> InvarianceReport:
    """Gill-Levit bound in source and image coordinates, with their gap.

    With ``transform_v=False`` the raw component values are reused in the new
    coordinates (the classic mistake); the resulting bound belongs to a
    different vector field and the report flags it as non-invariant.  A
    ``v_fn`` resamples ``v``, which then is pushed as that callable.
    """
    from .bounds import gill_levit_bound  # local import to avoid a cycle

    if v_fn is not None:
        v = VectorField.from_callable(v.grid, v_fn, v.variance)
    model_src = model if prior is model.prior else replace(model, prior=prior)
    rep_src = gill_levit_bound(model_src, prior, v, n)

    model_tgt = pushforward_model(model_src, map, target_grid)
    tgt_grid = model_tgt.grid
    if transform_v:
        v_tgt = transform_vector_field(v, map, tgt_grid)
    else:
        pts_src = np.asarray(map.inverse(tgt_grid.coordinates), dtype=float)
        v_tgt = VectorField(tgt_grid, _eval(v, pts_src))
    rep_tgt = gill_levit_bound(model_tgt, model_tgt.prior, v_tgt, n)

    scale = max(abs(rep_src.bound), abs(rep_tgt.bound), 1e-300)
    rel = abs(rep_src.bound - rep_tgt.bound) / scale
    return InvarianceReport(rep_src, rep_tgt, rel, transform_v)
