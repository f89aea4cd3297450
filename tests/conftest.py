"""Shared scenario builders and test references for the test suite."""

import warnings

import numpy as np
import pytest

from bcrb.errors import GridValueError
from bcrb.geometry import StatisticalModel
from bcrb.grids import (
    BOUNDARY_RESIDUAL_TOL,
    MatrixField,
    ParameterGrid,
    ScalarField,
    VectorField,
    _density,
    _quotient_divergence,
    boundary_residual,
)


def count_linalg_calls(monkeypatch, *names):
    """Wrap each named ``np.linalg`` routine; returns name -> list of the
    arrays it was called on, in call order."""
    seen = {name: [] for name in names}
    for name in names:
        real = getattr(np.linalg, name)

        def counting(a, *args, _real=real, _seen=seen[name], **kwargs):
            _seen.append(a)
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return seen


def weighted_divergence(
    rho: ScalarField,
    v: VectorField,
    metric: MatrixField | None = None,
) -> ScalarField:
    """The scalar ``(1/rho) div(rho v)`` with the metric volume factor.

    Computes ``(1 / (sqrt|g| rho)) d_a (sqrt|g| rho v^a)``.  Nodes where
    ``rho`` falls below ``DEFAULT_RHO_FLOOR * max(rho)`` contribute zero; an
    interior below-floor node whose neighborhood carries mass raises (see
    ``_tiny_density_mask``).  Warns when ``rho * v`` fails to vanish on the
    boundary.
    """
    grid = rho.grid
    grid.require_same(v.grid, "weighted_divergence")
    if v.variance != "contravariant":
        raise GridValueError("weighted_divergence needs a contravariant field")
    dens, ok = _density(grid, rho, metric)

    res = boundary_residual(rho, v)
    if res > BOUNDARY_RESIDUAL_TOL:
        warnings.warn(
            f"rho*v does not vanish on the boundary (boundary residual {res:.3e}); "
            "enlarge the domain or use a decaying prior",
            stacklevel=2,
        )

    return ScalarField(grid, _quotient_divergence(grid, dens, v.values, ok))


def line_grid(lo, hi, n):
    return ParameterGrid([(lo, hi)], [n])


def const_matrix_fn(value):
    value = np.atleast_2d(np.asarray(value, dtype=float))

    def fn(coords):
        coords = np.asarray(coords)
        return np.broadcast_to(value, coords.shape[:-1] + value.shape).copy()

    return fn


def const_vector_fn(value):
    value = np.atleast_1d(np.asarray(value, dtype=float))

    def fn(coords):
        coords = np.asarray(coords)
        return np.broadcast_to(value, coords.shape[:-1] + value.shape).copy()

    return fn


def gaussian_prior_fn(s2=1.0, center=0.0):
    def fn(coords):
        th = np.asarray(coords)[..., 0]
        return np.exp(-((th - center) ** 2) / (2 * s2)) / np.sqrt(2 * np.pi * s2)

    return fn


def window_bump_fn(lo, hi, power=4):
    """sin^power window vanishing at both ends of [lo, hi]."""

    def fn(coords):
        th = np.asarray(coords)[..., 0]
        s = np.clip((th - lo) / (hi - lo), 0.0, 1.0)
        return np.sin(np.pi * s) ** power

    return fn


def gaussian_bump_fn(lo, hi, center, width2, power=4):
    """Gaussian envelope times a sin^power window (compact, smooth)."""
    win = window_bump_fn(lo, hi, power)

    def fn(coords):
        th = np.asarray(coords)[..., 0]
        return np.exp(-((th - center) ** 2) / (2 * width2)) * win(coords)

    return fn


def gaussian_scalar_model(lo=-8.0, hi=8.0, n_nodes=2001, s2=1.0, fisher=1.0, weight=1.0):
    """The canonical scalar scenario: constant F and u, truncated Gaussian prior."""
    grid = line_grid(lo, hi, n_nodes)
    return StatisticalModel.from_callables(
        grid,
        fisher_fn=const_matrix_fn([[fisher]]),
        weight_fn=const_vector_fn([weight]),
        prior_fn=gaussian_prior_fn(s2),
    )


def bump_scalar_model(lo=0.5, hi=2.0, n_nodes=4001, center=1.2, width2=0.09):
    """Scalar model with F = 1 + theta^2 and a compact gaussian-bump prior."""
    grid = line_grid(lo, hi, n_nodes)
    return StatisticalModel.from_callables(
        grid,
        fisher_fn=lambda c: (1.0 + np.asarray(c)[..., 0] ** 2)[..., None, None],
        weight_fn=const_vector_fn([1.0]),
        prior_fn=gaussian_bump_fn(lo, hi, center, width2),
    )


def square_model(nodes, fisher_fn, prior_fn, lo=-6.5, hi=6.5, weight=(1.0, 1.0)):
    """Two-parameter model on the square [lo, hi]^2."""
    grid = ParameterGrid([(lo, hi), (lo, hi)], [nodes, nodes])
    return StatisticalModel.from_callables(
        grid, fisher_fn=fisher_fn, weight_fn=const_vector_fn(list(weight)), prior_fn=prior_fn)


def gaussian_2d(c):
    """Unnormalized standard Gaussian density in two parameters."""
    return np.exp(-np.sum(np.asarray(c) ** 2, axis=-1) / 2.0)


def unit_field(grid):
    return VectorField.constant(grid, [1.0] * grid.dim)


@pytest.fixture(scope="session")
def gauss_model():
    return gaussian_scalar_model()


@pytest.fixture(scope="session")
def bump_model():
    return bump_scalar_model()
