"""Property-based checks of the paper's contracts (hypothesis)."""

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bcrb.bounds import gill_levit_bound
from bcrb.geometry import (StatisticalModel, affine_map, derive_target_grid,
                           invariance_report, odd_power_map)
from bcrb.grids import MatrixField, VectorField
from bcrb.optimal import bmax
from bcrb.quantum import qmax

from conftest import (bump_scalar_model, const_vector_fn, gaussian_2d, gaussian_prior_fn,
                      line_grid, square_model)


def varying_fisher(c):
    """[[1 + theta_1^2 / 84.5, 0.2], [0.2, 2]]: correlated and position dependent."""
    c = np.asarray(c)
    out = np.broadcast_to(np.array([[1.0, 0.2], [0.2, 2.0]]), c.shape[:-1] + (2, 2)).copy()
    out[..., 0, 0] += 0.5 * (c[..., 0] / 6.5) ** 2
    return out


@pytest.fixture(scope="module")
def pcg_optimum():
    model = square_model(61, varying_fisher, gaussian_2d, weight=(1.0, 0.5))
    rep = bmax(model, n=3.0)
    assert rep.diagnostics["solver"] == "pcg"
    return model, rep


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(scale=st.floats(0.0, 1.0),
       coeffs=st.lists(st.floats(-5.0, 5.0, allow_nan=False), min_size=12, max_size=12))
def test_optimality_property_on_pcg_path(pcg_optimum, scale, coeffs):
    """B(v) <= B_max on a 2-D grid solved by PCG, for v the attaining field
    plus a random smooth perturbation of any size (small ones probe the
    contract where it is sharp, large ones are plain random fields)."""
    model, rep = pcg_optimum
    v_star = rep.attaining_v.values
    s = model.grid.coordinates / 6.5
    basis = np.stack([np.ones(s.shape[:-1]), s[..., 0], s[..., 1], s[..., 0] * s[..., 1],
                      np.sin(np.pi * s[..., 0]), np.cos(2.0 * s[..., 1])], axis=-1)
    perturbation = basis @ np.asarray(coeffs).reshape(2, 6).T
    v = VectorField(model.grid, v_star + scale * np.max(np.abs(v_star)) * perturbation)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # rho v on the boundary is irrelevant here
        b = gill_levit_bound(model, model.prior, v, 3.0).bound
    assert b <= rep.bound * (1.0 + 1e-8)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(f=st.tuples(st.floats(0.05, 3.0), st.floats(0.0, 1.0)),
       extra=st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0), st.floats(0.1, 3.0)),
       n=st.floats(0.1, 100.0))
def test_quantum_bound_below_classical(f, extra, n):
    """Q_max <= B_max whenever K = F + (PSD): here F = f0 + f2 theta^2 and
    K - F = e0 + e1 sin^2(w theta) >= 0 on a 1-D grid."""
    f0, f2 = f
    e0, e1, freq = extra

    def fisher_fn(c):
        return (f0 + f2 * np.asarray(c)[..., 0] ** 2)[..., None, None]

    def helstrom_fn(c):
        th = np.asarray(c)[..., 0]
        return fisher_fn(c) + (e0 + e1 * np.sin(freq * th) ** 2)[..., None, None]

    grid = line_grid(-6.0, 6.0, 401)
    model = StatisticalModel.from_callables(
        grid, fisher_fn=fisher_fn, weight_fn=const_vector_fn([1.0]),
        prior_fn=gaussian_prior_fn(1.0))
    q = qmax(model, MatrixField.from_callable(grid, helstrom_fn), n=n).bound
    assert q <= bmax(model, n=n).bound * (1.0 + 1e-10)


@pytest.fixture(scope="module")
def shipped_invariance_model():
    """The shipped invariance model: F = 1 + theta^2, gaussian-bump prior, unit v."""
    model = bump_scalar_model(n_nodes=2001)
    unit = lambda c: np.ones_like(np.asarray(c, dtype=float))
    return model, VectorField.from_callable(model.grid, unit), unit


@settings(max_examples=30, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(map_obj=st.one_of(
    st.builds(lambda scale, sign, offset: affine_map([sign * scale], [offset]),
              st.floats(0.25, 4.0), st.sampled_from([-1.0, 1.0]), st.floats(-10.0, 10.0)),
    st.sampled_from([3, 5]).map(odd_power_map)))
def test_bound_invariant_under_reparametrization(shipped_invariance_model, map_obj):
    """The bound of the contravariantly transformed field is the same in the image
    coordinates; the untransformed control moves under a nonlinear map only."""
    model, v, v_fn = shipped_invariance_model
    target = derive_target_grid(map_obj, model.grid, (20001,))
    reports = [invariance_report(model, model.prior, v, map_obj, 10.0, target_grid=target,
                                 transform_v=transform, v_fn=v_fn)
               for transform in (True, False)]
    assert reports[0].relative_difference <= 1e-5
    if map_obj.name == "affine":
        assert reports[1].relative_difference <= 1e-5
    else:
        assert reports[1].relative_difference >= 1e-3
