"""Property-based checks of the paper's contracts (hypothesis)."""

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bcrb.bounds import gill_levit_bound
from bcrb.grids import VectorField
from bcrb.optimal import bmax

from conftest import gaussian_2d, square_model


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
