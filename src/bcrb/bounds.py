"""The Gill-Levit family of Bayesian Cramer-Rao bounds.

Given a prior density rho, a contravariant field v, a covariant weight u and
an information matrix F, the three prior expectations

    alignment          <A> = int (v.u) rho eps
    information        <F> = int (v F v) rho eps
    prior_information  <P> = int [(1/rho) div(rho v)]^2 rho eps

combine into the lower bound  B = <A>^2 / (n <F> + <P>)  on the Bayesian
mean-square risk of any estimator, provided rho*v vanishes on the boundary.
The field v is free, and every bound takes it as an argument.  The prior is
the model's own, ``model.prior`` (`gill_levit_bound` binds the one it is
given with ``replace(model, prior=prior)``).  This module also builds the two
classical fields (per-point natural and constant van Trees) and bounds
vector parameters under a positive-definite weight matrix.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field as dc_field, replace

import numpy as np

from .errors import (
    BoundaryConditionError,
    DegenerateBoundError,
    GridValueError,
    SingularInformationError,
)
from .geometry import StatisticalModel
from .grids import (
    BOUNDARY_RESIDUAL_TOL,
    ParameterGrid,
    ScalarField,
    VectorField,
    _check_values,
    _density,
    _first_node,
    _quotient_divergence,
    boundary_residual,
    check_symmetric,
    rho_weights,
)

NONNEGATIVE_ATOL = 1e-12
SINGULAR_RTOL = 1e-10   # natural_v: smallest eigenvalue of F relative to its trace


def _check_n(n: float) -> None:
    """Raise :class:`GridValueError` unless the sample size n is finite and >= 0."""
    if not 0 <= n < np.inf:  # false for NaN too
        raise GridValueError(f"n must be nonnegative and finite, got {n}")


@dataclass(frozen=True, eq=False)
class BoundReport:
    """One evaluated bound: the three functionals, n, and B.

    The stored ``bound`` always equals ``alignment^2 / (n*information +
    prior_information)`` exactly; ``diagnostics`` carries the boundary
    residual and a grid descriptor, and optionally solver details.
    """

    alignment: float
    information: float
    prior_information: float
    n: float
    bound: float
    v_choice: str
    diagnostics: dict = dc_field(default_factory=dict)
    attaining_v: VectorField | None = None

    def __post_init__(self):
        if self.information < -NONNEGATIVE_ATOL or self.prior_information < -NONNEGATIVE_ATOL:
            raise GridValueError("information and prior_information must be nonnegative")
        denom = self.n * self.information + self.prior_information
        expected = self.alignment**2 / denom if denom > 0 else 0.0
        if abs(self.bound - expected) > 1e-12 * max(abs(expected), 1e-300):
            raise GridValueError("stored bound is inconsistent with its functionals")

    @classmethod
    def assemble(cls, alignment, information, prior_information, n, v_choice,
                 diagnostics=None, attaining_v=None, allow_zero=False) -> "BoundReport":
        _check_n(n)
        for name, value in (("alignment", alignment), ("information", information),
                            ("prior_information", prior_information)):
            if not np.isfinite(value):
                raise GridValueError(f"{name} is {value!r} at n = {n!r}; the bound needs "
                                     "finite functionals")
            if name != "alignment" and 0 < abs(value) < np.finfo(float).tiny:
                raise GridValueError(f"{name} {value!r} underflowed to a subnormal at "
                                     f"n = {n!r}; the bound is not resolved in floating point")
        information = max(float(information), 0.0)
        prior_information = max(float(prior_information), 0.0)
        denom = n * information + prior_information
        if not np.isfinite(denom):
            raise GridValueError(f"n * information + prior_information overflows at n = {n!r} "
                                 f"with information {information!r}; the bound is not "
                                 "resolved in floating point")
        if denom <= 0:
            # 0/0 extends continuously to 0 when the numerator vanishes too
            if allow_zero and alignment == 0.0:
                return cls(0.0, information, prior_information, float(n), 0.0,
                           v_choice, diagnostics or {}, attaining_v)
            raise DegenerateBoundError(
                f"degenerate direction: no information and no prior curvature at n = {n!r}, "
                "or the functionals underflowed"
            )
        return cls(
            float(alignment), information, prior_information, float(n),
            float(alignment) ** 2 / denom, v_choice, diagnostics or {}, attaining_v,
        )

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "alignment": self.alignment,
            "information": self.information,
            "prior_information": self.prior_information,
            "bound": self.bound,
            "v_choice": self.v_choice,
            "diagnostics": self.diagnostics,
        }


@dataclass(frozen=True, eq=False)
class VectoralWeight:
    """Vector parameter of interest: risk-weight matrix and component weights.

    ``gamma`` holds the symmetric positive-definite q x q risk-weight matrix
    per node; ``weights[j]`` is the covariant gradient field of the j-th
    component of the parameter of interest.  The free fields are not part of
    the weight: `vectoral_bound` takes them as an argument, as
    `gill_levit_bound` takes v, and `vectoral_bmax` solves for them.
    """

    grid: ParameterGrid
    gamma: np.ndarray
    weights: tuple[VectorField, ...]

    def __post_init__(self):
        gamma = np.array(self.gamma, dtype=float)
        q = len(self.weights)
        if q < 1 or q > self.grid.dim:
            raise GridValueError(f"need 1 <= q <= p, got q={q}, p={self.grid.dim}")
        if gamma.shape == (q, q):
            gamma = np.broadcast_to(gamma, self.grid.shape + (q, q)).copy()
        _check_values(self.grid, gamma, (q, q), "weight matrix gamma")
        check_symmetric(gamma, "weight matrix gamma")
        gamma = (gamma + np.swapaxes(gamma, -1, -2)) / 2
        if np.any(np.linalg.eigvalsh(gamma)[..., 0] <= 0):
            raise GridValueError("weight matrix gamma must be positive definite at every node")
        for u in self.weights:
            self.grid.require_same(u.grid, "vectoral weight")
            if u.variance != "covariant":
                raise GridValueError("weight components must be covariant")
        gamma.setflags(write=False)
        object.__setattr__(self, "gamma", gamma)

    @property
    def q(self) -> int:
        return len(self.weights)

    def gamma_inverse(self) -> np.ndarray:
        return np.linalg.inv(self.gamma)


def _check_boundary(prior: ScalarField, v: VectorField) -> float:
    res = boundary_residual(prior, v)
    if res > BOUNDARY_RESIDUAL_TOL:
        raise BoundaryConditionError(
            f"rho*v boundary residual {res:.3e} exceeds {BOUNDARY_RESIDUAL_TOL:.0e}; "
            "enlarge the domain so the prior-weighted field vanishes at the edges"
        )
    return res


def _prior(model: StatisticalModel) -> ScalarField:
    """The model's prior, which every bound reads; raises
    :class:`GridValueError` naming it when the model has none."""
    if model.prior is None:
        raise GridValueError("the bound needs a prior density, and the model has no prior")
    return model.prior


def _functionals(model, weights, fields, gamma_inv) -> tuple[float, float, float, float]:
    """(<A>, <F>, <P>, worst boundary residual) of q weight/field pairs
    coupled by ``gamma_inv``.

    ``gamma_inv`` holds the inverse risk-weight matrix g^{jk}, per node with
    shape ``(*grid, q, q)`` or one ``(q, q)`` matrix for all nodes:
    <A> = sum_j <v_j . u_j>, <F> = sum_jk <g^{jk} v_j F v_k> and
    <P> = sum_jk <g^{jk} div_j div_k>, with div_j = (1/rho) div(rho v_j).
    The scalar bound is q = 1 with g = 1.  Raises unless the model has a
    prior, there is one field per weight and every field is contravariant
    and on the model's grid.
    """
    grid, prior = model.grid, _prior(model)
    if len(fields) != len(weights):
        raise GridValueError(f"got {len(fields)} fields for {len(weights)} weights; "
                             "need one field per weight component")
    residuals = []
    for v in fields:
        grid.require_same(v.grid, "functionals field")
        if v.variance != "contravariant":
            raise GridValueError("the functionals need a contravariant field v")
        residuals.append(_check_boundary(prior, v))

    w = rho_weights(prior, model.metric)
    a_val = 0.0
    for u, v in zip(weights, fields):
        a_val += float(np.sum(w * np.einsum("...a,...a->...", v.values, u.values)))

    dens, ok = _density(grid, prior, model.metric)
    divs = [_quotient_divergence(grid, dens, v.values, ok) for v in fields]
    f_val = 0.0
    p_val = 0.0
    for j, vj in enumerate(fields):
        for k, vk in enumerate(fields):
            wg = w * gamma_inv[..., j, k]
            f_val += float(np.sum(wg * np.einsum(
                "...a,...ab,...b->...", vj.values, model.fisher.values, vk.values)))
            p_val += float(np.sum(wg * (divs[j] * divs[k])))
    return a_val, f_val, p_val, max(residuals)


def _bound_report(model, weights, fields, gamma_inv, n, v_choice, solve=None,
                  attaining_v=None, allow_zero=False) -> BoundReport:
    """The report of q weight/field pairs; its diagnostics hold the boundary
    residual, the grid and the fields of the ``SolveInfo`` ``solve``, if any."""
    a_val, f_val, p_val, res = _functionals(model, weights, fields, gamma_inv)
    diagnostics = {"boundary_residual": res, "grid": model.grid.describe()}
    if solve is not None:
        diagnostics |= asdict(solve)
    return BoundReport.assemble(a_val, f_val, p_val, n, v_choice, diagnostics,
                                attaining_v=attaining_v, allow_zero=allow_zero)


def functionals(model: StatisticalModel, v: VectorField) -> tuple[float, float, float]:
    """The three prior expectations (<A>, <F>, <P>) for a given field v."""
    return _functionals(model, (model.weight,), (v,), np.ones((1, 1)))[:3]


def gill_levit_bound(
    model: StatisticalModel,
    prior: ScalarField,
    v: VectorField,
    n: float,
    v_choice: str = "custom",
) -> BoundReport:
    """Evaluate B = <A>^2 / (n <F> + <P>) for the supplied field.

    The bound is that of ``replace(model, prior=prior)``, so ``prior`` passes
    the model's grid and normalization checks; the model's own prior binds
    without a rebuild.
    """
    model = model if prior is model.prior else replace(model, prior=prior)
    return _bound_report(model, (model.weight,), (v,), np.ones((1, 1)), n, v_choice)


def natural_v(model: StatisticalModel) -> VectorField:
    """Per-point field v^a = (F^{-1})^{ab} u_b (undefined where F is singular).

    With this choice the pointwise alignment and information both equal the
    local bound u F^{-1} u, which is checked after the inversion.
    """
    f = model.fisher.values
    ev = np.linalg.eigvalsh(f)
    trace = np.trace(f, axis1=-2, axis2=-1)
    singular = ev[..., 0] <= SINGULAR_RTOL * np.maximum(trace, 1e-300)
    if np.any(singular):
        raise SingularInformationError(
            f"information matrix is rank deficient at node {_first_node(singular)}; the weight "
            "vector must lie in its range for the per-point natural field to exist"
        )
    v_vals = np.linalg.solve(f, model.weight.values[..., None])[..., 0]
    align = np.einsum("...a,...a->...", v_vals, model.weight.values)
    info = np.einsum("...a,...ab,...b->...", v_vals, f, v_vals)
    if not np.allclose(align, info, rtol=1e-8, atol=1e-12):
        raise GridValueError("pointwise alignment != information after inversion")
    return VectorField(model.grid, v_vals, variance="contravariant")


def van_trees_v(model: StatisticalModel, n: float) -> VectorField:
    """Constant field from averaged information plus prior curvature.

    v = [(n <F> + <G>)^{-1}] <u> with G_ab = s_a s_b for the prior score
    s_a = (1/d) d_a d, d = sqrt(det g) rho, taken by the quotient of the
    bound's own <P> (zero below the density floor, so the prior may vanish
    at nodes).  The van Trees bound is
    ``gill_levit_bound(model, model.prior, van_trees_v(model, n), n)``,
    which equals <u> (n<F> + <G>)^{-1} <u>; a zero weight gives the zero
    field, whose bound raises :class:`DegenerateBoundError`.  This v is
    generally not contravariant, so the bound can change under
    reparametrization.
    """
    _check_n(n)
    grid, prior = model.grid, _prior(model)
    dens, ok = _density(grid, prior, model.metric)
    p = grid.dim
    score = np.stack([_quotient_divergence(grid, dens, e, ok) for e in np.eye(p)],
                     axis=-1).reshape(-1, p)
    wf = rho_weights(prior, model.metric).ravel()
    g_avg = np.einsum("n,na,nb->ab", wf, score, score)
    f_avg = np.einsum("n,nab->ab", wf, model.fisher.values.reshape(-1, p, p))
    u_avg = np.einsum("n,na->a", wf, model.weight.values.reshape(-1, p))
    try:
        v_const = np.linalg.solve(n * f_avg + g_avg, u_avg)
    except np.linalg.LinAlgError as exc:
        raise SingularInformationError(
            f"averaged matrix n<F> + <G> is singular: {exc}"
        ) from exc
    return VectorField.constant(grid, v_const)


def vectoral_bound(model: StatisticalModel, weights: VectoralWeight,
                   fields: tuple[VectorField, ...], n: float) -> BoundReport:
    """Gill-Levit bound of a vector parameter of interest for the ``fields``,
    one contravariant field per component, coupled by the inverse of gamma."""
    model.grid.require_same(weights.grid, "vectoral weights")
    return _bound_report(model, weights.weights, fields,
                         weights.gamma_inverse(), n, f"vectoral(q={weights.q})")
