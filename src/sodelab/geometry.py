"""Lie-derivative calculus and verification of tangent-bundle structures.

Everything in this module manipulates expression trees, so brackets, Lie
derivatives, and torsion components are exact; floating point enters only
when a residual field is evaluated on a sample set.  The verifier checks the
axioms that make a pair (S, delta) the vertical endomorphism and dilation
field of some tangent-bundle presentation, plus (optionally) the second-order
condition tying a given dynamics field to that structure.  For the canonical
flat pair of a (base, fiber) chart those axioms are identities, and the
verifier reports them as holding by construction without sampling them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import integrate
from .expr import (
    Const,
    Expression,
    VariableContext,
    add,
    differentiate,
    mul,
    sub,
    substitute,
    sum_of_products,
)
from .fields import (
    Box,
    OneFormField,
    PointMap,
    ScalarField,
    Tensor11Field,
    TwoFormField,
    VectorField,
    canonical_tangent_structure,
    evaluate_on,
    max_abs_on,
)

__all__ = [
    "lie_scalar",
    "lie_bracket",
    "lie_oneform",
    "lie_tensor11",
    "apply_tensor",
    "basis_field",
    "nijenhuis_pair",
    "sode_residual",
    "theta_from_lagrangian",
    "lagrange_residual",
    "interior_twoform",
    "pullback_twoform",
    "AxiomCheck",
    "VerificationReport",
    "verify_tangent_structure",
]


def _same_ctx(*objects) -> VariableContext:
    ctx = objects[0].ctx
    for obj in objects[1:]:
        if obj.ctx != ctx:
            raise ValueError("fields live on different variable contexts")
    return ctx


def _along(x: Sequence[Expression], e: Expression, names: Sequence[str]) -> Expression:
    """x(e) = x^j d_j e: the derivative of ``e`` along the components ``x``."""
    return sum_of_products((xj, differentiate(e, name)) for xj, name in zip(x, names))


def lie_scalar(x: VectorField, g: ScalarField) -> ScalarField:
    """Directional derivative of ``g`` along ``x``."""
    ctx = _same_ctx(x, g)
    return ScalarField(ctx, _along(x.components, g.expr, ctx.names))


def lie_bracket(x: VectorField, y: VectorField) -> VectorField:
    """Commutator [x, y]^i = x(y^i) - y(x^i): how far the two flows fail to commute."""
    ctx = _same_ctx(x, y)
    return VectorField(ctx, tuple(
        sub(_along(x.components, yi, ctx.names), _along(y.components, xi, ctx.names))
        for xi, yi in zip(x.components, y.components)
    ))


def lie_oneform(x: VectorField, alpha: OneFormField) -> OneFormField:
    """(L_x alpha)_i = x(alpha_i) + alpha_j d_i x^j."""
    ctx = _same_ctx(x, alpha)
    return OneFormField(ctx, tuple(
        add(
            _along(x.components, alpha_i, ctx.names),
            sum_of_products((a, differentiate(xj, name_i))
                            for a, xj in zip(alpha.components, x.components)),
        )
        for alpha_i, name_i in zip(alpha.components, ctx.names)
    ))


def lie_tensor11(x: VectorField, t: Tensor11Field) -> Tensor11Field:
    """(L_x T)^i_j = x(T^i_j) - (T e_j)(x^i) + T^i_k d_j x^k, with T e_j column j of T."""
    ctx = _same_ctx(x, t)
    names, xs = ctx.names, x.components
    columns = tuple(zip(*t.matrix))
    return Tensor11Field(ctx, tuple(
        tuple(
            add(
                sub(_along(xs, t_ij, names), _along(columns[j], xs[i], names)),
                sum_of_products((t_ik, differentiate(xk, names[j])) for t_ik, xk in zip(row, xs)),
            )
            for j, t_ij in enumerate(row)
        )
        for i, row in enumerate(t.matrix)
    ))


def apply_tensor(t: Tensor11Field, x: VectorField) -> VectorField:
    """Contract: (T x)^i = T^i_j x^j."""
    ctx = _same_ctx(t, x)
    return VectorField(ctx, tuple(sum_of_products(zip(row, x.components)) for row in t.matrix))


def basis_field(ctx: VariableContext, index: int) -> VectorField:
    """The constant coordinate field along axis ``index``."""
    return VectorField(
        ctx,
        tuple(Const(1.0 if k == index else 0.0) for k in range(ctx.dim)),
    )


def nijenhuis_pair(t: Tensor11Field, x: VectorField, y: VectorField) -> VectorField:
    """Torsion N_T(x, y) = [Tx, Ty] - T[Tx, y] - T[x, Ty] + T^2 [x, y]."""
    tx = apply_tensor(t, x)
    ty = apply_tensor(t, y)
    ctx = _same_ctx(t, x, y)
    term1 = lie_bracket(tx, ty)
    term2 = apply_tensor(t, lie_bracket(tx, y))
    term3 = apply_tensor(t, lie_bracket(x, ty))
    term4 = apply_tensor(t, apply_tensor(t, lie_bracket(x, y)))
    components = tuple(
        add(sub(sub(term1.components[i], term2.components[i]), term3.components[i]),
            term4.components[i])
        for i in range(ctx.dim)
    )
    return VectorField(ctx, components)


def sode_residual(s: Tensor11Field, delta: VectorField, gamma: VectorField) -> VectorField:
    """S(gamma) - delta: zero exactly when gamma is second order for (S, delta)."""
    ctx = _same_ctx(s, delta, gamma)
    image = apply_tensor(s, gamma)
    return VectorField(
        ctx,
        tuple(sub(image.components[i], delta.components[i]) for i in range(ctx.dim)),
    )


def theta_from_lagrangian(lagrangian: ScalarField, s: Tensor11Field) -> OneFormField:
    """The one-form dL composed with S: theta_j = d_i L S^i_j."""
    ctx = _same_ctx(lagrangian, s)
    grads = [differentiate(lagrangian.expr, name) for name in ctx.names]
    components = tuple(
        sum_of_products(zip(grads, column)) for column in zip(*s.matrix)
    )
    return OneFormField(ctx, components)


def lagrange_residual(
    lagrangian: ScalarField, gamma: VectorField, s: Tensor11Field
) -> OneFormField:
    """L_gamma(dL o S) - dL: vanishes when gamma solves the variational equations of L."""
    ctx = _same_ctx(lagrangian, gamma, s)
    theta = theta_from_lagrangian(lagrangian, s)
    moved = lie_oneform(gamma, theta)
    components = tuple(
        sub(moved.components[i], differentiate(lagrangian.expr, name))
        for i, name in enumerate(ctx.names)
    )
    return OneFormField(ctx, components)


def interior_twoform(omega: TwoFormField, x: VectorField) -> OneFormField:
    """(i_x omega)_j = x^i omega_ij."""
    ctx = _same_ctx(omega, x)
    components = tuple(
        sum_of_products(zip(x.components, column)) for column in zip(*omega.matrix)
    )
    return OneFormField(ctx, components)


def pullback_twoform(omega: TwoFormField, mapping: PointMap) -> TwoFormField:
    """(phi* omega)_ij = d_i phi^a (omega_ab o phi) d_j phi^b over mapping.src."""
    if mapping.dst != omega.ctx:
        raise ValueError("the map must land in the form's context")
    src = mapping.src
    bindings = dict(zip(omega.ctx.names, mapping.components))
    pulled_entries = [
        [substitute(entry, bindings) for entry in row] for row in omega.matrix
    ]
    jac = mapping.jacobian
    dim_dst = omega.ctx.dim
    rows = tuple(
        tuple(
            sum_of_products(
                (jac[a][i], mul(pulled_entries[a][b], jac[b][j]))
                for a in range(dim_dst)
                for b in range(dim_dst)
            )
            for j in range(src.dim)
        )
        for i in range(src.dim)
    )
    return TwoFormField(src, rows)


# --- verification -----------------------------------------------------------

# the backward-flow axiom: reverse flows from this many sample points,
# each compared at time _FLOW_TIME and 2 * _FLOW_TIME against _FLOW_TOL
_FLOW_SAMPLES = 5
_FLOW_TIME = 20.0
_FLOW_TOL = 1e-6


@dataclass
class AxiomCheck:
    name: str
    max_residual: float
    tolerance: float
    passed: bool
    basis: str = "sampled"  # or "by_construction": an identity, not sampled

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "basis": self.basis,
        }


@dataclass
class VerificationReport:
    """Axiom-by-axiom residuals for a candidate structure on a sample set."""

    axioms: list[AxiomCheck]
    samples: int
    seed: int
    degenerate_rank: bool

    @property
    def verdict(self) -> str:
        """``"pass"`` when every axiom passes, else ``"fail"``."""
        return "pass" if all(check.passed for check in self.axioms) else "fail"

    def check(self, name: str) -> AxiomCheck:
        for axiom in self.axioms:
            if axiom.name == name:
                return axiom
        raise KeyError(f"no axiom named '{name}'")

    def to_json(self) -> dict:
        return {
            "axioms": [check.to_json() for check in self.axioms],
            "samples": self.samples,
            "seed": self.seed,
            "flags": {"degenerate_rank": self.degenerate_rank},
            "verdict": self.verdict,
        }


def _matrix_product(a: Tensor11Field, b: Tensor11Field) -> list[Expression]:
    return [
        sum_of_products(zip(row, column)) for row in a.matrix for column in zip(*b.matrix)
    ]


def _image_and_rank(s_stack: np.ndarray, delta_stack: np.ndarray) -> tuple[float, np.ndarray]:
    """The ``delta_in_image_S`` residual and the rank of S at each point, from one SVD."""
    u, sigma, _ = np.linalg.svd(s_stack, full_matrices=False)
    # the image keeps the singular vectors above numpy's pseudo-inverse cutoff
    image = u * (sigma > 1e-15 * sigma.max(axis=-1, keepdims=True))[:, None, :]
    projected = np.einsum("mij,mkj,mk->mi", image, image, delta_stack)
    membership = float(np.max(np.abs(projected - delta_stack)))
    killed = float(np.max(np.abs(np.einsum("mij,mj->mi", s_stack, delta_stack))))
    residual = max(membership, killed)
    ranks = np.count_nonzero(sigma > 1e-9, axis=-1)
    return (math.inf if math.isnan(residual) else residual), ranks


def _structure_residuals(
    s: Tensor11Field, delta: VectorField, points: np.ndarray
) -> tuple[list[float], bool]:
    """The five structure-axiom residuals on ``points``, in report order, and
    whether the rank of S drops below half the dimension at one of them."""
    ctx = s.ctx
    s_stack = evaluate_on(s.matrix, ctx, points)
    delta_stack = evaluate_on(delta.components, ctx, points)
    image_residual, ranks = _image_and_rank(s_stack, delta_stack)

    moved = lie_tensor11(delta, s)
    lie_entries = [
        add(moved.matrix[i][j], s.matrix[i][j])
        for i in range(ctx.dim)
        for j in range(ctx.dim)
    ]
    torsion_entries: list[Expression] = []
    for a in range(ctx.dim):
        for b in range(a + 1, ctx.dim):
            torsion = nijenhuis_pair(s, basis_field(ctx, a), basis_field(ctx, b))
            torsion_entries.extend(torsion.components)

    # the sample ends with its seeded uniform draws, which vary every axis;
    # the grid block leaves the axes after the 4th at the box centre
    reverse = delta.negated()
    flow_residual = 0.0
    for start in points[-_FLOW_SAMPLES:]:
        far = integrate(reverse.ode_rhs, start, 2.0 * _FLOW_TIME, rtol=1e-10, atol=1e-12)
        if far.status != "completed":
            flow_residual = math.inf
            break
        mid = far.sample(_FLOW_TIME)
        gap = float(np.max(np.abs(far.final_state - mid)))
        flow_residual = max(flow_residual, gap)

    residuals = [
        max_abs_on(_matrix_product(s, s), ctx, points),
        image_residual,
        max_abs_on(lie_entries, ctx, points),
        max_abs_on(torsion_entries, ctx, points),
        flow_residual,
    ]
    return residuals, bool(np.any(ranks < ctx.dim // 2))


def verify_tangent_structure(
    s: Tensor11Field,
    delta: VectorField,
    box: Box,
    *,
    field: VectorField | None = None,
    seed: int = 0,
    n_random: int = 500,
    tol: float = 1e-9,
) -> VerificationReport:
    """Check the structure axioms for (s, delta) over a sampled domain.

    Axioms, in report order:

    * ``S_squared_zero``       -- S composed with itself vanishes;
    * ``delta_in_image_S``     -- delta lies in the image of S pointwise (and
                                  is killed by S, which follows once inside);
    * ``lie_delta_S_plus_S``   -- L_delta S = -S;
    * ``nijenhuis_torsion``    -- N_S vanishes on all coordinate basis pairs;
    * ``backward_flow_limit``  -- the reverse flow of delta settles: from the
                                  last ``_FLOW_SAMPLES`` (5) sample points, the
                                  positions after time ``_FLOW_TIME`` (20) and
                                  twice that agree within ``_FLOW_TOL`` (1e-6);
    * ``sode_condition``       -- only when ``field`` is given: S(field) = delta.

    When (s, delta) is, tree for tree, ``canonical_tangent_structure`` of
    the context, the first five axioms are identities: residual 0.0, basis
    ``"by_construction"``, nothing sampled, decomposed or integrated.  Any
    other pair, and ``sode_condition`` always, is checked with basis
    ``"sampled"`` on ``box.sample``: an 11-point grid on the first four axes
    plus ``n_random`` seeded draws; ``samples`` counts the points (0 if none).
    The flow starts are seeded uniform draws unless the box's exclusion
    leaves fewer than five, when the end of the grid tops them up.

    Where the pointwise rank of a sampled S drops below half the dimension
    the kernel strictly contains the image; this is reported via
    ``degenerate_rank``, not as a failure.  One SVD of the sampled S serves
    the image check and this rank count; S squared is formed symbolically, so
    it stays exact where an entry of S is singular.
    """
    ctx = _same_ctx(s, delta)
    canonical = ctx.dim % 2 == 0 and (s, delta) == canonical_tangent_structure(ctx)
    points = None
    if not canonical or field is not None:
        points = box.sample(seed=seed, n_random=n_random)
    if canonical:
        residuals, degenerate, basis = [0.0] * 5, False, "by_construction"
    else:
        residuals, degenerate = _structure_residuals(s, delta, points)
        basis = "sampled"
    names = ("S_squared_zero", "delta_in_image_S", "lie_delta_S_plus_S",
             "nijenhuis_torsion", "backward_flow_limit")
    bounds = (tol, tol, tol, tol, _FLOW_TOL)
    axioms = [
        AxiomCheck(name, residual, bound, residual <= bound, basis)
        for name, residual, bound in zip(names, residuals, bounds)
    ]

    if field is not None:
        worst = max_abs_on(sode_residual(s, delta, field).components, ctx, points)
        axioms.append(AxiomCheck("sode_condition", worst, tol, worst <= tol))

    samples = 0 if points is None else len(points)
    return VerificationReport(axioms, samples, seed, degenerate_rank=degenerate)
