"""Lie calculus identities, torsion oracle, structure verification."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sodelab.expr import VariableContext, add, parse, qv_context
from sodelab.fields import (
    Box,
    PointMap,
    ScalarField,
    Tensor11Field,
    TwoFormField,
    VectorField,
    canonical_symplectic,
    canonical_tangent_structure,
)
from sodelab.geometry import (
    AxiomCheck,
    VerificationReport,
    _image_and_rank,
    apply_tensor,
    basis_field,
    interior_twoform,
    lagrange_residual,
    lie_bracket,
    lie_oneform,
    lie_scalar,
    lie_tensor11,
    nijenhuis_pair,
    pullback_twoform,
    sode_residual,
    theta_from_lagrangian,
    verify_tangent_structure,
)

AB = VariableContext.of("a", "b")
CTX1 = qv_context(1)
CTX2 = qv_context(2)

SAMPLE_POINTS_2D = [(0.7, -1.2), (1.3, 0.4), (-0.5, 0.9), (2.0, 2.0)]


def field_ab(*comps):
    return VectorField.of(AB, *comps)


class TestLieIdentities:
    """Structural identities that hold for any smooth inputs."""

    X = field_ab("a*b", "sin(a)")
    Y = field_ab("b^2", "a - b")
    G = ScalarField(AB, "exp(a)*cos(b)")

    def test_bracket_against_second_derivatives(self):
        # L_X L_Y g - L_Y L_X g = L_[X,Y] g
        lhs = lie_scalar(self.X, lie_scalar(self.Y, self.G))
        rhs = lie_scalar(self.Y, lie_scalar(self.X, self.G))
        via_bracket = lie_scalar(lie_bracket(self.X, self.Y), self.G)
        for p in SAMPLE_POINTS_2D:
            assert lhs(p) - rhs(p) == pytest.approx(via_bracket(p), rel=1e-12, abs=1e-12)

    def test_bracket_antisymmetry(self):
        xy = lie_bracket(self.X, self.Y)
        yx = lie_bracket(self.Y, self.X)
        for p in SAMPLE_POINTS_2D:
            np.testing.assert_allclose(xy(p), -yx(p), atol=1e-13)

    def test_jacobi_identity(self):
        Z = field_ab("cos(b)", "a^2")
        total = None
        for u, v, w in ((self.X, self.Y, Z), (self.Y, Z, self.X), (Z, self.X, self.Y)):
            term = lie_bracket(u, lie_bracket(v, w))
            total = term if total is None else VectorField(
                AB,
                tuple(
                    add(ti, ci) for ti, ci in zip(total.components, term.components)
                ),
            )
        for p in SAMPLE_POINTS_2D:
            np.testing.assert_allclose(total(p), 0.0, atol=1e-12)

    def test_oneform_pairing_rule(self):
        # L_X(alpha(Y)) = (L_X alpha)(Y) + alpha([X, Y])
        from sodelab.fields import OneFormField

        alpha = OneFormField(AB, ("a^2*b", "cos(a)"))
        pairing = ScalarField(
            AB,
            parse("(a^2*b)*(b^2) + cos(a)*(a - b)", AB),
        )
        lhs = lie_scalar(self.X, pairing)
        moved = lie_oneform(self.X, alpha)
        bracket = lie_bracket(self.X, self.Y)
        for p in SAMPLE_POINTS_2D:
            rhs = float(moved(p) @ self.Y(p)) + float(alpha(p) @ bracket(p))
            assert lhs(p) == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_tensor_leibniz_rule(self):
        # (L_X T)(Y) = [X, T Y] - T([X, Y])
        T = Tensor11Field(AB, (("a*b", "a^2"), ("b^2 - 1", "sin(a)")))
        moved = lie_tensor11(self.X, T)
        lhs = apply_tensor(moved, self.Y)
        rhs_a = lie_bracket(self.X, apply_tensor(T, self.Y))
        rhs_b = apply_tensor(T, lie_bracket(self.X, self.Y))
        for p in SAMPLE_POINTS_2D:
            np.testing.assert_allclose(lhs(p), rhs_a(p) - rhs_b(p), atol=1e-11)


class TestNijenhuisOracle:
    """Dual-route check of the torsion computation.

    Oracle route: the coordinate formula
    N^i_ab = S^j_a d_j S^i_b - S^j_b d_j S^i_a + S^i_j d_b S^j_a - S^i_j d_a S^j_b
    evaluated with central differences on the tensor entries.  Package route:
    brackets of contracted basis fields.  The two derivations share no code.
    """

    T = Tensor11Field(AB, (("a*b", "a^2"), ("b^2 - 1", "sin(a)")))

    def numeric_torsion(self, point, a, b, h=1e-6):
        dim = 2
        point = np.asarray(point, dtype=float)

        def s_at(p):
            return self.T(p)

        def ds(direction):
            dp = np.zeros(dim)
            dp[direction] = h
            return (s_at(point + dp) - s_at(point - dp)) / (2 * h)

        s0 = s_at(point)
        grads = [ds(k) for k in range(dim)]
        out = np.zeros(dim)
        for i in range(dim):
            acc = 0.0
            for j in range(dim):
                acc += s0[j, a] * grads[j][i, b] - s0[j, b] * grads[j][i, a]
                acc += s0[i, j] * (grads[b][j, a] - grads[a][j, b])
            out[i] = acc
        return out

    @pytest.mark.parametrize("point", SAMPLE_POINTS_2D)
    def test_symbolic_matches_numeric(self, point):
        symbolic = nijenhuis_pair(self.T, basis_field(AB, 0), basis_field(AB, 1))
        np.testing.assert_allclose(
            symbolic(point), self.numeric_torsion(point, 0, 1), rtol=1e-6, atol=1e-7
        )

    def test_antisymmetry_in_arguments(self):
        n01 = nijenhuis_pair(self.T, basis_field(AB, 0), basis_field(AB, 1))
        n10 = nijenhuis_pair(self.T, basis_field(AB, 1), basis_field(AB, 0))
        for p in SAMPLE_POINTS_2D:
            np.testing.assert_allclose(n01(p), -n10(p), atol=1e-12)

    def test_canonical_structure_is_torsion_free(self):
        s, _ = canonical_tangent_structure(CTX2)
        for a in range(4):
            for b in range(a + 1, 4):
                n = nijenhuis_pair(s, basis_field(CTX2, a), basis_field(CTX2, b))
                assert all(str(c) == "0" for c in n.components)


class TestVariationalResiduals:
    def test_oscillator_lagrangian_closes(self):
        s, _ = canonical_tangent_structure(CTX1)
        lagr = ScalarField(CTX1, "(v1^2 - q1^2)/2")
        gamma = VectorField.of(CTX1, "v1", "-q1")
        residual = lagrange_residual(lagr, gamma, s)
        for p in [(0.3, 1.7), (-1.1, 0.2)]:
            np.testing.assert_allclose(residual(p), 0.0, atol=1e-14)

    def test_free_lagrangian_rejects_oscillator_field(self):
        s, _ = canonical_tangent_structure(CTX1)
        lagr = ScalarField(CTX1, "v1^2/2")
        gamma = VectorField.of(CTX1, "v1", "-q1")
        residual = lagrange_residual(lagr, gamma, s)
        # defect reduces to (-q1, 0)
        np.testing.assert_allclose(residual((0.5, 2.0)), [-0.5, 0.0], atol=1e-14)

    def test_theta_components(self):
        s, _ = canonical_tangent_structure(CTX1)
        lagr = ScalarField(CTX1, "v1^2/2")
        theta = theta_from_lagrangian(lagr, s)
        np.testing.assert_allclose(theta((3.0, 2.0)), [2.0, 0.0])


class TestHamiltonianSide:
    def test_interior_product(self):
        ctx = VariableContext.of("q1", "p1")
        omega = canonical_symplectic(ctx)
        x = VectorField.of(ctx, "1", "0")
        np.testing.assert_allclose(interior_twoform(omega, x)((0.0, 0.0)), [0.0, 1.0])


class TestPullback:
    def test_area_form_through_polar_map(self):
        xy = VariableContext.of("x", "y")
        ra = VariableContext.of("r", "a")
        area = TwoFormField(xy, ((0.0, 1.0), (-1.0, 0.0)))
        polar = PointMap(ra, xy, ("r*cos(a)", "r*sin(a)"))
        pulled = pullback_twoform(area, polar)
        for r, ang in [(1.0, 0.3), (2.5, -1.2), (0.5, 2.0)]:
            np.testing.assert_allclose(
                pulled((r, ang)), [[0.0, r], [-r, 0.0]], atol=1e-13
            )

    def test_context_mismatch_rejected(self):
        xy = VariableContext.of("x", "y")
        area = TwoFormField(xy, ((0.0, 1.0), (-1.0, 0.0)))
        wrong = PointMap(xy, VariableContext.of("u", "w"), ("x", "y"))
        with pytest.raises(ValueError):
            pullback_twoform(area, wrong)


class TestSodeResidual:
    def test_second_order_field_accepted(self):
        s, delta = canonical_tangent_structure(CTX2)
        gamma = VectorField.of(CTX2, "v1", "v2", "-q1", "-q2")
        residual = sode_residual(s, delta, gamma)
        assert all(str(c) == "0" for c in residual.components)

    def test_first_order_field_rejected(self):
        s, delta = canonical_tangent_structure(CTX2)
        gamma = VectorField.of(CTX2, "q1", "q2", "-q1", "-q2")
        residual = sode_residual(s, delta, gamma)
        value = residual((1.0, 2.0, 3.0, 4.0))
        assert np.max(np.abs(value)) > 0.5


class TestVerification:
    def box(self, ctx):
        return Box.cube(ctx, 2.0)

    def verify(self, s, delta, ctx, **kw):
        kw.setdefault("n_random", 100)
        return verify_tangent_structure(s, delta, self.box(ctx), **kw)

    def test_canonical_structure_passes(self):
        s, delta = canonical_tangent_structure(CTX2)
        gamma = VectorField.of(CTX2, "v1", "v2", "-q1", "-q2")
        report = self.verify(s, delta, CTX2, field=gamma)
        assert report.verdict == "pass"
        assert not report.degenerate_rank
        names = [check.name for check in report.axioms]
        assert names == [
            "S_squared_zero",
            "delta_in_image_S",
            "lie_delta_S_plus_S",
            "nijenhuis_torsion",
            "backward_flow_limit",
            "sode_condition",
        ]

    def test_sign_flipped_dilation_fails_flow_and_lie(self):
        s, delta = canonical_tangent_structure(CTX2)
        report = self.verify(s, delta.negated(), CTX2)
        assert report.verdict == "fail"
        assert not report.check("lie_delta_S_plus_S").passed
        assert not report.check("backward_flow_limit").passed
        assert report.check("S_squared_zero").passed

    def test_twisted_endomorphism_fails_torsion(self):
        rows = [[0.0] * 4 for _ in range(4)]
        rows[2][0] = 1.0
        rows[3][1] = 1.0
        twisted = [[str(v) for v in row] for row in rows]
        twisted[3][0] = "sin(v2)"  # fiber-dependent twist
        s = Tensor11Field(CTX2, tuple(tuple(row) for row in twisted))
        _, delta = canonical_tangent_structure(CTX2)
        report = self.verify(s, delta, CTX2)
        assert not report.check("nijenhuis_torsion").passed
        assert report.check("S_squared_zero").passed
        assert report.verdict == "fail"

    def test_dilation_outside_image_detected(self):
        s, _ = canonical_tangent_structure(CTX2)
        bad = VectorField.of(CTX2, "q1", "0", "v1", "v2")  # base component leaks in
        report = self.verify(s, bad, CTX2)
        assert not report.check("delta_in_image_S").passed

    def test_rank_deficit_flagged_not_failed(self):
        rows = np.zeros((4, 4))
        rows[2, 0] = 1.0
        s = Tensor11Field.constant(CTX2, rows)
        delta = VectorField.of(CTX2, "0", "0", "v1", "0")
        report = self.verify(s, delta, CTX2)
        assert report.degenerate_rank
        assert report.verdict == "pass"

    def test_verdict_is_derived_from_the_axioms(self):
        passing = AxiomCheck("a", 0.0, 1e-9, True)
        failing = AxiomCheck("b", 1.0, 1e-9, False)
        with pytest.raises(TypeError):
            VerificationReport([failing], 0, 0, False, verdict="pass")
        report = VerificationReport([passing], 0, 0, degenerate_rank=False)
        assert report.verdict == "pass"
        report.axioms.append(failing)
        assert report.verdict == "fail"
        assert report.to_json()["verdict"] == "fail"

    def test_field_changes_sode_outcome(self):
        s, delta = canonical_tangent_structure(CTX1)
        good = VectorField.of(CTX1, "v1", "-q1 + v1^2")
        bad = VectorField.of(CTX1, "q1", "-q1")
        ok = self.verify(s, delta, CTX1, field=good)
        assert ok.check("sode_condition").passed
        broken = self.verify(s, delta, CTX1, field=bad)
        assert not broken.check("sode_condition").passed

    def test_report_json_shape(self):
        s, delta = canonical_tangent_structure(CTX1)
        gamma = VectorField.of(CTX1, "v1", "-q1")
        report = self.verify(s, delta, CTX1, field=gamma, seed=3)
        payload = report.to_json()
        assert payload["verdict"] == "pass"
        assert payload["seed"] == 3
        assert payload["samples"] > 0
        assert payload["flags"] == {"degenerate_rank": False}
        for check in payload["axioms"]:
            assert set(check) == {"name", "max_residual", "tolerance", "pass", "basis"}
        assert [check["basis"] for check in payload["axioms"]] == (
            ["by_construction"] * 5 + ["sampled"]
        )

    def test_singular_endomorphism_pinned(self):
        # S squared folds to the zero tree, so it is exact where 1/q1 is inf;
        # the sampled stack is not, and the image check reads inf there
        s = Tensor11Field(CTX1, (("0", "0"), ("1/q1", "0")))
        _, delta = canonical_tangent_structure(CTX1)
        box = Box.cube(CTX1, 1.0)
        report = verify_tangent_structure(s, delta, box, n_random=20)
        assert report.check("S_squared_zero").max_residual == 0.0
        assert report.check("delta_in_image_S").max_residual == math.inf
        assert report.degenerate_rank
        assert report.verdict == "fail"

    def test_samples_reflect_exclusion(self):
        s, delta = canonical_tangent_structure(CTX1)
        gamma = VectorField.of(CTX1, "v1", "-q1")
        tight = Box.cube(CTX1, 1.0, exclude_radius=0.5)
        loose = Box.cube(CTX1, 1.0)
        r1 = verify_tangent_structure(
            s, delta, tight, field=gamma, n_random=50
        )
        r2 = verify_tangent_structure(
            s, delta, loose, field=gamma, n_random=50
        )
        assert 0 < r1.samples < r2.samples

    def test_sign_flipped_dilation_fails_flow_past_the_grid_axes(self):
        # the grid block spans the first 4 axes only; the flow starts must
        # also move the fiber axes after them
        ctx = qv_context(4)
        s, delta = canonical_tangent_structure(ctx)
        report = self.verify(s, delta.negated(), ctx)
        assert not report.check("backward_flow_limit").passed

    def test_canonical_pair_holds_by_construction(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a canonical pair must not be sampled")

        monkeypatch.setattr("sodelab.geometry.integrate", refuse)
        monkeypatch.setattr(np.linalg, "svd", refuse)
        s, delta = canonical_tangent_structure(CTX2)
        report = self.verify(s, delta, CTX2)
        assert report.samples == 0
        assert report.verdict == "pass"
        assert not report.degenerate_rank
        for check in report.to_json()["axioms"]:
            assert check["basis"] == "by_construction"
            assert check["max_residual"] == 0.0 and check["pass"]
        assert report.check("backward_flow_limit").tolerance == 1e-6
        assert report.check("nijenhuis_torsion").tolerance == 1e-9

    def test_equal_values_in_another_tree_are_sampled(self):
        s, _ = canonical_tangent_structure(CTX2)
        delta = VectorField.of(CTX2, "0", "0", "v1 + q1 - q1", "v2")
        report = self.verify(s, delta, CTX2)
        assert report.samples > 0
        assert report.verdict == "pass"
        assert {check.basis for check in report.axioms} == {"sampled"}

    def test_odd_dimension_is_sampled(self):
        ctx = VariableContext.of("x")
        s = Tensor11Field(ctx, (("0",),))
        delta = VectorField.of(ctx, "0")
        report = self.verify(s, delta, ctx)
        assert report.samples > 0
        assert report.check("S_squared_zero").basis == "sampled"


def _pinv_image_residual(s_stack, delta_stack):
    """The image residual through np.linalg.pinv: the test-only oracle."""
    pinv = np.linalg.pinv(s_stack)
    projected = np.einsum("mij,mjk,mk->mi", s_stack, pinv, delta_stack)
    membership = float(np.max(np.abs(projected - delta_stack)))
    killed = float(np.max(np.abs(np.einsum("mij,mj->mi", s_stack, delta_stack))))
    residual = max(membership, killed)
    return math.inf if math.isnan(residual) else residual


# small integers: many exact zeros, and an exact rank whose nonzero singular
# values stay far above the 1e-9 rank threshold
_SMALL_INTS = st.integers(-3, 3).map(float)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_one_svd_matches_pinv_and_matrix_rank(data):
    m = data.draw(st.integers(1, 4), label="points")
    dim = data.draw(st.integers(1, 4), label="dim")
    rank = data.draw(st.integers(0, dim), label="rank")
    left = data.draw(arrays(float, (m, dim, rank), elements=_SMALL_INTS))
    right = data.draw(arrays(float, (m, rank, dim), elements=_SMALL_INTS))
    s_stack = left @ right
    x = data.draw(arrays(float, (m, dim), elements=_SMALL_INTS))
    if data.draw(st.booleans(), label="delta in the image"):
        delta_stack = np.einsum("mij,mj->mi", s_stack, x)
    else:
        delta_stack = x
    residual, ranks = _image_and_rank(s_stack, delta_stack)
    np.testing.assert_array_equal(ranks, np.linalg.matrix_rank(s_stack, tol=1e-9))
    # S pinv(S) loses accuracy as the condition number of S grows, so the two
    # residuals agree to within the oracle's own rounding
    sigma = np.linalg.svd(s_stack, compute_uv=False)
    kept = sigma[sigma > 1e-9]
    cond = kept.max() / kept.min() if kept.size else 1.0
    scale = max(1.0, float(np.max(np.abs(delta_stack))))
    oracle = _pinv_image_residual(s_stack, delta_stack)
    assert abs(residual - oracle) <= 1e3 * np.finfo(float).eps * cond * scale


def test_nan_in_s_reads_as_an_infinite_image_residual():
    # S = [[0, 0], [sqrt(x1), 0]] is nan for x1 < 0: those points must not
    # reach the SVD, and the residual there reads inf
    ctx = VariableContext.of("x1", "x2")
    s = Tensor11Field(ctx, (("0", "0"), ("sqrt(x1)", "0")))
    delta = VectorField.of(ctx, "0", "x2")
    report = verify_tangent_structure(s, delta, Box.cube(ctx, 2.0))
    assert report.check("delta_in_image_S").max_residual == math.inf
    assert report.verdict == "fail"


def test_non_finite_s_has_rank_zero_and_an_infinite_residual():
    s_stack = np.array([[[1.0, 0.0], [0.0, 0.0]], [[np.nan, 0.0], [0.0, 1.0]],
                        [[np.inf, 0.0], [0.0, 1.0]]])
    delta_stack = np.zeros((3, 2))
    residual, ranks = _image_and_rank(s_stack, delta_stack)
    assert residual == math.inf
    assert ranks.tolist() == [1, 0, 0]
