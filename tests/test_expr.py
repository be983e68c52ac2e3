"""Expression engine: parsing, printing, differentiation, evaluation."""

import builtins
import gc
import itertools
import math
import operator
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sodelab.errors import (
    EvaluationDomainError,
    ExpressionDepthError,
    ExprSyntaxError,
    NonFiniteConstantError,
    UnboundVariableError,
    UnknownIdentifierError,
)
from sodelab import expr
from sodelab.expr import (
    Add,
    Call,
    Const,
    Div,
    Mul,
    Neg,
    Pow,
    Sub,
    Var,
    VariableContext,
    compile_scalar,
    differentiate,
    evaluate,
    free_variables,
    parse,
    qv_context,
    substitute,
    to_source,
)
from sodelab.dynamics import _derivative
from sodelab.fields import ScalarField, VectorField, evaluate_on, max_abs_on, vectorized_scalar

CTX = VariableContext.of("q1", "v1", "x", "y")


def _env(point):
    """A point of ``CTX`` as an evaluation environment."""
    return dict(zip(CTX.names, map(float, point)))


def _clock_and_probe():
    """The kepler-clock scenario, and the probe field with components
    (next coordinate)^2 - (coordinate), both built afresh."""
    from sodelab import scenarios

    clock = scenarios.get_conformal_scenario("kepler-clock")
    names = clock.ctx.names
    return clock, VectorField(clock.ctx, tuple(
        parse(f"{names[(i + 1) % len(names)]}^2 - {name}", clock.ctx)
        for i, name in enumerate(names)
    ))


def central_difference(e, name, env, h=1e-6):
    hi = dict(env)
    lo = dict(env)
    hi[name] += h
    lo[name] -= h
    return (evaluate(e, hi) - evaluate(e, lo)) / (2 * h)


class TestParsing:
    def test_product_of_sums(self):
        ctx = VariableContext.of("y0", "y1", "y2", "y3")
        e = parse("2*(y0*y1 + y2*y3)", ctx)
        assert evaluate(e, {"y0": 1.0, "y1": 2.0, "y2": 3.0, "y3": 4.0}) == 28.0

    def test_precedence_mul_over_add(self):
        e = parse("1 + 2*3", CTX)
        assert evaluate(e, {}) == 7.0

    def test_power_right_associative(self):
        e = parse("2^3^2", CTX)
        assert evaluate(e, {}) == 512.0

    def test_power_binds_tighter_than_mul(self):
        e = parse("2*x^2", CTX)
        assert evaluate(e, {"x": 3.0}) == 18.0

    def test_unary_minus_binds_inside_power(self):
        # grammar places '-' in base, so -x^2 means (-x)^2
        e = parse("-x^2", CTX)
        assert evaluate(e, {"x": 3.0}) == 9.0

    def test_explicit_parens_override(self):
        e = parse("-(x^2)", CTX)
        assert evaluate(e, {"x": 3.0}) == -9.0

    def test_scientific_notation(self):
        assert evaluate(parse("1.5e2", CTX), {}) == 150.0
        assert evaluate(parse(".5", CTX), {}) == 0.5

    def test_function_application(self):
        e = parse("sin(x)^2 + cos(x)^2", CTX)
        assert evaluate(e, {"x": 0.7}) == pytest.approx(1.0, abs=1e-15)

    def test_division_left_associative(self):
        assert evaluate(parse("8/4/2", CTX), {}) == 1.0

    def test_subtraction_left_associative(self):
        assert evaluate(parse("8-4-2", CTX), {}) == 2.0

    def test_truncated_input_reports_offset(self):
        with pytest.raises(ExprSyntaxError) as info:
            parse("1+", CTX)
        assert info.value.position == 2

    def test_unknown_identifier_rejected(self):
        with pytest.raises(UnknownIdentifierError) as info:
            parse("x + zz", CTX)
        assert info.value.name == "zz"
        assert info.value.position == 4

    def test_unknown_function_rejected(self):
        with pytest.raises(UnknownIdentifierError):
            parse("tan(x)", CTX)

    def test_unbalanced_paren(self):
        with pytest.raises(ExprSyntaxError):
            parse("(x + 1", CTX)

    def test_garbage_character(self):
        with pytest.raises(ExprSyntaxError) as info:
            parse("x + $", CTX)
        assert info.value.position == 4

    def test_trailing_token(self):
        with pytest.raises(ExprSyntaxError):
            parse("x 1", CTX)

    @pytest.mark.parametrize("source, offset", [("x + 1e309", 4), ("1e400*x", 0)])
    def test_literal_out_of_float_range_rejected(self, source, offset):
        with pytest.raises(ExprSyntaxError, match="out of float range") as info:
            parse(source, CTX)
        assert info.value.position == offset
        assert parse("x + 1.7976931348623157e308", CTX) == Add(Var("x"), Const(1.7976931348623157e308))


# the recursive-descent parser that the precedence loop replaced, kept as a reference
_REFERENCE_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()])"
)


def _reference_tokenize(source):
    tokens = []
    pos = 0
    while pos < len(source):
        if source[pos].isspace():
            pos += 1
            continue
        match = _REFERENCE_TOKEN_RE.match(source, pos)
        if match is None:
            raise ExprSyntaxError(f"unexpected character '{source[pos]}'", pos)
        kind = match.lastgroup or "op"
        tokens.append((kind, match.group(), pos))
        pos = match.end()
    tokens.append(("end", "", len(source)))
    return tokens


class _ReferenceParser:
    def __init__(self, tokens, ctx):
        self.tokens = tokens
        self.ctx = ctx
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        token = self.tokens[self.i]
        self.i += 1
        return token

    def expect_op(self, text):
        kind, value, pos = self.peek()
        if kind != "op" or value != text:
            raise ExprSyntaxError(f"expected '{text}'", pos)
        self.advance()

    def parse_expr(self):
        node = self.parse_term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                rhs = self.parse_term()
                node = expr.add(node, rhs) if value == "+" else expr.sub(node, rhs)
            else:
                return node

    def parse_term(self):
        node = self.parse_factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                rhs = self.parse_factor()
                node = expr.mul(node, rhs) if value == "*" else expr.div(node, rhs)
            else:
                return node

    def parse_factor(self):
        base = self.parse_base()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            exponent = self.parse_factor()  # right-associative
            return expr.pow_(base, exponent)
        return base

    def parse_base(self):
        kind, value, pos = self.advance()
        if kind == "num":
            number = float(value)
            if not math.isfinite(number):
                raise ExprSyntaxError(f"number '{value}' is out of float range", pos)
            return Const(number)
        if kind == "ident":
            next_kind, next_value, _ = self.peek()
            if next_kind == "op" and next_value == "(":
                if value not in expr._FUNCTIONS:
                    raise UnknownIdentifierError(value, pos)
                self.advance()
                inner = self.parse_expr()
                self.expect_op(")")
                return expr.call(value, inner)
            if value not in self.ctx:
                raise UnknownIdentifierError(value, pos)
            return Var(value)
        if kind == "op" and value == "(":
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        if kind == "op" and value == "-":
            return expr.neg(self.parse_base())
        if kind == "end":
            raise ExprSyntaxError("unexpected end of input", pos)
        raise ExprSyntaxError(f"unexpected token '{value}'", pos)


def _reference_parse(source, ctx):
    parser = _ReferenceParser(_reference_tokenize(source), ctx)
    node = parser.parse_expr()
    kind, value, pos = parser.peek()
    if kind != "end":
        raise ExprSyntaxError(f"unexpected token '{value}'", pos)
    return node


def _parsed(parser, source, ctx=CTX):
    """The tree ``parser`` returns, or the class, text and offset of its syntax error."""
    try:
        return parser(source, ctx)
    except ExprSyntaxError as error:
        return type(error), str(error), error.position


def _assert_parsers_agree(source, ctx=CTX):
    got, want = _parsed(parse, source, ctx), _parsed(_reference_parse, source, ctx)
    assert got is want if isinstance(want, expr.Expression) else got == want, source


_SPACES = (" ", "\t", "\n", "\x0b", "\x1c", "\x85", "\xa0", "\u2003", "\u2028", "\u3000")
_TEXT_PIECES = st.sampled_from(
    (*CTX.names, *"0123456789", ".", "e", "E", *"+-*/^()", *expr._FUNCTIONS, "tan", "$", "_",
     *_SPACES)
)
# operands between operators, which mostly parse: each an optional '-', a
# number, coordinate, call or parenthesised text, then an operator
_OPERAND_RUNS = st.lists(st.tuples(
    st.sampled_from(("", "", "-", "--")),
    st.sampled_from((*CTX.names, "2", "0", ".5", "1e3", "2.5e-1", "sin(x)", "sqrt(y^2)",
                     "(x - y)", "(2*q1)", "-(v1/2)^3", "(x^-y", "x)")),
    st.sampled_from(tuple("+-*/^")),
), min_size=1, max_size=8).map(lambda runs: "".join(map("".join, runs))[:-1])
_TEXTS = st.one_of(st.lists(_TEXT_PIECES, max_size=16).map("".join), _OPERAND_RUNS)


class TestAgainstReferenceParser:
    @settings(max_examples=500, deadline=None)
    @given(_TEXTS)
    @example("-x^2*3/-(q1 - .5e-3)^y^2")
    @example("sin(x)^2 + 1e400")
    @example("2 +\u2003\u3000sqrt(x $")
    def test_short_texts_parse_as_the_reference_parses_them(self, source):
        _assert_parsers_agree(source)

    def test_every_library_text_parses_as_the_reference_parses_it(self, monkeypatch):
        from sodelab import foscillator, kepler, scenarios

        texts = []

        def recorded(source, ctx):
            texts.append((source, ctx))
            return parse(source, ctx)

        for name, module in list(sys.modules.items()):
            if name.startswith("sodelab") and getattr(module, "parse", None) is parse:
                monkeypatch.setattr(module, "parse", recorded)
        scenarios.sode_scenarios()
        scenarios.conformal_scenarios()
        for build in (kepler.chart_field, kepler.unfolded_field, kepler.rescaled_field,
                      kepler.kepler3d_field, kepler.chart_energy, kepler.energy,
                      kepler.lagrangian, kepler.conformal_factor, kepler.constraint_field,
                      kepler.tangent_map):
            build()
        kepler.shell_field(-0.5)
        for n in (1, 2, 3):
            foscillator.make_oscillator(n)
        foscillator.linear_deformation(2.0)
        foscillator.power_deformation(2.0)
        foscillator.kepler_matching_deformation(1.0)
        assert len(texts) > 100
        for source, ctx in texts:
            _assert_parsers_agree(source, ctx)


class TestEvaluation:
    def test_env_not_mutated(self):
        env = {"x": 2.0}
        snapshot = dict(env)
        evaluate(parse("x^2 + x", CTX), env)
        assert env == snapshot

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariableError):
            evaluate(parse("x + y", CTX), {"x": 1.0})

    def test_division_by_zero(self):
        with pytest.raises(EvaluationDomainError):
            evaluate(parse("1/x", CTX), {"x": 0.0})

    def test_log_domain(self):
        with pytest.raises(EvaluationDomainError):
            evaluate(parse("log(x)", CTX), {"x": -1.0})

    def test_sqrt_domain(self):
        with pytest.raises(EvaluationDomainError):
            evaluate(parse("sqrt(x)", CTX), {"x": -4.0})

    def test_fractional_power_of_negative(self):
        with pytest.raises(EvaluationDomainError):
            evaluate(parse("x^0.5", CTX), {"x": -1.0})

    def test_overflow_saturates_to_inf(self):
        assert evaluate(parse("exp(x)", CTX), {"x": 1e4}) == math.inf
        assert evaluate(parse("x^x", CTX), {"x": 1e4}) == math.inf

    def test_integer_power_of_negative_base(self):
        assert evaluate(parse("x^3", CTX), {"x": -2.0}) == -8.0

    def test_values_are_bound_as_python_floats(self):
        # a numpy zero would divide to inf with a warning, not a domain error
        with pytest.raises(EvaluationDomainError):
            evaluate(parse("1/x", CTX), {"x": np.float64(0.0)})
        value = evaluate(parse("x", CTX), {"x": 3})
        assert type(value) is float and value == 3.0
        assert type(evaluate(parse("x*y", CTX), {"x": np.float64(2.0), "y": 3})) is float


class TestDifferentiation:
    def test_product_with_exp(self):
        ctx = qv_context(1)
        e = parse("exp(q1*v1)", ctx)
        d = differentiate(e, "q1")
        expected = parse("v1*exp(q1*v1)", ctx)
        for q1 in (-1.3, 0.0, 0.7, 2.0):
            for v1 in (-0.5, 0.1, 1.9):
                env = {"q1": q1, "v1": v1}
                assert evaluate(d, env) == pytest.approx(
                    evaluate(expected, env), rel=1e-14
                )

    def test_integer_power_rule(self):
        e = parse("q1^2", qv_context(1))
        d = differentiate(e, "q1")
        assert evaluate(d, {"q1": 3.5}) == 7.0
        # valid for negative bases too since the exponent stays integral
        assert evaluate(d, {"q1": -2.0}) == -4.0

    def test_derivative_of_unrelated_variable_is_zero(self):
        e = parse("x^2 + sin(x)", CTX)
        assert differentiate(e, "y") == Const(0.0)

    def test_quotient_rule(self):
        e = parse("x/y", CTX)
        env = {"x": 3.0, "y": 2.0}
        assert evaluate(differentiate(e, "x"), env) == pytest.approx(0.5)
        assert evaluate(differentiate(e, "y"), env) == pytest.approx(-0.75)

    def test_a_denominator_free_of_the_variable_is_not_squared(self):
        # d(a/c) = a'/c: c*c overflows for c above about 1.3e154
        d = differentiate(parse("x/1e200", CTX), "x")
        assert evaluate(d, {"x": 0.5}) == 1e-200
        assert differentiate(parse("sin(x)/y", CTX), "x") is parse("cos(x)/y", CTX)

    def test_chain_through_sqrt(self):
        e = parse("sqrt(x^2 + y^2)", CTX)
        env = {"x": 3.0, "y": 4.0}
        assert evaluate(differentiate(e, "x"), env) == pytest.approx(0.6)

    def test_abs_away_from_zero(self):
        e = parse("abs(x)", CTX)
        assert evaluate(differentiate(e, "x"), {"x": -2.0}) == -1.0
        assert evaluate(differentiate(e, "x"), {"x": 5.0}) == 1.0

    def test_variable_exponent(self):
        e = parse("x^y", CTX)
        env = {"x": 2.0, "y": 3.0}
        # d/dy x^y = x^y log x
        assert evaluate(differentiate(e, "y"), env) == pytest.approx(
            8.0 * math.log(2.0), rel=1e-14
        )

    @pytest.mark.parametrize(
        "source,point",
        [
            ("sin(x)*cos(y) + x^3", {"x": 0.8, "y": -0.3}),
            ("exp(-(x^2) - y^2)", {"x": 0.5, "y": 0.25}),
            ("log(1 + x^2)/sqrt(4 + y^2)", {"x": 1.2, "y": 0.4}),
            ("(x + y)^4 - x/(1 + y^2)", {"x": -0.7, "y": 0.9}),
            ("sqrt(x^2 + 1)^3", {"x": 0.33, "y": 0.0}),
            ("x^2.5 + 2^x", {"x": 1.7, "y": 0.0}),
        ],
    )
    def test_against_central_difference(self, source, point):
        e = parse(source, CTX)
        for name in ("x", "y"):
            symbolic = evaluate(differentiate(e, name), point)
            numeric = central_difference(e, name, point)
            assert symbolic == pytest.approx(numeric, rel=1e-6, abs=1e-8)


class TestStructuralOps:
    def test_free_variables(self):
        e = parse("x*sin(y) + q1", CTX)
        assert free_variables(e) == frozenset({"x", "y", "q1"})
        assert free_variables(Const(4.0)) == frozenset()

    def test_free_variables_of_deep_and_shared_trees(self):
        chain = Var("x")
        for _ in range(5_000):  # deeper than the interpreter's recursion limit
            chain = Sub(Var("y"), chain)
        assert free_variables(chain) == frozenset({"x", "y"})
        shared = Var("q1")
        for _ in range(24):  # 2^24 root-to-leaf paths over 25 distinct nodes
            shared = Mul(shared, shared)
        assert free_variables(Neg(shared)) == frozenset({"q1"})

    def test_substitute(self):
        e = parse("x^2 + y", CTX)
        s = substitute(e, {"x": parse("q1 + 1", CTX)})
        assert evaluate(s, {"q1": 2.0, "y": 5.0}) == 14.0

    def test_substitute_leaves_original_intact(self):
        e = parse("x + y", CTX)
        substitute(e, {"x": Const(0.0)})
        assert free_variables(e) == frozenset({"x", "y"})

    def test_nodes_hashable_and_comparable(self):
        a = parse("x + y", CTX)
        b = parse("x + y", CTX)
        assert a == b
        assert hash(a) == hash(b)

    def test_nodes_frozen(self):
        node = Var("x")
        with pytest.raises(Exception):
            node.name = "y"

    def test_folding_in_constructors(self):
        assert expr.add(Const(2.0), Const(3.0)) == Const(5.0)
        assert expr.mul(Var("x"), Const(0.0)) == Const(0.0)
        assert expr.mul(Var("x"), Const(1.0)) == Var("x")
        assert expr.pow_(Var("x"), Const(1.0)) == Var("x")
        # 0/x is not folded: it would hide a domain error at x = 0
        z = expr.div(Const(0.0), Var("x"))
        with pytest.raises(EvaluationDomainError):
            evaluate(z, {"x": 0.0})

    def test_two_constants_fold_where_their_float_result_is_finite(self):
        # no operand is 0 or 1, so no algebraic no-op decides the result
        values = (-2.5, 3.0, 1e308, -1e308, 5e-324, 1e-300, math.inf, -math.inf, math.nan)
        rows = ((expr.add, Add, operator.add), (expr.sub, Sub, operator.sub),
                (expr.mul, Mul, operator.mul), (expr.div, Div, operator.truediv))
        for build, node, fn in rows:
            for a, b in itertools.product(values, repeat=2):
                value = fn(a, b)
                want = Const(value) if math.isfinite(value) else node(Const(a), Const(b))
                assert build(Const(a), Const(b)) is want, (node, a, b)
        for zero in (0.0, -0.0):  # a division by zero stays a node, for evaluation to meet
            assert expr.div(Const(1.0), Const(zero)) is Div(Const(1.0), Const(zero))

    def test_constant_powers_and_calls_fold_as_evaluate_computes_them(self):
        # a square folds as b*b, as every backend squares, not through math.pow
        b = 359.739456325485
        assert parse(f"{b!r}^2", CTX) is Const(b * b) is Const(129412.47643735551)
        assert b * b != math.pow(b, 2.0)
        assert parse(f"{b!r}^2", CTX) is Const(evaluate(parse("x^2", CTX), {"x": b}))
        assert parse("2^0.5", CTX) is Const(math.sqrt(2.0))
        assert parse("sin(0.5)", CTX) is Const(math.sin(0.5))
        # a domain error or a non-finite value stays a node, for evaluation to meet
        for source in ("log(-1)", "sqrt(-4)", "(-1)^0.5", "0^(-1)", "exp(1000)", "10^400"):
            assert not isinstance(parse(source, CTX), Const)


class TestInterning:
    def test_equal_trees_built_apart_are_one_node(self):
        built = Add(Mul(Const(2), Var("x")), Call("sin", Neg(Var("y"))))
        assert parse("2*x + sin(-y)", CTX) is built
        folded = expr.add(
            expr.mul(Const(2.0), Var("x")), expr.call("sin", expr.neg(Var("y")))
        )
        assert folded is built
        assert parse("2*x + sin(-y)", CTX) is not parse("2*x + sin(y)", CTX)

    def test_constants_are_keyed_by_their_bits(self):
        assert Const(0.0) is not Const(-0.0)
        assert parse("-0", CTX) is Const(-0.0)
        payload = np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)[0]
        assert Const(math.nan) is Const(float("nan"))
        assert Const(float(payload)) is not Const(math.nan)

    def test_deep_chains_hash_and_compare_without_recursing(self):
        def chain(depth):
            tree = Var("x")
            for _ in range(depth):
                tree = Sub(Var("y"), tree)
            return tree

        deep = chain(2000)  # deeper than the interpreter's recursion limit
        assert hash(deep) == hash(chain(2000))
        assert deep == chain(2000)
        assert deep != chain(1999)

    def test_zero_derivatives_are_the_zero_node(self):
        # neg(ZERO) folds to Const(-0.0), a node of its own
        assert differentiate(Neg(Const(0.0)), "x") is Const(0.0)
        assert differentiate(parse("cos(y)", CTX), "x") is Const(0.0)
        assert differentiate(parse("-(x*y)", CTX), "q1") is Const(0.0)

    def test_trees_and_their_memos_go_when_nothing_holds_them(self):
        from sodelab import conformal

        gc.collect()
        before = len(expr._NODES)
        clock, probe = _clock_and_probe()
        points = clock.box.sample(n_random=50, grid_points=3)
        conformal.bracket_rescaling_residual(clock.field, clock.factor, probe, points)
        assert len(expr._NODES) > before
        del clock, probe
        assert len(expr._NODES) == before  # no reference cycle holds a node
        gc.collect()
        assert len(expr._NODES) == before

    def test_a_compiled_function_holds_no_tree(self):
        gc.collect()
        before = len(expr._NODES)
        f = compile_scalar([parse("sqrt(x*y) + q1", CTX), parse("1/v1", CTX)], CTX)
        assert len(expr._NODES) == before  # only floats, functions and entry numbers
        assert f(0.0, 1.0, 2.0, 4.0, 9.0) == (7.0, 0.5)
        with pytest.raises(EvaluationDomainError):
            f(0.0, 1.0, 0.0, 4.0, 9.0)  # the fallback runs the tape, not the trees
        assert len(expr._NODES) == before

    def test_a_batch_function_holds_no_tree(self):
        gc.collect()
        before = len(expr._NODES)
        f = vectorized_scalar([parse("sqrt(x*y) + q1", CTX), parse("1/v1", CTX)], CTX)
        assert len(expr._NODES) == before  # only floats, ufuncs and entry numbers
        assert [list(v) for v in f(np.array([[1.0, 2.0, 4.0, 9.0]]))] == [[7.0], [0.5]]

    def test_a_node_keeps_its_derivatives_while_they_live(self, monkeypatch):
        gc.collect()
        before = len(expr._NODES)
        tree = parse("sin(x)*exp(x*y) + sqrt(x)^y", CTX)
        d = differentiate(tree, "x")
        rules = []
        rule = expr._derivative
        monkeypatch.setattr(expr, "_derivative", lambda e, name: rules.append(e) or rule(e, name))
        assert differentiate(tree, "x") is d and rules == []
        differentiate(tree, "y")
        assert rules
        # d exp(u) holds exp(u): a memo that held d strongly would be a cycle
        del tree, d, rules
        assert len(expr._NODES) == before


class TestPrinting:
    @pytest.mark.parametrize(
        "source",
        [
            "x + y*q1",
            "(x + y)*q1",
            "x - (y - q1)",
            "x/(y*q1)",
            "-(x + y)",
            "(-x)^2",
            "2^3^x",
            "(x^2)^3",
            "sin(x + y)",
            "x - -y",
            "1/(1 + exp(-x))",
        ],
    )
    def test_round_trip_preserves_value(self, source):
        e = parse(source, CTX)
        r = parse(to_source(e), CTX)
        env = {"x": 0.7, "y": 1.3, "q1": -0.4, "v1": 0.0}
        assert evaluate(r, env) == pytest.approx(evaluate(e, env), rel=1e-15)

    def test_round_trip_preserves_tree(self):
        e = Sub(Var("x"), Sub(Var("y"), Var("q1")))
        assert parse(to_source(e), CTX) == e

    def test_neg_of_power_prints_unambiguously(self):
        e = Neg(Pow(Var("x"), Const(2.0)))
        r = parse(to_source(e), CTX)
        assert evaluate(r, {"x": 3.0}) == -9.0

    @pytest.mark.parametrize(
        "source, kept, value",
        [
            ("1e308 + 1e308 + x", Add(Const(1e308), Const(1e308)), math.inf),
            ("-1e308 - 1e308 + x", Sub(Const(-1e308), Const(1e308)), -math.inf),
        ],
    )
    def test_overflowing_constant_sum_stays_printable(self, source, kept, value):
        # folding to Const(inf) would leave a tree that to_source cannot print
        e = parse(source, CTX)
        assert e == Add(kept, Var("x"))
        assert parse(to_source(e), CTX) == e
        assert evaluate(e, {"x": 1.0}) == value

    @pytest.mark.parametrize("value, text", [(math.inf, "inf"), (-math.inf, "-inf"), (math.nan, "nan")])
    def test_non_finite_constant_is_refused_by_name(self, value, text):
        # the grammar has no text for it: a printed 'inf' would reparse as an identifier
        tree = Add(Var("x"), Mul(Const(value), Var("y")))
        for render in (to_source, str):
            with pytest.raises(NonFiniteConstantError, match=f"constant {text} "):
                render(tree)


class TestCompilation:
    @pytest.mark.parametrize(
        "source",
        [
            "q1^2 + v1^2",
            "sin(q1)*exp(v1) - x/(1 + y^2)",
            "sqrt(q1^2 + v1^2 + 1)",
            "abs(x) + log(2 + y)",
        ],
    )
    def test_matches_tree_walk(self, source):
        e = parse(source, CTX)
        f = compile_scalar(e, CTX)
        point = (0.9, -1.1, 0.4, 2.2)
        env = _env(point)
        assert f(0.0, *point) == pytest.approx(evaluate(e, env), rel=1e-15)

    def test_domain_errors_shared(self):
        f = compile_scalar(parse("1/x", CTX), CTX)
        with pytest.raises(EvaluationDomainError):
            f(0.0, 0.0, 0.0, 0.0, 0.0)

    def test_overflow_shared(self):
        f = compile_scalar(parse("exp(x)", CTX), CTX)
        assert f(0.0, 0.0, 0.0, 1e4, 0.0) == math.inf

    def test_context_mismatch_rejected(self):
        e = parse("x + y", CTX)
        with pytest.raises(UnboundVariableError):
            compile_scalar(e, VariableContext.of("x"))


class TestVariableContext:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            VariableContext.of("x", "x")

    def test_function_name_rejected(self):
        with pytest.raises(ValueError):
            VariableContext.of("sin", "x")

    def test_invalid_identifier_rejected(self):
        with pytest.raises(ValueError):
            VariableContext.of("2x")

    @pytest.mark.parametrize("name", ["lambda", "if", "None", "True", "class"])
    def test_python_keyword_rejected(self, name):
        # compiled backends bind coordinates as Python names
        with pytest.raises(ValueError, match="keyword"):
            VariableContext.of(name, "x")

    def test_index_and_contains(self):
        ctx = qv_context(2)
        assert ctx.names == ("q1", "q2", "v1", "v2")
        assert ctx.index("v1") == 2
        assert "q2" in ctx
        assert "z" not in ctx
        with pytest.raises(KeyError):
            ctx.index("z")


# randomized coverage: tree construction never widens the grammar

_leaf = st.one_of(
    st.floats(min_value=-4, max_value=4, allow_nan=False).map(
        lambda v: Const(round(v, 3))
    ),
    st.sampled_from([Var("x"), Var("y"), Var("q1"), Var("v1")]),
)


def _branch(children):
    return st.one_of(
        st.tuples(children, children).map(lambda p: Add(p[0], p[1])),
        st.tuples(children, children).map(lambda p: Sub(p[0], p[1])),
        st.tuples(children, children).map(lambda p: Mul(p[0], p[1])),
        children.map(Neg),
        children.map(lambda c: Call("sin", c)),
        children.map(lambda c: Call("exp", c)),
        children.map(lambda c: Pow(c, Const(2.0))),
    )


_expr_trees = st.recursive(_leaf, _branch, max_leaves=12)


# an x-free tree whose saturated inf reaches sin: evaluate raises on it
_SIN_OF_TRIPLE_EXP_TREE = Call("sin", Call("exp", Call("exp", Call("exp", Const(2.0)))))


@settings(max_examples=120, deadline=None)
@given(_expr_trees)
@example(_SIN_OF_TRIPLE_EXP_TREE)
def test_print_parse_round_trip_random_trees(tree):
    printed = to_source(tree)
    reparsed = parse(printed, CTX)
    env = {"x": 0.37, "y": -0.82, "q1": 1.41, "v1": -0.29}
    try:
        lhs = evaluate(tree, env)
    except EvaluationDomainError:
        with pytest.raises(EvaluationDomainError):
            evaluate(reparsed, env)
        return
    rhs = evaluate(reparsed, env)
    if math.isfinite(lhs):
        assert rhs == pytest.approx(lhs, rel=1e-12, abs=1e-12)


# x-free trees whose value overflows: exp(e^8) saturates to inf, and the
# saturated inf then reaches sin, which raises
_EXP_OVERFLOW_TREE = Call("exp", Pow(Call("exp", Const(4.0)), Const(2.0)))
_SIN_OF_INF_TREE = Call("sin", Call("exp", Call("exp", Mul(Const(2.0), Const(4.0)))))


@settings(max_examples=80, deadline=None)
@given(_expr_trees)
@example(_EXP_OVERFLOW_TREE)
@example(_SIN_OF_INF_TREE)
def test_differentiate_matches_central_difference_random_trees(tree):
    env = {"x": 0.31, "y": 0.57, "q1": -0.43, "v1": 0.91}
    d = differentiate(tree, "x")
    if "x" not in free_variables(tree):
        assert d == Const(0.0)
        return
    value = evaluate(d, env)
    if not math.isfinite(value) or abs(value) > 1e6:
        return  # steep composites overwhelm a fixed-step stencil
    # the stencil is undefined where f at x +- h is not representable
    try:
        numeric = central_difference(tree, "x", env, h=1e-5)
    except EvaluationDomainError:
        numeric = math.nan
    assume(math.isfinite(numeric))
    assert value == pytest.approx(numeric, rel=5e-4, abs=5e-4)


def test_overflowing_constant_trees_have_exact_zero_derivative():
    env = {"x": 0.31}
    assert evaluate(_EXP_OVERFLOW_TREE, env) == math.inf
    with pytest.raises(EvaluationDomainError):
        evaluate(_SIN_OF_INF_TREE, env)
    assert differentiate(_EXP_OVERFLOW_TREE, "x") == Const(0.0)
    assert differentiate(_SIN_OF_INF_TREE, "x") == Const(0.0)


# wider trees for the backends: division, log, sqrt, abs and ^0.5 reach
# domain errors, and the points below reach overflow
def _wide_branch(children):
    pairs = st.tuples(children, children)
    return st.one_of(
        _branch(children),
        pairs.map(lambda p: Div(p[0], p[1])),
        children.map(lambda c: Call("log", c)),
        children.map(lambda c: Call("sqrt", c)),
        children.map(lambda c: Call("abs", c)),
        children.map(lambda c: Pow(c, Const(0.5))),
    )


_wide_trees = st.recursive(_leaf, _wide_branch, max_leaves=12)

# (q1, v1, x, y); integer coordinates are bound as floats
_BACKEND_POINTS = (
    (0, 0, 1000, -1000),
    (0.0, -1.5, 0.0, 2.0),
    (1.41, -0.29, 0.37, -0.82),
    (-1000.0, 1000.0, -0.5, 0.0),
)

# exp(x) overflows inside the first four examples below, yet their values at
# x = 1000 are -inf, 0.0, 0.0 and a domain error
_AT_X_1000 = (0.0, 0.0, 1000.0, -1000.0)
_X = Var("x")


_MATH = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "log": math.log,
         "sqrt": math.sqrt, "abs": math.fabs}
_OPERATORS = {Add: operator.add, Sub: operator.sub, Mul: operator.mul, Div: operator.truediv}


def _walk(e, env):
    """``e`` at ``env`` by a recursive walk on Python floats: the scalar rules
    written apart from the tape that ``evaluate`` and the fallback run, as
    an oracle for both.  A square is a product, a division by zero or a math
    domain error raises ``EvaluationDomainError``, and an overflow is inf."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return env[e.name]
    if isinstance(e, Neg):
        return -_walk(e.arg, env)
    if isinstance(e, Call):
        fn, args = _MATH[e.fn], (_walk(e.arg, env),)
    elif isinstance(e, Pow) and e.exponent == Const(2.0):
        fn, args = operator.mul, (_walk(e.base, env),) * 2
    elif isinstance(e, Pow):
        fn, args = math.pow, (_walk(e.base, env), _walk(e.exponent, env))
    else:
        fn, args = _OPERATORS[type(e)], (_walk(e.left, env), _walk(e.right, env))
    try:
        return fn(*args)
    except (ValueError, ZeroDivisionError):
        raise EvaluationDomainError(f"{e!r} at {args}") from None
    except OverflowError:
        return math.inf


_PRECEDENCE = {Add: 1, Sub: 1, Mul: 2, Div: 2, Pow: 3, Neg: 4}  # any other node: 5
_INFIX = {Add: " + ", Sub: " - ", Mul: "*", Div: "/"}


def _printed(e):
    """``e`` printed by a recursive walk, written apart from the tape that
    ``to_source`` runs, as an oracle for it: an operand is parenthesised
    where it binds more loosely than its slot needs."""

    def wrapped(operand, least):
        text = _printed(operand)
        return f"({text})" if _PRECEDENCE.get(type(operand), 5) < least else text

    if isinstance(e, Const):
        v = e.value
        return repr(int(v)) if v == int(v) and abs(v) < 1e16 else repr(v)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        return "-" + wrapped(e.arg, 5)
    if isinstance(e, Call):
        return f"{e.fn}({_printed(e.arg)})"
    if isinstance(e, Pow):
        return f"{wrapped(e.base, 5)}^{wrapped(e.exponent, 3)}"
    least = _PRECEDENCE[type(e)]
    return wrapped(e.left, least) + _INFIX[type(e)] + wrapped(e.right, least + 1)


_FOLDS = {Add: expr.add, Sub: expr.sub, Mul: expr.mul, Div: expr.div, Pow: expr.pow_}


def _substituted(e, bindings):
    """``e`` with its variables replaced by a recursive walk through the
    folding constructors, written apart from the tape that ``substitute``
    runs, as an oracle for it."""
    if isinstance(e, Const):
        return e
    if isinstance(e, Var):
        return bindings.get(e.name, e)
    if isinstance(e, Neg):
        return expr.neg(_substituted(e.arg, bindings))
    if isinstance(e, Call):
        return expr.call(e.fn, _substituted(e.arg, bindings))
    left, right = (e.base, e.exponent) if isinstance(e, Pow) else (e.left, e.right)
    return _FOLDS[type(e)](_substituted(left, bindings), _substituted(right, bindings))


def _outcome(fn):
    try:
        return fn()
    except EvaluationDomainError:
        return EvaluationDomainError


def _assert_same_float(got, want):
    assert type(got) is float
    if math.isnan(want):
        assert math.isnan(got)
    else:
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


@settings(max_examples=150, deadline=None)
@given(
    tree=_wide_trees,
    point=st.sampled_from(_BACKEND_POINTS),
    as_array=st.booleans(),
)
@example(tree=Neg(Call("exp", _X)), point=_AT_X_1000, as_array=False)
@example(tree=Call("exp", Neg(Call("exp", _X))), point=_AT_X_1000, as_array=False)
@example(tree=Div(Const(1.0), Call("exp", _X)), point=_AT_X_1000, as_array=False)
@example(tree=Call("sin", Call("exp", _X)), point=_AT_X_1000, as_array=False)
@example(tree=_X, point=_AT_X_1000, as_array=True)
@example(tree=Div(Const(1.0), _X), point=(1.0, 1.0, 0.0, 1.0), as_array=True)
def test_compiled_scalar_matches_evaluate_exactly(tree, point, as_array):
    want = _outcome(lambda: _walk(tree, _env(point)))
    evaluated = _outcome(lambda: evaluate(tree, _env(point)))
    coords = tuple(map(float, point))
    single = _outcome(lambda: compile_scalar(tree, CTX)(0.0, *coords))
    pair = _outcome(lambda: compile_scalar([tree, _X], CTX)(0.0, *coords))
    # a point call takes a sequence or an array and runs the same function
    arg = np.array(point, dtype=float) if as_array else point
    called = _outcome(lambda: ScalarField(CTX, tree)(arg))
    if want is EvaluationDomainError:
        assert evaluated is single is pair is called is EvaluationDomainError
        return
    _assert_same_float(evaluated, want)
    _assert_same_float(single, want)
    _assert_same_float(called, want)
    assert type(pair) is tuple and len(pair) == 2
    _assert_same_float(pair[0], want)
    _assert_same_float(pair[1], float(point[2]))


@settings(max_examples=150, deadline=None)
@given(a=_wide_trees, b=_wide_trees, point=st.sampled_from(_BACKEND_POINTS))
@example(a=Div(Const(1.0), _X), b=_X, point=(1.0, 1.0, 0.0, 1.0))
@example(a=Call("exp", _X), b=Neg(_X), point=_AT_X_1000)
def test_field_function_matches_plain_evaluation_exactly(a, b, point):
    # the components share subtrees, which the field function computes once;
    # where evaluate raises a domain error, so does the field function, and
    # the integrator turns that stage into NaN
    components = (a, Mul(a, b), Sub(b, a), Pow(Add(a, b), Const(2.0)))
    plain = _outcome(lambda: tuple(evaluate(c, _env(point)) for c in components))
    fn = VectorField(CTX, components).ode_rhs.stage_fn
    got = _outcome(lambda: fn(0.5, *map(float, point)))
    stage = _derivative(fn, 0.5, tuple(map(float, point)))
    if plain is EvaluationDomainError:
        assert got is EvaluationDomainError
        assert len(stage) == len(components) and all(map(math.isnan, stage))
        return
    assert type(got) is tuple and len(got) == len(components)
    for value, want, staged in zip(got, plain, stage):
        _assert_same_float(value, want)
        _assert_same_float(staged, want)


@settings(max_examples=150, deadline=None)
@given(_wide_trees)
def test_batch_never_raises_and_rows_match_alone(tree):
    points = np.array(_BACKEND_POINTS, dtype=float)
    fn = vectorized_scalar(tree, CTX)
    together = np.broadcast_to(fn(points), (len(points),))
    alone = np.array(
        [np.broadcast_to(fn(points[k : k + 1]), (1,))[0] for k in range(len(points))]
    )
    nan = np.isnan(together)
    assert np.array_equal(nan, np.isnan(alone))
    assert np.array_equal(together[~nan].view(np.int64), alone[~nan].view(np.int64))


def test_batch_constant_division_by_zero_gives_inf():
    points = np.array(_BACKEND_POINTS, dtype=float)
    values = vectorized_scalar(parse("x + 1/0", CTX), CTX)(points)
    assert np.all(values == math.inf)
    pair = vectorized_scalar([parse("1/0", CTX), parse("0/0", CTX)], CTX)(points)
    assert pair[0] == math.inf and math.isnan(pair[1])


def test_squares_agree_bitwise_across_backends():
    # math.pow(x, 2.0) and x*x differ in the last bit at about 0.08% of
    # points; every backend squares by multiplication, as np.power does
    rng = np.random.default_rng(7)
    xs = np.concatenate(
        [
            [359.739456325485, 0.0, -0.0, 1e200, math.inf, math.nan],
            rng.uniform(-1000.0, 1000.0, 10_000),
            rng.standard_normal(2_000) * 10.0 ** rng.uniform(-150, 150, 2_000),
        ]
    )
    points = np.zeros((len(xs), 4))
    points[:, 2] = xs
    points[:, 3] = rng.uniform(-10.0, 10.0, len(xs))
    trees = [parse("x^2", CTX), parse("(x + y)^2", CTX)]
    batch = np.stack(vectorized_scalar(trees, CTX)(points), axis=1)
    scalar = compile_scalar(trees, CTX)
    one_by_one = np.array([scalar(0.0, *p.tolist()) for p in points])
    evaluated = np.array([[evaluate(t, _env(p)) for t in trees] for p in points])
    walked = np.array([[_walk(t, _env(p)) for t in trees] for p in points])
    bits = [a.view(np.uint64) for a in (walked, batch, one_by_one, evaluated)]
    assert all(np.array_equal(bits[0], other) for other in bits[1:])
    assert one_by_one[0, 0] == 129412.47643735551 == 359.739456325485 * 359.739456325485
    assert one_by_one[0, 0] != math.pow(359.739456325485, 2.0)


def test_batch_computes_a_repeated_subexpression_once(monkeypatch):
    calls = []

    def counting_sin(value):
        calls.append(value)
        return np.sin(value)

    monkeypatch.setitem(expr._BATCH, "sin", counting_sin)
    points = np.array(_BACKEND_POINTS, dtype=float)
    fn = vectorized_scalar(parse("sin(x)*sin(x) + sin(x)", CTX), CTX)
    values = fn(points)
    assert len(calls) == 1
    sines = np.sin(points[:, 2])
    assert np.array_equal(values, sines * sines + sines)


def test_long_single_use_chains_compile_in_both_backends():
    # a 300-term left-folded sum nests 300 deep inline, past what Python's
    # parser accepts; the emitter binds part of it to a local
    tree = Var("x")
    for k in range(300):
        tree = Add(tree, Mul(Const(k + 0.5), Var("y")))
    point = (0.0, 0.0, 0.25, -1.5)
    want = evaluate(tree, _env(point))
    assert compile_scalar(tree, CTX)(0.0, *point) == want
    assert vectorized_scalar(tree, CTX)(np.array([point]))[0] == want


def test_doubling_dag_compiles_in_both_backends():
    # 41 distinct nodes over 2^40 root-to-leaf paths: the emitter walks each
    # node object once, so a shared subtree costs nothing to meet again
    tree = Var("x")
    for _ in range(40):
        tree = Add(tree, tree)
    point = (0.0, 0.0, 1.5, 0.0)
    assert compile_scalar(tree, CTX)(0.0, *point) == 2.0**40 * 1.5
    assert vectorized_scalar(tree, CTX)(np.array([point]))[0] == 2.0**40 * 1.5


def test_batch_evaluation_calls_no_compile(monkeypatch):
    from sodelab import conformal

    clock, probe = _clock_and_probe()
    points = clock.box.sample(n_random=50, grid_points=3)
    captured = []
    monkeypatch.setattr(conformal, "max_abs_on", lambda *args: captured.append(args) or 0.0)
    conformal.bracket_rescaling_residual(clock.field, clock.factor, probe, points)
    [(residuals, ctx, _)] = captured
    calls = []
    real = builtins.compile
    monkeypatch.setattr(builtins, "compile", lambda *a, **kw: calls.append(a) or real(*a, **kw))
    values = evaluate_on(residuals, ctx, points)
    worst = max_abs_on(residuals, ctx, points)
    assert calls == []
    assert values.shape == (len(points), ctx.dim)
    assert worst == np.max(np.abs(values)) < 1e-9


def test_batch_frees_each_value_after_its_last_use():
    # 300 single-use terms over 100k points: the tape drops each column once
    # no later operation reads it, so the peak stays at a few columns
    x, y = Var("x"), Var("y")
    tree = Mul(Call("sin", Add(x, Const(1.0))), y)
    for k in range(2, 301):
        tree = Add(tree, Mul(Call("sin", Add(x, Const(float(k)))), y))
    points = np.zeros((100_000, 4))
    points[:, 2:] = np.random.default_rng(3).uniform(-1.0, 1.0, (100_000, 2))
    column = points[:, 0].nbytes
    tracemalloc.start()
    try:
        values = vectorized_scalar(tree, CTX)(points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * column
    scalar = compile_scalar(tree, CTX)
    want = np.array([scalar(0.0, *point.tolist()) for point in points[::1000]])
    assert np.array_equal(values[::1000].view(np.int64), want.view(np.int64))


def test_too_deep_a_tree_is_refused_with_a_typed_error():
    def chain(depth):
        tree = Var("x")
        for _ in range(depth):
            tree = Sub(Var("y"), tree)
        return tree

    point = (0.0, 0.0, 0.25, 1.0)
    deep = chain(2000)
    with pytest.raises(ExpressionDepthError):
        evaluate(deep, _env(point))
    with pytest.raises(ExpressionDepthError):
        compile_scalar(deep, CTX)
    with pytest.raises(ExpressionDepthError):
        vectorized_scalar(deep, CTX)
    with pytest.raises(ExpressionDepthError):
        differentiate(deep, "x")
    with pytest.raises(ExpressionDepthError):
        substitute(deep, {"x": Var("q1")})
    with pytest.raises(ExpressionDepthError):
        to_source(deep)
    with pytest.raises(ExpressionDepthError):
        str(deep)
    # an equal chain built again is the same node, so the difference folds
    assert expr.sub(deep, deep) == Const(0.0)
    assert expr.sub(deep, chain(2000)) is Const(0.0)
    shallow = chain(200)  # y - (y - x) = x, 100 times over
    assert evaluate(shallow, _env(point)) == 0.25
    assert compile_scalar(shallow, CTX)(0.0, *point) == 0.25
    assert vectorized_scalar(shallow, CTX)(np.array([point]))[0] == 0.25
    assert evaluate(differentiate(shallow, "x"), _env(point)) == 1.0
    assert evaluate(substitute(shallow, {"x": Var("y")}), _env(point)) == 1.0
    assert evaluate(parse(str(shallow), CTX), _env(point)) == 0.25
    assert expr.sub(shallow, chain(200)) == Const(0.0)


@pytest.mark.parametrize(
    "source", ["(" * 2000 + "x" + ")" * 2000, "-" * 5000 + "x", "x^" * 3000 + "x"],
    ids=["parentheses", "unary-minus", "power"],
)
def test_too_deeply_nested_text_is_refused_with_a_typed_error(source):
    with pytest.raises(ExpressionDepthError, match="^expression text is nested too deeply to parse"):
        parse(source, CTX)


def test_a_long_flat_sum_parses_without_recursing():
    tree = parse(" + ".join(["x"] * 100_000), CTX)
    depth = 0
    while isinstance(tree, Add):
        assert tree.right is Var("x")
        tree, depth = tree.left, depth + 1
    assert tree is Var("x") and depth == 99_999


# the exactly rounded operations: on these, numpy and Python give the same bits
def _exact_branch(children):
    pairs = st.tuples(children, children)
    return st.one_of(
        pairs.map(lambda p: Add(p[0], p[1])),
        pairs.map(lambda p: Sub(p[0], p[1])),
        pairs.map(lambda p: Mul(p[0], p[1])),
        pairs.map(lambda p: Div(p[0], p[1])),
        children.map(Neg),
        children.map(lambda c: Pow(c, Const(2.0))),
        children.map(lambda c: Call("sqrt", c)),
        children.map(lambda c: Call("abs", c)),
    )


@settings(max_examples=200, deadline=None)
@given(a=st.recursive(_leaf, _exact_branch, max_leaves=12),
       b=st.recursive(_leaf, _exact_branch, max_leaves=12))
@example(a=Pow(Add(_X, Var("y")), Const(2.0)), b=Div(Const(1.0), _X))
def test_batch_and_scalar_backends_agree_bitwise(a, b):
    points = np.array(_BACKEND_POINTS, dtype=float)
    trees = [a, Mul(a, b), Sub(b, a)]
    batch = vectorized_scalar(trees, CTX)(points)
    scalar = compile_scalar(trees, CTX)
    for k, point in enumerate(_BACKEND_POINTS):
        if _outcome(lambda: evaluate(Add(a, b), _env(point))) is EvaluationDomainError:
            continue
        want = np.array(scalar(0.0, *map(float, point)))
        got = np.array([np.broadcast_to(value, (len(points),))[k] for value in batch])
        nan = np.isnan(want)
        assert np.array_equal(nan, np.isnan(got))
        assert np.array_equal(want[~nan].view(np.int64), got[~nan].view(np.int64))


# bindings that rename, that fold to constants (a 2 folds a square through
# pow_) and that nest a tree in place of a variable
_BINDINGS = (
    {"x": Var("y"), "y": Var("x")},
    {"x": Const(0.0), "y": Const(1.0), "q1": Const(2.0), "v1": Const(-0.5)},
    {"x": Neg(Var("y")), "q1": Add(_X, Const(2.0))},
)


@settings(max_examples=200, deadline=None)
@given(tree=_wide_trees, bindings=st.sampled_from(_BINDINGS))
@example(tree=Pow(Neg(_X), Sub(Var("y"), Pow(_X, Const(2.0)))), bindings=_BINDINGS[1])
@example(tree=Neg(Pow(Mul(Const(-2.5), _X), Div(Var("y"), Neg(_X)))), bindings=_BINDINGS[2])
def test_printing_and_substitution_match_the_recursive_oracles(tree, bindings):
    assert to_source(tree) == _printed(tree)
    assert substitute(tree, bindings) is _substituted(tree, bindings)


def test_printing_and_substitution_match_the_recursive_oracles_on_the_library():
    from sodelab import scenarios
    from sodelab.geometry import lie_bracket

    sets = [(s.ctx.names, s.field.components) for s in scenarios.sode_scenarios()]
    for c in scenarios.conformal_scenarios():
        sets += [(c.ctx.names, c.field.components), (c.ctx.names, (c.factor.expr,))]
    for _, chart in scenarios.structure_library():
        names = chart.forward.src.names
        sets += [(names, chart.forward.components), (names, sum(chart.forward.jacobian, ())),
                 (chart.gamma.ctx.names, chart.gamma.components)]
    # the kepler-clock bracket, and the bracket of it: a DAG of 3,965 tape entries
    clock, probe = _clock_and_probe()
    names = clock.ctx.names
    bracket = lie_bracket(clock.field.scaled(clock.factor.expr), probe)
    sets += [(names, bracket.components), (names, lie_bracket(bracket, probe).components)]
    assert len(expr._tape(sets[-1][1], names)[0]) == 3965
    for names, trees in sets:
        renamed = {name: Var(names[(k + 1) % len(names)]) for k, name in enumerate(names)}
        folded = {name: Const(float(k)) if k < 3 else Neg(Var(name)) for k, name in enumerate(names)}
        for tree in trees:
            assert to_source(tree) == _printed(tree)
            for bindings in (renamed, folded):
                assert substitute(tree, bindings) is _substituted(tree, bindings)


def test_substitute_rebuilds_each_shared_node_once(monkeypatch):
    tree = Var("x")
    for _ in range(16):  # 16 distinct Add nodes on 2^16 - 1 root-to-Add paths
        tree = Add(tree, Mul(tree, Var("y")))
    distinct, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node not in distinct:
            distinct.add(node)
            stack += [getattr(node, f) for f in node._fields]
            stack = [e for e in stack if isinstance(e, expr.Expression)]
    calls = []
    add = expr.add

    def counting_add(a, b):
        calls.append((a, b))
        return add(a, b)

    # the folding constructor, under its name and in the op table's column
    monkeypatch.setattr(expr, "add", counting_add)
    monkeypatch.setitem(expr._REBUILD, "+", counting_add)
    result = substitute(tree, {"x": Var("q1")})
    assert len(calls) == sum(isinstance(node, Add) for node in distinct) == 16
    want = Var("q1")
    for _ in range(16):
        want = Add(want, Mul(want, Var("y")))
    assert result is want
