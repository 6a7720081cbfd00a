import copy
import gc
import itertools
import math
import pickle
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grsoliton import expr
from grsoliton.expr import (
    FUNCTIONS,
    Add,
    Call,
    Div,
    DomainError,
    Mul,
    Neg,
    Num,
    ParseError,
    Pow,
    Sub,
    Sym,
    UnboundSymbolError,
    UnknownFunctionError,
    differentiate,
    evaluate,
    evaluate_many,
    free_symbols,
    parse,
    render,
    simplify,
)

from conftest import structural_classes

BUNDLED_P = "4*exp(y)/(16+exp(2*y))"
BUNDLED_Q = "-exp(2*y)/(16+exp(2*y))"


class TestParse:
    def test_bundled_expression_free_symbols(self):
        e = parse(BUNDLED_P)
        assert free_symbols(e) == {"y"}

    def test_literal_zero(self):
        e = parse("0")
        assert isinstance(e, Num)
        assert evaluate(e, {}) == 0.0

    def test_pythagorean_identity_everywhere(self):
        e = parse("sin(z)^2 + cos(z)^2")
        for z in (-2.0, 0.0, 0.7, 3.0):
            assert evaluate(e, {"z": z}) == pytest.approx(1.0, abs=1e-15)

    def test_scientific_literals(self):
        assert evaluate(parse("1.5e3"), {}) == 1500.0
        assert evaluate(parse("2e-2"), {}) == 0.02
        assert evaluate(parse(".5"), {}) == 0.5

    def test_constants_pi_and_e(self):
        assert evaluate(parse("2*pi"), {}) == 2 * math.pi
        assert evaluate(parse("e^2"), {}) == pytest.approx(math.e ** 2, rel=1e-15)

    def test_power_right_associative(self):
        assert evaluate(parse("2^3^2"), {}) == 512.0

    def test_unary_minus_binds_looser_than_power(self):
        assert evaluate(parse("-x^2"), {"x": 3.0}) == -9.0
        assert evaluate(parse("2^-3"), {}) == 0.125

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse("")
        with pytest.raises(ParseError):
            parse("   ")

    def test_syntax_error_offset_and_expected(self):
        with pytest.raises(ParseError) as err:
            parse("3 + * 4")
        assert err.value.offset == 4
        assert "number" in err.value.expected

    def test_trailing_garbage(self):
        with pytest.raises(ParseError) as err:
            parse("1 + 2 )")
        assert err.value.offset == 6

    def test_unbalanced_parenthesis(self):
        with pytest.raises(ParseError) as err:
            parse("sin(x")
        assert err.value.expected == ("')'",)

    def test_unknown_function(self):
        with pytest.raises(UnknownFunctionError) as err:
            parse("sinh(3)")
        assert err.value.offset == 0

    def test_illegal_character(self):
        with pytest.raises(ParseError) as err:
            parse("3 $ 4")
        assert err.value.offset == 2

    @pytest.mark.parametrize("text, offset", [("1e400", 0), ("sin(1e400*z)", 4),
                                              ("x + 2e308", 4)])
    def test_a_literal_too_large_for_a_float(self, text, offset):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.offset == offset
        assert err.value.expected == ("a number within the float range",)
        assert parse("1e-400").value == 0.0


class TestDifferentiate:
    def test_log_of_sine(self):
        d = differentiate(parse("ln(sin(z))"), "z")
        for z in (0.3, 1.0, 2.5):
            assert evaluate(d, {"z": z}) == pytest.approx(math.cos(z) / math.sin(z),
                                                          rel=1e-14)

    def test_bundled_q_derivative_matches_finite_difference(self):
        # independent oracle: central difference, h = 1e-6, then the exact
        # rational -32/289 at y = 0
        q = parse(BUNDLED_Q)
        h = 1e-6
        fd = (evaluate(q, {"y": h}) - evaluate(q, {"y": -h})) / (2 * h)
        d = differentiate(q, "y")
        at0 = evaluate(d, {"y": 0.0})
        assert at0 == pytest.approx(fd, abs=1e-9)
        assert at0 == pytest.approx(-32.0 / 289.0, abs=1e-15)

    def test_constant_derivative_is_zero(self):
        d = differentiate(parse("7"), "x")
        assert isinstance(d, Num)
        assert d.value == 0.0

    def test_symbol_free_expression(self):
        d = differentiate(parse("sin(y)"), "x")
        assert evaluate(d, {"y": 0.3}) == 0.0

    def test_power_rule_handles_negative_base(self):
        d = differentiate(parse("x^3"), "x")
        assert evaluate(d, {"x": -2.0}) == 12.0

    def test_general_power(self):
        d = differentiate(parse("x^x"), "x")
        x = 1.7
        assert evaluate(d, {"x": x}) == pytest.approx(
            x ** x * (math.log(x) + 1.0), rel=1e-14)

    def test_cot_derivative(self):
        d = differentiate(parse("cot(z)"), "z")
        z = 0.9
        assert evaluate(d, {"z": z}) == pytest.approx(-1.0 / math.sin(z) ** 2,
                                                      rel=1e-14)

    def test_invalid_variable(self):
        with pytest.raises(ValueError):
            differentiate(parse("x"), "not a name!")


class TestSimplify:
    def test_identity_rules(self):
        assert render(simplify(parse("(y*0) + x*1"))) == "x"
        assert render(simplify(parse("sin(z)*1 + 0/y"))) == "sin(z)"

    def test_constant_fold(self):
        e = simplify(parse("2+3*4"))
        assert isinstance(e, Num)
        assert e.value == 14.0

    def test_a_folded_power_has_the_plans_bits(self):
        # math.pow rounds 2^2.8000000000000003 one ulp away from np.power
        e = parse("2^2.8000000000000003")
        folded = simplify(e)
        assert isinstance(folded, Num)
        assert folded.value.hex() == "0x1.bdb8cdadbe121p+2"
        assert folded.value == evaluate_many(e, {}, 1)[0] == evaluate(e, {})

    def test_power_identities(self):
        assert render(simplify(parse("x^1"))) == "x"
        assert isinstance(simplify(parse("x^0")), Num)

    def test_does_not_fold_division_by_zero(self):
        e = simplify(parse("1/0"))
        with pytest.raises(DomainError):
            evaluate(e, {})

    def test_preserves_evaluation(self):
        rng = np.random.default_rng(0)
        for text in (BUNDLED_P, BUNDLED_Q, "x^2/2 - ln(x)",
                     "(ln(16+exp(2*y)) - 2*ln(sin(z)))/2", "-cot(z)*3 + x*y"):
            e = parse(text)
            s = simplify(e)
            for _ in range(20):
                env = {"x": rng.uniform(0.1, 2), "y": rng.uniform(0.1, 2),
                       "z": rng.uniform(0.1, 3)}
                a, b = evaluate(e, env), evaluate(s, env)
                assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


class TestEvaluate:
    def test_bundled_p_at_zero(self):
        assert evaluate(parse(BUNDLED_P), {"y": 0.0}) == pytest.approx(4 / 17,
                                                                       abs=1e-15)

    def test_eta_component_at_zero(self):
        # eta_x = -q = exp(2y)/(16+exp(2y)) -> 1/17 at y = 0
        e = parse("exp(2*y)/(16+exp(2*y))")
        assert evaluate(e, {"y": 0.0}) == pytest.approx(1 / 17, abs=1e-15)

    def test_log_domain_error(self):
        with pytest.raises(DomainError) as err:
            evaluate(parse("ln(y)"), {"y": 0.0})
        assert err.value.point == {"y": 0.0}

    def test_sqrt_domain_error(self):
        with pytest.raises(DomainError):
            evaluate(parse("sqrt(x)"), {"x": -1.0})

    def test_division_by_zero(self):
        with pytest.raises(DomainError):
            evaluate(parse("1/(x-1)"), {"x": 1.0})

    def test_cot_pole(self):
        with pytest.raises(DomainError):
            evaluate(parse("cot(z)"), {"z": 0.0})

    def test_fractional_power_of_negative(self):
        with pytest.raises(DomainError):
            evaluate(parse("x^0.5"), {"x": -2.0})

    def test_unbound_symbol(self):
        with pytest.raises(UnboundSymbolError):
            evaluate(parse("x + missing"), {"x": 1.0})

    def test_deterministic(self):
        e = parse(BUNDLED_P)
        values = {evaluate(e, {"y": 0.37}) for _ in range(5)}
        assert len(values) == 1

    def test_vectorised_matches_scalar(self):
        # one arithmetic: the two paths agree bit for bit
        e = differentiate(parse(BUNDLED_P), "y")
        ys = np.linspace(-2, 2, 37)
        bulk = evaluate_many(e, {"y": ys}, len(ys))
        single = np.array([evaluate(e, {"y": float(v)}) for v in ys])
        assert np.array_equal(bulk.view(np.uint64), single.view(np.uint64))

    def test_a_non_finite_argument_is_no_domain_error(self):
        # the value is not finite, but neither is its argument
        assert math.isnan(evaluate(expr.call("sin", Num(math.inf)), {}))

    def test_an_overflowing_cot_is_an_overflow(self):
        # cot(1e-310) = 1/1e-310 overflows; inf - inf would be NaN
        with pytest.raises(DomainError) as err:
            evaluate(parse("cot(x) - cot(x)"), {"x": 1e-310})
        assert err.value.subexpression is parse("cot(x)")
        assert str(err.value) == "overflow in 'cot(x)' at {'x': 1e-310}"

    def test_vectorised_marks_domain_violations_nonfinite(self):
        e = parse("ln(y)")
        ys = np.array([-1.0, 1.0])
        out = evaluate_many(e, {"y": ys}, 2)
        assert not np.isfinite(out[0])
        assert out[1] == 0.0

    def test_an_array_of_expressions_is_one_block(self):
        # every component has the bits it has evaluated alone, across the
        # plan's chunk edges, in the shape of the array after the points
        npoints = 2 * expr.CHUNK_POINTS + 5
        rng = np.random.default_rng(4)
        env = {"x": rng.uniform(-2, 2, npoints), "y": rng.uniform(0.1, 2, npoints)}
        grid = np.array([[parse("x*y"), parse("ln(y)"), Num(2.5)],
                         [parse("exp(x) - y"), parse("x*y"), parse("cot(x)")]], dtype=object)
        listed = [parse("sin(x)/y"), Num(-0.0), parse("x")]

        def alone(e):
            chunks = []

            def keep(lo, hi, values):
                chunks.append(values[0].copy())
            expr.evaluate_many_multi([e], env, npoints, [(1, keep)])
            return np.concatenate(chunks).view(np.uint64)

        empty = np.empty((2, 0), dtype=object)      # a check with no components
        for e, shape in ((grid, (2, 3)), (listed, (3,)), (parse("x*y"), ()), (empty, (2, 0))):
            got = evaluate_many(e, env, npoints)
            assert got.shape == (npoints, *shape)
            for index in np.ndindex(shape):
                component = np.asarray(e, dtype=object)[index]
                assert np.array_equal(got[(slice(None), *index)].view(np.uint64),
                                      alone(component)), render(component)


class TestRenderRoundTrip:
    CASES = (
        BUNDLED_P,
        BUNDLED_Q,
        "x^2/2 - ln(x)",
        "-(2*x + y)^2",
        "x - (y - z)",
        "x / (y / z)",
        "2^-3 * x",
        "(x + y) * (x - y)",
        "cot(z) * sqrt(x) / tan(y)",
    )

    @pytest.mark.parametrize("text", CASES)
    def test_round_trip_is_evaluation_identical(self, text):
        e = parse(text)
        back = parse(render(e))
        rng = np.random.default_rng(7)
        for _ in range(20):
            env = {"x": rng.uniform(0.1, 2), "y": rng.uniform(0.1, 2),
                   "z": rng.uniform(0.1, 1.4)}
            assert evaluate(back, env) == evaluate(e, env)

    def test_round_trip_of_derivatives(self):
        e = differentiate(differentiate(parse(BUNDLED_P), "y"), "y")
        back = parse(render(e))
        for y in np.linspace(-1.5, 1.5, 11):
            assert evaluate(back, {"y": float(y)}) == evaluate(e, {"y": float(y)})


def _tree(draw_depth):
    leaf = st.one_of(
        st.integers(min_value=-3, max_value=3).map(lambda v: parse(str(abs(v))) if v >= 0 else expr.neg(Num(abs(v)))),
        st.sampled_from(["x", "y"]).map(parse),
    )
    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda ab: expr.Add(*ab)),
            st.tuples(children, children).map(lambda ab: expr.Sub(*ab)),
            st.tuples(children, children).map(lambda ab: expr.Mul(*ab)),
            children.map(expr.Neg),
            children.map(lambda a: expr.Call("sin", a)),
            children.map(lambda a: expr.Call("cos", a)),
        )
    return st.recursive(leaf, extend, max_leaves=draw_depth)


class TestPropertyBased:
    @settings(max_examples=150, deadline=None)
    @given(e=_tree(12))
    def test_random_tree_round_trip(self, e):
        back = parse(render(e))
        for env in ({"x": 0.37, "y": -1.21}, {"x": -2.0, "y": 0.5}):
            assert evaluate(back, env) == evaluate(e, env)

    @settings(max_examples=150, deadline=None)
    @given(e=_tree(12))
    def test_random_tree_simplify_preserves_value(self, e):
        s = simplify(e)
        for env in ({"x": 0.37, "y": -1.21}, {"x": -2.0, "y": 0.5}):
            a, b = evaluate(e, env), evaluate(s, env)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


# Interning: shapes are nested tuples that reuse earlier shapes as subtrees;
# each shape is built as nodes through the classes, the smart constructors
# and the parser.  "t" stands for a variable name fresh to each example.
SHAPE_SYMBOLS = ("x", "y", "t")
SHAPE_NUMBERS = (0.0, 0.5, 1.0, 2.0, 3.0)
CLASSES = {"+": Add, "-": Sub, "*": Mul, "/": Div, "^": Pow}
CONSTRUCTORS = {"+": expr.add, "-": expr.sub, "*": expr.mul, "/": expr.div,
                "^": expr.pow_}
PARSE_LIMIT = 200          # largest expanded shape also built from text
_FRESH = itertools.count()


@st.composite
def shapes(draw):
    pool = [("sym", name) for name in SHAPE_SYMBOLS]
    pool += [("num", value) for value in SHAPE_NUMBERS]
    for _ in range(draw(st.integers(1, 20))):
        def pick():
            return pool[draw(st.integers(0, len(pool) - 1))]
        kind = draw(st.sampled_from(("neg", "call") + tuple(CLASSES)))
        if kind == "neg":
            pool.append(("neg", pick()))
        elif kind == "call":
            pool.append(("call", draw(st.sampled_from(FUNCTIONS)), pick()))
        else:
            pool.append((kind, pick(), pick()))
    return pool


def build(shape, names, smart, memo):
    """The node of shape, made by the classes or the smart constructors."""
    if id(shape) in memo:
        return memo[id(shape)]
    kind = shape[0]
    if kind == "num":
        out = Num(shape[1])
    elif kind == "sym":
        out = Sym(names[shape[1]])
    elif kind == "neg":
        arg = build(shape[1], names, smart, memo)
        out = expr.neg(arg) if smart else Neg(arg)
    elif kind == "call":
        arg = build(shape[2], names, smart, memo)
        out = expr.call(shape[1], arg) if smart else Call(shape[1], arg)
    else:
        left = build(shape[1], names, smart, memo)
        right = build(shape[2], names, smart, memo)
        out = (CONSTRUCTORS if smart else CLASSES)[kind](left, right)
    memo[id(shape)] = out
    return out


def text(shape, names):
    """Infix text that parses to exactly the node the classes build."""
    kind = shape[0]
    if kind == "num":
        return repr(shape[1])
    if kind == "sym":
        return names[shape[1]]
    if kind == "neg":
        return f"-({text(shape[1], names)})"
    if kind == "call":
        return f"{shape[1]}({text(shape[2], names)})"
    return f"({text(shape[1], names)}){kind}({text(shape[2], names)})"


def expanded_size(shape, memo):
    if id(shape) not in memo:
        memo[id(shape)] = 1 + sum(expanded_size(s, memo) for s in shape[1:]
                                  if isinstance(s, tuple))
    return memo[id(shape)]


def built_nodes(pool):
    """(variable name of "t", nodes of every shape by every route)."""
    names = {"x": "x", "y": "y", "t": f"t{next(_FRESH)}"}
    plain, smart, sizes = {}, {}, {}
    nodes = []
    for shape in pool:
        nodes.append(build(shape, names, False, plain))
        nodes.append(build(shape, names, True, smart))
        if expanded_size(shape, sizes) <= PARSE_LIMIT:
            parsed = parse(text(shape, names))
            assert parsed is plain[id(shape)]
            nodes.append(parsed)
    return names["t"], nodes


def reference_derivative(e, var):
    """The derivative rules with a memo per call and no cache on the nodes."""
    memo = {}

    def d(node):
        if id(node) in memo:
            return memo[id(node)]
        if isinstance(node, Num):
            out = expr.ZERO
        elif isinstance(node, Sym):
            out = expr.ONE if node.name == var else expr.ZERO
        elif isinstance(node, Neg):
            out = expr.neg(d(node.arg))
        elif isinstance(node, Add):
            out = expr.add(d(node.left), d(node.right))
        elif isinstance(node, Sub):
            out = expr.sub(d(node.left), d(node.right))
        elif isinstance(node, Mul):
            out = expr.add(expr.mul(d(node.left), node.right),
                           expr.mul(node.left, d(node.right)))
        elif isinstance(node, Div):
            da, db = d(node.left), d(node.right)
            if isinstance(db, Num) and db.value == 0.0:
                out = expr.div(da, node.right)
            else:
                out = expr.div(expr.sub(expr.mul(da, node.right), expr.mul(node.left, db)),
                               expr.mul(node.right, node.right))
        elif isinstance(node, Pow):
            out = expr._pow_derivative(node, d(node.left), d(node.right))
        else:
            out = expr._call_derivative(node, d(node.arg))
        memo[id(node)] = out
        return out

    return d(e)


def _nan(payload):
    return struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000000 | payload))[0]


class TestInterning:
    @settings(max_examples=150, deadline=None)
    @given(pool=shapes())
    def test_structurally_equal_nodes_are_one_object(self, pool):
        var, nodes = built_nodes(pool)
        nodes += [simplify(n) for n in nodes] + [differentiate(n, var) for n in nodes]
        # one class per object, over the roots and every node below them
        classes = structural_classes(nodes)
        assert len(set(classes.values())) == len(classes)

    @settings(max_examples=150, deadline=None)
    @given(pool=shapes())
    def test_simplify_is_idempotent(self, pool):
        for node in built_nodes(pool)[1]:
            once = simplify(node)
            assert simplify(once) is once
            assert simplify(node) is once

    @settings(max_examples=150, deadline=None)
    @given(pool=shapes())
    def test_cached_derivative_matches_memo_per_call(self, pool):
        var, nodes = built_nodes(pool)
        # no node has been differentiated by the fresh variable: cold cache
        assert differentiate(nodes[-1], var) is reference_derivative(nodes[-1], var)
        # every shape in pool order, so each call finds its subtrees warm
        for name in (var, "x"):
            for node in nodes:
                assert differentiate(node, name) is reference_derivative(node, name)

    @given(a=st.floats(), b=st.floats())
    def test_numbers_are_keyed_by_their_bits(self, a, b):
        same = struct.pack("<d", a) == struct.pack("<d", b)
        assert (Num(a) is Num(b)) == same

    def test_signed_zeros_and_nan_payloads_stay_apart(self):
        assert Num(0.0) is not Num(-0.0)
        assert Num(0) is Num(0.0) is expr.ZERO
        assert Num(_nan(1)) is not Num(_nan(2))
        assert Num(_nan(1)) is Num(_nan(1))
        out = evaluate_many(Div(Num(1.0), Num(-0.0)), {}, 3)
        assert (out == -np.inf).all()

    def test_copies_and_pickles_are_the_interned_node(self):
        e = parse("exp(-x) * 2 + y^0.5 / 3")
        assert copy.copy(e) is e
        assert copy.deepcopy(e) is e
        assert pickle.loads(pickle.dumps(e)) is e

    def test_children_are_the_named_child_slots(self):
        # perfbench/layertrace.py walks a tree by the slots arg, left, right
        x, y = Sym("x"), Sym("y")
        nodes = [Num(2.0), x, Neg(x), Call("sin", x)] + [cls(x, y) for cls in CLASSES.values()]
        concrete, stack = set(), [expr.Expression]
        while stack:
            cls = stack.pop()
            subclasses = cls.__subclasses__()
            stack += subclasses
            if not subclasses:
                concrete.add(cls)
        assert {type(node) for node in nodes} == concrete
        for node in nodes:
            named = [getattr(node, a) for a in ("arg", "left", "right") if hasattr(node, a)]
            assert type(node._kids) is tuple
            assert len(node._kids) == len(named)
            assert all(kid is slot for kid, slot in zip(node._kids, named))

    def test_parser_builds_raw_nodes(self):
        # interning does not fold: the parser's tree renders as written
        e = parse("x*1 + 0")
        assert e is Add(Mul(Sym("x"), expr.ONE), expr.ZERO)
        assert render(e) == "x * 1 + 0"
        assert simplify(e) is Sym("x")


def doubling(k):
    """d <- d * d + x, k times from d = x: k + 1 distinct nodes below the
    root, but a tree of more than 2^k nodes once unshared."""
    d = Sym("x")
    for _ in range(k):
        d = d * d + Sym("x")
    return d


class TestDeepInput:
    """Every walk over a tree is a loop, so input deeper than Python's
    recursion limit parses, simplifies, differentiates and renders, or, for
    parenthesised input the parser cannot descend into, is a ParseError."""

    def test_deep_nesting_is_a_parse_error(self):
        with pytest.raises(ParseError, match="nested too deeply") as err:
            parse("(" * 200 + "x" + ")" * 200)
        assert 0 < err.value.offset <= 200

    def test_long_sums_walk_without_recursion(self):
        chain = parse(" + ".join(["x"] * 3000))
        assert render(chain) == " + ".join(["x"] * 3000)
        assert simplify(chain) is chain
        assert evaluate(differentiate(chain, "x"), {"x": 0.0}) == 3000.0
        assert evaluate(differentiate(chain, "y"), {}) == 0.0
        negated = Sym("x")
        for _ in range(3000):
            negated = Neg(negated)
        assert simplify(negated) is Sym("x")
        assert differentiate(negated, "x") is expr.ONE

    def test_long_sum_domain_error(self):
        chain = parse(" + ".join(["x"] * 3000))
        with pytest.raises(DomainError) as err:
            evaluate(expr.call("ln", chain - chain), {"x": 1.0})
        assert err.value.subexpression is expr.call("ln", chain - chain)


class TestDomainErrorText:
    def test_short_text_is_whole(self):
        with pytest.raises(DomainError) as err:
            evaluate(parse("sqrt(-1 - y^2)"), {"y": 0.5})
        assert str(err.value) == ("square root of a negative number in "
                                  "'sqrt(-1 - y^2)' at {'y': 0.5}")

    def test_long_text_is_cut(self):
        # ln(d - d) with d doubled 12 times renders to 21,841 characters
        node = expr.call("ln", doubling(12) - doubling(12))
        with pytest.raises(DomainError) as err:
            evaluate(node, {"x": 0.1})
        text = render(node)
        assert len(text) > expr.MESSAGE_TEXT_LIMIT
        cut = text[:expr.MESSAGE_TEXT_LIMIT] + "..."
        assert str(err.value) == f"log of a non-positive number in {cut!r} at {{'x': 0.1}}"
        assert err.value.subexpression is node

    def test_shared_text_is_not_written_out(self):
        # unshared, ln(d - d) with d doubled 16 times renders to 1.3 M
        # characters, and each further doubling multiplies that by 4
        node = expr.call("ln", doubling(16) - doubling(16))
        with pytest.raises(DomainError) as err:
            evaluate(node, {"x": 0.1})
        assert len(str(err.value)) <= expr.MESSAGE_TEXT_LIMIT + 60
        assert err.value.subexpression is node

    @pytest.mark.parametrize("limit", [0, 1, 7, 40, 400])
    def test_limit_cuts_the_full_text(self, limit):
        node = doubling(5)
        text = render(node)
        want = text if len(text) <= limit else text[:limit] + "..."
        assert render(node, limit) == want
        assert render(node, len(text)) == text


def reference_evaluate(e, env):
    """The scalar evaluator as a recursive walk with a memo per call."""
    memo = {}

    def ev(node):
        if id(node) in memo:
            return memo[id(node)]
        if isinstance(node, Num):
            out = node.value
        elif isinstance(node, Sym):
            try:
                out = float(env[node.name])
            except KeyError:
                raise UnboundSymbolError(node.name) from None
        elif isinstance(node, Neg):
            out = -ev(node.arg)
        elif isinstance(node, Add):
            out = ev(node.left) + ev(node.right)
        elif isinstance(node, Sub):
            out = ev(node.left) - ev(node.right)
        elif isinstance(node, Mul):
            out = ev(node.left) * ev(node.right)
        elif isinstance(node, Div):
            denom = ev(node.right)
            if denom == 0.0:
                raise DomainError("division by zero", node, env)
            out = ev(node.left) / denom
        elif isinstance(node, Pow):
            out = reference_pow(node, ev(node.left), ev(node.right), env)
        else:
            out = reference_call(node, ev(node.arg), env)
        memo[id(node)] = out
        return out

    return ev(e)


REFERENCE_CALLS = {"exp": np.exp, "ln": np.log, "sin": np.sin, "cos": np.cos,
                   "tan": np.tan, "cot": lambda a: np.cos(a) / np.sin(a), "sqrt": np.sqrt}


def reference_pow(node, base, expo, env):
    if base == 0.0 and expo < 0.0:
        raise DomainError("zero raised to a negative power", node, env)
    if base < 0.0 and expo != math.floor(expo):
        raise DomainError("fractional power of a negative number", node, env)
    with np.errstate(all="ignore"):
        out = float(np.power(base, expo))
    if math.isinf(out) and math.isfinite(base) and math.isfinite(expo):
        raise DomainError("overflow", node, env)
    return out


def reference_call(node, a, env):
    fn = node.func
    if fn == "ln" and a <= 0.0:
        raise DomainError("log of a non-positive number", node, env)
    if fn == "sqrt" and a < 0.0:
        raise DomainError("square root of a negative number", node, env)
    if fn == "cot" and np.sin(a) == 0.0:
        raise DomainError("cot at a multiple of pi", node, env)
    with np.errstate(all="ignore"):
        out = float(REFERENCE_CALLS[fn](a))
    if math.isinf(out) and math.isfinite(a):
        raise DomainError("overflow in exp" if fn == "exp" else "overflow", node, env)
    return out


def outcome(evaluator, node, env):
    """The value's bits, or the DomainError's text, node and point."""
    try:
        value = evaluator(node, env)
    except DomainError as ex:
        return str(ex), ex.subexpression, ex.point
    except UnboundSymbolError as ex:
        return "unbound", str(ex)
    return b"nan" if math.isnan(value) else struct.pack("<d", value)


def reference_free_symbols(e):
    if isinstance(e, Sym):
        return {e.name}
    return set().union(*(reference_free_symbols(k) for k in e._kids))


class TestWalks:
    """evaluate and free_symbols walk iteratively; nothing is left for the
    cyclic collector, and results and errors are the recursive walk's."""

    ENVS = ({"x": 0.37, "y": -1.21}, {"x": 0.0, "y": 2.0}, {"x": -2.0, "y": 0.0},
            {"x": 1.0, "y": -0.0}, {"x": 3.0, "y": 0.5})

    @settings(max_examples=100, deadline=None)
    @given(pool=shapes())
    def test_match_the_recursive_walk(self, pool):
        var, nodes = built_nodes(pool)
        for node in nodes:
            assert free_symbols(node) == reference_free_symbols(node)
            for env in self.ENVS:
                env = dict(env, **{var: env["x"] - 1.0})
                assert outcome(evaluate, node, env) == outcome(reference_evaluate, node, env)
        assert outcome(evaluate, nodes[-1], {}) == outcome(reference_evaluate, nodes[-1], {})

    def test_denominator_is_checked_before_the_numerator(self):
        e = parse("ln(x) / (x - x)")
        with pytest.raises(DomainError) as err:
            evaluate(e, {"x": -1.0})
        assert err.value.subexpression is e
        assert str(err.value) == "division by zero in 'ln(x) / (x - x)' at {'x': -1.0}"

    def test_leave_no_reference_cycles(self):
        e = simplify(differentiate(parse(f"({BUNDLED_P})^2 * ln(z) + {BUNDLED_Q}"), "y"))
        env = {"y": 0.3, "z": 1.1}
        gc.collect()
        gc.disable()
        try:
            for _ in range(10):
                free_symbols(e)
                evaluate(e, env)
            assert gc.collect() == 0
        finally:
            gc.enable()


COORDINATES = st.one_of(st.floats(-5.0, 5.0), st.floats(-800.0, 800.0))
EXP_X = ("call", "exp", ("sym", "x"))


class TestOneArithmetic:
    """evaluate computes a node as the plan does: at a point where it
    returns, its value has the bits of evaluate_many there, and where
    evaluate_many is not finite it raises DomainError."""

    @settings(max_examples=100, deadline=None)
    @given(pool=shapes(),
           points=st.lists(st.tuples(COORDINATES, COORDINATES, COORDINATES),
                           min_size=1, max_size=6))
    # math.exp rounds exp(x) here one ulp away from np.exp
    @example(pool=[EXP_X], points=[(-3.5584038728036624, 0.0, 0.0)])
    def test_evaluate_is_the_plan_at_a_point(self, pool, points):
        var, nodes = built_nodes(pool)
        columns = dict(zip(("x", "y", var), np.array(points).T))
        for node in nodes:
            many = evaluate_many(node, columns, len(points))
            for i, want in enumerate(many):
                try:
                    value = evaluate(node, {name: float(c[i]) for name, c in columns.items()})
                except DomainError:
                    continue
                assert np.isfinite(want), render(node)
                assert struct.pack("<d", value) == struct.pack("<d", want), render(node)
