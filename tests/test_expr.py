import gc
import hashlib
import math
import operator
import random
import re
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings, strategies as st
from mpmath import mp
from mpmath.libmp import (
    from_int, from_man_exp, from_rational, fzero, mpf_pow, mpf_sub, round_nearest,
)

from ineqprove import (
    ConfigurationError,
    DomainError,
    ExpressionSyntaxError,
    Polynomial,
    Precision,
    UnknownIdentifierError,
    decimal_str,
    differentiate,
    evaluate,
    kurepa,
    kurepa_derivative,
    parse,
    to_mpf,
)
from ineqprove.expr import (
    BinaryOp,
    Constant,
    Expression,
    KurepaNode,
    NamedConstant,
    UnaryOp,
    Variable,
    X,
    _program,
    compiled,
    compiled_over,
    constant_value,
    div,
    to_source,
)
from ineqprove.precision import context, finite_orders, finite_segment
from ineqprove.quotient import _compiled_quotient

from helpers import KP0, ambient, reference_evaluate


class TestParse:
    def test_arcsin_tree(self):
        e = parse("arcsin(x)")
        assert e.root == UnaryOp("arcsin", Variable())

    def test_sqrt_difference_tree(self):
        e = parse("sqrt(1+x) - sqrt(1-x)")
        assert isinstance(e.root, BinaryOp) and e.root.op == "sub"
        assert e.root.left == UnaryOp("sqrt", BinaryOp("add", Constant(1), Variable()))
        assert e.root.right == UnaryOp("sqrt", BinaryOp("sub", Constant(1), Variable()))

    def test_unbalanced_paren_position(self):
        with pytest.raises(ExpressionSyntaxError) as err:
            parse("(1+x")
        assert err.value.position == 4

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifierError) as err:
            parse("2*foo(x)")
        assert err.value.name == "foo"
        assert err.value.position == 2

    def test_empty_source(self):
        with pytest.raises(ExpressionSyntaxError):
            parse("   ")

    def test_trailing_operator(self):
        with pytest.raises(ExpressionSyntaxError) as err:
            parse("x+")
        assert err.value.position == 2

    def test_non_constant_exponent_rejected(self):
        with pytest.raises(ExpressionSyntaxError):
            parse("x^x")
        with pytest.raises(ExpressionSyntaxError):
            parse("2^pi")

    def test_rational_exponents_accepted(self):
        assert parse("x^(3/2)").root == BinaryOp("pow", Variable(), Constant(Fraction(3, 2)))
        assert parse("x^-1").root == BinaryOp("pow", Variable(), Constant(-1))

    def test_constant_folding(self):
        assert parse("2+3*4").root == Constant(14)
        assert parse("1/10").root == Constant(Fraction(1, 10))
        assert parse("0.1").root == Constant(Fraction(1, 10))
        assert parse("2^10").root == Constant(1024)
        assert parse("0*sin(x)").root == Constant(0)
        assert parse("1e-3").root == Constant(Fraction(1, 1000))
        assert parse("1E3").root == Constant(1000)
        assert parse("2.50e-2").root == Constant(Fraction(1, 40))
        assert parse("1e400").root == Constant(10 ** 400)
        assert parse("x/1").root == Variable()
        assert parse("1^(1/2)").root == Constant(1)
        assert parse("0^(3/2)").root == Constant(0)
        # a zero base with a negative exponent stays a pow node, refused when evaluated
        unfolded = parse("0^(-1/2)")
        assert unfolded.root == BinaryOp("pow", Constant(0), Constant(Fraction(-1, 2)))
        with pytest.raises(DomainError, match="^zero base with non-positive exponent$"):
            evaluate(unfolded, 1, Precision(30))

    def test_unary_plus(self):
        assert parse("+x").root == Variable()

    @pytest.mark.parametrize("source, position", [
        ("x $ 1", 2), ("x 1", 2), ("kurepa_deriv(0, x)", 13),
        # a non-ASCII character is refused; a no-break space is skipped
        ("x \u00d7 2", 2), ("x\u00a01", 2),
    ])
    def test_error_position(self, source, position):
        with pytest.raises(ExpressionSyntaxError) as err:
            parse(source)
        assert err.value.position == position

    def test_kurepa_nodes(self):
        assert parse("kurepa(x)").root == KurepaNode(0, Variable())
        assert parse("kurepa_deriv(2, x)").root == KurepaNode(2, Variable())
        with pytest.raises(ExpressionSyntaxError):
            parse("kurepa_deriv(x, x)")


ROUND_TRIP_FIXTURES = [
    "arcsin(x)",
    "sqrt(1+x) - sqrt(1-x)",
    "x*(1-x)",
    "-x^2 + 3*x - 1/2",
    "pi*(2-sqrt2)/(pi-2*sqrt2)",
    "exp(sin(cos(x)))",
    "kurepa_deriv(3, x*x)",
    "kurepa(x)/arctan(1+x^2)",
    "log(e + x)",
    "2^(3/2) * x^(1/2)",
]


@pytest.mark.parametrize("source", ROUND_TRIP_FIXTURES)
def test_print_parse_round_trip(source):
    e = parse(source)
    printed = str(e)
    again = parse(printed)
    assert again.root == e.root
    assert str(again) == printed


_leaf = st.sampled_from(["x", "pi", "e", "sqrt2", "0", "1", "2", "7", "0.5", "3.25"])
_expr_text = st.recursive(
    _leaf,
    lambda inner: st.one_of(
        st.tuples(st.sampled_from(
            ["sqrt", "exp", "log", "sin", "cos", "arcsin", "arctan", "kurepa"]
        ), inner).map(lambda t: f"{t[0]}({t[1]})"),
        st.tuples(inner, st.sampled_from(["+", "-", "*", "/"]), inner).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"
        ),
        st.tuples(inner, st.sampled_from(["2", "3", "(1/2)", "(-2)"])).map(
            lambda t: f"({t[0]}^{t[1]})"
        ),
        inner.map(lambda s: f"-({s})"),
    ),
    max_leaves=12,
)


@settings(max_examples=80, deadline=None)
@given(_expr_text)
def test_round_trip_property(source):
    e = parse(source)
    assert parse(str(e)).root == e.root


class TestEvaluate:
    def test_arcsin_origin(self, p50):
        assert evaluate(parse("arcsin(x)"), 0, p50) == 0

    def test_arcsin_endpoint(self, p50):
        v = evaluate(parse("arcsin(x)"), 1, p50)
        with ambient(p50):
            assert abs(v - mp.pi / 2) < mp.mpf(10) ** -55

    def test_kurepa_at_one(self, p50):
        v = evaluate(parse("kurepa(x)"), 1, p50)
        assert abs(v - 1) < mpmath.mpf("1e-30")

    def test_named_constants(self, p50):
        v = evaluate(parse("sqrt2*sqrt2"), 0, p50)
        assert abs(v - 2) < mpmath.mpf("1e-55")

    def test_negative_base_integer_exponent(self, p50):
        assert evaluate(parse("(0-2)^3"), 0, p50) == -8

    @pytest.mark.parametrize("source, x", [
        ("arcsin(x)", "1.5"),
        ("log(x)", 0),
        ("sqrt(x)", -1),
        ("1/x", 0),
        ("x^(1/2)", -2),
        ("kurepa(x)", -1),
    ])
    def test_domain_errors(self, source, x, p50):
        with pytest.raises(DomainError):
            evaluate(parse(source), x, p50)

    def test_determinism(self, p50):
        e = parse("exp(sin(x)) - arctan(x/3)")
        x = mpmath.mpf("0.7381")
        a = evaluate(e, x, p50)
        b = evaluate(e, x, p50)
        assert a._mpf_ == b._mpf_

    def test_result_independent_of_ambient_context(self, p50, p35):
        # evaluate and the scalar entry points beside it give the same bits
        # under any ambient mp.dps
        e = parse("exp(sin(x)) - arctan(x/3)")
        x = mpmath.mpf("0.7381")

        def outcomes():
            poly = Polynomial.from_monomial(["0.2", "-0.7", "pi/7"], 0, "pi/2", p50)
            values = [evaluate(e, x, p50), evaluate(e, "0.7381", p50),
                      evaluate(parse("kurepa(x)"), "0.5", p35),
                      to_mpf("0.1", p50), to_mpf("pi/3", p50), to_mpf(Fraction(1, 3), p50),
                      to_mpf(mpmath.pi, p50),
                      kurepa("0.5", p35).value, kurepa_derivative("0.5", 2, p35).value,
                      *poly.coefficients, *poly.to_monomial(p50)]
            texts = [decimal_str(v, p50) for v in ("0.1", Fraction(1, 3), 7, x)]
            return [v._mpf_ for v in values], texts

        reference = outcomes()
        for dps in (15, 200):
            with mp.workdps(dps):
                assert outcomes() == reference


    @pytest.mark.parametrize("source, message", [
        ("1/(1-1)", "division by zero"),
        ("sqrt(0-1)", "sqrt of negative value -1.0"),
    ])
    def test_constant_domain_error_raised_at_evaluation(self, source, message, p50):
        e = parse(source)
        compiled(e, p50)
        with pytest.raises(DomainError, match=re.escape(message)):
            evaluate(e, 0, p50)

    @pytest.mark.parametrize("digits", [15, 30, 35, 50])
    def test_wide_literal_rounded_once(self, digits):
        # a NUMBER of 20-90 significant digits is its rational value rounded
        # once: the bits to_mpf gives the same text and its Fraction, and,
        # as a rational exponent, the power of that one rounding
        p = Precision(digits)
        prec = context(p).prec
        rng = random.Random(digits)
        for _ in range(200):
            figures = rng.choice("123456789") + "".join(
                rng.choice("0123456789") for _ in range(rng.randint(19, 89)))
            point = rng.randrange(len(figures))
            text = f"{figures[:point] or '0'}.{figures[point:]}"
            q = Fraction(text)
            once = from_rational(q.numerator, q.denominator, prec, round_nearest)
            assert evaluate(parse(text), 0, p)._mpf_ == once, text
            assert to_mpf(text, p)._mpf_ == once, text
            assert to_mpf(q, p)._mpf_ == once, text
            exponent = Fraction(f"0.{figures}")
            assert evaluate(parse(f"x^0.{figures}"), 3, p)._mpf_ == mpf_pow(
                from_int(3), from_rational(exponent.numerator, exponent.denominator, prec,
                                           round_nearest), prec, round_nearest), text

    def test_left_operand_evaluated_first(self, p50):
        e = parse("log(x) + 1/(1-1)")
        with pytest.raises(DomainError, match="log of non-positive"):
            evaluate(e, 0, p50)
        with pytest.raises(DomainError, match="division by zero"):
            evaluate(e, 1, p50)


def _outcome(evaluator, e, x, p):
    """The bits of e at x, or the type and message of the error raised."""
    try:
        return evaluator(e, x, p)._mpf_
    except Exception as exc:
        return type(exc), str(exc)


_FLOAT_UNARY = {"neg": operator.neg, "sqrt": math.sqrt, "exp": math.exp, "log": math.log,
                "sin": math.sin, "cos": math.cos, "arcsin": math.asin, "arctan": math.atan}
_FLOAT_BINARY = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
                 "div": operator.truediv, "pow": operator.pow}
_FLOAT_CONSTANTS = {"pi": math.pi, "e": math.e, "sqrt2": math.sqrt(2)}


def _float_walk(node, x):
    if isinstance(node, Constant):
        v = float(node.value)
    elif isinstance(node, Variable):
        v = x
    elif isinstance(node, NamedConstant):
        v = _FLOAT_CONSTANTS[node.name]
    elif isinstance(node, UnaryOp):
        v = _FLOAT_UNARY[node.op](_float_walk(node.child, x))
    else:
        v = _FLOAT_BINARY[node.op](_float_walk(node.left, x), _float_walk(node.right, x))
    if abs(v) > 1e100:
        raise OverflowError
    return v


def _moderate(node, x):
    """Whether a float walk of node at x stays below 1e100 in magnitude.

    mpmath's exp, sin and cos slow down without bound as the exponent of
    their argument grows, so trees such as sin(exp(exp(7^27))) are left out.
    A float domain error ends the walk, as it ends the mpmath one.
    """
    try:
        _float_walk(node, x)
    except OverflowError:
        return False
    except (ValueError, ZeroDivisionError, TypeError):
        pass
    return True


@settings(max_examples=120, deadline=None)
@given(_expr_text.filter(lambda source: "kurepa" not in source), st.integers(0, 2),
       st.sampled_from([20, 50]))
def test_compiled_matches_reference_walker(source, order, digits):
    """Compiled evaluation equals the tree walk bit for bit, errors included."""
    e = parse(source)
    if order:
        e = differentiate(e, order)
    p = Precision(digits)
    points = [x for x in ("-0.75", "0", "0.5", "1", "2.5") if _moderate(e.root, float(x))]
    assume(points)
    for x in points:
        assert _outcome(evaluate, e, x, p) == _outcome(reference_evaluate, e, x, p), x


@pytest.mark.parametrize("source", [
    "kurepa(x/2) - kurepa_deriv(2, x)",
    "kurepa_deriv(3, x^2)",
    "kurepa(x - pi/8)",
    # domain errors whose messages print a value in full
    "sqrt(sin(x) - pi/4)",
    "log(x - e)",
    "arcsin(x*pi)",
    "(x - sqrt2)^(1/3)",
])
def test_compiled_matches_reference_walker_on_fixed_trees(source, p30):
    e = parse(source)
    for tree in (e, differentiate(e)):
        for x in ("0", "0.25", "1.25"):
            assert _outcome(evaluate, tree, x, p30) == _outcome(reference_evaluate, tree, x, p30)


# leaves of the trees below: x, constants, a constant subtree whose evaluation
# raises, and subtrees that raise for some x
_LEAVES = ["x", "2*x", "1/3", "pi", "sqrt2", "1/(1-1)", "sqrt(0-1)", "sqrt(x-1)", "log(x)",
           "arcsin(x/2)", "(x-1)^(1/3)", "x^2"]
_OPS = ["add", "sub", "mul", "div"]
_recipes = st.recursive(
    st.sampled_from(_LEAVES),
    lambda inner: st.one_of(
        st.tuples(st.sampled_from(sorted(_FLOAT_UNARY)), inner),
        st.tuples(st.sampled_from(_OPS), inner, inner),
        st.tuples(st.sampled_from(["twice", "trig"]), st.sampled_from(_OPS), inner),
    ),
    max_leaves=8,
)


def _build(recipe):
    """A tree of the recipe in which no two nodes are one object.

    ("twice", op, u) is op(u, u) and ("trig", op, u) is op(sin(u), cos(u)),
    with u built twice.  The nodes are made as they are, unfolded.
    """
    if isinstance(recipe, str):
        return parse(recipe).root
    head, *rest = recipe
    if head == "twice":
        return BinaryOp(rest[0], _build(rest[1]), _build(rest[1]))
    if head == "trig":
        return BinaryOp(rest[0], UnaryOp("sin", _build(rest[1])), UnaryOp("cos", _build(rest[1])))
    if len(rest) == 1:
        return UnaryOp(head, _build(rest[0]))
    return BinaryOp(head, _build(rest[0]), _build(rest[1]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_recipes, st.sampled_from([20, 50]))
def test_value_numbered_program_matches_reference_walker(recipe, digits):
    """Repeated subtrees, sin and cos of one argument and raising constants, bit for bit."""
    e, p = Expression(_build(recipe), ""), Precision(digits)
    points = [x for x in ("-0.75", "0", "0.5", "1.5", "3") if _moderate(e.root, float(x))]
    assume(points)
    for x in points:
        assert _outcome(evaluate, e, x, p) == _outcome(reference_evaluate, e, x, p), x
    # a tree without x, as its source, by constant_value
    parsed = parse(to_source(e.root))
    value = _outcome(lambda c, x, p: constant_value(c.source_text, p), parsed, None, p)
    if value[0] is not ConfigurationError:
        assert value == _outcome(reference_evaluate, parsed, "0", p)


def _leaves(value):
    if isinstance(value, (tuple, list)):
        for item in value:
            yield from _leaves(item)
    else:
        yield value


def test_the_program_is_plain_data():
    """Keys, slots and exact constants, with no function and no precision in it."""
    program = _program(parse("sin(x/2)+cos(x/2)+2^(1/2)*kurepa(x)").root)
    # slot 0 is x; sin(x/2) and cos(x/2) take slots 4 and 3 from one step
    assert program == (10, 9, [
        (Fraction(2), (), 1), ("div", (0, 1), 2), ("cos_sin", (2,), 3), ("add", (4, 3), 5),
        (("pow", Fraction(1, 2)), (1,), 6), (("kurepa", 0), (0,), 7), ("mul", (6, 7), 8),
        ("add", (5, 8), 9)])
    steps = program[2]
    assert not any(callable(leaf) for leaf in _leaves(program))
    assert [key for key, _, _ in steps].count("cos_sin") == 1
    assert [type(key) for key, args, _ in steps if not args] == [Fraction]
    assert all(type(key[1]) in (Fraction, int) for key, _, _ in steps if type(key) is tuple)


@pytest.mark.parametrize("source", [
    "sin(x/2)+cos(x/2)+2^(1/2)*kurepa(x)", "sin(x) - x", "cos(x^2)*(1-x)", "sqrt(1-x) + x^3",
    "(x-(31/100))^2-(1/100)", "x", "cos(x) + x",
])
def test_a_quotient_binds_over_its_f(source, p30):
    # g's tree, f's subtree first, is walked in full: f's program is its
    # prefix, so binding over f's raises no ValueError, and g has the bits
    # of its own source evaluated
    f = parse(source)
    a, b = finite_segment(0, 1, p30)
    for n, m, den in ((3, "1/2", "x^3 * sqrt(1 - x)"), (1, 2, "x * (1 - x)^2")):
        g = _compiled_quotient(f, a, b, *finite_orders(n, m, p30), p30)
        quotient = parse(f"({source}) / ({den})")
        for x in ("0.125", "0.37", "0.5", "0.9"):
            xv = to_mpf(x, p30)
            assert g(xv._mpf_) == evaluate(quotient, xv, p30)._mpf_, (n, m, x)


def test_a_build_leaves_no_cycle(p30):
    # the walk's recursive closure, slot, refers to itself through its cell
    # until the walk ends; a build leaves no slot for the collector
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        _program(parse("sin(x/2)+cos(x/2)+2^(1/2)*kurepa(x)").root)
        f = parse("sqrt(1-x) + x^3")
        compiled(f, p30)
        compiled_over(f, div(f.root, UnaryOp("sqrt", X)), p30)
        gc.collect()
        names = [getattr(o, "__qualname__", None) for o in gc.garbage]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert "_program.<locals>.slot" not in names


def test_a_tree_that_changes_its_base_program_is_refused(p30):
    # sin(x) beside f's lone cos(x) makes f's step a cos_sin step, which f's
    # bound program does not run, so compiled_over refuses the tree
    f = parse("cos(x) + x")
    with pytest.raises(ValueError, match="does not start with the base program"):
        compiled_over(f, BinaryOp("add", f.root, UnaryOp("sin", X)), p30)
    g = compiled_over(f, BinaryOp("add", f.root, UnaryOp("exp", X)), p30)
    x = to_mpf("0.37", p30)
    assert context(p30).make_mpf(g(x._mpf_)) == evaluate(parse("cos(x) + x + exp(x)"), x, p30)


def test_a_difference_with_zero_has_the_bits_of_mpf_sub(p30):
    # the binder runs u - 0, which only rounds u, without a subtraction
    prec = context(p30).prec
    f = compiled(BinaryOp("sub", X, Constant(Fraction(0))), p30)
    rng = random.Random(7)
    for bits in (1, prec - 1, prec, prec + 1, prec + 2, 3 * prec):
        for man in ((1 << bits) - 1, (1 << bits - 1) + 1, rng.getrandbits(bits) | 1):
            for v in (from_man_exp(man, -bits), from_man_exp(-man, 40)):
                assert f(v) == mpf_sub(v, fzero, prec, round_nearest), (bits, man)
    assert f(fzero) == fzero


# a table of exact rational arithmetic: an operator key -> its function, and
# "pow" -> q -> the function of ("pow", q), for integer q
_EXACT = {"neg": operator.neg, "add": operator.add, "sub": operator.sub, "mul": operator.mul,
          "div": operator.truediv, "pow": lambda q: lambda l: l ** q}


def _run_exactly(program, x):
    size, top, steps = program
    v = [x] + [None] * (size - 1)
    for key, args, out in steps:
        if not args:  # a constant, keyed by its exact value
            v[out] = key
        else:
            f = _EXACT[key[0]](key[1]) if isinstance(key, tuple) else _EXACT[key]
            v[out] = f(*(v[i] for i in args))
    return v[top]


@pytest.mark.parametrize("source, exact", [
    ("(x+1/3)*(x-2)/(x^2+1) - x^3",
     lambda x: (x + Fraction(1, 3)) * (x - 2) / (x ** 2 + 1) - x ** 3),
    ("1/(x-1/2) + (x-1/2)^(-2) - (2*x)*(2*x)",
     lambda x: 1 / (x - Fraction(1, 2)) + (x - Fraction(1, 2)) ** -2 - (2 * x) * (2 * x)),
    ("-(x/7 - 3)^3 + x*x*x - (x/7 - 3)", lambda x: -(x / 7 - 3) ** 3 + x * x * x - (x / 7 - 3)),
    ("2.5 - x*(1.25 - x)", lambda x: Fraction(5, 2) - x * (Fraction(5, 4) - x)),
])
def test_any_arithmetic_runs_the_program(source, exact):
    # the program of a rational expression, run under exact rational
    # arithmetic, gives the exact value
    program = _program(parse(source).root)
    for x in (Fraction(1, 3), Fraction(-5, 7), Fraction(2), Fraction(10 ** 30 + 1, 10 ** 30)):
        assert _run_exactly(program, x) == exact(x), x


# every operator's derivative rule and the Kurepa node's, each taken 1 to 4 times
DERIVATIVE_CORPUS = [
    "exp(sin(x))*arctan(x) - x - x^2",
    "sqrt(1+x) - sqrt(1-x)",
    "log(1+x)/(1+x^2)",
    "arcsin(x/2)*cos(x)",
    "x^(3/2) - pi*x + sqrt2",
    "kurepa(x^2) - kurepa_deriv(1, x)*x",
    "-x/(e+x)",
    "cos(x^2)",
]
# sha256 of the printed trees for k = 1..4 in turn, over the corpus in order
DERIVATIVE_HASH = "c8bbb082258c841eec5fed183f6e529bd5e99a7dd93da5b3e3d0fe7a538f3a6f"


class TestDifferentiate:
    def test_derivative_trees_pinned(self):
        digest = hashlib.sha256()
        for source in DERIVATIVE_CORPUS:
            for k in range(1, 5):
                digest.update(str(differentiate(parse(source), k)).encode())
        assert digest.hexdigest() == DERIVATIVE_HASH

    def test_arcsin_derivative(self, p50):
        d = differentiate(parse("arcsin(x)"))
        assert str(d) == "(1 / sqrt((1 - (x^2))))"

    def test_second_derivative_of_square(self):
        d2 = differentiate(parse("x*x"), 2)
        assert d2.root == Constant(2)

    def test_kurepa_chain(self, p50):
        d = differentiate(parse("kurepa(x)"))
        assert d.root == KurepaNode(1, Variable())
        v = evaluate(d, 0, p50)
        assert abs(v - mpmath.mpf("1.432205735")) < mpmath.mpf("5e-9")
        assert abs(v - mpmath.mpf(KP0)) < mpmath.mpf("1e-30")

    def test_kurepa_deriv_order_increments(self):
        d = differentiate(parse("kurepa_deriv(1, x)"))
        assert d.root == KurepaNode(2, Variable())

    def test_order_validation(self):
        for order in (0, True):
            with pytest.raises(ConfigurationError, match=(
                    f"^derivative order must be an integer of at least 1, got {order}$")):
                differentiate(parse("x"), order)

    def test_power_rule(self, p50):
        d = differentiate(parse("x^(3/2)"))
        v = evaluate(d, "0.25", p50)
        with ambient(p50):
            assert abs(v - mp.mpf(3) / 2 * mp.sqrt(mp.mpf("0.25"))) < mp.mpf(10) ** -55


def _random_source(rng, depth=0):
    roll = rng.random()
    if depth >= 3 or roll < 0.3:
        return rng.choice(["x", "x", "x", "pi", "2", "0.5", "(1/3)"])
    if roll < 0.55:
        fn = rng.choice(["sin", "cos", "arctan", "exp"])
        return f"{fn}({_random_source(rng, depth + 1)})"
    if roll < 0.65:
        return f"arcsin(({_random_source(rng, depth + 1)})/4)" if depth < 2 else "arcsin(x/2)"
    op = rng.choice(["+", "-", "*", "/", "^"])
    left = _random_source(rng, depth + 1)
    right = _random_source(rng, depth + 1) if op != "^" else rng.choice(["2", "3", "(1/2)"])
    return f"({left} {op} {right})" if op != "^" else f"(({left})^{right})"


def test_finite_difference_consistency(p50):
    """Symbolic first derivatives agree with central differences.

    20 random expressions from the grammar, 10 random interior points each,
    step 1e-8 at 50-digit precision, relative tolerance 1e-6.
    """
    rng = random.Random(20260809)
    checked = 0
    attempts = 0
    h = mpmath.mpf("1e-8")
    while checked < 20 and attempts < 400:
        attempts += 1
        source = _random_source(rng)
        try:
            e = parse(source)
            d = differentiate(e)
        except ExpressionSyntaxError:
            continue
        points = [mpmath.mpf(rng.uniform(0.1, 0.9)) for _ in range(10)]
        ok_points = 0
        try:
            for x in points:
                sym = evaluate(d, x, p50)
                f_plus = evaluate(e, x + h, p50)
                f_minus = evaluate(e, x - h, p50)
                if max(abs(f_plus), abs(f_minus), abs(sym)) > mpmath.mpf("1e6"):
                    break
                fd = (f_plus - f_minus) / (2 * h)
                assert abs(sym - fd) <= mpmath.mpf("1e-6") * max(1, abs(sym)), \
                    f"finite difference mismatch for {source} at {x}"
                ok_points += 1
        except (DomainError, ZeroDivisionError, OverflowError):
            continue
        if ok_points == 10:
            checked += 1
    assert checked == 20
