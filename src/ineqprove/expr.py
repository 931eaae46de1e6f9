"""Univariate real expressions: parsing, evaluation, symbolic differentiation.

The grammar (documented in the README) covers the usual arithmetic operators
with standard precedence, function-call syntax for sqrt/exp/log/sin/cos/
arcsin/arctan, the literals pi, e and sqrt2, and the special ``kurepa`` /
``kurepa_deriv(order, ...)`` functions whose evaluation, domain check
included, delegates to the quadrature module.  Powers are restricted to
rational constant exponents so differentiation stays closed-form.  Each
operator is one entry of an operator table, holding its evaluation, its
derivative rule and, for a binary one, its printed sign; ``kurepa(u)`` is
order 0 of the one Kurepa node.

Trees are immutable; ``parse`` applies constant folding and a handful of
identity rewrites (0 + u, 1 * u, u^1, ...) so that derivative trees stay
compact.  The canonical printer is fully parenthesized and round-trips:
``parse(str(e))`` is structurally identical to ``e``.

Evaluation compiles a tree once into one straight-line program on raw
``mpmath.libmp`` tuples, one slot per distinct subexpression, at an
explicit binary precision, round to nearest, and reads no context.
Constant subtrees are folded at compile time, unless their evaluation
raises (``1/(1-1)``), and every result has the bits that mpmath arithmetic
at that precision gives.  Compiled trees are memoized per (expression,
precision) in a small bounded memo.
"""

from __future__ import annotations

import re
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from mpmath.libmp import (
    fnone, fone, from_int, fzero, mpf_add, mpf_asin, mpf_atan, mpf_cos, mpf_cos_sin, mpf_div,
    mpf_e, mpf_eq, mpf_exp, mpf_gt, mpf_le, mpf_log, mpf_lt, mpf_mul, mpf_neg, mpf_pi,
    mpf_pow, mpf_pow_int, mpf_sin, mpf_sqrt, mpf_sub, prec_to_dps, round_nearest, to_str,
)

from .errors import (
    ConfigurationError,
    DomainError,
    ExpressionSyntaxError,
    IneqproveError,
    UnknownIdentifierError,
)
from .precision import Precision, context, integer, rational, to_mpf
from . import quadrature

_ZERO = Fraction(0)
_ONE = Fraction(1)


class Node:
    """Base class for expression tree nodes."""

    __slots__ = ()


def _node(cls):
    """A frozen dataclass that keeps its hash, so that a memo hit on a tree costs O(1).

    The dataclass's own hash hashes the whole tree below a node on every call.
    """
    cls = dataclass(frozen=True)(cls)
    fields_hash = cls.__hash__

    def __hash__(self):
        h = self.__dict__.get("_hash")
        if h is None:
            h = self.__dict__["_hash"] = fields_hash(self)
        return h

    cls.__hash__ = __hash__
    return cls


@_node
class Constant(Node):
    value: Fraction


@_node
class Variable(Node):
    pass


@_node
class NamedConstant(Node):
    name: str


@_node
class UnaryOp(Node):
    op: str
    child: Node


@_node
class BinaryOp(Node):
    op: str
    left: Node
    right: Node


@_node
class KurepaNode(Node):
    """K^(order)(child); order 0 is K itself."""

    order: int
    child: Node


X = Variable()


# ----------------------------------------------------------------------
# Folding constructors.  All tree construction goes through these so that
# parser output and derivative output are folded the same way.
# ----------------------------------------------------------------------

def constant(value) -> Constant:
    return Constant(Fraction(value))


def neg(u: Node) -> Node:
    if isinstance(u, Constant):
        return Constant(-u.value)
    if isinstance(u, UnaryOp) and u.op == "neg":
        return u.child
    return UnaryOp("neg", u)


def add(l: Node, r: Node) -> Node:
    if isinstance(l, Constant) and isinstance(r, Constant):
        return Constant(l.value + r.value)
    if isinstance(l, Constant) and l.value == 0:
        return r
    if isinstance(r, Constant) and r.value == 0:
        return l
    return BinaryOp("add", l, r)


def sub(l: Node, r: Node) -> Node:
    if isinstance(l, Constant) and isinstance(r, Constant):
        return Constant(l.value - r.value)
    if isinstance(r, Constant) and r.value == 0:
        return l
    if isinstance(l, Constant) and l.value == 0:
        return neg(r)
    return BinaryOp("sub", l, r)


def mul(l: Node, r: Node) -> Node:
    if isinstance(l, Constant) and isinstance(r, Constant):
        return Constant(l.value * r.value)
    if isinstance(l, Constant):
        if l.value == 0:
            return Constant(_ZERO)
        if l.value == 1:
            return r
    if isinstance(r, Constant):
        if r.value == 0:
            return Constant(_ZERO)
        if r.value == 1:
            return l
    return BinaryOp("mul", l, r)


def div(l: Node, r: Node) -> Node:
    if isinstance(r, Constant) and r.value == 0:
        # left unfolded so evaluation reports the domain error
        return BinaryOp("div", l, r)
    if isinstance(l, Constant) and isinstance(r, Constant):
        return Constant(l.value / r.value)
    if isinstance(l, Constant) and l.value == 0:
        return Constant(_ZERO)
    if isinstance(r, Constant) and r.value == 1:
        return l
    return BinaryOp("div", l, r)


def pow_(base: Node, exponent: Constant) -> Node:
    q = exponent.value
    if q == 0:
        return Constant(_ONE)
    if q == 1:
        return base
    if isinstance(base, Constant):
        if q.denominator == 1 and (base.value != 0 or q > 0):
            return Constant(base.value ** q.numerator)
        if base.value == 1:
            return Constant(_ONE)
        if base.value == 0 and q > 0:
            return Constant(_ZERO)
    return BinaryOp("pow", base, exponent)


# ----------------------------------------------------------------------
# Tokenizer and recursive-descent parser
# ----------------------------------------------------------------------

# a number, a name, an operator, or any other character but whitespace,
# which is refused; whitespace between tokens is skipped
_SCANNER = re.compile(r"(?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
                      r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^(),])|(?P<bad>\S)")

_Token = namedtuple("_Token", "kind text pos")


def _tokenize(source: str):
    tokens = []
    for m in _SCANNER.finditer(source):
        kind, text = m.lastgroup, m.group()
        if kind == "bad":
            raise ExpressionSyntaxError(f"unexpected character {text!r}", m.start())
        tokens.append(_Token(text if kind == "op" else kind, text, m.start()))
    tokens.append(_Token("end", "", len(source)))
    return tokens


# the binary operators, loosest first: each level's operands are the next
# level's expressions, the last level's unary ones
_LEVELS = ({"+": add, "-": sub}, {"*": mul, "/": div})


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.i = 0

    def take(self, kinds=None):
        """The next token, consumed, if kinds is None or holds its kind; else None."""
        tok = self.tokens[self.i]
        if kinds is None or tok.kind in kinds:
            self.i += 1
            return tok
        return None

    def expect(self, kind: str) -> _Token:
        tok = self.take()
        if tok.kind != kind:
            raise ExpressionSyntaxError(f"expected {kind!r}", tok.pos)
        return tok

    def parse(self) -> Node:
        node = self.binary()
        tok = self.take()
        if tok.kind != "end":
            raise ExpressionSyntaxError(f"unexpected token {tok.text!r}", tok.pos)
        return node

    def binary(self, level: int = 0) -> Node:
        ops, last = _LEVELS[level], level + 1 == len(_LEVELS)
        node = self.unary() if last else self.binary(level + 1)
        while tok := self.take(ops):
            node = ops[tok.kind](node, self.unary() if last else self.binary(level + 1))
        return node

    def unary(self) -> Node:
        sign = self.take(("-", "+"))
        if not sign:
            return self.power()
        node = self.unary()
        return neg(node) if sign.kind == "-" else node

    def power(self) -> Node:
        base = self.atom()
        caret = self.take(("^",))
        if not caret:
            return base
        exponent = self.unary()
        if not isinstance(exponent, Constant):
            raise ExpressionSyntaxError("exponent must be a rational constant", caret.pos)
        return pow_(base, exponent)

    def atom(self) -> Node:
        tok = self.take()
        if tok.kind == "number":
            return Constant(Fraction(tok.text))
        if tok.kind == "(":
            node = self.binary()
            self.expect(")")
            return node
        if tok.kind == "ident":
            name = tok.text
            if name == "x":
                return X
            if name in _NAMED:
                return NamedConstant(name)
            if name in UNARY_FUNCTIONS or name in ("kurepa", "kurepa_deriv"):
                self.expect("(")
                order = 0
                if name == "kurepa_deriv":
                    order_tok = self.take()
                    if order_tok.kind != "number" or not order_tok.text.isdigit() \
                            or int(order_tok.text) < 1:
                        raise ExpressionSyntaxError(
                            "kurepa_deriv expects a positive integer order", order_tok.pos
                        )
                    order = int(order_tok.text)
                    self.expect(",")
                arg = self.binary()
                self.expect(")")
                if name in UNARY_FUNCTIONS:
                    return UnaryOp(name, arg)
                return KurepaNode(order, arg)
            raise UnknownIdentifierError(name, tok.pos)
        raise ExpressionSyntaxError(f"unexpected token {tok.text or 'end of input'!r}", tok.pos)


# ----------------------------------------------------------------------
# Canonical printer
# ----------------------------------------------------------------------

def to_source(node: Node) -> str:
    if isinstance(node, Constant):
        v = node.value
        if v < 0:
            return f"(-{to_source(Constant(-v))})"
        if v.denominator == 1:
            return str(v.numerator)
        return f"({v.numerator}/{v.denominator})"
    if isinstance(node, Variable):
        return "x"
    if isinstance(node, NamedConstant):
        return node.name
    if isinstance(node, UnaryOp):
        if node.op == "neg":
            return f"(-{to_source(node.child)})"
        return f"{node.op}({to_source(node.child)})"
    if isinstance(node, BinaryOp):
        l, r = to_source(node.left), to_source(node.right)
        if node.op == "pow":
            return f"({l}^{r})"
        return f"({l} {_BINARY[node.op][1]} {r})"
    if isinstance(node, KurepaNode):
        if node.order == 0:
            return f"kurepa({to_source(node.child)})"
        return f"kurepa_deriv({node.order}, {to_source(node.child)})"
    raise TypeError(f"not an expression node: {node!r}")


# ----------------------------------------------------------------------
# Expression wrapper and public operations
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Expression:
    """Parsed, immutable expression tree plus the source it came from."""

    root: Node
    source_text: str

    def __str__(self):
        return to_source(self.root)


def parse(source: str) -> Expression:
    """Parse source text into an Expression.

    Raises ExpressionSyntaxError (with 0-based character position) on
    malformed input and UnknownIdentifierError for unknown names.
    """
    if not isinstance(source, str) or not source.strip():
        raise ExpressionSyntaxError("empty expression", 0)
    root = _Parser(source).parse()
    return Expression(root=root, source_text=source)


# ----------------------------------------------------------------------
# Compiled evaluation on libmp tuples
# ----------------------------------------------------------------------

_MEMO_LIMIT = 8  # compiled trees kept by the memo


def show(v, prec):
    """v as ``str(mpf)`` prints it in a working context of binary precision prec."""
    return to_str(v, prec_to_dps(prec))


def _checked(f, outside, message):
    """f(v, prec, rnd), raising DomainError(message) for v where outside(v)."""
    def checked(v, prec, rnd):
        if outside(v):
            raise DomainError(message.format(show(v, prec)))
        return f(v, prec, rnd)

    return checked


def _div(l, r, prec, rnd):
    if mpf_eq(r, fzero):
        raise DomainError("division by zero")
    return mpf_div(l, r, prec, rnd)


# The operator tables, one entry per operator, which the parser, the printer,
# the compiler and the differentiator all read.  An evaluation takes libmp
# tuples (v, prec, rnd), or (l, r, prec, rnd), and checks its own domain.
_NAMED = {"pi": mpf_pi, "e": mpf_e,
          "sqrt2": lambda prec, rnd: mpf_sqrt(from_int(2), prec, rnd)}
# name -> (evaluation, printed sign, (l, r, dl, dr) -> derivative tree);
# pow, whose exponent is a rational constant, is the one binary operator outside
_BINARY = {
    "add": (mpf_add, "+", lambda l, r, dl, dr: add(dl, dr)),
    "sub": (mpf_sub, "-", lambda l, r, dl, dr: sub(dl, dr)),
    "mul": (mpf_mul, "*", lambda l, r, dl, dr: add(mul(dl, r), mul(l, dr))),
    "div": (_div, "/",
            lambda l, r, dl, dr: div(sub(mul(dl, r), mul(l, dr)), pow_(r, constant(2)))),
}
# name -> (evaluation, (u, du) -> derivative tree)
_UNARY = {
    "neg": (mpf_neg, lambda u, du: neg(du)),
    "sqrt": (_checked(mpf_sqrt, lambda v: mpf_lt(v, fzero), "sqrt of negative value {}"),
             lambda u, du: div(du, mul(constant(2), UnaryOp("sqrt", u)))),
    "exp": (mpf_exp, lambda u, du: mul(UnaryOp("exp", u), du)),
    "log": (_checked(mpf_log, lambda v: mpf_le(v, fzero), "log of non-positive value {}"),
            lambda u, du: div(du, u)),
    "sin": (mpf_sin, lambda u, du: mul(UnaryOp("cos", u), du)),
    "cos": (mpf_cos, lambda u, du: neg(mul(UnaryOp("sin", u), du))),
    "arcsin": (_checked(mpf_asin, lambda v: mpf_lt(v, fnone) or mpf_gt(v, fone),
                        "arcsin argument {} outside [-1, 1]"),
               lambda u, du: div(du, UnaryOp("sqrt", sub(constant(1), pow_(u, constant(2)))))),
    "arctan": (mpf_atan, lambda u, du: div(du, add(constant(1), pow_(u, constant(2))))),
}
UNARY_FUNCTIONS = tuple(name for name in _UNARY if name != "neg")  # the parser's names


def power(q: Fraction, prec):
    """(l, prec, rnd) -> l^q on libmp tuples, as mpmath's ``power`` rounds it.

    With the domain checks of a real power: a negative l needs an integer q.
    The power is taken with q rounded once to prec, as a NUMBER literal is.
    """
    qt = rational(q, prec)

    def power_q(l, prec, rnd):
        if mpf_gt(l, fzero):
            return mpf_pow(l, qt, prec, rnd)
        if mpf_eq(l, fzero):
            if q > 0:
                return fzero
            raise DomainError("zero base with non-positive exponent")
        if q.denominator == 1:
            return mpf_pow_int(l, q.numerator, prec, rnd)
        raise DomainError(f"negative base {show(l, prec)} with non-integer exponent {q}")

    return power_q


def _kurepa(order, p: Precision):
    """v -> K^(order)(v) by the quadrature module, at the Precision p, which checks v and order."""
    make = context(p).make_mpf

    def kurepa(v, prec, rnd):
        if order == 0:
            return quadrature.kurepa(make(v), p).value._mpf_
        return quadrature.kurepa_derivative(make(v), order, p).value._mpf_

    return kurepa


@lru_cache(maxsize=_MEMO_LIMIT)
def _compile(root: Node, prec: int, p):
    """x -> root(x) on libmp tuples at binary precision prec, round to nearest.

    The tree becomes one straight-line program with one slot per distinct
    subexpression: each node is visited once, by identity, and numbered by
    its operator and argument slots, a constant by its value.  The steps run
    in order of first occurrence, children left before right, so the first
    error raised is the one a walk of the tree meets.  A constant subtree is
    evaluated once, here, unless that raises: then it keeps its step, so that
    its error is raised at evaluation.  sin(u) and cos(u) of one slot share
    one ``mpf_cos_sin`` call, which writes both slots.
    """
    rn = round_nearest
    values = [None]  # slot -> its value where known here; slot 0 is x
    # key -> slot; id(node) -> slot; the steps (f, a, b, out), each writing
    # f(v[a], v[b]), or f(v[a]) where b is None, to slot or slice out; and
    # slot a -> the index of the step of sin(a) or cos(a)
    numbers, seen, steps, trig = {}, {}, [], {}

    def slot(node):
        if id(node) not in seen:
            seen[id(node)] = number(node)
        return seen[id(node)]

    def paired(op, a):  # sin(a) and cos(a): adjacent slots, one step where both occur
        if ("cos", a) not in numbers:
            numbers["cos", a], numbers["sin", a] = len(values), len(values) + 1
            values.extend((None, None))
            trig[a] = len(steps)
            steps.append((_UNARY[op][0], a, None, numbers[op, a]))
        elif steps[trig[a]][3] != numbers[op, a]:
            cos = numbers["cos", a]
            steps[trig[a]] = mpf_cos_sin, a, None, slice(cos, cos + 2)
        return numbers[op, a]

    def number(node):
        if isinstance(node, Variable):
            return 0
        if isinstance(node, Constant):
            key, f, args = node.value, lambda prec, rnd: rational(node.value, prec), ()
        elif isinstance(node, NamedConstant):
            key, f, args = node.name, _NAMED[node.name], ()
        elif isinstance(node, BinaryOp) and node.op != "pow":
            args = slot(node.left), slot(node.right)
            key, f = (node.op, *args), _BINARY[node.op][0]
        elif isinstance(node, UnaryOp):
            args = slot(node.child),
            if node.op in ("cos", "sin") and values[args[0]] is None:
                return paired(node.op, args[0])
            key, f = (node.op, *args), _UNARY[node.op][0]
        elif isinstance(node, BinaryOp):
            args = slot(node.left),
            key, f = ("pow", node.right.value, *args), power(node.right.value, prec)
        elif isinstance(node, KurepaNode):
            args = slot(node.child),
            key, f = ("kurepa", node.order, *args), _kurepa(node.order, p)
        else:
            raise TypeError(f"not an expression node: {node!r}")
        if key not in numbers:
            out = numbers[key] = len(values)
            values.append(None)
            if all(values[i] is not None for i in args):
                try:
                    values[out] = f(*(values[i] for i in args), prec, rn)
                except (IneqproveError, ArithmeticError):
                    pass
            if values[out] is None:
                steps.append((f, *args, out) if len(args) == 2 else (f, *args, None, out))
        return numbers[key]

    top = slot(root)

    def program(x):
        v = values.copy()
        v[0] = x
        for f, a, b, out in steps:
            v[out] = f(v[a], prec, rn) if b is None else f(v[a], v[b], prec, rn)
        return v[top]

    return program


def compiled(e, p: Precision):
    """x -> e(x) on libmp tuples at the working precision of p, by ``_compile``'s program.

    Memoized per (tree, precision) in a bounded memo; the result depends on
    the argument alone.
    """
    root = e.root if isinstance(e, Expression) else e
    return _compile(root, context(p).prec, p)


def evaluate(e: Expression, x, p: Precision = Precision()):
    """Evaluate at x with working precision p (plus guard digits).

    An mpf x keeps its bits; the value is an mpf of p's working context.
    """
    return context(p).make_mpf(compiled(e, p)(to_mpf(x, p)._mpf_))


def constant_value(source: str, p: Precision):
    """Value of a constant expression as an mpf of ``context(p)``.

    A source that mentions x is refused, even where parsing folds x away
    (``x*0``, ``x^0``); so is a kurepa node, which ``context`` refuses here
    with no Precision to compile it at.
    """
    e = parse(source)
    if any(tok.kind == "ident" and tok.text == "x" for tok in _tokenize(source)):
        raise ConfigurationError(f"{source!r} involves x")
    ctx = context(p)
    return ctx.make_mpf(_compile(e.root, ctx.prec, None)(None))


def _d(node: Node) -> Node:
    if isinstance(node, (Constant, NamedConstant)):
        return Constant(_ZERO)
    if isinstance(node, Variable):
        return Constant(_ONE)
    if isinstance(node, UnaryOp):
        return _UNARY[node.op][1](node.child, _d(node.child))
    if isinstance(node, BinaryOp) and node.op == "pow":
        l, q, dl = node.left, node.right.value, _d(node.left)
        return mul(mul(Constant(q), pow_(l, Constant(q - 1))), dl)
    if isinstance(node, BinaryOp):
        l, r = node.left, node.right
        return _BINARY[node.op][2](l, r, _d(l), _d(r))
    if isinstance(node, KurepaNode):
        return mul(KurepaNode(node.order + 1, node.child), _d(node.child))
    raise TypeError(f"not an expression node: {node!r}")


def differentiate(e: Expression, order: int = 1) -> Expression:
    """Symbolic derivative of an order ``precision.integer`` accepts, by tree rewriting and folding."""
    integer(order, "derivative order", 1)
    root = e.root if isinstance(e, Expression) else e
    for _ in range(order):
        root = _d(root)
    return Expression(root=root, source_text=to_source(root))
