"""Univariate real expressions: parsing, evaluation, symbolic differentiation.

The grammar (documented in the README) covers the usual arithmetic operators
with standard precedence, function-call syntax for sqrt/exp/log/sin/cos/
arcsin/arctan, the literals pi, e and sqrt2, and the special ``kurepa`` /
``kurepa_deriv(order, ...)`` functions whose evaluation delegates to the
quadrature module.  Powers are restricted to rational constant exponents so
differentiation stays closed-form.

Trees are immutable; ``parse`` applies constant folding and a handful of
identity rewrites (0 + u, 1 * u, u^1, ...) so that derivative trees stay
compact.  The canonical printer is fully parenthesized and round-trips:
``parse(str(e))`` is structurally identical to ``e``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp

from .errors import (
    ConfigurationError,
    DomainError,
    ExpressionSyntaxError,
    UnknownIdentifierError,
)
from .precision import Precision, to_mpf, working

UNARY_FUNCTIONS = ("sqrt", "exp", "log", "sin", "cos", "arcsin", "arctan")
NAMED_CONSTANTS = ("pi", "e", "sqrt2")
BINARY_OPS = ("add", "sub", "mul", "div", "pow")

_ZERO = Fraction(0)
_ONE = Fraction(1)


class Node:
    """Base class for expression tree nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Constant(Node):
    value: Fraction


@dataclass(frozen=True)
class Variable(Node):
    pass


@dataclass(frozen=True)
class NamedConstant(Node):
    name: str


@dataclass(frozen=True)
class UnaryOp(Node):
    op: str
    child: Node


@dataclass(frozen=True)
class BinaryOp(Node):
    op: str
    left: Node
    right: Node


@dataclass(frozen=True)
class KurepaNode(Node):
    child: Node


@dataclass(frozen=True)
class KurepaDerivNode(Node):
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


def pow_(base: Node, exponent: Node) -> Node:
    if not isinstance(exponent, Constant):
        raise ExpressionSyntaxError("exponent must fold to a rational constant", -1)
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

_NUMBER_RE = re.compile(r"\d+(?:\.\d+)?(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind, text, pos):
        self.kind = kind
        self.text = text
        self.pos = pos


def _tokenize(source: str):
    tokens = []
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        m = _NUMBER_RE.match(source, i)
        if m:
            tokens.append(_Token("number", m.group(), i))
            i = m.end()
            continue
        m = _IDENT_RE.match(source, i)
        if m:
            tokens.append(_Token("ident", m.group(), i))
            i = m.end()
            continue
        if ch in "+-*/^(),":
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        raise ExpressionSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


def _number_fraction(text: str) -> Fraction:
    if "e" in text or "E" in text:
        mantissa, _, exp = text.replace("E", "e").partition("e")
        return Fraction(mantissa) * Fraction(10) ** int(exp)
    return Fraction(text)


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ExpressionSyntaxError(f"expected {kind!r}", tok.pos)
        return self.advance()

    def parse(self) -> Node:
        node = self.expression()
        tok = self.peek()
        if tok.kind != "end":
            raise ExpressionSyntaxError(f"unexpected token {tok.text!r}", tok.pos)
        return node

    def expression(self) -> Node:
        node = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            rhs = self.term()
            node = add(node, rhs) if op == "+" else sub(node, rhs)
        return node

    def term(self) -> Node:
        node = self.unary()
        while self.peek().kind in ("*", "/"):
            op = self.advance().kind
            rhs = self.unary()
            node = mul(node, rhs) if op == "*" else div(node, rhs)
        return node

    def unary(self) -> Node:
        tok = self.peek()
        if tok.kind == "-":
            self.advance()
            return neg(self.unary())
        if tok.kind == "+":
            self.advance()
            return self.unary()
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        tok = self.peek()
        if tok.kind == "^":
            caret = self.advance()
            exponent = self.unary()
            if not isinstance(exponent, Constant):
                raise ExpressionSyntaxError(
                    "exponent must be a rational constant", caret.pos
                )
            return pow_(base, exponent)
        return base

    def atom(self) -> Node:
        tok = self.advance()
        if tok.kind == "number":
            return Constant(_number_fraction(tok.text))
        if tok.kind == "(":
            node = self.expression()
            self.expect(")")
            return node
        if tok.kind == "ident":
            name = tok.text
            if name == "x":
                return X
            if name in NAMED_CONSTANTS:
                return NamedConstant(name)
            if name in UNARY_FUNCTIONS or name == "kurepa":
                self.expect("(")
                arg = self.expression()
                self.expect(")")
                if name == "kurepa":
                    return KurepaNode(arg)
                return UnaryOp(name, arg)
            if name == "kurepa_deriv":
                self.expect("(")
                order_tok = self.peek()
                if order_tok.kind != "number" or not order_tok.text.isdigit():
                    raise ExpressionSyntaxError(
                        "kurepa_deriv expects a positive integer order", order_tok.pos
                    )
                self.advance()
                order = int(order_tok.text)
                if order < 1:
                    raise ExpressionSyntaxError(
                        "kurepa_deriv order must be >= 1", order_tok.pos
                    )
                self.expect(",")
                arg = self.expression()
                self.expect(")")
                return KurepaDerivNode(order, arg)
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
        sign = {"add": "+", "sub": "-", "mul": "*", "div": "/"}.get(node.op)
        if sign is not None:
            return f"({l} {sign} {r})"
        return f"({l}^{r})"
    if isinstance(node, KurepaNode):
        return f"kurepa({to_source(node.child)})"
    if isinstance(node, KurepaDerivNode):
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

    def evaluate(self, x, p: Precision = Precision()):
        return evaluate(self, x, p)


def parse(source: str) -> Expression:
    """Parse source text into an Expression.

    Raises ExpressionSyntaxError (with 0-based character position) on
    malformed input and UnknownIdentifierError for unknown names.
    """
    if not isinstance(source, str) or not source.strip():
        raise ExpressionSyntaxError("empty expression", 0)
    root = _Parser(source).parse()
    return Expression(root=root, source_text=source)


def _eval(node: Node, x, p: Precision):
    if isinstance(node, Constant):
        return mp.mpf(node.value.numerator) / node.value.denominator
    if isinstance(node, Variable):
        return x
    if isinstance(node, NamedConstant):
        if node.name == "pi":
            return +mp.pi
        if node.name == "e":
            return +mp.e
        return mp.sqrt(2)
    if isinstance(node, UnaryOp):
        v = _eval(node.child, x, p)
        op = node.op
        if op == "neg":
            return -v
        if op == "sqrt":
            if v < 0:
                raise DomainError(f"sqrt of negative value {v}")
            return mp.sqrt(v)
        if op == "exp":
            return mp.exp(v)
        if op == "log":
            if v <= 0:
                raise DomainError(f"log of non-positive value {v}")
            return mp.log(v)
        if op == "sin":
            return mp.sin(v)
        if op == "cos":
            return mp.cos(v)
        if op == "arcsin":
            if v < -1 or v > 1:
                raise DomainError(f"arcsin argument {v} outside [-1, 1]")
            return mp.asin(v)
        if op == "arctan":
            return mp.atan(v)
        raise DomainError(f"unsupported unary operator {op!r}")
    if isinstance(node, BinaryOp):
        l = _eval(node.left, x, p)
        op = node.op
        if op == "pow":
            q = node.right.value
            if l > 0:
                return mp.power(l, mp.mpf(q.numerator) / q.denominator)
            if l == 0:
                if q > 0:
                    return mp.mpf(0)
                raise DomainError("zero base with non-positive exponent")
            if q.denominator == 1:
                return mp.power(l, q.numerator)
            raise DomainError(f"negative base {l} with non-integer exponent {q}")
        r = _eval(node.right, x, p)
        if op == "add":
            return l + r
        if op == "sub":
            return l - r
        if op == "mul":
            return l * r
        if op == "div":
            if r == 0:
                raise DomainError("division by zero")
            return l / r
        raise DomainError(f"unsupported binary operator {op!r}")
    if isinstance(node, (KurepaNode, KurepaDerivNode)):
        from . import quadrature  # deferred: quadrature has no expr dependency

        v = _eval(node.child, x, p)
        if v < 0:
            raise DomainError(f"kurepa argument {v} is negative")
        if isinstance(node, KurepaNode):
            return quadrature.kurepa(v, p).value
        if node.order > 3:
            raise DomainError(
                f"kurepa derivative of order {node.order} is not supported (max 3)"
            )
        return quadrature.kurepa_derivative(v, node.order, p).value
    raise TypeError(f"not an expression node: {node!r}")


def evaluate(e: Expression, x, p: Precision = Precision()):
    """Evaluate at x with working precision p (plus guard digits)."""
    root = e.root if isinstance(e, Expression) else e
    with working(p):
        xv = to_mpf(x)
        return _eval(root, xv, p)


def _d(node: Node) -> Node:
    if isinstance(node, (Constant, NamedConstant)):
        return Constant(_ZERO)
    if isinstance(node, Variable):
        return Constant(_ONE)
    if isinstance(node, UnaryOp):
        u, du = node.child, _d(node.child)
        op = node.op
        if op == "neg":
            return neg(du)
        if op == "sqrt":
            return div(du, mul(constant(2), UnaryOp("sqrt", u)))
        if op == "exp":
            return mul(UnaryOp("exp", u), du)
        if op == "log":
            return div(du, u)
        if op == "sin":
            return mul(UnaryOp("cos", u), du)
        if op == "cos":
            return neg(mul(UnaryOp("sin", u), du))
        if op == "arcsin":
            return div(du, UnaryOp("sqrt", sub(constant(1), pow_(u, constant(2)))))
        if op == "arctan":
            return div(du, add(constant(1), pow_(u, constant(2))))
        raise DomainError(f"cannot differentiate operator {op!r}")
    if isinstance(node, BinaryOp):
        l, r = node.left, node.right
        dl, dr = _d(l), _d(r)
        op = node.op
        if op == "add":
            return add(dl, dr)
        if op == "sub":
            return sub(dl, dr)
        if op == "mul":
            return add(mul(dl, r), mul(l, dr))
        if op == "div":
            return div(sub(mul(dl, r), mul(l, dr)), pow_(r, constant(2)))
        # pow with rational constant exponent
        q = r.value
        return mul(mul(Constant(q), pow_(l, Constant(q - 1))), dl)
    if isinstance(node, KurepaNode):
        return mul(KurepaDerivNode(1, node.child), _d(node.child))
    if isinstance(node, KurepaDerivNode):
        return mul(KurepaDerivNode(node.order + 1, node.child), _d(node.child))
    raise TypeError(f"not an expression node: {node!r}")


def differentiate(e: Expression, order: int = 1) -> Expression:
    """Symbolic derivative of the given order (tree rewriting plus folding)."""
    if not isinstance(order, int) or order < 1:
        raise ConfigurationError(f"derivative order must be a positive integer, got {order!r}")
    root = e.root if isinstance(e, Expression) else e
    for _ in range(order):
        root = _d(root)
    return Expression(root=root, source_text=to_source(root))
