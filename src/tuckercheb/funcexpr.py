"""Tiny scalar expression language over the variables x, y, z.

Grammar (standard precedence, ^ is right-associative and binds tighter
than unary minus):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?
    atom   := NUMBER | 'pi' | 'e' | 'x' | 'y' | 'z'
            | FUNC '(' expr ')' | '(' expr ')'

Implicit multiplication is not supported.  Evaluation follows IEEE-754
semantics; invalid operations (log of a negative, 0/0, ...) yield NaN.
"""

import re
from dataclasses import dataclass

import numpy as np

FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "tanh": np.tanh,
    "cosh": np.cosh,
    "sinh": np.sinh,
}

CONSTANTS = {"pi": np.pi, "e": np.e}

VARIABLES = ("x", "y", "z")


class ParseError(ValueError):
    """Syntax or name error, carrying the byte offset of the problem."""

    def __init__(self, message, position):
        self.position = position
        super().__init__(f"{message} (at offset {position})")


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class Bin:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Call:
    name: str
    arg: object


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(src):
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            stripped = src[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", len(src) - len(stripped))
        if m.lastgroup == "num":
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, src):
        self.src = src
        self.tokens = _tokenize(src)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, text, pos = self.next()
        if kind != "op" or text != op:
            raise ParseError(f"expected {op!r}", pos)

    def parse(self):
        node = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {text!r}", pos)
        return node

    def expr(self):
        node = self.term()
        while self.peek()[:2] in (("op", "+"), ("op", "-")):
            op = self.next()[1]
            node = Bin(op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek()[:2] in (("op", "*"), ("op", "/")):
            op = self.next()[1]
            node = Bin(op, node, self.unary())
        return node

    def unary(self):
        if self.peek()[:2] == ("op", "-"):
            self.next()
            return Neg(self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek()[:2] == ("op", "^"):
            self.next()
            return Bin("^", base, self.unary())
        return base

    def atom(self):
        kind, text, pos = self.next()
        if kind == "num":
            return Num(float(text))
        if kind == "name":
            if text in VARIABLES:
                return Var(text)
            if text in CONSTANTS:
                return Const(text)
            if text in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(text, arg)
            raise ParseError(f"unknown identifier {text!r}", pos)
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError(f"unexpected token {text!r}", pos)


def parse(src):
    """Parse an expression in x, y, z into a FuncExpr tree."""
    return _Parser(src).parse()


def eval_expr(e, x, y, z):
    """Evaluate a tree at (x, y, z); accepts scalars or numpy arrays."""
    with np.errstate(all="ignore"):
        return _eval(e, x, y, z)


def _eval(e, x, y, z):
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        return {"x": x, "y": y, "z": z}[e.name]
    if isinstance(e, Const):
        return CONSTANTS[e.name]
    if isinstance(e, Neg):
        return -_eval(e.arg, x, y, z)
    if isinstance(e, Call):
        return FUNCTIONS[e.name](_eval(e.arg, x, y, z))
    if isinstance(e, Bin):
        a = _eval(e.left, x, y, z)
        b = _eval(e.right, x, y, z)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if e.op == "/":
            return np.divide(a, b)
        if e.op == "^":
            return np.power(a, b)
    raise TypeError(f"not a FuncExpr node: {e!r}")


def as_function(e):
    """Wrap a tree as a vectorized callable f(x, y, z)."""
    return lambda x, y, z: eval_expr(e, x, y, z)

