"""Tiny scalar expression language over the variables x, y, z.

Grammar (standard precedence, ^ is right-associative and binds tighter
than unary minus):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?
    atom   := NUMBER | 'pi' | 'e' | 'x' | 'y' | 'z'
            | FUNC '(' expr ')' | '(' expr ')'

Implicit multiplication is not supported.

`parse(src)` compiles while it parses: each grammar rule returns a closure
g(x, y, z) for its piece of the expression, and `parse` returns the
callable f(x, y, z).  There is no syntax tree.  f takes Python floats,
numpy scalars or broadcastable arrays.  A run of `+ -` or of `* /`
operands is one closure that folds them left to right, so a long sum or
product adds no depth.  Parentheses, function calls, unary minus and `^`
exponents may nest at most MAX_NESTING levels deep; deeper input raises
ParseError, before Python's recursion limit is near.

f follows IEEE-754 semantics with numpy's floating-point warnings off:
invalid operations (0/0, log of a negative, a negative base to a
fractional power) give NaN, and division by zero or overflow give ±inf.
"""

import operator
import re

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

VARIABLES = {
    "x": lambda x, y, z: x,
    "y": lambda x, y, z: y,
    "z": lambda x, y, z: z,
}

ADDITIVE = {"+": operator.add, "-": operator.sub}
MULTIPLICATIVE = {"*": operator.mul, "/": np.divide}

# A level costs the parser at most 8 Python frames, so 64 levels stay far
# below the default recursion limit of 1000.
MAX_NESTING = 64


class ParseError(ValueError):
    """Syntax or name error, carrying the byte offset of the problem."""

    def __init__(self, message, position):
        self.position = position
        super().__init__(f"{message} (at offset {position})")


_TOKEN_RE = re.compile(
    r"(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
    r"|(?P<bad>\S)"
)


def _tokenize(src):
    tokens = [(m.lastgroup, m.group(), m.start()) for m in _TOKEN_RE.finditer(src)]
    for kind, text, pos in tokens:
        if kind == "bad":
            raise ParseError(f"unexpected character {text!r}", pos)
    return tokens + [("end", "", len(src))]


def _constant(value):
    return lambda x, y, z: value


class _Parser:
    def __init__(self, src):
        self.tokens = _tokenize(src)
        self.i = 0
        self.depth = 0

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

    def nested(self, rule, pos):
        """rule() one nesting level deeper; pos is the token that opens it."""
        if self.depth == MAX_NESTING:
            raise ParseError(f"nested deeper than {MAX_NESTING} levels", pos)
        self.depth += 1
        g = rule()
        self.depth -= 1
        return g

    def parse(self):
        g = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {text!r}", pos)
        return g

    def chain(self, ops, operand):
        """operand (op operand)*, compiled to one left fold."""
        first = operand()
        rest = []
        while self.peek()[0] == "op" and self.peek()[1] in ops:
            op = ops[self.next()[1]]
            rest.append((op, operand()))
        if not rest:
            return first

        def fold(x, y, z):
            acc = first(x, y, z)
            for op, g in rest:
                acc = op(acc, g(x, y, z))
            return acc

        return fold

    def expr(self):
        return self.chain(ADDITIVE, self.term)

    def term(self):
        return self.chain(MULTIPLICATIVE, self.unary)

    def unary(self):
        kind, text, pos = self.peek()
        if kind == "op" and text == "-":
            self.next()
            g = self.nested(self.unary, pos)
            return lambda x, y, z: -g(x, y, z)
        return self.power()

    def power(self):
        base = self.atom()
        kind, text, pos = self.peek()
        if kind == "op" and text == "^":
            self.next()
            exponent = self.nested(self.unary, pos)
            return lambda x, y, z: np.power(base(x, y, z), exponent(x, y, z))
        return base

    def atom(self):
        kind, text, pos = self.next()
        if kind == "num":
            return _constant(float(text))
        if kind == "name":
            if text in VARIABLES:
                return VARIABLES[text]
            if text in CONSTANTS:
                return _constant(CONSTANTS[text])
            if text in FUNCTIONS:
                fn = FUNCTIONS[text]
                self.expect_op("(")
                arg = self.nested(self.expr, pos)
                self.expect_op(")")
                return lambda x, y, z: fn(arg(x, y, z))
            raise ParseError(f"unknown identifier {text!r}", pos)
        if kind == "op" and text == "(":
            g = self.nested(self.expr, pos)
            self.expect_op(")")
            return g
        raise ParseError(f"unexpected token {text!r}", pos)


def parse(src):
    """Compile an expression in x, y, z to a callable f(x, y, z)."""
    g = _Parser(src).parse()

    def f(x, y, z):
        with np.errstate(all="ignore"):
            return g(x, y, z)

    return f
