"""Parser and evaluator for the small arithmetic grammar used in config files.

Supported syntax: floating point literals, the constant ``pi``, the variables
``x1`` and ``x2`` (plus ``t`` for time dependent sources), binary ``+ - * /``,
unary minus, the functions ``sin``, ``cos``, ``exp``, and parentheses.
Expressions evaluate elementwise over numpy arrays.  An expression that is a
sum of products of an ``x1`` factor and an ``x2`` factor splits exactly into
those products (:meth:`Expression.separable`).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["Expression", "ExpressionError", "parse_expression"]

_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
_VARIABLES = ("x1", "x2", "t")
# Most products a product of sums may distribute into before
# ``Expression.separable`` refuses the split.
MAX_PRODUCTS = 16


class ExpressionError(ValueError):
    """Raised on malformed expression text; carries the 1-based column."""

    def __init__(self, message: str, column: int):
        super().__init__(f"{message} (column {column})")
        self.column = column


def _tokenize(src: str):
    tokens = []
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if c.isspace():
            i += 1
            continue
        if c in "+-*/()":
            tokens.append((c, c, i))
            i += 1
            continue
        if c.isdigit() or c == ".":
            j = i
            seen_exp = False
            while j < n:
                cj = src[j]
                if cj.isdigit() or cj == ".":
                    j += 1
                elif cj in "eE" and not seen_exp:
                    seen_exp = True
                    j += 1
                    if j < n and src[j] in "+-":
                        j += 1
                else:
                    break
            text = src[i:j]
            try:
                value = float(text)
            except ValueError:
                raise ExpressionError(f"bad number literal {text!r}", i + 1)
            tokens.append(("num", value, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(("name", src[i:j], i))
            i = j
            continue
        raise ExpressionError(f"unexpected character {c!r}", i + 1)
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.pos = 0
        self.variables = set()

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.advance()
        if tok[0] != kind:
            raise ExpressionError(f"expected {kind!r}, found {tok[1]!r}", tok[2] + 1)
        return tok

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ExpressionError(f"trailing input starting at {tok[1]!r}", tok[2] + 1)
        return node

    def expr(self):
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            node = ("bin", op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            node = ("bin", op, node, self.factor())
        return node

    def factor(self):
        tok = self.peek()
        if tok[0] == "-":
            self.advance()
            return ("neg", self.factor())
        if tok[0] == "+":
            self.advance()
            return self.factor()
        return self.atom()

    def atom(self):
        tok = self.advance()
        if tok[0] == "num":
            return ("num", tok[1])
        if tok[0] == "(":
            node = self.expr()
            self.expect(")")
            return node
        if tok[0] == "name":
            name = tok[1]
            if name == "pi":
                return ("num", math.pi)
            if name in _VARIABLES:
                self.variables.add(name)
                return ("var", name)
            if name in _FUNCTIONS:
                self.expect("(")
                arg = self.expr()
                self.expect(")")
                return ("call", name, arg)
            raise ExpressionError(f"unknown name {name!r}", tok[2] + 1)
        raise ExpressionError(f"unexpected token {tok[1]!r}", tok[2] + 1)


def _eval(node, env):
    kind = node[0]
    if kind == "num":
        return node[1]
    if kind == "var":
        value = env.get(node[1])
        if value is None:
            raise ValueError(f"expression uses {node[1]!r} but no value was supplied")
        return value
    if kind == "neg":
        return -_eval(node[1], env)
    if kind == "bin":
        a = _eval(node[2], env)
        b = _eval(node[3], env)
        op = node[1]
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        # IEEE division, as on arrays: a constant x / 0 gives inf or nan
        # (caught by the finiteness checks) instead of raising
        return np.true_divide(a, b)
    if kind == "call":
        return _FUNCTIONS[node[1]](_eval(node[2], env))
    raise AssertionError(f"bad node {node!r}")


def _names(node) -> frozenset:
    """The variables a node uses."""
    kind = node[0]
    if kind == "num":
        return frozenset()
    if kind == "var":
        return frozenset((node[1],))
    if kind == "bin":
        return _names(node[2]) | _names(node[3])
    return _names(node[-1])  # neg, call


def _text(node) -> str:
    """Source text of a node, every operation in parentheses."""
    kind = node[0]
    if kind == "num":
        return repr(node[1])
    if kind == "var":
        return node[1]
    if kind == "neg":
        return f"-({_text(node[1])})"
    if kind == "bin":
        return f"({_text(node[2])} {node[1]} {_text(node[3])})"
    return f"{node[1]}({_text(node[2])})"


def _times(a, b):
    """The product node of two factors of one variable; None stands for 1."""
    if a is None or b is None:
        return b if a is None else a
    return ("bin", "*", a, b)


def _split(node):
    """``[(scale, g, h)]`` with ``node == sum scale * g * h``, ``g`` a node of
    x1 alone and ``h`` of x2 alone (None for 1); None when a part depends on
    both variables or on ``t``, or the products would pass MAX_PRODUCTS.

    A subtree of one variable is one factor as written, so it evaluates with
    the same arithmetic as in the whole expression."""
    names = _names(node)
    if "t" in names:
        return None
    if not names:
        return [(float(_eval(node, {})), None, None)]
    if names == {"x1"}:
        return [(1.0, node, None)]
    if names == {"x2"}:
        return [(1.0, None, node)]
    kind = node[0]
    if kind == "neg":
        inner = _split(node[1])
        return None if inner is None else [(-s, g, h) for s, g, h in inner]
    if kind != "bin":
        return None  # a function of both variables
    op, a, b = node[1:]
    if op == "/":
        if _names(b):
            return None
        inner, c = _split(a), float(_eval(b, {}))
        return None if inner is None else [(np.true_divide(s, c), g, h)
                                           for s, g, h in inner]
    left, right = _split(a), _split(b)
    if left is None or right is None:
        return None
    if op == "+":
        return left + right
    if op == "-":
        return left + [(-s, g, h) for s, g, h in right]
    if len(left) * len(right) > MAX_PRODUCTS:
        return None
    return [(s * r, _times(g, k), _times(h, m))
            for s, g, h in left for r, k, m in right]


class Expression:
    """A parsed expression; callable with keyword arrays ``x1``, ``x2``, ``t``."""

    def __init__(self, source: str, node, variables):
        self.source = source
        self._node = node
        self.variables = frozenset(variables)

    @property
    def is_constant(self) -> bool:
        return not self.variables

    def __call__(self, x1=None, x2=None, t=None):
        env = {"x1": x1, "x2": x2, "t": t}
        return _eval(self._node, env)

    def separable(self):
        """The expression as products ``(scale, g, h)``: ``scale`` a float,
        ``g`` an expression of ``x1`` alone and ``h`` of ``x2`` alone (None
        standing for 1), whose sum is the expression.  The split is exact: it
        works at the top-level ``+``, ``-``, unary minus and ``*``, and at a
        division by a constant, and distributes a product of sums.  None when
        a part depends on both variables (``sin(x1*x2)``) or on ``t``."""
        with np.errstate(all="ignore"):  # a non-finite scale is kept as is
            products = _split(self._node)
        if products is None:
            return None

        def part(node):
            return None if node is None else Expression(_text(node), node,
                                                        _names(node))
        return [(float(s), part(g), part(h)) for s, g, h in products]

    def __repr__(self):
        return f"Expression({self.source!r})"


def parse_expression(source: str) -> Expression:
    """Parse ``source`` into an :class:`Expression`.

    Raises :class:`ExpressionError` with a column number on bad input.
    """
    parser = _Parser(source)
    return Expression(source, parser.parse(), parser.variables)
