"""Parser and evaluator for the small arithmetic grammar used in config files.

Supported syntax: floating point literals, the constant ``pi``, the variables
``x1`` and ``x2`` (plus ``t`` for time dependent sources), binary ``+ - * /``,
unary minus, the functions ``sin``, ``cos``, ``exp``, and parentheses.
Expressions evaluate elementwise over numpy arrays.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["Expression", "ExpressionError", "parse_expression"]

_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
_VARIABLES = ("x1", "x2", "t")


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

    def __repr__(self):
        return f"Expression({self.source!r})"


def parse_expression(source: str) -> Expression:
    """Parse ``source`` into an :class:`Expression`.

    Raises :class:`ExpressionError` with a column number on bad input.
    """
    parser = _Parser(source)
    return Expression(source, parser.parse(), parser.variables)
