"""The ga-calc expression language: tokenizer, parser, and evaluator.

Grammar, loosest to tightest binding (all binary operators left-associative):

    + -            addition, subtraction
    |              scalar product (result is a scalar)
    * or adjacency geometric product
    <|  |>         left and right contraction
    ^              outer product
    ~ ! -          prefix reverse, grade involution, negation

Atoms are numbers, basis blades like e1 or e123, variables, parenthesized
expressions, and function calls: dual, idual, grade(A, k), exp, proj, rej,
reflect, norm2, inv, rev, conj. Adjacency means a geometric product:
`a b`, `2(e1+e2)`, `(a)(b)`.

Numbers are decimal literals with an optional exponent, and the tokenizer
is greedy: `2e1` is the number 20, not 2 times e1 (write `2*e1` or `2 e1`).
Basis tokens map each digit to one index when the algebra dimension is at
most 9; in larger algebras the whole digit string is a single index, so
wedge basis vectors explicitly there. Basis indices are checked against
the algebra at parse time.
"""

from __future__ import annotations

import re

from .algebra import GAError
from . import transforms

__all__ = ["ParseError", "EvalError", "tokenize", "parse", "evaluate",
           "format_multivector"]


class ParseError(GAError):
    """Malformed expression text; carries the byte offset of the problem."""

    def __init__(self, message, pos):
        super().__init__(f"{message} (offset {pos})")
        self.message = message
        self.pos = pos


class EvalError(GAError):
    """A well-formed expression that cannot be evaluated."""


_NUMBER = re.compile(r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_BASIS = re.compile(r"e\d+\Z")

_TWO_CHAR = {"<|": "<|", "|>": "|>"}
_SINGLE = set("+-*^|~!(),")


def tokenize(text):
    """Split text into (kind, value, pos) tokens; kinds are num, basis,
    ident, op, lparen, rparen, comma, end."""
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        m = _NUMBER.match(text, i)
        if m:
            tokens.append(("num", float(m.group()), i))
            i = m.end()
            continue
        m = _IDENT.match(text, i)
        if m:
            word = m.group()
            kind = "basis" if _BASIS.match(word) else "ident"
            tokens.append((kind, word, i))
            i = m.end()
            continue
        pair = text[i:i + 2]
        if pair in _TWO_CHAR:
            tokens.append(("op", pair, i))
            i += 2
            continue
        if ch == "|":
            tokens.append(("op", "|", i))
            i += 1
            continue
        if ch in _SINGLE:
            if ch == "(":
                tokens.append(("lparen", ch, i))
            elif ch == ")":
                tokens.append(("rparen", ch, i))
            elif ch == ",":
                tokens.append(("comma", ch, i))
            else:
                tokens.append(("op", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens, algebra):
        self.tokens = tokens
        self.algebra = algebra
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind, what):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {what}, found {tok[1]!r}", tok[2])
        return tok

    def at_op(self, *names):
        kind, value, _ = self.peek()
        return kind == "op" and value in names

    def parse(self):
        node = self.additive()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected {tok[1]!r}", tok[2])
        return node

    def additive(self):
        node = self.scalar_product()
        while self.at_op("+", "-"):
            op = self.next()[1]
            node = ("bin", op, node, self.scalar_product())
        return node

    def scalar_product(self):
        node = self.geometric()
        while self.at_op("|"):
            self.next()
            node = ("bin", "|", node, self.geometric())
        return node

    def geometric(self):
        node = self.contraction()
        while True:
            if self.at_op("*"):
                self.next()
                node = ("bin", "*", node, self.contraction())
            elif self.peek()[0] in ("num", "basis", "ident", "lparen"):
                node = ("bin", "*", node, self.contraction())
            else:
                return node

    def contraction(self):
        node = self.outer()
        while self.at_op("<|", "|>"):
            op = self.next()[1]
            node = ("bin", op, node, self.outer())
        return node

    def outer(self):
        node = self.unary()
        while self.at_op("^"):
            self.next()
            node = ("bin", "^", node, self.unary())
        return node

    def unary(self):
        if self.at_op("~", "!", "-"):
            op = self.next()[1]
            return ("unary", op, self.unary())
        return self.atom()

    def atom(self):
        kind, value, pos = self.next()
        if kind == "num":
            return ("num", value, pos)
        if kind == "basis":
            return ("blade", _basis_indices(value[1:], self.algebra, pos), pos)
        if kind == "ident":
            if self.peek()[0] == "lparen":
                self.next()
                args = [self.additive()]
                while self.peek()[0] == "comma":
                    self.next()
                    args.append(self.additive())
                self.expect("rparen", "')'")
                return ("call", value, args, pos)
            return ("var", value, pos)
        if kind == "lparen":
            node = self.additive()
            self.expect("rparen", "')'")
            return node
        shown = value if value else "end of input"
        raise ParseError(f"unexpected {shown!r}", pos)


def parse(text, algebra):
    """Parse expression text to an AST for the given algebra.

    Basis indices are validated here, so `e4` in Cl(3,0) is a parse error.
    Raises ParseError with a byte offset.
    """
    return _Parser(tokenize(text), algebra).parse()


def _basis_indices(digits, algebra, pos):
    if algebra.n >= 10:
        indices = [int(digits)]
    else:
        indices = [int(ch) for ch in digits]
    for idx in indices:
        if not 1 <= idx <= algebra.n:
            raise ParseError(f"basis index {idx} outside 1..{algebra.n}", pos)
    if len(set(indices)) != len(indices):
        raise ParseError(f"repeated index in basis blade e{digits}", pos)
    return tuple(indices)


def _grade_literal(node):
    if node[0] == "num":
        value = node[1]
    elif node[0] == "unary" and node[1] == "-" and node[2][0] == "num":
        value = -node[2][1]
    else:
        raise EvalError("grade(A, k) needs an integer literal k")
    if value != int(value):
        raise EvalError("grade(A, k) needs an integer literal k")
    return int(value)


def _need_args(name, args, count):
    if len(args) != count:
        raise EvalError(f"{name} takes {count} argument{'s' if count != 1 else ''}, "
                        f"got {len(args)}")


def evaluate(node, algebra, env=None):
    """Evaluate the AST to a Multivector in the given algebra.

    env maps variable names to multivectors. Scalar-valued results (norm2,
    the | operator) come back as scalar multivectors.
    """
    if env is None:
        env = {}
    return _eval(node, algebra, env)


def _eval(node, algebra, env):
    kind = node[0]
    if kind == "num":
        return algebra.scalar(node[1])
    if kind == "blade":
        return algebra.blade(node[1])
    if kind == "var":
        name = node[1]
        if name not in env:
            raise EvalError(f"unknown variable {name!r} (offset {node[2]})")
        value = env[name]
        if value.algebra != algebra:
            raise EvalError(f"variable {name!r} belongs to a different algebra")
        return value
    if kind == "unary":
        value = _eval(node[2], algebra, env)
        if node[1] == "-":
            return -value
        if node[1] == "~":
            return value.reverse()
        return value.grade_involution()
    if kind == "bin":
        _, op, lhs, rhs = node
        a = _eval(lhs, algebra, env)
        b = _eval(rhs, algebra, env)
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "^":
            return a ^ b
        if op == "<|":
            return a.left_contract(b)
        if op == "|>":
            return a.right_contract(b)
        return algebra.scalar(a.scalar_product(b))
    if kind == "call":
        _, name, args, _pos = node
        if name == "grade":
            _need_args(name, args, 2)
            return _eval(args[0], algebra, env).grade(_grade_literal(args[1]))
        values = [_eval(a, algebra, env) for a in args]
        if name == "dual":
            _need_args(name, values, 1)
            return values[0].dual()
        if name == "idual":
            _need_args(name, values, 1)
            return values[0].inverse_dual()
        if name == "exp":
            _need_args(name, values, 1)
            return values[0].exp()
        if name == "norm2":
            _need_args(name, values, 1)
            return algebra.scalar(values[0].norm_squared())
        if name == "inv":
            _need_args(name, values, 1)
            return values[0].inverse()
        if name == "rev":
            _need_args(name, values, 1)
            return values[0].reverse()
        if name == "conj":
            _need_args(name, values, 1)
            return values[0].clifford_conjugate()
        if name == "proj":
            _need_args(name, values, 2)
            return transforms.project(values[0], values[1])
        if name == "rej":
            _need_args(name, values, 2)
            return transforms.reject(values[0], values[1])
        if name == "reflect":
            _need_args(name, values, 2)
            return transforms.reflect(values[0], values[1])
        raise EvalError(f"unknown function {name!r}")
    raise EvalError(f"cannot evaluate node {kind!r}")


def format_multivector(mv):
    """Canonical text form: terms by grade then index order, '0' for zero."""
    return str(mv)
