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

import operator
import re

from .algebra import GAError, _blade_key
from . import transforms

__all__ = ["ParseError", "EvalError", "tokenize", "parse", "evaluate",
           "format_multivector"]


class _LocatedError(GAError):
    """An error that may carry the character offset of the problem."""

    def __init__(self, message, pos=None):
        super().__init__(message)
        self.message = message
        self.pos = pos

    def __str__(self):
        if self.pos is None:
            return self.message
        return f"{self.message} (offset {self.pos})"


class ParseError(_LocatedError):
    """Malformed expression text; carries the offset of the problem."""


class EvalError(_LocatedError):
    """A well-formed expression that cannot be evaluated; pos, when set, is
    the offset of the part at fault."""


# One alternative per token kind, tried in order at each position: numbers
# before names (so 2e1 is a number), a basis blade only as a whole word, and
# the two-character operators before `|`.
_TOKEN = re.compile(r"""
    (?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)
  | (?P<basis>e[0-9]+(?![A-Za-z0-9_]))
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op><\||\|>|[-+*^|~!])
  | (?P<lparen>\()
  | (?P<rparen>\))
  | (?P<comma>,)
  | (?P<space>\s+)
  | (?P<bad>.)
""", re.VERBOSE | re.DOTALL)


def tokenize(text):
    """Split text into (kind, value, pos) tokens; kinds are num, basis,
    ident, op, lparen, rparen, comma, end."""
    tokens = []
    for m in _TOKEN.finditer(text):
        kind, value, pos = m.lastgroup, m.group(), m.start()
        if kind == "space":
            continue
        if kind == "bad":
            raise ParseError(f"unexpected character {value!r}", pos)
        tokens.append((kind, float(value) if kind == "num" else value, pos))
    tokens.append(("end", "", len(text)))
    return tokens


# How tightly each binary operator binds; all associate left.
_PRECEDENCE = {"+": 1, "-": 1, "|": 2, "*": 3, "<|": 4, "|>": 4, "^": 5}


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

    def binary(self, min_precedence=1):
        """Parse operands joined by operators binding at least min_precedence
        tightly (precedence climbing)."""
        node = self.unary()
        while True:
            kind, op, _ = self.peek()
            if kind in ("num", "basis", "ident", "lparen"):
                op = "*"  # juxtaposition is the geometric product
            elif kind != "op":
                return node
            precedence = _PRECEDENCE.get(op, 0)
            if precedence < min_precedence:
                return node
            if kind == "op":
                self.next()
            node = ("bin", op, node, self.binary(precedence + 1))

    def unary(self):
        kind, op, _ = self.peek()
        if kind == "op" and op in _UNARY:
            self.next()
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
                args = [self.binary()]
                while self.peek()[0] == "comma":
                    self.next()
                    args.append(self.binary())
                self.expect("rparen", "')'")
                return ("call", value, args, pos)
            return ("var", value, pos)
        if kind == "lparen":
            node = self.binary()
            self.expect("rparen", "')'")
            return node
        shown = value if value else "end of input"
        raise ParseError(f"unexpected {shown!r}", pos)


def parse(text, algebra):
    """Parse expression text to an AST for the given algebra.

    Basis indices are validated here, so `e4` in Cl(3,0) is a parse error.
    Raises ParseError with a byte offset.
    """
    parser = _Parser(tokenize(text), algebra)
    node = parser.binary()
    kind, value, pos = parser.peek()
    if kind != "end":
        raise ParseError(f"unexpected {value!r}", pos)
    return node


def _basis_indices(digits, algebra, pos):
    if algebra.n >= 10:
        indices = (int(digits),)
    else:
        indices = tuple(int(ch) for ch in digits)
    try:
        _blade_key(algebra.n, indices)
    except ValueError as exc:
        raise ParseError(str(exc), pos) from None
    return indices


def _grade_literal(node):
    if node[0] == "num":
        value = node[1]
    elif node[0] == "unary" and node[1] == "-" and node[2][0] == "num":
        value = -node[2][1]
    else:
        raise EvalError("grade(A, k) needs an integer literal k")
    if not value.is_integer():  # False for an infinite literal too
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


# The tables look methods and transforms functions up at call time instead of
# holding them, so wrappers installed on Multivector or on the transforms
# module after import (as a tracing profiler does) still see every call.
_UNARY = {
    "-": operator.neg,
    "~": operator.methodcaller("reverse"),
    "!": operator.methodcaller("grade_involution"),
}

_BINARY = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "^": operator.xor,
    "<|": lambda a, b: a.left_contract(b),
    "|>": lambda a, b: a.right_contract(b),
    "|": lambda a, b: a.algebra.scalar(a.scalar_product(b)),
}


# name: (arity, function). grade(A, k) is not here: it takes a literal k.
_FUNCTIONS = {
    "dual": (1, operator.methodcaller("dual")),
    "idual": (1, operator.methodcaller("inverse_dual")),
    "exp": (1, operator.methodcaller("exp")),
    "norm2": (1, lambda a: a.algebra.scalar(a.norm_squared())),
    "inv": (1, operator.methodcaller("inverse")),
    "rev": (1, operator.methodcaller("reverse")),
    "conj": (1, operator.methodcaller("clifford_conjugate")),
    "proj": (2, lambda a, b: transforms.project(a, b)),
    "rej": (2, lambda a, b: transforms.reject(a, b)),
    "reflect": (2, lambda a, b: transforms.reflect(a, b)),
}


def _eval(node, algebra, env):
    kind = node[0]
    if kind == "num":
        return algebra.scalar(node[1])
    if kind == "blade":
        return algebra.blade(node[1])
    if kind == "var":
        name = node[1]
        if name not in env:
            raise EvalError(f"unknown variable {name!r}", node[2])
        value = env[name]
        if value.algebra != algebra:
            raise EvalError(f"variable {name!r} belongs to a different algebra")
        return value
    if kind == "unary":
        return _UNARY[node[1]](_eval(node[2], algebra, env))
    if kind == "bin":
        # Walk down a left-nested chain such as a + b + c in a loop, so that a
        # long sum or product costs no Python stack per term.
        chain = []
        while node[0] == "bin":
            chain.append(node)
            node = node[2]
        value = _eval(node, algebra, env)
        for _, op, _, rhs in reversed(chain):
            value = _BINARY[op](value, _eval(rhs, algebra, env))
        return value
    if kind == "call":
        _, name, args, _pos = node
        if name == "grade":
            _need_args(name, args, 2)
            return _eval(args[0], algebra, env).grade(_grade_literal(args[1]))
        if name not in _FUNCTIONS:
            raise EvalError(f"unknown function {name!r}")
        arity, fn = _FUNCTIONS[name]
        values = [_eval(a, algebra, env) for a in args]
        _need_args(name, values, arity)
        return fn(*values)
    raise EvalError(f"cannot evaluate node {kind!r}")


def format_multivector(mv):
    """Canonical text form: terms by grade then index order, '0' for zero."""
    return str(mv)
