"""Minimal arithmetic expression language over the time variable ``t``.

Used for time-dependent Kraus and Hamiltonian entries in JSON configs; both
kinds of matrix are stored as cells and evaluated by ``evaluate_matrix``.

The parser hash-conses: equal subtrees parsed with one table become one
node object (value numbering), and ``matrix_cells`` shares a table across
the cells of a matrix.  ``evaluate_matrix`` then hands one memo to every
``evaluate`` call of that matrix, so a subexpression repeated across cells,
such as the ``sqrt(w*(1-exp(-t)))`` factor of every entry of a
mixed-unitary Kraus operator, is evaluated and checked once per call.

Grammar::

    expr    := term (("+" | "-") term)*
    term    := factor (("*" | "/") factor)*
    factor  := "-" factor | power
    power   := primary ("^" factor)?
    primary := NUMBER | "t" | IDENT "(" expr ")" | "(" expr ")"
    NUMBER  := [0-9]+ ("." [0-9]*)? ([eE] [+-]? [0-9]+)?
    IDENT   := [A-Za-z_] [A-Za-z0-9_]*

Each token is the longest match at its offset.  Whitespace (a character for
which ``str.isspace()`` is true) is skipped, and any other character is a
LexError: ``.5`` is one.  "^" is right-associative and binds tighter than
unary minus, so ``-2^2`` evaluates to -4 (the conventional mathematical
reading).  IDENT is restricted to exp, sqrt, log, sin, cos; ``log`` is the
natural logarithm.  There are no variables besides ``t`` and no user
constants.  A NUMBER must be finite as a double: ``1e400`` is a ParseError,
not infinity.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

#: Function names; each is the numpy ufunc of the same name.
FUNCTIONS = ("exp", "sqrt", "log", "sin", "cos")


class ExpressionError(ValueError):
    """Base class for lexing, parsing, and evaluation failures."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (offset {position})")
        self.message = message
        self.position = position


class LexError(ExpressionError):
    pass


class ParseError(ExpressionError):
    pass


class DomainError(ExpressionError):
    """Evaluation produced a non-finite or mathematically undefined value."""


class Token(NamedTuple):
    kind: str  # number | ident | t | plus | minus | star | slash | caret | lparen | rparen
    lexeme: str
    position: int


# One alternative per token kind, "t" being an ident; see the grammar above.
_TOKEN = re.compile(r"""
    (?P<number>[0-9]+(?:\.[0-9]*)?(?:[eE][+-]?[0-9]+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<plus>\+) | (?P<minus>-) | (?P<star>\*) | (?P<slash>/) | (?P<caret>\^)
  | (?P<lparen>\() | (?P<rparen>\))
  | (?P<space>\s+) | (?P<other>.)
""", re.VERBOSE | re.DOTALL)


def tokenize(src: str) -> list[Token]:
    """The tokens of ``src``; a character that no rule takes is a LexError."""
    tokens: list[Token] = []
    for match in _TOKEN.finditer(src):
        kind, lexeme = match.lastgroup, match.group()
        if kind == "other":
            raise LexError(f"unexpected character {lexeme!r}", match.start())
        if kind != "space":
            tokens.append(Token("t" if lexeme == "t" else kind, lexeme, match.start()))
    return tokens


# ---------------------------------------------------------------------------
# Expression tree.  ``pos`` is carried for error messages but excluded from
# structural equality so pretty-print round trips compare clean.  A shared
# node carries the position of its first occurrence, which is where
# evaluation in cell order first meets it.
# ---------------------------------------------------------------------------


class Expression:
    pass


@dataclass(frozen=True)
class Number(Expression):
    value: float
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class TimeVar(Expression):
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Negate(Expression):
    child: Expression
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Binary(Expression):
    op: str  # one of + - * / ^
    left: Expression
    right: Expression
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Call(Expression):
    fn: str
    arg: Expression
    pos: int = field(default=0, compare=False)


def _shared(table: dict, cls: type, key: tuple, *fields) -> Expression:
    """The node of class ``cls`` in ``table`` under ``key``, built from
    ``fields`` and entered if there is none.  ``key`` holds the node's
    operator or function, the identities of its children (already shared)
    and a number's exact bits, so that ``0.0`` and ``-0.0`` stay apart."""
    key = (cls, *key)
    node = table.get(key)
    if node is None:
        node = table[key] = cls(*fields)
    return node


class _Parser:
    def __init__(self, tokens: list[Token], table: dict):
        self.tokens = tokens
        self.i = 0
        self.table = table

    def _peek(self) -> Token | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def _next(self, kind: str | None = None, what: str = "") -> Token:
        """The next token, which must be of ``kind`` (named ``what``) if given."""
        tok = self._peek()
        if tok is None:
            end = self.tokens[-1].position + len(self.tokens[-1].lexeme) if self.tokens else 0
            raise ParseError("unexpected end of expression", end)
        if kind is not None and tok.kind != kind:
            raise ParseError(f"expected {what}, found {tok.lexeme!r}", tok.position)
        self.i += 1
        return tok

    def expr(self) -> Expression:
        return self._chain(("plus", "minus"), self.term)

    def term(self) -> Expression:
        return self._chain(("star", "slash"), self.factor)

    def _chain(self, kinds: tuple, operand) -> Expression:
        """operand (op operand)* grouped to the left, op a token of ``kinds``."""
        node = operand()
        while (tok := self._peek()) is not None and tok.kind in kinds:
            self.i += 1
            rhs = operand()
            op = tok.lexeme
            node = _shared(self.table, Binary, (op, id(node), id(rhs)), op, node, rhs, tok.position)
        return node

    def factor(self) -> Expression:
        if (tok := self._peek()) is not None and tok.kind == "minus":
            self.i += 1
            child = self.factor()
            return _shared(self.table, Negate, (id(child),), child, tok.position)
        return self.power()

    def power(self) -> Expression:
        node = self.primary()
        if (tok := self._peek()) is not None and tok.kind == "caret":
            self.i += 1
            rhs = self.factor()
            return _shared(self.table, Binary, ("^", id(node), id(rhs)), "^", node, rhs, tok.position)
        return node

    def primary(self) -> Expression:
        tok = self._next()
        if tok.kind == "number":
            value = float(tok.lexeme)
            if not math.isfinite(value):
                raise ParseError(f"number {tok.lexeme!r} overflows a double", tok.position)
            return _shared(self.table, Number, (value.hex(),), value, tok.position)
        if tok.kind == "t":
            return _shared(self.table, TimeVar, (), tok.position)
        if tok.kind == "ident":
            if tok.lexeme not in FUNCTIONS:
                raise ParseError(f"unknown function {tok.lexeme!r}", tok.position)
            self._next("lparen", "'('")
            arg = self.expr()
            self._next("rparen", "')'")
            return _shared(self.table, Call, (tok.lexeme, id(arg)), tok.lexeme, arg, tok.position)
        if tok.kind == "lparen":
            node = self.expr()
            self._next("rparen", "')'")
            return node
        raise ParseError(f"unexpected token {tok.lexeme!r}", tok.position)


def parse(tokens: list[Token], table: dict | None = None) -> Expression:
    """Parse a token stream into an Expression; the whole stream must be
    consumed.  Equal subtrees become one node object, shared through
    ``table`` with earlier parses (a fresh table by default)."""
    parser = _Parser(tokens, {} if table is None else table)
    node = parser.expr()
    if (leftover := parser._peek()) is not None:
        raise ParseError(f"unexpected trailing token {leftover.lexeme!r}", leftover.position)
    if not isinstance(node, (Binary, Call)):
        # A root that is a literal, t or a negation is checked only as the
        # root, and fails only at a non-finite t; its error must name this
        # parse's offset, not that of an earlier parse it is shared with.
        position = next(tok.position for tok in tokens if tok.kind != "lparen")
        if node.pos != position:
            node = replace(node, pos=position)
    return node


def parse_source(src: str, table: dict | None = None) -> Expression:
    return parse(tokenize(src), table)


# On numpy scalars and arrays these give inf or NaN, never an exception.
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": operator.truediv, "^": operator.pow}


def evaluate(expr: Expression, t, memo: dict | None = None):
    """IEEE double evaluation at a float ``t`` (a float) or at each entry of an
    array of times (an array of its shape).  Raises DomainError at the node
    that divides by zero or yields a non-finite value, naming the first bad t.

    ``memo`` maps the ids of nodes already evaluated at this same ``t`` to
    their values (only values that passed their checks, in a call that had
    no failure); a node found there is not evaluated again.  The nodes must
    stay alive while the memo is in use."""
    times = np.asarray(t, dtype=float)
    failures: list = []
    with np.errstate(all="ignore"):
        value = _eval(expr, times, failures, {} if memo is None else memo)
    if not isinstance(expr, (Binary, Call)):  # those were checked in _eval
        _check(expr, value, (), times, failures)
    if failures:
        # The first failing time, and there the node a one-time evaluation
        # would stop at: the earliest check in evaluation order.
        index, _, message, pos = min(failures)
        raise DomainError(f"{message} at t={float(times.flat[index])!r}", pos)
    if times.ndim == 0:
        return float(value)
    out = np.empty(times.shape)
    out[...] = value
    return out


def _eval(expr: Expression, times: np.ndarray, failures: list, memo: dict):
    """Value of ``expr`` over ``times``, a scalar for a subtree without ``t``.
    Checked nodes (operators and calls) are memoized while nothing failed."""
    value = memo.get(id(expr))
    if value is not None:
        return value
    if isinstance(expr, Binary):
        operands = (_eval(expr.left, times, failures, memo),
                    _eval(expr.right, times, failures, memo))
        value = _BINARY[expr.op](*operands)
    elif isinstance(expr, Number):
        return np.float64(expr.value)
    elif isinstance(expr, Call):
        operands = (_eval(expr.arg, times, failures, memo),)
        value = getattr(np, expr.fn)(*operands)
    elif isinstance(expr, TimeVar):
        return times if times.ndim else times[()]
    elif isinstance(expr, Negate):
        return -_eval(expr.child, times, failures, memo)
    else:
        raise TypeError(f"not an Expression node: {expr!r}")
    _check(expr, value, operands, times, failures)
    if not failures:
        memo[id(expr)] = value
    return value


def _check(expr: Expression, value, operands: tuple, times: np.ndarray, failures: list):
    """Record (first bad time index, check order, message, position) if ``value`` is not finite."""
    # on a numpy scalar, comparisons cost a fraction of np.isfinite
    if np.isfinite(value).all() if isinstance(value, np.ndarray) else -np.inf < value < np.inf:
        return
    index = int(np.argmin(np.broadcast_to(np.isfinite(value), times.shape).ravel()))
    at = [float(np.broadcast_to(x, times.shape).flat[index]) for x in (value, *operands)]
    if not operands:
        message = "expression evaluated to a non-finite value"
    elif isinstance(expr, Call):
        message = ("overflow in exp()" if expr.fn == "exp"
                   else f"{expr.fn}() of out-of-domain argument {at[1]!r}")
    elif expr.op == "/" and at[2] == 0.0:
        message = "division by zero"
    elif expr.op == "^":
        # NaN for a negative base with a fractional exponent, infinity for
        # zero to a negative power: both undefined, unlike an overflow.
        undefined = np.isnan(at[0]) or (at[1] == 0.0 and at[2] < 0.0)
        message = "invalid operands for '^'" if undefined else "overflow in '^'"
    else:
        message = f"non-finite result from '{expr.op}'"
    failures.append((index, len(failures), message, getattr(expr, "pos", 0)))


def as_expression(value, table: dict | None = None) -> Expression:
    """Normalize a number (not a bool), source string, or Expression into an
    Expression; a string is parsed with ``table`` (see parse)."""
    if isinstance(value, Expression):
        return value
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        v = float(value)
        return Negate(Number(-v)) if v < 0 else Number(v)
    if isinstance(value, str):
        return parse_source(value, table)
    raise TypeError(f"cannot interpret {value!r} as an expression")


# An expression-valued complex matrix is the tuple of its non-zero cells
# ((i, j), (re, im)); every other entry is zero.
ZERO = Number(0.0)
Cell = tuple[tuple[int, int], tuple[Expression, Expression]]


def as_cell(value, table: dict | None = None) -> tuple[Expression, Expression]:
    """(re, im) expressions of a value accepted by as_expression (a real
    entry) or of an [re, im] pair of such values."""
    if isinstance(value, (tuple, list)):
        if len(value) != 2:
            raise ValueError(f"matrix entry must be a [re, im] pair, got {value!r}")
        return as_expression(value[0], table), as_expression(value[1], table)
    return as_expression(value, table), ZERO


def matrix_cells(entries) -> tuple[Cell, ...]:
    """The cells of ((i, j), entry) items whose parts are not both the literal 0,
    parsed with one table, so equal subexpressions of different cells are
    one node.  An entry of another type raises a TypeError naming it."""
    cells = []
    table: dict = {}
    for (i, j), value in entries:
        try:
            cell = as_cell(value, table)
        except TypeError as exc:
            raise TypeError(f"entry ({i},{j}): {exc}") from exc
        if cell != (ZERO, ZERO):
            cells.append(((i, j), cell))
    return tuple(cells)


def evaluate_matrix(cells, dim: int, t) -> np.ndarray:
    """The (dim, dim) complex matrix of ``cells`` at a float ``t``, or the
    (T, dim, dim) stack over an array of times.  A literal-0 part is not
    evaluated; every part shares one memo, so a subexpression shared by
    several cells is evaluated once.  A DomainError names the entry and the
    first bad t."""
    times = np.asarray(t, dtype=float)
    out = np.zeros(times.shape + (dim, dim), dtype=np.complex128)
    memo: dict = {}
    for (i, j), (re_part, im_part) in cells:
        try:
            if re_part != ZERO:
                out.real[..., i, j] = evaluate(re_part, times, memo)
            if im_part != ZERO:
                out.imag[..., i, j] = evaluate(im_part, times, memo)
        except DomainError as exc:
            raise DomainError(f"entry ({i},{j}): {exc.message}", exc.position) from exc
    return out


_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def format_expression(expr: Expression) -> str:
    """Render with minimal parentheses; parse_source(format_expression(e)) == e."""
    return _format(expr, 0)


def _format(expr: Expression, parent_prec: int) -> str:
    if isinstance(expr, Number):
        text = repr(expr.value)
        return text
    if isinstance(expr, TimeVar):
        return "t"
    if isinstance(expr, Negate):
        inner = _format(expr.child, _PRECEDENCE["neg"])
        text = f"-{inner}"
        return f"({text})" if parent_prec > _PRECEDENCE["neg"] else text
    if isinstance(expr, Call):
        return f"{expr.fn}({_format(expr.arg, 0)})"
    if isinstance(expr, Binary):
        prec = _PRECEDENCE[expr.op]
        if expr.op == "^":
            # right-associative; the right side re-enters at factor level
            left = _format(expr.left, prec + 1)
            right = _format(expr.right, prec)
        else:
            left = _format(expr.left, prec)
            right = _format(expr.right, prec + 1)
        text = f"{left}{expr.op}{right}"
        return f"({text})" if parent_prec > prec else text
    raise TypeError(f"not an Expression node: {expr!r}")
