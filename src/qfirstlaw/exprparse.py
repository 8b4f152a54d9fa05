"""Minimal arithmetic expression language over the time variable ``t``.

Used for time-dependent Kraus and Hamiltonian entries in JSON configs; both
kinds of matrix are stored as cells and evaluated by ``evaluate_matrix``.

Grammar::

    expr    := term (("+" | "-") term)*
    term    := factor (("*" | "/") factor)*
    factor  := "-" factor | power
    power   := primary ("^" factor)?
    primary := NUMBER | "t" | IDENT "(" expr ")" | "(" expr ")"

"^" is right-associative and binds tighter than unary minus, so
``-2^2`` evaluates to -4 (the conventional mathematical reading).
IDENT is restricted to exp, sqrt, log, sin, cos; ``log`` is the natural
logarithm.  There are no variables besides ``t`` and no user constants.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class Token:
    kind: str  # number | ident | t | plus | minus | star | slash | caret | lparen | rparen
    lexeme: str
    position: int


_SINGLE_CHAR = {
    "+": "plus",
    "-": "minus",
    "*": "star",
    "/": "slash",
    "^": "caret",
    "(": "lparen",
    ")": "rparen",
}


def tokenize(src: str) -> list[Token]:
    """Longest-match lexing; whitespace skipped; numbers are decimal with
    optional fraction and exponent."""
    tokens: list[Token] = []
    i = 0
    n = len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _SINGLE_CHAR:
            tokens.append(Token(_SINGLE_CHAR[ch], ch, i))
            i += 1
            continue
        if ch.isdigit():
            start = i
            while i < n and src[i].isdigit():
                i += 1
            if i < n and src[i] == ".":
                i += 1
                while i < n and src[i].isdigit():
                    i += 1
            if i < n and src[i] in "eE":
                j = i + 1
                if j < n and src[j] in "+-":
                    j += 1
                if j < n and src[j].isdigit():
                    i = j
                    while i < n and src[i].isdigit():
                        i += 1
            tokens.append(Token("number", src[start:i], start))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (src[i].isalnum() or src[i] == "_"):
                i += 1
            name = src[start:i]
            tokens.append(Token("t" if name == "t" else "ident", name, start))
            continue
        raise LexError(f"unexpected character {ch!r}", i)
    return tokens


# ---------------------------------------------------------------------------
# Expression tree.  ``pos`` is carried for error messages but excluded from
# structural equality so pretty-print round trips compare clean.
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


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0

    def _peek(self) -> Token | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def _next(self) -> Token:
        tok = self._peek()
        if tok is None:
            end = self.tokens[-1].position + len(self.tokens[-1].lexeme) if self.tokens else 0
            raise ParseError("unexpected end of expression", end)
        self.i += 1
        return tok

    def _expect(self, kind: str, what: str) -> Token:
        tok = self._next()
        if tok.kind != kind:
            raise ParseError(f"expected {what}, found {tok.lexeme!r}", tok.position)
        return tok

    def expr(self) -> Expression:
        node = self.term()
        while (tok := self._peek()) is not None and tok.kind in ("plus", "minus"):
            self._next()
            rhs = self.term()
            node = Binary("+" if tok.kind == "plus" else "-", node, rhs, tok.position)
        return node

    def term(self) -> Expression:
        node = self.factor()
        while (tok := self._peek()) is not None and tok.kind in ("star", "slash"):
            self._next()
            rhs = self.factor()
            node = Binary("*" if tok.kind == "star" else "/", node, rhs, tok.position)
        return node

    def factor(self) -> Expression:
        tok = self._peek()
        if tok is not None and tok.kind == "minus":
            self._next()
            return Negate(self.factor(), tok.position)
        return self.power()

    def power(self) -> Expression:
        node = self.primary()
        tok = self._peek()
        if tok is not None and tok.kind == "caret":
            self._next()
            return Binary("^", node, self.factor(), tok.position)
        return node

    def primary(self) -> Expression:
        tok = self._next()
        if tok.kind == "number":
            return Number(float(tok.lexeme), tok.position)
        if tok.kind == "t":
            return TimeVar(tok.position)
        if tok.kind == "ident":
            if tok.lexeme not in FUNCTIONS:
                raise ParseError(f"unknown function {tok.lexeme!r}", tok.position)
            self._expect("lparen", "'('")
            arg = self.expr()
            self._expect("rparen", "')'")
            return Call(tok.lexeme, arg, tok.position)
        if tok.kind == "lparen":
            node = self.expr()
            self._expect("rparen", "')'")
            return node
        raise ParseError(f"unexpected token {tok.lexeme!r}", tok.position)


def parse(tokens: list[Token]) -> Expression:
    """Parse a token stream into an Expression; the whole stream must be consumed."""
    parser = _Parser(tokens)
    node = parser.expr()
    leftover = parser._peek()
    if leftover is not None:
        raise ParseError(f"unexpected trailing token {leftover.lexeme!r}", leftover.position)
    return node


def parse_source(src: str) -> Expression:
    return parse(tokenize(src))


# On numpy scalars and arrays these give inf or NaN, never an exception.
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": operator.truediv, "^": operator.pow}


def evaluate(expr: Expression, t):
    """IEEE double evaluation at a float ``t`` (a float) or at each entry of an
    array of times (an array of its shape).  Raises DomainError at the node
    that divides by zero or yields a non-finite value, naming the first bad t."""
    times = np.asarray(t, dtype=float)
    failures: list = []
    with np.errstate(all="ignore"):
        value = _eval(expr, times, failures)
    _check(expr, value, (), times, failures)
    if failures:
        # The first failing time, and there the node a one-time evaluation
        # would stop at: the earliest check in evaluation order.
        index, _, message, pos = min(failures)
        raise DomainError(f"{message} at t={float(times.flat[index])!r}", pos)
    return float(value) if times.ndim == 0 else np.array(np.broadcast_to(value, times.shape))


def _eval(expr: Expression, times: np.ndarray, failures: list):
    """Value of ``expr`` over ``times``, a scalar for a subtree without ``t``."""
    if isinstance(expr, Binary):
        operands = (_eval(expr.left, times, failures), _eval(expr.right, times, failures))
        value = _BINARY[expr.op](*operands)
    elif isinstance(expr, Number):
        return np.float64(expr.value)
    elif isinstance(expr, Call):
        operands = (_eval(expr.arg, times, failures),)
        value = getattr(np, expr.fn)(*operands)
    elif isinstance(expr, TimeVar):
        return times if times.ndim else times[()]
    elif isinstance(expr, Negate):
        return -_eval(expr.child, times, failures)
    else:
        raise TypeError(f"not an Expression node: {expr!r}")
    _check(expr, value, operands, times, failures)
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


def as_expression(value) -> Expression:
    """Normalize a float, source string, or Expression into an Expression."""
    if isinstance(value, Expression):
        return value
    if isinstance(value, (int, float)):
        v = float(value)
        return Negate(Number(-v)) if v < 0 else Number(v)
    if isinstance(value, str):
        return parse_source(value)
    raise TypeError(f"cannot interpret {value!r} as an expression")


# An expression-valued complex matrix is the tuple of its non-zero cells
# ((i, j), (re, im)); every other entry is zero.
ZERO = Number(0.0)
Cell = tuple[tuple[int, int], tuple[Expression, Expression]]


def as_cell(value) -> tuple[Expression, Expression]:
    """(re, im) expressions of a value accepted by as_expression (a real
    entry) or of an [re, im] pair of such values."""
    if isinstance(value, (tuple, list)):
        if len(value) != 2:
            raise ValueError(f"matrix entry must be a [re, im] pair, got {value!r}")
        return as_expression(value[0]), as_expression(value[1])
    return as_expression(value), ZERO


def matrix_cells(entries) -> tuple[Cell, ...]:
    """The cells of ((i, j), entry) items whose parts are not both the literal 0.
    An entry of another type raises a TypeError naming it."""
    cells = []
    for (i, j), value in entries:
        try:
            cell = as_cell(value)
        except TypeError as exc:
            raise TypeError(f"entry ({i},{j}): {exc}") from exc
        if cell != (ZERO, ZERO):
            cells.append(((i, j), cell))
    return tuple(cells)


def evaluate_matrix(cells, dim: int, t) -> np.ndarray:
    """The (dim, dim) complex matrix of ``cells`` at a float ``t``, or the
    (T, dim, dim) stack over an array of times.  A literal-0 part is not
    evaluated; a DomainError names the entry and the first bad t."""
    times = np.asarray(t, dtype=float)
    out = np.zeros(times.shape + (dim, dim), dtype=np.complex128)
    for (i, j), (re_part, im_part) in cells:
        try:
            if re_part != ZERO:
                out.real[..., i, j] = evaluate(re_part, times)
            if im_part != ZERO:
                out.imag[..., i, j] = evaluate(im_part, times)
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
