"""Minimal arithmetic expression language over the time variable ``t``.

Used for time-dependent Kraus and Hamiltonian entries in JSON configs; both
kinds of matrix are stored as cells and evaluated by ``evaluate_matrix``.

The parser hash-conses: equal subtrees parsed with one table become one
node object (value numbering), and ``matrix_cells`` shares a table across
the cells of a matrix.  From that table it builds the matrix's Plan once:
every distinct node with ``t`` gets one row of a (nodes, grid) buffer, and
the nodes of one depth that apply one operator or function are computed by
one numpy call and checked once.  So a subexpression repeated across cells,
such as the ``sqrt(w*(1-exp(-t)))`` factor of every entry of a
mixed-unitary Kraus operator, is evaluated and checked once per call, and
one call of ``evaluate`` fills the whole matrix: ``evaluate_matrix`` is the
only way to evaluate an expression.  It refuses a time that is not finite,
and every literal is finite, so only an operator or a function can fail.

A call or bracketed group whose exact text repeats within a matrix is lexed
and parsed once.  The table of ``matrix_cells`` carries a memo from that
text, from the function name or "(" through the matching ")", to the node
it parsed to; a group's node depends only on its text, so a hit is the node
the table would give.  Tokens are lexed only as the parser reaches them, so
a hit skips the group's lexing too, and lexing resumes after its ")".
Errors and offsets are unchanged: a LexError anywhere in a string wins over
a ParseError, and the end of input sits at the end of the last token.

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
import re
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import cxmat

#: Function names; each is the numpy ufunc of the same name.
FUNCTIONS = ("exp", "sqrt", "log", "sin", "cos")


class ExpressionError(ValueError):
    """Base class for lexing, parsing, and evaluation failures."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (offset {position})")
        self.message = message
        self.position = position

    def prefixed(self, prefix: str) -> "ExpressionError":
        """This error again, of its type, with ``prefix`` before its message."""
        return type(self)(prefix + self.message, self.position)


class LexError(ExpressionError):
    pass


class ParseError(ExpressionError):
    pass


class DomainError(ExpressionError, cxmat.NumericError):
    """An operator or a function gave a non-finite or undefined value;
    ``root`` is the index of the failing root of the Plan evaluated."""


class Token(NamedTuple):
    kind: str  # number | ident | t | plus | minus | star | slash | caret | lparen | rparen
    lexeme: str
    position: int


# Whitespace, then one alternative per token kind, "t" being an ident (see
# the grammar above), or nothing at the end of the input.
_TOKEN = re.compile(r"""\s*(?:
    (?P<number>[0-9]+(?:\.[0-9]*)?(?:[eE][+-]?[0-9]+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<plus>\+) | (?P<minus>-) | (?P<star>\*) | (?P<slash>/) | (?P<caret>\^)
  | (?P<lparen>\() | (?P<rparen>\))
  | (?P<other>.))?""", re.VERBOSE | re.DOTALL)


def _token_at(src: str, pos: int) -> Token:
    """The first token of ``src`` at or after offset ``pos``, or an "end"
    token at ``pos`` if only whitespace is left; a character that no rule
    takes is a LexError."""
    match = _TOKEN.match(src, pos)
    kind = match.lastgroup
    if kind is None:
        return Token("end", "", pos)
    lexeme, start = match.group(kind), match.start(kind)
    if kind == "other":
        raise LexError(f"unexpected character {lexeme!r}", start)
    return Token("t" if lexeme == "t" else kind, lexeme, start)


def tokenize(src: str) -> list[Token]:
    """The tokens of ``src``; a character that no rule takes is a LexError."""
    tokens, pos = [], 0
    while (tok := _token_at(src, pos)).kind != "end":
        tokens.append(tok)
        pos = tok.position + len(tok.lexeme)
    return tokens


# ---------------------------------------------------------------------------
# Expression tree.  ``pos`` is carried for error messages but excluded from
# equality, so parsed trees, and the cells and specs built from them, compare
# by structure.  A shared node carries the position of its first occurrence,
# which is where evaluation in cell order first meets it.
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


class _Table(dict):
    """A parse table with the memo of its calls and bracketed groups: the
    exact source text of one, from its function name or "(" through the
    matching ")", -> the node it parsed to.  The memo lives as long as its
    table, so a hit returns the node ``_shared`` would find."""

    def __init__(self):
        super().__init__()
        self.groups: dict = {}


class _Parser:
    def __init__(self, src: str, table: dict):
        self.src = src
        self.table = table
        # the memo of a table that has none lives for this parse only
        self.groups = getattr(table, "groups", {})
        # the next token, lexed only when the parser reaches it
        self.tok = _token_at(src, 0)

    def _next(self, kind: str | None = None, what: str = "") -> Token:
        """The next token, which must be of ``kind`` (named ``what``) if given."""
        tok = self.tok
        if tok.kind == "end":
            raise ParseError("unexpected end of expression", tok.position)
        if kind is not None and tok.kind != kind:
            raise ParseError(f"expected {what}, found {tok.lexeme!r}", tok.position)
        self.tok = _token_at(self.src, tok.position + len(tok.lexeme))
        return tok

    def expr(self) -> Expression:
        return self._chain(("plus", "minus"), self.term)

    def term(self) -> Expression:
        return self._chain(("star", "slash"), self.factor)

    def _chain(self, kinds: tuple, operand) -> Expression:
        """operand (op operand)* grouped to the left, op a token of ``kinds``."""
        node = operand()
        while (tok := self.tok).kind in kinds:
            self._next()
            rhs = operand()
            op = tok.lexeme
            node = _shared(self.table, Binary, (op, id(node), id(rhs)), op, node, rhs, tok.position)
        return node

    def factor(self) -> Expression:
        if (tok := self.tok).kind == "minus":
            self._next()
            child = self.factor()
            return _shared(self.table, Negate, (id(child),), child, tok.position)
        return self.power()

    def power(self) -> Expression:
        node = self.primary()
        if (tok := self.tok).kind == "caret":
            self._next()
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
        if tok.kind == "ident" and tok.lexeme not in FUNCTIONS:
            raise ParseError(f"unknown function {tok.lexeme!r}", tok.position)
        if tok.kind not in ("ident", "lparen"):
            raise ParseError(f"unexpected token {tok.lexeme!r}", tok.position)
        # A call or bracketed group.  Its node depends only on its text, from
        # its name or "(" through the matching ")", so a text met before is
        # neither lexed nor parsed again; lexing resumes after its ")".  This
        # stays inline: a method would cost a frame per level of nesting.
        opening = tok if tok.kind == "lparen" else self.tok
        close = self._closing(opening.position) if opening.kind == "lparen" else -1
        # without a matching ")" the group cannot parse, and it has no text
        text = self.src[tok.position:close + 1] if close >= 0 else None
        if (node := self.groups.get(text)) is not None:
            self.tok = _token_at(self.src, close + 1)
            return node
        if tok.kind == "ident":
            self._next("lparen", "'('")
        node = self.expr()
        self._next("rparen", "')'")
        if tok.kind == "ident":
            node = _shared(self.table, Call, (tok.lexeme, id(node)), tok.lexeme, node, tok.position)
        self.groups[text] = node
        return node

    def _closing(self, start: int) -> int:
        """The offset of the ")" that matches the "(" at ``start``, or -1.
        No token but "(" and ")" holds a parenthesis, so characters suffice."""
        src, depth, pos = self.src, 1, start + 1
        while (close := src.find(")", pos)) >= 0:
            depth += src.count("(", pos, close) - 1
            if depth == 0:
                return close
            pos = close + 1
        return -1


def parse_source(src: str, table: dict | None = None) -> Expression:
    """Parse ``src`` into an Expression; all of its tokens must be consumed.
    Equal subtrees become one node object, shared through ``table`` with
    earlier parses (a fresh table by default).  A call or bracketed group
    whose text is in the table's memo of ``groups`` is neither lexed nor
    parsed again; a table without one, as any but that of ``matrix_cells``,
    gets a fresh memo for this call.  Tokens are lexed as the parser reaches
    them, but a LexError anywhere in ``src`` wins over a ParseError, as if
    ``src`` had been lexed first."""
    parser = _Parser(src, {} if table is None else table)
    try:
        node = parser.expr()
        if (leftover := parser.tok).kind != "end":
            raise ParseError(f"unexpected trailing token {leftover.lexeme!r}", leftover.position)
        return node
    except ParseError as exc:
        error = exc
    tokenize(src)  # raises the LexError, if there is one
    raise error


#: The numpy ufunc that applies an operator, to rows or to numpy scalars.
_UFUNC = {"+": "add", "-": "subtract", "*": "multiply", "/": "divide", "^": "power"}


def _operands(expr: Expression) -> tuple:
    if isinstance(expr, Binary):
        return expr.left, expr.right
    if isinstance(expr, Call):
        return (expr.arg,)
    if isinstance(expr, Negate):
        return (expr.child,)
    return ()


class Plan:
    """How ``evaluate`` computes ``roots`` over a grid of times, built once.

    A subtree without ``t`` is evaluated here, as numpy scalars, by the same
    ufuncs that fill the rows, so its value does not depend on whether it
    reads ``t``; so is its check.  Every other distinct node (by identity)
    owns one row of a (rows, grid) buffer, row 0 holding ``t``.  The nodes of one depth (the
    longest path down to ``t``) that apply one operator or function, with
    their t-free operands on the same side, form a group: contiguous rows
    filled by one ufunc call.  A t-free operand is a column, but the
    exponent of '^' is one scalar per group, so that numpy takes the same
    shortcuts for an exponent of -1, 0.5 or 2 as for a lone expression.  A
    t-free root fills a row of its own.  One finiteness test of the whole
    buffer stands for the checks, which are made node by node only when it
    fails.

    ``nodes``, the entries of the parse table the roots were entered in,
    holds every root and lists each node after its operands."""

    def __init__(self, roots, nodes):
        self.roots = tuple(roots)
        self.scalars: dict = {}  # id -> value of a t-free node
        self.rows: dict = {}     # id -> buffer row of a t-dependent node
        self.failed = False      # whether a t-free check failed
        self.steps = []
        groups = self._group(nodes)
        # row 0 holds t if a node reads it
        self.time_rows = np.arange(1 if self.rows else 0)
        row = len(self.time_rows)
        for (_, name, *sides), members in sorted(groups.items(), key=lambda item: item[0][0]):
            keys, *operands = zip(*members)
            start, row = row, row + len(keys)
            self.rows.update(zip(keys, range(start, row)))
            args = []
            for ids, side in zip(operands, sides):
                if side is None:
                    args.append((True, np.fromiter(map(self.rows.get, ids), np.intp)))
                elif side == "column":
                    args.append((False, np.fromiter(map(self.scalars.get, ids), float)[:, None]))
                else:
                    args.append((False, np.float64(self.scalars[ids[0]])))
            self.steps.append((getattr(np, name), start, row, tuple(args)))
        root_rows, scalar_rows, scalar_values = [], [], []
        for root in self.roots:
            key = id(root)
            if key in self.rows:
                root_rows.append(self.rows[key])
            else:
                root_rows.append(row)
                scalar_rows.append(row)
                scalar_values.append(self.scalars[key])
                row += 1
        self.size = row
        self.root_rows = np.array(root_rows, dtype=np.intp)
        self.scalar_rows = np.array(scalar_rows, dtype=np.intp)
        self.scalar_values = np.array(scalar_values, dtype=float).reshape(-1, 1)

    def _group(self, nodes) -> dict:
        """Evaluate the t-free nodes of ``nodes`` into ``scalars``, and group
        the others: (depth, ufunc name, side of each operand) -> [(id,
        operand ids)], a side being None for an operand with ``t``."""
        scalars, rows, groups = self.scalars, self.rows, {}
        depth: dict = {}  # id -> depth of a node with t
        with np.errstate(all="ignore"):
            for expr in nodes:
                key = id(expr)
                if isinstance(expr, Number):
                    scalars[key] = expr.value
                    continue
                if isinstance(expr, TimeVar):
                    depth[key] = rows[key] = 0
                    continue
                # spelled out per arity: this loop is most of a plan's cost
                if isinstance(expr, Binary):
                    name = _UFUNC[expr.op]
                    ids = (id(expr.left), id(expr.right))
                    below = (depth.get(ids[0], -1), depth.get(ids[1], -1))
                else:
                    name = expr.fn if isinstance(expr, Call) else "negative"
                    ids = (id(_operands(expr)[0]),)
                    below = (depth.get(ids[0], -1),)
                level = 1 + max(below)
                if level == 0:
                    values = [np.float64(scalars[i]) for i in ids]
                    value = scalars[key] = getattr(np, name)(*values)
                    # on a numpy scalar, comparisons cost a fraction of np.isfinite
                    self.failed = self.failed or not -np.inf < value < np.inf
                    continue
                if isinstance(expr, Binary):
                    right = None
                    if below[1] < 0:
                        right = "column" if expr.op != "^" else float(scalars[ids[1]]).hex()
                    group = (level, name, "column" if below[0] < 0 else None, right)
                else:
                    group = (level, name, None)
                depth[key] = level
                groups.setdefault(group, []).append((key, *ids))
        return groups

    def _raise_first_failure(self, buf: np.ndarray, times: np.ndarray):
        """Raise the DomainError of the first root, in order, that owns a
        failing check, a node being owned by the first root that reaches it:
        there the failure at the first bad time, ties going to the earliest
        check of a post-order walk."""
        def value(expr):
            key = id(expr)
            return self.scalars[key] if key in self.scalars else buf[self.rows[key]]

        seen: set = set()

        def walk(expr, failures):
            if id(expr) in seen:
                return
            seen.add(id(expr))
            operands = _operands(expr)
            for operand in operands:
                walk(operand, failures)
            if isinstance(expr, (Binary, Call)):
                _check(expr, value(expr), [value(x) for x in operands], times, failures)

        for k, root in enumerate(self.roots):
            failures: list = []
            walk(root, failures)
            if failures:
                index, _, message, pos = min(failures)
                error = DomainError(f"{message} at t={float(times[index])!r}", pos)
                error.root = k
                raise error


def evaluate(plan: Plan, times: np.ndarray) -> np.ndarray:
    """IEEE double values of a Plan's roots over an array of finite times,
    of shape (roots,) + ``times.shape``.  A 0-d array is the one-point grid,
    so it gets the bits of any grid that holds its time.  Raises DomainError
    at the operator or function that yields a non-finite value, naming the
    first bad t."""
    grid = times.reshape(-1)
    buf = np.empty((plan.size, grid.size))
    buf[plan.time_rows] = grid
    buf[plan.scalar_rows] = plan.scalar_values
    with np.errstate(all="ignore"):
        for ufunc, start, stop, args in plan.steps:
            ufunc(*[buf[arg] if row else arg for row, arg in args], out=buf[start:stop])
    # a failed check leaves a non-finite value; an empty grid has no t to fail at
    if grid.size and (plan.failed or not np.isfinite(buf).all()):
        plan._raise_first_failure(buf, grid)
    return buf[plan.root_rows].reshape((len(plan.roots),) + times.shape)


def _check(expr: Expression, value, operands: tuple, times: np.ndarray, failures: list):
    """Record (first bad time index, check order, message, position) if ``value`` is not finite."""
    # on a numpy scalar, comparisons cost a fraction of np.isfinite
    if np.isfinite(value).all() if isinstance(value, np.ndarray) else -np.inf < value < np.inf:
        return
    index = int(np.argmin(np.broadcast_to(np.isfinite(value), times.shape).ravel()))
    at = [float(np.broadcast_to(x, times.shape).flat[index]) for x in (value, *operands)]
    if isinstance(expr, Call):
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
    failures.append((index, len(failures), message, expr.pos))


def as_expression(value, table: dict | None = None) -> Expression:
    """The Expression of a finite number (not a bool) or of a source string,
    entered in ``table`` (see parse_source): a negative number is the
    negation of its magnitude, as parsed."""
    table = {} if table is None else table
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        v = float(value)  # an OverflowError for an int past the largest double
        if not math.isfinite(v):
            raise ValueError(f"number {v!r} is not finite as a double")
        magnitude = -v if v < 0 else v
        number = _shared(table, Number, (magnitude.hex(),), magnitude)
        return _shared(table, Negate, (id(number),), number) if v < 0 else number
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


class Cells(tuple):
    """The non-zero cells of one matrix, a tuple of Cell.  ``plan`` evaluates
    every part that is not the literal 0, in cell order and the real part
    first; ``parts`` holds, for the real and then the imaginary part, the
    indices of the plan's roots and the rows and columns they fill."""

    def __new__(cls, cells, nodes):
        self = super().__new__(cls, cells)
        self.nodes = tuple(nodes)
        roots, parts, owners = [], ([], []), []
        for index, cell in self:
            for part, expr in zip(parts, cell):
                if type(expr) is not Number or expr.value != 0.0:  # not ZERO
                    part.append(len(roots))
                    roots.append(expr)
                    owners.append(index)
        self.plan = Plan(roots, self.nodes)
        self.owners = owners
        at = np.array(owners, dtype=np.intp).reshape(-1, 2)
        self.parts = tuple((np.array(part, dtype=np.intp), *at[part].T) for part in parts)
        return self

    def __reduce__(self):
        # a plan is keyed by node identities, so a copy or an unpickled one builds its own
        return Cells, (tuple(self), self.nodes)


def matrix_cells(entries) -> Cells:
    """The cells of ((i, j), entry) items whose parts are not both the literal 0,
    parsed with one table, so equal subexpressions of different cells are
    one node.  The refusal of an entry (a lex or parse error, a wrong type,
    a number that is not finite as a double) keeps its type and names the entry."""
    cells = []
    table = _Table()
    for (i, j), value in entries:
        try:
            cell = as_cell(value, table)
        except ExpressionError as exc:
            raise exc.prefixed(f"entry ({i},{j}): ") from exc
        except (TypeError, ValueError, OverflowError) as exc:
            raise type(exc)(f"entry ({i},{j}): {exc}") from exc
        if cell != (ZERO, ZERO):
            cells.append(((i, j), cell))
    return Cells(cells, table.values())


def evaluate_matrix(cells: Cells, dim: int, t) -> np.ndarray:
    """The (dim, dim) complex matrix of ``cells`` at a finite float ``t``,
    or the (T, dim, dim) stack over an array of finite times: one
    ``evaluate`` of the cells' plan, so a literal-0 part is not evaluated
    and a subexpression shared by several cells is evaluated once.  A
    DomainError names the entry and the first bad t.  A stack is grid-last
    in memory (see cxmat.stack_view)."""
    times = np.asarray(t, dtype=float)
    bad = ~np.isfinite(times)
    if np.any(bad):
        raise ValueError(f"time must be finite, got {times[bad].flat[0]}")
    try:
        values = evaluate(cells.plan, times)
    except DomainError as exc:
        i, j = cells.owners[exc.root]
        raise exc.prefixed(f"entry ({i},{j}): ") from exc
    out = np.zeros((dim, dim) + times.shape, dtype=np.complex128)
    for target, (roots, i, j) in zip((out.real, out.imag), cells.parts):
        target[i, j] = values[roots]
    return cxmat.stack_view(out)

