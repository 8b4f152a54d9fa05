import copy
import importlib.util
import json
import math
import pickle
import random
import string
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qfirstlaw import exprparse
from qfirstlaw.exprparse import (
    Binary,
    Call,
    DomainError,
    LexError,
    Negate,
    Number,
    ParseError,
    TimeVar,
    parse_source,
    tokenize,
)


def _value(entry, t):
    """``entry`` evaluated as the one cell of a 1x1 matrix: an array of the
    shape of ``t``, a float time or an array of times."""
    cells = exprparse.matrix_cells([((0, 0), entry)])
    return exprparse.evaluate_matrix(cells, 1, t)[..., 0, 0].real


class TestTokenize:
    def test_decay_expression(self):
        kinds = [tok.kind for tok in tokenize("1-exp(-t)")]
        assert kinds == ["number", "minus", "ident", "lparen", "minus", "t", "rparen"]

    def test_nested_expression(self):
        toks = tokenize("sqrt(1-0.5^2)")
        assert [t.kind for t in toks] == [
            "ident", "lparen", "number", "minus", "number", "caret", "number", "rparen",
        ]
        assert toks[4].lexeme == "0.5"

    def test_positions_increase(self):
        toks = tokenize("1 + 2*t - sin(t)")
        positions = [t.position for t in toks]
        assert positions == sorted(positions)
        assert len(set(positions)) == len(positions)

    def test_exponent_notation(self):
        toks = tokenize("1.5e-3+2E4")
        assert [t.lexeme for t in toks] == ["1.5e-3", "+", "2E4"]

    def test_unknown_character(self):
        with pytest.raises(LexError) as err:
            tokenize("2$t")
        assert err.value.position == 1

    @pytest.mark.parametrize("src, position", [("2\u00b2", 1), ("\u0663*t", 0)])
    def test_non_ascii_digit_rejected(self, src, position):
        # superscript two and Arabic-Indic three are str.isdigit() but not numbers here
        with pytest.raises(LexError, match="unexpected character") as err:
            parse_source(src)
        assert err.value.position == position

    @pytest.mark.parametrize("src, position", [("t\u00b2", 1), ("1e\u0663", 2)])
    def test_non_ascii_name_character_rejected(self, src, position):
        # superscript two and Arabic-Indic three are str.isalnum() but not name characters
        with pytest.raises(LexError, match="unexpected character") as err:
            parse_source(src)
        assert err.value.position == position

    def test_whitespace_skipped(self):
        assert len(tokenize("  1   +\t2 ")) == 3


# The grammar's characters plus a non-ASCII superscript digit, Arabic-Indic
# digit, letter and space, and a character no rule takes.
_LEX_ALPHABET = "0123456789.eEtxsqrp_+-*/^() \t\n" + "\u00b2\u0663\u00e9\u2003$"
_LEXABLE = set(string.ascii_letters + string.digits + "_+-*/^()")


@given(st.text(alphabet=_LEX_ALPHABET, max_size=30))
def test_tokens_are_the_non_whitespace_slices_of_the_source(src):
    try:
        tokens = tokenize(src)
    except LexError as err:
        bad = src[err.position]
        assert not bad.isspace() and bad not in _LEXABLE
        return
    covered = set()
    for tok in tokens:
        assert src[tok.position:tok.position + len(tok.lexeme)] == tok.lexeme
        covered.update(range(tok.position, tok.position + len(tok.lexeme)))
    positions = [tok.position for tok in tokens]
    assert all(a < b for a, b in zip(positions, positions[1:]))
    assert covered == {i for i, ch in enumerate(src) if not ch.isspace()}


class TestParse:
    def test_decay_expression_shape(self):
        expr = parse_source("1-exp(-t)")
        assert expr == Binary("-", Number(1.0), Call("exp", Negate(TimeVar())))

    def test_power_right_associative(self):
        assert _value("2^3^2", 0.0) == 512.0

    def test_unknown_function(self):
        with pytest.raises(ParseError, match="unknown function"):
            parse_source("foo(t)")

    def test_unbalanced_parens(self):
        with pytest.raises(ParseError):
            parse_source("(1+2")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_source("1+2)")

    def test_missing_operand(self):
        with pytest.raises(ParseError):
            parse_source("1+*2")

    @pytest.mark.parametrize("src, offset", [("exp(-1e400)", 5), ("1/1e400", 2),
                                             ("t*9e999", 2)])
    def test_overflowing_literal(self, src, offset):
        with pytest.raises(ParseError, match=r"number '\d+e\d+' overflows a double") as info:
            parse_source(src)
        assert info.value.position == offset

    def test_underflowing_literal_is_zero(self):
        assert _value("1+1e-400", 0.0) == 1.0

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_source("")

    @pytest.mark.parametrize("src, message, offset", [
        ("sin t", "expected '(', found 't'", 4),
        ("exp 2", "expected '(', found '2'", 4),
        ("exp(1 2)", "expected ')', found '2'", 6),
        ("(1 2)", "expected ')', found '2'", 3),
        ("2**3", "unexpected token '*'", 2),
        ("+1", "unexpected token '+'", 0),
    ])
    def test_error_names_the_token_and_its_offset(self, src, message, offset):
        with pytest.raises(ParseError) as err:
            parse_source(src)
        assert (err.value.message, err.value.position) == (message, offset)

    @pytest.mark.parametrize("src, offset", [("1 2 $", 4), ("(1 $", 3), ("(1 2 $", 5),
                                             ("exp(t)+exp(t) 2 $", 16)])
    def test_lex_error_anywhere_wins_over_a_parse_error(self, src, offset):
        with pytest.raises(LexError, match="unexpected character") as err:
            parse_source(src)
        assert err.value.position == offset

    @pytest.mark.parametrize("src, offset", [("1+ ", 2), ("(1 ", 2), ("exp( t ", 6), ("  ", 0)])
    def test_end_of_input_is_the_end_of_the_last_token(self, src, offset):
        with pytest.raises(ParseError) as err:
            parse_source(src)
        assert (err.value.message, err.value.position) == ("unexpected end of expression", offset)


class TestEvaluate:
    def test_decay_at_zero(self):
        assert _value("1-exp(-t)", 0.0) == 0.0

    def test_decay_at_log_two(self):
        assert _value("1-exp(-t)", math.log(2)) == pytest.approx(0.5, abs=1e-15)

    def test_precedence(self):
        assert _value("1+2*3", 0.0) == 7.0
        assert _value("(1+2)*3", 0.0) == 9.0
        assert _value("-2^2", 0.0) == -4.0

    def test_sqrt_of_negative(self):
        with pytest.raises(DomainError):
            _value("sqrt(-1-t)", 0.0)

    def test_log_of_zero(self):
        with pytest.raises(DomainError):
            _value("log(t)", 0.0)

    def test_division_by_zero(self):
        with pytest.raises(DomainError):
            _value("1/t", 0.0)

    def test_overflow(self):
        with pytest.raises(DomainError):
            _value("exp(t)", 1e6)

    def test_power_overflow(self):
        with pytest.raises(DomainError):
            _value("10^t", 1e9)

    def test_float_is_the_one_point_grid(self):
        times = np.linspace(0.0, 8.0, 41)
        values = _value("sqrt(exp(-t))*cos(3*t)+sin(t)^2", times)
        assert values.shape == times.shape
        assert values.tolist() == [_value("sqrt(exp(-t))*cos(3*t)+sin(t)^2", float(t))
                                   for t in times]
        assert _value("2*3", times).tolist() == [6.0] * 41

    def test_array_error_names_first_offending_time(self):
        # sqrt fails from t = 3.1 on, log from t = 1.5 on: the first failing
        # time wins even though sqrt is evaluated first
        times = np.linspace(0.0, 4.0, 41)
        with pytest.raises(DomainError, match=r"log\(\) .* at t=1\.5 \(offset 10\)"):
            _value("sqrt(3-t)+log(1.5-t)", times)
        with pytest.raises(DomainError, match=r"division by zero at t=0\.0"):
            _value("1/(t-t)", times)

    @pytest.mark.parametrize("source", ["sqrt(-1)", "log(0)", "1/0", "log(t-1)"])
    def test_empty_grid_has_no_failing_time(self, source):
        # a t-free failure, like a t-dependent one such as log(t-1), has no t
        # to name on an empty grid
        cells = exprparse.matrix_cells([((0, 0), source)])
        assert exprparse.evaluate_matrix(cells, 1, np.array([])).shape == (0, 1, 1)

    def test_decay_stays_in_unit_interval_and_monotone(self):
        values = _value("1-exp(-t)", 0.05 * np.arange(200))
        assert all(0.0 <= v < 1.0 for v in values)
        assert all(b >= a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("t, shown", [(math.inf, "inf"), (math.nan, "nan"),
                                          (np.array([0.0, -math.inf]), "-inf")])
    def test_non_finite_time_refused(self, t, shown):
        # with every literal finite, only an operator or a function can fail
        cells = exprparse.matrix_cells([((0, 0), "t"), ((0, 1), "2")])
        with pytest.raises(ValueError, match=f"^time must be finite, got {shown}$"):
            exprparse.evaluate_matrix(cells, 2, t)


class TestAsExpression:
    def test_number(self):
        assert _value(2.5, 0.0) == 2.5

    def test_negative_number_round_trips(self):
        assert parse_source("-1.5") == exprparse.as_expression(-1.5)

    def test_number_is_entered_in_the_table(self):
        table = {}
        assert exprparse.as_expression(-1.5, table) is parse_source("-1.5", table)
        assert exprparse.as_expression(2, table) is parse_source("2", table)
        # 0.0 and -0.0 are apart by their bits
        assert exprparse.as_expression(-0.0, table) is not exprparse.as_expression(0.0, table)

    @pytest.mark.parametrize("value, error, message", [
        (math.inf, ValueError, "number inf is not finite as a double"),
        (-math.inf, ValueError, "number -inf is not finite as a double"),
        (math.nan, ValueError, "number nan is not finite as a double"),
        (-10 ** 400, OverflowError, "int too large to convert to float"),
    ], ids=["inf", "negative-inf", "nan", "huge-int"])
    def test_non_finite_number_refused(self, value, error, message):
        # as the parser refuses 1e400
        with pytest.raises(error, match=f"^{message}$"):
            exprparse.as_expression(value)
        with pytest.raises(error, match=rf"^entry \(0,1\): {message}$") as info:
            exprparse.matrix_cells([((0, 0), "1"), ((0, 1), ["t", value])])
        assert type(info.value) is error

    def test_string(self):
        assert _value("2*t", 3.0) == 6.0

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            exprparse.as_expression([1, 2])

    @pytest.mark.parametrize("value", [True, False])
    def test_rejects_bools(self, value):
        with pytest.raises(TypeError, match=f"cannot interpret {value} as an expression"):
            exprparse.as_expression(value)
        with pytest.raises(TypeError, match=rf"entry \(0,0\): cannot interpret {value}"):
            exprparse.matrix_cells([((0, 0), [value, 0])])


class TestMatrixCells:
    def test_value_is_real_entry(self):
        assert exprparse.as_cell("2*t") == (parse_source("2*t"), exprparse.ZERO)

    def test_rejects_malformed_pair(self):
        with pytest.raises(ValueError, match=r"must be a \[re, im\] pair"):
            exprparse.as_cell(["1", "0", "0"])

    def test_entry_of_another_type_is_named(self):
        with pytest.raises(TypeError, match=r"entry \(0,1\): cannot interpret None"):
            exprparse.matrix_cells([((0, 0), "1"), ((0, 1), ["1", None])])

    @pytest.mark.parametrize("entry, error, message", [
        ("1+", ParseError, r"entry \(1,0\): unexpected end of expression \(offset 2\)$"),
        (["t", "foo(t)"], ParseError, r"entry \(1,0\): unknown function 'foo' \(offset 0\)$"),
        ("2$t", LexError, r"entry \(1,0\): unexpected character '\$' \(offset 1\)$"),
        (["1", "0", "0"], ValueError, r"entry \(1,0\): matrix entry must be a \[re, im\] pair"),
    ], ids=["parse", "unknown-function", "lex", "long-pair"])
    def test_entry_that_does_not_parse_is_named(self, entry, error, message):
        with pytest.raises(error, match=message) as info:
            exprparse.matrix_cells([((0, 0), "1+t"), ((1, 0), entry)])
        assert type(info.value) is error

    def test_literal_zero_cells_are_dropped(self):
        cells = exprparse.matrix_cells([((0, 0), ["0", "0"]), ((0, 1), 0.0),
                                        ((1, 0), ["0", "t"]), ((1, 1), "0*t")])
        assert [index for index, _ in cells] == [(1, 0), (1, 1)]

    def test_float_and_grid_agree(self):
        cells = exprparse.matrix_cells([((0, 0), "1"), ((0, 1), ["cos(t)", "sin(t)"])])
        times = np.array([0.0, 0.7, 2.0])
        grid = exprparse.evaluate_matrix(cells, 2, times)
        assert grid.shape == (3, 2, 2)
        for k, t in enumerate(times):
            one = exprparse.evaluate_matrix(cells, 2, float(t))
            assert one.shape == (2, 2)
            assert np.array_equal(one, grid[k])
            assert one[0, 1] == complex(math.cos(t), math.sin(t))
            assert one[1, 0] == 0
        # a float t is the one-point grid, so it gets the grid's last bit;
        # numpy's scalar power and its array power differ there
        times = np.random.default_rng(20).uniform(0.01, 5.0, 3000)
        for src in ("t^1.37", "2^(-t)", "(1+t)^t", "t^0.5", "t^2",
                    "exp(t)", "log(t)", "sin(t)", "cos(t)", "sqrt(t)"):
            cells = exprparse.matrix_cells([((0, 0), src)])
            one = [exprparse.evaluate_matrix(cells, 1, float(t))[0, 0] for t in times]
            assert np.array(one).tobytes() == exprparse.evaluate_matrix(
                cells, 1, times)[:, 0, 0].tobytes(), src

    def test_literal_zero_part_is_not_evaluated(self, monkeypatch):
        seen = []
        original = exprparse.evaluate
        monkeypatch.setattr(exprparse, "evaluate",
                            lambda plan, t: seen.append(plan) or original(plan, t))
        cells = exprparse.matrix_cells([((0, 0), ["exp(-t)", "0"]), ((1, 1), ["0", "t"])])
        exprparse.evaluate_matrix(cells, 2, np.linspace(0.0, 1.0, 5))
        # one evaluation, of a plan whose roots are the two non-zero parts
        assert seen == [cells.plan]
        assert cells.plan.roots == (parse_source("exp(-t)"), parse_source("t"))

    @pytest.mark.parametrize("duplicate", [copy.deepcopy, lambda c: pickle.loads(pickle.dumps(c))],
                             ids=["deepcopy", "pickle"])
    def test_copy_evaluates_and_fails_as_the_original(self, duplicate):
        cells = exprparse.matrix_cells([((0, 0), ["exp(-t)", "2"]), ((1, 1), ["sqrt(1-t)", "t"])])
        twin = duplicate(cells)
        assert twin == cells and twin[1][1][0].arg is not cells[1][1][0].arg
        # the copy keeps the sharing of its cells: one node per subexpression
        assert twin.plan.size == cells.plan.size
        times = np.linspace(0.0, 1.0, 5)
        assert exprparse.evaluate_matrix(twin, 2, times).tobytes() == \
            exprparse.evaluate_matrix(cells, 2, times).tobytes()
        assert _outcome(lambda: exprparse.evaluate_matrix(twin, 2, 2.0)) == \
            _outcome(lambda: exprparse.evaluate_matrix(cells, 2, 2.0))

    def test_domain_error_names_entry_and_first_bad_time(self):
        cells = exprparse.matrix_cells([((1, 0), ["1", "sqrt(1-t)"])])
        with pytest.raises(DomainError, match=r"^entry \(1,0\): sqrt\(\) .* at t=2\.0 "):
            exprparse.evaluate_matrix(cells, 2, np.array([0.0, 1.0, 2.0, 3.0]))


class _NoSharing(dict):
    """A parse table that never matches, and whose memo of groups never
    matches either, so every occurrence of a subexpression is its own node
    with its own offset."""

    def get(self, key, default=None):
        return default

    def __setitem__(self, key, value):
        pass

    @property
    def groups(self):
        return _NoSharing()


_LEAVES = ("t", "0.5", "2", "0.25", "3", "1e-3")


def _random_source(rng, pool, depth):
    """A random expression, reusing earlier ones from ``pool`` as subtrees.
    One node in thirty may leave its domain; the rest cannot."""
    if depth == 0 or rng.random() < 0.2:
        return rng.choice(_LEAVES + tuple(pool))
    a = _random_source(rng, pool, depth - 1)
    b = _random_source(rng, pool, depth - 1)
    roll = rng.random()
    if roll < 0.033:
        src = rng.choice([f"({a}/{b})", f"({a})^{b}", f"{rng.choice(exprparse.FUNCTIONS)}({a})"])
    elif roll < 0.4:
        src = f"({a}{rng.choice('+-*')}{b})"
    elif roll < 0.5:
        src = f"{a}/(2+({b})^2)"
    elif roll < 0.6:
        src = f"-{a}"
    elif roll < 0.8:
        src = f"{rng.choice(['sin', 'cos'])}({a})"
    elif roll < 0.9:
        src = f"exp(-({a})^2)"
    else:
        src = f"{rng.choice(['sqrt', 'log'])}(1+({a})^2)"
    pool.append(src)
    return src


_REFERENCE_BINARY = {"+": np.add, "-": np.subtract, "*": np.multiply,
                     "/": np.divide, "^": np.power}


def _reference_value(expr, times, failures):
    """The value of ``expr`` over an array of times, node by node: a numpy
    scalar for a subtree without t.  Each operator and call appends
    (first bad time index, check order, message, offset) to ``failures``
    if its value is not finite."""
    if isinstance(expr, Number):
        return np.float64(expr.value)
    if isinstance(expr, TimeVar):
        return times
    if isinstance(expr, Negate):
        return -_reference_value(expr.child, times, failures)
    if isinstance(expr, Binary):
        operands = (_reference_value(expr.left, times, failures),
                    _reference_value(expr.right, times, failures))
        value = _REFERENCE_BINARY[expr.op](*operands)
    else:
        operands = (_reference_value(expr.arg, times, failures),)
        value = getattr(np, expr.fn)(*operands)
    _reference_check(expr, value, operands, times, failures)
    return value


def _reference_check(expr, value, operands, times, failures):
    finite = np.broadcast_to(np.isfinite(value), times.shape)
    if finite.all():
        return
    index = int(np.argmin(finite))
    at = [float(np.broadcast_to(x, times.shape)[index]) for x in (value, *operands)]
    if isinstance(expr, Call):
        message = ("overflow in exp()" if expr.fn == "exp"
                   else f"{expr.fn}() of out-of-domain argument {at[1]!r}")
    elif expr.op == "/" and at[2] == 0.0:
        message = "division by zero"
    elif expr.op == "^":
        undefined = np.isnan(at[0]) or (at[1] == 0.0 and at[2] < 0.0)
        message = "invalid operands for '^'" if undefined else "overflow in '^'"
    else:
        message = f"non-finite result from '{expr.op}'"
    failures.append((index, len(failures), message, expr.pos))


def _reference_evaluate(expr, t):
    """One expression at a float t (the one-point grid) or over an array of
    times, checked node by node, independently of ``exprparse.evaluate``."""
    times = np.asarray(t, dtype=float).reshape(-1)
    failures = []
    with np.errstate(all="ignore"):
        value = _reference_value(expr, times, failures)
    if failures:
        index, _, message, pos = min(failures)
        raise DomainError(f"{message} at t={float(times[index])!r}", pos)
    return np.broadcast_to(value, times.shape).reshape(np.shape(t))


def _per_cell(sources, dim, times):
    """The matrix from one reference evaluation per part, each part parsed on
    its own without sharing: the reference for evaluate_matrix."""
    out = np.zeros(np.shape(times) + (dim, dim), dtype=np.complex128)
    for (i, j), parts in sources:
        for k, src in enumerate(parts):
            try:
                value = _reference_evaluate(exprparse.parse_source(src, _NoSharing()), times)
            except DomainError as exc:
                raise DomainError(f"entry ({i},{j}): {exc.message}", exc.position) from exc
            (out.real, out.imag)[k][..., i, j] = value
    return out


def _outcome(fn):
    try:
        return fn()
    except DomainError as exc:
        return (str(exc), exc.position)


class TestSharedSubexpressions:
    def test_equal_subtrees_of_different_cells_are_one_node(self):
        cells = exprparse.matrix_cells([((0, 0), ["2*sqrt(0.3*(1-exp(-t)))", "0"]),
                                        ((0, 1), ["-0.5*sqrt(0.3*(1-exp(-t)))", "t"]),
                                        ((1, 1), "1-exp(-t)")])
        first, second = cells[0][1][0], cells[1][1][0]
        assert first.right is second.right
        assert cells[2][1][0] is first.right.arg.right
        # a fresh parse shares nothing with them
        assert parse_source("2*sqrt(0.3*(1-exp(-t)))").right is not first.right

    def test_each_distinct_subexpression_is_checked_once(self, monkeypatch):
        checked = []
        isfinite = np.isfinite
        monkeypatch.setattr(exprparse.np, "isfinite",
                            lambda x: checked.append(np.shape(x)) or isfinite(x))
        scale = "sqrt(0.3*(1-exp(-t)))"
        cells = exprparse.matrix_cells([((i, j), [f"{i + 1}*{scale}", f"{j + 2}*{scale}"])
                                        for i in range(3) for j in range(3)])
        exprparse.evaluate_matrix(cells, 3, np.linspace(0.0, 2.0, 7))
        # exp, 1-exp, 0.3*(...) and sqrt once, then one product for each
        # distinct factor 1, 2, 3 and 4: with t and -t, ten rows, one node
        # each, and one finiteness test over them, after the one of the times
        assert checked == [(7,), (10, 7)]
        assert sorted(cells.plan.rows.values()) == list(range(10))

    @pytest.mark.parametrize("seed", range(40))
    def test_matrix_equals_per_cell_evaluation(self, seed):
        rng = random.Random(seed)
        pool = []
        dim = 3
        sources = [((i, j), (_random_source(rng, pool, 4), _random_source(rng, pool, 4)))
                   for i in range(dim) for j in range(dim)]
        cells = exprparse.matrix_cells(sources)
        assert len(cells) == len(sources)
        for times in (0.7, np.linspace(0.0, 3.0, 13)):
            got = _outcome(lambda: exprparse.evaluate_matrix(cells, dim, times))
            want = _outcome(lambda: _per_cell(sources, dim, times))
            if isinstance(want, tuple):
                assert got == want
            else:
                assert not isinstance(got, tuple), got
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("sources", [
        # roots without t, one of them failing
        [((0, 0), ["2*3", "sqrt(2)"]), ((0, 1), ["-1.5", "-(2^0.5)"]), ((1, 1), ["t", "1e-3"])],
        [((0, 0), ["exp(-t)", "0"]), ((1, 0), ["2*3", "log(0)"]), ((1, 1), ["1/(t-t)", "0"])],
        # Negate roots, over t-free and t-dependent operands
        [((0, 0), ["-t", "--t"]), ((0, 1), ["-exp(t)", "-(t*t)"]), ((1, 0), ["-(1/t)", "-2"])],
        # t-free exponents that numpy's power treats specially, beside others
        [((0, 0), ["t^-1", "t^0"]), ((0, 1), ["t^0.5", "t^1"]), ((1, 0), ["t^2", "t^1.37"]),
         ((1, 1), ["(1+t)^(1-0.5)", "(t*t)^2"])],
        [((0, 0), ["(t-1)^0.5", "0"]), ((1, 1), ["t^-1", "0"])],
        # t-free bases and exponents with t
        [((0, 0), ["2^(-t)", "0.5^t"]), ((1, 1), ["(1+t)^t", "t^(t-1)"])],
    ], ids=["t-free", "t-free-failing", "negate", "exponents", "exponents-failing", "bases"])
    @pytest.mark.parametrize("times", [np.linspace(0.01, 5.0, 3001), 0.7, 0.0],
                             ids=["grid", "float", "zero"])
    def test_matrix_equals_reference_on_special_roots(self, sources, times):
        got = _outcome(lambda: exprparse.evaluate_matrix(exprparse.matrix_cells(sources), 2, times))
        want = _outcome(lambda: _per_cell(sources, 2, times))
        if isinstance(want, tuple):
            assert got == want
        else:
            assert not isinstance(got, tuple), got
            assert got.tobytes() == np.ascontiguousarray(want).tobytes()

    def test_a_subexpression_gives_the_same_bits_whether_or_not_it_reads_t(self):
        # a+0*t equals a at every t >= 0, so each form of a group must give
        # the bytes of the first; the reference plays no part here
        rng = random.Random(7)
        times = np.linspace(0.0, 3.0, 7)
        pairs = [(rng.uniform(0.05, 4.05), rng.uniform(0.05, 4.05)) for _ in range(300)]
        pairs.append((2.5591081235012836, 3.0))  # once 16.75968710283213 against ...128
        groups = []
        for a, b in pairs:
            x, y = repr(a), repr(b)
            xt, yt = f"({x}+0*t)", f"({y}+0*t)"
            groups += [[f"{p}{op}{q}" for p, q in ((x, y), (xt, y), (x, yt), (xt, yt))]
                       for op in "+-*/^"]
            groups += [[f"{fn}({x})", f"{fn}({xt})"] for fn in exprparse.FUNCTIONS]
            groups.append([f"-{x}", f"-{xt}"])
        for forms in groups:
            values = [_value(form, times).tobytes() for form in forms]
            assert values == [values[0]] * len(forms), forms

    def test_shared_failing_subexpression_names_the_first_cell(self):
        # sqrt(1-t) fails from t = 2 on; its first occurrence is in entry
        # (0,1) at offset 4, and later occurrences sit at other offsets
        sources = [((0, 0), ["exp(-t)", "0"]), ((0, 1), ["1+2*sqrt(1-t)", "0"]),
                   ((1, 0), ["sqrt(1-t)", "0"]), ((1, 1), ["0", "t/sqrt(1-t)"])]
        times = np.array([0.0, 1.0, 2.0, 3.0])
        with pytest.raises(DomainError, match=r"^entry \(0,1\): sqrt\(\) .* at t=2\.0 ") as info:
            exprparse.evaluate_matrix(exprparse.matrix_cells(sources), 2, times)
        assert info.value.position == 4
        with pytest.raises(DomainError) as alone:
            _per_cell(sources, 2, times)
        assert (str(info.value), info.value.position) == (str(alone.value), alone.value.position)


DATA = Path(__file__).parent / "data"


def _load_perfbench_inputs():
    """The benchmark's input generator, loaded as it is, read-only."""
    path = Path(__file__).parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _operator_entries(op):
    return [((i, j), entry) for i, row in enumerate(op) for j, entry in enumerate(row)]


def _memo_cases():
    """(dim, entries) of the matrices the memo must leave unchanged: seeded
    mixed-unitary channels at d = 2..8, the qudit-d4 driven Hamiltonian, and
    the committed custom channels."""
    inputs = _load_perfbench_inputs()
    cases = []
    for dim in range(2, 9):
        (doc,) = json.loads(inputs.qudit_inputs(1, 1, dim, False, 4.0, 16))
        for k, op in enumerate(doc["channel"]["kraus"]):
            cases.append(pytest.param(dim, _operator_entries(op), id=f"seeded-d{dim}-K{k}"))
    (doc,) = json.loads(inputs.qudit_inputs(1, 1, 4, True, 4.0, 400))
    h = doc["hamiltonian"]
    entries = [((i, i), (e, 0.0)) for i, e in enumerate(h["diag"])]
    entries += [((i, j), (re, im)) for i, j, re, im in h["upper"]]
    cases.append(pytest.param(4, entries, id="qudit-d4-driven-H"))
    for path in sorted(DATA.glob("*_custom.json")):
        channel = json.loads(path.read_text())
        for k, op in enumerate(channel["kraus"]):
            cases.append(pytest.param(channel["dim"], _operator_entries(op),
                                      id=f"{path.stem}-K{k}"))
    return cases


def _cells_with_a_fresh_memo_per_string(entries):
    """matrix_cells's cells, each string parsed by parse_source (through
    as_cell) into one plain table, so that no string meets another's memo."""
    table, cells = {}, []
    for index, value in entries:
        cell = exprparse.as_cell(value, table)
        if cell != (exprparse.ZERO, exprparse.ZERO):
            cells.append((index, cell))
    return exprparse.Cells(cells, table.values())


def _canonical(cells):
    """The parse table of ``cells`` in order, each node as its class, its
    operator, function or number bits, the indices of its operands and its
    offset (the table's keys up to node identity, with positions), then the
    cells, the plan's rows and its steps, by table index."""
    index = {}
    nodes = []
    for node in cells.nodes:
        if isinstance(node, Number):
            label = node.value.hex()
        else:
            label = getattr(node, "op", getattr(node, "fn", None))
        operands = tuple(index[id(x)] for x in exprparse._operands(node))
        index[id(node)] = len(nodes)
        nodes.append((type(node).__name__, label, operands, node.pos))
    plan = cells.plan
    return (nodes,
            [(at, tuple(index.get(id(part), "0") for part in cell)) for at, cell in cells],
            sorted((index[key], row) for key, row in plan.rows.items()),
            [(ufunc.__name__, start, stop, [(row, np.asarray(arg).tolist()) for row, arg in args])
             for ufunc, start, stop, args in plan.steps],
            plan.root_rows.tolist(), plan.size)


class TestGroupMemo:
    @pytest.mark.parametrize("dim, entries", _memo_cases())
    def test_memo_changes_no_table_plan_or_value(self, dim, entries):
        cells = exprparse.matrix_cells(entries)
        reference = _cells_with_a_fresh_memo_per_string(entries)
        assert _canonical(cells) == _canonical(reference)
        for times in (0.7, np.linspace(0.0, 8.0, 33)):
            got = exprparse.evaluate_matrix(cells, dim, times)
            want = exprparse.evaluate_matrix(reference, dim, times)
            assert got.tobytes() == want.tobytes()

    def test_a_repeated_group_is_neither_lexed_nor_parsed_again(self, monkeypatch):
        lexed = []
        token_at = exprparse._token_at

        def recorded(src, pos):
            lexed.append((src, token := token_at(src, pos)))
            return token

        monkeypatch.setattr(exprparse, "_token_at", recorded)
        first, second = "2*sqrt(0.3*(1-exp(-t)))", "-0.5*sqrt(0.3*(1-exp(-t))) "
        cells = exprparse.matrix_cells([((0, 0), first), ((0, 1), second)])
        # lexing resumes after the group's ")", and the end sits there too
        assert [(tok.lexeme, tok.position) for src, tok in lexed if src == second] == [
            ("-", 0), ("0.5", 1), ("*", 4), ("sqrt", 5), ("(", 9), ("", 26)]
        assert cells[1][1][0].right is cells[0][1][0].right

    def test_no_memo_outlives_its_table(self):
        entries = [((0, 0), "sqrt(1-exp(-t))"), ((1, 1), "2*sqrt(1-exp(-t))")]
        first, second = exprparse.matrix_cells(entries), exprparse.matrix_cells(entries)
        assert second[0][1][0] is not first[0][1][0]
        assert not set(map(id, second.nodes)) & set(map(id, first.nodes))


MALFORMED = json.loads((DATA / "malformed_entries.json").read_text())


@pytest.mark.parametrize("case", MALFORMED, ids=[case["case"] for case in MALFORMED])
def test_malformed_entry_fails_as_it_always_has(case):
    """Each entry of the committed corpus, parsed in order into one matrix,
    raises the recorded error type, message and offset."""
    entries = [((0, k), value) for k, value in enumerate(case["entries"])]
    with pytest.raises(exprparse.ExpressionError) as err:
        exprparse.matrix_cells(entries)
    assert type(err.value).__name__ == case["error"]
    assert (err.value.message, err.value.position) == (case["message"], case["offset"])


def expression_trees():
    leaves = st.one_of(
        st.floats(min_value=0, max_value=100, allow_nan=False, allow_infinity=False).map(
            lambda v: Number(float(v))
        ),
        st.just(TimeVar()),
    )

    def extend(children):
        return st.one_of(
            children.map(Negate),
            st.tuples(st.sampled_from("+-*/^"), children, children).map(
                lambda t: Binary(t[0], t[1], t[2])
            ),
            st.tuples(st.sampled_from(exprparse.FUNCTIONS), children).map(
                lambda t: Call(t[0], t[1])
            ),
        )

    return st.recursive(leaves, extend, max_leaves=12)


def _parenthesised(expr) -> str:
    """Source text for ``expr`` with every operation in parentheses."""
    if isinstance(expr, Number):
        return repr(expr.value)
    if isinstance(expr, TimeVar):
        return "t"
    if isinstance(expr, Negate):
        return f"(-{_parenthesised(expr.child)})"
    if isinstance(expr, Call):
        return f"{expr.fn}({_parenthesised(expr.arg)})"
    return f"({_parenthesised(expr.left)}{expr.op}{_parenthesised(expr.right)})"


@given(expression_trees())
def test_format_parse_round_trip(expr):
    assert parse_source(_parenthesised(expr)) == expr
