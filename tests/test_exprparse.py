import math
import random

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
    evaluate,
    format_expression,
    parse_source,
    tokenize,
)


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

    def test_whitespace_skipped(self):
        assert len(tokenize("  1   +\t2 ")) == 3


class TestParse:
    def test_decay_expression_shape(self):
        expr = parse_source("1-exp(-t)")
        assert expr == Binary("-", Number(1.0), Call("exp", Negate(TimeVar())))

    def test_power_right_associative(self):
        assert evaluate(parse_source("2^3^2"), 0.0) == 512.0

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
        assert evaluate(parse_source("1+1e-400"), 0.0) == 1.0

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_source("")


class TestEvaluate:
    def test_decay_at_zero(self):
        assert evaluate(parse_source("1-exp(-t)"), 0.0) == 0.0

    def test_decay_at_log_two(self):
        value = evaluate(parse_source("1-exp(-t)"), math.log(2))
        assert value == pytest.approx(0.5, abs=1e-15)

    def test_precedence(self):
        assert evaluate(parse_source("1+2*3"), 0.0) == 7.0
        assert evaluate(parse_source("(1+2)*3"), 0.0) == 9.0
        assert evaluate(parse_source("-2^2"), 0.0) == -4.0

    def test_sqrt_of_negative(self):
        with pytest.raises(DomainError):
            evaluate(parse_source("sqrt(-1-t)"), 0.0)

    def test_log_of_zero(self):
        with pytest.raises(DomainError):
            evaluate(parse_source("log(t)"), 0.0)

    def test_division_by_zero(self):
        with pytest.raises(DomainError):
            evaluate(parse_source("1/t"), 0.0)

    def test_overflow(self):
        with pytest.raises(DomainError):
            evaluate(parse_source("exp(t)"), 1e6)

    def test_power_overflow(self):
        with pytest.raises(DomainError):
            evaluate(parse_source("10^t"), 1e9)

    def test_float_in_float_out_array_in_array_out(self):
        expr = parse_source("sqrt(exp(-t))*cos(3*t)+sin(t)^2")
        assert type(evaluate(expr, 0.5)) is float
        times = np.linspace(0.0, 8.0, 41)
        values = evaluate(expr, times)
        assert isinstance(values, np.ndarray) and values.shape == times.shape
        # the float case is the one-point case of the same evaluation
        assert values.tolist() == [evaluate(expr, float(t)) for t in times]
        assert evaluate(parse_source("2*3"), times).tolist() == [6.0] * 41

    def test_array_error_names_first_offending_time(self):
        # sqrt fails from t = 3.1 on, log from t = 1.5 on: the first failing
        # time wins even though sqrt is evaluated first
        times = np.linspace(0.0, 4.0, 41)
        with pytest.raises(DomainError, match=r"log\(\) .* at t=1\.5 \(offset 10\)"):
            evaluate(parse_source("sqrt(3-t)+log(1.5-t)"), times)
        with pytest.raises(DomainError, match=r"division by zero at t=0\.0"):
            evaluate(parse_source("1/(t-t)"), times)

    def test_decay_stays_in_unit_interval_and_monotone(self):
        expr = parse_source("1-exp(-t)")
        values = [evaluate(expr, 0.05 * i) for i in range(200)]
        assert all(0.0 <= v < 1.0 for v in values)
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestAsExpression:
    def test_passthrough(self):
        expr = parse_source("t+1")
        assert exprparse.as_expression(expr) is expr

    def test_number(self):
        assert evaluate(exprparse.as_expression(2.5), 0.0) == 2.5

    def test_negative_number_round_trips(self):
        expr = exprparse.as_expression(-2.5)
        assert parse_source(format_expression(expr)) == expr

    def test_string(self):
        assert evaluate(exprparse.as_expression("2*t"), 3.0) == 6.0

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

    def test_literal_zero_part_is_not_evaluated(self, monkeypatch):
        seen = []
        original = exprparse.evaluate
        monkeypatch.setattr(exprparse, "evaluate",
                            lambda expr, t, memo: seen.append(expr) or original(expr, t, memo))
        cells = exprparse.matrix_cells([((0, 0), ["exp(-t)", "0"]), ((1, 1), ["0", "t"])])
        exprparse.evaluate_matrix(cells, 2, np.linspace(0.0, 1.0, 5))
        assert seen == [parse_source("exp(-t)"), parse_source("t")]

    def test_domain_error_names_entry_and_first_bad_time(self):
        cells = exprparse.matrix_cells([((1, 0), ["1", "sqrt(1-t)"])])
        with pytest.raises(DomainError, match=r"^entry \(1,0\): sqrt\(\) .* at t=2\.0 "):
            exprparse.evaluate_matrix(cells, 2, np.array([0.0, 1.0, 2.0, 3.0]))


class _NoSharing(dict):
    """A parse table that never matches, so every occurrence of a
    subexpression is its own node with its own offset."""

    def get(self, key, default=None):
        return default

    def __setitem__(self, key, value):
        pass


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


def _per_cell(sources, dim, times):
    """The matrix from one evaluate call per part, each part parsed on its
    own without sharing: the reference for evaluate_matrix."""
    out = np.zeros(np.shape(times) + (dim, dim), dtype=np.complex128)
    for (i, j), parts in sources:
        for k, src in enumerate(parts):
            try:
                value = evaluate(exprparse.parse(exprparse.tokenize(src), _NoSharing()), times)
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
        check = exprparse._check
        monkeypatch.setattr(exprparse, "_check",
                            lambda expr, *args: checked.append(expr) or check(expr, *args))
        scale = "sqrt(0.3*(1-exp(-t)))"
        cells = exprparse.matrix_cells([((i, j), [f"{i + 1}*{scale}", f"{j + 2}*{scale}"])
                                        for i in range(3) for j in range(3)])
        exprparse.evaluate_matrix(cells, 3, np.linspace(0.0, 2.0, 7))
        # exp, 1-exp, 0.3*(...) and sqrt once, then one product for each
        # distinct factor 1, 2, 3 and 4
        assert len(checked) == len({id(expr) for expr in checked}) == 4 + 4

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

    @pytest.mark.parametrize("root", ["-t", "t", "(-t)", "((t))"])
    def test_shared_root_names_its_own_offset(self, root):
        # at t = inf, exp(-t) is 0 and passes; the bare root fails only at
        # the root check, which must name its own offset, not exp's
        sources = [((0, 0), ["exp(-t)", "0"]), ((1, 1), [root, "0"])]
        with pytest.raises(DomainError, match=r"^entry \(1,1\): ") as info:
            exprparse.evaluate_matrix(exprparse.matrix_cells(sources), 2, np.inf)
        with pytest.raises(DomainError) as alone:
            _per_cell(sources, 2, np.inf)
        assert info.value.position == alone.value.position == root.count("(")


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


@given(expression_trees())
def test_format_parse_round_trip(expr):
    assert parse_source(format_expression(expr)) == expr
