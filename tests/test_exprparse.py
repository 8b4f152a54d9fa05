import math

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
                            lambda expr, t: seen.append(expr) or original(expr, t))
        cells = exprparse.matrix_cells([((0, 0), ["exp(-t)", "0"]), ((1, 1), ["0", "t"])])
        exprparse.evaluate_matrix(cells, 2, np.linspace(0.0, 1.0, 5))
        assert seen == [parse_source("exp(-t)"), parse_source("t")]

    def test_domain_error_names_entry_and_first_bad_time(self):
        cells = exprparse.matrix_cells([((1, 0), ["1", "sqrt(1-t)"])])
        with pytest.raises(DomainError, match=r"^entry \(1,0\): sqrt\(\) .* at t=2\.0 "):
            exprparse.evaluate_matrix(cells, 2, np.array([0.0, 1.0, 2.0, 3.0]))


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
