import math

import numpy as np
import pytest

from slemma.errors import DomainError
from slemma.expr import (ExprSyntaxError, IndexOutOfRange, UnknownIdentifier,
                         evaluate, evaluate_batch, parse, to_source)
from slemma.rng import SplitMix64


def test_parse_sum_of_variables():
    e = parse("x1 + x2", 2)
    assert evaluate(e, (1.0, 2.0)) == 3.0


def test_parse_example3_objective():
    e = parse("2*x1^2 - x2^2", 2)
    assert evaluate(e, (1.0, 1.0)) == 1.0
    assert evaluate(e, (1.0, 0.0)) == 2.0


def test_variable_index_out_of_range():
    with pytest.raises(IndexOutOfRange):
        parse("x3", 2)
    with pytest.raises(IndexOutOfRange):
        parse("x0", 2)


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifier) as exc:
        parse("y1 + 1", 2)
    assert exc.value.name == "y1"


def test_syntax_errors_carry_position():
    with pytest.raises(ExprSyntaxError) as exc:
        parse("1 + * 2", 1)
    assert exc.value.position == 4
    with pytest.raises(ExprSyntaxError):
        parse("2x1", 1)          # no implicit multiplication
    with pytest.raises(ExprSyntaxError):
        parse("min(x1)", 1)      # min takes two arguments
    with pytest.raises(ExprSyntaxError):
        parse("sin(x1, x1)", 1)
    with pytest.raises(ExprSyntaxError):
        parse("", 1)
    with pytest.raises(ExprSyntaxError):
        parse("(x1", 1)


def test_zero_and_min():
    assert evaluate(parse("x1 + x2", 2), (0.0, 0.0)) == 0.0
    assert evaluate(parse("min(x1, x2)", 2), (3.0, -2.0)) == -2.0
    assert evaluate(parse("max(x1, x2)", 2), (3.0, -2.0)) == 3.0


def test_precedence_and_associativity():
    assert evaluate(parse("2 + 3 * 4", 1), (0.0,)) == 14.0
    assert evaluate(parse("2 ^ 3 ^ 2", 1), (0.0,)) == 512.0   # right assoc
    assert evaluate(parse("-x1^2", 1), (2.0,)) == -4.0        # -(x^2)
    assert evaluate(parse("x1^-2", 1), (2.0,)) == 0.25
    assert evaluate(parse("6 / 3 / 2", 1), (0.0,)) == 1.0     # left assoc


def test_scientific_notation():
    assert evaluate(parse("1.5e2 + 2E-1", 1), (0.0,)) == 150.2


def test_functions():
    assert evaluate(parse("sin(0)", 1), (0.0,)) == 0.0
    assert evaluate(parse("cos(0)", 1), (0.0,)) == 1.0
    assert evaluate(parse("exp(1)", 1), (0.0,)) == math.e
    assert evaluate(parse("log(exp(2))", 1), (0.0,)) == pytest.approx(2.0)
    assert evaluate(parse("sqrt(9)", 1), (0.0,)) == 3.0
    assert evaluate(parse("abs(-4)", 1), (0.0,)) == 4.0


def test_domain_errors_name_subexpression():
    with pytest.raises(DomainError) as exc:
        evaluate(parse("log(x1)", 1), (-1.0,))
    assert "log" in str(exc.value.subexpression)
    with pytest.raises(DomainError):
        evaluate(parse("sqrt(x1)", 1), (-1.0,))
    with pytest.raises(DomainError):
        evaluate(parse("1 / x1", 1), (0.0,))


_ROUND_TRIP_SOURCES = [
    "x1 + x2 * x3 - 4.5",
    "2*x1^2 - x2^2",
    "min(x1, max(x2, x3))",
    "sin(x1) * cos(x2) + exp(x3 / 10)",
    "-x1^3 + abs(x2) - 1e-3",
    "(x1 + x2) / (1 + x3^2)",
]


@pytest.mark.parametrize("source", _ROUND_TRIP_SOURCES)
def test_print_parse_round_trip_bit_equal(source):
    e = parse(source, 3)
    e2 = parse(to_source(e), 3)
    rng = SplitMix64(hash(source) & 0xFFFF)
    for _ in range(100):
        x = list(rng.uniforms(3, -5.0, 5.0))
        assert evaluate(e, x) == evaluate(e2, x)


def test_evaluate_is_deterministic():
    e = parse("sin(x1) + x1^2", 1)
    assert evaluate(e, (0.7,)) == evaluate(e, (0.7,))


def test_batch_matches_scalar():
    e = parse("2*x1^2 - x2^2 + sin(x1)", 2)
    X = SplitMix64(5).uniform_box(3.0, 2, 50)
    batch = evaluate_batch(e, X)
    for i in range(50):
        assert np.float64(evaluate(e, X[i])).tobytes() == batch[i].tobytes()


def test_a_point_overflows_and_goes_nan_as_its_batch_row():
    # 0.5^-2000 overflows to +inf, and sin(inf) is nan, not an exception
    assert evaluate_batch(parse("0.5^x1", 1), [[-2000.0]])[0] == math.inf
    assert evaluate(parse("0.5^x1", 1), (-2000.0,)) == math.inf
    assert math.isnan(evaluate(parse("sin(exp(x1))", 1), (1000.0,)))


def test_undefined_powers_raise_domain_errors():
    with pytest.raises(DomainError) as exc:
        evaluate(parse("1 + x1^(-1)", 1), (0.0,))
    assert str(exc.value.subexpression) == "(x1 ^ (-1.0))"
    with pytest.raises(DomainError) as exc:
        evaluate(parse("x1^0.5", 1), (-4.0,))
    assert str(exc.value.subexpression) == "(x1 ^ 0.5)"
    # an integer power of a negative base is defined
    assert evaluate(parse("x1^3", 1), (-2.0,)) == -8.0
    assert not np.isfinite(evaluate_batch(parse("x1^0.5", 1), [[-4.0]])[0])


def test_batch_division_min_max_match_scalar():
    e = parse("x1 / x2 + min(x1, x2) * max(x1, 0.5 - x2)", 2)
    X = SplitMix64(6).uniform_box(3.0, 2, 50)
    batch = evaluate_batch(e, X)
    for i in range(50):
        assert batch[i] == evaluate(e, X[i]), i
    # a zero divisor: the batch row goes non-finite, the scalar call raises
    assert not np.isfinite(evaluate_batch(e, np.array([[1.0, 0.0]]))[0])
    with pytest.raises(DomainError):
        evaluate(e, (1.0, 0.0))


def test_batch_marks_domain_failures_nonfinite():
    e = parse("log(x1)", 1)
    out = evaluate_batch(e, np.array([[1.0], [-1.0], [0.0]]))
    assert np.isfinite(out[0])
    assert not np.isfinite(out[1])
    assert not np.isfinite(out[2])
