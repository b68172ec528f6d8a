import math

import numpy as np
import pytest

from conftest import EXPRESSION_TERMS
from slemma.errors import DomainError
from slemma.expr import (MAX_DEPTH, ExprSyntaxError, IndexOutOfRange,
                         UnknownIdentifier, evaluate, evaluate_batch, parse,
                         perspective, to_source)
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


def _nested(open_, close, depth, inner="x1"):
    return open_ * depth + inner + close * depth


# a source d levels deep for each construct that nests, and for a chain,
# which the parser reads in a loop
DEPTH_CASES = {
    "parentheses": lambda d: _nested("(", ")", d),
    "calls": lambda d: _nested("sin(", ")", d),
    "two-argument calls": lambda d: _nested("max(x1, ", ")", d),
    "minus signs": lambda d: _nested("-", "", d),
    "exponents": lambda d: "^".join(["x1"] * (d + 1)),
    "chain": lambda d: " + ".join(["x1"] * (d + 1)),
}


@pytest.mark.parametrize("name", DEPTH_CASES)
def test_expressions_nest_at_most_max_depth(name):
    source = DEPTH_CASES[name](MAX_DEPTH)
    e = parse(source, 1)
    # evaluating and printing recurse as deep as parsing allowed
    assert np.isfinite(evaluate_batch(e, np.full((2, 1), 0.5))).all()
    assert evaluate_batch(parse(to_source(e), 1), np.full((1, 1), 0.5))[0] \
        == evaluate(e, [0.5])
    with pytest.raises(ExprSyntaxError, match=f"{MAX_DEPTH} "):
        parse(DEPTH_CASES[name](MAX_DEPTH + 1), 1)


def test_grouping_a_long_sum_keeps_it_under_the_limit():
    half = " + ".join(["x1"] * MAX_DEPTH)
    e = parse(f"({half}) + ({half})", 1)
    assert evaluate(e, [0.5]) == MAX_DEPTH


@pytest.mark.parametrize("term", EXPRESSION_TERMS,
                         ids=["sin_exp", "log", "sqrt_ratio", "abs_min"])
def test_perspective_is_t_squared_times_e_of_y_over_t(term):
    # the value at (y, t) is (t * t) * e(y / t) bit for bit; t^2 is built
    # as t * t, since the power with an array exponent can round apart
    for n in (1, 2, 3):
        e = parse("0.5*x1^2 - 3*x1 + 1.25" + term.format(n=n), n)
        lifted = perspective(e)
        assert lifted.dimension == n + 1
        W = SplitMix64(n).uniform_box(3.0, n + 1, 400)
        W[::7, n] = 0.0
        t = W[:, n]
        with np.errstate(all="ignore"):
            expected = (t * t) * evaluate_batch(e, W[:, :n] / t[:, None])
        got = evaluate_batch(lifted, W)
        finite = np.isfinite(expected)
        assert np.array_equal(np.isfinite(got), finite)
        assert got[finite].tobytes() == expected[finite].tobytes()
        assert not finite[::7].any()
        assert finite.sum() > 200
