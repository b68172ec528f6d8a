"""The exact kernel (`slemma.exact`) and the exact rules that read it: the
witness rule of the counterexample searches and the refutation in
`check_multipliers`.  Expected values are rationals written out from the
doubles' binary expansions, not computed by the kernel."""

import io
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import slemma
from slemma import certificate as cert
from slemma import exact, implication
from slemma.cli import main
from slemma.implication import (INVALID, box_sample, classify_instance,
                                find_counterexample)
from slemma.problem import load_problem
from slemma.quadratic import QuadraticFunction
from slemma.systems import FunctionSystem

CORPUS = Path(slemma.__file__).parent / "corpus"

# 0.1 and 0.01 as doubles
TENTH = Fraction(3602879701896397, 2 ** 55)
HUNDREDTH = Fraction(5764607523034235, 2 ** 59)


def _constant(d):
    return QuadraticFunction(np.zeros((1, 1)), np.zeros(1), d)


def test_value_matches_hand_computed_rationals():
    # 1/2 (2 x1^2 + 2 x1 x2 - 4 x2^2) + x1 - 3 x2 + 1/2 at (1/2, -1/4):
    # 1/2 (1/2 - 1/4 - 1/4) + 1/2 + 3/4 + 1/2 = 7/4
    q = QuadraticFunction(np.array([[2.0, 1.0], [1.0, -4.0]]),
                          np.array([1.0, -3.0]), 0.5)
    assert exact.value(q, [0.5, -0.25]) == Fraction(7, 4)
    assert TENTH == Fraction(0.1) and HUNDREDTH == Fraction(0.01)
    # 3 x + 0.01 at x = 0.1 reads every double exactly
    line = QuadraticFunction(np.zeros((1, 1)), np.array([3.0]), 0.01)
    assert exact.value(line, [0.1]) == 3 * TENTH + HUNDREDTH


def test_value_sees_an_ulp_off_boundary():
    # x^2 - 0.01 changes sign between 0.1 and the double below it: the
    # square of 0.1's double exceeds 0.01's double, the square of its
    # predecessor falls short
    q = QuadraticFunction(np.array([[2.0]]), np.zeros(1), -0.01)
    below = np.nextafter(0.1, 0.0)
    assert Fraction(below) == TENTH - Fraction(1, 2 ** 56)
    assert exact.value(q, [0.1]) == TENTH ** 2 - HUNDREDTH > 0
    assert exact.value(q, [below]) == Fraction(below) ** 2 - HUNDREDTH < 0


def test_combination_is_the_weighted_sum_and_its_homogeneous_part():
    f0 = QuadraticFunction(np.array([[2.0, 0.0], [0.0, -6.0]]),
                           np.array([1.0, 0.0]), 0.25)
    f1 = QuadraticFunction(np.array([[0.0, 1.0], [1.0, 0.0]]),
                           np.array([0.0, 2.0]), -1.0)
    # at (1, 2): f0 = 1 - 12 + 1 + 1/4 = -39/4, f1 = 2 + 4 - 1 = 5
    assert exact.value(f0, [1.0, 2.0]) == Fraction(-39, 4)
    assert exact.value(f1, [1.0, 2.0]) == 5
    assert exact.combination([f0, f1], [1.0, -0.5], [1.0, 2.0]) == \
        Fraction(-49, 4)
    # quadratic parts only: 1/2 d^T (Q0 - Q1 / 2) d = (1 - 12) - 2 / 2
    assert exact.combination([f0, f1], [1.0, -0.5], [1.0, 2.0],
                             homogeneous=True) == -12


def _near_zero(q, x, target):
    """q with d moved so that its float value at x is about `target`."""
    shift = target - float(q(x))
    return QuadraticFunction(q.Q, q.c, q.d + shift)


def _random_rows(seed):
    """(system, X) pairs: random quadratics at points of several scales,
    half of them with every function moved to within rounding of the
    witness rule's thresholds at one of the points."""
    rng = np.random.default_rng(seed)
    for trial in range(24):
        n, p = 1 + trial % 5, 1 + trial % 3
        scale = 10.0 ** rng.integers(-3, 6)

        def draw():
            raw = rng.uniform(-1.0, 1.0, (n, n)) * 10.0 ** rng.integers(-2, 3)
            return QuadraticFunction(raw + raw.T, rng.uniform(-1, 1, n),
                                     float(rng.uniform(-1, 1)))

        functions = [draw() for _ in range(p + 1)]
        X = rng.uniform(-scale, scale, (8, n))
        if trial % 2:
            functions = ([_near_zero(functions[0], X[0], -1e-9)]
                         + [_near_zero(f, X[0], 0.0) for f in functions[1:]])
        yield FunctionSystem(n, functions[0], tuple(functions[1:])), X


def test_float_values_lie_within_the_error_bound():
    # both evaluation modes, values alone (points last) and with
    # gradients, against the bound of the rows and of each point alone
    checked = 0
    for system, X in _random_rows(5):
        bound = exact.error_bound(system.stack, X)
        assert np.isfinite(bound).all() and (bound > 0).all()
        for vals in (system.values_batch(X),
                     system.values_and_gradients(X)[0]):
            for i, x in enumerate(X):
                alone = exact.error_bound(system.stack, x)
                for k, f in enumerate(system.functions):
                    err = abs(Fraction(vals[i, k]) - exact.value(f, x))
                    assert err <= Fraction(bound[i, k]), (i, k)
                    assert err <= Fraction(alone[k]), (i, k)
                    checked += 1
    assert checked > 1000


def test_the_screen_never_contradicts_fractions():
    # a row the screen calls certain either way holds or breaks the
    # witness rule in exact arithmetic, and rows inside the bounds occur
    counts = {"holds": 0, "breaks": 0, "unsure": 0}
    for system, X in _random_rows(6):
        vals = system.values_batch(X)
        lo, hi = implication._exact_range(system, X, vals)
        holds, breaks = implication._holds(lo, hi), implication._breaks(lo, hi)
        assert not (holds & breaks).any()
        for i, x in enumerate(X):
            truth = implication._holds_exactly(system, x)
            alone = implication._exact_range(system, x, vals[i])
            if implication._holds(*alone):
                assert truth, i
            if implication._breaks(*alone):
                assert not truth, i
            if holds[i]:
                assert truth, i
            if breaks[i]:
                assert not truth, i
            counts["holds" if holds[i] else "breaks" if breaks[i]
                   else "unsure"] += 1
    assert min(counts.values()) > 0, counts


def test_a_row_failing_exactly_is_dropped_and_the_next_chosen():
    # f1 = x, f0 = x - 1: x = -5e-10 passes the float test with the least
    # f0, but f1 < 0 exactly; of the rows left, x = 0.25 has the least f0
    f0 = QuadraticFunction(np.zeros((1, 1)), np.array([1.0]), -1.0)
    f1 = QuadraticFunction(np.zeros((1, 1)), np.array([1.0]), 0.0)
    system = FunctionSystem(1, f0, (f1,))
    X = np.array([[0.5], [-5e-10], [0.25], [-0.5]])
    res = find_counterexample(system, X, system.values_batch(X), 10.0,
                              descend_undecided=False)
    assert res.found and res.x.tolist() == [0.25]
    assert res.f0_value == -0.75


def test_the_vacuous_instance_is_not_invalid():
    # f0 = -1 and f1 = -1e-10 everywhere: the feasible set is empty, so
    # (I) holds; every point passes the float test and none the exact one
    system = FunctionSystem(1, _constant(-1.0), (_constant(-1e-10),))
    sample = box_sample(system, 10.0, 4096, 7)
    assert not find_counterexample(system, *sample, 10.0).found
    assert classify_instance(system).verdict != INVALID


def _run(*argv):
    out = io.StringIO()
    code = main([*argv], out=out, err=io.StringIO())
    return code, out.getvalue()


def test_a_million_samples_find_no_counterexample_on_slater_fail():
    # f0 = x, f1 = -x^2: the feasible set is {0}, where f0 = 0.  The float
    # test accepts x = -2.99e-5 (f1 = -8.9e-10); the exact rule does not
    code, text = _run("classify", str(CORPUS / "slater_fail.json"),
                      "--samples", "1000000")
    assert "verdict: Undetermined" in text and code == 2


@pytest.mark.parametrize("alpha", ["2e4", "1e6", "1e9"])
def test_verify_refutes_slater_fail_at_large_alpha(alpha):
    # lambda_min(M(alpha)) = -1 / (2 alpha) passes the float rule's
    # threshold -1e-9 (1 + 2 alpha), and g < 0 at the eigenvector's lift
    code, text = _run("verify", str(CORPUS / "slater_fail.json"),
                      "--alpha", alpha)
    assert "verdict: Invalid" in text and "violating_x: [-" in text
    system = load_problem(CORPUS / "slater_fail.json").system()
    check = cert.check_multipliers(system, [float(alpha)])
    assert check.threshold <= check.lambda_min < 0 and not check.valid
    assert exact.combination(system.functions, [1.0, -float(alpha)],
                             check.violating_x) < 0


def test_an_ulp_off_multiplier_is_refuted_and_the_exact_one_passes():
    # f0 = 2 f1 + 3 f2 on farkas_homogeneous: alpha = (2, 3) gives M = 0
    # exactly; the separator's alpha, one ulp above in each entry, passes
    # the float rule with lambda_min = -9.9e-16, yet g < 0 at its lift
    system = load_problem(CORPUS / "farkas_homogeneous.json").system()
    assert cert.check_multipliers(system, [2.0, 3.0]).valid
    check = cert.check_multipliers(system,
                                   [2.0000000000000004, 3.000000000000001])
    assert check.threshold <= check.lambda_min < 0 and not check.valid
    assert check.violating_x is not None


def test_a_direction_lift_is_refuted_exactly():
    # f0 = -1e-12 x^2 / 2: lambda_min = -1e-12 passes the float rule, and
    # the eigenvector (1, 0) lifts to the direction d = 1 with d^T Q d < 0
    system = FunctionSystem(
        1, QuadraticFunction(np.array([[-1e-12]]), np.zeros(1), 0.0), ())
    check = cert.check_multipliers(system, np.zeros(0))
    assert check.threshold <= check.lambda_min < 0 and not check.valid
    assert check.violating_x is None and check.direction.tolist() == [1.0]


def test_a_pass_by_tolerance_that_holds_exactly_stays_valid():
    # f0 = (x1 + 2 x2 + 3)^2 / 2 is a square: eigh gives lambda_min of
    # about -5e-16 for its bordered w w^T, w = (1, 2, 3), and no lift is a
    # violation in exact arithmetic
    w = np.array([1.0, 2.0, 3.0])
    M = np.outer(w, w)
    system = FunctionSystem(2, QuadraticFunction(M[:2, :2], M[:2, 2], 4.5),
                            ())
    check = cert.check_multipliers(system, np.zeros(0))
    assert check.lambda_min < 0 and check.valid
    assert check.violating_x is None and check.direction is None


def _form(A, u):
    """u^T A u written out, independent of `exact.form`."""
    return sum(u[i] * A[i][j] * u[j] for i in range(len(u))
               for j in range(len(u)))


def _fractions(rows):
    return [[Fraction(v) for v in row] for row in rows]


@pytest.mark.parametrize("rows", [[[1, 0], [0, 0]], [[1, 1], [1, 1]],
                                  [[0, 0], [0, 0]]])
def test_singular_psd_matrices_are_psd(rows):
    assert exact.psd(_fractions(rows)) is exact.PSD


def test_an_ulp_off_singular_matrix_is_not_psd():
    # [[1, 1], [1, 1 - 2^-52]]: eliminating the first pivot leaves -2^-52,
    # and u = (-1, 1) gives 1 - 2 + 1 - 2^-52
    A = _fractions([[1.0, 1.0], [1.0, 1.0 - 2.0 ** -52]])
    assert A[1][1] == 1 - Fraction(1, 2 ** 52)
    u = exact.psd(A)
    assert u == [-1, 1]
    assert _form(A, u) == -Fraction(1, 2 ** 52)
    assert exact.form(A, u, u) == _form(A, u)


@pytest.mark.parametrize("b, c", [(3.0, 5.0), (0.1, 0.0), (-2.0, -7.0)])
def test_a_zero_pivot_with_an_off_diagonal_is_not_psd(b, c):
    # [[0, b], [b, c]]: u = (-(c + 1) / 2b, 1) gives 2 b u_1 + c = -1
    A = _fractions([[0.0, b], [b, c]])
    u = exact.psd(A)
    assert u == [-(Fraction(c) + 1) / (2 * Fraction(b)), 1]
    assert _form(A, u) == -1


def test_a_zero_pivot_after_elimination_lifts_through_it():
    # eliminating x1 from [[2, 2, 0], [2, 2, 1], [0, 1, 1]] (the largest
    # pivot, first of two) leaves the block [[0, 1], [1, 1]] on (x2 - x1,
    # x3): w = -(1 + 1) / 2 = -1 there, so u = -(x2 - x1) + x3 = (1, -1,
    # 1), with A u = (0, 1, 0) and u^T A u = -1
    A = _fractions([[2, 2, 0], [2, 2, 1], [0, 1, 1]])
    u = exact.psd(A)
    assert u == [1, -1, 1]
    assert _form(A, u) == -1


def test_null_space_is_the_free_columns_basis():
    # x1 + 2 x2 + 3 x3 = 0 twice over: free x2 and x3
    assert exact.null_space(_fractions([[1, 2, 3], [2, 4, 6]])) == [
        [-2, 1, 0], [-3, 0, 1]]
    assert exact.null_space(_fractions([[2, 1], [1, 1]])) == []


def test_slater_fail_constraint_has_the_kernel_e_t():
    # f1 = -x^2: M1 = [[-2, 0], [0, 0]], so f1 >= 0 only on x = 0, the
    # t = 1 point of span(e_t)
    f1 = load_problem(CORPUS / "slater_fail.json").system().constraints[0]
    M1 = exact.bordered(f1)
    assert M1 == [[-2, 0], [0, 0]]
    assert exact.psd([[-v for v in row] for row in M1]) is exact.PSD
    assert exact.null_space(M1) == [[0, 1]]


def test_bordered_reads_each_double_exactly():
    # d = 0.1 doubles exactly to 2 * TENTH, c = 0.01 stays HUNDREDTH
    q = QuadraticFunction(np.array([[2.0]]), np.array([0.01]), 0.1)
    assert exact.bordered(q) == [[2, HUNDREDTH], [HUNDREDTH, 2 * TENTH]]
