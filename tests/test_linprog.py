import numpy as np
import pytest

from conftest import brute_force_boxed_lp, solve_boxed_lp
from slemma.errors import DimensionMismatch
from slemma.linprog import (INFEASIBLE, OPTIMAL, UNBOUNDED, LinearProgram,
                            Tableau, solve_lp)


def test_simple_maximization():
    out = solve_lp(LinearProgram(c=[-1.0], a_ub=[[1.0]], b_ub=[1.0]))
    assert out.status == OPTIMAL
    assert out.y[0] == pytest.approx(1.0)
    assert out.objective == pytest.approx(-1.0)


def test_infeasible():
    out = solve_lp(LinearProgram(c=[0.0], a_ub=[[1.0]], b_ub=[-1.0]))
    assert out.status == INFEASIBLE


def test_simplex_face():
    out = solve_lp(LinearProgram(c=[-1.0, -1.0], a_ub=[[1.0, 1.0]],
                                 b_ub=[1.0]))
    assert out.status == OPTIMAL
    assert out.objective == pytest.approx(-1.0)
    assert np.all(out.y >= -1e-12)
    assert np.sum(out.y) == pytest.approx(1.0)


def test_unbounded_with_ray():
    out = solve_lp(LinearProgram(c=[-1.0]))
    assert out.status == UNBOUNDED
    assert out.ray is not None
    assert float(np.dot([-1.0], out.ray)) < 0


def test_unbounded_free_equality():
    # y1 - y2 = 3 with min y1 + y2 runs to -infinity
    out = solve_lp(LinearProgram(c=[1.0, 1.0], a_eq=[[1.0, -1.0]],
                                 b_eq=[3.0], free=[0, 1]))
    assert out.status == UNBOUNDED
    assert abs(np.dot([1.0, -1.0], out.ray)) < 1e-9
    assert np.dot([1.0, 1.0], out.ray) < 0


def test_equality_and_bounds():
    # -1 <= y <= 2 as y = -1 + x with x >= 0 and the rows x <= 3
    out = solve_boxed_lp(np.array([1.0, -2.0]), np.zeros((0, 2)),
                         np.zeros(0), np.array([-1.0, -1.0]),
                         np.array([2.0, 2.0]))
    assert out.status == OPTIMAL
    assert out.y.tolist() == [-1.0, 2.0]
    assert out.objective == pytest.approx(-5.0)


def test_equality_row_dual():
    out = solve_lp(LinearProgram(c=[1.0, 2.0], a_eq=[[1.0, 1.0]], b_eq=[1.0]))
    assert out.status == OPTIMAL
    assert out.y.tolist() == [1.0, 0.0]
    # objective moves one-for-one with the equality rhs
    moved = solve_lp(LinearProgram(c=[1.0, 2.0], a_eq=[[1.0, 1.0]],
                                   b_eq=[1.5]))
    assert moved.objective - out.objective == pytest.approx(0.5)


def test_free_index_out_of_range_rejected():
    for free in ([2], [-1], [0, 1, 2]):
        with pytest.raises(DimensionMismatch):
            LinearProgram(c=[1.0, 1.0], free=free)
    assert LinearProgram(c=[1.0, 1.0], free=[1, 0, 1]).free == (0, 1)


def _random_lp(rng):
    m = int(rng.integers(1, 7))
    k = int(rng.integers(1, 13))
    c = rng.uniform(-1, 1, m)
    A = rng.uniform(-1, 1, (k, m))
    b = rng.uniform(-0.6, 1, k)
    lo = rng.uniform(-2, 0, m)
    up = rng.uniform(0, 2, m)
    return c, A, b, lo, up


def test_random_lps_match_vertex_enumeration():
    rng = np.random.default_rng(2718)
    optimal = infeasible = 0
    for _ in range(120):
        c, A, b, lo, up = _random_lp(rng)
        out = solve_boxed_lp(c, A, b, lo, up)
        status, obj = brute_force_boxed_lp(c, A, b, lo, up)
        assert out.status == status
        if status == OPTIMAL:
            optimal += 1
            assert out.objective == pytest.approx(obj, abs=1e-7)
        else:
            infeasible += 1
    assert optimal > 0 and infeasible > 0


def test_unbounded_outcomes_carry_a_feasible_start():
    # the LPs above with their upper bounds dropped: each unbounded
    # outcome's y is feasible, and its ray improves the objective
    rng = np.random.default_rng(2718)
    unbounded = 0
    for _ in range(120):
        c, A, b, lo, _ = _random_lp(rng)
        out = solve_boxed_lp(c, A, b, lo)
        if out.status != UNBOUNDED:
            continue
        unbounded += 1
        assert np.all(A @ out.y <= b + 1e-9)
        assert np.all(out.y >= lo - 1e-9)
        assert float(c @ out.ray) < 0
    assert unbounded > 10


def test_duality_and_complementary_slackness():
    rng = np.random.default_rng(31)
    checked = 0
    for _ in range(150):
        m = int(rng.integers(1, 6))
        k = int(rng.integers(m, 13))
        c = rng.uniform(-1, 1, m)
        A = rng.uniform(-1, 1, (k, m))
        b = rng.uniform(0.1, 1, k)      # 0 feasible, duals well defined
        out = solve_lp(LinearProgram(c=c, a_ub=A, b_ub=b, free=range(m)))
        if out.status != OPTIMAL:
            continue
        checked += 1
        # primal feasibility at the solver's contract tolerance
        assert np.all(A @ out.y <= b + 1e-8 * (1 + np.max(np.abs(b))))
        # stationarity c = A^T dual, dual <= 0 for a minimization
        assert np.all(out.dual_ub <= 1e-9)
        assert np.max(np.abs(c + A.T @ (-out.dual_ub))) <= 1e-7
        # strong duality and complementary slackness
        assert out.objective == pytest.approx(float(out.dual_ub @ b), abs=1e-7)
        slack = b - A @ out.y
        assert np.max(np.abs(out.dual_ub * slack)) <= 1e-7
    assert checked >= 30


def test_equality_rows_match_vertex_enumeration():
    # random boxed LPs with one equality row, given once or twice; the box
    # is passed as rows so that the reported duals account for every row:
    # c - A_ub^T dual_ub lies in the row space of A_eq at the optimum
    rng = np.random.default_rng(4242)
    optimal = infeasible = duplicated = 0
    for trial in range(120):
        m = int(rng.integers(1, 5))
        k = int(rng.integers(1, 9))
        c = rng.uniform(-1, 1, m)
        A = rng.uniform(-1, 1, (k, m))
        b = rng.uniform(-0.6, 1, k)
        lo = rng.uniform(-2, 0, m)
        up = rng.uniform(0, 2, m)
        a, beta = rng.uniform(-1, 1, (1, m)), rng.uniform(-1.5, 1.5, 1)
        a_eq, b_eq = a, beta
        if trial % 2:
            a_eq, b_eq = np.vstack([a, a]), np.concatenate([beta, beta])
            duplicated += 1
        A_ub = np.vstack([A, np.eye(m), -np.eye(m)])
        b_ub = np.concatenate([b, up, -lo])
        out = solve_lp(LinearProgram(c=c, a_ub=A_ub, b_ub=b_ub,
                                     a_eq=a_eq, b_eq=b_eq, free=range(m)))
        status, obj = brute_force_boxed_lp(
            c, np.vstack([A, a, -a]), np.concatenate([b, beta, -beta]),
            lo, up)
        assert out.status == status, trial
        if status == INFEASIBLE:
            infeasible += 1
            continue
        optimal += 1
        assert out.objective == pytest.approx(obj, abs=1e-7)
        assert np.max(np.abs(a_eq @ out.y - b_eq)) <= 1e-8
        assert np.all(A_ub @ out.y <= b_ub + 1e-8)
        assert np.all(out.dual_ub <= 1e-9)
        # with complementary slackness these are the KKT conditions
        assert np.max(np.abs(out.dual_ub * (b_ub - A_ub @ out.y))) <= 1e-7
        rest = c - A_ub.T @ out.dual_ub
        dual_eq = np.linalg.lstsq(a_eq.T, rest, rcond=None)[0]
        assert np.max(np.abs(rest - a_eq.T @ dual_eq)) <= 1e-7
    assert optimal > 30 and infeasible > 10 and duplicated == 60


def test_status_stable_under_row_permutation():
    rng = np.random.default_rng(77)
    for trial in range(40):
        c, A, b, lo, up = _random_lp(rng)
        out1 = solve_boxed_lp(c, A, b, lo, up)
        perm = rng.permutation(A.shape[0])
        out2 = solve_boxed_lp(c, A[perm], b[perm], lo, up)
        assert out1.status == out2.status, trial
        if out1.status == OPTIMAL:
            assert out1.objective == pytest.approx(out2.objective, abs=1e-9)


def test_dual_simplex_on_appended_rows_matches_vertex_enumeration():
    # random boxed LPs in at most 4 variables, one row at a time: y = lo + x
    # with 0 <= x <= up - lo, starting from the box corner that minimizes c
    # (optimal, so dual feasible); after each appended row the dual
    # simplex must reach the brute-force optimum, or report infeasible
    rng = np.random.default_rng(1618)
    optimal = infeasible = 0
    for _ in range(100):
        m = int(rng.integers(1, 5))
        c = rng.uniform(-1, 1, m)
        A = rng.uniform(-1, 1, (12, m))
        b = rng.uniform(-0.3, 1, 12)
        lo = rng.uniform(-2, 0, m)
        up = rng.uniform(0, 2, m)
        tab = Tableau(c)
        for j in range(m):
            tab.add_row(np.eye(m)[j], up[j] - lo[j])
        for j in np.flatnonzero(c < 0):
            tab.pivot(j, j)
        assert tab.dual_simplex() == OPTIMAL
        for k in range(A.shape[0]):
            tab.add_row(A[k], b[k] - A[k] @ lo)
            status = tab.dual_simplex()
            expected, obj = brute_force_boxed_lp(c, A[:k + 1], b[:k + 1],
                                                 lo, up)
            assert status == expected
            if status == INFEASIBLE:
                infeasible += 1
                break
            optimal += 1
            x = tab.solution()
            assert c @ (lo + x) == pytest.approx(obj, abs=1e-7)
            assert np.all(A[:k + 1] @ (lo + x) <= b[:k + 1] + 1e-9)
            assert np.all(x >= -1e-9) and np.all(lo + x <= up + 1e-9)
    assert optimal > 500 and infeasible > 20


def test_tableau_row_cap():
    tab = Tableau([1.0], max_rows=2)
    tab.add_row([1.0], 1.0)
    tab.add_row([-1.0], 0.0)
    with pytest.raises(DimensionMismatch):
        tab.add_row([1.0], 2.0)


def test_scale_guard():
    with pytest.raises(DimensionMismatch):
        LinearProgram(c=np.zeros(1001))
