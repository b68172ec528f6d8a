import io
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import slemma
from conftest import brute_force_boxed_lp, solve_boxed_lp
from frozen_tableau import raw, solve_both
from slemma import farkas, linprog
from slemma import geometry as geo
from slemma.cli import main as cli_main
from slemma.errors import DimensionMismatch
from slemma.linprog import (INFEASIBLE, OPTIMAL, UNBOUNDED, LinearProgram,
                            solve_lp)


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
    # random boxed LPs in at most 4 variables, grown one row at a time: on
    # y = lo + x the right-hand sides b - A lo go negative, so phase 1's
    # dual simplex pivots before phase 2 starts; after each appended row
    # solve_lp must reach the brute-force optimum, or report infeasible
    rng = np.random.default_rng(1618)
    optimal = infeasible = 0
    for _ in range(100):
        m = int(rng.integers(1, 5))
        c = rng.uniform(-1, 1, m)
        A = rng.uniform(-1, 1, (12, m))
        b = rng.uniform(-0.3, 1, 12)
        lo = rng.uniform(-2, 0, m)
        up = rng.uniform(0, 2, m)
        for k in range(A.shape[0]):
            out = solve_boxed_lp(c, A[:k + 1], b[:k + 1], lo, up)
            expected, obj = brute_force_boxed_lp(c, A[:k + 1], b[:k + 1],
                                                 lo, up)
            assert out.status == expected
            if out.status == INFEASIBLE:
                infeasible += 1
                break
            optimal += 1
            assert out.objective == pytest.approx(obj, abs=1e-7)
            assert np.all(A[:k + 1] @ out.y <= b[:k + 1] + 1e-9)
            assert np.all(out.y >= lo - 1e-9) and np.all(out.y <= up + 1e-9)
    assert optimal > 500 and infeasible > 20


def test_row_scales():
    # each row's max |entry|, 1 for a zero or NaN row, on one row or a
    # stack of them
    a = np.array([[3.0, -4.0], [0.0, 0.0], [np.nan, 0.0], [-0.5, 0.25]])
    assert linprog.row_scales(a).tolist() == [4.0, 1.0, 1.0, 0.5]
    assert linprog.row_scales(a[0]) == 4.0
    assert linprog.row_scales(np.zeros((2, 0))).tolist() == [1.0, 1.0]


def test_scale_guard(monkeypatch):
    # one cap on the entries of solve_lp's tableau: a row per inequality,
    # two per equality, and a column per row, per variable (two when
    # free) and for the right-hand sides
    assert LinearProgram(c=np.zeros(1001)).c.shape == (1001,)
    monkeypatch.setattr(linprog, "MAX_ENTRIES", 60)
    fits = [dict(c=np.zeros(6), a_ub=np.zeros((5, 6)), b_ub=np.zeros(5)),
            dict(c=np.zeros(5), a_ub=np.zeros((5, 5)), b_ub=np.zeros(5),
                 free=[0]),
            dict(c=np.zeros(6), a_ub=np.zeros((1, 6)), b_ub=np.zeros(1),
                 a_eq=np.zeros((2, 6)), b_eq=np.zeros(2))]
    for lp in fits:     # 5 rows, 12 columns: exactly 60 entries
        LinearProgram(**lp)
    over = [dict(c=np.zeros(7), a_ub=np.zeros((5, 7)), b_ub=np.zeros(5)),
            dict(c=np.zeros(5), a_ub=np.zeros((5, 5)), b_ub=np.zeros(5),
                 free=[0, 1]),
            dict(c=np.zeros(6), a_ub=np.zeros((1, 6)), b_ub=np.zeros(1),
                 a_eq=np.zeros((3, 6)), b_eq=np.zeros(3))]
    for lp in over:
        with pytest.raises(DimensionMismatch):
            LinearProgram(**lp)


# solve_lp must give the bits of the frozen tableau in frozen_tableau.py,
# built one add_row at a time with pivots that update every column

def _padded(lp, rows, rng):
    """lp with `rows` more inequalities, each a nonnegative combination of
    its inequalities loosened by 0.1 to 1 (0 <= 0.1..1 when it has none):
    implied by lp's own rows, so the outcome is lp's."""
    if not rows:
        return lp
    k, m = lp.a_ub.shape
    w = rng.uniform(0, 1, (rows, k))
    return LinearProgram(
        c=lp.c, a_ub=np.vstack([lp.a_ub, w @ lp.a_ub]),
        b_ub=np.concatenate([lp.b_ub, w @ lp.b_ub
                             + rng.uniform(0.1, 1, rows)]),
        a_eq=lp.a_eq, b_eq=lp.b_eq, free=lp.free)


# 0: the LPs as drawn; 90: with 90 implied rows appended, so every
# tableau has at least 90 rows
TALL = [0, 90]


@pytest.mark.parametrize("pad", TALL)
def test_random_lps_match_the_add_row_loop_and_full_pivots(pad):
    # no columns: y is still an empty float64 array, and a row 0 <= -1
    # makes the LP infeasible
    assert solve_both(LinearProgram(c=[]))[0] == OPTIMAL
    assert solve_both(LinearProgram(c=[], a_ub=np.zeros((2, 0)),
                                     b_ub=[1.0, -1.0]))[0] == INFEASIBLE
    # y_0 is basic with a 0.0 in the entering column of y_1, so the ray's
    # first entry is -(0.0) before it is summed, and +0.0 after, as the
    # dense product gave
    status, _, _, _, ray, _, _ = solve_both(LinearProgram(
        c=[-1.0, -1.0], a_ub=[[1.0, 0.0]], b_ub=[1.0]))
    assert status == UNBOUNDED and ray[2] == np.array([0.0, 1.0]).tobytes()
    # two rows tie in the ratio test: the one of lowest basic index leaves
    status, _, _, _, _, basis, _ = solve_both(LinearProgram(
        c=[-1.0], a_ub=[[1.0], [1.0]], b_ub=[1.0, 1.0]))
    assert status == OPTIMAL and basis == [1, 3]
    empty = solve_lp(LinearProgram(c=[]))
    assert empty.y.dtype == np.float64 and empty.y.shape == (0,)
    rng = np.random.default_rng(5150)
    pad_rng = np.random.default_rng(9)
    statuses = Counter()
    for _ in range(150):
        m, k, e = (int(rng.integers(1, 7)), int(rng.integers(0, 13)),
                   int(rng.integers(0, 3)))
        lp = LinearProgram(
            c=rng.uniform(-1, 1, m),
            a_ub=rng.uniform(-1, 1, (k, m)) if k else None,
            b_ub=rng.uniform(-0.6, 1, k) if k else None,
            a_eq=rng.uniform(-1, 1, (e, m)) if e else None,
            b_eq=rng.uniform(-1, 1, e) if e else None,
            free=np.flatnonzero(rng.uniform(size=m) < 0.3))
        tall = _padded(lp, pad, pad_rng)
        status, _, objective, _, _, basis, _ = solve_both(tall)
        assert len(basis) >= pad
        if pad:
            out = solve_lp(lp)
            assert status == out.status
            if status == OPTIMAL:
                assert np.frombuffer(objective[2])[0] == pytest.approx(
                    out.objective, abs=1e-9)
        statuses[status] += 1
    assert min(statuses[s] for s in (OPTIMAL, INFEASIBLE, UNBOUNDED)) > 10


def _separator_lp(Z):
    """The LP `hull_intersects_k` solves on the cloud Z."""
    lps = []
    real = geo.solve_lp
    cloud = geo.ImageCloud(points=Z, sources=np.zeros((len(Z), 1)),
                           box_radius=1.0, seed=0)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geo, "solve_lp", lambda lp: lps.append(lp) or real(lp))
        geo.hull_intersects_k(cloud)
    (lp,) = lps
    return lp


@pytest.mark.parametrize("dominated", TALL)
def test_separator_lps_match_the_add_row_loop_and_full_pivots(dominated):
    # 256 to 320 cloud points in 2 or 3 coordinates, all on the frontier:
    # the separator's dual has a column per point and p + 3 rows.  With
    # `dominated` more points, each a frontier point moved up in every
    # coordinate, the LP is the same to the bit: it sees only the frontier
    rng = np.random.default_rng(99)
    pad_rng = np.random.default_rng(9)
    signs = Counter()
    for trial in range(12):
        dim = 2 + trial % 2
        count = int(rng.integers(256, 321))
        # points on the lower orthant of a unit sphere, none dominating
        # another; as its center moves down, delta turns negative
        U = np.abs(rng.normal(size=(count, dim)))
        Z = rng.uniform(0.0, 1.5, dim) - U / np.linalg.norm(U, axis=1)[:, None]
        lp = _separator_lp(Z)
        assert lp.c.shape == (count + 1,)
        if dominated:
            above = Z[pad_rng.integers(0, count, dominated)] + \
                pad_rng.uniform(0.01, 1.0, (dominated, dim))
            wide = _separator_lp(np.vstack([Z, above]))
            for name in ("c", "a_ub", "b_ub", "a_eq", "b_eq", "free"):
                assert raw(getattr(wide, name)) == raw(getattr(lp, name))
            lp = wide
        status, _, objective, _, _, basis, pivots = solve_both(lp)
        assert status == OPTIMAL and len(basis) == dim + 2
        assert pivots >= dim
        signs[bool(np.frombuffer(objective[2])[0] >= 0)] += 1
    assert signs[True] and signs[False]


def test_corpus_lps_match_the_add_row_loop_and_full_pivots(monkeypatch):
    # every LP that classify, geometry, certificate --method separation
    # and farkas solve on the 16 corpus files: each cloud's hull LP with
    # its separator's dual, and the linear alternatives
    corpus = Path(slemma.__file__).parent / "corpus"
    files = sorted(path for path in corpus.glob("*.json")
                   if path.name != "expected_verdicts.json")
    commands = {"classify": [], "geometry": [],
                "certificate": ["--method", "separation"], "farkas": []}
    lps = []
    real = linprog.solve_lp

    def recorded(lp):
        lps.append((command, lp))
        return real(lp)

    monkeypatch.setattr(geo, "solve_lp", recorded)
    monkeypatch.setattr(farkas, "solve_lp", recorded)
    for command, flags in commands.items():
        for path in files:
            cli_main([command, str(path), *flags], out=io.StringIO(),
                     err=io.StringIO())
    monkeypatch.undo()
    for _, lp in lps:
        solve_both(lp)
    assert len(files) == 16 and len(lps) == 45
    assert Counter(command for command, _ in lps).keys() == commands.keys()
