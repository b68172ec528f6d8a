"""A frozen copy of the dense simplex tableau that grows by rows, the oracle
that `linprog.solve_lp` and the certificate search are pinned against.

`Tableau` appends each row a.x <= b scaled to unit max-norm, with its slack
basic, and reduces it against the basis; its dual simplex takes the
entering column by a ratio test on the reduced costs, its primal simplex
by Bland's rule, and every pivot updates every column (`pivot_full_row`).
A free column is kept out of the dual simplex's leaving rows.  Each pivot
is counted in `Tableau.pivots`.

`dense_shift_solve_lp` is solve_lp over this tableau, with y = shift @ x
for a dense shift matrix; `solve_both` runs it and the code under test on
one LP and requires the same bits.
"""

import numpy as np
import pytest

from slemma import linprog
from slemma.errors import DimensionMismatch, NumericalBreakdown
from slemma.linprog import (_MAX_ITERS, _PIVOT_MIN, _TOL, INFEASIBLE,
                            ITERATION_LIMIT, OPTIMAL, UNBOUNDED, LpOutcome,
                            solve_lp)


def pivot_full_row(T, basis, row, col):
    """The pivot that updates every column of T."""
    piv = T[row, col]
    if abs(piv) < _PIVOT_MIN:
        raise NumericalBreakdown(
            f"pivot {piv:.3e} below {_PIVOT_MIN:.0e}; rescale the input"
        )
    factors = T[:, col].copy()
    factors[row] = 0.0
    T[row, :] /= piv
    T -= np.outer(factors, T[row, :])
    T[:, col] = 0.0
    T[row, col] = 1.0
    basis[row] = col


class Tableau:
    """min c.x subject to rows a.x <= b appended one at a time, with x >= 0
    except on the columns in `free`.

    Column 0 of the tableau holds the right-hand sides, columns 1..n the
    variables x and column n + 1 + i the slack of row i.  Storage doubles
    when full, up to `max_rows` rows."""

    def __init__(self, c, free=(), max_rows=10000):
        self.n = len(c)
        self.m = 0
        self.max_rows = max_rows
        self.pivots = 0
        self._grow(min(8, max_rows))
        self.costs[1:self.n + 1] = c
        self.is_free = np.zeros(1 + self.n + max_rows, dtype=bool)
        self.is_free[[j + 1 for j in free]] = True

    def _grow(self, rows):
        cols = 1 + self.n + rows
        buf = np.zeros((rows, cols))
        costs = np.zeros(cols)
        basis = np.zeros(rows, dtype=int)
        scales = np.ones(rows)
        if self.m:
            used = 1 + self.n + self.m
            buf[:self.m, :used] = self.buf[:self.m, :used]
            costs[:used] = self.costs[:used]
            basis[:self.m] = self.basis[:self.m]
            scales[:self.m] = self.scales[:self.m]
        self.buf, self.costs = buf, costs
        self.basis, self.scales = basis, scales

    def _tableau(self):
        return self.buf[:self.m, :1 + self.n + self.m]

    def add_row(self, a, b):
        """Append a.x <= b, scaled to unit max-norm, with its slack basic;
        return its row index."""
        if self.m == self.buf.shape[0]:
            if self.m == self.max_rows:
                raise DimensionMismatch(
                    f"tableau holds at most {self.max_rows} rows")
            self._grow(min(2 * self.m, self.max_rows))
        a = np.asarray(a, dtype=float)
        norm = np.abs(a).max(initial=0.0)
        scale = norm if norm > 0.0 else 1.0
        used = 2 + self.n + self.m        # the new slack is the last column
        row = self.buf[self.m, :used]
        row[0] = b / scale
        row[1:self.n + 1] = a / scale
        row[-1] = 1.0
        # only basic x columns can be nonzero in the raw row
        basics = (self.basis[:self.m] <= self.n).nonzero()[0]
        if basics.size:
            cols = self.basis[basics]
            row -= row[cols] @ self.buf[basics, :used]
            row[cols] = 0.0
        self.basis[self.m] = used - 1
        self.scales[self.m] = scale
        self.m += 1
        return self.m - 1

    def pivot(self, row, j):
        """Make variable j basic in `row`."""
        self._pivot(row, j + 1)

    def _pivot(self, row, col):
        self.pivots += 1
        pivot_full_row(self._tableau(), self.basis, row, col)

    def dual_simplex(self):
        """Dual simplex from a dual feasible basis: the leaving row is the
        infeasible one whose basic column is not free and has the lowest
        index, the entering column the lowest-index one of least ratio."""
        T = self._tableau()
        basis = self.basis[:self.m]
        costs = self.costs[:T.shape[1]]
        for _ in range(_MAX_ITERS):
            short = ((T[:, 0] < -_TOL) & ~self.is_free[basis]).nonzero()[0]
            if not short.size:
                return OPTIMAL
            leave = short[np.argmin(basis[short])]
            cand = (T[leave, 1:] < -_TOL).nonzero()[0] + 1
            if not cand.size:
                return INFEASIBLE
            reduced = costs[cand] - costs[basis] @ T[:, cand]
            ratios = np.maximum(reduced, 0.0) / -T[leave, cand]
            enter = cand[(ratios <= ratios.min() + 1e-12).argmax()]
            self._pivot(leave, enter)
        return ITERATION_LIMIT

    def primal_simplex(self):
        """Primal simplex from a primal feasible basis, by Bland's rule.
        Returns (OPTIMAL, None), (UNBOUNDED, j) with j the entering
        variable that no row limits, or (ITERATION_LIMIT, None)."""
        T = self._tableau()
        basis = self.basis[:self.m]
        for _ in range(_MAX_ITERS):
            improving = (self._reduced_costs()[1:] < -_TOL).nonzero()[0]
            if not improving.size:
                return OPTIMAL, None
            enter = improving[0] + 1
            rows = (T[:, enter] > _TOL).nonzero()[0]
            if not rows.size:
                return UNBOUNDED, enter - 1
            ratios = T[rows, 0] / T[rows, enter]
            ties = rows[ratios <= ratios.min() + 1e-12]
            self._pivot(ties[np.argmin(basis[ties])], enter)
        return ITERATION_LIMIT, None

    def _reduced_costs(self):
        T = self._tableau()
        return self.costs[:T.shape[1]] - self.costs[self.basis[:self.m]] @ T

    def duals(self):
        """d(objective)/d(b) for each row's unscaled b."""
        return -self._reduced_costs()[1 + self.n:] / self.scales[:self.m]

    def solution(self):
        """The basic solution's x."""
        values = np.zeros(1 + self.n + self.m)
        values[self.basis[:self.m]] = self.buf[:self.m, 0]
        return values[1:self.n + 1]


def dense_shift_solve_lp(lp):
    """solve_lp on a `Tableau` built one add_row at a time, with y = shift
    @ x, shift a dense (variables x columns) matrix; returns the outcome
    and the tableau."""
    m = lp.c.shape[0]
    # y = shift @ x: a free y_j is x_j+ - x_j-, in adjacent columns
    cols = [(j, sign) for j in range(m)
            for sign in ((1.0, -1.0) if j in lp.free else (1.0,))]
    n = len(cols)
    shift = np.zeros((m, n))
    for k, (j, sign) in enumerate(cols):
        shift[j, k] = sign
    a_eq = lp.a_eq @ shift
    a = np.vstack([lp.a_ub @ shift, a_eq, -a_eq])
    b = np.concatenate([lp.b_ub, lp.b_eq, -lp.b_eq])
    tab = Tableau(np.zeros(n), max_rows=len(b))
    for row, rhs in zip(a, b):
        tab.add_row(row, rhs)
    # phase 1: with zero costs every basis is dual feasible, so the dual
    # simplex reaches a feasible basis or proves there is none
    status = tab.dual_simplex()
    if status == OPTIMAL:
        tab.costs[1:n + 1] = lp.c @ shift
        status, entering = tab.primal_simplex()
    if status == ITERATION_LIMIT:
        raise NumericalBreakdown("simplex iteration limit reached")
    if status == INFEASIBLE:
        return LpOutcome(status=INFEASIBLE), tab

    x = tab.solution()
    x[np.abs(x) < 1e-13] = 0.0
    y = shift @ x
    if status == UNBOUNDED:
        # the entering variable grows by one and the basic ones follow
        step = np.zeros(1 + n + tab.m)
        step[entering + 1] = 1.0
        step[tab.basis[:tab.m]] = -tab.buf[:tab.m, entering + 1]
        return LpOutcome(status=UNBOUNDED, y=y,
                         ray=shift @ step[1:n + 1]), tab

    return LpOutcome(status=OPTIMAL, y=y, objective=float(lp.c @ y),
                     dual_ub=tab.duals()[:lp.a_ub.shape[0]]), tab


def raw(v):
    """The dtype, shape and bytes of v (None stays None)."""
    if v is None:
        return None
    v = np.asarray(v)
    return v.dtype.str, v.shape, v.tobytes()


def solve_both(lp):
    """solve_lp's outcome under the frozen copy and under the code under
    test: the same status, the same dtype, shape and bytes in y,
    objective, dual_ub and ray, the same final basis and the same number
    of pivots.  Returns the code under test's record of these."""
    out, tab = dense_shift_solve_lp(lp)
    runs = [(out.status, raw(out.y), raw(out.objective), raw(out.dual_ub),
             raw(out.ray), tab.basis[:tab.m].tolist(), tab.pivots)]
    # solve_lp's basis is the array its phase 1 receives, which the
    # pivots of both phases update in place
    bases, pivots = [], []
    phase_1, pivot = linprog._phase_1, linprog._pivot

    def recorded_phase_1(T, basis):
        bases.append(basis)
        return phase_1(T, basis)

    def counted_pivot(*args):
        pivots.append(1)
        pivot(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linprog, "_phase_1", recorded_phase_1)
        patch.setattr(linprog, "_pivot", counted_pivot)
        out = solve_lp(lp)
    (basis,) = bases
    runs.append((out.status, raw(out.y), raw(out.objective),
                 raw(out.dual_ub), raw(out.ray), basis.tolist(),
                 len(pivots)))
    assert runs[0] == runs[1]
    return runs[1]
