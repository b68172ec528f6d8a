"""Dense simplex on one tableau that grows by rows.

`solve_lp` solves   minimize c^T y
                    subject to  a_ub @ y <= b_ub,  a_eq @ y == b_eq,
                                y >= 0 except on the columns in `free`

the convention `Tableau` uses too.  It splits each free y_j into two
adjacent nonnegative columns, y_j = x_j+ - x_j-, by index: column k is
sign_k * y[col_k], and y and the unbounded ray are read back through the
same two arrays.  It appends every inequality, and each equality as two
opposite inequalities, to one `Tableau` by `add_row`, each row with its
slack basic, and solves it in two phases.  Phase 1 runs the dual simplex
on zero costs, where every basis is dual feasible, so it ends at a
feasible basis or at a row that proves there is none.  Phase 2 sets the
real costs and runs the primal simplex by Bland's rule: the entering
variable is the lowest-index column with reduced cost below -1e-9, the
leaving row the minimum-ratio row with the lowest basic variable index, so
cycling cannot occur.  `add_row` scales every row to unit max-norm.

A `LinearProgram` whose tableau would hold more than MAX_ENTRIES entries
is refused.  `solve_lp` holds nothing larger than its input and that
tableau, so its memory is linear in the LP.  The cloud programs of
`geometry` keep the tableau short: at most p + 3 rows, however many points
the cloud has.

Dual multipliers follow the sensitivity convention dual_i = d(objective)/
d(b_i): for a minimization, inequality rows get nonpositive duals.  The
tableau reads them off its slacks' reduced costs.

`Tableau` also keeps the certificate search's master LP optimal while rows
arrive: an appended row leaves the basis dual feasible, so the dual simplex
re-optimizes it, usually in a pivot or two, where `solve_lp` would start
over.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NumericalBreakdown

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
ITERATION_LIMIT = "iteration limit reached"

_TOL = 1e-9
_PIVOT_MIN = 1e-11
_MAX_ITERS = 100000
# entries of solve_lp's tableau, which bounds its memory: 80 MB of doubles
MAX_ENTRIES = 10**7


@dataclass
class LinearProgram:
    """min c.y subject to a_ub @ y <= b_ub and a_eq @ y == b_eq, with
    y >= 0 except on the columns in `free`."""

    c: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    free: tuple

    def __init__(self, c, a_ub=None, b_ub=None, a_eq=None, b_eq=None,
                 free=()):
        c = np.asarray(c, dtype=float).ravel()
        m = c.shape[0]
        self.c = c
        self.a_ub, self.b_ub = _rows(a_ub, b_ub, m, "a_ub")
        self.a_eq, self.b_eq = _rows(a_eq, b_eq, m, "a_eq")
        self.free = tuple(sorted({int(j) for j in free}))
        if self.free and not 0 <= self.free[0] <= self.free[-1] < m:
            raise DimensionMismatch(
                f"free columns {self.free} outside 0..{m - 1}")
        # solve_lp's tableau: a row per inequality, two per equality, and
        # a column per row, per variable (two when free) and for the rhs
        rows = self.a_ub.shape[0] + 2 * self.a_eq.shape[0]
        if rows * (1 + m + len(self.free) + rows) > MAX_ENTRIES:
            raise DimensionMismatch(
                f"the tableau would exceed {MAX_ENTRIES} entries")


def _rows(a, b, m, name):
    if a is None:
        return np.zeros((0, m)), np.zeros(0)
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.asarray(b, dtype=float).ravel()
    if a.shape[1] != m or a.shape[0] != b.shape[0]:
        raise DimensionMismatch(f"{name} has shape {a.shape}, rhs {b.shape}")
    return a, b


@dataclass
class LpOutcome:
    """When UNBOUNDED, y is the basic feasible point the simplex stopped
    at and ray an improving direction from it (c . ray < 0)."""

    status: str
    y: np.ndarray | None = None
    objective: float | None = None
    dual_ub: np.ndarray | None = None
    ray: np.ndarray | None = None


def _pivot(T, basis, row, col):
    """Make column `col` basic in `row` of the tableau T and record it in
    `basis`: divide the row by the pivot, subtract its multiples from the
    other rows, and set the entering column to the exact unit vector,
    +0.0 off its row."""
    piv = T[row, col]
    if abs(piv) < _PIVOT_MIN:
        raise NumericalBreakdown(
            f"pivot {piv:.3e} below {_PIVOT_MIN:.0e}; rescale the input"
        )
    factors = T[:, col].copy()
    factors[row] = 0.0
    pivot_row = T[row]
    pivot_row /= piv
    T -= factors[:, None] * pivot_row
    T[:, col] = 0.0
    T[row, col] = 1.0
    basis[row] = col


def solve_lp(lp):
    """Two-phase simplex on one `Tableau`; exact Optimal/Infeasible/
    Unbounded trichotomy."""
    m = lp.c.shape[0]
    # tableau column k is sign[k] * y[col[k]]: a free y_j is x_j+ - x_j-,
    # in adjacent columns
    width = np.ones(m, dtype=int)
    width[list(lp.free)] = 2
    col = np.repeat(np.arange(m), width)
    n = len(col)
    sign = np.ones(n)
    sign[1:][col[1:] == col[:-1]] = -1.0

    def merged(x):
        # y_j = sum of sign[k] * x[k] over y_j's columns, summed from +0.0
        # so that a zero sum reads +0.0, as a dense product gives
        y = np.zeros(m)
        np.add.at(y, col, sign * x)
        return y

    a_eq = lp.a_eq[:, col] * sign
    rows = np.vstack([lp.a_ub[:, col] * sign, a_eq, -a_eq])
    rhs = np.concatenate([lp.b_ub, lp.b_eq, -lp.b_eq])
    tab = Tableau(np.zeros(n), max_rows=len(rhs))
    for a, b in zip(rows, rhs):
        tab.add_row(a, b)
    # phase 1: with zero costs every basis is dual feasible, so the dual
    # simplex reaches a feasible basis or proves there is none
    status = tab.dual_simplex()
    if status == OPTIMAL:
        tab.costs[1:n + 1] = lp.c[col] * sign
        status, entering = tab.primal_simplex()
    if status == ITERATION_LIMIT:
        raise NumericalBreakdown("simplex iteration limit reached")
    if status == INFEASIBLE:
        return LpOutcome(status=INFEASIBLE)

    x = tab.solution()
    x[np.abs(x) < 1e-13] = 0.0
    y = merged(x)
    if status == UNBOUNDED:
        # the entering variable grows by one and the basic ones follow
        step = np.zeros(1 + n + tab.m)
        step[entering + 1] = 1.0
        step[tab.basis[:tab.m]] = -tab.buf[:tab.m, entering + 1]
        return LpOutcome(status=UNBOUNDED, y=y, ray=merged(step[1:n + 1]))

    return LpOutcome(status=OPTIMAL, y=y, objective=float(lp.c @ y),
                     dual_ub=tab.duals()[:lp.a_ub.shape[0]])


class Tableau:
    """min c.x subject to rows a.x <= b appended one at a time, with x >= 0
    except on the columns in `free`.

    Column 0 of the tableau holds the right-hand sides, columns 1..n the
    variables x and column n + 1 + i the slack of row i.  Each basic
    column is a unit vector with +0.0 off its row.  `add_row` makes the
    new row's slack basic and reduces the row against the basis; the
    caller starts from a dual feasible basis it sets with `pivot`, keeps
    every free column basic, and calls `dual_simplex` to restore primal
    feasibility.  `primal_simplex` goes the other way, from a primal
    feasible basis with no free column.  Storage doubles when full, up to
    `max_rows` rows."""

    def __init__(self, c, free=(), max_rows=10000):
        self.n = len(c)
        self.m = 0
        self.max_rows = max_rows
        self._grow(min(8, max_rows))
        self.costs[1:self.n + 1] = c
        self.is_free[[j + 1 for j in free]] = True

    def _grow(self, rows):
        cols = 1 + self.n + rows
        buf = np.zeros((rows, cols))
        costs = np.zeros(cols)
        is_free = np.zeros(cols, dtype=bool)
        basis = np.zeros(rows, dtype=int)
        scales = np.ones(rows)
        if self.m:
            used = 1 + self.n + self.m
            buf[:self.m, :used] = self.buf[:self.m, :used]
            costs[:used] = self.costs[:used]
            is_free[:used] = self.is_free[:used]
            basis[:self.m] = self.basis[:self.m]
            scales[:self.m] = self.scales[:self.m]
        self.buf, self.costs, self.is_free = buf, costs, is_free
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
        norm = abs(a).max(initial=0.0)
        scale = norm if norm > 0.0 else 1.0
        used = 2 + self.n + self.m        # the new slack is the last column
        row = self.buf[self.m, :used]
        row[0] = b / scale
        np.divide(a, scale, out=row[1:self.n + 1])
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
        _pivot(self._tableau(), self.basis, row, j + 1)

    def dual_simplex(self):
        """Dual simplex from a dual feasible basis: the leaving row is the
        infeasible one whose basic column has the lowest index, the
        entering column the lowest-index one of least ratio.  Returns
        OPTIMAL, INFEASIBLE (a row with no entering column) or
        ITERATION_LIMIT."""
        T = self._tableau()
        basis = self.basis[:self.m]
        costs = self.costs[:T.shape[1]]
        bounded = ~self.is_free[basis]     # rows that may leave
        for _ in range(_MAX_ITERS):
            short = ((T[:, 0] < -_TOL) & bounded).nonzero()[0]
            if not short.size:
                return OPTIMAL
            leave = short[basis[short].argmin()]
            cand = (T[leave, 1:] < -_TOL).nonzero()[0] + 1
            if not cand.size:
                return INFEASIBLE
            reduced = costs[cand] - costs[basis] @ T[:, cand]
            ratios = np.maximum(reduced, 0.0, out=reduced) / -T[leave, cand]
            enter = cand[(ratios <= ratios.min() + 1e-12).argmax()]
            _pivot(T, basis, leave, enter)
            bounded[leave] = not self.is_free[enter]
        return ITERATION_LIMIT

    def primal_simplex(self):
        """Primal simplex from a primal feasible basis, by Bland's rule:
        the entering column is the lowest-index one of negative reduced
        cost, the leaving row the minimum-ratio one whose basic column has
        the lowest index.  Returns (OPTIMAL, None), (UNBOUNDED, j) with j
        the entering variable that no row limits, or (ITERATION_LIMIT,
        None)."""
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
            _pivot(T, basis, ties[np.argmin(basis[ties])], enter)
        return ITERATION_LIMIT, None

    def _reduced_costs(self):
        T = self._tableau()
        return self.costs[:T.shape[1]] - self.costs[self.basis[:self.m]] @ T

    def duals(self):
        """d(objective)/d(b) for each row's unscaled b: minus its slack's
        reduced cost over the row's `add_row` scale."""
        return -self._reduced_costs()[1 + self.n:] / self.scales[:self.m]

    def solution(self):
        """The basic solution's x."""
        values = np.zeros(1 + self.n + self.m)
        values[self.basis[:self.m]] = self.buf[:self.m, 0]
        return values[1:self.n + 1]
