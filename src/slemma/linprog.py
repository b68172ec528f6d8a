"""Dense two-phase simplex on one tableau, built once.

`solve_lp` solves   minimize c^T y
                    subject to  a_ub @ y <= b_ub,  a_eq @ y == b_eq,
                                y >= 0 except on the columns in `free`.

The tableau keeps every variable nonnegative, so `solve_lp` splits each
free y_j into two adjacent nonnegative columns, y_j = x_j+ - x_j-, by
index: column k is sign_k * y[col_k], and y and the unbounded ray are read
back through the same two arrays.  It builds the tableau in one step from
a row per inequality and two opposite rows per equality, each divided
with its right-hand side by its max |entry| (`row_scales`): column 0 holds
the right-hand sides, columns 1..n the variables x and column n + 1 + i
the slack of row i, and the slacks start basic.  Each basic column is a
unit vector with +0.0 off its row.  Phase 1 is the dual simplex on zero
costs, where every basis is dual feasible and every ratio is 0: the
infeasible row whose basic column has the lowest index leaves and its
first column below -1e-9 enters, until the basis is feasible or a row has
no such column, which proves that no point is.  Phase 2 sets the real
costs and runs the primal simplex by Bland's rule: the entering variable
is the lowest-index column with reduced cost below -1e-9, the leaving row
the minimum-ratio row with the lowest basic variable index, so cycling
cannot occur.

A `LinearProgram` whose tableau would hold more than MAX_ENTRIES entries
is refused.  `solve_lp` holds nothing larger than its input and that
tableau, so its memory is linear in the LP.  The cloud programs of
`geometry` keep the tableau short: at most p + 3 rows, however many points
the cloud has.

Dual multipliers follow the sensitivity convention dual_i = d(objective)/
d(b_i): for a minimization, inequality rows get nonpositive duals.  The
tableau reads them off its slacks' reduced costs.

The certificate search's master LP, in p + 1 free variables, is not
solved here: `certificate._ActiveSet` keeps its p + 1 active rows and
their inverse, and scales and tests its rows by this module's rules.
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


def row_scales(a):
    """The max |entry| of each row of a, or 1 where that is 0 (or NaN): the
    divisor of a row and its right-hand side wherever rows are tested by
    _TOL.  a is one row or a stack of rows."""
    norm = np.abs(a).max(axis=-1, initial=0.0)
    return np.fmax(norm, ~(norm > 0.0))


def solve_lp(lp):
    """Two-phase simplex on one dense tableau; exact Optimal/Infeasible/
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
    a = np.vstack([lp.a_ub[:, col] * sign, a_eq, -a_eq])
    b = np.concatenate([lp.b_ub, lp.b_eq, -lp.b_eq])
    scales = row_scales(a)
    T = np.hstack([(b / scales)[:, None], a / scales[:, None], np.eye(len(b))])
    basis = np.arange(n + 1, T.shape[1])
    if not _phase_1(T, basis):
        return LpOutcome(status=INFEASIBLE)
    costs = np.zeros(T.shape[1])
    costs[1:n + 1] = lp.c[col] * sign
    reduced, entering = _phase_2(T, basis, costs)

    values = np.zeros(T.shape[1])
    values[basis] = T[:, 0]
    x = values[1:n + 1]
    x[np.abs(x) < 1e-13] = 0.0
    y = merged(x)
    if entering is not None:
        # the entering variable grows by one and the basic ones follow
        step = np.zeros(T.shape[1])
        step[entering] = 1.0
        step[basis] = -T[:, entering]
        return LpOutcome(status=UNBOUNDED, y=y, ray=merged(step[1:n + 1]))
    # d(objective)/d(b) for each row's unscaled b: minus its slack's
    # reduced cost over the row's scale
    duals = -reduced[1 + n:] / scales
    return LpOutcome(status=OPTIMAL, y=y, objective=float(lp.c @ y),
                     dual_ub=duals[:lp.a_ub.shape[0]])


def _phase_1(T, basis):
    """The dual simplex on zero costs; False at a row that proves the LP
    infeasible."""
    for _ in range(_MAX_ITERS):
        short = (T[:, 0] < -_TOL).nonzero()[0]
        if not short.size:
            return True
        leave = short[basis[short].argmin()]
        cand = (T[leave, 1:] < -_TOL).nonzero()[0]
        if not cand.size:
            return False
        _pivot(T, basis, leave, cand[0] + 1)
    raise NumericalBreakdown("simplex iteration limit reached")


def _phase_2(T, basis, costs):
    """The primal simplex by Bland's rule; the last reduced costs and the
    entering column that no row limits (None at the optimum)."""
    for _ in range(_MAX_ITERS):
        reduced = costs - costs[basis] @ T
        improving = (reduced[1:] < -_TOL).nonzero()[0]
        if not improving.size:
            return reduced, None
        enter = improving[0] + 1
        rows = (T[:, enter] > _TOL).nonzero()[0]
        if not rows.size:
            return reduced, enter
        ratios = T[rows, 0] / T[rows, enter]
        ties = rows[ratios <= ratios.min() + 1e-12]
        _pivot(T, basis, ties[np.argmin(basis[ties])], enter)
    raise NumericalBreakdown("simplex iteration limit reached")
