"""Dense two-phase simplex with Bland's rule, and a dual simplex on a
tableau that grows by rows.

Solves   minimize c^T y
         subject to  a_ub @ y <= b_ub,  a_eq @ y == b_eq,
                     lower <= y <= upper   (entries may be infinite)

The solver is deterministic for a fixed input: the entering variable is the
lowest-index column with reduced cost below -1e-9, the leaving row is the
minimum-ratio row with the lowest basic variable index, so cycling cannot
occur.  Rows are scaled to unit max-norm before solving.

Dual multipliers follow the sensitivity convention dual_i = d(objective)/
d(b_i): for a minimization, inequality rows get nonpositive duals.

`Tableau` keeps one LP optimal while rows arrive: an appended row leaves
the basis dual feasible, so the dual simplex re-optimizes it, usually in a
pivot or two, where `solve_lp` would start over.
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


@dataclass
class LinearProgram:
    c: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __init__(self, c, a_ub=None, b_ub=None, a_eq=None, b_eq=None,
                 lower=None, upper=None):
        c = np.asarray(c, dtype=float).ravel()
        m = c.shape[0]
        self.c = c
        self.a_ub, self.b_ub = _rows(a_ub, b_ub, m, "a_ub")
        self.a_eq, self.b_eq = _rows(a_eq, b_eq, m, "a_eq")
        self.lower = _bound(lower, m, -np.inf)
        self.upper = _bound(upper, m, np.inf)
        if np.any(self.lower > self.upper):
            raise DimensionMismatch("some lower bound exceeds its upper bound")
        if self.a_ub.shape[0] + self.a_eq.shape[0] > 10000 or m > 1000:
            raise DimensionMismatch("problem exceeds the supported dense scale")


def _rows(a, b, m, name):
    if a is None:
        return np.zeros((0, m)), np.zeros(0)
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.asarray(b, dtype=float).ravel()
    if a.shape[1] != m or a.shape[0] != b.shape[0]:
        raise DimensionMismatch(f"{name} has shape {a.shape}, rhs {b.shape}")
    return a, b


def _bound(v, m, default):
    if v is None:
        return np.full(m, default)
    v = np.asarray(v, dtype=float).ravel()
    if v.shape != (m,):
        raise DimensionMismatch(f"bound vector has length {v.shape[0]}, expected {m}")
    return v


@dataclass
class LpOutcome:
    """When UNBOUNDED, y is the basic feasible point the simplex stopped
    at and ray an improving direction from it (c . ray < 0)."""

    status: str
    y: np.ndarray | None = None
    objective: float | None = None
    dual_ub: np.ndarray | None = None
    dual_eq: np.ndarray | None = None
    ray: np.ndarray | None = None


class _Standardized:
    """Rewrite onto nonnegative variables x with y = offset + shift @ x."""

    def __init__(self, lp):
        m = lp.c.shape[0]
        cols = []          # (orig var, sign) per standard column
        self.offset = np.zeros(m)
        extra_rows = []    # (std col, rhs) for two-sided bounds
        for j in range(m):
            lo, up = lp.lower[j], lp.upper[j]
            if np.isfinite(lo):
                self.offset[j] = lo
                cols.append((j, 1.0))
                if np.isfinite(up):
                    extra_rows.append((len(cols) - 1, up - lo))
            elif np.isfinite(up):
                self.offset[j] = up
                cols.append((j, -1.0))
            else:
                cols.append((j, 1.0))
                cols.append((j, -1.0))
        self.shift = np.zeros((m, len(cols)))
        for col, (j, sign) in enumerate(cols):
            self.shift[j, col] = sign

        self.c = lp.c @ self.shift
        a_ub = lp.a_ub @ self.shift
        b_ub = lp.b_ub - lp.a_ub @ self.offset
        if extra_rows:
            bound_a = np.zeros((len(extra_rows), len(cols)))
            bound_b = np.zeros(len(extra_rows))
            for i, (col, rhs) in enumerate(extra_rows):
                bound_a[i, col] = 1.0
                bound_b[i] = rhs
            a_ub = np.vstack([a_ub, bound_a])
            b_ub = np.concatenate([b_ub, bound_b])
        self.a_ub = a_ub
        self.b_ub = b_ub
        self.a_eq = lp.a_eq @ self.shift
        self.b_eq = lp.b_eq - lp.a_eq @ self.offset
        self.n_user_ub = lp.a_ub.shape[0]

    def to_original(self, x):
        return self.offset + self.shift @ x

    def ray_to_original(self, x_ray):
        return self.shift @ x_ray


def _simplex_loop(T, basis, costs, n_cols):
    """Bland-rule simplex on tableau T (rows x (n_cols+1)) in place.

    Returns ("optimal", -1) or ("unbounded", entering_col)."""
    rows = T.shape[0]
    for _ in range(_MAX_ITERS):
        cb = costs[basis] if rows else np.zeros(0)
        rc = costs[:n_cols] - (cb @ T[:, :n_cols] if rows else 0.0)
        entering = -1
        for j in range(n_cols):
            if rc[j] < -_TOL:
                entering = j
                break
        if entering < 0:
            return "optimal", -1
        col = T[:, entering]
        best_ratio = None
        leave = -1
        for i in range(rows):
            if col[i] > _TOL:
                ratio = T[i, -1] / col[i]
                if (best_ratio is None or ratio < best_ratio - 1e-12
                        or (abs(ratio - best_ratio) <= 1e-12
                            and basis[i] < basis[leave])):
                    best_ratio = ratio
                    leave = i
        if leave < 0:
            return "unbounded", entering
        _pivot(T, basis, leave, entering)
    raise NumericalBreakdown("simplex iteration limit reached")


def _pivot(T, basis, row, col):
    piv = T[row, col]
    if abs(piv) < _PIVOT_MIN:
        raise NumericalBreakdown(
            f"pivot {piv:.3e} below {_PIVOT_MIN:.0e}; rescale the input"
        )
    T[row, :] /= piv
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= np.outer(factors, T[row, :])
    T[:, col] = 0.0
    T[row, col] = 1.0
    basis[row] = col


def solve_lp(lp):
    """Two-phase simplex; exact Optimal/Infeasible/Unbounded trichotomy."""
    std = _Standardized(lp)
    n = std.c.shape[0]
    k_ub = std.a_ub.shape[0]
    k_eq = std.a_eq.shape[0]
    rows = k_ub + k_eq

    # equality form [A_ub I; A_eq 0] with slacks, equilibrated row-wise
    A = np.zeros((rows, n + k_ub))
    A[:k_ub, :n] = std.a_ub
    A[:k_ub, n:] = np.eye(k_ub)
    A[k_ub:, :n] = std.a_eq
    b = np.concatenate([std.b_ub, std.b_eq])

    scales = np.ones(rows)
    if rows:
        row_norm = np.max(np.abs(A[:, :n]), axis=1) if n else np.zeros(rows)
        scales = np.where(row_norm > 0.0, row_norm, 1.0)
    A /= scales[:, None] if rows else 1.0
    b = b / scales if rows else b
    flip = np.ones(rows)
    neg = b < 0.0
    A[neg] *= -1.0
    b[neg] *= -1.0
    flip[neg] = -1.0

    n_work = n + k_ub
    basis = []
    art_rows = []
    for i in range(rows):
        if i < k_ub and not neg[i]:
            basis.append(n + i)
        else:
            basis.append(-1)
            art_rows.append(i)
    n_total = n_work + len(art_rows)
    T = np.zeros((rows, n_total + 1))
    T[:, :n_work] = A
    T[:, -1] = b
    for a_idx, i in enumerate(art_rows):
        T[i, n_work + a_idx] = 1.0
        basis[i] = n_work + a_idx

    kept = list(range(rows))
    if art_rows:
        costs1 = np.zeros(n_total)
        costs1[n_work:] = 1.0
        status, _ = _simplex_loop(T, basis, costs1, n_total)
        phase1_obj = float(costs1[basis] @ T[:, -1]) if basis else 0.0
        if phase1_obj > 1e-8:
            return LpOutcome(status=INFEASIBLE)
        # drive leftover artificials out of the basis or drop their rows
        drop = []
        for i in range(len(basis)):
            if basis[i] >= n_work:
                pivot_col = -1
                for j in range(n_work):
                    if abs(T[i, j]) > 1e-9:
                        pivot_col = j
                        break
                if pivot_col >= 0:
                    _pivot(T, basis, i, pivot_col)
                else:
                    drop.append(i)
        if drop:
            keep_idx = [i for i in range(len(basis)) if i not in drop]
            T = T[keep_idx]
            basis = [basis[i] for i in keep_idx]
            kept = [kept[i] for i in keep_idx]

    T = np.hstack([T[:, :n_work], T[:, -1:]])
    costs2 = np.zeros(n_work)
    costs2[:n] = std.c
    status, entering = _simplex_loop(T, basis, costs2, n_work)

    x = np.zeros(n_work)
    for i, bj in enumerate(basis):
        x[bj] = T[i, -1]
    x[np.abs(x) < 1e-13] = 0.0
    y = std.to_original(x[:n])

    if status == "unbounded":
        x_ray = np.zeros(n_work)
        x_ray[entering] = 1.0
        col = T[:, entering]
        for i, bj in enumerate(basis):
            x_ray[bj] = -col[i]
        ray = std.ray_to_original(x_ray[:n])
        return LpOutcome(status=UNBOUNDED, y=y, ray=ray)

    objective = float(lp.c @ y)

    # duals: solve B^T w = c_B over the working system the tableau tracks,
    # then undo the row flips and equilibration scales
    w = np.zeros(rows)
    if basis:
        A_kept = A[kept]
        B = np.empty((len(basis), len(basis)))
        for col_idx, bj in enumerate(basis):
            B[:, col_idx] = A_kept[:, bj]
        try:
            w_kept = np.linalg.solve(B.T, costs2[basis])
        except np.linalg.LinAlgError:
            w_kept = np.linalg.lstsq(B.T, costs2[basis], rcond=None)[0]
        for pos, i in enumerate(kept):
            w[i] = w_kept[pos] * flip[i] / scales[i]
    dual_ub = w[: std.n_user_ub]
    dual_eq = w[k_ub:]
    return LpOutcome(status=OPTIMAL, y=y, objective=objective,
                     dual_ub=dual_ub, dual_eq=dual_eq)


class Tableau:
    """min c.x subject to rows a.x <= b appended one at a time, with x >= 0
    except on the columns in `free`.

    Column 0 of the tableau holds the right-hand sides, columns 1..n the
    variables x and column n + 1 + i the slack of row i.  `add_row` makes
    the new row's slack basic and reduces the row against the basis; the
    caller starts from a dual feasible basis it sets with `pivot`, keeps
    every free column basic, and calls `dual_simplex` to restore primal
    feasibility.  Storage doubles when full, up to `max_rows` rows."""

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
        if self.m:
            used = 1 + self.n + self.m
            buf[:self.m, :used] = self.buf[:self.m, :used]
            costs[:used] = self.costs[:used]
            is_free[:used] = self.is_free[:used]
            basis[:self.m] = self.basis[:self.m]
        self.buf, self.costs, self.is_free = buf, costs, is_free
        self.basis = basis

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
        norm = np.abs(a).max()
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
            _pivot(T, basis, leave, enter)
        return ITERATION_LIMIT

    def solution(self):
        """The basic solution's x."""
        values = np.zeros(1 + self.n + self.m)
        values[self.basis[:self.m]] = self.buf[:self.m, 0]
        return values[1:self.n + 1]
