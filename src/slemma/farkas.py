"""Linear alternatives: the two cases where multipliers are exactly the
Minkowski-Farkas lemma.

Homogeneous:  <a0, x> >= 0 whenever all <a_i, x> >= 0
              iff  a0 = sum_i alpha_i a_i with alpha >= 0.
Affine:       <a0, x> >= b0 whenever all <a_i, x> >= b_i (system consistent)
              iff  a0 = sum alpha_i a_i and b0 - sum alpha_i b_i <= 0.

The homogeneous lemma is the affine one with b = 0, and `solve` answers
both with one LP:  minimize <a0, x> over the constraint polyhedron.  Its
optimal duals are the multipliers; an unbounded ray (or an optimal value
below b0) yields the alternative point.  The data's `mode` only labels
the report.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .linprog import INFEASIBLE, OPTIMAL, LinearProgram, solve_lp

HOMOGENEOUS = "Homogeneous"
AFFINE = "Affine"

MULTIPLIERS = "multipliers"
ALTERNATIVE = "alternative"
INCONSISTENT = "inconsistent"

_MARGIN = 1e-9


@dataclass(frozen=True)
class LinearSystemData:
    """a0, b0 and constraint rows a_i, b_i of the linear S-procedure."""

    a0: np.ndarray
    b0: float
    a: np.ndarray     # (p, n)
    b: np.ndarray     # (p,)
    mode: str

    def __post_init__(self):
        a0 = np.asarray(self.a0, dtype=float).ravel()
        a = np.atleast_2d(np.asarray(self.a, dtype=float))
        b = np.asarray(self.b, dtype=float).ravel()
        if a.shape[1] != a0.shape[0] or a.shape[0] != b.shape[0]:
            raise DimensionMismatch(
                f"rows {a.shape} and rhs {b.shape} do not match a0 {a0.shape}"
            )
        if self.mode == HOMOGENEOUS and (self.b0 != 0.0 or np.any(b != 0.0)):
            raise DimensionMismatch("homogeneous data must have zero offsets")
        object.__setattr__(self, "a0", a0)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "b0", float(self.b0))

    @property
    def n(self):
        return self.a0.shape[0]

    @property
    def p(self):
        return self.a.shape[0]


def make_linear_system(a0, b0, rows, offsets, mode=None):
    if mode is None:
        hom = float(b0) == 0.0 and not np.any(np.asarray(offsets, float))
        mode = HOMOGENEOUS if hom else AFFINE
    return LinearSystemData(a0=a0, b0=b0, a=rows, b=offsets, mode=mode)


def linear_data(system):
    """Data of an affine system, f_i = <c_i, x> + d_i = <a_i, x> - b_i; a
    linear problem-file entry stores d = -b, so b = -d is exact."""
    rows = np.array([f.c for f in system.constraints],
                    dtype=float).reshape(system.p, system.n)
    offsets = np.array([-f.d for f in system.constraints], dtype=float)
    return make_linear_system(a0=system.f0.c, b0=-system.f0.d, rows=rows,
                              offsets=offsets)


@dataclass
class FarkasResult:
    kind: str
    alpha: np.ndarray | None = None
    x: np.ndarray | None = None
    system_consistent: bool = True


def solve(data, margin=0.0):
    """Multipliers (a0 = sum alpha_i a_i, b0 - sum alpha_i b_i <= 0) or an
    alternative x with a_i . x >= b_i for all i and <a0, x> < b0.

    An inconsistent constraint system is flagged: multipliers are then
    reported when they exist at all, and the result carries
    system_consistent=False either way.  Homogeneous data never reaches
    that branch, since x = 0 is feasible.  A positive `margin` asks every
    constraint for it, a_i . x >= b_i + margin: the LP's vertex then
    clears each constraint by more than its rounding.  A row with a_i = 0
    is decided exactly first: the LP's tolerance reads 0 >= 1e-10 as met."""
    if np.any(data.b[~data.a.any(axis=1)] + margin > 0.0):
        return _inconsistent(data)
    # minimize <a0, x> subject to a_i . x >= b_i (as -a x <= -b)
    out = solve_lp(LinearProgram(c=data.a0, a_ub=-data.a,
                                 b_ub=-(data.b + margin),
                                 free=range(data.n)))
    if out.status == INFEASIBLE:
        return _inconsistent(data)
    if out.status == OPTIMAL:
        if out.objective >= data.b0 - _MARGIN:
            # the duals reconstruct a0 up to solver tolerance; clean tiny
            # negatives only
            return FarkasResult(kind=MULTIPLIERS,
                                alpha=np.maximum(-out.dual_ub, 0.0))
        return FarkasResult(kind=ALTERNATIVE, x=out.y)
    # unbounded: walk from the LP's feasible point y down the ray until
    # <a0, x> = b0 - 1; homogeneous data has y = 0, so x = ray / (-slope)
    slope = float(data.a0 @ out.ray)
    need = float(data.a0 @ out.y) - (data.b0 - 1.0)
    x = out.y + out.ray / (-slope / need) if need > 0.0 else out.y
    return FarkasResult(kind=ALTERNATIVE, x=x)


def _inconsistent(data):
    """With an empty constraint set the implication is vacuous; multipliers
    still exist exactly when a0 is in the cone of the a_i (any infeasibility
    certificate can absorb the b-inequality).  Solve for them directly."""
    out = solve_lp(LinearProgram(c=np.zeros(data.p), a_ub=-data.b[None, :],
                                 b_ub=np.array([-data.b0]), a_eq=data.a.T,
                                 b_eq=data.a0))
    if out.status == OPTIMAL:
        return FarkasResult(kind=MULTIPLIERS, alpha=np.maximum(out.y, 0.0),
                            system_consistent=False)
    return FarkasResult(kind=INCONSISTENT, system_consistent=False)


def verify_farkas(data, result):
    """Residuals of whichever branch was returned; used by tests and the
    report path.  Multipliers pass with both residuals at most 1e-8."""
    if result.kind == MULTIPLIERS:
        alpha = result.alpha
        recon = np.max(np.abs(data.a.T @ alpha - data.a0)) if data.p else \
            np.max(np.abs(data.a0))
        b_resid = max(data.b0 - float(data.b @ alpha), 0.0)
        return {"reconstruction": float(recon), "b_inequality": float(b_resid),
                "ok": bool(recon <= 1e-8 and b_resid <= 1e-8)}
    if result.kind == ALTERNATIVE:
        x = result.x
        feas = float(np.min(data.a @ x - data.b)) if data.p else 0.0
        violation = float(data.b0 - data.a0 @ x)
        return {"feasibility": feas, "violation": violation,
                "ok": bool(feas >= -1e-9 and violation > 1e-9)}
    return {"ok": False}
