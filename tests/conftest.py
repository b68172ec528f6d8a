"""Shared fixtures and independent oracles used across the test suite."""

from dataclasses import dataclass
from itertools import chain, combinations

import numpy as np
import pytest

from slemma.geometry import _random_quadratic as random_quadratic
from slemma.linprog import INFEASIBLE, OPTIMAL, LinearProgram, solve_lp
from slemma.quadratic import PSD_RTOL, QuadraticFunction
from slemma.rng import SplitMix64
from slemma.systems import FunctionSystem


# terms that make a quadratic's expression transcendental, and out of
# its domain on part of [-6, 6]^n
EXPRESSION_TERMS = (" + sin(x1) * exp(x{n} / 4)", " - log(x1 + 3)",
                    " + sqrt(x{n} + 4) / (x1 - 0.5)",
                    " + abs(x1)^1.5 - min(x1, x{n})")


@pytest.fixture
def example3():
    """q0(x, y) = 2x^2 - y^2 with the constraint q1(x, y) = x + y."""
    q0 = QuadraticFunction(np.array([[4.0, 0.0], [0.0, -2.0]]),
                           np.zeros(2), 0.0)
    q1 = QuadraticFunction(np.zeros((2, 2)), np.array([1.0, 1.0]), 0.0)
    return FunctionSystem(n=2, f0=q0, constraints=(q1,))


def random_psd_quadratic(rng, n, margin=0.0):
    """Globally nonnegative quadratic built from a PSD bordered matrix."""
    vals = rng.uniforms((n + 1) * (n + 1), -1.0, 1.0)
    L = np.array(vals).reshape(n + 1, n + 1)
    G = L @ L.T
    return QuadraticFunction(G[:n, :n], G[:n, n], G[n, n] / 2.0 + margin)


def random_p1_system(seed, max_n=4):
    rng = SplitMix64(seed)
    n = 1 + int(rng.randint(max_n))
    return FunctionSystem(n, random_quadratic(rng, n),
                          (random_quadratic(rng, n),))


def _system_of(rng, p, n):
    functions = [random_quadratic(rng, n) for _ in range(p + 1)]
    return FunctionSystem(n, functions[0], tuple(functions[1:]))


def p3_system(s):
    """p = 3 on n = 2..4, drawn from SplitMix64(10000 + s)."""
    rng = SplitMix64(10000 + s)
    return _system_of(rng, 3, 2 + int(rng.randint(3)))


def p2to4_system(s):
    """p and n in 2..4, drawn from SplitMix64(20000 + s)."""
    rng = SplitMix64(20000 + s)
    p = 2 + int(rng.randint(3))
    return _system_of(rng, p, 2 + int(rng.randint(3)))


def quadratic_values(q, X):
    """Values of q at each row of X by the plain formula 1/2 x^T Q x +
    c^T x + d, independent of the package's stacked kernel."""
    return 0.5 * np.einsum("ij,jk,ik->i", X, q.Q, X) + X @ q.c + q.d


def grid_decides_implication(system, radius=10.0, tol=1e-6, points=41):
    """Independent adjudication of the implication on [-R, R]^n: a grid
    point with every constraint above -tol and f0 below -tol falsifies it.
    The points^n grid is evaluated one slice of the first axis at a time,
    and the first slice that holds a falsifying point decides."""
    axis = np.linspace(-radius, radius, points)
    size = points ** (system.n - 1)
    # the other axes' points, in meshgrid "ij" order (n = 1: one empty row)
    rest = axis[np.indices((points,) * (system.n - 1)).reshape(-1, size).T]
    for first in axis:
        X = np.hstack([np.full((size, 1), first), rest])
        f0 = quadratic_values(system.f0, X)
        feasible = np.ones(size, dtype=bool)
        for f in system.constraints:
            feasible &= quadratic_values(f, X) >= -tol
        if np.any(feasible & (f0 < -tol)):
            return False
    return True


def brute_force_boxed_lp(c, A, b, lower, upper, tol=1e-9):
    """Vertex enumeration for min c.y s.t. A y <= b inside a box.

    Returns ("optimal", value) or ("infeasible", None); the box guarantees
    any nonempty feasible set has a vertex."""
    m = c.shape[0]
    G = np.vstack([A, np.eye(m), -np.eye(m)])
    h = np.concatenate([b, upper, -lower])
    # one row of row indices per m-row subset
    idx = np.fromiter(chain.from_iterable(combinations(range(G.shape[0]), m)),
                      dtype=np.intp).reshape(-1, m)
    mats, rhs = G[idx], h[idx]
    dets = np.abs(np.linalg.det(mats))
    ok = dets > 1e-10
    if not np.any(ok):
        return "infeasible", None
    sols = np.linalg.solve(mats[ok], rhs[ok][..., None])[..., 0]
    feas = np.all(G @ sols.T <= h[:, None] + tol * (1 + np.abs(h[:, None])),
                  axis=0)
    if not np.any(feas):
        return "infeasible", None
    return "optimal", float(np.min(sols[feas] @ c))


def solve_boxed_lp(c, A, b, lower, upper=None):
    """solve_lp on min c.y s.t. A y <= b, lower <= y (<= upper), written
    on x = y - lower >= 0 with the upper bounds as rows x <= upper - lower;
    the outcome's y and objective are mapped back to y."""
    a_ub, b_ub = A, b - A @ lower
    if upper is not None:
        a_ub = np.vstack([a_ub, np.eye(c.shape[0])])
        b_ub = np.concatenate([b_ub, upper - lower])
    out = solve_lp(LinearProgram(c=c, a_ub=a_ub, b_ub=b_ub))
    if out.y is not None:
        out.y = lower + out.y
    if out.status == OPTIMAL:
        out.objective += float(c @ lower)
    return out


@dataclass
class FormerHullResult:
    """`witness` is sum_j w_j z_j for the convex `weights` w, a point of K
    up to the simplex's tolerance: its first coordinate is the optimum,
    below -tol, up to rounding, and its coordinate i >= 1 is at most
    1e-9 * max_j |z_j[i]| over the frontier, as the LP's rows are scaled
    to unit max-norm, but not always <= 0."""

    intersects: bool
    weights: np.ndarray | None = None   # convex combination over cloud points
    witness: np.ndarray | None = None   # the combination
    optimum: float | None = None        # minimized first coordinate


def former_hull_intersects_k(cloud, tol=PSD_RTOL):
    """Does the convex hull of the cloud meet K?

    The hull LP that `geometry.hull_intersects_k` solved before it read
    the answer off the separator's LP, kept verbatim as a reference.

    Solved as: minimize sum_j w_j z_j[0] over convex weights w subject to
    sum_j w_j z_j[i] <= 0 for i = 1..p.  The hull meets K exactly when the
    optimum is below -tol.  Because K is scale-invariant, the same program
    answers the conical-hull question.
    """
    frontier = cloud.frontier
    Zf = cloud.points[frontier]
    count, dim = Zf.shape
    lp = LinearProgram(
        c=Zf[:, 0],
        a_ub=Zf[:, 1:].T if dim > 1 else None,
        b_ub=np.zeros(dim - 1) if dim > 1 else None,
        a_eq=np.ones((1, count)),
        b_eq=np.ones(1),
    )
    out = solve_lp(lp)
    if out.status == INFEASIBLE:
        return FormerHullResult(intersects=False)
    if out.status != OPTIMAL:  # the simplex is compact; this cannot happen
        raise RuntimeError(f"unexpected LP status {out.status}")
    if out.objective < -tol:
        weights = np.zeros(cloud.size)
        weights[frontier] = out.y
        witness = out.y @ Zf
        return FormerHullResult(intersects=True, weights=weights,
                                witness=witness, optimum=out.objective)
    return FormerHullResult(intersects=False, optimum=out.objective)


def p1_image(f0, f1, x):
    """z(x) = (f0(x), -f1(x)) of two quadratics, by `quadratic_values`."""
    x = np.atleast_2d(x)
    return np.array([quadratic_values(f0, x)[0], -quadratic_values(f1, x)[0]])


def conical_preimage(f0, f1, x1, x2, t):
    """(s, x) with s > 0 and s z(x) = m for the chord point m = t z(x1) +
    (1 - t) z(x2) of z = (f0, -f1), from `quadratic_values` alone: an
    independent oracle for Dines' theorem on two quadratic functions.

    With w_i = (x_i, 1), H(a, b) = (h0, -h1)(a w1 + b w2) for the
    homogenized forms h_i is the binary form a^2 z(x1) + 2ab B + b^2 z(x2),
    where H(1, 1) = 4 z((x1 + x2)/2) gives B.  The ratios r = a/b on which
    H is parallel to m are the roots of cross(H(r, 1), m) = 0.  A root
    with mu = <H, m>/|m|^2 > 0 gives m = H(r, 1)/mu, and dehomogenizing
    w = r w1 + w2 gives x = (r x1 + x2)/(r + 1) and s = (r + 1)^2/mu; of
    two such roots, the one whose w is farther from w_(n+1) = 0.  None
    when no root qualifies (m outside the cone) or r + 1 = 0 (a point of
    the closure only)."""

    def cross(u, v):
        return u[0] * v[1] - u[1] * v[0]

    A, C = p1_image(f0, f1, x1), p1_image(f0, f1, x2)
    m = t * A + (1.0 - t) * C
    B = (4.0 * p1_image(f0, f1, (np.asarray(x1) + x2) / 2.0) - A - C) / 2.0
    a, b, c = cross(A, m), 2.0 * cross(B, m), cross(C, m)
    if a == 0.0:
        roots = [] if b == 0.0 else [-c / b]
    else:
        disc = b * b - 4.0 * a * c
        if disc < 0.0:
            return None
        q = -0.5 * (b + np.copysign(np.sqrt(disc), b))
        roots = [q / a] + ([c / q] if q != 0.0 else [])
    best = None
    for r in roots:
        H = r * r * A + 2.0 * r * B + C
        mu = float(H @ m) / float(m @ m)
        # of two qualifying roots, the one farther from the closure
        lift = abs(r + 1.0) / np.hypot(r, 1.0)
        if mu > 0.0 and lift > 0.0 and (best is None or lift > best[0]):
            best = (lift, (r + 1.0) ** 2 / mu,
                    (r * np.asarray(x1) + x2) / (r + 1.0))
    return None if best is None else best[1:]
