"""Image-set geometry: the cone K, sampled image clouds, the one LP that
tests a cloud's hull against K and separates it from K, and convexity
falsifiers.

K = {z in R^(p+1) : z_0 < 0 and z_i <= 0 for i >= 1} carries the
counterexample statement: z(x) lands in K exactly when all constraints hold
at x while f0(x) < 0.  Finite clouds stand in for the true image set, so
every "disjoint" finding here is sample-level only; reports always carry
N, R and the seed that scope the claim.
"""

import os
from collections.abc import Sequence
from contextlib import nullcontext, suppress
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import expr as expr_mod
from .errors import DomainError, NumericalBreakdown
from .linprog import OPTIMAL, LinearProgram, solve_lp
from .quadratic import PSD_RTOL, QuadraticFunction, bordered_matrix
from .rng import SplitMix64, derive_seed, uniform_rows
from .search import all_finite, descend, smallest_rows
from .systems import FunctionSystem

MEMBER_TOL = 1e-7
# a member search's loss sum_i r_i^2 at or below this proves its target a
# member: then every |r_i| <= MEMBER_TOL/2 (1 + u), as fl(r_i^2) <= loss
_MEMBER_LOSS = (MEMBER_TOL / 2) ** 2
_ORACLE_CHUNK = 32    # targets per shortfall buffer of a stacked oracle call
_PARETO_BLOCK = 64    # points per block of the Pareto filter


@dataclass(frozen=True)
class ImageCloud:
    """Finite sample of Im(f0, -f1, ..., -fp) with its generating inputs."""

    points: np.ndarray       # (N, p+1)
    sources: np.ndarray      # (N, n)
    box_radius: float
    seed: int
    skipped: int = 0

    @property
    def size(self):
        return self.points.shape[0]

    @property
    def p(self):
        return self.points.shape[1] - 1

    @property
    def n(self):
        return self.sources.shape[1]

    @cached_property
    def frontier(self):
        """Indices of the componentwise-minimal points (`_pareto_minimal`),
        computed once.  The cloud LP runs on this subset, and so does the
        epi oracle's fast path.  A cloud made by `grown` gets it from its
        parent's frontier and the added points (see there)."""
        return _pareto_minimal(self.points)

    def grown(self, points, sources):
        """This cloud with `points`, imaged from `sources`, appended.  Its
        frontier is `_pareto_minimal` of this cloud's frontier and the added
        points, which equals that of all the grown cloud's points: a point
        off this frontier has a dominator on it that comes earlier in (sum,
        index) order, and the added points, last by index, leave the order
        of the old ones as it was."""
        grown = replace(self, points=np.vstack([self.points, points]),
                        sources=np.vstack([self.sources, sources]))
        kept = np.concatenate([self.frontier,
                               np.arange(self.size, grown.size)])
        # stored where cached_property keeps `frontier`
        grown.__dict__["frontier"] = kept[_pareto_minimal(grown.points[kept])]
        return grown


def sample_image(system, radius, count, seed):
    """Cloud of `count` image points from inputs uniform in [-R, R]^n.

    Out-of-domain points (non-finite values) are skipped and resampled;
    more than 50% skips aborts with DomainError.  An all-quadratic system
    is defined everywhere, so there a non-finite image is an overflow,
    and it raises NumericalBreakdown.
    """
    if radius <= 0 or count < 1:
        raise ValueError("radius must be positive and count at least 1")
    rng = SplitMix64(seed)
    points, sources = [], []
    kept = 0
    skipped = 0
    while kept < count:
        want = count - kept
        X = rng.uniform_box(radius, system.n, want)
        Z = system.image_batch(X)
        ok = np.all(np.isfinite(Z), axis=1)
        if system.is_quadratic and not ok.all():
            raise NumericalBreakdown(
                f"image cloud: {int(np.sum(~ok))} of {want} sampled images "
                f"overflowed")
        skipped += int(np.sum(~ok))
        points.append(Z[ok])
        sources.append(X[ok])
        kept += int(np.sum(ok))
        if skipped > max(count, kept):
            raise DomainError(
                f"more than half of the sampled points were out of domain "
                f"({skipped} skips for {kept} kept)"
            )
    return ImageCloud(
        points=np.vstack(points)[:count],
        sources=np.vstack(sources)[:count],
        box_radius=float(radius),
        seed=int(seed),
        skipped=skipped,
    )


def cone_k_member(z, strict_tol=0.0):
    """Membership of z in K: z_0 < -strict_tol, z_i <= strict_tol for i>=1."""
    z = np.asarray(z, dtype=float)
    return bool(z[0] < -strict_tol and np.all(z[1:] <= strict_tol))


def cloud_k_members(cloud):
    """Indices of cloud points lying in K."""
    Z = cloud.points
    ok = (Z[:, 0] < 0.0) & np.all(Z[:, 1:] <= 0.0, axis=1)
    return np.nonzero(ok)[0]


def _pareto_minimal(Z):
    """Indices of componentwise-minimal points, the first of equal ones.

    The cloud LP (`hull_intersects_k`) bounds each coordinate of a convex
    combination by its objective, so a point dominated componentwise by
    another can be dropped exactly: the dominating point does at least as
    well in every constraint.  Processing in (coordinate sum, coordinates
    lexicographically, index) order guarantees dominators are seen first:
    the float sum is monotone under dominance, and among equal sums a
    dominator is lexicographically smaller.  A point is dropped iff an
    earlier point in that order weakly dominates it, which, as dominance
    is transitive, is iff an earlier kept point does.  The points go in
    blocks, each tested against the points kept before it and then
    against its own earlier points."""
    order = np.lexsort((*Z.T[::-1], np.sum(Z, axis=1)))
    S = Z[order]
    kept = np.zeros(len(S), dtype=bool)
    earlier = np.triu(np.ones((_PARETO_BLOCK, _PARETO_BLOCK), dtype=bool), 1)
    for start in range(0, len(S), _PARETO_BLOCK):
        B = S[start:start + _PARETO_BLOCK]
        size = len(B)
        dominated = _weakly_below(S[:start][kept[:start]], B).any(axis=0)
        dominated |= (_weakly_below(B, B)
                      & earlier[:size, :size]).any(axis=0)
        kept[start:start + size] = ~dominated
    return np.sort(order[kept])


def _weakly_below(A, B):
    """[i, j]: A[i] <= B[j] in every coordinate."""
    below = A[:, 0, None] <= B[:, 0]
    for col in range(1, A.shape[1]):
        below &= A[:, col, None] <= B[:, col]
    return below


@dataclass
class Separator:
    """Nonnegative normalized direction with <alpha, z> >= delta on the cloud."""

    alpha: np.ndarray
    delta: float


@dataclass
class HullResult:
    """The cloud LP's answer (see `hull_intersects_k`): t* = `optimum`,
    the convex `weights` w over the cloud's points, the hull point
    `witness` = w Z, each coordinate at most t* up to the LP's rounding,
    and the best `separator`, None exactly when the hull meets K."""

    optimum: float
    weights: np.ndarray
    witness: np.ndarray
    separator: Separator | None
    touches: bool       # |t*| <= tol

    @property
    def intersects(self):
        return self.separator is None


def hull_intersects_k(cloud, tol=PSD_RTOL):
    """Does the cloud's convex hull meet K, and what best separates it?

    One LP on the frontier, p + 1 rows and the equality however large the
    cloud: minimize t over convex weights w and a free t subject to
    sum_j w_j z_j[i] <= t on each coordinate i.  Its optimum t* is the
    least largest coordinate of a hull point, and by LP duality also
    delta = max min_j <alpha, z_j> over alpha >= 0 with sum(alpha) = 1;
    alpha is the dual of those rows (minus `dual_ub`), clamped at 0 and
    normalized.  The hull meets K (`intersects`, no separator) when
    t* < -tol; it `touches` K's closure {z <= 0} when |t*| <= tol, as
    a hull that meets K only on its face z_0 < 0, z_i = 0 does (t* = 0);
    else it is disjoint from the closure.  A cloud with a point in K has
    t* <= 0, so it never reads disjoint.  As K is scale-invariant, the
    conical hull meets K exactly when the hull does.
    """
    frontier = cloud.frontier
    Z = cloud.points[frontier]
    count, dim = Z.shape
    # variables (w_1..w_count, t); minimize t
    lp = LinearProgram(
        c=np.concatenate([np.zeros(count), [1.0]]),
        a_ub=np.hstack([Z.T, -np.ones((dim, 1))]),
        b_ub=np.zeros(dim),
        a_eq=np.concatenate([np.ones(count), [0.0]])[None, :],
        b_eq=np.ones(1),
        free=[count],
    )
    out = solve_lp(lp)
    if out.status != OPTIMAL:  # w-simplex is compact, t is bounded
        raise RuntimeError(f"unexpected LP status {out.status}")
    w = out.y[:count]
    weights = np.zeros(cloud.size)
    weights[frontier] = w
    alpha = np.maximum(-out.dual_ub, 0.0)
    alpha /= np.sum(alpha)
    t = float(out.objective)
    return HullResult(t, weights, w @ Z,
                      Separator(alpha, t) if t >= -tol else None,
                      touches=abs(t) <= tol)


def extract_separator(cloud, tol=PSD_RTOL):
    """The separator of `hull_intersects_k`'s answer, or None."""
    return hull_intersects_k(cloud, tol).separator


@dataclass
class MembershipResult:
    member: bool
    x: np.ndarray | None = None
    margin: float = 0.0     # least shortfall found, clamped at 0 for a member


@dataclass(eq=False)
class MembershipAnswers(Sequence):
    """The answers for k targets as arrays: `member` (k,) bools, `margin`
    (k,) as in MembershipResult, and `x` (k, n), whose row is read for
    members only.  Item j is target j's MembershipResult, built on
    access, so a per-target reader sees what a per-target oracle gives."""

    member: np.ndarray
    margin: np.ndarray
    x: np.ndarray

    def __len__(self):
        return len(self.member)

    def __getitem__(self, j):
        member = bool(self.member[j])
        return MembershipResult(member, self.x[j] if member else None,
                                float(self.margin[j]))


def _clamp_at_zero(a):
    """max(a, 0.0) elementwise as Python's max takes it: a is kept unless
    0.0 > a, so -0.0 and NaN stay."""
    return np.where(0.0 > a, 0.0, a)


def _residuals(system, X, M, mode, jacobians=False):
    """z(x) - m for each row of X, against one target m or one per row
    (hinged at 0 in epi mode); with `jacobians` also (residuals, their
    (m, p+1, n) Jacobians), a hinged coordinate's row being 0."""
    if not jacobians:
        Z = system.image_batch(X)
    else:
        Z, J = system.values_and_gradients(X)
        Z[:, 1:] *= -1.0
        J[:, 1:] *= -1.0
    if not all_finite(Z):
        Z = np.where(np.isfinite(Z), Z, np.inf)
    R = Z - M
    if mode == "epi":
        R = np.maximum(R, 0.0)
        if jacobians:
            J *= (R > 0.0)[:, :, None]
    return (R, J) if jacobians else R


def _shortfalls(Z, M, mode):
    """max_i (z_i - m_i) (epi) or max_i |z_i - m_i| over the last axis of
    broadcast Z and M, one coordinate at a time: no (k, N, p+1) temporary."""
    shape = np.broadcast_shapes(Z.shape, M.shape)[:-1]
    gaps, d = np.full(shape, -np.inf), np.empty(shape)
    for c in range(Z.shape[-1]):
        np.subtract(Z[..., c], M[..., c], out=d)
        np.maximum(gaps, d if mode == "epi" else np.abs(d, out=d), out=gaps)
    return gaps


def _gauss_newton_polish(system, X, M, mode):
    """Squeeze the residual system z(x) - m (hinged for epi mode) of each
    row x of X, against the same row of M, with at most 8 damped
    Gauss-Newton steps on the Jacobian from `values_and_gradients`;
    descent alone crawls along curved valleys and stalls orders of
    magnitude above the membership tolerance.  Rows stop on their own but
    share one evaluation for their Jacobians and one for their trials."""
    X = np.array(X, dtype=float)
    k, dim = X.shape
    best_X = X.copy()
    best = np.max(np.abs(_residuals(system, X, M, mode)), axis=1)
    active = np.ones(k, dtype=bool)
    dampings = np.array([1.0, 0.5, 0.25])[:, None, None]
    for _ in range(8):
        rows = np.nonzero(active)[0]
        if not len(rows):
            break
        R, J = _residuals(system, X[rows], M[rows], mode, jacobians=True)
        steps = np.full((len(rows), dim), np.nan)
        for a in range(len(rows)):
            if np.all(np.isfinite(R[a])):
                with suppress(np.linalg.LinAlgError):
                    steps[a] = np.linalg.lstsq(J[a], -R[a], rcond=None)[0]
        # a row without a finite step gets no finite trial, so it stops
        trials = X[rows][None] + dampings * steps[None]
        vals = np.max(np.abs(_residuals(
            system, trials.reshape(-1, dim), np.tile(M[rows], (3, 1)),
            mode)), axis=1).reshape(3, len(rows))
        accepted = np.isfinite(vals) & (vals < best[rows])
        moved = np.any(accepted, axis=0)
        active[rows[~moved]] = False
        first, cols = np.argmax(accepted, axis=0)[moved], np.nonzero(moved)[0]
        rows = rows[moved]
        best[rows] = vals[first, cols]
        X[rows] = best_X[rows] = trials[first, cols]
        active[rows[best[rows] <= 1e-14]] = False
    return best_X


def _member_search(system, M, budget, seeds, mode, starts=None):
    """Search, for each target m (a row of the (k, p+1) stack M), for an x
    whose image matches or dominates m.

    mode "epi": want z(x) <= m componentwise (+ tolerance); shortfall is
    max_i (z_i - m_i).  mode "identity": want z(x) == m; shortfall is
    max_i |z_i - m_i|.  Target j starts from starts[j] (a (k, s, n)
    array), the origin and `budget` restarts drawn from its own
    SplitMix64(seeds[j]) stream, all drawn in one batch (`uniform_rows`).
    All targets share one grouped descent and one polish, so each of the
    k answers returned (a MembershipAnswers) equals a search on that
    target alone.

    The descent retires a target as soon as one of its rows has loss
    sum_i r_i^2 <= _MEMBER_LOSS, and a retired target skips the polish
    (with none live, the polish is not called): that row's image is within
    MEMBER_TOL of the target, so the target is a member whatever the rest
    of the budget would give.  A target that never retires gets the full
    step budget and the polish, so a non-member's margin is the one a
    search without retirement finds.  Membership is read, for every
    target, from the image_batch shortfall of its best row, <= MEMBER_TOL.
    """
    M = np.atleast_2d(np.asarray(M, dtype=float))
    k, n = M.shape[0], system.n
    restarts = max(4, int(budget))
    # restart box radii 1, 5, 20, 80, 1, 5, ...
    radii = np.resize([1.0, 5.0, 20.0, 80.0], restarts)[:, None]
    U = uniform_rows(seeds, restarts * n)
    blocks = [np.zeros((k, 1, n)),
              -radii + 2.0 * radii * U.reshape(k, restarts, n)]
    if starts is not None:
        blocks.insert(0, np.asarray(starts, dtype=float).reshape(k, -1, n))
    X0 = np.concatenate(blocks, axis=1)
    size = X0.shape[1]

    def loss(X, g):
        # sum_i r_i^2, whose gradient is 2 sum_i r_i grad r_i
        R, J = _residuals(system, X, M[g], mode, jacobians=True)
        with np.errstate(over="ignore"):   # a finite r_i past 1e154: +inf
            vals = np.add.reduce(R * R, axis=1)
        if not all_finite(R):
            R[~np.isfinite(R)] = 0.0
        R *= 2.0
        return vals, np.einsum("ij,ijk->ik", R, J)

    X, vals = descend(loss, X0.reshape(-1, n), steps=90,
                      groups=np.repeat(np.arange(k), size), goal=_MEMBER_LOSS)
    X = X.reshape(k, size, n)
    live = vals.reshape(k, size)[:, 0] > _MEMBER_LOSS   # never retired
    # each target's three polish slots first, then its descended rows; a
    # retired target's slots hold its three best descended rows as they are
    X = np.concatenate([X[:, :3], X], axis=1)
    if live.any():
        X[live, :3] = _gauss_newton_polish(
            system, X[live, :3].reshape(-1, n), np.repeat(M[live], 3, axis=0),
            mode).reshape(-1, 3, n)
    Z = system.image_batch(X.reshape(-1, n)).reshape(k, size + 3, -1)
    gaps = _shortfalls(np.where(np.isfinite(Z), Z, np.inf), M[:, None], mode)
    rows, best = np.arange(k), np.argmin(gaps, axis=1)
    margin = gaps[rows, best]
    # a non-member's margin is above MEMBER_TOL or NaN, which the clamp keeps
    return MembershipAnswers(margin <= MEMBER_TOL, _clamp_at_zero(margin),
                             X[rows, best])


def epi_member(system, m, budget=24, seed=0):
    """Is m in the epi-image Im(f0, -f1, ..., -fp) + R_+^(p+1)?

    Random restarts plus gradient descent on the squared hinge
    sum_i max(0, z_i(x) - m_i)^2; membership means z(x) <= m + 1e-7."""
    return _member_search(system, m, budget, [seed], "epi")[0]


def _membership_oracle(system, cloud, budget, seed, mode):
    """Shared body of the epi and identity oracles.  The oracle takes one
    target m, answered as a MembershipResult, or a (k, p+1) stack answered
    as k calls in order, in one MembershipAnswers: call c (counted from 1)
    searches with the seed derive_seed(seed, c), starting from the six
    cloud points of least shortfall (`smallest_rows`, ties in index
    order).  In epi mode a cloud point below m answers without a search
    (`_epi_fast_path`, which reads the frontier).  The rest share one
    search; only their shortfalls are taken against every cloud point.
    Shortfalls are taken _ORACLE_CHUNK targets at a time, so a large
    stack's buffers stay (_ORACLE_CHUNK, N)."""
    calls = 0

    def oracle(m):
        nonlocal calls
        m_arr = np.asarray(m, dtype=float)
        M = np.atleast_2d(m_arr)
        k = len(M)
        first = calls + 1
        calls += k
        answers = MembershipAnswers(np.zeros(k, dtype=bool), np.empty(k),
                                    np.empty((k, cloud.n)))
        slow = (_epi_fast_path(cloud, M, answers) if mode == "epi"
                else np.arange(k))
        if slow.size:
            nearest = [smallest_rows(_shortfalls(
                cloud.points[None], M[slow[lo:lo + _ORACLE_CHUNK], None],
                mode), 6) for lo in range(0, len(slow), _ORACLE_CHUNK)]
            seeds = [derive_seed(seed, first + j) for j in slow.tolist()]
            found = _member_search(system, M[slow], budget, seeds, mode,
                                   starts=cloud.sources[np.vstack(nearest)])
            answers.member[slow] = found.member
            answers.margin[slow] = found.margin
            answers.x[slow] = found.x
        return answers if m_arr.ndim > 1 else answers[0]

    return oracle


def _epi_fast_path(cloud, M, answers):
    """Answer, into `answers`, each target m of the stack M that a cloud
    point is below, and return the indices of the others.  Such a target
    is a member with margin max(least shortfall, 0) and x the source of
    the first frontier point of that least shortfall.  The least shortfall
    is read on the frontier alone: every cloud point is weakly above a
    frontier point, and rounding z_i - m_i is monotone in z_i, so no other
    point has a smaller shortfall.  A NaN target has a NaN shortfall and
    goes to the search."""
    front = cloud.frontier
    points = cloud.points[front]
    slow = []
    for lo in range(0, len(M), _ORACLE_CHUNK):
        chunk = M[lo:lo + _ORACLE_CHUNK]
        gaps = _shortfalls(points[None], chunk[:, None], "epi")
        least = gaps.argmin(axis=1)
        best = gaps[np.arange(len(chunk)), least]
        fast = best <= MEMBER_TOL
        rows = lo + fast.nonzero()[0]
        answers.member[rows] = True
        answers.margin[rows] = _clamp_at_zero(best[fast])
        answers.x[rows] = cloud.sources[front[least[fast]]]
        slow.append(lo + (~fast).nonzero()[0])
    return np.concatenate(slow) if slow else np.arange(0)


def epi_membership_oracle(system, cloud, budget=24, seed=0):
    """Oracle for the upper set F + R_+^(p+1), with a cloud fast path:
    any cloud point componentwise below m already witnesses membership.
    Takes one target or a stack of them (see _membership_oracle)."""
    return _membership_oracle(system, cloud, budget, seed, "epi")


def identity_membership_oracle(system, cloud, budget=24, seed=0):
    """Oracle for membership in F itself.  Takes one target or a stack of
    them (see _membership_oracle)."""
    return _membership_oracle(system, cloud, budget, seed, "identity")


def _perspective(f):
    """t^2 f(y / t) over (y, t) in R^(n+1); for a quadratic, the form
    1/2 w^T M w with M = bordered_matrix(f)."""
    if isinstance(f, QuadraticFunction):
        return QuadraticFunction(bordered_matrix(f), np.zeros(f.n + 1), 0.0)
    return expr_mod.perspective(f)


def conical_membership_oracle(system, cloud, budget=24, seed=0):
    """Oracle for the cone R_+ F: the identity oracle of the perspective
    system z~(y, t) = t^2 z(y / t) over R^(n+1), on the cloud with its
    sources lifted to (x, 1).  As s z(x) = z~(sqrt(s) (x, 1)), z~ maps the
    w with t != 0 onto {s z(x) : s > 0}: one search and one derived seed
    per target, a margin in the units of m, and a member's x the lifted w.

    A quadratic's perspective is defined at t = 0 too: w = 0 gives the
    target 0 (the origin starts every search), and w = (u, 0) the
    recession images (1/2 u^T Q0 u, -1/2 u^T Q1 u, ...), which need not
    lie in R_+ F.  So an all-quadratic system's members are those of the
    closure of R_+ F, the closure in which Dines (1941) makes the cone
    convex at p <= 1, where `implication.gather_evidence` asks no oracle."""
    lifted = FunctionSystem(system.n + 1, _perspective(system.f0),
                            tuple(map(_perspective, system.constraints)))
    sources = np.hstack([cloud.sources, np.ones((cloud.size, 1))])
    return identity_membership_oracle(
        lifted, replace(cloud, sources=sources), budget, seed)


@dataclass
class ConvexityViolation:
    """A chord of the sampled set whose interior point fails membership."""

    z1: np.ndarray
    z2: np.ndarray
    t: float
    m: np.ndarray
    margin: float
    indices: tuple = (0, 0)


@dataclass
class FalsifyResult:
    violation: ConvexityViolation | None = None
    trials_run: int = 0
    skipped: str | None = None   # the theorem that makes the set convex

    @property
    def found(self):
        return self.violation is not None


_CHORD_TS = (0.25, 0.5, 0.75)
_ENDPOINT_RTOL = 1e-10


def _verify_endpoint(system, cloud, idx):
    z = system.image_point(cloud.sources[idx])
    ref = cloud.points[idx]
    scale = 1.0 + np.max(np.abs(ref))
    if np.max(np.abs(z - ref)) > _ENDPOINT_RTOL * scale:
        raise AssertionError(
            f"cloud point {idx} does not re-derive from its source"
        )


def _chord_draws(size, trials, seed):
    """(trial, j1, j2, t index) of every chord among trials 1..trials, in
    trial order, as arrays: the draws a trial-by-trial run makes with
    SplitMix64(seed).randint, j1 and j2 in [0, size) and then, unless
    j1 == j2, the index of t in _CHORD_TS.  They come from one batch of
    3 * trials outputs, enough as a trial draws at most three: trial k
    starts at output 3 (k - 1), less one for each earlier skip, a trial
    with j1 == j2 drawing two."""
    raw = SplitMix64(seed).u64s(3 * trials)
    idx = (raw % np.uint64(size)).astype(np.int64)
    first = 3 * np.arange(trials)
    skip = np.zeros(trials, dtype=bool)
    trial = 0
    while trial < trials:
        at = first[trial:]
        hits = (idx[at] == idx[at + 1]).nonzero()[0]
        if not hits.size:
            break
        trial += int(hits[0])
        skip[trial] = True
        first[trial + 1:] -= 1
        trial += 1
    at = first[~skip]
    return (np.flatnonzero(~skip) + 1, idx[at], idx[at + 1],
            (raw[at + 2] % np.uint64(3)).astype(np.int64))


def falsify_convexity(member, cloud, trials=500, seed=0, eta=1e-3,
                      system=None):
    """Chord test against a membership oracle.

    Each trial picks two cloud points and t in {0.25, 0.5, 0.75}; if the
    oracle cannot certify the combination within its budget and the
    residual margin exceeds eta, that chord is reported as a violation.
    Budget exhaustion without such a chord is a value (NoViolationFound),
    not an error.

    The chords of all trials are drawn and formed up front, as arrays
    (see _chord_draws), and go to the oracle in blocks of 1, 2, 4, ...
    trials: each block's chord points as one (k, p+1) stack, answered
    as a MembershipAnswers of k targets in order, whose first violation
    is found by index.  So `member` must answer a stack with arrays
    `member` and `margin` of k entries each, as a MembershipAnswers
    does; a list of MembershipResult is not read.  No draw depends on
    an answer, so the first violation in trial order is the one a
    trial-by-trial run reports, with the same `trials_run`, and no later
    block is asked.
    """
    trial_of, j1, j2, t_idx = _chord_draws(cloud.size, trials, seed)
    t = np.array(_CHORD_TS)[t_idx]
    M = (t[:, None] * cloud.points[j1]
         + (1.0 - t)[:, None] * cloud.points[j2])
    done, size, lo = 0, 1, 0
    while done < trials:
        done, size = min(trials, done + size), 2 * size
        hi = int(np.searchsorted(trial_of, done, side="right"))
        if hi == lo:
            continue
        answers = member(M[lo:hi])
        if len(answers) != hi - lo:
            raise ValueError(f"the oracle answered {len(answers)} of "
                             f"{hi - lo} targets")
        bad = np.flatnonzero(~answers.member & (answers.margin > eta))
        if bad.size:
            k = lo + int(bad[0])
            if system is not None:
                _verify_endpoint(system, cloud, j1[k])
                _verify_endpoint(system, cloud, j2[k])
            return FalsifyResult(
                violation=ConvexityViolation(
                    z1=cloud.points[j1[k]].copy(),
                    z2=cloud.points[j2[k]].copy(),
                    t=_CHORD_TS[t_idx[k]], m=M[k].copy(),
                    margin=float(answers.margin[bad[0]]),
                    indices=(int(j1[k]), int(j2[k])),
                ),
                trials_run=int(trial_of[k]),
            )
        lo = hi
    return FalsifyResult(trials_run=trials)


@dataclass
class ConjectureEntry:
    index: int
    seed: int
    coefficients: list               # (Q, c, d) per quadratic
    violation: ConvexityViolation | None
    trials_run: int


@dataclass
class ConjectureReport:
    """Scan for non-convex upper sets of random quadratic triples.

    A candidate entry is evidence only: the chord search may simply have
    failed to certify membership within its budget."""

    count: int
    dimension: int
    seed: int
    entries: list

    @property
    def candidates(self):
        return [e for e in self.entries if e.violation is not None]


def _random_quadratic(rng, n):
    vals = rng.uniforms(n * n + n + 1, -1.0, 1.0)
    raw = vals[: n * n].reshape(n, n)
    Q = raw + raw.T
    c = vals[n * n: n * n + n]
    d = vals[-1]
    return QuadraticFunction(Q, c, float(d))


def conjecture_scan(count, n, seed, budget=24, cloud_size=1024, trials=400):
    """Random triples (q1, q2, q3): is Im(q1, q2, q3) + R_+^3 convex?

    Each triple is encoded so the cloud holds (q1, q2, q3) directly, then
    the epi-membership chord falsifier (eta = 1e-3) runs against it on a
    cloud sampled from [-10, 10]^n."""
    if count < 1 or n < 2:
        raise ValueError("count must be >= 1 and dimension >= 2")
    entries = []
    for index in range(count):
        inst_seed = derive_seed(seed, index)
        rng = SplitMix64(inst_seed)
        triple = [_random_quadratic(rng, n) for _ in range(3)]
        q1, q2, q3 = triple
        # f0 = q1, f1 = -q2, f2 = -q3 makes z(x) = (q1, q2, q3)(x)
        system = FunctionSystem(
            n=n,
            f0=q1,
            constraints=(
                QuadraticFunction(-q2.Q, -q2.c, -q2.d),
                QuadraticFunction(-q3.Q, -q3.c, -q3.d),
            ),
        )
        cloud = sample_image(system, 10.0, cloud_size,
                             derive_seed(inst_seed, 1))
        oracle = epi_membership_oracle(system, cloud, budget=budget,
                                       seed=derive_seed(inst_seed, 2))
        result = falsify_convexity(oracle, cloud, trials=trials,
                                   seed=derive_seed(inst_seed, 3),
                                   system=system)
        entries.append(ConjectureEntry(
            index=index,
            seed=inst_seed,
            coefficients=[(q.Q.tolist(), q.c.tolist(), q.d) for q in triple],
            violation=result.violation,
            trials_run=result.trials_run,
        ))
    return ConjectureReport(count=count, dimension=n, seed=seed,
                            entries=entries)


def export_cloud(cloud, target):
    """Write the cloud as text: a header line (p, n, R, seed, N, skipped)
    then one point per line, z columns first, source columns after,
    space-separated.  `target` is a path or an open text stream."""
    is_path = isinstance(target, (str, bytes, os.PathLike))
    with (open(target, "w", encoding="utf-8") if is_path
          else nullcontext(target)) as handle:
        handle.write(
            f"# p={cloud.p} n={cloud.n} R={cloud.box_radius!r} "
            f"seed={cloud.seed} N={cloud.size} skipped={cloud.skipped}\n"
        )
        for z, x in zip(cloud.points, cloud.sources):
            cols = [repr(float(v)) for v in z] + [repr(float(v)) for v in x]
            handle.write(" ".join(cols) + "\n")


def load_cloud(path):
    """Inverse of export_cloud; a header without `skipped` reads 0."""
    with open(path, encoding="utf-8") as handle:
        header = handle.readline().strip()
        meta = dict(part.split("=") for part in header[1:].strip().split())
        p = int(meta["p"])
        n = int(meta["n"])
        rows = np.array([[float(v) for v in line.split()]
                         for line in handle if line.strip()])
    return ImageCloud(points=rows[:, : p + 1], sources=rows[:, p + 1:],
                      box_radius=float(meta["R"]), seed=int(meta["seed"]),
                      skipped=int(meta.get("skipped", 0)))
