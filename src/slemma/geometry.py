"""Image-set geometry: the cone K, sampled image clouds, hull intersection
tests, separator extraction, and convexity falsifiers.

K = {z in R^(p+1) : z_0 < 0 and z_i <= 0 for i >= 1} carries the
counterexample statement: z(x) lands in K exactly when all constraints hold
at x while f0(x) < 0.  Finite clouds stand in for the true image set, so
every "disjoint" finding here is sample-level only; reports always carry
N, R and the seed that scope the claim.
"""

import os
from contextlib import nullcontext, suppress
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError
from .linprog import INFEASIBLE, OPTIMAL, LinearProgram, solve_lp
from .quadratic import PSD_RTOL, QuadraticFunction
from .rng import SplitMix64, derive_seed
from .search import all_finite, descend
from .systems import FunctionSystem

MEMBER_TOL = 1e-7
# a member search's loss sum_i r_i^2 at or below this proves its target a
# member: then every |r_i| <= MEMBER_TOL/2 (1 + u), as fl(r_i^2) <= loss
_MEMBER_LOSS = (MEMBER_TOL / 2) ** 2
_CONE_SCALES = np.logspace(-3.0, 3.0, 25)
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
        """Indices of the componentwise-minimal points, computed once; the
        hull and separator programs both run on this subset."""
        return _pareto_minimal(self.points)

    def extended(self, new_points, new_sources):
        return ImageCloud(
            points=np.vstack([self.points, np.atleast_2d(new_points)]),
            sources=np.vstack([self.sources, np.atleast_2d(new_sources)]),
            box_radius=self.box_radius,
            seed=self.seed,
            skipped=self.skipped,
        )


def sample_image(system, radius, count, seed):
    """Cloud of `count` image points from inputs uniform in [-R, R]^n.

    Out-of-domain points (non-finite values) are skipped and resampled;
    more than 50% skips aborts with DomainError.
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


@dataclass
class HullResult:
    intersects: bool
    weights: np.ndarray | None = None   # convex combination over cloud points
    witness: np.ndarray | None = None   # the combination, a point of K
    optimum: float | None = None        # minimized first coordinate


def _pareto_minimal(Z):
    """Indices of componentwise-minimal points.

    Both hull programs below minimize over nonnegative directions, so a
    point dominated componentwise by another can be dropped exactly: the
    dominating point does at least as well in every constraint and in the
    objective.  Processing in coordinate-sum order guarantees dominators
    are seen first: a point is dropped iff an earlier point in (sum, index)
    order weakly dominates it, which, as dominance is transitive, is iff
    an earlier kept point does.  The points go in blocks, each tested
    against the points kept before it and then against its own earlier
    points."""
    order = np.argsort(np.sum(Z, axis=1), kind="stable")
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


def hull_intersects_k(cloud, tol=PSD_RTOL):
    """Does the convex hull of the cloud meet K?

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
        return HullResult(intersects=False)
    if out.status != OPTIMAL:  # the simplex is compact; this cannot happen
        raise RuntimeError(f"unexpected LP status {out.status}")
    if out.objective < -tol:
        weights = np.zeros(cloud.size)
        weights[frontier] = out.y
        witness = out.y @ Zf
        return HullResult(intersects=True, weights=weights, witness=witness,
                          optimum=out.objective)
    return HullResult(intersects=False, optimum=out.objective)


@dataclass
class Separator:
    """Nonnegative normalized direction with <alpha, z> >= delta on the cloud."""

    alpha: np.ndarray
    delta: float


def extract_separator(cloud, tol=PSD_RTOL):
    """Best nonnegative separator of the cloud from K.

    Maximizes delta subject to <alpha, z_j> >= delta for every cloud point,
    alpha >= 0 componentwise and sum(alpha) = 1.  Returns the Separator
    when the optimum is >= -tol, else None (the hull then meets K; ask
    `hull_intersects_k` for a witness).
    """
    Z = cloud.points[cloud.frontier]
    count, dim = Z.shape
    # variables (alpha_0..alpha_p, delta); minimize -delta
    c = np.zeros(dim + 1)
    c[-1] = -1.0
    a_ub = np.hstack([-Z, np.ones((count, 1))])
    lp = LinearProgram(
        c=c,
        a_ub=a_ub,
        b_ub=np.zeros(count),
        a_eq=np.concatenate([np.ones(dim), [0.0]])[None, :],
        b_eq=np.ones(1),
        free=[dim],
    )
    out = solve_lp(lp)
    if out.status != OPTIMAL:  # alpha-simplex is compact, delta is bounded
        raise RuntimeError(f"unexpected LP status {out.status}")
    alpha = np.maximum(out.y[:-1], 0.0)
    alpha /= np.sum(alpha)
    delta = float(out.y[-1])
    return Separator(alpha=alpha, delta=delta) if delta >= -tol else None


@dataclass
class MembershipResult:
    member: bool
    x: np.ndarray | None = None
    margin: float = 0.0     # least shortfall found, clamped at 0 for a member


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
    SplitMix64(seeds[j]) stream.  All targets share one grouped descent
    and one polish, so each of the k MembershipResults returned equals a
    search on that target alone.

    The descent retires a target as soon as one of its rows has loss
    sum_i r_i^2 <= _MEMBER_LOSS, and a retired target skips the polish:
    that row's image is within MEMBER_TOL of the target, so the target is
    a member whatever the rest of the budget would give.  A target that
    never retires gets the full step budget and the polish, so a
    non-member's margin is the one a search without retirement finds.
    Membership is read, for every target, from the image_batch shortfall
    of its best row, <= MEMBER_TOL.
    """
    M = np.atleast_2d(np.asarray(M, dtype=float))
    k, n = M.shape[0], system.n
    restarts = max(4, int(budget))
    radii = np.resize([1.0, 5.0, 20.0, 80.0], restarts)[:, None]
    U = np.array([SplitMix64(seed).uniforms(restarts * n) for seed in seeds])
    blocks = [np.zeros((k, 1, n)),
              -radii + 2.0 * radii * U.reshape(k, restarts, n)]
    if starts is not None:
        blocks.insert(0, np.asarray(starts, dtype=float).reshape(k, -1, n))
    X0 = np.concatenate(blocks, axis=1)
    size = X0.shape[1]

    def loss(X, g):
        # sum_i r_i^2, whose gradient is 2 sum_i r_i grad r_i
        R, J = _residuals(system, X, M[g], mode, jacobians=True)
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
    X[live, :3] = _gauss_newton_polish(
        system, X[live, :3].reshape(-1, n), np.repeat(M[live], 3, axis=0),
        mode).reshape(-1, 3, n)
    Z = system.image_batch(X.reshape(-1, n)).reshape(k, size + 3, -1)
    gaps = _shortfalls(np.where(np.isfinite(Z), Z, np.inf), M[:, None], mode)
    results = []
    for j, best in enumerate(np.argmin(gaps, axis=1)):
        margin = float(gaps[j, best])
        member = margin <= MEMBER_TOL
        results.append(MembershipResult(member, X[j, best] if member else None,
                                        max(margin, 0.0) if member
                                        else margin))
    return results


def epi_member(system, m, budget=24, seed=0):
    """Is m in the epi-image Im(f0, -f1, ..., -fp) + R_+^(p+1)?

    Random restarts plus gradient descent on the squared hinge
    sum_i max(0, z_i(x) - m_i)^2; membership means z(x) <= m + 1e-7."""
    return _member_search(system, m, budget, [seed], "epi")[0]


def _membership_oracle(system, cloud, budget, seed, mode):
    """Shared body of the epi and identity oracles.  The oracle takes one
    target m, or a (k, p+1) stack answered as k calls in order: call c
    (counted from 1) searches with the seed derive_seed(seed, c), starting
    from the six cloud points of least shortfall.  In epi mode a cloud
    point below m answers without a search: the first source whose point
    is <= m + MEMBER_TOL in every coordinate, with the margin
    max(least shortfall, 0).  The rest share one search.  Shortfalls are
    taken _ORACLE_CHUNK targets at a time and answered as arrays, so a
    large stack never holds more than two (_ORACLE_CHUNK, N) buffers."""
    calls = 0

    def oracle(m):
        nonlocal calls
        m_arr = np.asarray(m, dtype=float)
        M = np.atleast_2d(m_arr)
        first = calls + 1
        calls += len(M)
        results = [None] * len(M)
        slow, nearest = [], []
        for lo in range(0, len(M), _ORACLE_CHUNK):
            chunk = M[lo:lo + _ORACLE_CHUNK]
            gaps = _shortfalls(cloud.points[None], chunk[:, None], mode)
            best = gaps.min(axis=1)
            fast = (best <= MEMBER_TOL if mode == "epi"
                    else np.zeros(len(chunk), dtype=bool))
            if fast.any():
                rows = fast.nonzero()[0]
                inside = _weakly_below(cloud.points,
                                       chunk[rows] + MEMBER_TOL)
                for j, i in zip(rows, inside.argmax(axis=0)):
                    results[lo + j] = MembershipResult(
                        member=True, x=cloud.sources[i],
                        margin=float(max(best[j], 0.0)))
                gaps = gaps[~fast]
            slow.extend((lo + (~fast).nonzero()[0]).tolist())
            # copied, so the rows' full argsort is not kept alive
            nearest.append(
                np.argsort(gaps, axis=1, kind="stable")[:, :6].copy())
            del gaps      # free this chunk before the next is built
        if slow:
            seeds = [derive_seed(seed, first + j) for j in slow]
            found = _member_search(system, M[slow], budget, seeds, mode,
                                   starts=cloud.sources[np.vstack(nearest)])
            for j, res in zip(slow, found):
                results[j] = res
        return results if m_arr.ndim > 1 else results[0]

    return oracle


def epi_membership_oracle(system, cloud, budget=24, seed=0):
    """Oracle for the upper set F + R_+^(p+1), with a cloud fast path:
    any cloud point componentwise below m already witnesses membership.
    Takes one target or a stack of them (see _membership_oracle)."""
    return _membership_oracle(system, cloud, budget, seed, "epi")


def identity_membership_oracle(system, cloud, budget=24, seed=0):
    """Oracle for membership in F itself.  Takes one target or a stack of
    them (see _membership_oracle)."""
    return _membership_oracle(system, cloud, budget, seed, "identity")


def conical_membership_oracle(system, cloud, budget=24, seed=0):
    """Oracle for the cone R_+ F: try m/s for s on a log grid in
    [1e-3, 1e3] against F itself.  Shortfalls are rescaled by s so margins
    are comparable in the units of m.

    Each non-zero target asks the inner identity oracle one stack of all
    25 scales, and so takes its next 25 derived seeds; the first member in
    scale order answers.  A stack of targets is answered lazily, one
    target at a time as the caller reads the answers, so one 25-row search
    is held at a time and a caller that stops reading (the falsifier, at
    its first violation) skips the searches of the targets after it."""
    inner = identity_membership_oracle(system, cloud, budget, seed)

    def answer(m):
        if np.max(np.abs(m)) <= MEMBER_TOL:
            # 0 is in R_+ F via the scale s = 0
            return MembershipResult(member=True, x=None, margin=0.0)
        results = inner(m[None, :] / _CONE_SCALES[:, None])
        margins = [res.margin * s for res, s in zip(results, _CONE_SCALES)]
        for res, margin in zip(results, margins):
            if res.member:
                return MembershipResult(True, res.x, margin)
        return MembershipResult(False, None, float(min(margins)))

    def oracle(m):
        m_arr = np.asarray(m, dtype=float)
        return answer(m_arr) if m_arr.ndim == 1 else map(answer, m_arr)

    return oracle


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
    with an iterable read in order.  No draw depends on an answer, so the
    first violation in trial order is the one a trial-by-trial run
    reports, with the same `trials_run`; reading stops there, so an
    oracle that answers lazily skips the rest of the block.
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
        for k, res in zip(range(lo, hi), member(M[lo:hi]), strict=True):
            if not res.member and res.margin > eta:
                if system is not None:
                    _verify_endpoint(system, cloud, j1[k])
                    _verify_endpoint(system, cloud, j2[k])
                return FalsifyResult(
                    violation=ConvexityViolation(
                        z1=cloud.points[j1[k]].copy(),
                        z2=cloud.points[j2[k]].copy(),
                        t=_CHORD_TS[t_idx[k]], m=M[k].copy(),
                        margin=res.margin,
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
