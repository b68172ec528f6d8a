"""Image-set geometry: the cone K, sampled image clouds, hull intersection
tests, separator extraction, and convexity falsifiers.

K = {z in R^(p+1) : z_0 < 0 and z_i <= 0 for i >= 1} carries the
counterexample statement: z(x) lands in K exactly when all constraints hold
at x while f0(x) < 0.  Finite clouds stand in for the true image set, so
every "disjoint" finding here is sample-level only; reports always carry
N, R and the seed that scope the claim.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError
from .linprog import INFEASIBLE, OPTIMAL, LinearProgram, solve_lp
from .quadratic import QuadraticFunction
from .rng import SplitMix64, derive_seed
from .search import descend
from .systems import FunctionSystem

MEMBER_TOL = 1e-7
_CONE_SCALES = np.logspace(-3.0, 3.0, 25)


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


def cloud_k_members(cloud, strict_tol=0.0):
    """Indices of cloud points lying in K."""
    Z = cloud.points
    ok = (Z[:, 0] < -strict_tol) & np.all(Z[:, 1:] <= strict_tol, axis=1)
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
    are seen first."""
    order = np.argsort(np.sum(Z, axis=1), kind="stable")
    kept = []
    for idx in order:
        z = Z[idx]
        dominated = False
        for j in kept:
            if np.all(Z[j] <= z):
                dominated = True
                break
        if not dominated:
            kept.append(int(idx))
    return np.array(sorted(kept), dtype=int)


def hull_intersects_k(cloud, tol=1e-9):
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
        lower=np.zeros(count),
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


@dataclass
class SeparatorResult:
    separator: Separator | None = None
    witness: HullResult | None = None

    @property
    def found(self):
        return self.separator is not None


def extract_separator(cloud, tol=1e-9):
    """Best nonnegative separator of the cloud from K.

    Maximizes delta subject to <alpha, z_j> >= delta for every cloud point,
    alpha >= 0 componentwise and sum(alpha) = 1.  A separator exists when
    the optimum is >= -tol; otherwise the hull witness is returned.
    """
    Z = cloud.points[cloud.frontier]
    count, dim = Z.shape
    # variables (alpha_0..alpha_p, delta); minimize -delta
    c = np.zeros(dim + 1)
    c[-1] = -1.0
    a_ub = np.hstack([-Z, np.ones((count, 1))])
    lower = np.concatenate([np.zeros(dim), [-np.inf]])
    lp = LinearProgram(
        c=c,
        a_ub=a_ub,
        b_ub=np.zeros(count),
        a_eq=np.concatenate([np.ones(dim), [0.0]])[None, :],
        b_eq=np.ones(1),
        lower=lower,
    )
    out = solve_lp(lp)
    if out.status != OPTIMAL:  # alpha-simplex is compact, delta is bounded
        raise RuntimeError(f"unexpected LP status {out.status}")
    alpha = np.maximum(out.y[:-1], 0.0)
    alpha /= np.sum(alpha)
    delta = float(out.y[-1])
    if delta >= -tol:
        return SeparatorResult(separator=Separator(alpha=alpha, delta=delta))
    return SeparatorResult(witness=hull_intersects_k(cloud, tol))


@dataclass
class MembershipResult:
    member: bool
    x: np.ndarray | None = None
    margin: float = 0.0     # best achieved shortfall (0 when member)


def _residuals(system, X, m, mode):
    Z = system.image_batch(X)
    Z = np.where(np.isfinite(Z), Z, np.inf)
    R = Z - m[None, :]
    if mode == "epi":
        R = np.maximum(R, 0.0)
    return R


def _gauss_newton_polish(system, x, m, mode, iters=8, h=1e-6):
    """Squeeze the residual system z(x) - m (hinged for epi mode) with
    damped Gauss-Newton steps; descent alone crawls along curved valleys
    and stalls orders of magnitude above the membership tolerance."""
    x = np.array(x, dtype=float)
    dim = x.shape[0]
    best_x = x.copy()
    best = float(np.max(np.abs(_residuals(system, x[None, :], m, mode))))
    for _ in range(iters):
        probes = np.vstack([x[None, :],
                            x[None, :] + h * np.eye(dim),
                            x[None, :] - h * np.eye(dim)])
        R = _residuals(system, probes, m, mode)
        if not np.all(np.isfinite(R[0])):
            break
        J = (R[1:dim + 1] - R[dim + 1:]).T / (2.0 * h)
        r = R[0]
        try:
            step, *_ = np.linalg.lstsq(J, -r, rcond=None)
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(step)):
            break
        moved = False
        for damping in (1.0, 0.5, 0.25):
            trial = x + damping * step
            tr = _residuals(system, trial[None, :], m, mode)
            val = float(np.max(np.abs(tr)))
            if np.isfinite(val) and val < best:
                best = val
                best_x = trial.copy()
                x = trial
                moved = True
                break
        if not moved or best <= 1e-14:
            break
    return best_x


def _member_search(system, m, budget, seed, mode, starts=None):
    """Search for x whose image matches/dominates m.

    mode "epi": want z(x) <= m componentwise (+ tolerance); shortfall is
    max_i (z_i - m_i).  mode "identity": want z(x) == m; shortfall is
    max_i |z_i - m_i|.
    """
    m = np.asarray(m, dtype=float)

    def shortfall(Z):
        if mode == "epi":
            return np.max(Z - m[None, :], axis=1)
        return np.max(np.abs(Z - m[None, :]), axis=1)

    def loss(X):
        Z = system.image_batch(X)
        Z = np.where(np.isfinite(Z), Z, np.inf)
        if mode == "epi":
            h = np.maximum(Z - m[None, :], 0.0)
        else:
            h = Z - m[None, :]
        return np.sum(h * h, axis=1)

    rng = SplitMix64(seed)
    restarts = max(4, int(budget))
    blocks = []
    if starts is not None and len(starts):
        blocks.append(np.atleast_2d(np.asarray(starts, dtype=float)))
    blocks.append(np.zeros((1, system.n)))
    radii = [1.0, 5.0, 20.0, 80.0]
    for i in range(restarts):
        r = radii[i % len(radii)]
        blocks.append(rng.uniform_box(r, system.n, 1))
    X0 = np.vstack(blocks)
    X, _ = descend(loss, X0, steps=90)
    polished = [_gauss_newton_polish(system, X[i], m, mode)
                for i in range(min(3, X.shape[0]))]
    X = np.vstack([np.array(polished), X])
    Z = system.image_batch(X)
    Z = np.where(np.isfinite(Z), Z, np.inf)
    gaps = shortfall(Z)
    best = int(np.argmin(gaps))
    margin = float(gaps[best])
    if margin <= MEMBER_TOL:
        return MembershipResult(member=True, x=X[best], margin=margin)
    return MembershipResult(member=False, x=None, margin=margin)


def epi_member(system, m, budget=24, seed=0):
    """Is m in the epi-image Im(f0, -f1, ..., -fp) + R_+^(p+1)?

    Random restarts plus finite-difference descent on the squared hinge
    sum_i max(0, z_i(x) - m_i)^2; membership means z(x) <= m + 1e-7."""
    return _member_search(system, m, budget, seed, "epi")


def _dominating_starts(cloud, m, mode, keep=6):
    Z = cloud.points
    if mode == "epi":
        gaps = np.max(Z - m[None, :], axis=1)
    else:
        gaps = np.max(np.abs(Z - m[None, :]), axis=1)
    order = np.argsort(gaps, kind="stable")[:keep]
    return cloud.sources[order], float(gaps[order[0]])


def epi_membership_oracle(system, cloud, budget=24, seed=0):
    """Oracle for the upper set F + R_+^(p+1), with a cloud fast path:
    any cloud point componentwise below m already witnesses membership."""
    state = {"calls": 0}

    def oracle(m):
        state["calls"] += 1
        m_arr = np.asarray(m, dtype=float)
        starts, best_gap = _dominating_starts(cloud, m_arr, "epi")
        if best_gap <= MEMBER_TOL:
            idx = int(np.argmax(np.all(
                cloud.points <= m_arr[None, :] + MEMBER_TOL, axis=1)))
            return MembershipResult(member=True, x=cloud.sources[idx],
                                    margin=float(max(best_gap, 0.0)))
        call_seed = derive_seed(seed, state["calls"])
        return _member_search(system, m_arr, budget, call_seed, "epi",
                              starts=starts)

    return oracle


def identity_membership_oracle(system, cloud, budget=24, seed=0):
    """Oracle for membership in F itself."""
    state = {"calls": 0}

    def oracle(m):
        state["calls"] += 1
        m_arr = np.asarray(m, dtype=float)
        starts, _ = _dominating_starts(cloud, m_arr, "identity")
        call_seed = derive_seed(seed, state["calls"])
        return _member_search(system, m_arr, budget, call_seed, "identity",
                              starts=starts)

    return oracle


def conical_membership_oracle(system, cloud, budget=24, seed=0):
    """Oracle for the cone R_+ F: try m/s for s on a log grid in
    [1e-3, 1e3] against F itself.  Shortfalls are rescaled by s so margins
    are comparable in the units of m."""
    inner = identity_membership_oracle(system, cloud, budget, seed)

    def oracle(m):
        m_arr = np.asarray(m, dtype=float)
        if np.max(np.abs(m_arr)) <= MEMBER_TOL:
            # 0 is in R_+ F via the scale s = 0
            return MembershipResult(member=True, x=None, margin=0.0)
        best = None
        for s in _CONE_SCALES:
            res = inner(m_arr / s)
            margin = res.margin * s
            if res.member:
                return MembershipResult(member=True, x=res.x, margin=margin)
            if best is None or margin < best:
                best = margin
        return MembershipResult(member=False, x=None, margin=float(best))

    return oracle


@dataclass
class ConvexityViolation:
    """A chord of the sampled set whose interior point fails membership."""

    z1: np.ndarray
    z2: np.ndarray
    t: float
    m: np.ndarray
    search_budget: int
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


def falsify_convexity(member, cloud, trials=500, seed=0, eta=1e-3,
                      system=None, budget=24):
    """Chord test against a membership oracle.

    Each trial picks two cloud points and t in {0.25, 0.5, 0.75}; if the
    oracle cannot certify the combination within its budget and the
    residual margin exceeds eta, that chord is reported as a violation.
    Budget exhaustion without such a chord is a value (NoViolationFound),
    not an error.
    """
    rng = SplitMix64(seed)
    count = cloud.size
    for trial in range(1, trials + 1):
        j1 = rng.randint(count)
        j2 = rng.randint(count)
        if j1 == j2:
            continue
        t = _CHORD_TS[rng.randint(3)]
        z1 = cloud.points[j1]
        z2 = cloud.points[j2]
        m = t * z1 + (1.0 - t) * z2
        res = member(m)
        if not res.member and res.margin > eta:
            if system is not None:
                _verify_endpoint(system, cloud, j1)
                _verify_endpoint(system, cloud, j2)
            return FalsifyResult(
                violation=ConvexityViolation(
                    z1=z1.copy(), z2=z2.copy(), t=t, m=m,
                    search_budget=budget, margin=res.margin,
                    indices=(int(j1), int(j2)),
                ),
                trials_run=trial,
            )
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


def conjecture_scan(count, n, seed, budget=24, cloud_size=1024, radius=10.0,
                    trials=400, eta=1e-3):
    """Random triples (q1, q2, q3): is Im(q1, q2, q3) + R_+^3 convex?

    Each triple is encoded so the cloud holds (q1, q2, q3) directly, then
    the epi-membership chord falsifier runs against it."""
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
        cloud = sample_image(system, radius, cloud_size,
                             derive_seed(inst_seed, 1))
        oracle = epi_membership_oracle(system, cloud, budget=budget,
                                       seed=derive_seed(inst_seed, 2))
        result = falsify_convexity(oracle, cloud, trials=trials,
                                   seed=derive_seed(inst_seed, 3), eta=eta,
                                   system=system, budget=budget)
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
    """Write the cloud as text: a header line then one point per line,
    z columns first, source columns after, space-separated."""
    close = False
    if isinstance(target, (str, bytes)):
        handle = open(target, "w", encoding="utf-8")
        close = True
    else:
        handle = target
    try:
        handle.write(
            f"# p={cloud.p} n={cloud.n} R={cloud.box_radius!r} "
            f"seed={cloud.seed} N={cloud.size}\n"
        )
        for z, x in zip(cloud.points, cloud.sources):
            cols = [repr(float(v)) for v in z] + [repr(float(v)) for v in x]
            handle.write(" ".join(cols) + "\n")
    finally:
        if close:
            handle.close()


def load_cloud(path):
    """Inverse of export_cloud (used by tests and external tooling)."""
    with open(path, encoding="utf-8") as handle:
        header = handle.readline().strip()
        meta = dict(part.split("=") for part in header[1:].strip().split())
        p = int(meta["p"])
        n = int(meta["n"])
        rows = np.array([[float(v) for v in line.split()]
                         for line in handle if line.strip()])
    return ImageCloud(points=rows[:, : p + 1], sources=rows[:, p + 1:],
                      box_radius=float(meta["R"]), seed=int(meta["seed"]))
