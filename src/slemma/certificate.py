"""Multiplier certificates: search and verification.

A certificate for (f0; f1..fp) is alpha >= 0 with f0 - sum_i alpha_i f_i
nonnegative everywhere.  For all-quadratic systems that is equivalent to
positive semidefiniteness of M(alpha) = M0 - sum_i alpha_i M_i, the
bordered matrix of the combined quadratic, so verification is an
eigenvalue test, and a pass by its tolerance is refuted in exact
rationals where the eigenvector shows a violation; for
expression systems only sampled verification is available.  Both are
`check_multipliers`, which every search and command uses to label a
certificate.
"""

from dataclasses import dataclass

import numpy as np

from . import exact
from .errors import DimensionMismatch, NumericalBreakdown, SlemmaError
from .geometry import HullResult, hull_intersects_k
from .linprog import (_MAX_ITERS, _PIVOT_MIN, _TOL, INFEASIBLE,
                      ITERATION_LIMIT, OPTIMAL, row_scales)
from .quadratic import PSD_RTOL, bordered_matrix, min_eigenvalue
from .rng import derive_seed
from .search import sample_and_descend

EXACT_PSD = "ExactPSD"
SAMPLED_ONLY = "SampledOnly"
FAILED = "Failed"

SAMPLED_FLOOR = -1e-6
SLATER_ALPHA0_MIN = 1e-8
REFINE_ROUNDS = 3
ALPHA_MAX = 1e4       # the cutting planes search [0, ALPHA_MAX]^p
P1_NEAR_MAX = 0.99    # a p = 1 certificate is within 1% of the upper bound


class NegativeMultiplier(SlemmaError):
    """A multiplier vector with a negative or non-finite entry."""


def _multipliers(alpha):
    alpha = np.asarray(alpha, dtype=float).ravel()
    if not all(0.0 <= a < np.inf for a in alpha.tolist()):   # NaN fails too
        raise NegativeMultiplier(
            f"alpha must be finite and nonnegative: {alpha}")
    return alpha


def _check_alpha(system, alpha):
    alpha = np.asarray(alpha, dtype=float).ravel()
    if alpha.shape != (system.p,):
        raise DimensionMismatch(
            f"alpha has length {alpha.shape[0]}, system has p={system.p}"
        )
    return _multipliers(alpha)


@np.errstate(over="ignore", invalid="ignore")
def combined_matrix(system, alpha):
    """M(alpha) = M0 - sum_i alpha_i M_i over the bordered matrices; an
    entry that overflows is inf or NaN, with no warning, and eigen_sym
    rejects it."""
    return _combine(bordered_matrix(system.f0),
                    [bordered_matrix(f) for f in system.constraints], alpha)


def _combine(M0, borders, alpha):
    M = M0
    for a, B in zip(alpha, borders):
        M = M - a * B
    return M


@dataclass
class MultiplierCheck:
    """The outcome of checking one multiplier vector alpha; a `valid`
    check is the certificate.

    `label` names the check that ran: EXACT_PSD on an all-quadratic system,
    SAMPLED_ONLY otherwise.  A failing check carries a `violating_x` where
    f0 - sum_i alpha_i f_i < 0 or, when the exact check's eigenvector has
    no finite lift, a homogeneous `direction` along which that combination
    diverges to -infinity."""

    alpha: np.ndarray
    label: str
    valid: bool = False
    lambda_min: float | None = None    # exact: smallest eigenvalue of M(alpha)
    threshold: float | None = None     # exact: least lambda_min that passes
    value: float | None = None         # sampled: refined minimum found
    violating_x: np.ndarray | None = None
    direction: np.ndarray | None = None


def check_multipliers(system, alpha, tol=PSD_RTOL, radius=10.0, samples=4096,
                      seed=0, eigenpair=None):
    """The one check of alpha >= 0 against f0 - sum_i alpha_i f_i >= 0, and
    the only place the PSD rule is applied or a certificate is labelled.

    All-quadratic systems: alpha passes when lambda_min(M(alpha)) >=
    -tol * (1 + max|M(alpha)|), an ExactPSD certificate, unless
    lambda_min < 0 and the minimum eigenvector's lift is a violation in
    exact rationals (`exact.combination`): g(x) = f0(x) - sum_i alpha_i
    f_i(x) < 0 at the point, or d^T (Q0 - sum_i alpha_i Q_i) d < 0 along
    the direction.  The lift is the eigenvector dehomogenized into a point
    when its last coordinate allows, and otherwise its leading n
    components as a direction; a failing check carries it.  `eigenpair` =
    (M(alpha), lambda_min, eigenvector) reuses a decomposition the caller
    already made.

    Other systems: the combination is minimized over [-radius, radius]^n
    from `samples` points (stream `seed`) plus descent from the 10 smallest;
    a refined value below -1e-6 is a violation, anything else a SampledOnly
    certificate."""
    alpha = _check_alpha(system, alpha)
    if not system.is_quadratic:
        weights = np.concatenate([[1.0], -alpha])

        def values(X):
            return system.values_batch(X) @ weights

        def loss(X):
            vals, grads = system.values_and_gradients(X)
            return vals @ weights, np.einsum("ijk,j->ik", grads, weights)

        X, vals = sample_and_descend(values, loss, system.n, radius, samples,
                                     seed)
        check = MultiplierCheck(alpha, SAMPLED_ONLY, value=float(vals[0]))
        check.valid = check.value >= SAMPLED_FLOOR
        if not check.valid:
            check.violating_x = X[0]
        return check
    if eigenpair is None:
        M = combined_matrix(system, alpha)
        lam, v = min_eigenvalue(M)
    else:
        M, lam, v = eigenpair
    check = MultiplierCheck(alpha, EXACT_PSD, lambda_min=lam,
                            threshold=-tol * (1.0 + np.max(np.abs(M))))
    check.valid = bool(lam >= check.threshold)
    if check.valid and lam >= 0.0:
        return check
    if abs(v[-1]) >= 1e-8:
        check.violating_x = v[:-1] / v[-1]
    else:
        check.direction = v[:-1]
    if check.valid:
        # passed by tolerance: refuted when the lift violates exactly
        point = check.violating_x is not None
        g = exact.combination(system.functions, [1.0, *(-alpha).tolist()],
                              check.violating_x if point else check.direction,
                              homogeneous=not point)
        check.valid = g >= 0
        if check.valid:
            check.violating_x = check.direction = None
    return check


@dataclass
class SearchResult:
    check: MultiplierCheck | None = None  # the best (or last) alpha's check
    outcome: str = ""          # extra detail for the separation pipeline
    alpha0: float | None = None
    witness: object = None     # Farkas route: the alternative x
    rounds: int = 0
    separation: HullResult | None = None  # separation route: round 0's LP
    upper_bound: float | None = None  # cutting planes: bound on max g

    @property
    def certificate(self):
        return self.check if self.found else None

    @property
    def best_alpha(self):
        return None if self.check is None else self.check.alpha

    @property
    def best_lambda_min(self):
        return None if self.check is None else self.check.lambda_min

    @property
    def found(self):
        return self.check is not None and self.check.valid


@np.errstate(over="ignore", invalid="ignore")
def find_certificate_general(system, iters=2000, seed=0, tol=PSD_RTOL):
    """Kelley's cutting-plane maximization of the concave g(alpha) =
    lambda_min(M(alpha)) over the box [0, ALPHA_MAX]^p.

    Each iterate costs one eigen_sym call, and its eigenpair (lam, v)
    gives the cut g(a) <= lam + s.(a - alpha) with s_i = -v^T M_i v.  The
    next iterate maximizes the cuts' minimum over the box, the master LP in
    (alpha, t), which one `_ActiveSet` holds for the whole search: its
    rows are alpha_i >= 0, alpha_i <= ALPHA_MAX and the cuts, the first
    cut's optimum (t on the cut, alpha_i = ALPHA_MAX where s_i > 0 and 0
    elsewhere) is its starting active set, and each later cut is one
    appended row that `reoptimize` re-optimizes, usually in one exchange.
    The cuts' slopes, points and values are kept in preallocated tables,
    and one cut row is refilled in place.  The cuts' minimum at the new
    iterate, evaluated from the cuts rather than read from the master, is
    the LP value and an upper bound on max g.  The search stops at a
    certificate, at an upper bound below -tol * S with S = 1 + max|M0| +
    ALPHA_MAX * sum_i max|M_i| >= 1 + max|M(alpha)| on the box (so no
    alpha <= ALPHA_MAX passes; outcome NO_CERTIFICATE), when the bound
    meets the best value, or after `iters` eigen calls.  The first
    passing iterate is the certificate.  Each improving iterate is checked
    by check_multipliers on the eigenpair already computed, and the result
    carries the best iterate's check.  The classifier runs this search at
    p >= 2; a p = 1 system has `find_certificate_p1`.
    A master that finds no leaving row, hits its exchange cap or meets a
    pivot below linprog's pivot floor raises NumericalBreakdown, and so
    does eigen_sym on an M(alpha) that overflowed: the search computes
    with numpy's overflow and invalid warnings off, so such a value
    reaches eigen_sym as inf or NaN.  `seed` is accepted for interface
    stability; the search is deterministic."""
    if not system.is_quadratic:
        raise DimensionMismatch("cutting-plane search needs an all-quadratic system")
    if system.p < 1:
        raise DimensionMismatch("cutting-plane search needs p >= 1")
    p = system.p
    M0 = bordered_matrix(system.f0)
    borders = [bordered_matrix(f) for f in system.constraints]
    bound_scale = 1.0 + abs(M0).max() + \
        ALPHA_MAX * sum(abs(B).max() for B in borders)
    # variables (alpha, t): maximize t under 0 <= alpha_i <= ALPHA_MAX and
    # the cuts; row i is alpha_i >= 0, row p + i is alpha_i <= ALPHA_MAX
    master = _ActiveSet(p + 1, 2 * p + iters)
    eye = np.eye(p + 1)
    for i in range(p):
        master.add_row(-eye[i], 0.0)
    for i in range(p):
        master.add_row(eye[i], ALPHA_MAX)
    cut = eye[p]          # (-s, 1), refilled for each cut
    # cut k: g(a) <= lams[k] + slopes[k].(a - points[k])
    lams = np.empty(iters)
    slopes = np.empty((iters, p))
    points = np.empty((iters, p))
    alpha = np.zeros(p)
    best = None
    best_lam = -np.inf
    upper_bound = None
    outcome = ""
    for k in range(iters):
        M = _combine(M0, borders, alpha)
        lam, v = min_eigenvalue(M)
        if best is None or lam > best_lam:
            best = check_multipliers(system, alpha, tol, eigenpair=(M, lam, v))
            best_lam, gap = lam, -best.threshold
            if best.valid:
                break
        s = slopes[k]
        for i, B in enumerate(borders):
            s[i] = -(v @ B @ v)
        lams[k], points[k] = lam, alpha
        # t - s.a <= lam - s.alpha
        np.negative(s, out=cut[:p])
        row = master.add_row(cut, lam - s @ alpha)
        if row == 2 * p:
            master.start([p + i if s[i] > 0 else i for i in range(p)]
                         + [row])
        status = master.reoptimize()
        if status != OPTIMAL:
            raise NumericalBreakdown(f"certificate master LP: {status}")
        alpha = master.y[:p].clip(0.0, ALPHA_MAX)
        # the vertex's t comes from an inverse updated once per exchange,
        # which can leave it ulps under the best lambda_min; a cut
        # evaluated at its own point gives back its lam exactly
        upper_bound = float((lams[:k + 1] + np.einsum(
            "ij,ij->i", slopes[:k + 1], alpha - points[:k + 1])).min())
        if upper_bound < -tol * bound_scale:
            outcome = NO_CERTIFICATE
            break
        if upper_bound - best_lam <= gap:
            break
    return SearchResult(check=best, upper_bound=upper_bound, outcome=outcome)


class _ActiveSet:
    """max t, the last coordinate of y in R^m, subject to rows g.y <= h
    appended one at a time, by the dual simplex on an active set: m rows W
    whose matrix B is nonsingular, its inverse and the vertex y = B^-1
    h_W.  The inverse's last row holds the multipliers mu = e_t B^-1 that
    write e_t as a combination of W's rows; mu >= 0 makes the vertex
    optimal for W's rows alone (dual feasible).  The caller appends rows,
    makes a dual feasible set of them active with `start`, and after each
    later row calls `reoptimize`.  A row is scaled to unit max-norm when it
    is appended, by `linprog.row_scales` as `solve_lp` scales its rows, so
    a row is violated when its scaled slack is below -linprog._TOL."""

    def __init__(self, m, capacity):
        self.rows = np.empty((capacity, m))
        self.rhs = np.empty(capacity)
        self.count = 0

    def add_row(self, a, b):
        """Append a.y <= b, scaled to unit max-norm; return its index."""
        scale = row_scales(a)
        np.divide(a, scale, out=self.rows[self.count])
        self.rhs[self.count] = b / scale
        self.count += 1
        return self.count - 1

    def start(self, active):
        """Make the rows `active` the active set, whose vertex the caller
        knows to be dual feasible."""
        self.active = np.array(active)
        self.inverse = np.linalg.inv(self.rows[self.active])
        self.y = self.inverse @ self.rhs[self.active]

    def reoptimize(self):
        """Exchange rows until none is violated.  The lowest-index violated
        row j enters, with z = g_j B^-1 (g_j = sum_i z_i g_{W_i}).  The
        leaving row r has the least mu_r / z_r over z_r > 0, the one of
        lowest row index within 1e-12 of it, so that the vertex stays dual
        feasible.  The inverse takes one rank-one step, B^-1 - B^-1[:, r]
        (z - e_r)^T / z_r, which makes mu mu - (mu_r / z_r) z with mu_r /
        z_r in place r.  Returns OPTIMAL, INFEASIBLE (no z_r > 0: no point
        satisfies the rows) or ITERATION_LIMIT after linprog's simplex cap
        of exchanges; a pivot z_r below linprog's pivot floor raises
        NumericalBreakdown."""
        rows, rhs = self.rows[:self.count], self.rhs[:self.count]
        inverse, active = self.inverse, self.active
        mu = inverse[-1]
        for _ in range(_MAX_ITERS):
            violated = rhs - rows @ self.y < -_TOL
            enter = violated.argmax()
            if not violated[enter]:
                return OPTIMAL
            z = rows[enter] @ inverse
            cand = (z > 0.0).nonzero()[0]
            if not cand.size:
                return INFEASIBLE
            ratios = np.maximum(mu[cand], 0.0) / z[cand]
            ties = cand[ratios <= ratios.min() + 1e-12]
            r = ties[active[ties].argmin()]
            pivot = z[r]
            if pivot < _PIVOT_MIN:
                raise NumericalBreakdown(
                    f"certificate master LP: pivot {pivot:.3e} below "
                    f"{_PIVOT_MIN:.0e}; rescale the input")
            leaving = inverse[:, r] / pivot
            z[r] -= 1.0
            inverse -= leaving[:, None] * z
            active[r] = enter
            self.y = inverse @ rhs[active]
        return ITERATION_LIMIT


@np.errstate(over="ignore", invalid="ignore")
def find_certificate_p1(system, tol=PSD_RTOL):
    """Kelley's cutting planes on a p = 1 system, where g(a) =
    lambda_min(M0 - a M1) is a concave function of one variable on
    [0, ALPHA_MAX], capped at 200 eigen calls.

    Each iterate's eigenpair gives the cut g(a) <= lam + s (a - alpha)
    with s = -v^T M1 v, as in `find_certificate_general`, but the master
    needs no LP: the next iterate is where two cuts cross
    (`_p1_master`).  The cuts' minimum there is the upper bound on max g,
    and the stops are `find_certificate_general`'s, with one difference:
    a passing iterate ends the search only once it reaches P1_NEAR_MAX
    times the bound, so every p = 1 certificate has lambda_min >= 0.99 *
    max g.  Each improving iterate is checked by check_multipliers on its
    eigenpair.  The search computes with numpy's overflow and invalid
    warnings off: an M(alpha) that overflowed raises NumericalBreakdown in
    eigen_sym, and a slope v^T M1 v that overflowed raises it here."""
    if system.p != 1:
        raise DimensionMismatch(f"p=1 search on a system with p={system.p}")
    if not system.is_quadratic:
        raise DimensionMismatch("cutting-plane search needs an all-quadratic system")
    M0 = bordered_matrix(system.f0)
    M1 = bordered_matrix(system.constraints[0])
    bound_scale = 1.0 + abs(M0).max() + ALPHA_MAX * abs(M1).max()
    # cut k: g(a) <= lams[k] + slopes[k] (a - points[k])
    lams, slopes, points = [], [], []
    alpha = 0.0
    best_lam = -np.inf
    outcome = ""
    for _ in range(200):
        M = M0 - alpha * M1
        lam, v = min_eigenvalue(M)
        if lam > best_lam:     # eigen_sym returns finite values only
            best = check_multipliers(system, np.array([alpha]), tol,
                                     eigenpair=(M, lam, v))
            best_lam, gap = lam, -best.threshold
        s = -float(v @ M1 @ v)
        if not abs(s) < np.inf:
            raise NumericalBreakdown(f"certificate cut slope {s}")
        lams.append(lam)
        slopes.append(s)
        points.append(alpha)
        alpha, upper_bound = _p1_master(lams, slopes, points)
        if upper_bound < -tol * bound_scale:
            outcome = NO_CERTIFICATE
            break
        if upper_bound - best_lam <= gap:
            break
        if best.valid and best_lam >= P1_NEAR_MAX * upper_bound:
            break
    return SearchResult(check=best, upper_bound=upper_bound, outcome=outcome)


def _p1_master(lams, slopes, points):
    """The master of the p = 1 cutting planes in closed form: the point of
    [0, ALPHA_MAX] where the minimum of the cuts lams[k] + slopes[k]
    (a - points[k]) is highest, and that minimum, (alpha, bound).

    The maximum is where the rising cut (s >= 0) at the rightmost point
    crosses the falling cut (s <= 0) at the leftmost point; in exact
    arithmetic every other cut lies above both there.  Without a falling
    cut it is ALPHA_MAX, without a rising one 0, and a flat cut is both,
    so its own point.  The crossing is computed from the falling cut, so
    that two cuts through one exact point cross there.  The bound is the
    minimum over all cuts at alpha.  When rounded slopes are not monotone
    a third cut can lie below the crossing; it then replaces the pair's
    cut of its sign and the pair is crossed again, so that the bound is
    the cuts' highest minimum, as the LP's value is."""
    rising = falling = None
    for k, (s, a) in enumerate(zip(slopes, points)):
        if s >= 0.0 and (rising is None or a >= points[rising]):
            rising = k
        if s <= 0.0 and (falling is None or a <= points[falling]):
            falling = k
    for _ in range(len(lams)):
        if falling is None:
            alpha = ALPHA_MAX
        elif rising is None:
            alpha = 0.0
        elif rising == falling:
            alpha = points[rising]
        else:
            lo, hi = points[rising], points[falling]
            alpha = hi + ((lams[rising] + slopes[rising] * (hi - lo))
                          - lams[falling]) / (slopes[falling] - slopes[rising])
            alpha = min(max(alpha, 0.0), ALPHA_MAX)
        values = [lam + s * (alpha - a)
                  for lam, s, a in zip(lams, slopes, points)]
        bound = min(values)
        if bound >= min(values[j] for j in (rising, falling) if j is not None):
            break
        k = values.index(bound)
        if slopes[k] >= 0.0:
            rising = k
        if slopes[k] <= 0.0:
            falling = k
    return alpha, bound


def format_certificate(check):
    """Text form of a passing MultiplierCheck, consumed by `slemma verify
    --certificate`:

        alpha = [0.5, 1.25]
        lambda_min = 0.003
        verified = ExactPSD
    """
    alpha = ", ".join(repr(float(a)) for a in check.alpha)
    lam = ("none" if check.lambda_min is None
           else repr(float(check.lambda_min)))
    return (f"alpha = [{alpha}]\n"
            f"lambda_min = {lam}\n"
            f"verified = {check.label}\n")


def parse_certificate(text):
    """The checked multipliers of format_certificate's text; ValueError on
    a missing alpha or a malformed alpha, lambda_min or verified line."""
    fields = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or "=" not in line:
            continue
        key, _, value = line.partition("=")
        fields[key.strip()] = value.strip()
    try:
        body = fields["alpha"].strip("[]").strip()
        alpha = np.array([float(v) for v in body.split(",")] if body else [])
        lam = fields.get("lambda_min", "none")
        if lam != "none":
            float(lam)
        verified = fields.get("verified", FAILED)
        if verified not in (EXACT_PSD, SAMPLED_ONLY, FAILED):
            raise ValueError(f"unknown label {verified!r}")
    except (KeyError, ValueError) as exc:
        raise ValueError(f"malformed certificate text: {exc}") from exc
    return _multipliers(alpha)


FOUND = "found"
NO_SEPARATOR = "no_separator"
SLATER_BLOCKED = "slater_blocked"
REFINEMENT_EXHAUSTED = "refinement_exhausted"
NO_CERTIFICATE = "no_certificate"    # cutting planes: absence proven


def _witness_sources(check):
    """Points to cut a failed separator out of the cloud: a sampled
    violating point as it is, an exact one with its double and half, or
    three points along a homogeneous direction."""
    if check.direction is not None:
        norm = np.linalg.norm(check.direction)
        if norm == 0:
            return []
        w = check.direction / norm
        return [t * w for t in (1.0, 10.0, 100.0)]
    x = check.violating_x
    return [x] if check.label == SAMPLED_ONLY else [x, 2.0 * x, 0.5 * x]


def find_certificate_via_separation(system, cloud, tol=PSD_RTOL, seed=0):
    """Certificate extraction along the separation route.

    Separate the cloud from K, require alpha_0 away from zero (the Slater
    guard), divide through by alpha_0, check the multipliers with the same
    `tol`, and on failure cut the violating point or direction into the
    cloud and repeat (at most REFINE_ROUNDS extra rounds).  Each round is
    one `hull_intersects_k` LP on its cloud's frontier: round 0's is
    `cloud.frontier`, and each grown cloud's comes from the round before
    it, merged with the at most three added points (`ImageCloud.grown`).
    A separator that repeats the last one bit for bit after an exact check
    ends the refinement: each later round would repeat that round too.
    The result carries round 0's whole answer on `cloud` itself, hull and
    separator, so the evidence step solves no LP."""
    work = cloud
    check = alpha_full = None
    for round_idx in range(REFINE_ROUNDS + 1):
        hull = hull_intersects_k(work, tol)
        if round_idx == 0:
            first = hull
        sep = hull.separator
        if sep is None:
            return SearchResult(outcome=NO_SEPARATOR, rounds=round_idx,
                                separation=first)
        if check is not None and check.label == EXACT_PSD and \
                np.array_equal(sep.alpha, alpha_full):
            return SearchResult(check=check, outcome=REFINEMENT_EXHAUSTED,
                                rounds=round_idx, separation=first)
        alpha_full = sep.alpha
        if alpha_full[0] < SLATER_ALPHA0_MIN:
            return SearchResult(outcome=SLATER_BLOCKED,
                                alpha0=float(alpha_full[0]),
                                rounds=round_idx, separation=first)
        check = check_multipliers(
            system, alpha_full[1:] / alpha_full[0], tol=tol,
            radius=cloud.box_radius, seed=derive_seed(seed, 100 + round_idx))
        if check.valid:
            return SearchResult(check=check, outcome=FOUND, rounds=round_idx,
                                separation=first)
        fresh = [(x, system.image_point(x)) for x in _witness_sources(check)]
        fresh = [(x, z) for x, z in fresh if np.all(np.isfinite(z))]
        if not fresh:
            break
        sources, pts = zip(*fresh)
        work = work.grown(np.array(pts), np.array(sources))
    return SearchResult(check=check, outcome=REFINEMENT_EXHAUSTED,
                        rounds=REFINE_ROUNDS + 1, separation=first)
