"""Counterexample search, Slater check, the stages and the classifier.

The classifier settles each instance as far as honest evidence allows:
a re-verified counterexample proves the implication false; an exactly
verified certificate proves it true; everything else stays Undetermined,
decorated with the geometric evidence (sampled image vs. K, hull
intersection, separator, convexity falsifiers).  A run draws one box
sample (`box_sample`, stream 2), memoized per process (see
`search.box_points`); the Slater and counterexample searches read it and
their descended points with one vectorized test each (`slater_margin`,
`witness_f0`), a column at a time.  On an all-quadratic system the row a
counterexample search selects must hold exactly (`_first_witness`: every
f_i >= 0 and f0 < -1e-9 in rationals, screened by `exact.error_bound`).
There the certificate search runs between the counterexample search's
read of the sample and its descent, skipped when the certificate's
eigenvalue floor leaves no counterexample for it to accept in the box
((C) implies (I)), or at p = 1 when the exact face test (`face_stage`)
decides.  When the descent finds nothing either, a failed certificate
search's witness starts a second search on a sample of its own (stream
3), the retry.
Each other stage maps the config to its arguments and owns its seed
stream; the CLI calls them too."""

import math
from dataclasses import dataclass, field, fields
from fractions import Fraction

import numpy as np

from . import certificate as cert_mod
from . import exact
from . import farkas as farkas_mod
from . import geometry
from .errors import NotConverged, NumericalBreakdown, SlemmaError
from .quadratic import PSD_RTOL
from .rng import derive_seed
from .search import all_finite, box_points, descend, smallest

SLATER_POINT = "SlaterPoint"
NOT_FOUND = "NotFound"

VALID = "ValidWithCertificate"
INVALID = "InvalidWithCounterexample"
UNDETERMINED = "Undetermined"

_SLATER_MIN = 1e-9
_WITNESS_TOL = 1e-9
_PENALTY = 1e3        # weight of the counterexample descent's penalty
_DINES = "convex up to closure: Dines 1941, p <= 1"
_FACE_PROOF = ("(I) holds, proved exactly: f1 >= 0 only on the face "
               "M1 [x; 1] = 0, where f0 >= 0 (p = 1 facial reduction)")
_FACE_WITNESS = ("counterexample on the face M1 [x; 1] = 0 (p = 1 facial "
                 "reduction)")


@dataclass
class SlaterResult:
    status: str
    x0: np.ndarray | None = None
    min_constraint_value: float | None = None

    @property
    def found(self):
        return self.status == SLATER_POINT


def slater_loss(system):
    """The Slater search's loss: -min_i f_i, with the gradient of the
    first least f_i; a non-finite constraint reads -inf, so its row +inf.
    f0 is not evaluated, as it need not be defined at a Slater point."""

    def loss(X):
        vals, grads = system.values_and_gradients(X, first=1)
        if not all_finite(vals):
            vals = np.where(np.isfinite(vals), vals, -np.inf)
        if vals.shape[1] == 1:
            return -vals[:, 0], -grads[:, 0]
        rows, least = np.arange(X.shape[0]), np.argmin(vals, axis=1)
        return -vals[rows, least], -grads[rows, least]

    return loss


def slater_margin(vals):
    """min_i f_i on each row of values_batch(X)[:, 1:], reading -inf
    where a constraint is not finite, +inf without one: the Slater test is
    margin > 1e-9.  Read a column at a time: the first cleaned column is
    folded with the others by binary np.minimum in column order, as a
    fold from +inf would be, bit for bit (np.min over a row can differ in
    the sign of a zero with numpy's SIMD dispatch)."""
    if not vals.shape[1]:
        return np.full(vals.shape[0], np.inf)
    first, *rest = vals.T
    margin = np.where(np.isfinite(first), first, -np.inf)
    for col in rest:
        np.minimum(margin, np.where(np.isfinite(col), col, -np.inf),
                   out=margin)
    return margin


def box_sample(system, radius, samples, seed):
    """(X, system.values_batch(X)), X being `samples` points uniform in
    [-radius, radius]^n from SplitMix64(seed): what both searches read.
    X is `search.box_points`'s read-only, per-process memoized draw, so
    instances that share (seed, radius, samples, n) share it."""
    X = box_points(radius, system.n, samples, seed)
    return X, system.values_batch(X)


def check_slater(system, X, vals, radius):
    """Point with every constraint strictly positive (min f_i > 1e-9).

    The `box_sample` (X, vals) is read by `slater_margin`.  When its best
    row, the first of greatest margin, clears 1e-9, that row is the Slater
    point (a descent would only raise its margin).  Otherwise its 10 best
    rows, ranked by margin with ties in row order, start a 60-step descent
    of `slater_loss`, whose points have minus their loss as margin; the
    Slater point is the first of them whose margin clears 1e-9, and
    without one the best margin is reported.  p = 0 is vacuously Slater
    at the origin."""
    if system.p == 0:
        return SlaterResult(status=SLATER_POINT, x0=np.zeros(system.n),
                            min_constraint_value=np.inf)

    margin = slater_margin(vals[:, 1:])
    if margin.size:
        i = int(np.argmax(margin))
        if margin[i] > _SLATER_MIN:
            # a copy: X may be the memoized sample
            return SlaterResult(status=SLATER_POINT, x0=X[i].copy(),
                                min_constraint_value=float(margin[i]))
    X, loss = descend(slater_loss(system), X[smallest(-margin, 10)],
                      steps=60, box_radius=radius)
    margin = -loss
    passing = np.flatnonzero(margin > _SLATER_MIN)
    if passing.size:
        i = passing[0]
        return SlaterResult(status=SLATER_POINT, x0=X[i],
                            min_constraint_value=float(margin[i]))
    best = float(np.max(margin, initial=-np.inf))
    return SlaterResult(status=NOT_FOUND, min_constraint_value=best)


@dataclass
class CounterexampleResult:
    """The search's best row: the counterexample when `found`, else the
    closest miss (the feasible row of least f0), or None."""

    found: bool
    x: np.ndarray | None = None
    f0_value: float | None = None
    min_constraint: float | None = None


def penalized_loss(system):
    """The counterexample search's loss: f0 + _PENALTY sum_i max(0, -f_i)^2,
    +inf where any f_i is not finite."""

    def penalized(X):
        # gradient: grad f0 - 2 _PENALTY sum_i max(0, -f_i) grad f_i
        vals, grads = system.values_and_gradients(X)
        weights = np.ones_like(vals)
        pen = 0.0
        if system.p:
            viol = -vals[:, 1:]
            np.maximum(viol, 0.0, out=viol)
            np.multiply(viol, -2.0 * _PENALTY, out=weights[:, 1:])
            viol *= viol
            pen = np.add.reduce(viol, axis=1)
        value = vals[:, 0] + _PENALTY * pen
        if not all_finite(vals):
            out = ~np.isfinite(vals).all(1)
            value[out], weights[out] = np.inf, 0.0
        return value, np.einsum("ij,ijk->ik", weights, grads)

    return penalized


def witness_f0(vals):
    """The float witness test on each row of values_batch's (m, p+1)
    array: f0 where f0 is finite and the row's `slater_margin` is >= -1e-9
    (every f_i finite and >= -1e-9), +inf on every other row.  A row is a
    candidate counterexample when this reads below -1e-9; on an
    all-quadratic system it is one only when it also holds exactly
    (`_first_witness`)."""
    f0 = vals[:, 0]
    feasible = np.isfinite(f0) & (slater_margin(vals[:, 1:]) >= -_WITNESS_TOL)
    return np.where(feasible, f0, np.inf)


def _exact_range(system, X, vals):
    """(lo, hi) = vals -+ `exact.error_bound` at the point or the rows X of
    an all-quadratic system, `vals` being their values: each exact value
    lies in [lo, hi] up to the rounding of lo and hi themselves.  That
    rounding is monotone and keeps signs, and 0 and -1e-9 are doubles, so
    comparing lo or hi with them strictly, or lo >= 0, gives the exact
    value's side."""
    err = exact.error_bound(system.stack, X)
    return vals - err, vals + err


def _holds(lo, hi):
    """Whether the exact values, of a point or of each row, hold the
    witness rule: every f_i >= 0 and f0 < -1e-9."""
    return (hi[..., 0] < -_WITNESS_TOL) & (lo[..., 1:] >= 0.0).all(-1)


def _breaks(lo, hi):
    """Whether the exact values, of a point or of each row, break the
    witness rule."""
    return (lo[..., 0] > -_WITNESS_TOL) | (hi[..., 1:] < 0.0).any(-1)


def _holds_exactly(system, x):
    """The witness rule at x in `Fraction`: every f_i(x) >= 0 and f0(x) <
    -1e-9."""
    return (all(exact.value(f, x) >= 0 for f in system.constraints)
            and exact.value(system.f0, x) < Fraction(-_WITNESS_TOL))


def _first_witness(system, X, vals, score):
    """The first row of least witness `score` (`witness_f0` of vals) that
    is a counterexample or a miss, as (score, row), None when there are no
    rows.  On an all-quadratic system a row scoring below -1e-9 must hold
    the rule exactly: the screen (`_exact_range`) decides first,
    `Fraction` only inside its bounds, and a row that fails is dropped,
    +inf in the returned copy of `score`, so the selection goes on.
    Expression and mixed systems keep the float rule."""
    if not score.size:
        return score, None
    i = int(np.argmin(score))
    if (not system.is_quadratic or not score[i] < -_WITNESS_TOL
            or _holds(*_exact_range(system, X[i], vals[i]))):
        return score, i
    score = score.copy()
    rows = np.flatnonzero(score < -_WITNESS_TOL)
    lo, hi = _exact_range(system, X[rows], vals[rows])
    score[rows[_breaks(lo, hi)]] = np.inf
    sure = set(rows[_holds(lo, hi)].tolist())
    while True:
        i = int(np.argmin(score))
        if (not score[i] < -_WITNESS_TOL or i in sure
                or _holds_exactly(system, X[i])):
            return score, i
        score[i] = np.inf


def _read_sample(system, X, vals):
    """The sample's witness scores, rows failing the exact rule dropped
    (`_first_witness`), its first accepted row of least score (None when
    there are no rows) and that score."""
    score, i = _first_witness(system, X, vals, witness_f0(vals))
    return score, i, np.inf if i is None else float(score[i])


def _best_row(system, X, vals, i, best, descent=None):
    """The result from the sample's best row i of witness score `best`
    and, when given, the `descent`'s (descended points, starts): their
    first accepted row of least witness f0 (`_first_witness`) replaces
    the sample's best only when strictly below it."""
    if descent is not None:
        # the penalized descent may trade a whisker of feasibility for
        # objective, so the undescended starts stay in the candidate pool
        candidates = np.vstack(descent)
        cand_vals = system.values_batch(candidates)
        cand_score, j = _first_witness(system, candidates, cand_vals,
                                       witness_f0(cand_vals))
        if cand_score[j] < best:    # the sample wins a tie
            X, vals, i, best = candidates, cand_vals, j, float(cand_score[j])
    if best == np.inf:
        return CounterexampleResult(found=False)
    x = X[i].copy()     # X may be the memoized sample
    if best >= -_WITNESS_TOL:
        return CounterexampleResult(found=False, x=x, f0_value=best)
    return CounterexampleResult(
        found=True, x=x, f0_value=best,
        min_constraint=float(vals[i, 1:].min()) if system.p else np.inf)


def find_counterexample(system, X, vals, radius, extra_starts=None, *,
                        descend_undecided=True):
    """Search for x with every f_i >= 0 and f0 < 0.

    One witness rule reads the `box_sample` (X, vals) and the descended
    points alike (`_first_witness`): `witness_f0`'s float test, a row
    being feasible when f_i >= -1e-9 for all i and a candidate when its
    f0 < -1e-9 too, and on an all-quadratic system the exact rule for the
    row selected, f_i >= 0 and f0 < -1e-9 in rationals (Theorem 2, Eq.
    (1): z(x) lies in K); a row failing it is dropped.  The first
    accepted sample of least f0 is the counterexample, as a descent from
    it would keep it in the candidate pool.  Otherwise an 80-step descent
    of `penalized_loss` runs from the 20 best feasible samples by f0,
    topped up with the least infeasible, after any `extra_starts`; the
    descended points and their starts are the candidates, and their first
    accepted row of least witness f0 replaces the sample when strictly
    below it.  The result is that row, found or the closest miss.  With
    `descend_undecided=False` an undecided sample ends the search: the
    classifier pays for the descent only after its certificate search."""
    score, i, best = _read_sample(system, X, vals)
    if not descend_undecided or best < -_WITNESS_TOL:
        return _best_row(system, X, vals, i, best)
    # starts: best feasible by f0, topped up with the least infeasible
    starts = [X[j] for j in smallest(score, 20) if np.isfinite(score[j])]
    if len(starts) < 20 and system.p:
        # out-of-domain rows score +inf, like feasible ones
        with np.errstate(over="ignore"):   # +inf fails isfinite below
            pen = np.sum(np.maximum(-vals[:, 1:], 0.0) ** 2, axis=1)
        pen = np.where(np.isfinite(vals).all(1) & np.isinf(score), pen,
                       np.inf)
        starts += [X[j] for j in smallest(pen, 20 - len(starts))
                   if np.isfinite(pen[j])]
    if extra_starts is not None:
        starts = (list(np.atleast_2d(np.asarray(extra_starts, float)))
                  + starts)
    starts = np.array(starts or [np.zeros(system.n)])
    refined, _ = descend(penalized_loss(system), starts, steps=80,
                         box_radius=radius)
    return _best_row(system, X, vals, i, best, (refined, starts))


@dataclass
class ClassifyConfig:
    """Every knob the classifier uses; echoed verbatim into reports."""

    box_radius: float = 10.0
    samples: int = 4096
    seed: int = 1
    psd_tol: float = PSD_RTOL   # the one tolerance: PSD test, LPs, --tol
    eta: float = 1e-3
    cloud_samples: int = 512
    falsify_trials: int = 400
    member_budget: int = 16
    supergradient_iters: int = 2000   # caps the p >= 2 cutting-plane search

    def items(self):
        return [(f.name, getattr(self, f.name)) for f in fields(self)]


@dataclass
class GeometryEvidence:
    computed: bool = False
    k_members: int | None = None
    cloud_size: int | None = None
    hull: geometry.HullResult | None = None
    epi_falsify: geometry.FalsifyResult | None = None
    conical_falsify: geometry.FalsifyResult | None = None


@dataclass
class InstanceReport:
    verdict: str
    slater: SlaterResult
    certificate: cert_mod.MultiplierCheck | None = None   # a passing check
    counterexample: CounterexampleResult | None = None
    candidate_certificate: cert_mod.MultiplierCheck | None = None
    evidence: GeometryEvidence = field(default_factory=GeometryEvidence)
    config: ClassifyConfig = field(default_factory=ClassifyConfig)
    notes: list = field(default_factory=list)


def face_stage(system):
    """Exact p = 1 facial reduction (Borwein & Wolkowicz 1981) of an
    all-quadratic system, as (proved, counterexample).

    When -M1 is PSD (`exact.psd`), f1 <= 0 everywhere and f1 >= 0 exactly
    on F = {x : M1 [x; 1] = 0}.  Of a kernel basis B of M1
    (`exact.null_space`) only the last column can have t != 0, and then t
    = 1; without it F is empty.  f0 on F is the form of N = B^T M0 B at
    [y; 1], so F empty or N PSD proves (I).  Otherwise N's negative vector
    u lifts to a point of F where f0 < 0 (along B's directions when u_t =
    0, far enough for f0 <= -1; at a point, u / u_t rounded to doubles
    when N's form stays negative there); rounded to doubles, it is a
    counterexample only by the exact witness rule (`_first_witness`).
    Every decision is made in Fraction on the float data."""
    M1 = exact.bordered(system.constraints[0])
    if exact.psd([[-v for v in row] for row in M1]) is not exact.PSD:
        return False, None
    B = exact.null_space(M1)
    if not B or not B[-1][-1]:
        return True, None
    M0 = exact.bordered(system.f0)
    N = [[exact.form(M0, u, v) for v in B] for u in B]
    u = exact.psd(N)
    if u is exact.PSD:
        return True, None
    if u[-1]:
        # u / u_t rounded to doubles, kept while N's form stays negative:
        # on a face of short rationals its lift is a double point of the
        # face, where u's own lift may round off it
        try:
            short = [Fraction(float(ui / u[-1])) for ui in u]
        except OverflowError:
            return False, None
        if exact.form(N, short, short) < 0:
            u = short
    else:
        # at s u + e_t, f0 = a s^2 / 2 + b s + c with a < 0: s >= 1 and
        # s |a| / 2 >= |b| + |c| + 1 give f0 <= -1; an integer s keeps a
        # dyadic u on a dyadic face
        t = [0] * (len(u) - 1) + [1]
        s = max(1, math.ceil((2 * abs(exact.form(N, u, t)) + abs(N[-1][-1])
                              + 2) / -exact.form(N, u, u)))
        u = [s * ui + ti for ui, ti in zip(u, t)]
    z = [sum(ui * col[j] for ui, col in zip(u, B)) for j in range(system.n)]
    try:
        X = np.array([[float(zj / u[-1]) for zj in z]])
    except OverflowError:
        return False, None
    vals = system.values_batch(X)
    cex = _best_row(system, X, vals, *_read_sample(system, X, vals)[1:])
    return False, cex if cex.found else None


def counterexample_stage(system, config):
    """find_counterexample on classify's `box_sample` (stream 2), for the
    `counterexample` command."""
    X, vals = box_sample(system, config.box_radius, config.samples,
                         derive_seed(config.seed, 2))
    return find_counterexample(system, X, vals, config.box_radius)


def certificate_stage(system, config):
    """Certificate search on an all-quadratic system: exact Farkas when
    every function is affine, the PSD test of M0 at p = 0, and Kelley's
    cutting planes otherwise, chosen by p: find_certificate_p1 crosses two
    cuts in closed form at p = 1, and find_certificate_general keeps the
    master LP's p + 1 active rows and their inverse per search above.
    Returns (search, notes, witness_starts), the starts being points that
    violate a failed certificate, for the counterexample retry (see
    `classify_instance`).  A Farkas alternative is also the search's
    `witness`; when it misses the exact witness rule, as an LP vertex on
    an active constraint can by an ulp, the alternative with a 1e-9 margin
    in every constraint is the start instead."""
    notes = []
    if system.is_linear() and system.p >= 1:
        data = farkas_mod.linear_data(system)
        result = farkas_mod.solve(data)
        if result.kind == farkas_mod.ALTERNATIVE:
            start = result.x
            if not _holds_exactly(system, start):
                # the LP's vertex misses an active constraint by an ulp;
                # one with a margin in every constraint starts the retry
                tight = farkas_mod.solve(data, margin=_WITNESS_TOL)
                if tight.kind == farkas_mod.ALTERNATIVE:
                    start = tight.x
            return (cert_mod.SearchResult(witness=result.x),
                    ["linear alternatives produced a witness"], [start])
        if result.kind == farkas_mod.INCONSISTENT:
            return (cert_mod.SearchResult(),
                    ["linear constraint system is inconsistent"], [])
        search = cert_mod.SearchResult(check=cert_mod.check_multipliers(
            system, result.alpha, tol=config.psd_tol))
        if search.found:
            return search, ["certificate via exact linear alternatives"], []
        # fall through to the generic searches on a verification miss
        notes.append("linear multipliers failed exact verification")

    if system.p == 0:
        search = cert_mod.SearchResult(check=cert_mod.check_multipliers(
            system, np.zeros(0), tol=config.psd_tol))
    elif system.p == 1:
        search = cert_mod.find_certificate_p1(system, tol=config.psd_tol)
    else:
        search = cert_mod.find_certificate_general(
            system, iters=config.supergradient_iters, tol=config.psd_tol)
    if search.found:
        return search, notes, []
    if search.outcome == cert_mod.NO_CERTIFICATE:
        notes.append(
            f"no certificate with alpha <= alpha_max={cert_mod.ALPHA_MAX!r}")
    x = None if search.check is None else search.check.violating_x
    return search, notes, [] if x is None else [x]


def image_cloud(system, config):
    """The sampled image cloud (stream 9)."""
    return geometry.sample_image(system, config.box_radius,
                                 config.cloud_samples,
                                 derive_seed(config.seed, 9))


def separation_stage(system, config, cloud):
    """Certificate via a separator of `cloud` from K (stream 10)."""
    return cert_mod.find_certificate_via_separation(
        system, cloud, tol=config.psd_tol, seed=derive_seed(config.seed, 10))


def gather_evidence(system, config, cloud, hull):
    """K members, hull, separator and the epi and conical falsifiers on
    `cloud`.  `hull` is `hull_intersects_k`'s answer on this same cloud,
    which carries the separator, so no LP is solved here.

    The conical oracle searches the image of the perspective system (see
    `geometry.conical_membership_oracle`).  For two quadratic functions,
    `is_quadratic and p <= 1` exactly, that image is a convex cone by
    Dines (1941): no chord point lies outside it, so no conical falsifier
    runs, and `skipped` records the theorem."""
    ev = GeometryEvidence(computed=True)
    ev.cloud_size = cloud.size
    ev.k_members = int(len(geometry.cloud_k_members(cloud)))
    ev.hull = hull
    epi = geometry.epi_membership_oracle(
        system, cloud, budget=config.member_budget,
        seed=derive_seed(config.seed, 5))
    ev.epi_falsify = geometry.falsify_convexity(
        epi, cloud, trials=config.falsify_trials,
        seed=derive_seed(config.seed, 6), eta=config.eta, system=system)
    if system.is_quadratic and system.p <= 1:
        ev.conical_falsify = geometry.FalsifyResult(skipped=_DINES)
        return ev
    conical = geometry.conical_membership_oracle(
        system, cloud, budget=config.member_budget,
        seed=derive_seed(config.seed, 7))
    ev.conical_falsify = geometry.falsify_convexity(
        conical, cloud, trials=max(1, config.falsify_trials // 10),
        seed=derive_seed(config.seed, 8), eta=config.eta, system=system)
    return ev


def image_geometry(system, config):
    """(cloud, evidence, image falsifier) of the `geometry` command; only
    it runs the image-convexity falsifier (streams 11 and 12)."""
    cloud = image_cloud(system, config)
    ev = gather_evidence(system, config, cloud,
                         geometry.hull_intersects_k(cloud, tol=config.psd_tol))
    identity = geometry.identity_membership_oracle(
        system, cloud, budget=config.member_budget,
        seed=derive_seed(config.seed, 11))
    image_falsify = geometry.falsify_convexity(
        identity, cloud, trials=config.falsify_trials,
        seed=derive_seed(config.seed, 12), eta=config.eta, system=system)
    return cloud, ev, image_falsify


def classify_instance(system, config=None):
    """Full pipeline: one box sample for the Slater check and the
    counterexample search, certificate search (quadratic route, then
    separation on a fresh cloud), geometric evidence when nothing
    definitive came out.  On an all-quadratic system the counterexample
    descent runs after the quadratic route, and is skipped when its
    certificate leaves no counterexample the descent could accept in the
    box (see `_leaves_no_witness`): the PSD test's tolerance lets a
    certificate pass with a slightly negative lambda_min, and a
    counterexample the descent finds decides Invalid.  A counterexample
    on such a system was accepted exactly; on any other its image is
    re-checked against K in floats (`_assert_image_in_k`).  At p = 1 a
    failed certificate search is followed by `face_stage`: a proof of (I)
    skips the descent and adds a note, as it is no multiplier
    certificate; its counterexample decides Invalid.  When the descent
    finds nothing, after the search's notes, a failed search that leaves
    a witness adds the retry: a second `find_counterexample` on its own
    box sample (stream 3), drawn only then, descending from the witness
    and that sample's best unless the sample decides.  So an instance
    whose descent decides draws no retry sample, and one where both fail
    pays for two descents.  Only exactly verified certificates yield
    ValidWithCertificate; sampled certificates are attached as
    candidates on an Undetermined verdict.
    A numerical failure (NumericalBreakdown, NotConverged) propagates;
    any other toolkit error ends the run Undetermined with a `stage
    failure:` note.  A certificate stage that fails either way still
    lets the descent refute (I) before its error is handled."""
    config = config or ClassifyConfig()
    report = InstanceReport(verdict=UNDETERMINED,
                            slater=SlaterResult(status=NOT_FOUND),
                            config=config)

    def refuted(cex):
        if cex.found:
            if not system.is_quadratic:     # else accepted exactly
                _assert_image_in_k(system, cex.x)
            report.verdict = INVALID
            report.counterexample = cex
        return cex.found

    try:
        radius = config.box_radius
        sample = box_sample(system, radius, config.samples,
                            derive_seed(config.seed, 2))
        report.slater = check_slater(system, *sample, radius)

        all_quadratic = system.is_quadratic
        if refuted(find_counterexample(system, *sample, radius,
                                       descend_undecided=not all_quadratic)):
            return report

        if all_quadratic:
            failure, witness_starts = None, []
            try:
                search, notes, witness_starts = certificate_stage(system,
                                                                  config)
            except SlemmaError as exc:
                failure = exc
            certified = failure is None and search.found
            proved = False
            if failure is None and not certified and system.p == 1:
                proved, face_cex = face_stage(system)
                if face_cex is not None and refuted(face_cex):
                    report.notes.append(_FACE_WITNESS)
                    return report
            if not proved and not (certified and _leaves_no_witness(
                    system, search.certificate, radius)):
                # descend, as without a search; the search's error and
                # notes wait on the descent
                if refuted(find_counterexample(system, *sample, radius)):
                    return report
                if failure is not None:
                    raise failure
            report.notes += notes
            if proved:
                report.notes.append(_FACE_PROOF)
            if certified:
                report.verdict = VALID
                report.certificate = search.certificate
                return report
            if witness_starts and not proved:
                # the retry: a second search from the failed certificate's
                # witness, on a box sample of its own (stream 3)
                retry = box_sample(system, radius, config.samples,
                                   derive_seed(config.seed, 3))
                if refuted(find_counterexample(system, *retry, radius,
                                               witness_starts)):
                    report.notes.append(
                        "counterexample from certificate-failure witness")
                    return report

        cloud = image_cloud(system, config)
        sep = separation_stage(system, config, cloud)
        if sep.found:
            if sep.certificate.label == cert_mod.EXACT_PSD:
                report.verdict = VALID
                report.certificate = sep.certificate
                report.notes.append("certificate via separation")
                return report
            report.candidate_certificate = sep.certificate
            report.notes.append(
                "sampled-only certificate candidate (not a validity claim)")
        else:
            report.notes.append(f"separation outcome: {sep.outcome}")

        report.evidence = gather_evidence(system, config, cloud,
                                          sep.separation)
        return report
    except (NumericalBreakdown, NotConverged):
        raise
    except SlemmaError as exc:
        report.notes.append(f"stage failure: {exc}")
        report.verdict = UNDETERMINED
        return report
    finally:
        _assert_exclusive(report)


def _leaves_no_witness(system, certificate, radius):
    """Whether an ExactPSD `certificate` rules out every counterexample in
    [-radius, radius]^n.  An accepted witness has f_i >= 0 and f0 < -1e-9
    exactly, and f0 - sum_i alpha_i f_i = [x; 1]^T M [x; 1] / 2 >= lambda
    (1 + |x|^2) / 2 for M = M(alpha) in exact arithmetic and lambda its
    least eigenvalue.  The float M(alpha) is M's entries after 2p
    operations each, and the eigensolver is backward stable: its
    lambda_min is an eigenvalue of the float matrix plus E with |E|_2 <=
    4 (n+1)^2 u |M(alpha)|_2 (LAPACK Users' Guide, section 4.7, with a
    stated p(n) = 4 (n+1)^2).  So lambda >= lambda_min - SAFETY
    gamma_(4(n+1)^2 + 2p) sum_k w_k |M_k|_F, with w = (1, alpha), and
    this is True when that floor keeps every such f0 at or above -1e-9."""
    scale = 0.0
    for w, f in zip([1.0, *certificate.alpha.tolist()], system.functions):
        if w:       # |M_k|_F^2 = |Q|_F^2 + 2 |c|^2 + 4 d^2
            scale += w * math.sqrt(float(np.vdot(f.Q, f.Q))
                                   + 2.0 * float(np.vdot(f.c, f.c))
                                   + 4.0 * f.d * f.d)
    dim = system.n + 1
    err = exact.SAFETY * exact.gamma(4 * dim * dim + 2 * system.p) * scale
    floor = certificate.lambda_min - err
    if floor >= 0.0:
        return True
    # f0 >= floor (1 + n radius^2) / 2 on the box; the five roundings of
    # that product and one of the threshold stay within 8u relative,
    # which the threshold's factor absorbs
    return (0.5 * floor * (1.0 + system.n * radius * radius)
            >= -_WITNESS_TOL * (1.0 - 8.0 * exact.UNIT_ROUNDOFF))


def _assert_image_in_k(system, x):
    """Theorem 2 Eq. (1) at the witness: z(x) must land in K."""
    z = system.image_point(x)
    if not geometry.cone_k_member(z, strict_tol=_WITNESS_TOL):
        raise AssertionError(
            f"counterexample witness image {z} escaped the cone test"
        )


def _assert_exclusive(report):
    """(C) implies (I): a verified certificate and a verified counterexample
    can never coexist in one report."""
    if report.certificate is None or report.counterexample is None:
        return
    if (report.certificate.label == cert_mod.EXACT_PSD
            and report.counterexample.found):
        raise AssertionError("report holds both a certificate and a counterexample")
