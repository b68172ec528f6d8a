"""Counterexample search, Slater check, the stages and the classifier.

The classifier settles each instance as far as honest evidence allows:
a re-verified counterexample proves the implication false; an exactly
verified certificate proves it true; everything else stays Undetermined,
decorated with the geometric evidence (sampled image vs. K, hull
intersection, separator, convexity falsifiers).  A run draws one box
sample (`box_sample`, stream 2), memoized per process (see
`search.box_points`); the Slater and counterexample searches read it and
their descended points with one vectorized test each (`slater_margin`,
`witness_f0`), a column at a time.  On an all-quadratic system the
certificate search runs between the counterexample search's read of the
sample and its descent, skipped when the certificate's margin leaves no
counterexample for it to accept in the box ((C) implies (I), up to the
tolerances).  Each other stage maps the config to its arguments and owns
its seed stream; the CLI calls them too."""

from dataclasses import dataclass, field, fields

import numpy as np

from . import certificate as cert_mod
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
        rows, least = np.arange(X.shape[0]), np.argmin(vals, axis=1)
        return -vals[rows, least], -grads[rows, least]

    return loss


def slater_margin(vals):
    """min_i f_i on each row of values_batch(X)[:, 1:], reading -inf
    where a constraint is not finite, +inf without one: the Slater test is
    margin > 1e-9.  Read a column at a time, folded in column order."""
    margin = np.full(vals.shape[0], np.inf)
    for col in vals.T:
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

    The `box_sample` (X, vals) is ranked by `slater_margin`, and its 10
    best rows are kept.  Unless the top one clears 1e-9 (a descent would
    only raise its margin), a 60-step descent of `slater_loss` replaces
    them with its points, whose margin is minus their loss.  The Slater
    point is the first kept row whose margin clears 1e-9; without one, the
    best margin is reported.  p = 0 is vacuously Slater at the origin."""
    if system.p == 0:
        return SlaterResult(status=SLATER_POINT, x0=np.zeros(system.n),
                            min_constraint_value=np.inf)

    margin = slater_margin(vals[:, 1:])
    top = smallest(-margin, 10)
    X, margin = X[top], margin[top]
    if not (margin.size and margin[0] > _SLATER_MIN):
        X, loss = descend(slater_loss(system), X, steps=60, box_radius=radius)
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
    """The witness test on each row of values_batch's (m, p+1) array: f0
    where f0 is finite and the row's `slater_margin` is >= -1e-9 (every
    f_i finite and >= -1e-9), +inf on every other row.  A row is a
    counterexample when this reads below -1e-9."""
    f0 = vals[:, 0]
    feasible = np.isfinite(f0) & (slater_margin(vals[:, 1:]) >= -_WITNESS_TOL)
    return np.where(feasible, f0, np.inf)


def find_counterexample(system, X, vals, radius, extra_starts=None, *,
                        descend_undecided=True):
    """Search for x with every f_i >= 0 and f0 < 0.

    One witness test, `witness_f0`, reads the `box_sample` (X, vals) and
    the descended points alike: a row is feasible when f_i >= -1e-9 for
    all i, and a counterexample when its f0 < -1e-9 too (Theorem 2, Eq.
    (1): z(x) lies in K).  The first feasible sample of least f0 is the
    counterexample when it passes, as a descent from it would keep it in
    the candidate pool.  Otherwise an 80-step descent of `penalized_loss`
    runs from the 20 best feasible samples by f0, topped up with the least
    infeasible, after any `extra_starts`; the descended points and their
    starts are the candidates, and the first of least witness f0 replaces
    the sample when strictly below it.  The result is that row, found or
    the closest miss.  With `descend_undecided=False` an undecided sample
    ends the search: the classifier pays for the descent only after its
    certificate search."""
    score = witness_f0(vals)
    i = int(np.argmin(score)) if score.size else None
    best = np.inf if i is None else float(score[i])
    if descend_undecided and not best < -_WITNESS_TOL:
        # starts: best feasible by f0, topped up with the least infeasible
        starts = [X[j] for j in smallest(score, 20) if np.isfinite(score[j])]
        if len(starts) < 20 and system.p:
            # out-of-domain rows score +inf, like feasible ones
            pen = np.sum(np.maximum(-vals[:, 1:], 0.0) ** 2, axis=1)
            pen = np.where(np.isfinite(vals).all(1) & np.isinf(score), pen,
                           np.inf)
            starts += [X[j] for j in smallest(pen, 20 - len(starts))
                       if np.isfinite(pen[j])]
        if extra_starts is not None:
            starts = (list(np.atleast_2d(np.asarray(extra_starts, float)))
                      + starts)
        if not starts:
            starts = [np.zeros(system.n)]
        refined, _ = descend(penalized_loss(system), np.array(starts),
                             steps=80, box_radius=radius)
        # the penalized descent may trade a whisker of feasibility for
        # objective, so the undescended starts stay in the candidate pool
        candidates = np.vstack([refined, np.array(starts)])
        cand_vals = system.values_batch(candidates)
        cand_score = witness_f0(cand_vals)
        j = int(np.argmin(cand_score))
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
    separator: geometry.Separator | None = None
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


def counterexample_stage(system, config, extra_starts=None):
    """find_counterexample on its own `box_sample`: stream 2 (classify's
    sample) for the `counterexample` command, stream 3 for the retry that
    also descends from `extra_starts`."""
    seed = derive_seed(config.seed, 2 if extra_starts is None else 3)
    X, vals = box_sample(system, config.box_radius, config.samples, seed)
    return find_counterexample(system, X, vals, config.box_radius,
                               extra_starts=extra_starts)


def certificate_stage(system, config):
    """Certificate search on an all-quadratic system: exact Farkas when
    every function is affine, the PSD test of M0 at p = 0, cutting planes
    otherwise (find_certificate_p1 at p = 1, find_certificate_general
    above).  Returns (search, notes, witness_starts), the starts being
    points that violate a failed certificate, for the counterexample
    retry.  A Farkas alternative is also the search's `witness`."""
    notes = []
    if system.is_linear() and system.p >= 1:
        result = farkas_mod.solve(farkas_mod.linear_data(system))
        if result.kind == farkas_mod.ALTERNATIVE:
            return (cert_mod.SearchResult(witness=result.x),
                    ["linear alternatives produced a witness"], [result.x])
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


def gather_evidence(system, config, cloud, separator):
    """K members, hull, separator and the epi and conical falsifiers on
    `cloud`.  `separator` is extract_separator's answer on this same cloud
    (a Separator, or None when none exists); the hull LP is solved here."""
    ev = GeometryEvidence(computed=True)
    ev.cloud_size = cloud.size
    ev.k_members = int(len(geometry.cloud_k_members(cloud)))
    ev.hull = geometry.hull_intersects_k(cloud, tol=config.psd_tol)
    ev.separator = separator
    epi = geometry.epi_membership_oracle(
        system, cloud, budget=config.member_budget,
        seed=derive_seed(config.seed, 5))
    ev.epi_falsify = geometry.falsify_convexity(
        epi, cloud, trials=config.falsify_trials,
        seed=derive_seed(config.seed, 6), eta=config.eta, system=system)
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
                         geometry.extract_separator(cloud, tol=config.psd_tol))
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
    box (see `_leaves_no_witness`): the PSD test's and the witness test's
    tolerances let a certificate pass beside such a counterexample, and
    a counterexample the descent finds decides Invalid.  Only exactly
    verified certificates yield ValidWithCertificate; sampled
    certificates are attached as candidates on an Undetermined verdict.
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

        witness_starts = []
        if all_quadratic:
            failure = None
            try:
                search, notes, witness_starts = certificate_stage(system,
                                                                  config)
            except SlemmaError as exc:
                failure = exc
            certified = failure is None and search.found
            if not (certified and _leaves_no_witness(
                    system, search.certificate, radius)):
                # descend, as without a search; the search's error and
                # notes wait on the descent
                if refuted(find_counterexample(system, *sample, radius)):
                    return report
                if failure is not None:
                    raise failure
            report.notes += notes
            if certified:
                report.verdict = VALID
                report.certificate = search.certificate
                return report

        if witness_starts and refuted(
                counterexample_stage(system, config, witness_starts)):
            report.notes.append("counterexample from certificate-failure witness")
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
    """Whether an ExactPSD `certificate` rules out every counterexample the
    descent could accept in [-radius, radius]^n.  f0 - sum_i alpha_i f_i =
    [x; 1]^T M(alpha) [x; 1] / 2 >= lambda_min (1 + |x|^2) / 2, so where
    every f_i >= -_WITNESS_TOL, f0 is at least that bound less
    _WITNESS_TOL sum_i alpha_i.  The PSD test admits a slightly negative
    lambda_min, and the witness test slightly negative f_i, so a
    certificate can pass beside an accepted counterexample; True only when
    this bound keeps every such f0 at or above -_WITNESS_TOL."""
    lam = certificate.lambda_min
    spread = 1.0 if lam >= 0.0 else 1.0 + system.n * radius * radius
    slack = _WITNESS_TOL * float(np.sum(certificate.alpha))
    return 0.5 * lam * spread - slack >= -_WITNESS_TOL


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
