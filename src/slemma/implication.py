"""Counterexample search, Slater check, the stages and the classifier.

The classifier settles each instance as far as honest evidence allows:
a re-verified counterexample proves the implication false; an exactly
verified certificate proves it true; everything else stays Undetermined,
decorated with the geometric evidence (sampled image vs. K, hull
intersection, separator, convexity falsifiers).  Each stage is one
function that maps the config to its arguments and owns its seed stream;
the CLI's single-stage commands call the same functions."""

from dataclasses import dataclass, field, fields

import numpy as np

from . import certificate as cert_mod
from . import farkas as farkas_mod
from . import geometry
from .errors import NotConverged, NumericalBreakdown, SlemmaError
from .rng import SplitMix64, derive_seed
from .search import all_finite, descend, sample_and_descend, smallest
from .systems import FunctionSystem

SLATER_POINT = "SlaterPoint"
NOT_FOUND = "NotFound"

VALID = "ValidWithCertificate"
INVALID = "InvalidWithCounterexample"
UNDETERMINED = "Undetermined"

_SLATER_MIN = 1e-9
_WITNESS_TOL = 1e-9


@dataclass
class SlaterResult:
    status: str
    x0: np.ndarray | None = None
    min_constraint_value: float | None = None

    @property
    def found(self):
        return self.status == SLATER_POINT


def check_slater(system, radius=10.0, samples=2048, seed=0):
    """Point with every constraint strictly positive (min f_i > 1e-9).

    p = 0 is vacuously Slater at the origin."""
    if system.p == 0:
        return SlaterResult(status=SLATER_POINT, x0=np.zeros(system.n),
                            min_constraint_value=np.inf)

    def loss(X):
        # -min_i f_i, whose gradient is that of the first least f_i
        vals, grads = system.values_and_gradients(X, first=1)
        if not all_finite(vals):
            vals = np.where(np.isfinite(vals), vals, -np.inf)
        rows, least = np.arange(X.shape[0]), np.argmin(vals, axis=1)
        return -vals[rows, least], -grads[rows, least]

    X, _ = sample_and_descend(loss, system.n, radius, samples, seed,
                              keep=10, steps=60)
    best_margin = -np.inf
    # the constraints alone, as in the loss: f0 need not be defined
    for x0, vals in zip(X, system.values_batch(X, first=1)):
        if not all_finite(vals):
            continue
        margin = float(np.min(vals))
        if margin > _SLATER_MIN:
            return SlaterResult(status=SLATER_POINT, x0=x0,
                                min_constraint_value=margin)
        best_margin = max(best_margin, margin)
    return SlaterResult(status=NOT_FOUND, x0=None,
                        min_constraint_value=best_margin)


@dataclass
class CounterexampleResult:
    found: bool
    x: np.ndarray | None = None
    f0_value: float | None = None
    min_constraint: float | None = None
    closest_miss_x: np.ndarray | None = None
    closest_miss_f0: float | None = None


def find_counterexample(system, radius=10.0, samples=4096, seed=0,
                        extra_starts=None, penalty=1e3):
    """Search for x with every f_i >= 0 and f0 < 0.

    Box samples are filtered by feasibility, then an 80-step penalized
    descent minimizing f0 + penalty * sum max(0, -f_i)^2 runs from the 20
    best seeds.  Acceptance is exact: f_i(x) >= -1e-9 for all i, f0(x) < -1e-9.
    """

    def penalized(X):
        # gradient: grad f0 - 2 penalty sum_i max(0, -f_i) grad f_i
        vals, grads = system.values_and_gradients(X)
        weights = np.ones_like(vals)
        pen = 0.0
        if system.p:
            viol = -vals[:, 1:]
            np.maximum(viol, 0.0, out=viol)
            np.multiply(viol, -2.0 * penalty, out=weights[:, 1:])
            viol *= viol
            pen = np.add.reduce(viol, axis=1)
        value = vals[:, 0] + penalty * pen
        if not all_finite(vals):
            out = ~np.isfinite(vals).all(1)
            value[out], weights[out] = np.inf, 0.0
        return value, np.einsum("ij,ijk->ik", weights, grads)

    rng = SplitMix64(seed)
    X = rng.uniform_box(radius, system.n, samples)
    vals = system.values_batch(X)
    finite = np.all(np.isfinite(vals), axis=1)
    feasible = finite & (np.all(vals[:, 1:] >= 0.0, axis=1) if system.p
                         else True)
    f0 = np.where(finite, vals[:, 0], np.inf)

    closest_x = None
    closest_f0 = None
    if np.any(feasible):
        idx = int(np.argmin(np.where(feasible, f0, np.inf)))
        closest_x, closest_f0 = X[idx], float(f0[idx])

    # starts: best feasible by f0, topped up with the least infeasible
    score = np.where(feasible, f0, np.inf)
    starts = [X[i] for i in smallest(score, 20) if np.isfinite(score[i])]
    if len(starts) < 20 and system.p:
        # out-of-domain rows score +inf, like feasible ones
        infeas_pen = np.sum(np.maximum(-vals[:, 1:], 0.0) ** 2, axis=1)
        infeas_pen = np.where(finite & ~feasible, infeas_pen, np.inf)
        for i in smallest(infeas_pen, 20 - len(starts)):
            if np.isfinite(infeas_pen[i]):
                starts.append(X[i])
    if extra_starts is not None:
        starts = list(np.atleast_2d(np.asarray(extra_starts, float))) + starts
    if not starts:
        starts = [np.zeros(system.n)]

    refined, _ = descend(penalized, np.array(starts), steps=80,
                         box_radius=radius)
    # the penalized descent may trade a whisker of feasibility for
    # objective, so the undescended starts stay in the candidate pool
    candidates = np.vstack([refined, np.array(starts)])
    best_hit = None
    for x, vals_x in zip(candidates, system.values_batch(candidates)):
        if not all_finite(vals_x):
            continue
        min_c = float(vals_x[1:].min()) if system.p else np.inf
        if min_c < -_WITNESS_TOL:
            continue
        value = float(vals_x[0])
        if value < -_WITNESS_TOL and (best_hit is None or value < best_hit[1]):
            best_hit = (x, value, min_c)
        if closest_f0 is None or value < closest_f0:
            closest_x, closest_f0 = x, value
    if best_hit is not None:
        x, value, min_c = best_hit
        return CounterexampleResult(found=True, x=x, f0_value=value,
                                    min_constraint=min_c,
                                    closest_miss_x=closest_x,
                                    closest_miss_f0=closest_f0)
    return CounterexampleResult(found=False, closest_miss_x=closest_x,
                                closest_miss_f0=closest_f0)


@dataclass
class ClassifyConfig:
    """Every knob the classifier uses; echoed verbatim into reports."""

    box_radius: float = 10.0
    samples: int = 4096
    seed: int = 1
    psd_tol: float = 1e-9   # the one tolerance: PSD test, LPs, --tol
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
    separator: geometry.SeparatorResult | None = None
    epi_falsify: geometry.FalsifyResult | None = None
    conical_falsify: geometry.FalsifyResult | None = None


@dataclass
class InstanceReport:
    verdict: str
    slater: SlaterResult
    certificate: cert_mod.Certificate | None = None
    counterexample: CounterexampleResult | None = None
    candidate_certificate: cert_mod.Certificate | None = None
    evidence: GeometryEvidence = field(default_factory=GeometryEvidence)
    config: ClassifyConfig = field(default_factory=ClassifyConfig)
    notes: list = field(default_factory=list)
    system: FunctionSystem | None = None


def counterexample_stage(system, config, extra_starts=None):
    """find_counterexample on stream 2, or on stream 3 for the retry that
    also descends from `extra_starts`."""
    return find_counterexample(
        system, radius=config.box_radius, samples=config.samples,
        seed=derive_seed(config.seed, 2 if extra_starts is None else 3),
        extra_starts=extra_starts)


def certificate_stage(system, config):
    """Certificate search on an all-quadratic system: exact Farkas when
    every function is affine, the PSD test of M0 at p = 0, cutting planes
    otherwise (find_certificate_p1 at p = 1, stream 4 at p >= 2).  Returns
    (search, notes, witness_starts), the starts being points that violate
    a failed certificate, for the counterexample retry.  A Farkas
    alternative is also the search's `witness`."""
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
            system, iters=config.supergradient_iters,
            seed=derive_seed(config.seed, 4), tol=config.psd_tol)
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
    `cloud`.  `separator` is extract_separator's result on this same cloud;
    when no separator exists its witness already is the hull answer."""
    ev = GeometryEvidence(computed=True)
    ev.cloud_size = cloud.size
    ev.k_members = int(len(geometry.cloud_k_members(cloud)))
    ev.hull = (geometry.hull_intersects_k(cloud, tol=config.psd_tol)
               if separator.found else separator.witness)
    ev.separator = separator
    epi = geometry.epi_membership_oracle(
        system, cloud, budget=config.member_budget,
        seed=derive_seed(config.seed, 5))
    ev.epi_falsify = geometry.falsify_convexity(
        epi, cloud, trials=config.falsify_trials,
        seed=derive_seed(config.seed, 6), eta=config.eta, system=system,
        budget=config.member_budget)
    conical = geometry.conical_membership_oracle(
        system, cloud, budget=config.member_budget,
        seed=derive_seed(config.seed, 7))
    ev.conical_falsify = geometry.falsify_convexity(
        conical, cloud, trials=max(1, config.falsify_trials // 10),
        seed=derive_seed(config.seed, 8), eta=config.eta, system=system,
        budget=config.member_budget)
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
        seed=derive_seed(config.seed, 12), eta=config.eta, system=system,
        budget=config.member_budget)
    return cloud, ev, image_falsify


def classify_instance(system, config=None):
    """Full pipeline: Slater, counterexample search, certificate search
    (quadratic route, then separation on a fresh cloud), geometric evidence
    when nothing definitive came out.  Only exactly verified certificates
    yield ValidWithCertificate; sampled certificates are attached as
    candidates on an Undetermined verdict.  A numerical failure
    (NumericalBreakdown, NotConverged) propagates; any other toolkit error
    ends the run Undetermined with a `stage failure:` note."""
    config = config or ClassifyConfig()
    report = InstanceReport(verdict=UNDETERMINED,
                            slater=SlaterResult(status=NOT_FOUND),
                            config=config, system=system)
    try:
        report.slater = check_slater(
            system, radius=config.box_radius,
            samples=max(1, config.samples // 2),
            seed=derive_seed(config.seed, 1))

        cex = counterexample_stage(system, config)
        if cex.found:
            _assert_image_in_k(system, cex.x)
            report.verdict = INVALID
            report.counterexample = cex
            return report

        witness_starts = []
        if system.is_quadratic:
            search, notes, witness_starts = certificate_stage(system, config)
            report.notes += notes
            if search.found:
                report.verdict = VALID
                report.certificate = search.certificate
                return report

        if witness_starts:
            retry = counterexample_stage(system, config, witness_starts)
            if retry.found:
                _assert_image_in_k(system, retry.x)
                report.verdict = INVALID
                report.counterexample = retry
                report.notes.append("counterexample from certificate-failure witness")
                return report

        cloud = image_cloud(system, config)
        sep = separation_stage(system, config, cloud)
        if sep.found:
            if sep.certificate.verified == cert_mod.EXACT_PSD:
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
        _assert_exclusive(report, system)


def _assert_image_in_k(system, x):
    """Theorem 2 Eq. (1) at the witness: z(x) must land in K."""
    z = system.image_point(x)
    if not geometry.cone_k_member(z, strict_tol=1e-9):
        raise AssertionError(
            f"counterexample witness image {z} escaped the cone test"
        )


def _assert_exclusive(report, system):
    """(C) implies (I): a verified certificate and a verified counterexample
    can never coexist in one report."""
    if report.certificate is None or report.counterexample is None:
        return
    if (report.certificate.verified == cert_mod.EXACT_PSD
            and report.counterexample.found):
        raise AssertionError("report holds both a certificate and a counterexample")
