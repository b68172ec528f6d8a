"""Counterexample search, Slater check, and the per-instance classifier.

The classifier settles each instance as far as honest evidence allows:
a re-verified counterexample proves the implication false; an exactly
verified certificate proves it true; everything else stays Undetermined,
decorated with the geometric evidence (sampled image vs. K, hull
intersection, separator, convexity falsifiers)."""

from dataclasses import dataclass, field, fields

import numpy as np

from . import certificate as cert_mod
from . import farkas as farkas_mod
from . import geometry
from .errors import DomainError, SlemmaError
from .rng import SplitMix64, derive_seed
from .search import descend, sample_and_descend
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
        vals = system.values_batch(X)[:, 1:]
        vals = np.where(np.isfinite(vals), vals, -np.inf)
        return -np.min(vals, axis=1)

    X, _ = sample_and_descend(loss, system.n, radius, samples, seed,
                              keep=10, steps=60)
    best_margin = -np.inf
    for x0 in X:
        vals = _values_or_none(system, x0)
        if vals is None:
            continue
        margin = float(np.min(vals[1:]))
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


def _values_or_none(system, x):
    try:
        vals = system.values(x)
    except DomainError:
        return None
    if not np.all(np.isfinite(vals)):
        return None
    return vals


def _verify_witness(system, x):
    vals = _values_or_none(system, x)
    if vals is None:
        return None
    min_c = float(np.min(vals[1:])) if system.p else np.inf
    if min_c >= -_WITNESS_TOL and vals[0] < -_WITNESS_TOL:
        return float(vals[0]), min_c
    return None


def find_counterexample(system, radius=10.0, samples=4096, seed=0,
                        refine_iters=80, extra_starts=None, penalty=1e3):
    """Search for x with every f_i >= 0 and f0 < 0.

    Box samples are filtered by feasibility, then a penalized descent
    minimizing f0 + penalty * sum max(0, -f_i)^2 runs from the 20 best
    seeds.  Acceptance is exact: f_i(x) >= -1e-9 for all i, f0(x) < -1e-9.
    """

    def penalized(X):
        vals = system.values_batch(X)
        finite = np.all(np.isfinite(vals), axis=1)
        if system.p:
            viol = np.maximum(-vals[:, 1:], 0.0)
            pen = np.sum(viol * viol, axis=1)
        else:
            pen = 0.0
        return np.where(finite, vals[:, 0] + penalty * pen, np.inf)

    rng = SplitMix64(seed)
    X = rng.uniform_box(radius, system.n, samples)
    vals = system.values_batch(X)
    finite = np.all(np.isfinite(vals), axis=1)
    feasible = finite & (np.all(vals[:, 1:] >= 0.0, axis=1) if system.p
                         else True)
    f0 = np.where(finite, vals[:, 0], np.inf)
    vals = np.where(np.isfinite(vals), vals, np.inf)

    closest_x = None
    closest_f0 = None
    if np.any(feasible):
        idx = int(np.argmin(np.where(feasible, f0, np.inf)))
        closest_x, closest_f0 = X[idx], float(f0[idx])

    # starts: best feasible by f0, topped up with the least infeasible
    score = np.where(feasible, f0, np.inf)
    order_feas = np.argsort(score, kind="stable")
    starts = [X[i] for i in order_feas[:20] if np.isfinite(score[i])]
    if len(starts) < 20 and system.p:
        infeas_pen = np.sum(np.maximum(-vals[:, 1:], 0.0) ** 2, axis=1)
        infeas_pen = np.where(feasible, np.inf, infeas_pen)
        order_infeas = np.argsort(infeas_pen, kind="stable")
        for i in order_infeas[: 20 - len(starts)]:
            if np.isfinite(infeas_pen[i]):
                starts.append(X[i])
    if extra_starts is not None:
        starts = list(np.atleast_2d(np.asarray(extra_starts, float))) + starts
    if not starts:
        starts = [np.zeros(system.n)]

    refined, _ = descend(penalized, np.array(starts), steps=refine_iters,
                         box_radius=radius)
    # the penalized descent may trade a whisker of feasibility for
    # objective, so the undescended starts stay in the candidate pool
    candidates = np.vstack([refined, np.array(starts)])
    best_hit = None
    for x in candidates:
        hit = _verify_witness(system, x)
        if hit is not None and (best_hit is None or hit[0] < best_hit[1]):
            best_hit = (x, hit[0], hit[1])
        vals_x = _values_or_none(system, x)
        if vals_x is not None:
            min_c = float(np.min(vals_x[1:])) if system.p else np.inf
            if min_c >= -_WITNESS_TOL and (
                    closest_f0 is None or vals_x[0] < closest_f0):
                closest_x, closest_f0 = x, float(vals_x[0])
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
    psd_tol: float = 1e-9
    lp_tol: float = 1e-9
    eta: float = 1e-3
    cloud_samples: int = 512
    falsify_trials: int = 400
    member_budget: int = 16
    alpha_max: float = 1e4
    supergradient_iters: int = 2000
    descent_steps: int = 80
    penalty: float = 1e3
    refine_rounds: int = 3

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


def _linear_data(system):
    rows = np.array([f.c for f in system.constraints]) if system.p else \
        np.zeros((0, system.n))
    offs = np.array([-f.d for f in system.constraints]) if system.p else \
        np.zeros(0)
    return farkas_mod.make_linear_system(
        a0=system.f0.c, b0=-system.f0.d, rows=rows, offsets=offs)


def _certify_quadratic(system, config, report):
    """Quadratic certificate path; returns a Certificate or None and may
    stash a counterexample witness start in the report notes."""
    witness_starts = []
    if system.is_linear() and system.p >= 1:
        data = _linear_data(system)
        result = (farkas_mod.farkas_homogeneous(data)
                  if data.mode == farkas_mod.HOMOGENEOUS
                  else farkas_mod.farkas_affine(data))
        if result.kind == farkas_mod.MULTIPLIERS:
            ver = cert_mod.verify_certificate_quadratic(
                system, result.alpha, tol=config.psd_tol)
            if ver.valid:
                report.notes.append("certificate via exact linear alternatives")
                return cert_mod.Certificate(
                    alpha=result.alpha, lambda_min=ver.lambda_min,
                    verified=cert_mod.EXACT_PSD), witness_starts
            # fall through to the generic searches on a verification miss
            report.notes.append("linear multipliers failed exact verification")
        elif result.kind == farkas_mod.ALTERNATIVE:
            witness_starts.append(result.x)
            report.notes.append("linear alternatives produced a witness")
            return None, witness_starts
        else:
            report.notes.append("linear constraint system is inconsistent")
            return None, witness_starts

    if system.p == 0:
        ver = cert_mod.verify_certificate_quadratic(system, np.zeros(0),
                                                    tol=config.psd_tol)
        if ver.valid:
            return cert_mod.Certificate(
                alpha=np.zeros(0), lambda_min=ver.lambda_min,
                verified=cert_mod.EXACT_PSD), witness_starts
        if ver.violating_x is not None:
            witness_starts.append(ver.violating_x)
        return None, witness_starts

    if system.p == 1:
        search = cert_mod.find_certificate_p1(
            system, alpha_max=config.alpha_max, tol=config.psd_tol)
    else:
        search = cert_mod.find_certificate_general(
            system, iters=config.supergradient_iters,
            seed=derive_seed(config.seed, 4), tol=config.psd_tol)
    if search.found:
        return search.certificate, witness_starts
    if search.at_boundary:
        report.notes.append(
            f"lambda_min still improving at alpha_max={config.alpha_max!r}")
    if search.best_alpha is not None:
        ver = cert_mod.verify_certificate_quadratic(
            system, search.best_alpha, tol=config.psd_tol)
        if not ver.valid and ver.violating_x is not None:
            witness_starts.append(ver.violating_x)
    return None, witness_starts


def gather_evidence(system, config, cloud, separator):
    """K members, hull, separator and the epi and conical falsifiers on
    `cloud`.  `separator` is extract_separator's result on this same cloud;
    when no separator exists its witness already is the hull answer."""
    ev = GeometryEvidence(computed=True)
    ev.cloud_size = cloud.size
    ev.k_members = int(len(geometry.cloud_k_members(cloud)))
    ev.hull = (geometry.hull_intersects_k(cloud, tol=config.lp_tol)
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


def classify_instance(system, config=None):
    """Full pipeline: Slater, counterexample search, certificate search
    (quadratic route, then separation on a fresh cloud), geometric evidence
    when nothing definitive came out.  Only exactly verified certificates
    yield ValidWithCertificate; sampled certificates are attached as
    candidates on an Undetermined verdict."""
    config = config or ClassifyConfig()
    report = InstanceReport(verdict=UNDETERMINED,
                            slater=SlaterResult(status=NOT_FOUND),
                            config=config, system=system)
    try:
        report.slater = check_slater(
            system, radius=config.box_radius, samples=config.samples // 2,
            seed=derive_seed(config.seed, 1))

        cex = find_counterexample(
            system, radius=config.box_radius, samples=config.samples,
            seed=derive_seed(config.seed, 2),
            refine_iters=config.descent_steps, penalty=config.penalty)
        if cex.found:
            _assert_image_in_k(system, cex.x)
            report.verdict = INVALID
            report.counterexample = cex
            return report

        witness_starts = []
        if system.is_quadratic:
            found, witness_starts = _certify_quadratic(system, config, report)
            if found is not None:
                report.verdict = VALID
                report.certificate = found
                return report

        if witness_starts:
            retry = find_counterexample(
                system, radius=config.box_radius, samples=config.samples,
                seed=derive_seed(config.seed, 3),
                refine_iters=config.descent_steps,
                extra_starts=np.array(witness_starts), penalty=config.penalty)
            if retry.found:
                _assert_image_in_k(system, retry.x)
                report.verdict = INVALID
                report.counterexample = retry
                report.notes.append("counterexample from certificate-failure witness")
                return report

        cloud = geometry.sample_image(
            system, config.box_radius, config.cloud_samples,
            derive_seed(config.seed, 9))
        sep = cert_mod.find_certificate_via_separation(
            system, cloud, tol=config.lp_tol,
            seed=derive_seed(config.seed, 10), rounds=config.refine_rounds)
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
