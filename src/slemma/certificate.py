"""Multiplier certificates: search and verification.

A certificate for (f0; f1..fp) is alpha >= 0 with f0 - sum_i alpha_i f_i
nonnegative everywhere.  For all-quadratic systems that is equivalent to
positive semidefiniteness of M(alpha) = M0 - sum_i alpha_i M_i, the
bordered matrix of the combined quadratic, so verification is exact; for
expression systems only sampled verification is available.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NumericalBreakdown, SlemmaError
from .geometry import extract_separator
from .linprog import OPTIMAL, LinearProgram, solve_lp
from .quadratic import PSD_RTOL, bordered_matrix, min_eigenvalue
from .rng import derive_seed
from .search import sample_and_descend

EXACT_PSD = "ExactPSD"
SAMPLED_ONLY = "SampledOnly"
FAILED = "Failed"

SAMPLED_FLOOR = -1e-6
SLATER_ALPHA0_MIN = 1e-8
REFINE_ROUNDS = 3
P1_NEAR_MAX = 0.99    # a p = 1 certificate is within 1% of the upper bound


class NegativeMultiplier(SlemmaError):
    """A multiplier vector with a negative or non-finite entry."""


def _multipliers(alpha):
    alpha = np.asarray(alpha, dtype=float).ravel()
    if np.any(~np.isfinite(alpha) | (alpha < 0)):
        raise NegativeMultiplier(
            f"alpha must be finite and nonnegative: {alpha}")
    return alpha


@dataclass
class Certificate:
    alpha: np.ndarray
    lambda_min: float | None
    verified: str

    def __post_init__(self):
        self.alpha = _multipliers(self.alpha)


def _check_alpha(system, alpha):
    alpha = np.asarray(alpha, dtype=float).ravel()
    if alpha.shape != (system.p,):
        raise DimensionMismatch(
            f"alpha has length {alpha.shape[0]}, system has p={system.p}"
        )
    return _multipliers(alpha)


def combined_matrix(system, alpha):
    """M(alpha) = M0 - sum_i alpha_i M_i over the bordered matrices."""
    M = bordered_matrix(system.f0)
    for a, f in zip(alpha, system.constraints):
        M = M - a * bordered_matrix(f)
    return M


@dataclass
class QuadraticVerification:
    valid: bool
    lambda_min: float
    direction: np.ndarray            # eigenvector of the smallest eigenvalue
    violating_x: np.ndarray | None   # dehomogenized witness when available

    @property
    def homogeneous_direction(self):
        return None if self.violating_x is not None else self.direction[:-1]


def verify_certificate_quadratic(system, alpha, tol=PSD_RTOL):
    """Exact PSD test of M(alpha) for an all-quadratic system.

    On failure the minimum eigenvector is dehomogenized into a violating
    point when its last coordinate allows; otherwise the leading n
    components give a direction along which the combination diverges to
    -infinity."""
    if not system.is_quadratic:
        raise DimensionMismatch("exact verification needs an all-quadratic system")
    alpha = _check_alpha(system, alpha)
    M = combined_matrix(system, alpha)
    lam, v = min_eigenvalue(M)
    scale = 1.0 + np.max(np.abs(M))
    if lam >= -tol * scale:
        return QuadraticVerification(valid=True, lambda_min=lam, direction=v,
                                     violating_x=None)
    x = v[:-1] / v[-1] if abs(v[-1]) >= 1e-8 else None
    return QuadraticVerification(valid=False, lambda_min=lam, direction=v,
                                 violating_x=x)


@dataclass
class SampledVerification:
    violated: bool
    x: np.ndarray | None
    value: float                 # refined minimum of f0 - sum alpha_i f_i
    samples: int


def verify_certificate_sampled(system, alpha, radius=10.0, samples=4096,
                               seed=0):
    """Sampled surrogate: minimize g = f0 - sum alpha_i f_i over the box
    plus descent from the 10 smallest samples; a refined value below -1e-6
    is a violation."""
    alpha = _check_alpha(system, alpha)
    weights = np.concatenate([[1.0], -alpha])

    def loss(X):
        return system.values_batch(X) @ weights

    X, vals = sample_and_descend(loss, system.n, radius, samples, seed,
                                 keep=10, steps=80)
    value = float(vals[0])
    if value < SAMPLED_FLOOR:
        return SampledVerification(violated=True, x=X[0], value=value,
                                   samples=samples)
    return SampledVerification(violated=False, x=None, value=value,
                               samples=samples)


@dataclass
class SearchResult:
    certificate: Certificate | None = None
    best_alpha: np.ndarray | None = None
    best_lambda_min: float | None = None
    outcome: str = ""          # extra detail for the separation pipeline
    alpha0: float | None = None
    witness: object = None
    rounds: int = 0
    separation: object = None  # separation route: round-0 SeparatorResult
    upper_bound: float | None = None  # cutting planes: bound on max g

    @property
    def found(self):
        return self.certificate is not None


def find_certificate_general(system, iters=2000, seed=0, tol=PSD_RTOL,
                             alpha_max=1e4):
    """Kelley's cutting-plane maximization of the concave g(alpha) =
    lambda_min(M(alpha)) over the box [0, alpha_max]^p.

    Each iterate costs one eigen decomposition, and its eigenpair (lam, v)
    gives the cut g(a) <= lam + s.(a - alpha) with s_i = -v^T M_i v.  The
    next iterate maximizes the cuts' minimum over the box (an LP in p + 1
    variables), and that LP value is an upper bound on max g.  The search
    stops at a certificate, at an upper bound below -tol * S with
    S = 1 + max|M0| + alpha_max * sum_i max|M_i| >= 1 + max|M(alpha)| on the
    box (so no alpha <= alpha_max passes; outcome NO_CERTIFICATE), when the
    bound meets the best value, or after `iters` eigen calls.  For p >= 2
    the first passing iterate is the certificate.  For p = 1 a passing
    iterate ends the search only once it reaches P1_NEAR_MAX times the
    bound, so every p = 1 certificate has lambda_min >= 0.99 * max g.
    `seed` is accepted for interface stability; the search is
    deterministic."""
    if not system.is_quadratic:
        raise DimensionMismatch("cutting-plane search needs an all-quadratic system")
    if system.p < 1:
        raise DimensionMismatch("cutting-plane search needs p >= 1")
    p = system.p
    borders = [bordered_matrix(f) for f in system.constraints]
    bound_scale = 1.0 + np.max(np.abs(bordered_matrix(system.f0))) + \
        alpha_max * sum(np.max(np.abs(B)) for B in borders)
    lower = np.concatenate([np.zeros(p), [-np.inf]])
    upper = np.concatenate([np.full(p, float(alpha_max)), [np.inf]])
    objective = np.concatenate([np.zeros(p), [-1.0]])     # maximize t
    cuts, rhs = [], []
    alpha = np.zeros(p)
    best_alpha, best_g, best_scale = alpha, -np.inf, 1.0
    upper_bound = None
    outcome = ""
    for _ in range(iters):
        M = combined_matrix(system, alpha)
        lam, v = min_eigenvalue(M)
        if lam > best_g:
            best_alpha, best_g = alpha, lam
            best_scale = 1.0 + np.max(np.abs(M))
            if p > 1 and best_g >= -tol * best_scale:
                break
        s = np.array([-(v @ B @ v) for B in borders])
        cuts.append(np.concatenate([-s, [1.0]]))    # t - s.a <= lam - s.alpha
        rhs.append(lam - s @ alpha)
        lp = solve_lp(LinearProgram(objective, a_ub=np.array(cuts), b_ub=rhs,
                                    lower=lower, upper=upper))
        if lp.status != OPTIMAL:
            raise NumericalBreakdown(f"certificate master LP: {lp.status}")
        upper_bound = -lp.objective
        if upper_bound < -tol * bound_scale:
            outcome = NO_CERTIFICATE
            break
        if upper_bound - best_g <= tol * best_scale:
            break
        if best_g >= max(-tol * best_scale, P1_NEAR_MAX * upper_bound):
            break       # p = 1 only: a passing p >= 2 iterate broke above
        alpha = np.clip(lp.y[:p], 0.0, alpha_max)
    result = SearchResult(best_alpha=best_alpha, best_lambda_min=best_g,
                          upper_bound=upper_bound, outcome=outcome)
    if best_g >= -tol * best_scale:
        result.certificate = Certificate(alpha=best_alpha, lambda_min=best_g,
                                         verified=EXACT_PSD)
    return result


def find_certificate_p1(system, alpha_max=1e4, tol=PSD_RTOL, iters=200):
    """The cutting-plane search on a p = 1 system, capped at `iters` eigen
    calls."""
    if system.p != 1:
        raise DimensionMismatch(f"p=1 search on a system with p={system.p}")
    return find_certificate_general(system, iters=iters, tol=tol,
                                    alpha_max=alpha_max)


def format_certificate(certificate):
    """Text form consumed by `slemma verify --certificate`:

        alpha = [0.5, 1.25]
        lambda_min = 0.003
        verified = ExactPSD
    """
    alpha = ", ".join(repr(float(a)) for a in certificate.alpha)
    lam = ("none" if certificate.lambda_min is None
           else repr(float(certificate.lambda_min)))
    return (f"alpha = [{alpha}]\n"
            f"lambda_min = {lam}\n"
            f"verified = {certificate.verified}\n")


def parse_certificate(text):
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
        lambda_min = None if lam == "none" else float(lam)
        verified = fields.get("verified", FAILED)
    except (KeyError, ValueError) as exc:
        raise ValueError(f"malformed certificate text: {exc}") from exc
    return Certificate(alpha=alpha, lambda_min=lambda_min, verified=verified)


FOUND = "found"
NO_SEPARATOR = "no_separator"
SLATER_BLOCKED = "slater_blocked"
REFINEMENT_EXHAUSTED = "refinement_exhausted"
NO_CERTIFICATE = "no_certificate"    # cutting planes: absence proven


def _witness_sources(system, verification):
    """Points to cut a failed separator out of the cloud."""
    xs = []
    if verification.violating_x is not None:
        x = verification.violating_x
        xs.extend([x, 2.0 * x, 0.5 * x])
    else:
        w = verification.direction[:-1]
        norm = np.linalg.norm(w)
        if norm > 0:
            w = w / norm
            xs.extend([t * w for t in (1.0, 10.0, 100.0)])
    return xs


def find_certificate_via_separation(system, cloud, tol=1e-9, seed=0,
                                    rounds=REFINE_ROUNDS):
    """Certificate extraction along the separation route.

    Separate the cloud from K, require alpha_0 away from zero (the Slater
    guard), divide through by alpha_0, verify, and on verification failure
    cut the failed direction into the cloud and repeat (at most `rounds`
    extra rounds).  The result carries the round-0 separator on `cloud`
    itself, so the evidence step need not solve that LP again."""
    work = cloud
    last_alpha = None
    first = None
    for round_idx in range(rounds + 1):
        sep = extract_separator(work, tol)
        if first is None:
            first = sep
        if not sep.found:
            return SearchResult(outcome=NO_SEPARATOR, witness=sep.witness,
                                rounds=round_idx, separation=first)
        alpha_full = sep.separator.alpha
        if alpha_full[0] < SLATER_ALPHA0_MIN:
            return SearchResult(outcome=SLATER_BLOCKED,
                                alpha0=float(alpha_full[0]),
                                rounds=round_idx, separation=first)
        alpha = alpha_full[1:] / alpha_full[0]
        last_alpha = alpha
        if system.is_quadratic:
            ver = verify_certificate_quadratic(system, alpha)
            if ver.valid:
                cert = Certificate(alpha=alpha, lambda_min=ver.lambda_min,
                                   verified=EXACT_PSD)
                return SearchResult(certificate=cert, outcome=FOUND,
                                    best_alpha=alpha,
                                    best_lambda_min=ver.lambda_min,
                                    rounds=round_idx, separation=first)
            new_sources = _witness_sources(system, ver)
        else:
            ver = verify_certificate_sampled(
                system, alpha, radius=cloud.box_radius,
                seed=derive_seed(seed, 100 + round_idx))
            if not ver.violated:
                cert = Certificate(alpha=alpha, lambda_min=None,
                                   verified=SAMPLED_ONLY)
                return SearchResult(certificate=cert, outcome=FOUND,
                                    best_alpha=alpha, rounds=round_idx,
                                    separation=first)
            new_sources = [ver.x]
        fresh = [x for x in new_sources
                 if np.all(np.isfinite(system.image_point(x)))]
        if not fresh:
            break
        pts = np.array([system.image_point(x) for x in fresh])
        work = work.extended(pts, np.array(fresh))
    return SearchResult(outcome=REFINEMENT_EXHAUSTED, best_alpha=last_alpha,
                        rounds=rounds + 1, separation=first)
