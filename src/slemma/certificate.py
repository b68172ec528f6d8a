"""Multiplier certificates: search and verification.

A certificate for (f0; f1..fp) is alpha >= 0 with f0 - sum_i alpha_i f_i
nonnegative everywhere.  For all-quadratic systems that is equivalent to
positive semidefiniteness of M(alpha) = M0 - sum_i alpha_i M_i, the
bordered matrix of the combined quadratic, so verification is exact; for
expression systems only sampled verification is available.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, SlemmaError
from .geometry import extract_separator
from .quadratic import PSD_RTOL, bordered_matrix, min_eigenvalue
from .rng import derive_seed
from .search import sample_and_descend

EXACT_PSD = "ExactPSD"
SAMPLED_ONLY = "SampledOnly"
FAILED = "Failed"

SAMPLED_FLOOR = -1e-6
SLATER_ALPHA0_MIN = 1e-8
REFINE_ROUNDS = 3


class NegativeMultiplier(SlemmaError):
    """A multiplier vector with a negative entry."""


@dataclass
class Certificate:
    alpha: np.ndarray
    lambda_min: float | None
    verified: str

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=float).ravel()
        if np.any(self.alpha < 0):
            raise NegativeMultiplier(f"alpha must be nonnegative: {self.alpha}")


def _check_alpha(system, alpha):
    alpha = np.asarray(alpha, dtype=float).ravel()
    if alpha.shape != (system.p,):
        raise DimensionMismatch(
            f"alpha has length {alpha.shape[0]}, system has p={system.p}"
        )
    if np.any(alpha < 0):
        raise NegativeMultiplier(f"alpha must be nonnegative: {alpha}")
    return alpha


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
    at_boundary: bool = False
    outcome: str = ""          # extra detail for the separation pipeline
    alpha0: float | None = None
    witness: object = None
    rounds: int = 0
    separation: object = None  # separation route: round-0 SeparatorResult

    @property
    def found(self):
        return self.certificate is not None


def _p1_value(system, a):
    M = combined_matrix(system, [a])
    lam, _ = min_eigenvalue(M)
    return lam, 1.0 + np.max(np.abs(M))


def find_certificate_p1(system, alpha_max=1e4, tol=PSD_RTOL, iters=200):
    """Golden-section maximization of lambda_min(M(alpha)) on [0, alpha_max].

    lambda_min(M(alpha)) is concave in alpha (a pointwise infimum of affine
    functions), so the section search is exact up to interval width."""
    if system.p != 1:
        raise DimensionMismatch(f"p=1 search on a system with p={system.p}")
    if not system.is_quadratic:
        raise DimensionMismatch("p=1 search needs an all-quadratic system")
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    lo, hi = 0.0, float(alpha_max)
    best_a, (best_g, best_scale) = lo, _p1_value(system, lo)
    g_hi, scale_hi = _p1_value(system, hi)
    if g_hi > best_g:
        best_a, best_g, best_scale = hi, g_hi, scale_hi
    x1 = hi - inv_phi * (hi - lo)
    x2 = lo + inv_phi * (hi - lo)
    g1, s1 = _p1_value(system, x1)
    g2, s2 = _p1_value(system, x2)
    for _ in range(iters):
        for a, g, s in ((x1, g1, s1), (x2, g2, s2)):
            if g > best_g:
                best_a, best_g, best_scale = a, g, s
        if hi - lo < 1e-12 * (1.0 + alpha_max):
            break
        if g1 >= g2:
            hi, x2, g2, s2 = x2, x1, g1, s1
            x1 = hi - inv_phi * (hi - lo)
            g1, s1 = _p1_value(system, x1)
        else:
            lo, x1, g1, s1 = x1, x2, g2, s2
            x2 = lo + inv_phi * (hi - lo)
            g2, s2 = _p1_value(system, x2)
    if best_g >= -tol * best_scale:
        cert = Certificate(alpha=np.array([best_a]), lambda_min=best_g,
                           verified=EXACT_PSD)
        return SearchResult(certificate=cert, best_alpha=np.array([best_a]),
                            best_lambda_min=best_g)
    # still climbing at the right endpoint means alpha_max was the binding
    # limit, not the concave maximum
    g_end, _ = _p1_value(system, alpha_max)
    g_in, _ = _p1_value(system, alpha_max * (1.0 - 1e-6))
    boundary = g_end >= g_in and abs(best_a - alpha_max) <= 1e-6 * alpha_max
    return SearchResult(best_alpha=np.array([best_a]), best_lambda_min=best_g,
                        at_boundary=bool(boundary))


def find_certificate_general(system, iters=2000, seed=0, tol=PSD_RTOL):
    """Projected supergradient ascent on the concave g(alpha) =
    lambda_min(M(alpha)) over the nonnegative orthant.

    The supergradient component i is -v^T M_i v with v the minimum
    eigenvector; steps are a_0 / sqrt(k) with a_0 = 1/(1 + max_i ||M_i||);
    negatives are clamped to zero.  The best iterate is kept since the
    ascent is not monotone."""
    if not system.is_quadratic:
        raise DimensionMismatch("supergradient search needs an all-quadratic system")
    if system.p < 1:
        raise DimensionMismatch("supergradient search needs p >= 1")
    borders = [bordered_matrix(f) for f in system.constraints]
    a0 = 1.0 / (1.0 + max(np.max(np.abs(B)) for B in borders))
    alpha = np.zeros(system.p)
    best_alpha = alpha.copy()
    best_g = -np.inf
    best_scale = 1.0
    for k in range(1, iters + 1):
        M = combined_matrix(system, alpha)
        lam, v = min_eigenvalue(M)
        scale = 1.0 + np.max(np.abs(M))
        if lam > best_g:
            best_g = lam
            best_alpha = alpha.copy()
            best_scale = scale
            if best_g >= -tol * best_scale:
                break
        grad = np.array([-(v @ B @ v) for B in borders])
        alpha = np.maximum(alpha + (a0 / np.sqrt(k)) * grad, 0.0)
    if best_g >= -tol * best_scale:
        cert = Certificate(alpha=best_alpha, lambda_min=best_g,
                           verified=EXACT_PSD)
        return SearchResult(certificate=cert, best_alpha=best_alpha,
                            best_lambda_min=best_g)
    return SearchResult(best_alpha=best_alpha, best_lambda_min=best_g)


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
