"""Multiplier certificates: search and verification.

A certificate for (f0; f1..fp) is alpha >= 0 with f0 - sum_i alpha_i f_i
nonnegative everywhere.  For all-quadratic systems that is equivalent to
positive semidefiniteness of M(alpha) = M0 - sum_i alpha_i M_i, the
bordered matrix of the combined quadratic, so verification is exact; for
expression systems only sampled verification is available.  Both are
`check_multipliers`, which every search and command uses to label a
certificate.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NumericalBreakdown, SlemmaError
from .geometry import extract_separator
from .linprog import OPTIMAL, Tableau
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


def combined_matrix(system, alpha):
    """M(alpha) = M0 - sum_i alpha_i M_i over the bordered matrices."""
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
    -tol * (1 + max|M(alpha)|), an ExactPSD certificate.  On failure the
    minimum eigenvector is dehomogenized into a violating point when its
    last coordinate allows; otherwise its leading n components are the
    direction.  `eigenpair` = (M(alpha), lambda_min, eigenvector) reuses a
    decomposition the caller already made.

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
    if check.valid:
        return check
    if abs(v[-1]) >= 1e-8:
        check.violating_x = v[:-1] / v[-1]
    else:
        check.direction = v[:-1]
    return check


@dataclass
class SearchResult:
    check: MultiplierCheck | None = None  # the best (or last) alpha's check
    outcome: str = ""          # extra detail for the separation pipeline
    alpha0: float | None = None
    witness: object = None     # Farkas route: the alternative x
    rounds: int = 0
    separation: object = None  # separation route: round-0 Separator or None
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


def find_certificate_general(system, iters=2000, seed=0, tol=PSD_RTOL):
    """Kelley's cutting-plane maximization of the concave g(alpha) =
    lambda_min(M(alpha)) over the box [0, ALPHA_MAX]^p.

    Each iterate costs one eigen decomposition, and its eigenpair (lam, v)
    gives the cut g(a) <= lam + s.(a - alpha) with s_i = -v^T M_i v.  The
    next iterate maximizes the cuts' minimum over the box, the master LP in
    (alpha, t).  One linprog.Tableau holds it for the whole search: the
    first cut's optimal basis is set in closed form, and each later cut is
    one appended row that the dual simplex re-optimizes.  The cuts' minimum
    at the new iterate, evaluated from the cuts rather than read from the
    tableau, is the LP value and an upper bound on max g.  The search
    stops at a certificate, at an upper bound below -tol * S with
    S = 1 + max|M0| + ALPHA_MAX * sum_i max|M_i| >= 1 + max|M(alpha)| on the
    box (so no alpha <= ALPHA_MAX passes; outcome NO_CERTIFICATE), when the
    bound meets the best value, or after `iters` eigen calls.  For p >= 2
    the first passing iterate is the certificate.  For p = 1 a passing
    iterate ends the search only once it reaches P1_NEAR_MAX times the
    bound, so every p = 1 certificate has lambda_min >= 0.99 * max g.
    Each improving iterate is checked by check_multipliers on the eigenpair
    already computed, and the result carries the best iterate's check.
    A master LP that the dual simplex cannot re-optimize raises
    NumericalBreakdown.  `seed` is accepted for interface stability; the
    search is deterministic."""
    if not system.is_quadratic:
        raise DimensionMismatch("cutting-plane search needs an all-quadratic system")
    if system.p < 1:
        raise DimensionMismatch("cutting-plane search needs p >= 1")
    p = system.p
    M0 = bordered_matrix(system.f0)
    borders = [bordered_matrix(f) for f in system.constraints]
    bound_scale = 1.0 + np.max(np.abs(M0)) + \
        ALPHA_MAX * sum(np.max(np.abs(B)) for B in borders)
    # variables (alpha, t), t free: maximize t under alpha_i <= ALPHA_MAX
    # and the cuts
    master = Tableau(np.concatenate([np.zeros(p), [-1.0]]), free=[p],
                     max_rows=p + iters)
    for i in range(p):
        master.add_row(np.eye(p + 1)[i], ALPHA_MAX)
    # cut k: g(a) <= lams[k] + slopes[k].(a - points[k])
    lams = np.empty(iters)
    slopes = np.empty((iters, p))
    points = np.empty((iters, p))
    alpha = np.zeros(p)
    best = None
    upper_bound = None
    outcome = ""
    for k in range(iters):
        M = _combine(M0, borders, alpha)
        lam, v = min_eigenvalue(M)
        if best is None or lam > best.lambda_min:
            best = check_multipliers(system, alpha, tol, eigenpair=(M, lam, v))
            if p > 1 and best.valid:
                break
        s = np.array([-(v @ B @ v) for B in borders])
        lams[k], slopes[k], points[k] = lam, s, alpha
        # t - s.a <= lam - s.alpha
        row = master.add_row(np.concatenate([-s, [1.0]]), lam - s @ alpha)
        if row == p:
            # the first cut's optimum: t on the cut, alpha_i = ALPHA_MAX
            # where s_i > 0 and 0 elsewhere
            for i in np.flatnonzero(s > 0):
                master.pivot(i, i)
            master.pivot(row, p)
        status = master.dual_simplex()
        if status != OPTIMAL:
            raise NumericalBreakdown(f"certificate master LP: {status}")
        y = master.solution()
        alpha = np.clip(y[:p], 0.0, ALPHA_MAX)
        # the tableau's t cancels terms as large as ALPHA_MAX * |s|, which
        # can leave it ulps under the best lambda_min; a cut evaluated at
        # its own point gives back its lam exactly
        upper_bound = float(np.min(lams[:k + 1] + np.einsum(
            "ij,ij->i", slopes[:k + 1], alpha - points[:k + 1])))
        if upper_bound < -tol * bound_scale:
            outcome = NO_CERTIFICATE
            break
        if upper_bound - best.lambda_min <= -best.threshold:
            break
        if best.valid and best.lambda_min >= P1_NEAR_MAX * upper_bound:
            break       # p = 1 only: a passing p >= 2 iterate broke above
    return SearchResult(check=best, upper_bound=upper_bound, outcome=outcome)


def find_certificate_p1(system, tol=PSD_RTOL):
    """The cutting-plane search on a p = 1 system, capped at 200 eigen
    calls."""
    if system.p != 1:
        raise DimensionMismatch(f"p=1 search on a system with p={system.p}")
    return find_certificate_general(system, iters=200, tol=tol)


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
    cloud and repeat (at most REFINE_ROUNDS extra rounds).  The result carries
    the round-0 separator on `cloud` itself, so the evidence step need not
    solve that LP again."""
    work = cloud
    check = None
    for round_idx in range(REFINE_ROUNDS + 1):
        sep = extract_separator(work, tol)
        if round_idx == 0:
            first = sep
        if sep is None:
            return SearchResult(outcome=NO_SEPARATOR, rounds=round_idx,
                                separation=first)
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
        work = work.extended(np.array(pts), np.array(sources))
    return SearchResult(check=check, outcome=REFINEMENT_EXHAUSTED,
                        rounds=REFINE_ROUNDS + 1, separation=first)
