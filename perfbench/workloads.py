"""The four benchmark workloads: input generation, the timed operation, and
an output check that does not rely on the code under test.

Each workload is a pool of operations built from the seed (the corpus files
are the one input the seed does not make), run `passes` times; both are
fixed by --seconds, so the amount of work, and with it every count, does
not depend on how fast the code runs.  `run` is the only timed call;
`check` re-derives what it can with plain numpy and returns a fingerprint
of the output, so repeated and traced runs can be compared byte for byte.
"""

import io
import json
from pathlib import Path

import numpy as np

from slemma import certificate, cli, geometry, implication, report
from slemma.implication import INVALID, UNDETERMINED, VALID, ClassifyConfig
from slemma.quadratic import QuadraticFunction
from slemma.rng import derive_seed
from slemma.systems import FunctionSystem

# The acceptance rules the toolkit documents for its own verdicts.
WITNESS_TOL = 1e-9
PSD_RTOL = 1e-9
ENDPOINT_RTOL = 1e-10

EXIT_CODES = {VALID: 0, INVALID: 0, UNDETERMINED: 2}


class CheckFailed(Exception):
    """An output that the benchmark's own check rejects."""


def _rng(seed, stream):
    return np.random.default_rng(np.random.SeedSequence([int(seed), stream]))


def _random_coefficients(rng, n):
    """(Q, c, d) with entries of raw Q, c and d uniform in [-1, 1] and
    Q = raw + raw^T, as acceptance criterion 2 draws them."""
    raw = rng.uniform(-1.0, 1.0, (n, n))
    return raw + raw.T, rng.uniform(-1.0, 1.0, n), float(rng.uniform(-1.0, 1.0))


def _bordered(coef):
    Q, c, d = coef
    n = c.shape[0]
    M = np.empty((n + 1, n + 1))
    M[:n, :n] = Q
    M[:n, n] = c
    M[n, :n] = c
    M[n, n] = 2.0 * d
    return M


def _value(coef, x):
    Q, c, d = coef
    return 0.5 * x @ Q @ x + c @ x + d


def _system(coefs):
    funcs = [QuadraticFunction(Q, c, d) for Q, c, d in coefs]
    return FunctionSystem(coefs[0][1].shape[0], funcs[0], tuple(funcs[1:]))


def _check_certificate(coefs, alpha):
    """M(alpha) = M0 - sum alpha_i M_i must pass
    lambda_min >= -1e-9 * (1 + max|M|) under numpy's eigvalsh."""
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (len(coefs) - 1,) or np.any(alpha < 0):
        raise CheckFailed(f"malformed multipliers {alpha!r}")
    M = _bordered(coefs[0])
    for a, coef in zip(alpha, coefs[1:]):
        M = M - a * _bordered(coef)
    lam = float(np.linalg.eigvalsh(M)[0])
    if lam < -PSD_RTOL * (1.0 + np.max(np.abs(M))):
        raise CheckFailed(f"certificate {alpha!r} fails: lambda_min {lam!r}")


def _check_counterexample(coefs, x):
    x = np.asarray(x, dtype=float)
    vals = [_value(coef, x) for coef in coefs]
    if min(vals[1:]) < -WITNESS_TOL or vals[0] >= -WITNESS_TOL:
        raise CheckFailed(f"counterexample {x!r} fails: values {vals!r}")


def _hex(array):
    return np.asarray(array, dtype=float).tobytes().hex()


class Corpus:
    """`slemma classify` on each bundled corpus file, in process."""

    name = "corpus"

    def __init__(self, root, seed, seconds):
        corpus = Path(root) / "src" / "slemma" / "corpus"
        with open(corpus / "expected_verdicts.json", encoding="utf-8") as fh:
            expected = json.load(fh)
        self.pool = [(str(corpus / name), verdict)
                     for name, verdict in sorted(expected.items())]
        self.passes = max(2, round(seconds / 2.5))
        self.probes_per_op = 4      # operations take ~130 ms on average

    @staticmethod
    def run(item):
        out, err = io.StringIO(), io.StringIO()
        code = cli.main(["classify", item[0]], out=out, err=err)
        return code, out.getvalue()

    @staticmethod
    def check(item, result):
        code, text = result
        verdicts = [line.split(": ", 1)[1] for line in text.splitlines()
                    if line.startswith("verdict: ")]
        if verdicts != [item[1]] or code != EXIT_CODES[item[1]]:
            raise CheckFailed(f"{Path(item[0]).name}: verdict {verdicts} "
                              f"exit {code}, expected {item[1]}")
        return text, item[1] != UNDETERMINED


class P1Random:
    """`classify_instance` with the default config on random p=1
    all-quadratic instances; n cycles through 1..4."""

    name = "p1_random"
    passes = 10
    probes_per_op = 1      # operations take ~30 ms
    planned_rate = 3       # pool items per second of the run
    min_pool = 40          # enough for some certificate searches to run

    def __init__(self, root, seed, seconds):
        rng = _rng(seed, 1)
        self.pool = []
        count = max(self.min_pool, 4 * round(self.planned_rate * seconds / 4))
        for i in range(count):
            n = 1 + i % 4
            coefs = [_random_coefficients(rng, n) for _ in range(2)]
            self.pool.append((coefs, _system(coefs)))

    @staticmethod
    def run(item):
        return implication.classify_instance(item[1], ClassifyConfig())

    @staticmethod
    def check(item, report):
        coefs = item[0]
        parts = [report.verdict]
        if report.verdict == INVALID:
            _check_counterexample(coefs, report.counterexample.x)
            parts.append(_hex(report.counterexample.x))
        elif report.verdict == VALID:
            _check_certificate(coefs, report.certificate.alpha)
            parts.append(_hex(report.certificate.alpha))
        elif report.verdict != UNDETERMINED:
            raise CheckFailed(f"unknown verdict {report.verdict!r}")
        parts.extend(report.notes)
        return "\n".join(parts), report.verdict != UNDETERMINED


def _no_certificate_instance(rng, p, n):
    """Empty feasible set (l >= 0 and -l - 1 >= 0), convex extra
    constraints and an f0 with curvature <= -0.5 along a direction u.

    M(alpha) restricted to u keeps u^T Q0 u - sum alpha_i u^T Q_i u <= -0.5
    for every alpha >= 0 (the linear pair has Q = 0, the extras have
    Q PSD), so no certificate exists."""
    a = rng.uniform(-1.0, 1.0, n)
    b = float(rng.uniform(-1.0, 1.0))
    zero = np.zeros((n, n))
    coefs = [None, (zero, a, b), (zero, -a, -b - 1.0)]
    for _ in range(p - 2):
        L = rng.uniform(-1.0, 1.0, (n, n))
        coefs.append((L @ L.T, rng.uniform(-1.0, 1.0, n),
                      float(rng.uniform(-1.0, 1.0))))
    u = rng.normal(size=n)
    u /= np.linalg.norm(u)
    Q0, c0, d0 = _random_coefficients(rng, n)
    curvature = u @ Q0 @ u
    Q0 = Q0 - (curvature + 0.5 + rng.uniform(0.0, 1.0)) * np.outer(u, u)
    coefs[0] = (Q0, c0, d0)
    return coefs


def _with_certificate_instance(rng, p, n):
    """f0 = sum alpha_i f_i + s with s a quadratic whose bordered matrix
    is L L^T + I, so alpha certifies with lambda_min >= 1."""
    cons = [_random_coefficients(rng, n) for _ in range(p)]
    alpha = rng.uniform(0.0, 1.0, p)
    L = rng.uniform(-1.0, 1.0, (n + 1, n + 1))
    S = L @ L.T + np.eye(n + 1)
    Q0 = S[:n, :n] + sum(a * Q for a, (Q, _, _) in zip(alpha, cons))
    c0 = S[:n, n] + sum(a * c for a, (_, c, _) in zip(alpha, cons))
    d0 = S[n, n] / 2.0 + sum(a * d for a, (_, _, d) in zip(alpha, cons))
    return [(Q0, c0, float(d0))] + cons


class CertificateP2to4:
    """`find_certificate_general` with the classifier's defaults on p=2..4,
    n=1..4: each (p, n) twice without a certificate, where the search runs
    all its iterations, plus eight instances with one (3:1).  The Jacobi
    sweeps, and with them a search's cost, vary from instance to instance,
    so two per shape keep the median steady from seed to seed."""

    name = "certificate_p2to4"
    per_shape = 2

    def __init__(self, root, seed, seconds):
        rng = _rng(seed, 2)
        cfg = ClassifyConfig()
        self.iters = cfg.supergradient_iters
        self.search_seed = derive_seed(cfg.seed, 4)
        self.tol = cfg.psd_tol
        self.passes = max(2, round(seconds / 8.6))
        self.probes_per_op = 6      # operations take ~270 ms on average
        shapes = [(p, n) for p in (2, 3, 4) for n in (1, 2, 3, 4)]
        self.pool = []
        for p, n in shapes:
            for _ in range(self.per_shape):
                coefs = _no_certificate_instance(rng, p, n)
                self.pool.append((coefs, _system(coefs), False))
        for k in sorted(rng.choice(len(shapes), 4 * self.per_shape,
                                   replace=False)):
            coefs = _with_certificate_instance(rng, *shapes[k])
            self.pool.append((coefs, _system(coefs), True))

    def run(self, item):
        return certificate.find_certificate_general(
            item[1], iters=self.iters, seed=self.search_seed, tol=self.tol)

    @staticmethod
    def check(item, search):
        coefs, _, has_cert = item
        if search.found != has_cert:
            raise CheckFailed(f"certificate found={search.found}, "
                              f"constructed with certificate={has_cert}")
        if search.found:
            _check_certificate(coefs, search.certificate.alpha)
        text = f"{_hex(search.best_alpha)} {search.best_lambda_min!r}"
        return text, search.found


# splitmix64, as the toolkit documents its streams; re-implemented here so
# that conjecture endpoints are re-derived without the code under test.
_MASK = (1 << 64) - 1


def _mix(z):
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _derive_seed(seed, stream):
    return _mix((seed ^ ((stream + 1) * 0xD1B54A32D192ED03)) & _MASK)


def _splitmix_uniforms(seed, count, lo, hi):
    state = int(seed) & _MASK
    out = np.empty(count)
    for k in range(count):
        state = (state + 0x9E3779B97F4A7C15) & _MASK
        out[k] = lo + (hi - lo) * ((_mix(state) >> 11) / float(1 << 53))
    return out, state


class Conjecture:
    """`conjecture_scan` at dimension 2 with its defaults, one triple per
    operation."""

    name = "conjecture"
    passes = 3
    probes_per_op = 8      # operations take ~400 ms on average
    planned_rate = 0.5     # pool items per second of the run
    dim = 2
    cloud_size = 1024
    radius = 10.0

    def __init__(self, root, seed, seconds):
        rng = _rng(seed, 3)
        count = max(1, round(self.planned_rate * seconds))
        self.pool = [int(s) for s in rng.integers(0, 1 << 63, count)]

    def run(self, scan_seed):
        return geometry.conjecture_scan(1, self.dim, scan_seed)

    def _triple(self, inst_seed):
        n = self.dim
        state = inst_seed
        triple = []
        for _ in range(3):
            vals, state = _splitmix_uniforms(state, n * n + n + 1, -1.0, 1.0)
            raw = vals[:n * n].reshape(n, n)
            triple.append((raw + raw.T, vals[n * n:n * n + n], vals[-1]))
        return triple

    def check(self, scan_seed, scan):
        (entry,) = scan.entries
        inst_seed = _derive_seed(scan_seed, 0)
        triple = self._triple(inst_seed)
        for (Q, c, d), (rQ, rc, rd) in zip(triple, entry.coefficients):
            if not (np.array_equal(Q, rQ) and np.array_equal(c, rc)
                    and d == rd):
                raise CheckFailed(f"triple of seed {scan_seed} differs")
        v = entry.violation
        if v is not None:
            sources, _ = _splitmix_uniforms(
                _derive_seed(inst_seed, 1), self.cloud_size * self.dim,
                -self.radius, self.radius)
            sources = sources.reshape(self.cloud_size, self.dim)
            for idx, z in zip(v.indices, (v.z1, v.z2)):
                ref = np.array([_value(coef, sources[idx])
                                for coef in triple])
                if np.max(np.abs(ref - z)) > ENDPOINT_RTOL * (
                        1.0 + np.max(np.abs(ref))):
                    raise CheckFailed(f"endpoint {idx} of seed {scan_seed} "
                                      f"does not re-derive")
            if np.max(np.abs(v.t * v.z1 + (1.0 - v.t) * v.z2 - v.m)) > \
                    ENDPOINT_RTOL * (1.0 + np.max(np.abs(v.m))):
                raise CheckFailed(f"chord point of seed {scan_seed} is off")
        command = f"conjecture_scan(1, {self.dim}, {scan_seed})"
        return report.conjecture_report(scan, command).to_text(), None


WORKLOADS = {w.name: w for w in (Corpus, P1Random, CertificateP2to4,
                                 Conjecture)}
