import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import slemma
from conftest import (p2to4_system, p3_system, random_p1_system,
                      random_psd_quadratic)
from slemma import certificate as cert
from slemma import geometry as geo
from slemma import linprog, quadratic, search
from slemma.errors import DimensionMismatch, NotConverged, NumericalBreakdown
from slemma.expr import parse
from slemma.geometry import _random_quadratic as random_quadratic
from slemma.implication import (UNDETERMINED, box_sample, classify_instance,
                                find_counterexample)
from slemma.linprog import OPTIMAL, LinearProgram, Tableau, solve_lp
from slemma.problem import load_problem
from slemma.quadratic import (PSD_RTOL, QuadraticFunction, SymmetricEigen,
                              bordered_matrix)
from slemma.rng import SplitMix64
from slemma.systems import FunctionSystem, quadratic_to_source


CORPUS = Path(slemma.__file__).parent / "corpus"


def _norm_sq(n):
    return QuadraticFunction(2 * np.eye(n), np.zeros(n), 0.0)


def _expression_twin(system):
    """The same functions as expressions, so the check samples them."""
    twins = [parse(quadratic_to_source(f), system.n)
             for f in system.functions]
    return FunctionSystem(system.n, twins[0], twins[1:])


def test_verify_equal_functions():
    system = FunctionSystem(2, _norm_sq(2), (_norm_sq(2),))
    ver = cert.check_multipliers(system, [1.0])
    assert ver.valid and ver.label == cert.EXACT_PSD
    assert ver.lambda_min == pytest.approx(0.0, abs=1e-12)


def test_verify_example3_zero_alpha_invalid(example3):
    ver = cert.check_multipliers(example3, [0.0])
    assert not ver.valid
    assert ver.lambda_min < -1.0
    # the minimum eigenvector (0, 1, 0) has no finite lift
    assert ver.violating_x is None
    assert np.abs(ver.direction) == pytest.approx([0.0, 1.0])


def test_verify_invalid_with_dehomogenized_witness():
    # f0 = x^2, f1 = 1: with alpha 1 the combination is x^2 - 1, minimum -1 at 0
    f0 = QuadraticFunction([[2.0]], [0.0], 0.0)
    one = QuadraticFunction([[0.0]], [0.0], 1.0)
    system = FunctionSystem(1, f0, (one,))
    ver = cert.check_multipliers(system, [1.0])
    assert not ver.valid
    assert ver.violating_x is not None and ver.direction is None
    assert ver.violating_x[0] == pytest.approx(0.0, abs=1e-8)


def test_negative_multiplier_rejected(example3):
    with pytest.raises(cert.NegativeMultiplier):
        cert.check_multipliers(example3, [-0.5])


def test_sampled_verification_positive_expression():
    system = FunctionSystem(1, parse("exp(x1)", 1), ())
    ver = cert.check_multipliers(system, [], radius=5.0, seed=3)
    assert ver.valid and ver.label == cert.SAMPLED_ONLY
    assert ver.lambda_min is None
    assert ver.value >= -1e-6


def test_sampled_verification_finds_violation():
    f0 = QuadraticFunction([[2.0]], [0.0], 0.0)
    one = QuadraticFunction([[0.0]], [0.0], 1.0)
    system = _expression_twin(FunctionSystem(1, f0, (one,)))
    ver = cert.check_multipliers(system, [1.0], radius=5.0, seed=3)
    assert not ver.valid and ver.label == cert.SAMPLED_ONLY
    assert ver.value == pytest.approx(-1.0, abs=1e-3)
    assert ver.violating_x[0] == pytest.approx(0.0, abs=1e-2)


def _descent_ranked_by_loss(system, alpha, radius, samples, seed):
    """The sampled check's search as it was, ranking its box sample by
    the loss's first output, which computes every row's gradient too:
    (points, values) of its descent."""
    weights = np.concatenate([[1.0], -np.asarray(alpha, dtype=float)])

    def loss(X):
        vals, grads = system.values_and_gradients(X)
        return vals @ weights, np.einsum("ijk,j->ik", grads, weights)

    X = SplitMix64(seed).uniform_box(radius, system.n, samples)
    keep = search.smallest(search._clean(loss(X)[0]), search.SAMPLE_KEEP)
    return search.descend(loss, X[keep], steps=search.SAMPLE_STEPS,
                          box_radius=radius)


def test_sampled_check_ranks_its_sample_as_the_loss_did():
    rng = SplitMix64(61)
    systems = [FunctionSystem(2, parse("log(x1) + x2^2", 2),
                              (parse("1 - x1^2 - x2^2", 2),)),
               FunctionSystem(2, parse("exp(x1) + x2^2", 2),
                              (parse("sqrt(x1) - x2", 2),))]
    for _ in range(10):
        n = 1 + int(rng.randint(3))
        systems.append(_expression_twin(FunctionSystem(
            n, random_quadratic(rng, n), (random_quadratic(rng, n),))))
    outcomes = set()
    for i, system in enumerate(systems):
        alpha = rng.uniforms(1, 0.0, 2.0)
        check = cert.check_multipliers(system, alpha, radius=4.0,
                                       samples=1024, seed=i)
        X, vals = _descent_ranked_by_loss(system, alpha, 4.0, 1024, i)
        assert np.float64(check.value).tobytes() == vals[0].tobytes(), i
        if not check.valid:
            assert check.violating_x.tobytes() == X[0].tobytes(), i
        outcomes.add(check.valid)
    assert outcomes == {True, False}


def test_p1_equal_functions_found():
    system = FunctionSystem(2, _norm_sq(2), (_norm_sq(2),))
    res = cert.find_certificate_p1(system)
    assert res.found
    ver = cert.check_multipliers(system, res.certificate.alpha)
    assert ver.valid


def test_p1_identical_shifted():
    f = QuadraticFunction([[2.0]], [0.0], -1.0)
    system = FunctionSystem(1, f, (f,))
    res = cert.find_certificate_p1(system)
    assert res.found


def test_p1_plateau_region():
    # f0 = 2 x^2, f1 = x^2: every alpha in [0, 2] is a certificate
    system = FunctionSystem(1, QuadraticFunction([[4.0]], [0.0], 0.0),
                            (QuadraticFunction([[2.0]], [0.0], 0.0),))
    res = cert.find_certificate_p1(system)
    assert res.found
    a = float(res.certificate.alpha[0])
    assert 0.0 <= a <= 2.0 + 1e-9
    assert res.certificate.lambda_min == pytest.approx(0.0, abs=1e-12)


def test_p1_not_found_when_implication_fails(example3):
    res = cert.find_certificate_p1(example3)
    assert not res.found
    assert res.best_lambda_min < 0


def test_supergradient_two_constraints():
    nsq = _norm_sq(2)
    system = FunctionSystem(2, QuadraticFunction(4 * np.eye(2), np.zeros(2),
                                                 0.0), (nsq, nsq))
    res = cert.find_certificate_general(system, iters=2000, seed=3)
    assert res.found
    alpha = res.certificate.alpha
    assert np.all(alpha >= 0)
    assert np.sum(alpha) <= 2.0 + 1e-6


def test_supergradient_no_certificate_for_negative_objective():
    system = FunctionSystem(1, QuadraticFunction([[0.0]], [0.0], -1.0),
                            (QuadraticFunction([[0.0]], [0.0], 0.0),))
    res = cert.find_certificate_general(system, iters=300, seed=3)
    assert not res.found
    assert res.best_lambda_min == pytest.approx(-2.0)


def _alpha_grid_p1(system):
    """lambda_min(M(alpha)) and the certificate test by numpy's eigvalsh on
    an alpha grid, fine near 0 and coarse up to 1e4."""
    alphas = np.concatenate([np.linspace(0.0, 10.0, 10001),
                             np.linspace(10.0, 1e4, 10000)[1:]])
    M0 = bordered_matrix(system.f0)
    M1 = bordered_matrix(system.constraints[0])
    Ms = M0[None] - alphas[:, None, None] * M1[None]
    lams = np.linalg.eigvalsh(Ms)[:, 0]
    passes = lams >= -1e-9 * (1.0 + np.max(np.abs(Ms), axis=(1, 2)))
    return float(np.max(lams)), bool(np.any(passes))


def test_p1_search_matches_alpha_grid():
    # the cutting planes against an independent grid; a found/not-found
    # disagreement is allowed only where the grid is too coarse to decide
    master = SplitMix64(777)
    disagreements = []
    for i in range(100):
        system = random_p1_system(master.next_u64())
        res = cert.find_certificate_p1(system)
        grid_best, grid_found = _alpha_grid_p1(system)
        if res.found != grid_found:
            disagreements.append((i, res.found, grid_best))
        scale = 1.0 + abs(grid_best)
        assert res.best_lambda_min <= res.upper_bound + 1e-12 * scale, i
        assert res.upper_bound >= grid_best - 1e-9 * scale, i
        if grid_best > 0:
            assert res.best_lambda_min >= 0.99 * grid_best, i
    assert len(disagreements) <= 2, disagreements


def _master_lp(lams, slopes, points):
    """(alpha, t) maximizing t subject to t <= lams[k] + slopes[k] (alpha -
    points[k]) and 0 <= alpha <= ALPHA_MAX, by solve_lp."""
    A = [[-s, 1.0] for s in slopes] + [[1.0, 0.0]]
    b = [lam - s * a for lam, s, a in zip(lams, slopes, points)]
    out = solve_lp(LinearProgram([0.0, -1.0], a_ub=A,
                                 b_ub=b + [cert.ALPHA_MAX], free=[1]))
    assert out.status == OPTIMAL
    return float(out.y[0]), float(out.y[1])


# (point, lambda_min, slope) per cut; each set's master has one maximizer.
# In the last two the rising cut at the rightmost point has the larger
# slope, so the rising cut at 0 lies below the first crossing, by 5 and
# by an ulp, and the master steps to it
_HAND_BUILT_CUTS = {
    "rising only": [(0.0, -1.0, 2.0), (5.0, 3.0, 0.5)],
    "falling only": [(3.0, 1.0, -0.5), (5.0, -1.0, -1.0)],
    "crossing": [(0.0, -1.0, 1.0), (10.0, -3.0, -2.0)],
    "flat": [(0.0, -2.0, 1.0), (4.0, 2.0, 0.0), (8.0, -2.0, -1.0)],
    "non-monotone": [(0.0, 0.0, 0.5), (1.0, 0.5, 1.0), (10.0, 0.0, -1.0)],
    "non-monotone by an ulp": [(0.0, 0.0, 1.0),
                               (1.0, 1.0, float(np.nextafter(1.0, 2.0))),
                               (1e4, 0.0, -1.0)],
}


@pytest.mark.parametrize("name", sorted(_HAND_BUILT_CUTS))
def test_p1_master_matches_the_lp_on_hand_built_cuts(name):
    points, lams, slopes = map(list, zip(*_HAND_BUILT_CUTS[name]))
    alpha, bound = cert._p1_master(lams, slopes, points)
    lp_alpha, lp_value = _master_lp(lams, slopes, points)
    assert abs(alpha - lp_alpha) <= 1e-9 * (1.0 + abs(lp_alpha))
    assert abs(bound - lp_value) <= 1e-12 * (1.0 + abs(lp_value))
    assert bound == min(lam + s * (alpha - a)
                        for lam, s, a in zip(lams, slopes, points))


def test_p1_master_matches_a_fresh_lp_at_every_iterate(monkeypatch):
    # at every iterate the closed-form master's bound is the value of the
    # LP over the same cuts, reached at its alpha; no master LP is built
    master, checked = cert._p1_master, []

    def checked_master(lams, slopes, points):
        alpha, bound = master(lams, slopes, points)
        _, lp_value = _master_lp(lams, slopes, points)
        assert abs(bound - lp_value) <= 1e-9 * (1.0 + abs(lp_value))
        assert bound == min(lam + s * (alpha - a)
                            for lam, s, a in zip(lams, slopes, points))
        checked.append(len(lams))
        return alpha, bound

    def refuse(*args, **kwargs):
        raise AssertionError("master LP built at p = 1")

    monkeypatch.setattr(cert, "_p1_master", checked_master)
    monkeypatch.setattr(cert, "_ActiveSet", refuse)
    rng = SplitMix64(2024)
    for _ in range(40):
        n = 1 + int(rng.randint(4))
        cert.find_certificate_p1(FunctionSystem(
            n, random_quadratic(rng, n), (random_quadratic(rng, n),)))
        assert cert.find_certificate_p1(
            _constructed_certificate_system(rng, 1, n)).found
    for eps in (1e-6, 1e-3, -1e-3):
        cert.find_certificate_p1(_near_boundary_system(1, eps))
    assert len(checked) > 200 and max(checked) >= 15


def _p1_corpus_systems():
    for path in sorted(CORPUS.glob("*.json")):
        if path.name != "expected_verdicts.json":
            system = load_problem(path).system()
            if system.is_quadratic and system.p == 1:
                yield path.name, system


def test_p1_search_agrees_with_the_general_search():
    # the closed-form master and the LP master reach the same answer on
    # the alpha-grid test's systems and on the p = 1 corpus files
    master = SplitMix64(777)
    systems = [(i, random_p1_system(master.next_u64())) for i in range(100)]
    corpus = list(_p1_corpus_systems())
    found, absent = 0, 0
    for name, system in systems + corpus:
        res = cert.find_certificate_p1(system)
        lp = cert.find_certificate_general(system, iters=200)
        assert (res.found, res.outcome) == (lp.found, lp.outcome), name
        found += res.found
        absent += res.outcome == cert.NO_CERTIFICATE
    assert len(corpus) >= 14 and found >= 20 and absent >= 90


def test_p1_search_fails_on_an_overflowing_slope():
    # M1's entries are finite, but v^T M1 v overflows at the first
    # iterate's eigenvector, the all-ones direction of M0
    n = 20
    f0 = QuadraticFunction(2.0 * (np.eye(n) - 0.1), np.full(n, -0.2), 0.9)
    f1 = QuadraticFunction(np.full((n, n), 0.6e308), np.full(n, 0.6e308),
                           0.3e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalBreakdown,
                           match="^certificate cut slope -inf$"):
            cert.find_certificate_p1(FunctionSystem(n, f0, (f1,)))


def _three_sevenths_family():
    """20 draws of f1 on n = 3 from SplitMix64(77), each with f0 = f1's
    Q, c and d times 3/7 in floats: g(alpha) = lambda_min(M(alpha)) peaks
    near 3/7, where M(alpha) is the rounding error of f0 alone."""
    rng = SplitMix64(77)
    for _ in range(20):
        f1 = random_quadratic(rng, 3)
        f0 = QuadraticFunction(3 / 7 * f1.Q, 3 / 7 * f1.c, 3 / 7 * f1.d)
        yield FunctionSystem(3, f0, (f1,))


def test_the_three_sevenths_boundary_family_has_no_certificate():
    # no double alpha makes M(alpha) PSD in exact arithmetic, yet at
    # fl(3/7) check_multipliers reads lambda_min = 0.0 and passes it
    # without an exact check, so a cut crossing that landed exactly there
    # would certify.  The search must not land there and classify must
    # leave every member Undetermined
    for i, system in enumerate(_three_sevenths_family()):
        res = cert.find_certificate_p1(system)
        assert not res.found, i
        assert float(res.best_alpha[0]) != 3 / 7, i
        assert classify_instance(system).verdict == UNDETERMINED, i


def test_lambda_min_is_concave_in_alpha():
    rng = SplitMix64(55)
    for _ in range(25):
        n = 1 + int(rng.randint(3))
        p = 1 + int(rng.randint(3))
        system = FunctionSystem(n, random_quadratic(rng, n),
                                tuple(random_quadratic(rng, n)
                                      for _ in range(p)))
        a1 = np.abs(rng.uniforms(p, 0.0, 3.0))
        a2 = np.abs(rng.uniforms(p, 0.0, 3.0))
        g = lambda a: float(np.min(np.linalg.eigvalsh(
            cert.combined_matrix(system, a))))
        mid = g(0.5 * a1 + 0.5 * a2)
        scale = 1.0 + max(abs(g(a1)), abs(g(a2)))
        assert mid >= 0.5 * g(a1) + 0.5 * g(a2) - 1e-8 * scale


def test_scaling_objective_scales_certificate():
    rng = SplitMix64(66)
    scaled = 0
    for i in range(40):
        system = random_p1_system(rng.next_u64(), max_n=3)
        res = cert.find_certificate_p1(system)
        if not res.found:
            continue
        scaled += 1
        f0 = system.f0
        doubled = FunctionSystem(
            system.n,
            QuadraticFunction(2 * f0.Q, 2 * f0.c, 2 * f0.d),
            system.constraints)
        ver = cert.check_multipliers(doubled, 2.0 * res.certificate.alpha)
        assert ver.valid, i
    assert scaled >= 5


def test_certificate_soundness_against_sampling():
    # the trivial direction: a verified certificate leaves no counterexample
    rng = SplitMix64(88)
    found = 0
    for i in range(25):
        system = random_p1_system(rng.next_u64(), max_n=3)
        res = cert.find_certificate_p1(system)
        if not res.found:
            continue
        found += 1
        check = find_counterexample(system,
                                    *box_sample(system, 10.0, 20000, i), 10.0)
        assert not check.found, i
    assert found >= 4


def _convex_case(rng, n):
    vals = rng.uniforms(n * n, -1.0, 1.0)
    L = np.array(vals).reshape(n, n)
    Q1 = -(L @ L.T) - 0.2 * np.eye(n)
    c1 = np.array(rng.uniforms(n, -1.0, 1.0))
    xbar = np.linalg.solve(-Q1, c1)
    d1 = float(rng.uniforms(1, 0.5, 2.0)[0]) - (0.5 * xbar @ Q1 @ xbar
                                                + c1 @ xbar)
    f1 = QuadraticFunction(Q1, c1, d1)
    a = float(rng.uniforms(1, 0.3, 2.0)[0])
    vals = rng.uniforms(n * n + n + 1, -1.0, 1.0)
    Lr = np.array(vals[: n * n]).reshape(n, n)
    Qr = (Lr @ Lr.T + 0.3 * np.eye(n)) - a * Q1
    cr = np.array(vals[n * n: n * n + n])
    dr = 0.5 * float(cr @ np.linalg.solve(Qr, cr)) + 0.1 + abs(vals[-1])
    f0 = QuadraticFunction(a * Q1 + Qr, a * c1 + cr, a * d1 + dr)
    return FunctionSystem(n, f0, (f1,))


def test_separation_route_on_convex_instance():
    rng = SplitMix64(4242)
    system = _convex_case(rng, 2)
    cloud = geo.sample_image(system, 10.0, 512, 5)
    res = cert.find_certificate_via_separation(system, cloud, seed=6)
    assert res.found
    assert res.certificate.label == cert.EXACT_PSD
    assert np.all(res.certificate.alpha >= 0)


def test_separation_route_no_separator(example3):
    cloud = geo.sample_image(example3, 10.0, 256, 5)
    res = cert.find_certificate_via_separation(example3, cloud, seed=6)
    assert not res.found
    assert res.outcome == cert.NO_SEPARATOR
    # round 0's answer: the hull meets K, with its witness, and no separator
    assert res.rounds == 0
    assert res.separation.intersects and res.separation.separator is None
    assert geo.cone_k_member(res.separation.witness)


def test_certificate_text_round_trip():
    # the text of a passing check parses back to its multipliers
    c = cert.MultiplierCheck(alpha=np.array([0.5, 1.25]),
                             label=cert.EXACT_PSD, valid=True,
                             lambda_min=0.003)
    text = cert.format_certificate(c)
    assert text == ("alpha = [0.5, 1.25]\nlambda_min = 0.003\n"
                    "verified = ExactPSD\n")
    assert cert.parse_certificate(text).tolist() == [0.5, 1.25]
    sampled = cert.format_certificate(cert.MultiplierCheck(
        alpha=np.zeros(0), label=cert.SAMPLED_ONLY, valid=True))
    assert "lambda_min = none" in sampled
    assert "verified = SampledOnly" in sampled
    assert cert.parse_certificate(sampled).shape == (0,)


@pytest.mark.parametrize("text", [
    "lambda_min = 0.1\nverified = ExactPSD\n",            # no alpha
    "alpha = [0.5, x]\n",
    "alpha = [0.5]\nlambda_min = small\n",
    "alpha = [0.5]\nverified = Proven\n",
])
def test_malformed_certificate_text_is_rejected(text):
    with pytest.raises(ValueError, match="malformed certificate text"):
        cert.parse_certificate(text)


def test_sampled_and_exact_verdicts_agree():
    # cross-module check on random quadratic systems and multipliers
    rng = SplitMix64(97)
    agreements = 0
    for i in range(20):
        n = 1 + int(rng.randint(3))
        system = FunctionSystem(n, random_quadratic(rng, n),
                                (random_quadratic(rng, n),))
        alpha = [float(rng.uniforms(1, 0.0, 2.0)[0])]
        exact = cert.check_multipliers(system, alpha)
        sampled = cert.check_multipliers(_expression_twin(system), alpha,
                                         seed=i)
        assert sampled.label == cert.SAMPLED_ONLY
        if exact.valid:
            assert sampled.valid, i
            agreements += 1
        elif exact.lambda_min < -1e-3:
            # a clear exact violation must be visible to sampling
            assert not sampled.valid, i
            agreements += 1
    assert agreements >= 15


def test_separation_route_never_false_found_without_slater():
    # f1 = 0 everywhere, f0 = x1: no Slater point and no certificate
    system = FunctionSystem(1, QuadraticFunction([[0.0]], [1.0], 0.0),
                            (QuadraticFunction([[0.0]], [0.0], 0.0),))
    cloud = geo.sample_image(system, 10.0, 256, 5)
    res = cert.find_certificate_via_separation(system, cloud, seed=6)
    assert not res.found
    assert res.outcome in (cert.SLATER_BLOCKED, cert.NO_SEPARATOR)


def test_separation_route_checks_with_its_tol(monkeypatch):
    # the route's multiplier check takes the run's tolerance, not 1e-9
    seen = []
    check = cert.check_multipliers

    def recording(system, alpha, tol=cert.PSD_RTOL, **kwargs):
        seen.append(tol)
        return check(system, alpha, tol=tol, **kwargs)

    monkeypatch.setattr(cert, "check_multipliers", recording)
    system = FunctionSystem(1, QuadraticFunction([[2.0]], [20000.0], 1.0),
                            (QuadraticFunction([[0.0]], [1.0], 0.0),))
    cloud = geo.sample_image(system, 10.0, 256, 5)
    res = cert.find_certificate_via_separation(system, cloud, tol=1e-7,
                                               seed=6)
    assert res.found and res.certificate.label == cert.EXACT_PSD
    assert seen == [1e-7] * (res.rounds + 1)


def _count_eigen_calls(monkeypatch):
    calls = [0]
    original = cert.min_eigenvalue

    def counting(M):
        calls[0] += 1
        return original(M)

    monkeypatch.setattr(cert, "min_eigenvalue", counting)
    return calls


def _grid_max_lambda_min(system, alpha_max, points=61):
    axis = np.linspace(0.0, alpha_max, points)
    return max(float(np.min(np.linalg.eigvalsh(
        cert.combined_matrix(system, [a1, a2]))))
        for a1 in axis for a2 in axis)


def test_cutting_plane_upper_bound_is_sound(monkeypatch):
    # the master LP value bounds max lambda_min(M(alpha)) over the box,
    # shrunk to [0, 3]^2 so that a grid can search it
    monkeypatch.setattr(cert, "ALPHA_MAX", 3.0)
    rng = SplitMix64(313)
    bounded = 0
    for i in range(30):
        n = 1 + int(rng.randint(2))
        system = FunctionSystem(n, random_quadratic(rng, n),
                                (random_quadratic(rng, n),
                                 random_quadratic(rng, n)))
        res = cert.find_certificate_general(system)
        if res.upper_bound is None:
            assert res.found, i
            continue
        bounded += 1
        grid_best = _grid_max_lambda_min(system, 3.0)
        scale = 1.0 + abs(grid_best)
        assert res.best_lambda_min <= res.upper_bound + 1e-12 * scale, i
        assert res.upper_bound >= grid_best - 1e-9 * scale, i
    assert bounded >= 15


def _no_certificate_system(rng, p, n):
    """l >= 0 and -l - 1 >= 0 have no common point; the extra constraints
    are convex, and f0 has curvature <= -0.5 along u, which no alpha >= 0
    can repair."""
    a = np.array(rng.uniforms(n, -1.0, 1.0))
    b = float(rng.uniforms(1, -1.0, 1.0)[0])
    zero = np.zeros((n, n))
    cons = [QuadraticFunction(zero, a, b), QuadraticFunction(zero, -a, -b - 1.0)]
    for _ in range(p - 2):
        L = np.array(rng.uniforms(n * n, -1.0, 1.0)).reshape(n, n)
        cons.append(QuadraticFunction(L @ L.T, np.array(rng.uniforms(n, -1, 1)),
                                      float(rng.uniforms(1, -1.0, 1.0)[0])))
    u = np.array(rng.uniforms(n, -1.0, 1.0)) + 0.1
    u /= np.linalg.norm(u)
    f0 = random_quadratic(rng, n)
    Q0 = f0.Q - (u @ f0.Q @ u + 0.5) * np.outer(u, u)
    return FunctionSystem(n, QuadraticFunction(Q0, f0.c, f0.d), tuple(cons))


def test_cutting_plane_proves_absence(monkeypatch):
    rng = SplitMix64(414)
    calls = _count_eigen_calls(monkeypatch)
    for p in (2, 3, 4):
        for n in (1, 2, 3, 4):
            system = _no_certificate_system(rng, p, n)
            calls[0] = 0
            res = cert.find_certificate_general(system)
            assert not res.found, (p, n)
            assert res.upper_bound < 0, (p, n)
            assert res.outcome == cert.NO_CERTIFICATE, (p, n)
            assert calls[0] <= 50, (p, n, calls[0])


def _constructed_certificate_system(rng, p, n):
    """f0 = sum alpha_i f_i + s with s globally positive."""
    cons = tuple(random_quadratic(rng, n) for _ in range(p))
    alpha = np.array(rng.uniforms(p, 0.0, 1.0))
    slack = random_psd_quadratic(rng, n, margin=0.5)
    return FunctionSystem(n, QuadraticFunction(
        slack.Q + sum(a * f.Q for a, f in zip(alpha, cons)),
        slack.c + sum(a * f.c for a, f in zip(alpha, cons)),
        slack.d + sum(a * f.d for a, f in zip(alpha, cons))), cons)


def test_cutting_plane_finds_constructed_certificates():
    rng = SplitMix64(515)
    for i in range(24):
        p = 2 + i % 3
        n = 1 + int(rng.randint(4))
        system = _constructed_certificate_system(rng, p, n)
        res = cert.find_certificate_general(system)
        assert res.found, i
        found = res.certificate.alpha
        assert np.all(found >= 0) and np.all(found <= 1e4), i
        M = cert.combined_matrix(system, found)
        lam = float(np.min(np.linalg.eigvalsh(M)))
        assert lam >= -1e-9 * (1.0 + np.max(np.abs(M))), i


def _near_boundary_system(p, eps=1e-6):
    """f0 = |x|^2 + sum x_i - eps with f_i = x_i: the best multiplier is
    alpha = 1 with lambda_min = -2 eps, just short of a certificate."""
    f0 = QuadraticFunction(2 * np.eye(p), np.ones(p), -eps)
    cons = tuple(QuadraticFunction(np.zeros((p, p)), np.eye(p)[i], 0.0)
                 for i in range(p))
    return FunctionSystem(p, f0, cons)


def test_cutting_plane_near_boundary_converges(monkeypatch):
    eps = 1e-6
    calls = _count_eigen_calls(monkeypatch)
    for p in (1, 2, 3, 4):
        calls[0] = 0
        res = cert.find_certificate_general(_near_boundary_system(p, eps))
        assert not res.found, p
        assert calls[0] == {1: 17, 2: 35, 3: 61, 4: 84}[p], (p, calls[0])
        assert res.best_lambda_min == pytest.approx(-2 * eps, abs=1e-8), p
        assert res.upper_bound >= res.best_lambda_min, p


def _fresh_master_value(rows):
    """max t over y = (alpha, t), every coordinate free, subject to the
    rows (g, h), g.y <= h, by solve_lp."""
    A = np.array([g for g, _ in rows])
    b = np.array([h for _, h in rows])
    m = A.shape[1]
    out = solve_lp(LinearProgram(-np.eye(m)[-1], a_ub=A, b_ub=b,
                                 free=range(m)))
    assert out.status == OPTIMAL
    return -out.objective


def _record_master_rows(monkeypatch):
    """A list that holds, as (g, h), each row appended to the latest
    master, before its scaling."""
    rows, add_row = [], cert._ActiveSet.add_row

    def recording_add_row(self, a, b):
        if self.count == 0:
            rows.clear()
        rows.append((np.array(a, dtype=float), float(b)))
        return add_row(self, a, b)

    monkeypatch.setattr(cert._ActiveSet, "add_row", recording_add_row)
    return rows


def _assert_master_vertex(rows, y):
    """y is an optimal vertex of the rows: its t is solve_lp's optimum,
    and every row g.y <= h holds by the scaled rule, (h - g.y) / max|g|
    >= -1e-9, and within 1e-9 (1 + |h|).  Returns the optimum."""
    value = _fresh_master_value(rows)
    assert abs(y[-1] - value) <= 1e-9 * (1 + abs(value))
    for g, h in rows:
        scale = abs(g).max() or 1.0
        assert (h - g @ y) / scale >= -1e-9
        assert g @ y <= h + 1e-9 * (1 + abs(h))
    return value


@pytest.mark.filterwarnings("error")
def test_warm_master_matches_a_fresh_solve(monkeypatch):
    # at every iterate the active set's vertex is optimal for the box rows
    # and the cuts, as solve_lp solves them afresh, satisfies each of those
    # rows and has alpha >= 0 exactly; the search's upper_bound is the
    # last optimum
    rows, values, checked = _record_master_rows(monkeypatch), [], []
    reoptimize = cert._ActiveSet.reoptimize

    def checked_reoptimize(self):
        status = reoptimize(self)
        assert status == OPTIMAL
        values.append(_assert_master_vertex(rows, self.y))
        assert np.all(self.y[:-1] >= 0.0)
        checked.append(len(rows) - 2 * (len(self.y) - 1))
        return status

    def search(system):
        values.clear()
        res = cert.find_certificate_general(system)
        if values:
            assert abs(res.upper_bound - values[-1]) <= \
                1e-9 * (1 + abs(values[-1]))
        else:
            assert res.upper_bound is None

    monkeypatch.setattr(cert._ActiveSet, "reoptimize", checked_reoptimize)
    rng = SplitMix64(2024)
    for i in range(48):
        p = 1 + i % 4
        n = 1 + int(rng.randint(4))
        system = FunctionSystem(n, random_quadratic(rng, n),
                                tuple(random_quadratic(rng, n)
                                      for _ in range(p)))
        search(system)
        if p > 1:
            search(_no_certificate_system(rng, p, n))
        if i < 4:
            search(_near_boundary_system(p))
    assert len(checked) > 500 and max(checked) == 84
    for s in range(60):
        search(p3_system(s))
    for s in range(300):
        search(p2to4_system(s))
    assert len(checked) > 1000


def _master_over_cuts(cuts):
    """The search's master over hand-built cuts (point, lambda_min, slope)
    in p = 2: the rows alpha_i >= 0 and alpha_i <= ALPHA_MAX, the first
    cut's start, and after each cut one `reoptimize`, whose vertex is
    checked against solve_lp.  Returns each cut's (active rows, vertex)."""
    p = 2
    eye = np.eye(p + 1)
    rows = [(-eye[i], 0.0) for i in range(p)] + \
        [(eye[i], cert.ALPHA_MAX) for i in range(p)]
    master = cert._ActiveSet(p + 1, len(rows) + len(cuts))
    for g, h in rows:
        master.add_row(g, h)
    states = []
    for point, lam, slope in cuts:
        s = np.array(slope, dtype=float)
        rows.append((np.append(-s, 1.0), lam - s @ point))
        row = master.add_row(*rows[-1])
        if row == 2 * p:
            master.start([p + i if s[i] > 0 else i for i in range(p)]
                         + [row])
        assert master.reoptimize() == OPTIMAL
        _assert_master_vertex(rows, master.y)
        states.append((sorted(master.active.tolist()), master.y.copy()))
    return states


# cuts (point, lambda_min, slope) on p = 2; the first cut's optimum is
# (ALPHA_MAX, ALPHA_MAX) on rows 2, 3 and 4 (the upper bounds and the cut)
_RISING = ((0.0, 0.0), 0.0, (1.0, 1.0))
# t <= 15000 - 2 alpha_1 - alpha_2: the optimum (0, 7500), on alpha_1 >= 0
# (row 0) and both cuts, is two exchanges away
_FALLING = ((0.0, 0.0), 15000.0, (-2.0, -1.0))
# through that optimum, and rising in alpha_1
_THROUGH = ((0.0, 7500.0), 7500.0, (0.5, -0.25))


@pytest.mark.filterwarnings("error")
def test_active_set_exchanges_several_rows_for_one_cut():
    (start, _), (after, y) = _master_over_cuts([_RISING, _FALLING])
    assert start == [2, 3, 4] and after == [0, 4, 5]
    assert y == pytest.approx([0.0, 7500.0, 7500.0], rel=1e-12, abs=1e-12)


@pytest.mark.filterwarnings("error")
def test_active_set_keeps_its_vertex_for_a_cut_through_it_and_a_duplicate():
    states = _master_over_cuts([_RISING, _FALLING, _THROUGH, _FALLING,
                                _RISING])
    for active, y in states[2:]:
        assert active == states[1][0]
        assert y.tobytes() == states[1][1].tobytes()


@pytest.mark.filterwarnings("error")
def test_active_set_on_cuts_parallel_to_a_box_face():
    # both cuts are flat in alpha_1, so every alpha_1 is optimal: the first
    # cut's start puts alpha_1 on its lower bound with multiplier 0, the
    # second cut's z is 0 there, and alpha_1 stays at 0
    states = _master_over_cuts([((0.0, 0.0), 0.0, (0.0, 1.0)),
                                ((0.0, 1e4), 0.0, (0.0, -1.0))])
    assert states[0][0] == [0, 3, 4] and states[1][0] == [0, 4, 5]
    assert states[1][1] == pytest.approx([0.0, 5000.0, 5000.0], rel=1e-12,
                                         abs=1e-12)


@pytest.mark.filterwarnings("error")
def test_active_set_on_cuts_of_a_constraint_scaled_by_1e6():
    # slopes in alpha_1 a million times those in alpha_2: each cut row is
    # scaled to unit max-norm, so its t coefficient is about 1e-6
    _master_over_cuts([((0.0, 0.0), -1.0, (2e6, 0.5)),
                       ((1e4, 1e4), -2e10, (-3e6, -0.5)),
                       ((5.0, 3.0), -1.0, (1e6, -2.0)),
                       ((3.0, 8.0), 2.0, (-1e6, 1.5))])


@pytest.mark.filterwarnings("error")
def test_master_iteration_limit_is_numerical(monkeypatch):
    # one exchange per cut at most: the first cut's start is already
    # optimal, the second needs an exchange and runs out
    monkeypatch.setattr(cert, "_MAX_ITERS", 1)
    with pytest.raises(NumericalBreakdown,
                       match="^certificate master LP: iteration limit"):
        cert.find_certificate_general(_near_boundary_system(2))


@pytest.mark.filterwarnings("error")
def test_active_set_pivot_below_the_floor_is_numerical():
    # p = 1: the flat first cut leaves alpha >= 0 active with multiplier 0,
    # and the second cut rises by 1e-13, so it enters with z = (1e-13, 1)
    # and the least ratio, 0 / 1e-13, picks a pivot below 1e-11
    master = cert._ActiveSet(2, 4)
    master.add_row(np.array([-1.0, 0.0]), 0.0)
    master.add_row(np.array([1.0, 0.0]), cert.ALPHA_MAX)
    master.start([0, master.add_row(np.array([0.0, 1.0]), 1.0)])
    assert master.reoptimize() == OPTIMAL
    master.add_row(np.array([-1e-13, 1.0]), 0.0)
    with pytest.raises(NumericalBreakdown,
                       match="^certificate master LP: pivot 1.000e-13 "
                             "below 1e-11; rescale the input$"):
        master.reoptimize()


# Reference copies: `eigen_sym`, `Tableau.add_row`, `Tableau.dual_simplex`
# and `linprog._pivot` as they were before each was made leaner, which the
# search's eigen calls and `solve_lp` must match bit for bit; and the
# cutting-plane search on the master tableau it kept before its active
# set, with a free t column that never leaves the basis and the first
# cut's basis set by `pivot`, an oracle for the search under test.

def reference_eigen_sym(A):
    A = np.array(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or not A.size:
        raise DimensionMismatch(
            f"matrix must be square and nonempty, got shape {A.shape}")
    scale = 1.0 + np.max(np.abs(A))
    if not np.isfinite(scale):
        raise NumericalBreakdown("matrix has a non-finite entry")
    asym = np.max(np.abs(A - A.T))
    if asym > quadratic._ACCEPT_BAND * scale:
        raise DimensionMismatch(
            f"matrix is not symmetric: max asymmetry {asym:.3e}"
        )
    try:
        return SymmetricEigen(*np.linalg.eigh((A + A.T) / 2.0))
    except np.linalg.LinAlgError as exc:
        raise NotConverged(f"symmetric eigensolver failed: {exc}") from None


def reference_min_eigenvalue(A):
    _REFERENCE_CALLS["eigen_sym"] += 1
    decomp = reference_eigen_sym(A)
    return float(decomp.eigenvalues[0]), decomp.eigenvectors[:, 0].copy()


def reference_pivot(T, basis, row, col):
    piv = T[row, col]
    if abs(piv) < linprog._PIVOT_MIN:
        raise NumericalBreakdown(
            f"pivot {piv:.3e} below {linprog._PIVOT_MIN:.0e}; rescale the input"
        )
    factors = T[:, col].copy()
    factors[row] = 0.0
    T[row, :] /= piv
    T -= np.outer(factors, T[row, :])
    T[:, col] = 0.0
    T[row, col] = 1.0
    basis[row] = col


class ReferenceTableau(Tableau):
    def __init__(self, c, free=(), max_rows=10000):
        super().__init__(c, max_rows=max_rows)
        self.is_free = np.zeros(1 + self.n + max_rows, dtype=bool)
        self.is_free[[j + 1 for j in free]] = True

    def add_row(self, a, b):
        if self.m == self.buf.shape[0]:
            if self.m == self.max_rows:
                raise DimensionMismatch(
                    f"tableau holds at most {self.max_rows} rows")
            self._grow(min(2 * self.m, self.max_rows))
        a = np.asarray(a, dtype=float)
        norm = np.abs(a).max(initial=0.0)
        scale = norm if norm > 0.0 else 1.0
        used = 2 + self.n + self.m        # the new slack is the last column
        row = self.buf[self.m, :used]
        row[0] = b / scale
        row[1:self.n + 1] = a / scale
        row[-1] = 1.0
        # only basic x columns can be nonzero in the raw row
        basics = (self.basis[:self.m] <= self.n).nonzero()[0]
        if basics.size:
            cols = self.basis[basics]
            row -= row[cols] @ self.buf[basics, :used]
            row[cols] = 0.0
        self.basis[self.m] = used - 1
        self.scales[self.m] = scale
        self.m += 1
        return self.m - 1

    def pivot(self, row, j):
        reference_pivot(self._tableau(), self.basis, row, j + 1)

    def dual_simplex(self):
        _REFERENCE_CALLS["dual_simplex"] += 1
        T = self._tableau()
        basis = self.basis[:self.m]
        costs = self.costs[:T.shape[1]]
        for _ in range(linprog._MAX_ITERS):
            short = ((T[:, 0] < -linprog._TOL)
                     & ~self.is_free[basis]).nonzero()[0]
            if not short.size:
                return OPTIMAL
            leave = short[np.argmin(basis[short])]
            cand = (T[leave, 1:] < -linprog._TOL).nonzero()[0] + 1
            if not cand.size:
                return linprog.INFEASIBLE
            reduced = costs[cand] - costs[basis] @ T[:, cand]
            ratios = np.maximum(reduced, 0.0) / -T[leave, cand]
            enter = cand[(ratios <= ratios.min() + 1e-12).argmax()]
            reference_pivot(T, basis, leave, enter)
        return linprog.ITERATION_LIMIT


def reference_find_certificate_general(system, iters=2000, seed=0,
                                       tol=PSD_RTOL):
    if not system.is_quadratic:
        raise DimensionMismatch("cutting-plane search needs an all-quadratic system")
    if system.p < 1:
        raise DimensionMismatch("cutting-plane search needs p >= 1")
    p = system.p
    M0 = bordered_matrix(system.f0)
    borders = [bordered_matrix(f) for f in system.constraints]
    bound_scale = 1.0 + np.max(np.abs(M0)) + \
        cert.ALPHA_MAX * sum(np.max(np.abs(B)) for B in borders)
    # variables (alpha, t), t free: maximize t under alpha_i <= ALPHA_MAX
    # and the cuts
    master = ReferenceTableau(np.concatenate([np.zeros(p), [-1.0]]),
                              free=[p], max_rows=p + iters)
    for i in range(p):
        master.add_row(np.eye(p + 1)[i], cert.ALPHA_MAX)
    # cut k: g(a) <= lams[k] + slopes[k].(a - points[k])
    lams = np.empty(iters)
    slopes = np.empty((iters, p))
    points = np.empty((iters, p))
    alpha = np.zeros(p)
    best = None
    upper_bound = None
    outcome = ""
    for k in range(iters):
        M = cert._combine(M0, borders, alpha)
        lam, v = reference_min_eigenvalue(M)
        if best is None or lam > best.lambda_min:
            best = cert.check_multipliers(system, alpha, tol,
                                          eigenpair=(M, lam, v))
            if best.valid:
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
        alpha = np.clip(y[:p], 0.0, cert.ALPHA_MAX)
        # the tableau's t cancels terms as large as ALPHA_MAX * |s|, which
        # can leave it ulps under the best lambda_min; a cut evaluated at
        # its own point gives back its lam exactly
        upper_bound = float(np.min(lams[:k + 1] + np.einsum(
            "ij,ij->i", slopes[:k + 1], alpha - points[:k + 1])))
        if upper_bound < -tol * bound_scale:
            outcome = cert.NO_CERTIFICATE
            break
        if upper_bound - best.lambda_min <= -best.threshold:
            break
    return cert.SearchResult(check=best, upper_bound=upper_bound,
                             outcome=outcome)


_REFERENCE_CALLS = Counter()


def _raw(v):
    return None if v is None else (np.asarray(v).dtype.str,
                                   np.asarray(v).tobytes())


def _reference_systems():
    rng = SplitMix64(3535)
    for p in (1, 2, 3, 4):
        for n in (1, 2, 3, 4):
            for _ in range(8):
                yield f"random p={p} n={n}", FunctionSystem(
                    n, random_quadratic(rng, n),
                    tuple(random_quadratic(rng, n) for _ in range(p)))
            yield f"constructed p={p} n={n}", \
                _constructed_certificate_system(rng, p, n)
            if p > 1:
                for _ in range(3):
                    yield f"no certificate p={p} n={n}", \
                        _no_certificate_system(rng, p, n)
    for p in (1, 2, 3, 4):
        for eps in (1e-6, 1e-3, -1e-3):
            yield f"near boundary p={p} eps={eps}", \
                _near_boundary_system(p, eps)
    for path in sorted(CORPUS.glob("*.json")):
        if path.name == "expected_verdicts.json":
            continue
        system = load_problem(path).system()
        if system.is_quadratic and system.p >= 1:
            yield path.name, system


@pytest.mark.filterwarnings("error")
def test_search_matches_the_tableau_search(monkeypatch):
    # the active set reaches the tableau's answers: the same eigen calls,
    # found and outcome, and the best alpha within 1e-9 (1 + |alpha|)
    calls = _count_eigen_calls(monkeypatch)
    systems = [(f"p2to4 s={s}", p2to4_system(s)) for s in range(300)] + \
        [(f"p3 s={s}", p3_system(s)) for s in range(60)]
    searched, corpus, found, absent = 0, 0, 0, 0
    for name, system in systems + list(_reference_systems()):
        iters = 200 if system.p == 1 else 2000
        _REFERENCE_CALLS.clear()
        calls[0] = 0
        reference = reference_find_certificate_general(system, iters=iters)
        res = cert.find_certificate_general(system, iters=iters)
        assert calls[0] == _REFERENCE_CALLS["eigen_sym"], name
        assert (res.found, res.outcome) == \
            (reference.found, reference.outcome), name
        alpha = reference.best_alpha
        assert np.all(np.abs(res.best_alpha - alpha)
                      <= 1e-9 * (1 + np.abs(alpha))), name
        searched += 1
        corpus += name.endswith(".json")
        found += res.found
        absent += res.outcome == cert.NO_CERTIFICATE
    assert searched >= 560 and corpus >= 9
    assert found >= 90 and absent >= 300


@pytest.mark.filterwarnings("error")
def test_eigen_sym_and_solve_lp_match_the_reference_copies_bit_for_bit(
        monkeypatch):
    # eigen_sym, add_row, dual_simplex and _pivot were made leaner without
    # changing a floating-point operation: each matrix a search decomposes
    # gives the reference copy's bits, and so does solve_lp on each
    # search's last master LP, with the same final basis
    eigen_sym = quadratic.eigen_sym
    counts = Counter()

    def compared_eigen_sym(A):
        counts["eigen_sym"] += 1
        got, ref = eigen_sym(A), reference_eigen_sym(A)
        assert got.eigenvalues.tobytes() == ref.eigenvalues.tobytes()
        assert got.eigenvectors.tobytes() == ref.eigenvectors.tobytes()
        return got

    def solved(lp, reference):
        tableaus = []

        class Recorded(ReferenceTableau if reference else Tableau):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                tableaus.append(self)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(linprog, "Tableau", Recorded)
            if reference:
                patch.setattr(linprog, "_pivot", reference_pivot)
            out = solve_lp(lp)
        (tab,) = tableaus
        return (out.status, _raw(out.y), _raw(out.objective),
                _raw(out.dual_ub), tab.basis[:tab.m].tolist())

    rows = _record_master_rows(monkeypatch)
    monkeypatch.setattr(quadratic, "eigen_sym", compared_eigen_sym)
    solves = 0
    for name, system in _reference_systems():
        cert.find_certificate_general(
            system, iters=200 if system.p == 1 else 2000)
        if len(rows) == 2 * system.p:      # box rows only: no cut was made
            continue
        A = np.array([g for g, _ in rows])
        lp = LinearProgram(-np.eye(A.shape[1])[-1], a_ub=A,
                           b_ub=[h for _, h in rows], free=range(A.shape[1]))
        assert solved(lp, True) == solved(lp, False), name
        solves += 1
    assert counts["eigen_sym"] >= 900 and solves >= 150


@pytest.mark.filterwarnings("error")
def test_the_masters_part_on_a_constraint_scaled_by_1e6():
    # f1 = 1e6 x1: the optimal alpha_1 is a millionth of the box and the
    # gap stop a million times looser, so the two masters stop, neither at
    # a certificate nor with a proof of none, at alphas that differ beyond
    # rounding, under bounds that agree
    system = _near_boundary_system(2)
    f1, f2 = system.constraints
    scaled = FunctionSystem(2, system.f0, (
        QuadraticFunction(1e6 * f1.Q, 1e6 * f1.c, 1e6 * f1.d), f2))
    res = cert.find_certificate_general(scaled)
    reference = reference_find_certificate_general(scaled)
    assert (res.found, res.outcome) == (reference.found, reference.outcome) \
        == (False, "")
    alpha = reference.best_alpha
    assert np.any(np.abs(res.best_alpha - alpha) > 1e-9 * (1 + np.abs(alpha)))
    assert abs(res.upper_bound - reference.upper_bound) <= \
        1e-9 * (1 + abs(reference.upper_bound))
