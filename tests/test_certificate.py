import numpy as np
import pytest

from conftest import random_p1_system, random_psd_quadratic
from slemma import certificate as cert
from slemma import geometry as geo
from slemma import linprog, search
from slemma.errors import NumericalBreakdown
from slemma.expr import parse
from slemma.geometry import _random_quadratic as random_quadratic
from slemma.implication import box_sample, find_counterexample
from slemma.linprog import OPTIMAL, LinearProgram, Tableau, solve_lp
from slemma.quadratic import QuadraticFunction, bordered_matrix
from slemma.rng import SplitMix64
from slemma.systems import FunctionSystem, quadratic_to_source


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
    assert res.separation is None and res.rounds == 0
    assert geo.hull_intersects_k(cloud).intersects


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


def test_cutting_plane_finds_constructed_certificates():
    # f0 = sum alpha_i f_i + s with s globally positive
    rng = SplitMix64(515)
    for i in range(24):
        p = 2 + i % 3
        n = 1 + int(rng.randint(4))
        cons = tuple(random_quadratic(rng, n) for _ in range(p))
        alpha = np.array(rng.uniforms(p, 0.0, 1.0))
        slack = random_psd_quadratic(rng, n, margin=0.5)
        f0 = QuadraticFunction(
            slack.Q + sum(a * f.Q for a, f in zip(alpha, cons)),
            slack.c + sum(a * f.c for a, f in zip(alpha, cons)),
            slack.d + sum(a * f.d for a, f in zip(alpha, cons)))
        system = FunctionSystem(n, f0, cons)
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


def test_warm_master_matches_a_fresh_solve(monkeypatch):
    # at every iterate the warm master's value equals solve_lp's on the
    # same box rows and cuts, and its point satisfies them; the search's
    # upper_bound is the last of those values.  solve_lp runs a Tableau
    # too, so only the master's (the one with a free column) is checked
    rows, values, checked = [], [], []
    add_row, dual_simplex = Tableau.add_row, Tableau.dual_simplex

    def recording_add_row(self, a, b):
        if not self.is_free.any():
            return add_row(self, a, b)
        if self.m == 0:
            rows.clear()
        rows.append((np.array(a, dtype=float), float(b)))
        return add_row(self, a, b)

    def checked_dual_simplex(self):
        status = dual_simplex(self)
        if not self.is_free.any():
            return status
        p = self.n - 1
        A = np.array([a for a, _ in rows])
        b = np.array([b for _, b in rows])
        fresh = solve_lp(LinearProgram(
            np.concatenate([np.zeros(p), [-1.0]]), a_ub=A, b_ub=b,
            free=[p]))
        assert status == fresh.status == OPTIMAL
        x = self.solution()
        assert abs(x[p] + fresh.objective) <= 1e-9 * (1 + abs(x[p]))
        assert np.all(A @ x <= b + 1e-9 * (1 + np.abs(b)))
        assert np.all(x[:p] >= 0.0)
        checked.append(len(rows) - p)
        values.append(-fresh.objective)
        return status

    def search(system):
        values.clear()
        res = cert.find_certificate_general(system)
        if values:
            assert abs(res.upper_bound - values[-1]) <= \
                1e-9 * (1 + abs(values[-1]))
        else:
            assert res.upper_bound is None

    monkeypatch.setattr(Tableau, "add_row", recording_add_row)
    monkeypatch.setattr(Tableau, "dual_simplex", checked_dual_simplex)
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


def test_master_iteration_limit_is_numerical(monkeypatch):
    # one pass of the dual simplex per cut: the first cut is already
    # optimal, the second needs a pivot and runs out
    monkeypatch.setattr(linprog, "_MAX_ITERS", 1)
    with pytest.raises(NumericalBreakdown,
                       match="^certificate master LP: iteration limit"):
        cert.find_certificate_general(_near_boundary_system(2))
