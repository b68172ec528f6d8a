"""Acceptance suite: one test per criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines."""

import io
import json
import time
from pathlib import Path

import numpy as np
import pytest

import slemma
from conftest import (brute_force_boxed_lp, grid_decides_implication,
                      quadratic_values, solve_boxed_lp)
from slemma import certificate as cert
from slemma import geometry as geo
from slemma.cli import main as cli_main
from slemma.geometry import _random_quadratic as random_quadratic
from slemma.implication import (INVALID, UNDETERMINED, VALID, ClassifyConfig,
                                box_sample, check_slater, classify_instance)
from slemma.linprog import OPTIMAL
from slemma.quadratic import QuadraticFunction, eigen_sym
from slemma.rng import SplitMix64, derive_seed
from slemma.systems import FunctionSystem

CORPUS = Path(slemma.__file__).parent / "corpus"


def _ok(num, message):
    print(f"ACCEPTANCE {num}: PASS - {message}")


@pytest.fixture(scope="module")
def example3_system():
    q0 = QuadraticFunction(np.array([[4.0, 0.0], [0.0, -2.0]]),
                           np.zeros(2), 0.0)
    q1 = QuadraticFunction(np.zeros((2, 2)), np.array([1.0, 1.0]), 0.0)
    return FunctionSystem(2, q0, (q1,))


def test_criterion_1_example3_reproduction(example3_system):
    started = time.time()
    system = example3_system
    cloud = geo.sample_image(system, 10.0, 4096, 1)

    # (a) every sampled (u, v) = (q0, q1)(x) satisfies u >= -2 v^2 - 1e-9
    u = cloud.points[:, 0]
    v = -cloud.points[:, 1]
    assert np.min(u + 2.0 * v * v) >= -1e-9

    # (b) identity-membership falsifier finds a violation within 2000 trials
    ident = geo.identity_membership_oracle(system, cloud, budget=16, seed=7)
    res_b = geo.falsify_convexity(ident, cloud, trials=2000, seed=99,
                                  eta=1e-3, system=system)
    assert res_b.found and res_b.trials_run <= 2000

    # (c) epi-membership falsifier finds none in 2000 trials
    epi = geo.epi_membership_oracle(system, cloud, budget=16, seed=8)
    res_c = geo.falsify_convexity(epi, cloud, trials=2000, seed=100,
                                  eta=1e-3, system=system)
    assert not res_c.found

    # (d) epi_member succeeds for 50 random targets in [-10, 10]^2
    rng = SplitMix64(2025)
    for i in range(50):
        target = rng.uniforms(2, -10.0, 10.0)
        res = geo.epi_member(system, target, budget=24, seed=1000 + i)
        assert res.member, (i, target, res.margin)

    elapsed = time.time() - started
    assert elapsed <= 30.0, f"criterion 1 took {elapsed:.1f}s"
    _ok(1, f"Example 3 reproduced: bound, violation at trial "
           f"{res_b.trials_run}, epi convex, 50/50 targets, {elapsed:.1f}s")


@pytest.fixture(scope="module")
def p1_consistency_run():
    """200 random all-quadratic p=1 instances with a Slater point, each
    classified and grid-adjudicated; shared by criteria 2 and 3."""
    started = time.time()
    master = SplitMix64(20250810)
    instances = []
    generated = 0
    while len(instances) < 200 and generated < 2000:
        generated += 1
        inst_seed = master.next_u64()
        rng = SplitMix64(inst_seed)
        n = 1 + int(rng.randint(4))
        system = FunctionSystem(n, random_quadratic(rng, n),
                                (random_quadratic(rng, n),))
        # the Slater filter draws its own stream-1, 2048-row sample,
        # independent of the classifier's
        sample = box_sample(system, 10.0, 2048, derive_seed(inst_seed, 1))
        slater = check_slater(system, *sample, 10.0)
        if not slater.found:
            continue
        report = classify_instance(system, ClassifyConfig(seed=inst_seed))
        instances.append((inst_seed, system, report))
    elapsed = time.time() - started
    return instances, elapsed


def test_criterion_2_p1_consistency(p1_consistency_run):
    instances, elapsed = p1_consistency_run
    assert len(instances) == 200
    definitive = 0
    undetermined_log = []
    for inst_seed, system, report in instances:
        if report.verdict == UNDETERMINED:
            # every undetermined instance is adjudicated and logged
            oracle_says_valid = grid_decides_implication(system)
            undetermined_log.append((inst_seed, oracle_says_valid))
            continue
        definitive += 1
        oracle_says_valid = grid_decides_implication(system)
        verdict_says_valid = report.verdict == VALID
        assert oracle_says_valid == verdict_says_valid, inst_seed
        both = (report.certificate is not None
                and report.counterexample is not None
                and report.counterexample.found)
        assert not both, inst_seed
    for entry in undetermined_log:
        print(f"  undetermined instance adjudicated: seed={entry[0]} "
              f"grid says implication={'holds' if entry[1] else 'fails'}")
    assert definitive >= 0.95 * len(instances), definitive
    assert elapsed <= 300.0, f"criterion 2 took {elapsed:.1f}s"
    _ok(2, f"{definitive}/200 definitive, all grid-adjudicated, "
           f"{len(undetermined_log)} undetermined logged, {elapsed:.1f}s")


def test_criterion_3_certificate_soundness(p1_consistency_run):
    instances, _ = p1_consistency_run
    checked = 0
    for inst_seed, system, report in instances:
        if report.certificate is None:
            continue
        checked += 1
        fresh = SplitMix64(derive_seed(inst_seed, 999))
        X = fresh.uniform_box(10.0, system.n, 100000)
        vals0 = quadratic_values(system.f0, X)
        feas = quadratic_values(system.constraints[0], X) >= 0.0
        assert not np.any(feas & (vals0 < -1e-6)), inst_seed
    assert checked > 0
    _ok(3, f"no 1e5-sample counterexample against any of the {checked} "
           f"found certificates")


def _convex_case_instance(rng, n):
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


def test_criterion_4_separation_pipeline():
    master = SplitMix64(424242)
    found = 0
    failures = []
    for i in range(50):
        inst_seed = master.next_u64()
        rng = SplitMix64(inst_seed)
        n = 2 + int(rng.randint(3))
        system = _convex_case_instance(rng, n)
        # generation guarantees: f0 convex, f1 concave, Slater, grid-(I)
        assert np.min(np.linalg.eigvalsh(system.f0.Q)) >= -1e-9
        assert np.max(np.linalg.eigvalsh(system.constraints[0].Q)) <= 1e-9
        sample = box_sample(system, 10.0, 2048, derive_seed(inst_seed, 1))
        assert check_slater(system, *sample, 10.0).found
        assert grid_decides_implication(system, points=21)
        cloud = geo.sample_image(system, 10.0, 512, derive_seed(inst_seed, 9))
        res = cert.find_certificate_via_separation(
            system, cloud, seed=derive_seed(inst_seed, 10))
        if res.found:
            assert res.certificate.label == cert.EXACT_PSD
            # re-checked with numpy, not with the check that labelled it
            M = cert.combined_matrix(system, res.certificate.alpha)
            lam = np.linalg.eigvalsh(M)[0]
            assert lam >= -1e-9 * (1.0 + np.max(np.abs(M))), \
                f"false Found on instance {i}"
            found += 1
        else:
            assert res.outcome in (cert.SLATER_BLOCKED,
                                   cert.REFINEMENT_EXHAUSTED), res.outcome
            failures.append(res.outcome)
    assert found >= 45, (found, failures)
    _ok(4, f"separation pipeline: {found}/50 Found with ExactPSD, "
           f"failures {failures or 'none'}")


def test_criterion_5_lp_engine():
    rng = np.random.default_rng(12345)
    optimal = infeasible = 0
    for trial in range(500):
        m = int(rng.integers(1, 7))
        k = int(rng.integers(1, 13))
        c = rng.uniform(-1, 1, m)
        A = rng.uniform(-1, 1, (k, m))
        b = rng.uniform(-0.6, 1, k)
        lo = rng.uniform(-2, 0, m)
        up = rng.uniform(0, 2, m)
        out = solve_boxed_lp(c, A, b, lo, up)
        status, obj = brute_force_boxed_lp(c, A, b, lo, up)
        assert out.status == status, trial
        if status == OPTIMAL:
            optimal += 1
            assert abs(out.objective - obj) <= 1e-7, trial
        else:
            infeasible += 1
    _ok(5, f"500 LPs match vertex enumeration ({optimal} optimal, "
           f"{infeasible} infeasible)")


def test_criterion_6_eigensolver():
    rng = np.random.default_rng(6060)
    for trial in range(500):
        n = int(rng.integers(1, 11))
        A = rng.uniform(-3, 3, (n, n))
        A = A + A.T
        dec = eigen_sym(A)
        V, lam = dec.eigenvectors, dec.eigenvalues
        scale = 1.0 + np.max(np.abs(A))
        assert np.max(np.abs(V @ np.diag(lam) @ V.T - A)) <= 1e-8 * scale
        tr = np.trace(A)
        assert abs(tr - np.sum(lam)) <= 1e-9 * (1.0 + abs(tr))
    # closed forms
    for trial in range(200):
        A = rng.uniform(-3, 3, (2, 2))
        A = A + A.T
        lam = eigen_sym(A).eigenvalues
        mean = (A[0, 0] + A[1, 1]) / 2.0
        rad = np.sqrt(((A[0, 0] - A[1, 1]) / 2.0) ** 2 + A[0, 1] ** 2)
        assert np.max(np.abs(lam - [mean - rad, mean + rad])) <= 1e-10
        B = rng.uniform(-3, 3, (3, 3))
        B = B + B.T
        lam3 = eigen_sym(B).eigenvalues
        coeffs = [1.0, -np.trace(B),
                  (np.trace(B) ** 2 - np.trace(B @ B)) / 2.0,
                  -np.linalg.det(B)]
        roots = np.sort(np.roots(coeffs).real)
        assert np.max(np.abs(lam3 - roots)) <= 1e-10
    _ok(6, "500 random eigensystems pass reconstruction/trace; 200 closed "
           "forms match at 1e-10")


def _random_affine_data(rng):
    from slemma.farkas import AFFINE, make_linear_system
    n = 2 + int(rng.randint(4))
    p = 1 + int(rng.randint(min(4, n)))
    A = np.array(rng.uniforms(p * n, -1.0, 1.0)).reshape(p, n)
    b = np.array(rng.uniforms(p, -1.0, 1.0))
    if rng.randint(2) == 0:
        alpha = np.array(rng.uniforms(p, 0.2, 2.0))
        a0 = A.T @ alpha
        b0 = float(alpha @ b) - float(rng.uniforms(1, 0.0, 1.0)[0])
    else:
        a0 = np.array(rng.uniforms(n, -1.0, 1.0))
        b0 = float(rng.uniforms(1, -1.0, 1.0)[0])
    return make_linear_system(a0, b0, A, b, mode=AFFINE)


def test_criterion_7_farkas_agreement():
    from slemma.farkas import MULTIPLIERS, solve
    rng = SplitMix64(1453)
    multipliers = alternatives = 0
    for i in range(100):
        data = _random_affine_data(rng)
        res = solve(data)
        n = data.n
        f0 = QuadraticFunction(np.zeros((n, n)), data.a0, -data.b0)
        cons = tuple(QuadraticFunction(np.zeros((n, n)), data.a[j], -data.b[j])
                     for j in range(data.p))
        rep = classify_instance(FunctionSystem(n, f0, cons),
                                ClassifyConfig(seed=derive_seed(1453, i),
                                               samples=2048))
        if res.kind == MULTIPLIERS:
            multipliers += 1
            assert rep.verdict == VALID, i
            a1, a2 = res.alpha, rep.certificate.alpha
            s1, s2 = np.sum(a1), np.sum(a2)
            if s1 > 1e-12 and s2 > 1e-12:
                a1, a2 = a1 / s1, a2 / s2
            assert np.max(np.abs(a1 - a2)) <= 1e-6, i
        else:
            alternatives += 1
            assert rep.verdict == INVALID, i
    _ok(7, f"100 linear instances agree ({multipliers} multiplier, "
           f"{alternatives} alternative) with multipliers within 1e-6")


def test_criterion_8_deterministic_reports():
    files = sorted(p.name for p in CORPUS.glob("*.json")
                   if p.name != "expected_verdicts.json")
    manifest = json.loads((CORPUS / "expected_verdicts.json").read_text())
    assert len(files) == 16
    for name in files:
        outputs = []
        for _ in range(2):
            out = io.StringIO()
            code = cli_main(["classify", str(CORPUS / name)], out=out,
                            err=io.StringIO())
            outputs.append((code, out.getvalue()))
        assert outputs[0] == outputs[1], name
        assert f"verdict: {manifest[name]}" in outputs[0][1], name
        expected_code = 2 if manifest[name] == UNDETERMINED else 0
        assert outputs[0][0] == expected_code, name
    _ok(8, f"byte-identical classify reports across the {len(files)}-file "
           f"corpus, golden verdicts match")
