from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import slemma
from conftest import random_p1_system
from slemma import certificate as cert
from slemma import geometry as geo
from slemma import implication, quadratic
from slemma.expr import parse
from slemma.implication import (INVALID, UNDETERMINED, VALID, ClassifyConfig,
                                check_slater, classify_instance,
                                find_counterexample)
from slemma.linprog import Tableau
from slemma.problem import load_problem
from slemma.quadratic import QuadraticFunction
from slemma.rng import SplitMix64
from slemma.systems import FunctionSystem


def _norm_sq(n):
    return QuadraticFunction(2 * np.eye(n), np.zeros(n), 0.0)


def _ball(n):
    """1 - |x|^2"""
    return QuadraticFunction(-2 * np.eye(n), np.zeros(n), 1.0)


def test_slater_found_inside_ball():
    system = FunctionSystem(2, _norm_sq(2), (_ball(2),))
    res = check_slater(system, seed=5)
    assert res.found
    assert res.min_constraint_value > 1e-9
    assert np.linalg.norm(res.x0) < 1.0


def test_slater_not_found_for_negative_constraint():
    neg = QuadraticFunction(-2 * np.eye(2), np.zeros(2), -1.0)
    system = FunctionSystem(2, _norm_sq(2), (neg,))
    res = check_slater(system, seed=5)
    assert not res.found


def test_slater_example3_constraint(example3):
    res = check_slater(example3, seed=5)
    assert res.found
    # e.g. (1, 1) has value 2; any strictly positive point qualifies
    assert res.min_constraint_value > 0


def test_slater_ignores_an_undefined_objective():
    # log(x1) is undefined at every Slater point x1 < 0 of f1 = -x1; the
    # candidates used to be rejected for their non-finite f0
    system = FunctionSystem(1, parse("log(x1)", 1), (parse("-x1", 1),))
    res = check_slater(system, seed=5)
    assert res.found
    assert res.x0[0] < 0
    assert res.min_constraint_value == -res.x0[0]


def test_slater_vacuous_for_p0():
    system = FunctionSystem(2, _norm_sq(2), ())
    res = check_slater(system, seed=5)
    assert res.found
    assert res.x0.tolist() == [0.0, 0.0]


def test_counterexample_none_for_nonnegative_objective():
    system = FunctionSystem(2, _norm_sq(2), (_ball(2),))
    res = find_counterexample(system, seed=7)
    assert not res.found


def test_counterexample_found_for_example3(example3):
    res = find_counterexample(example3, seed=7)
    assert res.found
    vals = example3.values(res.x)
    assert vals[0] < -1e-9
    assert np.min(vals[1:]) >= -1e-9


def test_counterexample_none_when_feasible_set_matches_sign():
    # f0 = x1 with constraint x1 >= 0: nonnegative on the feasible set
    lin = QuadraticFunction([[0.0]], [1.0], 0.0)
    system = FunctionSystem(1, lin, (lin,))
    res = find_counterexample(system, seed=7)
    assert not res.found
    # the closest feasible miss has f0 near 0
    assert res.closest_miss_f0 is not None
    assert res.closest_miss_f0 >= -1e-9


def test_counterexample_starts_are_in_domain(monkeypatch):
    # sqrt(x1) is undefined on half the box; no out-of-domain sample may
    # reach the descent as a start, not even through the top-up
    system = FunctionSystem(2, parse("sqrt(x1) + 1", 2),
                            (parse("0.0001 - x2^2", 2),))
    starts = []
    original = implication.descend

    def spy(loss, X0, *args, **kwargs):
        starts.append(np.array(X0))
        return original(loss, X0, *args, **kwargs)

    monkeypatch.setattr(implication, "descend", spy)
    res = find_counterexample(system, seed=3)
    assert not res.found
    assert len(starts) == 1 and starts[0].shape == (20, 2)
    assert np.all(np.isfinite(system.values_batch(starts[0])))


def test_classify_convex_case_valid():
    system = FunctionSystem(2, _norm_sq(2), (_ball(2),))
    rep = classify_instance(system, ClassifyConfig(seed=1))
    assert rep.verdict == VALID
    assert rep.certificate is not None
    assert rep.certificate.verified == "ExactPSD"


def test_classify_example3_invalid(example3):
    rep = classify_instance(example3, ClassifyConfig(seed=1))
    assert rep.verdict == INVALID
    x = rep.counterexample.x
    z = example3.image_point(x)
    assert geo.cone_k_member(z, 1e-9)


def test_classify_p0_psd():
    rep = classify_instance(FunctionSystem(2, _norm_sq(2), ()),
                            ClassifyConfig(seed=1))
    assert rep.verdict == VALID
    assert rep.certificate.alpha.shape == (0,)


def test_classify_p0_indefinite_is_invalid():
    q = QuadraticFunction(np.diag([2.0, -2.0]), np.zeros(2), 0.0)
    rep = classify_instance(FunctionSystem(2, q, ()), ClassifyConfig(seed=1))
    assert rep.verdict == INVALID


def test_classify_slater_failure_is_undetermined():
    # f1 = -x^2 pins the feasible set to {0} where f0 = x vanishes: the
    # implication holds but no multiplier exists; the cutting planes prove
    # that, and the honest verdict is Undetermined with geometry evidence
    system = FunctionSystem(1, QuadraticFunction([[0.0]], [1.0], 0.0),
                            (QuadraticFunction([[-2.0]], [0.0], 0.0),))
    search = cert.find_certificate_p1(system)
    assert not search.found
    assert search.outcome == cert.NO_CERTIFICATE
    assert search.best_lambda_min <= search.upper_bound < 0
    rep = classify_instance(system, ClassifyConfig(seed=1))
    assert rep.verdict == UNDETERMINED
    assert "no certificate with alpha <= alpha_max=10000.0" in rep.notes
    assert not rep.slater.found
    assert rep.evidence.computed
    assert rep.evidence.hull is not None


def _count_calls(monkeypatch, counts, owner, name):
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def _norm_sq_pair_system():
    """4|x|^2 over two copies of |x|^2: a p = 2 certificate exists."""
    return FunctionSystem(2, QuadraticFunction(8 * np.eye(2), np.zeros(2),
                                               0.0),
                          (_norm_sq(2), _norm_sq(2)))


CORPUS = Path(slemma.__file__).parent / "corpus"


@pytest.mark.parametrize("name, search_eigen", [
    ("example3_pair.json", 1), ("random_p1_01.json", 1),
    ("slater_fail.json", 2), (None, 1)])
def test_certificate_stage_decomposes_each_matrix_once(name, search_eigen,
                                                       monkeypatch):
    # the stage takes its retry starts from the search's best check, so it
    # makes no eigen call beyond the search's; each iterate makes one eigen
    # call and one master re-optimization, except a p >= 2 iterate that
    # passes
    counts = Counter()
    _count_calls(monkeypatch, counts, quadratic, "eigen_sym")
    _count_calls(monkeypatch, counts, Tableau, "dual_simplex")
    per_search = []
    search_fn = cert.find_certificate_general

    def counted_search(*args, **kwargs):
        before = counts["eigen_sym"]
        result = search_fn(*args, **kwargs)
        per_search.append(counts["eigen_sym"] - before)
        return result

    monkeypatch.setattr(cert, "find_certificate_general", counted_search)
    system = (_norm_sq_pair_system() if name is None
              else load_problem(CORPUS / name).system())
    search, _, starts = implication.certificate_stage(system, ClassifyConfig())
    assert per_search == [search_eigen]
    assert counts["eigen_sym"] == search_eigen
    assert counts["dual_simplex"] == search_eigen - (system.p > 1)
    assert search.found == (name is None)
    for x in starts:
        weights = np.concatenate([[1.0], -search.best_alpha])
        assert system.values(x) @ weights < 0


def test_classify_never_holds_both_witnesses():
    rng = SplitMix64(3141)
    for _ in range(15):
        system = random_p1_system(rng.next_u64(), max_n=3)
        rep = classify_instance(system, ClassifyConfig(seed=2, samples=1024))
        both = (rep.certificate is not None
                and rep.counterexample is not None
                and rep.counterexample.found)
        assert not both


def test_classify_mixed_system_counterexample():
    # expression objective that goes negative on the feasible set
    system = FunctionSystem(2, parse("x1 - 5", 2), (_ball(2),))
    rep = classify_instance(system, ClassifyConfig(seed=3))
    assert rep.verdict == INVALID


def test_classify_mixed_system_never_claims_validity():
    # nonnegative expression objective: sampled evidence only, so the
    # verdict must stay Undetermined with a candidate certificate at most
    system = FunctionSystem(1, parse("exp(x1)", 1),
                            (QuadraticFunction([[0.0]], [0.0], 1.0),))
    rep = classify_instance(system, ClassifyConfig(seed=3, samples=512,
                                                   cloud_samples=128,
                                                   falsify_trials=40))
    assert rep.verdict == UNDETERMINED
    assert rep.certificate is None


def test_classify_linear_route_matches_farkas():
    # all-linear quadratic encoding goes through the exact alternatives
    a1 = QuadraticFunction(np.zeros((2, 2)), np.array([1.0, 0.0]), 0.0)
    a2 = QuadraticFunction(np.zeros((2, 2)), np.array([0.0, 1.0]), 0.0)
    f0 = QuadraticFunction(np.zeros((2, 2)), np.array([2.0, 3.0]), 0.0)
    rep = classify_instance(FunctionSystem(2, f0, (a1, a2)),
                            ClassifyConfig(seed=4))
    assert rep.verdict == VALID
    assert np.allclose(rep.certificate.alpha, [2.0, 3.0], atol=1e-8)


def test_classify_half_domain_expression():
    # log is undefined on half the box; sampling skips those points and the
    # negative in-domain values still produce a counterexample
    system = FunctionSystem(1, parse("log(x1)", 1),
                            (QuadraticFunction([[0.0]], [0.0], 1.0),))
    rep = classify_instance(system, ClassifyConfig(seed=3, samples=256,
                                                   cloud_samples=64,
                                                   falsify_trials=10))
    assert rep.verdict == INVALID
    assert rep.counterexample.x[0] > 0.0


def test_classify_deterministic_reports(example3):
    from slemma.report import classify_report

    class FakePf:
        path = "mem"

    reps = []
    for _ in range(2):
        result = classify_instance(example3, ClassifyConfig(seed=9))
        reps.append(classify_report(FakePf, example3, result,
                                    "slemma classify mem").to_text())
    assert reps[0] == reps[1]


# classify_instance verdicts on random_p1_system(seed), seeds 0-1499, one
# letter each: I (Invalid), V (Valid), U (Undetermined); 60 seeds a line
P1_VERDICTS = (
    "IIIIIIIIIVIIIIIIIIIIIIVIIIIIIIIIIIUIIIIVIIIVIIIIIVIIIIIIIVII"
    "IIIIIIIVIIIIIIIIIIIIIIIVIVIIIIIIIIIIIIIIIIVVIIIIVIIIIIIIIIII"
    "IIIIIIIVIUIIIIIIIIIIIIVIVIVIIVIIIIIIVIIIIIIVIIIIIIIIVIVVIIVI"
    "IIIIIIVIIIIIIIVIIIIIIIIIIIIIVIIIIIIIIIIIVIIIIIIVIIIIIIIIIVIV"
    "IIIVIIVIVVIIIIIVIIIIIIIIIIVIIIIIIIIVIIIIIIIIIIIIIIIIIIIIIVVV"
    "IIIIIIIVIIIIIVIIIIIIIIIIIIIIIIIIIVIIVIIIIIIIIVVIIIVIIIIIIIII"
    "IIVIIVIIVVVIIVIIIIIIVIIIIIIIIIIIVIIIIIIIVIIIIIIVIVIIIIIIIIVI"
    "IIIIIIIIIIVIIIVIIIIIIIVIIIIIIIIIVIIIIIIIVIIIIIIIIIIIIIIIIIVI"
    "IIIIIVIIIVIIIIIIIIIIIIIIIVIIIIIIIIIIIIVIIIIIIIVVIIIIIIIIIIII"
    "IIIIIIVIIIIIIIIIIIIIIVIIIIIIIIVIIIIVIIIIIIIIIIIIVIIIIIIVVVII"
    "IIIIIIIIIIIIIIIIIIIIIIVIIIIIIIIIVIIIIIIIIIIIVVIIIIIIIVVIVIII"
    "IIIVIIIIVVIIIIIIIIIVIIIIIIIIIIIVIIVIIIIIIVIIIIIIIIVIIIIVIIII"
    "IIIIIIIIIIIIIIIIIIIIIIVIVIIIIIIIIIIIIIVVIIIVIIVIIIIIIIVVIIII"
    "IIIVVIVIVVIVIIIVIIIIVIVIIIIIIIIIVIVIIIIIVIIIIIIIIIIIIVIIVIII"
    "IIIIVIIIIIIIIIIIIIIIIIIVIIIIIIIIIIIIIIIIIIIIIIIVVIIIIIIIIIII"
    "VIVIIIIIVIIIIIIIIVIIIIIIIIIVIIIIIIIVIIIIIVIIIIIVIIIIIVIIIIVI"
    "IIIVIIIIVIIIIIIIIIIIIIVIIIIIIIVIIIVIIIIVVIIIIIIIIIIIIVIIIIVI"
    "IIIIVIIVIIIVIIIVIIIIIIIIIIIIIIIIIIIIIIIIIIIVIVIIIIIIIIIIIIII"
    "IIIIIIIIIIIIIIIIIVIIIIIIIIIIIIIIIIIIIIIIIIIIVIIIIIIIIIVIIIVI"
    "IVIIVIVIIIIIIIIIIIVIVVVIIIIIIIVIIIVIIIIIIIIIIVIIIIVIIVIIIIII"
    "IIIIIVIIIIIVIIVIIIIIIIIIIIIIIIIIIIIIIVIIIIIIIIIIIIIIIIIIIVII"
    "IVIVIIIVIIIIVIIIIIIIIIVVIVIIIIIIIIIIIIIIIVIIVIIIIIIIIIIIIIIV"
    "IIVIIIIVIIUIVIIIIIIIVIIIIIIIIIIIIIIIIIIIIVIIIIIVIIIIIIVIIIIV"
    "IIVIIIIIIIIIIIIIIIIIIIIIIIIVVIVIIIIIIIIIIIIIIIIVIVIIIVIIIIII"
    "VVIIIVIIIIIIVIIIVIIIIIIIIIIVIIIVIVIIIIIIIIIIIIIIIIIIIIIVIIII"
)


def test_random_p1_verdicts_are_pinned():
    got = "".join({INVALID: "I", VALID: "V", UNDETERMINED: "U"}[
        classify_instance(random_p1_system(seed)).verdict]
        for seed in range(1500))
    assert Counter(got) == {"I": 1296, "V": 201, "U": 3}
    assert [s for s, v in enumerate(got) if v == "U"] == [34, 129, 1330]
    assert got == P1_VERDICTS
