import hashlib
import json
import pickle
from collections import Counter, OrderedDict
from pathlib import Path

import numpy as np
import pytest

import slemma
from conftest import random_p1_system
from slemma import certificate as cert
from slemma import geometry as geo
from slemma import implication, quadratic, search
from slemma.errors import DimensionMismatch, NotConverged, NumericalBreakdown
from slemma.expr import parse
from slemma.geometry import _random_quadratic as random_quadratic
from slemma.implication import (INVALID, UNDETERMINED, VALID, ClassifyConfig,
                                box_sample, check_slater, classify_instance,
                                find_counterexample)
from slemma.linprog import Tableau
from slemma.problem import load_problem
from slemma.quadratic import QuadraticFunction
from slemma.rng import SplitMix64, derive_seed
from slemma.systems import FunctionSystem


def _norm_sq(n):
    return QuadraticFunction(2 * np.eye(n), np.zeros(n), 0.0)


def _ball(n):
    """1 - |x|^2"""
    return QuadraticFunction(-2 * np.eye(n), np.zeros(n), 1.0)


def test_slater_found_inside_ball():
    system = FunctionSystem(2, _norm_sq(2), (_ball(2),))
    res = check_slater(system, *box_sample(system, 10.0, 2048, 5), 10.0)
    assert res.found
    assert res.min_constraint_value > 1e-9
    assert np.linalg.norm(res.x0) < 1.0


def test_slater_not_found_for_negative_constraint():
    neg = QuadraticFunction(-2 * np.eye(2), np.zeros(2), -1.0)
    system = FunctionSystem(2, _norm_sq(2), (neg,))
    res = check_slater(system, *box_sample(system, 10.0, 2048, 5), 10.0)
    assert not res.found


def test_slater_example3_constraint(example3):
    res = check_slater(example3, *box_sample(example3, 10.0, 2048, 5),
                       10.0)
    assert res.found
    # e.g. (1, 1) has value 2; any strictly positive point qualifies
    assert res.min_constraint_value > 0


def test_slater_ignores_an_undefined_objective():
    # log(x1) is undefined at every Slater point x1 < 0 of f1 = -x1; the
    # candidates used to be rejected for their non-finite f0
    system = FunctionSystem(1, parse("log(x1)", 1), (parse("-x1", 1),))
    res = check_slater(system, *box_sample(system, 10.0, 2048, 5), 10.0)
    assert res.found
    assert res.x0[0] < 0
    assert res.min_constraint_value == -res.x0[0]


def test_slater_vacuous_for_p0():
    system = FunctionSystem(2, _norm_sq(2), ())
    res = check_slater(system, *box_sample(system, 10.0, 2048, 5), 10.0)
    assert res.found
    assert res.x0.tolist() == [0.0, 0.0]


def test_witness_and_slater_rules_match_the_row_by_row_rule():
    # boundary values, non-finite entries and ties, against the plain
    # per-row statement of each rule
    tol, nan, inf = 1e-9, np.nan, np.inf
    vals = np.array([
        [-1.0, -1e-9, 2.0], [-1.0, -1.0000001e-9, 2.0], [-1.0, 0.0, 2.0],
        [-2e-9, 1.0, 1.0], [-1e-9, 1.0, 1.0], [nan, 1.0, 1.0],
        [-5.0, inf, 1.0], [-5.0, 1.0, nan], [-inf, 1.0, 1.0],
        [3.0, 1e-9, 5.0], [3.0, 1.1e-9, 5.0], [0.0, -inf, 5.0]])
    for p in (2, 1, 0):
        rows = vals[:, :p + 1]
        witness = implication.witness_f0(rows)
        for k, row in enumerate(rows):
            feasible = all(np.isfinite(row)) and all(
                v >= -tol for v in row[1:])
            assert witness[k] == (row[0] if feasible else inf)
    margin = implication.slater_margin(vals[:, 1:])
    for k, row in enumerate(vals):
        assert margin[k] == min(v if np.isfinite(v) else -inf
                                for v in row[1:])
    witness = implication.witness_f0(vals)
    assert list(np.flatnonzero(witness < -tol)) == [0, 2, 3]
    # f0 need not be defined at a Slater point (row 5)
    assert list(np.flatnonzero(margin > tol)) == [3, 4, 5, 8, 10]


def test_counterexample_none_for_nonnegative_objective():
    system = FunctionSystem(2, _norm_sq(2), (_ball(2),))
    res = find_counterexample(system, *box_sample(system, 10.0, 4096, 7),
                              10.0)
    assert not res.found


def test_counterexample_found_for_example3(example3):
    res = find_counterexample(example3,
                              *box_sample(example3, 10.0, 4096, 7), 10.0)
    assert res.found
    vals = example3.values(res.x)
    assert vals[0] < -1e-9
    assert np.min(vals[1:]) >= -1e-9


def test_counterexample_none_when_feasible_set_matches_sign():
    # f0 = x1 with constraint x1 >= 0: nonnegative on the feasible set
    lin = QuadraticFunction([[0.0]], [1.0], 0.0)
    system = FunctionSystem(1, lin, (lin,))
    res = find_counterexample(system, *box_sample(system, 10.0, 4096, 7),
                              10.0)
    assert not res.found
    # the closest feasible miss has f0 near 0
    assert res.f0_value is not None
    assert res.f0_value >= -1e-9


def _spy_on_descents(monkeypatch):
    """The starts of every descent run by the Slater and counterexample
    searches."""
    starts, original = [], search.descend

    def spy(loss, X0, *args, **kwargs):
        starts.append(np.array(X0))
        return original(loss, X0, *args, **kwargs)

    for module in (implication, search):
        monkeypatch.setattr(module, "descend", spy)
    return starts


def test_counterexample_starts_are_in_domain(monkeypatch):
    # sqrt(x1) is undefined on half the box; no out-of-domain sample may
    # reach the descent as a start, not even through the top-up
    system = FunctionSystem(2, parse("sqrt(x1) + 1", 2),
                            (parse("0.0001 - x2^2", 2),))
    starts = _spy_on_descents(monkeypatch)
    res = find_counterexample(system, *box_sample(system, 10.0, 4096, 3),
                              10.0)
    assert not res.found
    assert len(starts) == 1 and starts[0].shape == (20, 2)
    assert np.all(np.isfinite(system.values_batch(starts[0])))


def _sample_deciders():
    """Systems whose box samples hold Slater points and counterexamples."""
    return [random_p1_system(seed) for seed in range(12)] + [
        FunctionSystem(2, QuadraticFunction(np.diag([4.0, -2.0]),
                                            np.zeros(2), 0.0),
                       (QuadraticFunction(np.zeros((2, 2)), [1.0, 1.0],
                                          0.0),)),
        FunctionSystem(2, parse("log(x1) - 1", 2), (parse("x2 + 1", 2),))]


def test_a_deciding_sample_runs_no_descent(monkeypatch):
    starts = _spy_on_descents(monkeypatch)
    decided = 0
    for seed, system in enumerate(_sample_deciders()):
        slater = check_slater(system, *box_sample(system, 10.0, 2048, seed),
                              10.0)
        cex = find_counterexample(
            system, *box_sample(system, 10.0, 4096, seed), 10.0)
        retry = find_counterexample(
            system, *box_sample(system, 10.0, 4096, seed + 100), 10.0,
            extra_starts=[np.zeros(system.n)])
        if slater.found and cex.found and retry.found:
            decided += 1
            assert starts == []
        starts.clear()
    assert decided >= 8


def test_a_deciding_sample_is_the_best_sample():
    radius, seed = 10.0, 4
    slaters = counterexamples = 0
    for system in _sample_deciders():
        X, vals = box_sample(system, radius, 2048, seed)
        least = np.min(vals[:, 1:], axis=1)
        i = int(np.argmax(np.where(np.isfinite(least), least, -np.inf)))
        slater = check_slater(system, X, vals, radius)
        if least[i] > 1e-9:
            slaters += 1
            assert slater.x0.tobytes() == X[i].tobytes()
            assert slater.min_constraint_value == least[i] >= 0.0
        feasible = np.isfinite(vals).all(1) & (least >= -1e-9)
        i = int(np.argmin(np.where(feasible, vals[:, 0], np.inf)))
        cex = find_counterexample(system, X, vals, radius)
        if feasible[i] and vals[i, 0] < -1e-9:
            counterexamples += 1
            assert cex.x.tobytes() == X[i].tobytes()
            assert cex.f0_value == vals[i, 0]
            assert cex.min_constraint == least[i] >= -1e-9
    assert slaters >= 8 and counterexamples >= 8


def _fields(result):
    return {k: v.tolist() if isinstance(v, np.ndarray) else v
            for k, v in vars(result).items()}


# searches whose box sample decides nothing: their results come from the
# descent and are pinned byte for byte (floats in shortest round-trip form);
# both searches read the classifier's one sample (stream 2)
UNDECIDED_SAMPLES = [
    ("slater_fail", "slater", {
        "status": "NotFound", "x0": None,
        "min_constraint_value": -1.0455777199350895e-27}),
    ("slater_fail", "counterexample", {
        "found": False, "x": None, "f0_value": None, "min_constraint": None}),
    (34, "slater", {
        "status": "SlaterPoint",
        "x0": [-0.007811184728663708, -0.11179379849281841],
        "min_constraint_value": 0.00214045061942595}),
    (34, "counterexample", {
        "found": False, "x": None, "f0_value": None, "min_constraint": None}),
    (129, "counterexample", {
        "found": False, "x": [-0.007084291935426515, -0.3526580728146528],
        "f0_value": 0.6999597830691434, "min_constraint": None}),
    (1330, "counterexample", {
        "found": False, "x": [-0.6790569120998485, 0.395879964231759,
                              0.020054277220407417],
        "f0_value": 0.23734412476979364, "min_constraint": None}),
]


@pytest.mark.parametrize("name, stage, expected", UNDECIDED_SAMPLES)
def test_an_undecided_sample_keeps_the_descended_result(monkeypatch, name,
                                                        stage, expected):
    # the classifier's Slater and counterexample stages, default config
    system = (load_problem(CORPUS / f"{name}.json").system()
              if isinstance(name, str) else random_p1_system(name))
    config = ClassifyConfig()
    starts = _spy_on_descents(monkeypatch)
    if stage == "slater":
        result = check_slater(system, *box_sample(
            system, config.box_radius, config.samples,
            derive_seed(config.seed, 2)), config.box_radius)
    else:
        result = implication.counterexample_stage(system, config)
    assert len(starts) == 1
    assert _fields(result) == expected


def test_a_few_samples_that_miss_keep_the_descended_counterexample(
        monkeypatch, example3):
    # 3 samples hold no counterexample at seeds 0 and 3; the descent finds
    # f0 = -100 at the box's edge
    starts = _spy_on_descents(monkeypatch)
    for seed, x0, min_c in ((0, 5.086450802540854e-08, 10.000000050864507),
                            (3, -2.444272707276388e-09, 9.999999997555728)):
        res = find_counterexample(example3,
                                  *box_sample(example3, 10.0, 3, seed), 10.0)
        assert _fields(res) == {
            "found": True, "x": [x0, 10.0], "f0_value": -100.0,
            "min_constraint": min_c}
    assert len(starts) == 2


def test_searches_without_samples_descend_from_the_origin():
    # no sample row to read: the Slater search descends from no point and
    # reports no margin, the counterexample search from the origin
    system = random_p1_system(3)
    sample = box_sample(system, 10.0, 0, 0)
    assert _fields(check_slater(system, *sample, 10.0)) == {
        "status": "NotFound", "x0": None, "min_constraint_value": -np.inf}
    x = [7.502398432458222, 10.0]
    assert _fields(find_counterexample(system, *sample, 10.0)) == {
        "found": True, "x": x, "f0_value": -85.77925859537746,
        "min_constraint": 126.30127568493387}


def test_an_undecided_sample_can_end_the_search(monkeypatch):
    # descend_undecided=False: not found, no descent, and the closest miss
    # is the feasible sample of least f0
    starts = _spy_on_descents(monkeypatch)
    for name in ("slater_fail", "p0_psd", "random_p1_02"):
        system = load_problem(CORPUS / f"{name}.json").system()
        X, vals = box_sample(system, 10.0, 4096, 7)
        feasible = np.all(vals[:, 1:] >= -1e-9, axis=1)
        res = find_counterexample(system, X, vals, 10.0,
                                  descend_undecided=False)
        assert not res.found and res.min_constraint is None
        if not feasible.any():
            assert res.x is res.f0_value is None
            continue
        i = int(np.argmin(np.where(feasible, vals[:, 0], np.inf)))
        assert res.x.tobytes() == X[i].tobytes()
        assert res.f0_value == vals[i, 0] >= -1e-9
    assert starts == []


def test_the_sample_and_the_descent_share_one_witness_test(monkeypatch):
    # f0 = -1 and f1 = -1e-10 everywhere: every point passes the witness
    # test (f1 >= -1e-9, f0 < -1e-9), so the box sample decides, and the
    # classifier's one descent is the Slater search's
    def constant(d):
        return QuadraticFunction(np.zeros((1, 1)), np.zeros(1), d)

    system = FunctionSystem(1, constant(-1.0), (constant(-1e-10),))
    starts = _spy_on_descents(monkeypatch)
    res = find_counterexample(system, *box_sample(system, 10.0, 4096, 7),
                              10.0, descend_undecided=False)
    assert res.found and starts == []
    assert (res.f0_value, res.min_constraint) == (-1.0, -1e-10)
    rep = classify_instance(system)
    assert rep.verdict == INVALID and rep.counterexample.f0_value == -1.0
    assert len(starts) == 1


def _corpus_names(verdict):
    with open(CORPUS / "expected_verdicts.json", encoding="utf-8") as fh:
        return sorted(name for name, expected in json.load(fh).items()
                      if expected == verdict)


def test_a_found_certificate_runs_no_descent(monkeypatch):
    # (C) implies (I), so the classifier searches for the certificate
    # first; each Valid corpus file used to run one 80-step descent.
    # farkas_homogeneous still runs it: f0 = 2 f1 + 3 f2 exactly, so at
    # f1 = f2 = -0.9e-9 the witness test would accept f0 = -4.5e-9
    names = _corpus_names(VALID)
    assert len(names) == 8
    starts = _spy_on_descents(monkeypatch)
    for name in names:
        del starts[:]
        rep = classify_instance(load_problem(CORPUS / name).system())
        assert rep.verdict == VALID, name
        assert len(starts) == (name == "farkas_homogeneous.json"), name


def test_a_certificate_passing_by_tolerance_lets_the_descent_refute():
    # f0 = 1000 x^2 - 1e-7: lambda_min(M0) = -2e-7 passes the PSD test
    # (threshold about -2e-6), yet f0(0) = -1e-7 < -1e-9.  The box sample
    # misses |x| < 1e-5 and the descent does not, so the verdict is the
    # descent's counterexample
    system = FunctionSystem(
        1, QuadraticFunction(np.array([[2000.0]]), np.zeros(1), -1e-7), ())
    check = cert.check_multipliers(system, np.zeros(0))
    assert check.valid and check.lambda_min < 0
    sample = box_sample(system, 10.0, 4096, derive_seed(1, 2))
    assert not find_counterexample(system, *sample, 10.0,
                                   descend_undecided=False).found
    expected = find_counterexample(system, *sample, 10.0)
    assert expected.found and expected.f0_value < -1e-9
    rep = classify_instance(system)
    assert rep.verdict == INVALID and rep.notes == []
    assert rep.certificate is None
    assert _fields(rep.counterexample) == _fields(expected)


def _spy_on_searches(monkeypatch, starts):
    """The number of descents in `starts` before each certificate search."""
    searches, original = [], cert.find_certificate_general

    def spy(*args, **kwargs):
        searches.append(len(starts))
        return original(*args, **kwargs)

    monkeypatch.setattr(cert, "find_certificate_general", spy)
    return searches


@pytest.mark.parametrize("seed", [189, 585])
def test_a_failed_certificate_search_is_followed_by_the_descent(monkeypatch,
                                                                 seed):
    # no counterexample in the sample and no certificate: the descent
    # decides, with the counterexample stage's result bit for bit and none
    # of the certificate search's notes.  At seed 585 the Slater search
    # descends too, before the certificate search
    system = random_p1_system(seed)
    sample = box_sample(system, 10.0, 4096, derive_seed(1, 2))
    expected = find_counterexample(system, *sample, 10.0)
    assert expected.found
    starts = _spy_on_descents(monkeypatch)
    check_slater(system, *sample, 10.0)
    slater = len(starts)
    assert slater == (seed == 585)
    del starts[:]
    searches = _spy_on_searches(monkeypatch, starts)
    rep = classify_instance(system)
    assert searches == [slater] and len(starts) == slater + 1
    assert rep.verdict == INVALID and rep.notes == []
    assert _fields(rep.counterexample) == _fields(expected)
    assert rep.counterexample.x.tobytes() == expected.x.tobytes()


def _spy_on_draws(monkeypatch):
    """The values count of every splitmix64 batch drawn, and "certificate"
    where the classifier's certificate stage starts; the box-sample memo
    starts cold."""
    events = []
    draw, stage = SplitMix64.uniforms, implication.certificate_stage

    def counted_draw(self, count, *args, **kwargs):
        events.append(count)
        return draw(self, count, *args, **kwargs)

    def counted_stage(*args, **kwargs):
        events.append("certificate")
        return stage(*args, **kwargs)

    monkeypatch.setattr(search, "_box_streams", OrderedDict())
    monkeypatch.setattr(SplitMix64, "uniforms", counted_draw)
    monkeypatch.setattr(implication, "certificate_stage", counted_stage)
    return events


@pytest.mark.parametrize("name, descents", [
    (0, 0), ("farkas_homogeneous", 1), (189, 1)])
def test_classify_draws_one_box_sample(monkeypatch, name, descents):
    # the Slater check, the sample-only counterexample read and the
    # descent all read one N-row sample: seed 0 is decided by it, the
    # other two descend from it (farkas_homogeneous after its certificate,
    # seed 189 after a failed certificate search).  A second system of the
    # same dimension then reads the memoized sample: it draws nothing and
    # reports what it reports from a cold memo
    system = (load_problem(CORPUS / f"{name}.json").system()
              if isinstance(name, str) else random_p1_system(name))
    rng = SplitMix64(7)
    other = FunctionSystem(system.n, random_quadratic(rng, system.n),
                           (random_quadratic(rng, system.n),))
    samples = ClassifyConfig().samples
    events = _spy_on_draws(monkeypatch)
    expected = pickle.dumps(classify_instance(other))
    monkeypatch.setattr(search, "_box_streams", OrderedDict())
    del events[:]
    starts = _spy_on_descents(monkeypatch)
    rep = classify_instance(system)
    assert rep.verdict == (VALID if isinstance(name, str) else INVALID)
    assert events == [samples * system.n] + ["certificate"] * bool(descents)
    assert len(starts) == descents
    del events[:]
    warm = classify_instance(other)
    assert set(events) <= {"certificate"}
    assert pickle.dumps(warm) == expected


@pytest.mark.parametrize("error", [NumericalBreakdown, NotConverged,
                                   DimensionMismatch])
def test_a_failed_certificate_stage_still_lets_the_descent_decide(
        monkeypatch, error):
    # the stage's error stands only if the descent finds no counterexample
    system = random_p1_system(189)
    expected = classify_instance(system).counterexample
    valid = load_problem(CORPUS / "random_p1_02.json").system()

    def failing(*args, **kwargs):
        raise error("injected certificate failure")

    monkeypatch.setattr(cert, "find_certificate_general", failing)
    rep = classify_instance(system)
    assert rep.verdict == INVALID and rep.notes == []
    assert _fields(rep.counterexample) == _fields(expected)
    if error is DimensionMismatch:
        # not a numerical failure: the run ends Undetermined
        rep = classify_instance(valid)
        assert rep.verdict == UNDETERMINED
        assert rep.notes == ["stage failure: injected certificate failure"]
    else:
        with pytest.raises(error, match="injected certificate failure"):
            classify_instance(valid)


def test_classify_convex_case_valid():
    system = FunctionSystem(2, _norm_sq(2), (_ball(2),))
    rep = classify_instance(system, ClassifyConfig(seed=1))
    assert rep.verdict == VALID
    assert rep.certificate is not None
    assert rep.certificate.label == "ExactPSD"


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


def _verdicts_and_digest(systems):
    """classify_instance's verdict on each system, one letter each, and a
    sha256 over every report's witness bytes: counterexample x,
    certificate alpha, Slater x0 and margin, and the notes."""
    letters, digest = [], hashlib.sha256()
    for system in systems:
        rep = classify_instance(system)
        letters.append({INVALID: "I", VALID: "V", UNDETERMINED: "U"}[
            rep.verdict])
        for value in (rep.counterexample and rep.counterexample.x,
                      rep.certificate and rep.certificate.alpha,
                      rep.slater.x0, rep.slater.min_constraint_value):
            digest.update(b"-" if value is None
                          else np.asarray(value, float).tobytes())
        digest.update("\n".join(rep.notes).encode() + b"\0")
    return "".join(letters), digest.hexdigest()


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


# _verdicts_and_digest's sha256 on the same instances
P1_DIGEST = "023cf749b8fb99ffa31dfed71d04accdc2ad8194e43a8250169b152717821108"


def test_random_p1_verdicts_are_pinned():
    got, digest = _verdicts_and_digest(random_p1_system(seed)
                                       for seed in range(1500))
    assert Counter(got) == {"I": 1296, "V": 201, "U": 3}
    assert [s for s, v in enumerate(got) if v == "U"] == [34, 129, 1330]
    assert got == P1_VERDICTS
    assert digest == P1_DIGEST


def _system_of(rng, p, n):
    functions = [random_quadratic(rng, n) for _ in range(p + 1)]
    return FunctionSystem(n, functions[0], tuple(functions[1:]))


def _p3_system(s):
    """p = 3 on n = 2..4, drawn from SplitMix64(10000 + s)."""
    rng = SplitMix64(10000 + s)
    return _system_of(rng, 3, 2 + int(rng.randint(3)))


def _p2to4_system(s):
    """p and n in 2..4, drawn from SplitMix64(20000 + s)."""
    rng = SplitMix64(20000 + s)
    p = 2 + int(rng.randint(3))
    return _system_of(rng, p, 2 + int(rng.randint(3)))


# classify_instance verdicts on _p3_system(s), s = 0-59, and on
# _p2to4_system(s), s = 0-299, lettered as P1_VERDICTS
P3_VERDICTS = "IIIIVIIIVIIIIIVIIIIIIVIVVVIIIIIIIIIIIVVIIIVIUIIIIIIIIVIIIIII"
P2TO4_VERDICTS = (
    "IIIIIUIIIIUIIVVIIIIVIIIIIIIIIIIIIIIVIIIIIIVIIIIIIIUIIVIIIIII"
    "IIIIIIIIVVIVIIIVIIIIIIIIIIIVVVVIIVIIIIIIVIIIIVIIIIIIIVVIVIII"
    "IVIIIIIIIIIVIIIIIIIIIVIIIVIIIIIIVIIVUIIIIIIIVIIIVIIIIIIIUIVV"
    "IIIIIIUIIIVIIUIIIIIIIIIIIIIIIIIIVIIIIIIIIUIIIIIIUIIIIIIIIIII"
    "IIIIIIIVIIIIIIVVIIIIIIIVIIIIIVIIIIIIIVIIIIIIIVIIIIIUIIIIIIIV"
)

P3_DIGEST = "bc1ff58305ad370b39e1f2d7858f059dc02ee2982e98e6f6d508ea146de29a60"
P2TO4_DIGEST = (
    "3d185412eca1be8f9b1358429855fafd22170dc545d38dd58fdc3534b5445045")


def test_random_p3_verdicts_are_pinned():
    got, digest = _verdicts_and_digest(_p3_system(s) for s in range(60))
    assert Counter(got) == {"I": 48, "V": 11, "U": 1}
    assert [s for s, v in enumerate(got) if v == "U"] == [44]
    assert got == P3_VERDICTS
    assert digest == P3_DIGEST


def test_random_p2to4_verdicts_are_pinned():
    got, digest = _verdicts_and_digest(_p2to4_system(s) for s in range(300))
    assert Counter(got) == {"I": 250, "V": 40, "U": 10}
    assert [s for s, v in enumerate(got) if v == "U"] == [
        5, 10, 50, 156, 176, 186, 193, 221, 228, 291]
    assert got == P2TO4_VERDICTS
    assert digest == P2TO4_DIGEST
