import hashlib
import json
import pickle
from collections import Counter, OrderedDict
from pathlib import Path

import numpy as np
import pytest

import slemma
from conftest import (grid_decides_implication, p2to4_system, p3_system,
                      quadratic_values, random_p1_system)
from slemma import certificate as cert
from slemma import geometry as geo
from slemma import exact, implication, quadratic, search
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


def _constant(d):
    return QuadraticFunction(np.zeros((1, 1)), np.zeros(1), d)


def test_the_sample_and_the_descent_share_one_witness_test(monkeypatch):
    # f0 = -1 and f1 = 0 everywhere: every point passes the witness test
    # (f1 >= 0 exactly, inside its float error bound, and f0 < -1e-9), so
    # the box sample decides, and the classifier's one descent is the
    # Slater search's (0 is no Slater margin)
    system = FunctionSystem(1, _constant(-1.0), (_constant(0.0),))
    starts = _spy_on_descents(monkeypatch)
    res = find_counterexample(system, *box_sample(system, 10.0, 4096, 7),
                              10.0, descend_undecided=False)
    assert res.found and starts == []
    assert (res.f0_value, res.min_constraint) == (-1.0, 0.0)
    rep = classify_instance(system)
    assert rep.verdict == INVALID and rep.counterexample.f0_value == -1.0
    assert len(starts) == 1


def _corpus_names(verdict):
    with open(CORPUS / "expected_verdicts.json", encoding="utf-8") as fh:
        return sorted(name for name, expected in json.load(fh).items()
                      if expected == verdict)


def test_a_found_certificate_runs_no_descent(monkeypatch):
    # (C) implies (I), so the classifier searches for the certificate
    # first; each Valid corpus file used to run one 80-step descent.  A
    # witness must hold exactly (f_i >= 0, f0 < -1e-9), so a certificate
    # whose lambda_min floor is 0 leaves none to accept, even
    # farkas_homogeneous's f0 = 2 f1 + 3 f2 with lambda_min = 0.0
    names = _corpus_names(VALID)
    assert len(names) == 8
    starts = _spy_on_descents(monkeypatch)
    for name in names:
        del starts[:]
        rep = classify_instance(load_problem(CORPUS / name).system())
        assert rep.verdict == VALID, name
        assert starts == [], name


def test_a_certificate_passing_by_tolerance_lets_the_descent_refute():
    # f0 = 1000 x^2 - 1e-7: lambda_min(M0) = -2e-7 passes the float PSD
    # rule (threshold about -2e-6), yet f0(0) = -1e-7 < -1e-9, and the
    # exact refutation at the eigenvector's lift x = 0 fails the check.
    # The box sample misses |x| < 1e-5 and the descent does not, so the
    # verdict is the descent's counterexample
    system = FunctionSystem(
        1, QuadraticFunction(np.array([[2000.0]]), np.zeros(1), -1e-7), ())
    check = cert.check_multipliers(system, np.zeros(0))
    assert check.threshold <= check.lambda_min < 0 and not check.valid
    assert check.violating_x.tolist() == [0.0]
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
    (0, 0), ("farkas_homogeneous", 0), (189, 1)])
def test_classify_draws_one_box_sample(monkeypatch, name, descents):
    # the Slater check, the sample-only counterexample read and the
    # descent all read one N-row sample: seed 0 is decided by it,
    # farkas_homogeneous by its certificate, which leaves no witness to
    # descend to, and seed 189 descends from it after a failed
    # certificate search.  Seed 189's failed search leaves a witness, but
    # the descent finds the counterexample, so the run draws no retry
    # sample (stream 3).  A second system of the same dimension then
    # reads the memoized sample: it draws only a retry sample of its own,
    # and reports what it reports from a cold memo
    system = (load_problem(CORPUS / f"{name}.json").system()
              if isinstance(name, str) else random_p1_system(name))
    rng = SplitMix64(7)
    other = FunctionSystem(system.n, random_quadratic(rng, system.n),
                           (random_quadratic(rng, system.n),))
    samples = ClassifyConfig().samples
    events = _spy_on_draws(monkeypatch)
    expected = pickle.dumps(classify_instance(other))
    other_retries = events.count(samples * system.n) == 2
    monkeypatch.setattr(search, "_box_streams", OrderedDict())
    del events[:]
    starts = _spy_on_descents(monkeypatch)
    rep = classify_instance(system)
    assert rep.verdict == (VALID if isinstance(name, str) else INVALID)
    assert events == [samples * system.n] + ["certificate"] * (name != 0)
    assert len(starts) == descents
    del events[:]
    warm = classify_instance(other)
    assert [e for e in events if e != "certificate"] == (
        [samples * system.n] * other_retries)
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


def _face_pair(f0_Q, f0_c):
    """f0 = 1/2 x^T Q x + c^T x over f1 = -x1^2 on R^2: f1 >= 0 only on
    the face x1 = 0, where Slater fails."""
    return FunctionSystem(2, QuadraticFunction(np.diag(f0_Q), f0_c, 0.0),
                          (QuadraticFunction(np.diag([-2.0, 0.0]),
                                             np.zeros(2), 0.0),))


@pytest.mark.parametrize("system", [
    load_problem(CORPUS / "slater_fail.json").system(),
    _face_pair([0.0, 2.0], [1.0, 0.0])], ids=["slater_fail", "x1+x2^2"])
def test_the_face_stage_proves_i_and_skips_the_descent(system, monkeypatch):
    # f0 = x (n = 1) and f0 = x1 + x2^2 are >= 0 on the face x1 = 0, and no
    # multiplier exists: the verdict stays Undetermined with the proof
    # note, and only the Slater check descends (10 starts), not the
    # post-certificate counterexample search or its retry, which descend
    # one after the other with the stage stubbed out
    starts = _spy_on_descents(monkeypatch)
    assert implication.face_stage(system) == (True, None)
    rep = classify_instance(system)
    assert rep.verdict == UNDETERMINED
    assert rep.notes == ["no certificate with alpha <= alpha_max=10000.0",
                         implication._FACE_PROOF,
                         "separation outcome: slater_blocked"]
    assert [len(X0) for X0 in starts] == [10]
    monkeypatch.setattr(implication, "face_stage",
                        lambda system: (False, None))
    del starts[:]
    assert classify_instance(system).verdict == UNDETERMINED
    assert len(starts) == 3 and len(starts[0]) == 10


def test_the_face_stage_proves_i_on_an_empty_face():
    # f0 = x1 over f1 = -x2^2 - 1 < 0: M1's kernel is span(e_x1), whose
    # t = 0, so the face and the feasible set are empty and (I) holds
    system = FunctionSystem(2, QuadraticFunction(np.zeros((2, 2)), [1.0, 0.0],
                                                 0.0),
                            (QuadraticFunction(np.diag([0.0, -2.0]),
                                               np.zeros(2), -1.0),))
    assert implication.face_stage(system) == (True, None)
    rep = classify_instance(system)
    assert rep.verdict == UNDETERMINED
    assert rep.notes == ["no certificate with alpha <= alpha_max=10000.0",
                         implication._FACE_PROOF,
                         "separation outcome: slater_blocked"]


def test_the_face_stage_refutes_where_the_descent_cannot(monkeypatch):
    # f0 = x1 - x2^2 falls along the face x1 = 0: N = [[-2, 0], [0, 0]] on
    # (x2, t) has the direction e_x2 with f0 = -s^2, and s = 1 gives the
    # counterexample (0, 1), exact in Fraction; the sampled path cannot hit
    # x1 = 0 and leaves the instance Undetermined
    system = _face_pair([0.0, -2.0], [1.0, 0.0])
    rep = classify_instance(system)
    assert rep.verdict == INVALID
    assert rep.notes == [implication._FACE_WITNESS]
    cex = rep.counterexample
    assert cex.x.tolist() == [0.0, 1.0]
    assert cex.f0_value == -1.0 and cex.min_constraint == 0.0
    assert exact.value(system.f0, cex.x) == -1
    assert exact.value(system.constraints[0], cex.x) == 0
    monkeypatch.setattr(implication, "face_stage",
                        lambda system: (False, None))
    assert classify_instance(system).verdict == UNDETERMINED


def test_the_face_stage_runs_only_after_a_failed_p1_search(monkeypatch):
    # on the corpus only slater_fail's certificate search fails at p = 1:
    # every other file is certified, decided by its sample, or linear with
    # a Farkas alternative
    ran, original = [], implication.face_stage

    def spy(system):
        ran.append(name)
        return original(system)

    monkeypatch.setattr(implication, "face_stage", spy)
    for path in sorted(CORPUS.glob("*.json")):
        name = path.name
        if name != "expected_verdicts.json":
            classify_instance(load_problem(path).system())
    assert ran == ["slater_fail.json"]


def _integers(rng, n):
    return np.array([float(rng.randint(5)) - 2.0 for _ in range(n)])


def _slater_failing_system(seed):
    """f1 = -(a.x + b)^2, a in {-2..2}^n nonzero and b in {-1, 0, 1}, so
    that the face a.x + b = 0 holds points of the grid oracle's 0.5 grid;
    n = 1..3.  f0 is `random_quadratic` on even seeds, and on odd seeds
    (a.x + b)(h.x + k) + (g.x + e)^2 with small integer h, k, g, e, which
    is >= 0 on the face and has no multiplier where the face meets g.x + e
    = 0 off h.x + k = 0.  All from SplitMix64(seed)."""
    rng = SplitMix64(seed)
    n = 1 + int(rng.randint(3))
    a, b = _integers(rng, n), float(rng.randint(3)) - 1.0
    if not a.any():
        a[0] = 1.0
    if seed % 2 == 0:
        f0 = random_quadratic(rng, n)
    else:
        h, k = _integers(rng, n), float(rng.randint(3)) - 1.0
        g, e = _integers(rng, n), float(rng.randint(3)) - 1.0
        f0 = QuadraticFunction(
            np.outer(a, h) + np.outer(h, a) + 2.0 * np.outer(g, g),
            b * h + k * a + 2.0 * e * g, b * k + e * e)
    f1 = QuadraticFunction(-2.0 * np.outer(a, a), -2.0 * b * a, -b * b)
    return FunctionSystem(n, f0, (f1,))


def test_the_face_stage_agrees_with_the_grid_oracle(monkeypatch):
    # ROADMAP item 5's check: on a Slater-failing p = 1 family, each
    # verdict and each proof of (I) by the face stage agrees with the grid
    # oracle, and the stage decides both ways
    decisions, original = [], implication.face_stage

    def spy(system):
        decisions.append(original(system))
        return decisions[-1]

    monkeypatch.setattr(implication, "face_stage", spy)
    tally = Counter()
    for seed in range(80):
        system = _slater_failing_system(seed)
        del decisions[:]
        rep = classify_instance(system)
        holds = grid_decides_implication(system)
        proved = decisions == [(True, None)]
        assert proved == (implication._FACE_PROOF in rep.notes)
        if rep.verdict != UNDETERMINED or proved:
            assert holds == (rep.verdict != INVALID), seed
        tally[rep.verdict, proved,
              implication._FACE_WITNESS in rep.notes] += 1
    assert tally[UNDETERMINED, True, False] >= 15
    assert tally[INVALID, False, True] >= 20
    assert tally[VALID, False, False] >= 15
    assert tally[UNDETERMINED, False, False] == 0


def test_the_face_stage_rounds_a_long_lift_onto_the_face():
    # seed 22 (n = 3, f1 = -(x1 - x2 + 1)^2): N's negative vector is a
    # point with long rationals, whose own lift leaves the face x2 = x1 + 1
    # when rounded to doubles; u / u_t rounded first keeps N's form
    # negative and lifts to a double point of the face, a counterexample
    # in Fraction
    system = _slater_failing_system(22)
    proved, cex = implication.face_stage(system)
    assert not proved and cex.found
    assert cex.x.tolist() == [-0.16285266160624867, 0.8371473383937513, 0.0]
    assert exact.value(system.constraints[0], cex.x) == 0
    assert exact.value(system.f0, cex.x) < -1e-9
    rep = classify_instance(system)
    assert rep.verdict == INVALID
    assert rep.notes == [implication._FACE_WITNESS]


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


_SMALL = ClassifyConfig(seed=3, cloud_samples=64, falsify_trials=10,
                        member_budget=4)


def _evidence(system, config=_SMALL):
    cloud = implication.image_cloud(system, config)
    return implication.gather_evidence(system, config, cloud, None)


@pytest.mark.parametrize("system", [
    FunctionSystem(1, parse("exp(x1) - 2", 1), (parse("1 - x1^2", 1),)),
    FunctionSystem(2, random_quadratic(SplitMix64(8), 2),
                   (random_quadratic(SplitMix64(9), 2),
                    random_quadratic(SplitMix64(10), 2))),
], ids=["expression_p1", "quadratic_p2"])
def test_conical_falsifier_runs_where_dines_does_not_apply(system):
    # an expression system, or p >= 2, keeps the sampled conical falsifier
    ev = _evidence(system)
    assert ev.conical_falsify.skipped is None
    assert ev.conical_falsify.trials_run > 0


@pytest.mark.parametrize("affine", [False, True])
def test_conical_falsifier_is_skipped_by_dines_at_p1(affine, monkeypatch):
    # two quadratic functions: no conical oracle is built and no trial
    # runs, while the epi falsifier still does
    rng = SplitMix64(12)
    f0, f1 = random_quadratic(rng, 2), random_quadratic(rng, 2)
    if affine:
        f1 = QuadraticFunction(np.zeros((2, 2)), f1.c, f1.d)

    def refuse(*args, **kwargs):
        raise AssertionError("conical oracle built at p = 1")

    monkeypatch.setattr(geo, "conical_membership_oracle", refuse)
    ev = _evidence(FunctionSystem(2, f0, (f1,)))
    assert ev.conical_falsify.skipped == \
        "convex up to closure: Dines 1941, p <= 1"
    assert ev.conical_falsify.trials_run == 0
    assert not ev.conical_falsify.found
    assert ev.epi_falsify.trials_run > 0


# chord points m that the conical oracle reported as violations on the
# Undetermined p2to4_system(s) while it searched a 25-point grid of
# scales, each with a preimage w = sqrt(scale) (x, 1) of the perspective
# system found by an independent least-squares search
_FORMER_CONICAL_VIOLATIONS = {
    5: ([0.8138858746623674, -36.56949650361349, -2.009176341778579,
         -44.705983750098405, 63.17300693314907],
        [-0.6655573401211425, 0.8898417944875048, 2.870319419136346,
         5.9500948341729485, 2.3277665477777907]),
    193: ([15.917802218265603, -25.673210477841184, 22.106677641940834,
           50.413550749277334, 22.290009961620406],
          [0.01773031149908475, -0.028056253370532944, -4.837016649146027,
           -7.442392372871127, 0.3094616141785529]),
    291: ([141.43510745473029, 38.6779060924258, -44.332730115633055,
           -96.70965036653178],
          [2.4155447433852313, -8.525794685942124, 2.06818731177401,
           6.601042754026975]),
}


@pytest.mark.parametrize("s", sorted(_FORMER_CONICAL_VIOLATIONS))
def test_former_conical_violations_are_members(s):
    system = p2to4_system(s)
    m, w = (np.array(v) for v in _FORMER_CONICAL_VIOLATIONS[s])
    # m = scale z(x), by the plain quadratic formula alone
    x, scale = w[:-1] / w[-1], w[-1] * w[-1]
    z = np.array([quadratic_values(f, x[None])[0] for f in system.functions])
    z[1:] *= -1.0
    assert np.linalg.norm(scale * z - m) <= 1e-10 * np.linalg.norm(m)
    # and the conical oracle that classify builds answers member
    config = ClassifyConfig()
    oracle = geo.conical_membership_oracle(
        system, implication.image_cloud(system, config),
        budget=config.member_budget, seed=derive_seed(config.seed, 7))
    assert oracle(m).member


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


# classify_instance verdicts on p3_system(s), s = 0-59, and on
# p2to4_system(s), s = 0-299, lettered as P1_VERDICTS
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
    got, digest = _verdicts_and_digest(p3_system(s) for s in range(60))
    assert Counter(got) == {"I": 48, "V": 11, "U": 1}
    assert [s for s, v in enumerate(got) if v == "U"] == [44]
    assert got == P3_VERDICTS
    assert digest == P3_DIGEST


def test_random_p2to4_verdicts_are_pinned():
    got, digest = _verdicts_and_digest(p2to4_system(s) for s in range(300))
    assert Counter(got) == {"I": 250, "V": 40, "U": 10}
    assert [s for s, v in enumerate(got) if v == "U"] == [
        5, 10, 50, 156, 176, 186, 193, 221, 228, 291]
    assert got == P2TO4_VERDICTS
    assert digest == P2TO4_DIGEST
