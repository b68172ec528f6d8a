"""The memoized box draw (`search.box_points`) equals a fresh splitmix64
draw bit for bit, is read-only and never leaks into a result; the
sample's column-wise tests (`witness_f0`, `slater_margin`) equal their
former formulas byte for byte, and `check_slater`, which sorts its best
rows only when it descends, equals its former version that always
sorted them.  classify's certificate-failure retry is a second search on
its own memoized sample, drawn only after the main descent found
nothing, and returns what a lone search returns, byte for byte."""

import pickle
from collections import OrderedDict
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from conftest import p2to4_system, p3_system, random_p1_system
from slemma import implication, search
from slemma.implication import (INVALID, NOT_FOUND, SLATER_POINT,
                                UNDETERMINED, ClassifyConfig, SlaterResult,
                                box_sample, check_slater, classify_instance,
                                find_counterexample)
from slemma.problem import load_problem
from slemma.quadratic import QuadraticFunction
from slemma.rng import SplitMix64, derive_seed
from slemma.systems import FunctionSystem

CORPUS = Path(implication.__file__).parent / "corpus"


@pytest.fixture
def cold(monkeypatch):
    """An empty memo for the test, the process's own restored after it."""
    streams = OrderedDict()
    monkeypatch.setattr(search, "_box_streams", streams)
    return streams


def _memo_views(arr):
    return [flat for flat in search._box_streams.values()
            if np.shares_memory(arr, flat)]


@pytest.mark.parametrize("order", ["rising", "falling"])
def test_memoized_draws_equal_fresh_draws(cold, order):
    requests = list(product(range(1, 7), (1, 7, 4096)))
    if order == "falling":
        requests.reverse()
    for seed, radius in ((3, 10.0), (derive_seed(1, 2), 2.5)):
        for n, count in requests:
            X = search.box_points(radius, n, count, seed)
            fresh = SplitMix64(seed).uniform_box(radius, n, count)
            assert X.shape == fresh.shape == (count, n)
            assert X.tobytes() == fresh.tobytes()
    # one stream per (seed, radius), drawn to the longest request
    assert [flat.size for flat in cold.values()] == [6 * 4096] * 2


def test_memoized_draws_are_read_only(cold):
    for count in (5, 0, 3):
        X = search.box_points(1.0, 2, count, 9)
        assert not X.flags.writeable
        with pytest.raises(ValueError):
            X[...] = 0.0
    big = search.box_points(1.0, 1, search.BOX_STREAM_VALUES + 1, 9)
    assert not big.flags.writeable


def test_the_memo_keeps_a_bounded_number_of_bounded_streams(cold):
    for seed in range(search.BOX_STREAMS + 3):
        search.box_points(1.0, 3, 100, seed)
    assert list(cold) == [(seed, 1.0) for seed in
                          range(3, search.BOX_STREAMS + 3)]
    # a hit moves its stream to the back, so the next miss drops another
    search.box_points(1.0, 1, 50, 3)
    search.box_points(1.0, 1, 50, 99)
    assert [key[0] for key in cold][-2:] == [3, 99] and (4, 1.0) not in cold
    # a stream longer than the bound is drawn afresh and not kept
    count = search.BOX_STREAM_VALUES // 2 + 1
    X = search.box_points(1.0, 2, count, 99)
    assert X.tobytes() == SplitMix64(99).uniform_box(1.0, 2, count).tobytes()
    assert cold[(99, 1.0)].size == 50
    assert len(cold) == search.BOX_STREAMS
    assert sum(flat.size for flat in cold.values()) <= (
        search.BOX_STREAMS * search.BOX_STREAM_VALUES)


def test_no_result_holds_a_view_of_the_memo(cold):
    # found (seed 0), a closest miss (the ball's f0 >= 0) and a Slater
    # point each hand out a row of the memoized sample
    ball = QuadraticFunction(-2 * np.eye(2), np.zeros(2), 1.0)
    norm = QuadraticFunction(2 * np.eye(2), np.zeros(2), 0.0)
    for system in (random_p1_system(0),
                   FunctionSystem(n=2, f0=norm, constraints=(ball,))):
        X, vals = box_sample(system, 10.0, 4096, derive_seed(1, 2))
        assert _memo_views(X)
        cex = find_counterexample(system, X, vals, 10.0,
                                  descend_undecided=False)
        assert cex.x is not None
        assert cex.x.flags.writeable and not _memo_views(cex.x)
        slater = check_slater(system, X, vals, 10.0)
        assert slater.found and slater.x0.flags.writeable
        assert not _memo_views(slater.x0)
        rep = classify_instance(system)
        for x in (rep.slater.x0, getattr(rep.counterexample, "x", None)):
            if x is not None:
                assert x.flags.writeable and not _memo_views(x)


def _witness_f0_before(vals):
    feasible = (np.isfinite(vals).all(1)
                & (vals[:, 1:] >= -implication._WITNESS_TOL).all(1))
    return np.where(feasible, vals[:, 0], np.inf)


def _slater_margin_before(vals):
    return np.min(np.where(np.isfinite(vals), vals, -np.inf), axis=1)


def _slater_margin_fold(vals):
    """The documented fold: binary np.minimum from +inf over the cleaned
    columns in order.  np.min over a row gives the same values, but may
    differ in the sign of a zero with numpy's SIMD dispatch."""
    margin = np.full(vals.shape[0], np.inf)
    for col in vals.T:
        np.minimum(margin, np.where(np.isfinite(col), col, -np.inf),
                   out=margin)
    return margin


_EDGE = np.array([
    np.nan, np.inf, -np.inf, 0.0, -0.0, -1e-9, np.nextafter(-1e-9, 0.0),
    np.nextafter(-1e-9, -1.0), 1e-9, -1.0, 2.5, 5e-324, -5e-324])


@pytest.mark.parametrize("p", range(6))
def test_column_reads_equal_the_former_row_reductions(p):
    rng = np.random.default_rng(29 + p)
    for m in (0, 1, 2, 9, 500):
        vals = _EDGE[rng.integers(0, _EDGE.size, size=(m, p + 1))]
        # every edge value in every column, and both signs of zero in a row
        if m == 500:
            for j in range(p + 1):
                vals[:_EDGE.size, j] = np.roll(_EDGE, j)
            vals[-1] = [0.0, -0.0] * (p // 2) + [0.0] * (p + 1 - p // 2 * 2)
        for arr in (vals, np.asfortranarray(vals)):
            assert (implication.witness_f0(arr).tobytes()
                    == _witness_f0_before(arr).tobytes())
            if p:
                margin = implication.slater_margin(arr[:, 1:])
                assert (margin.tobytes()
                        == _slater_margin_fold(arr[:, 1:]).tobytes())
                assert (margin == _slater_margin_before(arr[:, 1:])).all()


def test_slater_margin_without_constraints_is_vacuous():
    # the former reduction raised here; no search reads it at p = 0
    for m in (0, 3):
        margin = implication.slater_margin(np.zeros((m, 0)))
        assert margin.tolist() == [np.inf] * m


def _slater_loss_before(system):
    def loss(X):
        vals, grads = system.values_and_gradients(X, first=1)
        if not search.all_finite(vals):
            vals = np.where(np.isfinite(vals), vals, -np.inf)
        rows, least = np.arange(X.shape[0]), np.argmin(vals, axis=1)
        return -vals[rows, least], -grads[rows, least]

    return loss


def _check_slater_before(system, X, vals, radius):
    """check_slater as it was: the 10 best rows always sorted, the
    sample's Slater point read off the top of them."""
    if system.p == 0:
        return SlaterResult(status=SLATER_POINT, x0=np.zeros(system.n),
                            min_constraint_value=np.inf)

    margin = _slater_margin_fold(vals[:, 1:])
    top = search.smallest(-margin, 10)
    X, margin = X[top], margin[top]
    if not (margin.size and margin[0] > implication._SLATER_MIN):
        X, loss = search.descend(_slater_loss_before(system), X, steps=60,
                                 box_radius=radius)
        margin = -loss
    passing = np.flatnonzero(margin > implication._SLATER_MIN)
    if passing.size:
        i = passing[0]
        return SlaterResult(status=SLATER_POINT, x0=X[i],
                            min_constraint_value=float(margin[i]))
    best = float(np.max(margin, initial=-np.inf))
    return SlaterResult(status=NOT_FOUND, min_constraint_value=best)


def _assert_same_slater(system, X, vals, radius):
    got = check_slater(system, X, vals, radius)
    want = _check_slater_before(system, X, vals, radius)
    assert got.status == want.status
    assert (np.float64(got.min_constraint_value).tobytes()
            == np.float64(want.min_constraint_value).tobytes())
    if want.x0 is None:
        assert got.x0 is None
    else:
        assert got.x0.tobytes() == want.x0.tobytes()
    return got


# margins at and about the threshold, ties for the best and rows that read
# -inf; column 0 is f0, which the check never reads
_MARGINS = np.array([
    np.nan, np.inf, -np.inf, 0.0, -0.0, -1.0, 2.5, 1e-9,
    np.nextafter(1e-9, 0.0), np.nextafter(1e-9, 1.0), 5e-324])


def test_check_slater_equals_its_former_version_on_sampled_systems():
    systems = ([FunctionSystem(n=1, f0=QuadraticFunction([[0.0]], [1.0], 0.0),
                               constraints=(QuadraticFunction(
                                   [[-2.0]], [0.0], 0.0),))]
               + [random_p1_system(s) for s in range(12)]
               + [p3_system(s) for s in range(4)]
               + [p2to4_system(s) for s in range(4)]
               + [FunctionSystem(n=2, f0=QuadraticFunction(
                   np.eye(2), np.zeros(2), 0.0))])
    statuses = set()
    for system in systems:
        for samples in (0, 1, 7, 512):
            X, vals = box_sample(system, 10.0, samples, derive_seed(1, 2))
            statuses.add(_assert_same_slater(system, X, vals, 10.0).status)
    assert statuses == {SLATER_POINT, NOT_FOUND}


@pytest.mark.parametrize("p", [1, 2, 3])
def test_check_slater_equals_its_former_version_at_the_edges(p):
    system = p3_system(p)
    system = FunctionSystem(system.n, system.f0, system.constraints[:p])
    assert system.p == p
    rng = np.random.default_rng(41 + p)
    early = descended = 0
    for m in (0, 1, 2, 3, 12, 40):
        for trial in range(40):
            X = SplitMix64(100 * m + trial).uniform_box(2.0, system.n, m)
            vals = _MARGINS[rng.integers(0, _MARGINS.size, size=(m, p + 1))]
            if trial % 4 == 1 and m:    # ties: the best margin twice or more
                vals[rng.integers(0, m, size=2), 1:] = 2.5
            elif trial % 4 == 2:        # a best margin of exactly 1e-9
                vals[:, 1:] = np.minimum(vals[:, 1:], 1e-9)
            _assert_same_slater(system, X, vals, 2.0)
            best = _slater_margin_fold(vals[:, 1:]).max(initial=-np.inf)
            early += best > implication._SLATER_MIN
            descended += not best > implication._SLATER_MIN
    assert early and descended



# instances whose certificate search fails and leaves a witness: the
# Undetermined slater_fail, whose face stage proves (I) and skips both
# descents, and p1 seeds 34, 129 and 1330, the instances whose main
# descent finds a counterexample (p1 189 and 704, p2to4 28), the
# Undetermined p3 and p2to4 instances of the pinned families, and the
# pinned families' instances that the retry decides (p1 1199, p3 18,
# p2to4 15, 266, 276; at p3 18 and p2to4 266 its sample decides)
MAIN_FINDS = (189, 704, 28)
RETRY_FINDS = (1199, 18, 15, 266, 276)
RETRIED = ([("corpus", "slater_fail")]
           + [("p1", s) for s in (34, 129, 1330, 189, 704, 1199)]
           + [("p3", s) for s in (44, 18)]
           + [("p2to4", s) for s in (5, 10, 50, 156, 176, 186, 193, 221,
                                     228, 291, 28, 15, 266, 276)])


@pytest.mark.parametrize("family, s", RETRIED)
def test_the_retry_is_a_second_search_pinned(monkeypatch, family, s):
    """classify draws the retry's sample (stream 3) only after its main
    descent found nothing, and the retry's result is that of a lone
    search on that sample from the certificate's witness, byte for
    byte."""
    system = {"corpus": lambda s: load_problem(CORPUS / f"{s}.json").system(),
              "p1": random_p1_system, "p3": p3_system,
              "p2to4": p2to4_system}[family](s)
    config = ClassifyConfig()
    radius = config.box_radius
    _, _, witness = implication.certificate_stage(system, config)
    assert witness
    events, results, descents = [], [], []
    search_, sample_ = implication.find_counterexample, implication.box_sample
    descend_ = implication.descend

    def spy_search(*args, **kwargs):
        before = len(descents)
        results.append(search_(*args, **kwargs))
        events.append(("search", len(descents) - before))
        return results[-1]

    def spy_sample(system, radius, samples, seed):
        events.append(("sample", seed))
        return sample_(system, radius, samples, seed)

    def spy_descend(*args, **kwargs):
        descents.append(None)
        return descend_(*args, **kwargs)

    monkeypatch.setattr(implication, "find_counterexample", spy_search)
    monkeypatch.setattr(implication, "box_sample", spy_sample)
    monkeypatch.setattr(implication, "descend", spy_descend)
    rep = classify_instance(system)
    main, retry = derive_seed(config.seed, 2), derive_seed(config.seed, 3)
    # the sample's read, then the descent unless the face stage proved
    # (I), then the retry unless the descent found the counterexample; the
    # retry descends unless its own sample decides
    expected = [("sample", main), ("search", 0)]
    if family != "corpus":
        expected.append(("search", 1))
        if s not in MAIN_FINDS:
            expected += [("sample", retry),
                         ("search", int(s not in (18, 266)))]
    assert events == expected
    assert rep.verdict == (INVALID if s in MAIN_FINDS + RETRY_FINDS
                           else UNDETERMINED)
    if family == "corpus" or s in MAIN_FINDS:
        return
    alone = search_(system, *sample_(system, radius, config.samples, retry),
                    radius, extra_starts=witness)
    assert alone.found == (s in RETRY_FINDS)
    assert pickle.dumps(results[-1]) == pickle.dumps(alone)
    if alone.found:
        assert rep.notes[-1] == (
            "counterexample from certificate-failure witness")
