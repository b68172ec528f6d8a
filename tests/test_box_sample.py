"""The memoized box draw (`search.box_points`) equals a fresh splitmix64
draw bit for bit, is read-only and never leaks into a result; the
sample's column-wise tests (`witness_f0`, `slater_margin`) equal their
former row-reduction formulas byte for byte."""

from collections import OrderedDict
from itertools import product

import numpy as np
import pytest

from conftest import random_p1_system
from slemma import implication, search
from slemma.implication import (box_sample, check_slater, classify_instance,
                                find_counterexample)
from slemma.quadratic import QuadraticFunction
from slemma.rng import SplitMix64, derive_seed
from slemma.systems import FunctionSystem


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
                assert (implication.slater_margin(arr[:, 1:]).tobytes()
                        == _slater_margin_before(arr[:, 1:]).tobytes())


def test_slater_margin_without_constraints_is_vacuous():
    # the former reduction raised here; no search reads it at p = 0
    for m in (0, 3):
        margin = implication.slater_margin(np.zeros((m, 0)))
        assert margin.tolist() == [np.inf] * m
