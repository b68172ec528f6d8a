"""The descent's early stop and its one loss call per iteration return
exactly what the former two-call loop gives over the full step budget, and
`values_batch(X, first=...)` skips columns without moving the rest."""

import warnings
from pathlib import Path

import numpy as np
import pytest

import slemma
from slemma import geometry, implication, search
from slemma.expr import parse
from slemma.implication import (ClassifyConfig, check_slater,
                                classify_instance, find_counterexample)
from slemma.problem import load_problem
from slemma.quadratic import QuadraticFunction
from slemma.rng import SplitMix64
from slemma.search import FD_STEP, _clean
from slemma.systems import FunctionSystem, quadratic_to_source

from conftest import random_p1_system, random_quadratic

CORPUS = Path(slemma.__file__).parent / "corpus"


def fd_gradient(loss, X, h=FD_STEP, groups=None):
    """Central-difference gradients for each row of X, batched into a
    single loss call.  With `groups` (one id per row) the loss is called
    as loss(points, group id of each point)."""
    m, n = X.shape
    probes = np.repeat(X, 2 * n, axis=0)
    for i in range(n):
        probes[2 * i::2 * n, i] += h
        probes[2 * i + 1::2 * n, i] -= h
    extra = () if groups is None else (np.repeat(groups, 2 * n),)
    vals = _clean(loss(probes, *extra)).reshape(m, n, 2)
    grad = (vals[:, :, 0] - vals[:, :, 1]) / (2.0 * h)
    return np.where(np.isfinite(grad), grad, 0.0)


def descend_unstopped(loss, X0, steps=60, h=FD_STEP, initial_step=0.1,
                      box_radius=None, groups=None):
    """The descent loop as it was before the early stop and before one
    loss call per iteration, kept verbatim with its gradient above."""
    X = np.array(X0, dtype=float)
    if X.ndim == 1:
        X = X[None, :]
    if box_radius is not None:
        X = np.clip(X, -box_radius, box_radius)
    extra = () if groups is None else (groups,)
    best = _clean(loss(X, *extra))
    step = np.full(X.shape[0], float(initial_step))
    for _ in range(steps):
        grad = fd_gradient(loss, X, h, groups)
        norm = np.linalg.norm(grad, axis=1)
        norm[norm == 0.0] = 1.0
        trial = X - (step / norm)[:, None] * grad
        if box_radius is not None:
            trial = np.clip(trial, -box_radius, box_radius)
        trial_vals = _clean(loss(trial, *extra))
        better = trial_vals < best
        X[better] = trial[better]
        best[better] = trial_vals[better]
        step = np.where(better, step * 1.5, step * 0.25)
        step = np.maximum(step, 1e-12)
    order = (np.argsort(best, kind="stable") if groups is None
             else np.lexsort((best, groups)))
    return X[order], best[order]


class Counted:
    def __init__(self, loss):
        self.loss, self.calls = loss, 0

    def __call__(self, *args):
        self.calls += 1
        return self.loss(*args)


def _same_as_unstopped(loss, X0, **kwargs):
    """Run both loops; assert byte equality and return the early-stopping
    loop's number of loss calls (the full budget takes steps + 1)."""
    counted = Counted(loss)
    X, vals = search.descend(counted, X0, **kwargs)
    X_ref, vals_ref = descend_unstopped(loss, X0, **kwargs)
    assert X.tobytes() == X_ref.tobytes()
    assert vals.tobytes() == vals_ref.tobytes()
    return counted.calls


def _corner(X):
    return np.sum(X, axis=1)


def _bowl(X):
    return np.sum((X - np.array([0.3, -0.7])) ** 2, axis=1)


def test_early_stop_at_a_clipped_box_corner():
    X0 = SplitMix64(5).uniform_box(1.0, 2, 12)
    calls = _same_as_unstopped(_corner, X0, steps=60, box_radius=1.0)
    assert calls < 60 + 1


def test_early_stop_at_the_floor_step_without_a_box():
    X0 = SplitMix64(6).uniform_box(3.0, 2, 9)
    calls = _same_as_unstopped(_bowl, X0, steps=200)
    assert calls < 200 + 1


def test_early_stop_on_a_grouped_loss():
    targets = np.array([[-1.0, 0.5], [0.4, 2.0]])

    def loss(X, g):
        H = X - targets[g]
        return np.sum(H * H, axis=1) + 0.1 * X[:, 0] ** 4

    X0 = SplitMix64(7).uniform_box(2.5, 2, 10)
    groups = np.repeat(np.arange(2), [4, 6])
    for radius in (None, 1.2):
        _same_as_unstopped(loss, X0, steps=200, box_radius=radius,
                           groups=groups)


def test_no_early_stop_while_a_row_improves():
    # left of x1 = 0 a bowl centred at (-2, 0); right of it a slope that
    # keeps falling, so the row started there improves at every step
    def loss(X):
        return np.where(X[:, 0] > 0.0, -X[:, 0],
                        (X[:, 0] + 2.0) ** 2 + X[:, 1] ** 2)

    X0 = np.array([[1.0, 0.0], [-1.5, 0.5], [-2.0, 0.0], [-2.5, -0.3]])
    assert _same_as_unstopped(loss, X0, steps=40) == 40 + 1


def test_zero_rows():
    # the first iteration has no row left to move: one call for the start
    # and its probes, one for the trials and theirs
    assert _same_as_unstopped(_bowl, np.zeros((0, 2)), steps=30) == 2


@pytest.mark.parametrize("seed", range(6))
def test_early_stop_on_the_search_losses(seed):
    system = random_p1_system(seed)

    def slater(X):
        return -np.min(system.values_batch(X, first=1), axis=1)

    def penalized(X):
        vals = system.values_batch(X)
        return vals[:, 0] + 1e3 * np.maximum(-vals[:, 1], 0.0) ** 2

    X0 = SplitMix64(seed).uniform_box(10.0, system.n, 20)
    for loss, steps in ((slater, 60), (penalized, 80)):
        _same_as_unstopped(loss, X0, steps=steps, box_radius=10.0)


def _spy_on_descents(monkeypatch, *modules):
    """Record (loss, X0, kwargs) of every descent run through `modules`."""
    runs, original = [], search.descend

    def spy(loss, X0, **kwargs):
        runs.append((loss, np.array(X0), kwargs))
        return original(loss, X0, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, "descend", spy)
    return runs


def _random_system(seed, p, n):
    rng = SplitMix64(seed)
    return FunctionSystem(n, random_quadratic(rng, n), tuple(
        random_quadratic(rng, n) for _ in range(p)))


@pytest.mark.parametrize("p", [1, 2, 3])
def test_one_call_per_iteration_on_the_search_losses(monkeypatch, p):
    # the Slater and penalized losses exactly as the searches build them
    runs = _spy_on_descents(monkeypatch, search, implication)
    for n in range(1, 7):
        system = _random_system(10 * p + n, p, n)
        check_slater(system, samples=64, seed=n)
        find_counterexample(system, samples=64, seed=n)
    monkeypatch.undo()
    assert len(runs) == 12
    for loss, X0, kwargs in runs:
        assert X0.shape[0] >= 3
        _same_as_unstopped(loss, X0, **kwargs)


@pytest.mark.parametrize("p, n", [(1, 2), (2, 3), (1, 4)])
def test_one_call_per_iteration_on_the_member_search(monkeypatch, p, n):
    # the grouped loss of the membership oracle, one group per target
    system = _random_system(40 + n, p, n)
    M = system.image_batch(SplitMix64(n).uniform_box(2.0, n, 3)) + 0.5
    for mode in ("epi", "identity"):
        runs = _spy_on_descents(monkeypatch, geometry)
        geometry._member_search(system, M, 4, [1, 2, 3], mode)
        monkeypatch.undo()
        (loss, X0, kwargs), = runs
        assert X0.shape[0] == 3 * 5
        _same_as_unstopped(loss, X0, **kwargs)


@pytest.mark.parametrize("system", [
    FunctionSystem(1, parse("log(x1)", 1),
                   (QuadraticFunction([[0.0]], [0.0], 1.0),)),
    FunctionSystem(2, parse("sqrt(x1) + 1", 2), (parse("0.0001 - x2^2", 2),)),
])
def test_no_warning_from_probes_around_out_of_domain_trials(system):
    # rejected trials outside the domain get probed too; their inf - inf
    # differences must stay silent
    config = ClassifyConfig(seed=3, samples=256, cloud_samples=64,
                            falsify_trials=10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        classify_instance(system, config)


def test_values_batch_skips_leading_columns():
    quad = load_problem(CORPUS / "example3_pair.json").system()
    f0, f1 = [parse(quadratic_to_source(f), quad.n) for f in quad.functions]
    as_expr = FunctionSystem(quad.n, f0, (f1,))
    with_domain = FunctionSystem(2, parse("log(x1) + x2", 2), (
        parse("sqrt(x2) - x1", 2), quad.constraints[0]))
    for system in (quad, as_expr, with_domain, random_p1_system(3)):
        X = SplitMix64(9).uniform_box(4.0, system.n, 50)
        full = system.values_batch(X)
        for first in range(system.p + 2):
            part = system.values_batch(X, first=first)
            assert part.shape == (50, system.p + 1 - first)
            assert part.tobytes() == np.ascontiguousarray(
                full[:, first:]).tobytes()
