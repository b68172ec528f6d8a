"""The descent's early stop returns exactly what the full step budget gives,
and `values_batch(X, first=...)` skips columns without moving the rest."""

from pathlib import Path

import numpy as np
import pytest

import slemma
from slemma import search
from slemma.expr import parse
from slemma.problem import load_problem
from slemma.rng import SplitMix64
from slemma.search import FD_STEP, _clean, fd_gradient
from slemma.systems import FunctionSystem, quadratic_to_source

from conftest import random_p1_system

CORPUS = Path(slemma.__file__).parent / "corpus"


def descend_unstopped(loss, X0, steps=60, h=FD_STEP, initial_step=0.1,
                      box_radius=None, groups=None):
    """The descent loop as it was before the early stop, kept verbatim."""
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
    loop's number of loss calls (the full budget takes 2 * steps + 1)."""
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
    assert calls < 2 * 60 + 1


def test_early_stop_at_the_floor_step_without_a_box():
    X0 = SplitMix64(6).uniform_box(3.0, 2, 9)
    calls = _same_as_unstopped(_bowl, X0, steps=200)
    assert calls < 2 * 200 + 1


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
    assert _same_as_unstopped(loss, X0, steps=40) == 2 * 40 + 1


def test_zero_rows():
    # the first iteration has no row left to move: one call each for the
    # start values, the probes and the trials
    assert _same_as_unstopped(_bowl, np.zeros((0, 2)), steps=30) == 3


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
