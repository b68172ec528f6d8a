"""The descent's early stop, its one loss call per iteration, its in-place
loop and its retirement of grouped rows at a goal return exactly what the
plain loop gives over the full step budget, with each loss's (values,
gradients) protocol; the search losses, `values_batch` and the top-k
start selection equal their former formulas byte for byte; and
`values_and_gradients(X, first=...)` skips columns without moving the
rest."""

import warnings
from pathlib import Path

import numpy as np
import pytest

import slemma
from slemma import geometry, implication, search
from slemma.errors import DomainError
from slemma.expr import parse
from slemma.geometry import _random_quadratic as random_quadratic
from slemma.implication import (ClassifyConfig, box_sample, check_slater,
                                classify_instance, find_counterexample)
from slemma.problem import load_problem
from slemma.quadratic import QuadraticFunction
from slemma.rng import SplitMix64
from slemma.systems import FunctionSystem, quadratic_to_source

from conftest import EXPRESSION_TERMS, random_p1_system

CORPUS = Path(slemma.__file__).parent / "corpus"


def _clean(vals):
    vals = np.asarray(vals, dtype=float)
    return np.where(np.isfinite(vals), vals, np.inf)


def values_and_gradient(loss, X, groups=None):
    """The loss's (values, gradients) at the rows of X, non-finite values
    read as +inf and non-finite gradient entries as 0."""
    extra = () if groups is None else (groups,)
    vals, grad = loss(X, *extra)
    grad = np.asarray(grad, dtype=float)
    return _clean(vals), np.where(np.isfinite(grad), grad, 0.0)


def descend_unstopped(loss, X0, steps=60, initial_step=0.1,
                      box_radius=None, groups=None, goal=None):
    """The plain descent loop: no early stop, and the gradient taken
    afresh at every iteration from a loss call on the current points,
    the trials' values from a second call.  With a goal, the rows of a
    group that has a value at or below it, at the start or after an
    iteration, stay as they are from then on."""
    X = np.array(X0, dtype=float)
    if X.ndim == 1:
        X = X[None, :]
    if box_radius is not None:
        X = np.clip(X, -box_radius, box_radius)
    best = values_and_gradient(loss, X, groups)[0]
    step = np.full(X.shape[0], float(initial_step))
    frozen = np.zeros(X.shape[0], dtype=bool)
    for _ in range(steps):
        if goal is not None:
            frozen |= np.isin(groups, groups[best <= goal])
        grad = values_and_gradient(loss, X, groups)[1]
        norm = np.linalg.norm(grad, axis=1)
        norm[norm == 0.0] = 1.0
        trial = X - (step / norm)[:, None] * grad
        if box_radius is not None:
            trial = np.clip(trial, -box_radius, box_radius)
        trial_vals = values_and_gradient(loss, trial, groups)[0]
        better = (trial_vals < best) & ~frozen
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
    return np.sum(X, axis=1), np.ones_like(X)


def _bowl(X):
    H = X - np.array([0.3, -0.7])
    return np.sum(H * H, axis=1), 2.0 * H


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
        grad = 2.0 * H
        grad[:, 0] += 0.4 * X[:, 0] ** 3
        return np.sum(H * H, axis=1) + 0.1 * X[:, 0] ** 4, grad

    X0 = SplitMix64(7).uniform_box(2.5, 2, 10)
    groups = np.repeat(np.arange(2), [4, 6])
    for radius in (None, 1.2):
        _same_as_unstopped(loss, X0, steps=200, box_radius=radius,
                           groups=groups)


def test_retirement_on_a_grouped_loss():
    # group 2 starts on its target, groups 0 and 3 reach theirs, and
    # group 1 cannot: its loss has a floor above the goal, and in the box
    # of radius 1.2 its target lies outside
    targets = np.array([[-1.0, 0.5], [0.4, 2.0], [0.0, 0.0], [1.0, 1.0]])
    floors = np.array([0.0, 1e-3, 0.0, 0.0])

    def loss(X, g):
        H = X - targets[g]
        return np.sum(H * H, axis=1) + floors[g], 2.0 * H

    X0 = SplitMix64(10).uniform_box(2.5, 2, 15)
    X0[7] = 0.0
    groups = np.repeat(np.arange(4), [3, 4, 3, 5])
    for radius in (None, 1.2):
        kwargs = {"steps": 200, "box_radius": radius, "groups": groups}
        calls = _same_as_unstopped(loss, X0, goal=1e-12, **kwargs)
        assert calls < _same_as_unstopped(loss, X0, **kwargs)
        # with every group in reach the loop ends when the last retires
        reach = groups != 1
        alone = _same_as_unstopped(loss, X0[reach], goal=1e-12,
                                   **dict(kwargs, groups=groups[reach]))
        assert alone < calls
    # every group on its target at the start: the first call decides
    assert _same_as_unstopped(loss, targets[[0, 2, 3]], goal=0.0,
                              groups=np.array([0, 2, 3])) == 1


def test_no_early_stop_while_a_row_improves():
    # left of x1 = 0 a bowl centred at (-2, 0); right of it a slope that
    # keeps falling, so the row started there improves at every step
    def loss(X):
        right = X[:, 0] > 0.0
        grad = np.where(right[:, None], [-1.0, 0.0],
                        2.0 * (X + [2.0, 0.0]))
        return np.where(right, -X[:, 0],
                        (X[:, 0] + 2.0) ** 2 + X[:, 1] ** 2), grad

    X0 = np.array([[1.0, 0.0], [-1.5, 0.5], [-2.0, 0.0], [-2.5, -0.3]])
    assert _same_as_unstopped(loss, X0, steps=40) == 40 + 1


def test_rows_clipped_onto_the_box():
    # starts outside the box, and a slope that pushes rows onto its faces
    X0 = SplitMix64(8).uniform_box(3.0, 3, 14)

    def loss(X):
        grad = np.zeros_like(X)
        grad[:, 0], grad[:, 1], grad[:, 2] = 1.0, -2.0, 0.2 * X[:, 2]
        return X[:, 0] - 2.0 * X[:, 1] + 0.1 * X[:, 2] ** 2, grad

    for radius in (0.0, 1.0, 2.5):
        _same_as_unstopped(loss, X0, steps=80, box_radius=radius)
        _same_as_unstopped(_corner, X0[:, :2], steps=80, box_radius=radius)


@pytest.mark.parametrize("initial_step", [1e-14, 1e-13, 0.0])
def test_initial_step_below_the_floor(initial_step):
    X0 = SplitMix64(9).uniform_box(2.0, 2, 7)
    _same_as_unstopped(_bowl, X0, steps=50, initial_step=initial_step)
    _same_as_unstopped(_corner, X0, steps=50, initial_step=initial_step,
                       box_radius=1.0)


def test_zero_rows():
    # the first iteration has no row left to move: one call for the start,
    # one for the trials
    assert _same_as_unstopped(_bowl, np.zeros((0, 2)), steps=30) == 2


@pytest.mark.parametrize("seed", range(6))
def test_early_stop_on_the_search_losses(seed):
    system = random_p1_system(seed)

    def slater(X):
        vals, grads = system.values_and_gradients(X, first=1)
        return -vals[:, 0], -grads[:, 0]

    def penalized(X):
        vals, grads = system.values_and_gradients(X)
        viol = np.maximum(-vals[:, 1], 0.0)
        return (vals[:, 0] + 1e3 * viol ** 2,
                grads[:, 0] - 2e3 * viol[:, None] * grads[:, 1])

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


def _search_starts(system, radius, samples, seed):
    """The rows of the box sample that the Slater and the counterexample
    searches descend from when it does not decide them: the 10 best by
    the Slater loss, and the 20 feasible ones with the least f0, topped
    up with the in-domain infeasible ones of least penalty."""
    X = SplitMix64(seed).uniform_box(radius, system.n, samples)
    slater = X[search.smallest(_clean(implication.slater_loss(system)(X)[0]),
                               10)]
    vals = system.values_batch(X)
    infeasible = np.any(vals[:, 1:] < 0.0, axis=1)
    key = np.where(infeasible,
                   np.sum(np.maximum(-vals[:, 1:], 0.0) ** 2, axis=1),
                   vals[:, 0])
    order = np.lexsort((key, infeasible))
    order = order[np.isfinite(vals[order]).all(1)][:20]
    return slater, X[order] if order.size else np.zeros((1, system.n))


def _search_descents(system, radius, samples, seed):
    """(loss, starts, kwargs) of the Slater and counterexample descents."""
    slater, penalized = _search_starts(system, radius, samples, seed)
    return [(implication.slater_loss(system), slater,
             {"steps": 60, "box_radius": radius}),
            (implication.penalized_loss(system), penalized,
             {"steps": 80, "box_radius": radius})]


@pytest.mark.parametrize("p", [1, 2, 3])
def test_one_call_per_iteration_on_the_search_losses(monkeypatch, p):
    # the Slater and penalized losses exactly as the searches build them,
    # from the starts they pick; the searches that still descend pick them
    runs = _spy_on_descents(monkeypatch, search, implication)
    descents = []
    for n in range(1, 7):
        system = _random_system(10 * p + n, p, n)
        sample = box_sample(system, 10.0, 64, n)
        check_slater(system, *sample, 10.0)
        find_counterexample(system, *sample, 10.0)
        descents += _search_descents(system, 10.0, 64, n)
    monkeypatch.undo()
    assert len(descents) == 12
    for _, X0, kwargs in runs:
        assert any(X0.tobytes() == start.tobytes() and kwargs == kw
                   for _, start, kw in descents)
    for loss, X0, kwargs in descents:
        assert X0.shape[0] >= 3
        _same_as_unstopped(loss, X0, **kwargs)


def _member_descent(monkeypatch, system, M, mode):
    runs = _spy_on_descents(monkeypatch, geometry)
    geometry._member_search(system, M, 4, [1, 2, 3], mode)
    monkeypatch.undo()
    (run,) = runs
    return run


@pytest.mark.parametrize("p, n", [(1, 2), (2, 3), (1, 4), (3, 1)])
def test_one_call_per_iteration_on_the_member_search(monkeypatch, p, n):
    # the grouped loss of the membership oracle, one group per target,
    # each retired at its first row that proves the target a member
    system = _random_system(40 + n, p, n)
    M = system.image_batch(SplitMix64(n).uniform_box(2.0, n, 3)) + 0.5
    for mode in ("epi", "identity"):
        loss, X0, kwargs = _member_descent(monkeypatch, system, M, mode)
        assert X0.shape[0] == 3 * 5
        _same_as_unstopped(loss, X0, **kwargs)


# expression systems whose losses leave the domain: probes and trials
# where a log or sqrt argument turns negative come back non-finite
DOMAIN_SYSTEMS = [
    FunctionSystem(1, parse("log(x1)", 1),
                   (QuadraticFunction([[0.0]], [0.0], 1.0),)),
    FunctionSystem(2, parse("sqrt(x1) + x2", 2),
                   (parse("1 - x1^2 - x2^2", 2),)),
    FunctionSystem(2, parse("log(x1 + x2)", 2),
                   (parse("x1 - 0.2", 2), parse("sqrt(1 - x2^2)", 2))),
]


@pytest.mark.parametrize("system", DOMAIN_SYSTEMS)
def test_one_call_per_iteration_out_of_domain(system):
    runs = [run for seed in range(3)
            for run in _search_descents(system, 2.0, 64, seed)]
    assert len(runs) == 6
    nonfinite = []
    for loss, X0, kwargs in runs:
        def watched(X, loss=loss):
            vals, grads = loss(X)
            nonfinite.append(not np.all(np.isfinite(vals)))
            return vals, grads

        _same_as_unstopped(watched, X0, **kwargs)
    assert any(nonfinite)


def _buffered(loss, X0):
    """`loss` handing back the same two preallocated arrays on every call,
    cut to the call's rows."""
    vals_buf, grad_buf = np.empty(len(X0)), np.empty(np.shape(X0))

    def buffered(X, *groups):
        vals, grad = loss(X, *groups)
        m = X.shape[0]
        vals_buf[:m], grad_buf[:m] = vals, grad
        return vals_buf[:m], grad_buf[:m]

    return buffered


def test_descent_reads_a_loss_that_reuses_its_arrays_alike(monkeypatch):
    # the descent copies only its initial pair; a trial's pair is read
    # before the next call, so buffers a loss refills give the same bytes
    descents = [run for seed in range(3) for system in DOMAIN_SYSTEMS
                for run in _search_descents(system, 2.0, 64, seed)]
    for p, n in [(1, 2), (2, 3), (3, 1)]:
        system = _random_system(40 + n, p, n)
        descents += _search_descents(system, 10.0, 64, n)
        M = system.image_batch(SplitMix64(n).uniform_box(2.0, n, 3)) + 0.5
        descents += [_member_descent(monkeypatch, system, M, mode)
                     for mode in ("epi", "identity")]
    assert any("groups" in kwargs for _, _, kwargs in descents)
    for loss, X0, kwargs in descents:
        X, vals = search.descend(loss, X0, **kwargs)
        X_buf, vals_buf = search.descend(_buffered(loss, X0), X0, **kwargs)
        assert X_buf.tobytes() == X.tobytes()
        assert vals_buf.tobytes() == vals.tobytes()


def test_fd_gradient_never_writes_into_a_loss_output():
    vals = np.array([1.0, np.nan, -np.inf])
    grad = np.array([[np.nan, 1.0], [2.0, -np.inf], [0.0, -0.0]])
    before = vals.tobytes(), grad.tobytes()
    got_vals, got_grad = search.fd_gradient(lambda X: (vals, grad),
                                            np.zeros((3, 2)))
    assert (vals.tobytes(), grad.tobytes()) == before
    assert got_vals.tolist() == [1.0, np.inf, np.inf]
    assert got_grad.tobytes() == np.array(
        [[0.0, 1.0], [2.0, 0.0], [0.0, -0.0]]).tobytes()
    # finite arrays come back as the loss's own
    finite = np.array([2.0]), np.array([[1.0, -1.0]])
    assert all(a is b for a, b in zip(
        search.fd_gradient(lambda X: finite, np.zeros((1, 2))), finite))


def _slater_loss_before(system):
    def loss(X):
        vals = system.values_batch(X)[:, 1:]
        vals = np.where(np.isfinite(vals), vals, -np.inf)
        return -np.minimum.reduce(vals, axis=1)
    return loss


def _penalized_loss_before(system, penalty):
    def penalized(X):
        vals = system.values_batch(X)
        finite = np.isfinite(vals).all(1)
        if system.p:
            viol = np.maximum(-vals[:, 1:], 0.0)
            pen = np.add.reduce(viol * viol, axis=1)
        else:
            pen = 0.0
        return np.where(finite, vals[:, 0] + penalty * pen, np.inf)
    return penalized


@pytest.mark.parametrize("system", DOMAIN_SYSTEMS + [
    random_p1_system(4), _random_system(3, 3, 2),
    FunctionSystem(2, parse("x1 * x2 - 0 * x1", 2))])
def test_search_losses_match_their_former_formulas(system):
    losses = ([implication.slater_loss(system)] if system.p else []) + [
        implication.penalized_loss(system)]
    references = ([_slater_loss_before(system)] if system.p else []) + [
        _penalized_loss_before(system, implication._PENALTY)]
    assert len(losses) == len(references)
    X = np.vstack([SplitMix64(2).uniform_box(2.0, system.n, 200),
                   np.zeros((1, system.n))])
    for loss, reference in zip(losses, references):
        assert loss(X)[0].tobytes() == reference(X).tobytes()


def _value_lists():
    rng = np.random.default_rng(12)
    yield np.array([])
    yield np.array([np.nan, np.nan])
    yield np.array([3.0, -np.inf, np.inf, -0.0, 0.0, np.nan, 3.0, -np.inf])
    for size in (1, 5, 40, 300):
        yield rng.uniform(-1.0, 1.0, size)
        ints = rng.integers(-3, 4, size).astype(float)   # ties
        yield ints
        specials = ints.copy()
        specials[rng.random(size) < 0.2] = np.inf
        specials[rng.random(size) < 0.2] = -np.inf
        specials[rng.random(size) < 0.1] = np.nan
        yield specials


def test_smallest_equals_the_stable_argsort_prefix():
    for vals in _value_lists():
        for k in sorted({1, 2, 3, 7, 20, vals.size - 1, vals.size,
                         vals.size + 1, vals.size + 5}):
            if k < 1:
                continue
            got = search.smallest(vals, k)
            expected = np.argsort(vals, kind="stable")[:k]
            assert got.tobytes() == expected.tobytes(), (vals, k)


def test_smallest_rows_equals_the_stable_argsort_prefix():
    # rows of each value list in three orders, and no rows at all; a NaN
    # among one row's k smallest and not among another's
    rng = np.random.default_rng(13)
    for vals in _value_lists():
        for rows in (np.vstack([vals, vals[::-1], rng.permutation(vals)]),
                     np.empty((0, vals.size))):
            for k in sorted({1, 2, 6, 20, vals.size - 1, vals.size,
                             vals.size + 1}):
                if k < 1:
                    continue
                got = search.smallest_rows(rows, k)
                expected = np.argsort(rows, axis=1, kind="stable")[:, :k]
                assert got.dtype == expected.dtype
                assert got.shape == expected.shape
                assert got.tobytes() == expected.tobytes(), (rows, k)


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


def test_values_and_gradients_skip_leading_columns():
    quad = load_problem(CORPUS / "example3_pair.json").system()
    f0, f1 = [parse(quadratic_to_source(f), quad.n) for f in quad.functions]
    as_expr = FunctionSystem(quad.n, f0, (f1,))
    with_domain = FunctionSystem(2, parse("log(x1) + x2", 2), (
        parse("sqrt(x2) - x1", 2), quad.constraints[0]))
    for system in (quad, as_expr, with_domain, random_p1_system(3)):
        X = SplitMix64(9).uniform_box(4.0, system.n, 50)
        full, full_grads = system.values_and_gradients(X)
        assert full.tobytes() == system.values_batch(X).tobytes()
        for first in range(system.p + 2):
            part, grads = system.values_and_gradients(X, first=first)
            assert part.shape == (50, system.p + 1 - first)
            assert part.tobytes() == np.ascontiguousarray(
                full[:, first:]).tobytes()
            assert grads.tobytes() == np.ascontiguousarray(
                full_grads[:, first:]).tobytes()


def _systems_of_each_kind(seed, p, n):
    """`_random_system`, then the same with its odd-indexed functions and
    then all of them turned into expressions with an added
    `EXPRESSION_TERMS` term: all-quadratic, mixed and all-expression
    systems."""
    quad = _random_system(seed, p, n)
    as_expr = [parse(quadratic_to_source(f)
                     + EXPRESSION_TERMS[i % 4].format(n=n), n)
               for i, f in enumerate(quad.functions)]
    mixed = [e if i % 2 else f
             for i, (f, e) in enumerate(zip(quad.functions, as_expr))]
    return [quad] + [FunctionSystem(n, fs[0], tuple(fs[1:]))
                     for fs in (mixed, as_expr)]


def _same_bits_as_its_value(f, value, x):
    """f(x) gives `value` bit for bit; an expression raises DomainError
    where the value is non-finite."""
    try:
        assert np.float64(f(x)).tobytes() == value.tobytes()
    except DomainError:
        assert not np.isfinite(value)


@pytest.mark.parametrize("p", range(5))
def test_a_point_gets_the_same_bits_alone_and_in_any_batch(p):
    for n, system in ((n, s) for n in range(1, 7)
                      for s in _systems_of_each_kind(100 * p + n, p, n)):
        X = SplitMix64(n).uniform_box(6.0, n, 200)
        full = system.values_batch(X)
        image = system.image_batch(X)
        for i in range(200):
            alone = system.values_batch(X[i][None])[0]
            assert system.values(X[i]).tobytes() == alone.tobytes()
            assert alone.tobytes() == full[i].tobytes()
            assert (system.image_point(X[i]).tobytes()
                    == image[i].tobytes())
            for f, value in zip(system.functions, alone):
                _same_bits_as_its_value(f, value, X[i])
        for m in (1, 2, 3, 17):
            vals, grads = system.values_and_gradients(X[5:5 + m])
            assert vals.tobytes() == full[5:5 + m].tobytes()
            assert grads.tobytes() == system.values_and_gradients(
                X)[1][5:5 + m].tobytes()


@pytest.mark.parametrize("p", range(4))
def test_closed_form_gradients_equal_q_x_plus_c(p):
    for n in range(1, 7):
        system = _random_system(200 + 10 * p + n, p, n)
        X = SplitMix64(n).uniform_box(5.0, n, 40)
        for first in range(p + 1):
            vals, grads = system.values_and_gradients(X, first=first)
            assert grads.shape == (40, p + 1 - first, n)
            for j, f in enumerate(system.functions[first:]):
                expected = np.array([f.Q @ x + f.c for x in X])
                np.testing.assert_allclose(grads[:, j], expected,
                                           rtol=1e-13, atol=1e-12)
                np.testing.assert_allclose(
                    vals[:, j], [f(x) for x in X], rtol=1e-13, atol=1e-12)


def test_expression_gradients_are_central_differences():
    # each expression function gets its own central differences; the
    # quadratic functions of a mixed system keep their closed form
    quad = _random_system(7, 2, 3)
    f0, f1, f2 = [parse(quadratic_to_source(f), 3) for f in quad.functions]
    mixed = FunctionSystem(3, f0, (quad.constraints[0], f2))
    X = SplitMix64(4).uniform_box(3.0, 3, 30)
    vals, grads = mixed.values_and_gradients(X)
    exact_vals, exact_grads = quad.values_and_gradients(X)
    np.testing.assert_allclose(vals, exact_vals, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(grads, exact_grads, rtol=1e-8, atol=1e-8)
    assert grads[:, 1].tobytes() == exact_grads[:, 1].tobytes()
    # out of domain: a non-finite difference reads 0
    system = FunctionSystem(1, parse("sqrt(x1)", 1))
    vals, grads = system.values_and_gradients(np.array([[0.0], [4.0]]))
    assert vals[0, 0] == 0.0 and grads[0, 0, 0] == 0.0
    assert grads[1, 0, 0] == pytest.approx(0.25, rel=1e-8)


def test_expression_gradient_step_is_relative_to_the_point():
    # an absolute step of 1e-5 rounds away beside x1 = 1e11 and vanishes
    # at 1e12, which froze a descending row; the relative step does not
    system = FunctionSystem(1, parse("-x1", 1))
    _, grads = system.values_and_gradients(np.array([[1e11], [1e12]]))
    assert grads[:, 0, 0].tolist() == [-1.0, -1.0]


def _loss_gradient_matches_differences(loss, X, smooth, groups=None):
    """The loss's gradient against central differences of its values at
    the rows where `smooth` (the loss is differentiable around them)."""
    extra = () if groups is None else (groups,)
    vals, grad = loss(X, *extra)
    h = 1e-6
    for j in range(X.shape[1]):
        E = np.zeros_like(X)
        E[:, j] = h
        diff = (loss(X + E, *extra)[0] - loss(X - E, *extra)[0]) / (2 * h)
        scale = 1.0 + np.abs(vals) + np.abs(grad[:, j])
        assert np.all(np.abs(diff - grad[:, j])[smooth]
                      <= 1e-5 * scale[smooth]), j
    assert np.count_nonzero(smooth) >= 10


@pytest.mark.parametrize("p", [1, 2, 3])
def test_search_loss_gradients_match_their_differences(p):
    system = _random_system(300 + p, p, 3)
    slater = implication.slater_loss(system)
    penalized = implication.penalized_loss(system)
    X = SplitMix64(p).uniform_box(4.0, 3, 200)
    vals = system.values_batch(X)
    cons = np.sort(vals[:, 1:], axis=1)
    # away from a tie between the least constraints (Slater's kink) and
    # from any f_i = 0 (the penalty's)
    untied = cons[:, 1] - cons[:, 0] > 1e-3 if p > 1 else np.ones(200, bool)
    _loss_gradient_matches_differences(slater, X, untied)
    _loss_gradient_matches_differences(
        penalized, X, np.all(np.abs(vals[:, 1:]) > 1e-3, axis=1))


@pytest.mark.parametrize("mode", ["epi", "identity"])
def test_member_loss_gradient_matches_its_differences(monkeypatch, mode):
    system = _random_system(44, 2, 3)
    M = system.image_batch(SplitMix64(3).uniform_box(2.0, 3, 3)) + 0.5
    runs = _spy_on_descents(monkeypatch, geometry)
    geometry._member_search(system, M, 4, [1, 2, 3], mode)
    monkeypatch.undo()
    (loss, _, _), = runs
    X = SplitMix64(5).uniform_box(3.0, 3, 200)
    groups = np.arange(200) % 3
    # away from the hinge z_i = m_i of the epi residual
    gaps = system.image_batch(X) - M[groups]
    _loss_gradient_matches_differences(
        loss, X, np.all(np.abs(gaps) > 1e-3, axis=1), groups)


def test_sampled_multiplier_loss_gradient_matches_its_differences(
        monkeypatch):
    system = FunctionSystem(2, parse("x1^2 + sin(x2) - 1", 2),
                            (parse("exp(x1 / 4) - x2", 2),
                             parse("1 - x1 * x2", 2)))
    runs = _spy_on_descents(monkeypatch, search)
    slemma.check_multipliers(system, [0.5, 2.0], radius=3.0, samples=64)
    monkeypatch.undo()
    (loss, _, _), = runs
    X = SplitMix64(6).uniform_box(3.0, 2, 100)
    _loss_gradient_matches_differences(loss, X, np.ones(100, bool))
