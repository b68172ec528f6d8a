"""A membership search retires a target once a row proves it a member,
and nothing else moves: against reference copies of the member search
and the descent as they were before retirement, on the stacks the
falsifiers really build, every target keeps its member flag, every
non-member its margin bytes, every target that never retired its x, and
every retired target's x passes the membership test; an unretired group
of a grouped descent gets the bytes of its solo descent; and the
retirement's saving on `slater_fail` is pinned as a count of loss calls."""

import io
from pathlib import Path

import numpy as np
import pytest

import slemma
from conftest import p2to4_system
from slemma import geometry, search
from slemma.cli import main
from slemma.geometry import MEMBER_TOL
from slemma.implication import ClassifyConfig, image_cloud
from slemma.problem import load_problem
from slemma.rng import SplitMix64, derive_seed

CORPUS = Path(slemma.__file__).parent / "corpus"
# the midpoint of the conical violation `classify slater_fail` reported
# before the falsifier was skipped at p <= 1: a member by Dines' theorem
_FORMER_MIDPOINT = np.array([3.5227671933257207, 43.37927311737693])
# the chord point of the conical violation `classify` reports on
# p2to4_system(10), a non-member by an independent least-squares search
_P2TO4_10_VIOLATION = np.array([
    -18.429264659756683, -8.082514283134444, 21.88569034631043,
    45.57569423016775, 26.54694134702455])


def descend_before(loss, X0, steps=60, initial_step=0.1, box_radius=None,
                   groups=None):
    """`search.descend` before retirement: the loop that runs every group
    until the whole batch stalls or the step budget ends."""
    X = np.atleast_2d(np.array(X0, dtype=float))
    if box_radius is not None:
        X.clip(-box_radius, box_radius, out=X)
    best, grad = search.fd_gradient(loss, X, groups)
    step = np.full(X.shape[0], float(initial_step))
    for _ in range(steps):
        scale = np.sqrt(np.add.reduce(grad * grad, axis=1))
        scale[scale == 0.0] = 1.0
        np.divide(step, scale, out=scale)
        trial = grad * scale[:, None]
        np.subtract(X, trial, out=trial)
        if box_radius is not None:
            trial.clip(-box_radius, box_radius, out=trial)
        trial_vals, trial_grad = search.fd_gradient(loss, trial, groups)
        better = trial_vals < best
        if not np.count_nonzero(better):
            stalled = np.where((trial == X).all(1), step >= search.STEP_FLOOR,
                               step == search.STEP_FLOOR)
            if stalled.all():
                break
        else:
            rows = better[:, None]
            np.copyto(X, trial, where=rows)
            np.copyto(best, trial_vals, where=better)
            np.copyto(grad, trial_grad, where=rows)
        step *= np.where(better, 1.5, 0.25)
        np.maximum(step, search.STEP_FLOOR, out=step)
    order = (np.argsort(best, kind="stable") if groups is None
             else np.lexsort((best, groups)))
    return X[order], best[order]


def member_search_before(system, M, budget, seeds, mode, starts=None):
    """`geometry._member_search` before retirement: every target runs the
    full descent and the polish, and a member keeps its raw shortfall."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    k, n = M.shape[0], system.n
    restarts = max(4, int(budget))
    radii = np.resize([1.0, 5.0, 20.0, 80.0], restarts)[:, None]
    U = np.array([SplitMix64(seed).uniforms(restarts * n) for seed in seeds])
    blocks = [np.zeros((k, 1, n)),
              -radii + 2.0 * radii * U.reshape(k, restarts, n)]
    if starts is not None:
        blocks.insert(0, np.asarray(starts, dtype=float).reshape(k, -1, n))
    X0 = np.concatenate(blocks, axis=1)
    size = X0.shape[1]

    def loss(X, g):
        R, J = geometry._residuals(system, X, M[g], mode, jacobians=True)
        vals = np.add.reduce(R * R, axis=1)
        if not geometry.all_finite(R):
            R[~np.isfinite(R)] = 0.0
        R *= 2.0
        return vals, np.einsum("ij,ijk->ik", R, J)

    X, _ = descend_before(loss, X0.reshape(-1, n), steps=90,
                          groups=np.repeat(np.arange(k), size))
    X = X.reshape(k, size, n)
    polished = geometry._gauss_newton_polish(
        system, X[:, :3].reshape(-1, n), np.repeat(M, 3, axis=0), mode)
    X = np.concatenate([polished.reshape(k, 3, n), X], axis=1)
    Z = system.image_batch(X.reshape(-1, n)).reshape(k, size + 3, -1)
    gaps = geometry._shortfalls(np.where(np.isfinite(Z), Z, np.inf),
                                M[:, None], mode)
    results = []
    for j, best in enumerate(np.argmin(gaps, axis=1)):
        margin = float(gaps[j, best])
        member = margin <= MEMBER_TOL
        results.append(geometry.MembershipResult(
            member, X[j, best] if member else None, margin))
    return results


def _record_searches(monkeypatch, argv):
    """(system, M, budget, seeds, mode, starts) of every member search that
    the CLI command `argv` runs, or that the call `argv()` runs."""
    calls, original = [], geometry._member_search

    def spy(system, M, budget, seeds, mode, starts=None):
        calls.append((system, np.array(M), budget, list(seeds), mode,
                      None if starts is None else np.array(starts)))
        return original(system, M, budget, seeds, mode, starts)

    monkeypatch.setattr(geometry, "_member_search", spy)
    if callable(argv):
        argv()
    else:
        main(argv, out=io.StringIO(), err=io.StringIO())
    monkeypatch.undo()
    return calls


def _search_with_descent(monkeypatch, system, M, budget, seeds, mode, starts):
    """The member search's results, and (loss, X0, kwargs, values) of its
    one grouped descent."""
    runs, original = [], search.descend

    def spy(loss, X0, **kwargs):
        X, vals = original(loss, X0, **kwargs)
        runs.append((loss, np.array(X0), kwargs, vals))
        return X, vals

    monkeypatch.setattr(geometry, "descend", spy)
    results = geometry._member_search(system, M, budget, seeds, mode, starts)
    monkeypatch.undo()
    (run,) = runs
    return results, run


def _assert_as_before(monkeypatch, system, M, budget, seeds, mode, starts):
    """Compare one search with its reference; return (retired, members,
    non-members) counts."""
    found, (loss, X0, kwargs, vals) = _search_with_descent(
        monkeypatch, system, M, budget, seeds, mode, starts)
    before = member_search_before(system, M, budget, seeds, mode, starts)
    retired = vals.reshape(len(M), -1)[:, 0] <= geometry._MEMBER_LOSS
    for res, ref, m, gone in zip(found, before, M, retired):
        assert res.member == ref.member
        if not res.member:
            assert res.x is None
            assert np.float64(res.margin).tobytes() == \
                np.float64(ref.margin).tobytes()
        elif gone:
            z = system.image_batch(res.x[None])
            assert geometry._shortfalls(z, m[None], mode)[0] <= MEMBER_TOL
            assert 0.0 <= res.margin <= MEMBER_TOL
        else:
            assert res.x.tobytes() == ref.x.tobytes()
            assert res.margin == max(ref.margin, 0.0)
    _assert_groups_as_alone(loss, X0, kwargs, vals)
    members = sum(res.member for res in found)
    return int(retired.sum()), members, len(found) - members


def _assert_groups_as_alone(loss, X0, kwargs, vals):
    """The grouped descent with its goal gives each unretired group the
    bytes of that group's solo descent (no goal)."""
    groups = kwargs["groups"]
    X, got = search.descend(loss, X0, **kwargs)
    assert got.tobytes() == vals.tobytes()
    solo_kwargs = {key: value for key, value in kwargs.items()
                   if key not in ("groups", "goal")}
    for g in np.unique(groups):
        rows = groups == g
        if got[rows][0] <= kwargs["goal"]:
            continue
        X_solo, vals_solo = search.descend(
            loss, X0[rows], groups=groups[rows], **solo_kwargs)
        assert X[rows].tobytes() == X_solo.tobytes()
        assert got[rows].tobytes() == vals_solo.tobytes()


def _compare_all(monkeypatch, calls, modes):
    totals = np.zeros(3, dtype=int)
    for system, M, budget, seeds, recorded, starts in calls:
        for mode in modes or (recorded,):
            totals += _assert_as_before(monkeypatch, system, M, budget,
                                        seeds, mode, starts)
    return totals


def test_example3_stacks_in_both_modes(monkeypatch):
    # the identity stacks of example3's `geometry` report (the image
    # falsifier's chords), each searched in epi mode as well
    calls = _record_searches(
        monkeypatch, ["geometry", str(CORPUS / "example3_pair.json")])
    assert {call[4] for call in calls} == {"identity"}
    retired, members, others = _compare_all(monkeypatch, calls[:8],
                                            ("epi", "identity"))
    assert retired and others and members > retired


def test_conjecture_triple_stacks(monkeypatch):
    calls = _record_searches(
        monkeypatch, "conjecture-scan --count 4 --dim 2 --seed 1".split())
    assert {call[4] for call in calls} == {"epi"}
    retired, members, others = _compare_all(monkeypatch, calls, None)
    assert retired and others


def test_slater_fail_falsifier_stacks(monkeypatch):
    # the epi falsifier's stacks of `classify slater_fail`, all members;
    # the conical oracle's one search at the chord point that the sampled
    # conical falsifier once reported there (classify no longer asks that
    # oracle at p = 1: Dines' theorem answers it), a member retired at
    # the lifted w = sqrt(a^2/b) (b/a, 1) of m = (a, b); and a p = 4
    # non-member, the conical violation of p2to4 s = 10
    calls = _record_searches(
        monkeypatch, ["classify", str(CORPUS / "slater_fail.json")])
    assert [call[4] for call in calls] == ["epi"] * 6
    config = ClassifyConfig()
    answers = []
    for system, m in (
            (load_problem(CORPUS / "slater_fail.json").system(),
             _FORMER_MIDPOINT),
            (p2to4_system(10), _P2TO4_10_VIOLATION)):
        oracle = geometry.conical_membership_oracle(
            system, image_cloud(system, config), budget=config.member_budget,
            seed=derive_seed(config.seed, 7))
        calls += _record_searches(
            monkeypatch, lambda: answers.append(oracle(m)))
    assert [call[4] for call in calls] == ["epi"] * 6 + ["identity"] * 2
    assert [len(call[1]) for call in calls[6:]] == [1, 1]
    a, b = _FORMER_MIDPOINT
    assert answers[0].member and not answers[1].member
    assert np.allclose(np.abs(answers[0].x), [np.sqrt(b), a / np.sqrt(b)],
                       rtol=1e-6, atol=0)
    retired, members, others = _compare_all(monkeypatch, calls, None)
    assert retired == members == 25 and others == 1


@pytest.mark.parametrize("mode", ["epi", "identity"])
def test_a_search_where_every_target_retires(monkeypatch, mode):
    # targets on the image, each started from its own source: every
    # target retires before the first step, and none is polished
    system = load_problem(CORPUS / "example3_pair.json").system()
    X = SplitMix64(4).uniform_box(1.0, 2, 5)
    assert _assert_as_before(monkeypatch, system, system.image_batch(X), 4,
                             range(5), mode, X[:, None]) == (5, 5, 0)


@pytest.mark.parametrize("budget", range(10))
def test_no_polish_without_a_live_target_and_the_same_draws(monkeypatch,
                                                            budget):
    # a search whose targets all retire calls the polish zero times, and
    # one with a live target calls it once; either way the descent starts
    # from the restart radii np.resize([1, 5, 20, 80], restarts) gives
    system = load_problem(CORPUS / "example3_pair.json").system()
    X = SplitMix64(4).uniform_box(1.0, 2, 3)
    members = system.image_batch(X)
    far = members + [[-1e6, -1e6]]   # below every image: never retires
    polished, starts = [], []
    original_polish, original_descend = (geometry._gauss_newton_polish,
                                         search.descend)

    def polish(*args):
        polished.append(len(args[1]))
        return original_polish(*args)

    def descend(loss, X0, **kwargs):
        starts.append(np.array(X0))
        return original_descend(loss, X0, **kwargs)

    monkeypatch.setattr(geometry, "_gauss_newton_polish", polish)
    monkeypatch.setattr(geometry, "descend", descend)
    for M, calls in ((members, []), (np.vstack([members, far[:1]]), [3])):
        polished.clear()
        seeds = [derive_seed(budget, j) for j in range(len(M))]
        given = np.vstack([X, X[:1]])[:len(M), None]
        geometry._member_search(system, M, budget, seeds, "epi", given)
        assert polished == calls
        restarts = max(4, budget)
        radii = np.resize([1.0, 5.0, 20.0, 80.0], restarts)[:, None]
        U = np.array([SplitMix64(seed).uniforms(restarts * 2)
                      for seed in seeds]).reshape(len(M), restarts, 2)
        expected = np.concatenate(
            [given, np.zeros((len(M), 1, 2)), -radii + 2.0 * radii * U],
            axis=1).reshape(-1, 2)
        assert starts.pop().tobytes() == expected.tobytes()


def test_slater_fail_epi_searches_stop_early(monkeypatch):
    # before retirement the epi member searches of `classify slater_fail`
    # made 233 loss calls, each descent waiting for its slowest restart;
    # a search that stops each target at its first member row needs under
    # a third of them
    calls, modes = [], []
    original_search, original_descend = geometry._member_search, search.descend

    def member_search(system, M, budget, seeds, mode, starts=None):
        modes.append(mode)
        return original_search(system, M, budget, seeds, mode, starts)

    def descend(loss, X0, **kwargs):
        calls.append(0)

        def counted(*args):
            calls[-1] += 1
            return loss(*args)

        return original_descend(counted, X0, **kwargs)

    monkeypatch.setattr(geometry, "_member_search", member_search)
    monkeypatch.setattr(geometry, "descend", descend)
    main(["classify", str(CORPUS / "slater_fail.json")], out=io.StringIO())
    monkeypatch.undo()
    assert modes == ["epi"] * 6
    assert sum(calls[:6]) <= 233 // 3
