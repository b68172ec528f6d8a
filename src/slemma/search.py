"""Box sampling and gradient descent shared by all searches.

Every search in the toolkit draws points uniformly from [-R, R]^n with a
seeded splitmix64 stream, keeps the most promising ones, then runs a
batched gradient descent (`sample_and_descend` is that recipe whole).
The Slater and counterexample searches read one shared sample
(`implication.box_sample`) and descend only when it decides nothing.
Box samples are drawn through a per-process memo of read-only arrays
(`box_points`): a draw depends only on (seed, radius, count, n), so
instances that share a config and a dimension share their draw.  A loss
maps an (m, n) array of points to (values, gradients), shaped (m,) and
(m, n): it applies the chain rule once to the functions' own values
and gradients (`FunctionSystem.values_and_gradients`), so a descent step
evaluates the m trial rows and nothing else.  Non-finite values are
treated as +inf (the point is out of domain), non-finite gradient entries
as 0, and no row may depend on the other rows of the batch.  The descent
reads a loss's arrays without copying them and never writes into them:
it copies only its initial pair, which it updates in place, and is done
with a trial's pair before the next call, so a loss may hand back the
same buffers on every call.  The descent stops early once every later
iteration would repeat the last one bit for bit, so its result is the
one the full step budget gives; a grouped descent with a `goal` (the
membership searches') also retires each group as soon as one of its rows
reaches the goal, and only such a group's result differs from the full
budget's.
"""

from collections import OrderedDict

import numpy as np

from .rng import SplitMix64

STEP_FLOOR = 1e-12
SAMPLE_KEEP = 10      # sample_and_descend: the best points it descends from
SAMPLE_STEPS = 80     # and the descent's step budget
BOX_STREAMS = 4                 # box_points: the draws its memo keeps
BOX_STREAM_VALUES = 1 << 16     # and the longest one, in doubles (512 KiB)

_box_streams = OrderedDict()    # (seed, radius) -> read-only flat draw


def box_points(radius, n, count, seed):
    """SplitMix64(seed).uniform_box(radius, n, count), bit for bit, as a
    read-only array memoized per process.

    That draw is the first count * n of the seed's uniforms on [-radius,
    radius], in rows of n, so one flat stream per (seed, radius), drawn to
    the longest request, serves every n and count.  The memo keeps the
    BOX_STREAMS streams used last, each of at most BOX_STREAM_VALUES
    doubles: at most 2 MiB.  A longer request is drawn afresh and not
    kept.  The result may be a view of the memo, so a row handed out in a
    result must be copied."""
    radius, need = float(radius), count * n
    key = (int(seed), radius)
    flat = _box_streams.get(key)
    if flat is not None and flat.size >= need:
        _box_streams.move_to_end(key)
    else:
        flat = SplitMix64(seed).uniforms(need, -radius, radius)
        flat.setflags(write=False)
        if need <= BOX_STREAM_VALUES:
            _box_streams[key] = flat
            _box_streams.move_to_end(key)
            if len(_box_streams) > BOX_STREAMS:
                _box_streams.popitem(last=False)
    return flat[:need].reshape(count, n)


def all_finite(a):
    """True when no entry of `a` is NaN or infinite."""
    return np.count_nonzero(np.isfinite(a)) == a.size


def _clean(vals):
    vals = np.asarray(vals, dtype=float)
    return (vals if all_finite(vals)
            else np.where(np.isfinite(vals), vals, np.inf))


def smallest(vals, k):
    """Indices of the k smallest values, ties in index order: exactly
    np.argsort(vals, kind="stable")[:k], without sorting every value."""
    vals = np.asarray(vals)
    if not 0 < k < vals.size:
        return np.argsort(vals, kind="stable")[:k]
    kth = np.partition(vals, k - 1)[k - 1]
    idx = np.flatnonzero(vals <= kth)
    if idx.size < k:  # a NaN among the k smallest: NaN sorts last
        return np.argsort(vals, kind="stable")[:k]
    return idx[np.argsort(vals[idx], kind="stable")[:k]]


def smallest_rows(vals, k):
    """`smallest(row, k)` for each row of the 2-D `vals`: exactly
    np.argsort(vals, axis=1, kind="stable")[:, :k], without sorting every
    value.  A row's candidates are its values at or below its k-th
    smallest; one stable sort on (row, value) keeps their ties in index
    order, and each row's first k are taken."""
    vals = np.asarray(vals)
    if not 0 < k < vals.shape[1]:
        return np.argsort(vals, axis=1, kind="stable")[:, :k]
    kth = np.partition(vals, k - 1, axis=1)[:, k - 1, None]
    rows, cols = np.nonzero(vals <= kth)
    counts = np.bincount(rows, minlength=len(vals))
    if np.any(counts < k):  # a NaN among a row's k smallest: NaN sorts last
        return np.argsort(vals, axis=1, kind="stable")[:, :k]
    order = np.lexsort((vals[rows, cols], rows))
    firsts = np.cumsum(counts) - counts
    return cols[order[firsts[:, None] + np.arange(k)]]


def fd_gradient(loss, X, groups=None):
    """Values and gradients of `loss` at the rows of X from one loss call,
    cleaned: a non-finite value reads +inf, a non-finite gradient entry 0.
    With `groups` (one id per row) the loss is called as loss(points,
    group id of each point).

    The gradients are the loss's own since the losses apply the chain
    rule; the name stays because perfbench/tracing.py binds this function
    by name and counts its calls as descent steps, so `descend` calls it
    once per loss evaluation."""
    extra = () if groups is None else (groups,)
    vals, grad = loss(X, *extra)
    # finite arrays come back as the loss's own; cleaned ones are new
    if not all_finite(vals):
        vals = np.where(np.isfinite(vals), vals, np.inf)
    if not all_finite(grad):
        grad = np.where(np.isfinite(grad), grad, 0.0)
    return vals, grad


def descend(loss, X0, steps=60, initial_step=0.1, box_radius=None,
            groups=None, goal=None):
    """Batched descent with per-point adaptive step sizes.

    Accepted moves grow the step by 1.5x, rejected ones shrink it by 4x
    down to STEP_FLOOR; the incumbent never worsens.  With `box_radius`
    the iterates stay clamped to [-R, R]^n, matching the box-scoped claims
    made by callers.  Returns (points, values) sorted by value.

    Each iteration makes one loss call (through `fd_gradient`), on the m
    trials alone (iterations + 1 calls in all); a rejected row keeps its
    gradient, as its unchanged point would give it again.  Rows must not
    interact: the stacked quadratic kernel sums each row in a fixed order
    whatever the batch (see quadratic.QuadraticStack).  So searches share
    a call: with `groups` (one id per row) the loss is called as
    loss(points, their group ids), each group's iterates equal a descent
    on its rows alone, and the result is sorted by (group, value).

    With `groups` (nonnegative integers) and a `goal`, a group retires
    once one of its rows has a value <= goal, at the start or after an
    iteration: its rows keep the points and values they have then and
    leave the working arrays, and the loop ends when every group has
    retired.  The other groups go on as if alone, so a group that never
    retires gets the bytes it gets without a goal; a retired group has a
    row at or below the goal, and no group without one retires.

    The loop stops when no row improved and each row's trial equals the
    row or was taken at the floor step.  X, hence its gradient, is then
    fixed; a floor step stays the floor, and a smaller step still rounds
    and clips back onto the row (rounding and clipping are monotone), so
    every later iteration would repeat this one bit for bit.

    The floating-point operations of the loop, and their order, are
    fixed: every witness the searches report depends on them, so a faster
    loop must return the same bytes (tests/test_search.py keeps the
    reference loop).  The loop works in place with few numpy calls per
    iteration: at 10 to 20 rows in a few dimensions a call costs more in
    dispatch than in arithmetic.  Callers pick their starts with
    `smallest`, an exact top-k selection.
    """
    X = np.atleast_2d(np.array(X0, dtype=float))
    if box_radius is not None:
        X.clip(-box_radius, box_radius, out=X)
    best, grad = fd_gradient(loss, X, groups)
    # the loop updates this pair in place, and a loss may reuse its arrays
    best, grad = np.array(best, dtype=float), np.array(grad, dtype=float)
    step = np.full(X.shape[0], float(initial_step))
    # with a goal, the result's arrays and the live rows' places in them
    all_X, all_best, all_groups = X, best, groups
    live = np.arange(X.shape[0])
    reached = goal is not None and np.count_nonzero(best <= goal)
    for _ in range(steps):
        if reached:
            all_X[live], all_best[live] = X, best
            retired = np.zeros(groups.max() + 1, dtype=bool)
            retired[groups[best <= goal]] = True
            keep = ~retired[groups]
            if not np.count_nonzero(keep):
                break
            X, best, grad, step = X[keep], best[keep], grad[keep], step[keep]
            groups, live, reached = groups[keep], live[keep], False
        with np.errstate(over="ignore"):   # past 1e154: +inf, a zero step
            scale = np.sqrt(np.add.reduce(grad * grad, axis=1))
        scale[scale == 0.0] = 1.0
        np.divide(step, scale, out=scale)
        trial = grad * scale[:, None]
        np.subtract(X, trial, out=trial)
        if box_radius is not None:
            # np.clip without its wrapper; np.minimum/np.maximum would
            # differ from it in the sign of a zero at radius 0
            trial.clip(-box_radius, box_radius, out=trial)
        trial_vals, trial_grad = fd_gradient(loss, trial, groups)
        better = trial_vals < best
        if not np.count_nonzero(better):
            # rows whose next trial repeats this one (a sub-floor step grows)
            stalled = np.where((trial == X).all(1), step >= STEP_FLOOR,
                               step == STEP_FLOOR)
            if stalled.all():
                break
        else:
            rows = better[:, None]
            np.copyto(X, trial, where=rows)
            np.copyto(best, trial_vals, where=better)
            np.copyto(grad, trial_grad, where=rows)
            if goal is not None:
                reached = np.count_nonzero(best <= goal)
        step *= np.where(better, 1.5, 0.25)
        np.maximum(step, STEP_FLOOR, out=step)
    if goal is not None:
        all_X[live], all_best[live] = X, best
    order = (np.argsort(all_best, kind="stable") if all_groups is None
             else np.lexsort((all_best, all_groups)))
    return all_X[order], all_best[order]


def sample_and_descend(values, loss, n, radius, samples, seed):
    """Sample the box (`box_points`), rank its points by `values` (the
    loss's values alone, (m, n) -> (m,), so the sample's gradients are
    never computed), descend SAMPLE_STEPS steps inside it from the
    SAMPLE_KEEP best points, and return (points, values) sorted by value."""
    X = box_points(radius, n, samples, seed)
    return descend(loss, X[smallest(_clean(values(X)), SAMPLE_KEEP)],
                   steps=SAMPLE_STEPS, box_radius=radius)
