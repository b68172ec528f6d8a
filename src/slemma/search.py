"""Box sampling and gradient descent shared by all searches.

Every search in the toolkit follows the same recipe: draw points uniformly
from [-R, R]^n with a seeded splitmix64 stream, keep the most promising
ones, then run a batched gradient descent.  A loss maps an (m, n) array
of points to (values, gradients), shaped (m,) and (m, n): it applies the
chain rule once to the functions' own values and gradients
(`FunctionSystem.values_and_gradients`), so a descent step evaluates the
m trial rows and nothing else.  Non-finite values are treated as +inf
(the point is out of domain), non-finite gradient entries as 0, and no
row may depend on the other rows of the batch.  The descent stops early
only once every later iteration would repeat the last one bit for bit,
so its result is the one the full step budget gives.
"""

import numpy as np

from .rng import SplitMix64

STEP_FLOOR = 1e-12


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
    # copies: the descent updates both in place
    vals, grad = np.array(vals, dtype=float), np.array(grad, dtype=float)
    if not all_finite(vals):
        vals[~np.isfinite(vals)] = np.inf
    if not all_finite(grad):
        grad[~np.isfinite(grad)] = 0.0
    return vals, grad


def descend(loss, X0, steps=60, initial_step=0.1, box_radius=None,
            groups=None):
    """Batched descent with per-point adaptive step sizes.

    Accepted moves grow the step by 1.5x, rejected ones shrink it by 4x
    down to STEP_FLOOR; the incumbent never worsens.  With `box_radius`
    the iterates stay clamped to [-R, R]^n, matching the box-scoped claims
    made by callers.  Returns (points, values) sorted by value.

    Each iteration makes one loss call (through `fd_gradient`), on the m
    trials alone (iterations + 1 calls in all); a rejected row keeps its
    gradient, as its unchanged point would give it again.  Rows must not
    interact: the stacked quadratic kernel rounds a row alike in any batch
    (see quadratic.QuadraticStack).  So searches share a call: with
    `groups` (one id per row) the loss is called as loss(points, their
    group ids), each group's iterates equal a descent on its rows alone,
    and the result is sorted by (group, value).

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
    step = np.full(X.shape[0], float(initial_step))
    for _ in range(steps):
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
        step *= np.where(better, 1.5, 0.25)
        np.maximum(step, STEP_FLOOR, out=step)
    order = (np.argsort(best, kind="stable") if groups is None
             else np.lexsort((best, groups)))
    return X[order], best[order]


def sample_and_descend(loss, n, radius, samples, seed, keep=20, steps=60):
    """Sample the box, keep the `keep` best points, descend inside the box,
    and return (points, values) sorted by value."""
    rng = SplitMix64(seed)
    X = rng.uniform_box(radius, n, samples)
    return descend(loss, X[smallest(_clean(loss(X)[0]), keep)], steps=steps,
                   box_radius=radius)
