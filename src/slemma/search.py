"""Box sampling and finite-difference descent shared by all searches.

Every search in the toolkit follows the same recipe: draw points uniformly
from [-R, R]^n with a seeded splitmix64 stream, keep the most promising
ones, then run a batched gradient descent where the gradient is a central
finite difference of the loss.  Losses are vectorized callables mapping an
(m, n) array of points to an (m,) array of values; non-finite values are
treated as +inf (the point is out of domain).  The descent stops early
only once every later iteration would repeat the last one bit for bit, so
its result is the one the full step budget gives.
"""

import numpy as np

from .rng import SplitMix64

FD_STEP = 1e-5
STEP_FLOOR = 1e-12


def _clean(vals):
    vals = np.asarray(vals, dtype=float)
    return np.where(np.isfinite(vals), vals, np.inf)


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


def descend(loss, X0, steps=60, h=FD_STEP, initial_step=0.1, box_radius=None,
            groups=None):
    """Batched descent with per-point adaptive step sizes.

    Accepted moves grow the step by 1.5x, rejected ones shrink it by 4x
    down to STEP_FLOOR; the incumbent never worsens.  With `box_radius`
    the iterates stay clamped to [-R, R]^n, matching the box-scoped claims
    made by callers.  Returns (points, values) sorted by value.

    Rows never interact, so searches can share a call: with `groups` (one
    id per row) the loss is called as loss(points, their group ids), each
    group's iterates equal a descent on its rows alone, and the result is
    sorted by (group, value).

    The loop stops when no row improved and each row's trial equals the
    row or was taken at the floor step.  X, hence the probes, is then
    fixed; a floor step stays the floor, and a smaller step still rounds
    and clips back onto the row (rounding and clipping are monotone), so
    every later iteration would repeat this one bit for bit.
    """
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
        # rows whose next trial repeats this one (a sub-floor step grows)
        stalled = np.where(np.all(trial == X, axis=1), step >= STEP_FLOOR,
                           step == STEP_FLOOR)
        if not better.any() and stalled.all():
            break
        X[better] = trial[better]
        best[better] = trial_vals[better]
        step = np.where(better, step * 1.5, step * 0.25)
        step = np.maximum(step, STEP_FLOOR)
    order = (np.argsort(best, kind="stable") if groups is None
             else np.lexsort((best, groups)))
    return X[order], best[order]


def sample_and_descend(loss, n, radius, samples, seed, keep=20, steps=60):
    """Sample the box, keep the `keep` best points, descend inside the box,
    and return (points, values) sorted by value."""
    rng = SplitMix64(seed)
    X = rng.uniform_box(radius, n, samples)
    vals = _clean(loss(X))
    order = np.argsort(vals, kind="stable")[:keep]
    return descend(loss, X[order], steps=steps, box_radius=radius)
