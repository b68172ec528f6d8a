"""Box sampling and finite-difference descent shared by all searches.

Every search in the toolkit follows the same recipe: draw points uniformly
from [-R, R]^n with a seeded splitmix64 stream, keep the most promising
ones, then run a batched gradient descent where the gradient is a central
finite difference of the loss.  Losses are vectorized callables mapping an
(m, n) array of points to an (m,) array of values; non-finite values are
treated as +inf (the point is out of domain) and must not depend on the
other rows of the batch.  The descent stops early only once every later
iteration would repeat the last one bit for bit, so its result is the one
the full step budget gives.
"""

import functools

import numpy as np

from .rng import SplitMix64

FD_STEP = 1e-5
STEP_FLOOR = 1e-12


def _clean(vals):
    vals = np.asarray(vals, dtype=float)
    return np.where(np.isfinite(vals), vals, np.inf)


@functools.cache
def _offsets(n, h):
    # rows +h e_1, -h e_1, +h e_2, ...; -0.0 elsewhere (x + -0.0 is x)
    D = np.where(np.repeat(np.eye(n, dtype=bool), 2, axis=0),
                 np.tile([[h], [-h]], (n, 1)), -0.0)
    D.flags.writeable = False
    return D


def fd_gradient(loss, X, h=FD_STEP, groups=None):
    """Values at the rows of X and their central-difference gradients,
    from one loss call on [X; probes].  With `groups` (one id per row) the
    loss is called as loss(points, group id of each point)."""
    m, n = X.shape
    probes = (X[:, None, :] + _offsets(n, h)).reshape(-1, n)
    extra = (() if groups is None
             else (np.concatenate([groups, np.repeat(groups, 2 * n)]),))
    vals = _clean(loss(np.concatenate([X, probes]), *extra))
    pairs = vals[m:].reshape(m, n, 2)
    with np.errstate(invalid="ignore"):  # out of domain: inf - inf
        grad = (pairs[:, :, 0] - pairs[:, :, 1]) / (2.0 * h)
    return vals[:m], np.where(np.isfinite(grad), grad, 0.0)


def descend(loss, X0, steps=60, h=FD_STEP, initial_step=0.1, box_radius=None,
            groups=None):
    """Batched descent with per-point adaptive step sizes.

    Accepted moves grow the step by 1.5x, rejected ones shrink it by 4x
    down to STEP_FLOOR; the incumbent never worsens.  With `box_radius`
    the iterates stay clamped to [-R, R]^n, matching the box-scoped claims
    made by callers.  Returns (points, values) sorted by value.

    Each iteration makes one loss call, on the trials and their probes
    (iterations + 1 calls in all); a rejected row keeps its gradient, as
    its unchanged probes would give it again.  Rows must not interact:
    numpy rounds a row alike in any batch of 3 or more rows (not always in
    1- or 2-row ones: `einsum` at n = 2, `@` on one row).  So searches
    share a call: with `groups` (one id per row) the loss is called as
    loss(points, their group ids), each group's iterates equal a descent
    on its rows alone, and the result is sorted by (group, value).

    The loop stops when no row improved and each row's trial equals the
    row or was taken at the floor step.  X, hence the probes, is then
    fixed; a floor step stays the floor, and a smaller step still rounds
    and clips back onto the row (rounding and clipping are monotone), so
    every later iteration would repeat this one bit for bit.
    """
    X = np.atleast_2d(np.array(X0, dtype=float))
    if box_radius is not None:
        X = np.clip(X, -box_radius, box_radius)
    best, grad = fd_gradient(loss, X, h, groups)
    step = np.full(X.shape[0], float(initial_step))
    for _ in range(steps):
        norm = np.sqrt(np.add.reduce(grad * grad, axis=1))
        norm[norm == 0.0] = 1.0
        trial = X - (step / norm)[:, None] * grad
        if box_radius is not None:
            trial = np.clip(trial, -box_radius, box_radius)
        trial_vals, trial_grad = fd_gradient(loss, trial, h, groups)
        better = trial_vals < best
        # rows whose next trial repeats this one (a sub-floor step grows)
        stalled = np.where((trial == X).all(1), step >= STEP_FLOOR,
                           step == STEP_FLOOR)
        if not better.any() and stalled.all():
            break
        X[better] = trial[better]
        best[better] = trial_vals[better]
        grad[better] = trial_grad[better]
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
