"""Exact arithmetic on the float data, from the standard library's
`fractions` alone.

Every double is a rational number, so a quadratic q(x) = 1/2 x^T Q x +
c^T x + d whose data are doubles has an exact rational value at a point
of doubles: `value`, and `combination` for a weighted sum of several.
`error_bound` is the a-priori bound (Higham 2002, section 3.1) on how
far the float kernel's value (`quadratic.QuadraticStack`, which
`values_batch` and the descents read) can be from that exact value.  A
float value farther than its bound from a threshold lies on the same
side of it exactly, so `Fraction` is needed only inside the bound.

The bound is gamma * |q|(|x|), |q| being the quadratic of |Q|, |c| and
|d|.  The same pieces give a box's bound q(c) +- (|Mc| r + 1/2 r^T |M| r)
at a dyadic centre c and radius r.
"""

from fractions import Fraction

import numpy as np

UNIT_ROUNDOFF = 2.0 ** -53
# the bound is computed in floats too; doubling it covers that rounding,
# at most gamma_(2n+3) < 1/2 relative on sums of nonnegative terms
SAFETY = 2.0
# a product that underflows is off by at most 2^-1075 absolutely, not
# relatively; every such error of the kernel, carried through at most two
# more products by |x_j|, is below this term times (|x|_1 + n)^2
_UNDERFLOW = 2.0 ** -1022


def gamma(k):
    """gamma_k = k u / (1 - k u), which bounds the relative error that k
    roundings accumulate (Higham 2002, Lemma 3.1)."""
    return k * UNIT_ROUNDOFF / (1.0 - k * UNIT_ROUNDOFF)


def _half_form(Q, x):
    """1/2 x^T Q x in Fraction, for a symmetric Q (nested lists of
    doubles) and a list x of Fractions: sum_i x_i (Q_ii x_i / 2 +
    sum_(j > i) Q_ij x_j)."""
    total = Fraction(0)
    for i, xi in enumerate(x):
        if xi:
            row = Fraction(Q[i][i]) * xi / 2
            for j in range(i + 1, len(x)):
                if Q[i][j] and x[j]:
                    row += Fraction(Q[i][j]) * x[j]
            total += row * xi
    return total


def value(q, x):
    """q(x) in Fraction, every double of Q, c, d and x read exactly."""
    return combination([q], [1.0], x)


def combination(functions, weights, x, homogeneous=False):
    """sum_k w_k f_k(x) in Fraction for quadratics f_k and double weights
    w_k; with `homogeneous`, only the quadratic parts, sum_k w_k 1/2 x^T
    Q_k x: the combination's growth along the direction x."""
    xs = [Fraction(v) for v in np.asarray(x, dtype=float).ravel().tolist()]
    total = Fraction(0)
    for f, w in zip(functions, weights):
        if not w:
            continue
        part = _half_form(f.Q.tolist(), xs)
        if not homogeneous:
            part += Fraction(f.d)
            for ci, xi in zip(f.c.tolist(), xs):
                if ci:
                    part += Fraction(ci) * xi
        total += Fraction(w) * part
    return total


def error_bound(stack, X):
    """Bounds on |fl(f_k(x)) - f_k(x)| for the float values of the
    `QuadraticStack` of f_1..f_k, at the point x = X, shape (k,), or at
    each row of X, shape (m, k).

    The kernel forms (Q x / 2)_j in n products and n - 1 sums, adds c_j,
    multiplies by x_j, sums the n terms and adds d: 2n + 2 operations deep
    on every product, so |error| <= gamma_(2n+2) |f|(|x|) in any order and
    with fused multiply-adds (Higham 2002, section 3.1), |f| being the
    quadratic of |Q|, |c| and |d|; underflow adds to that absolutely.  The
    result is that bound times SAFETY, computed from the stack's own
    arrays (`QuadraticStack.magnitudes`); a non-finite bound means no
    bound."""
    half, c, d = stack.magnitudes
    A = np.abs(X)
    n = A.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):
        slope = (A @ half).reshape(A.shape[:-1] + (stack.k, n))
        slope += c
        bound = np.matmul(slope, A[..., None])[..., 0]
        bound += d
        bound *= SAFETY * gamma(2 * n + 2)
        size = np.add.reduce(A, axis=-1) + n
        bound += (SAFETY * _UNDERFLOW * size * size)[..., None]
    return bound
