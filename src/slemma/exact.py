"""Exact arithmetic on the float data, from the standard library's
`fractions` alone.

Every double is a rational number, so a quadratic q(x) = 1/2 x^T Q x +
c^T x + d whose data are doubles has an exact rational value at a point
of doubles: `value`, and `combination` for a weighted sum of several,
each the form of the exact bordered matrix (`bordered`) at [x; 1],
halved.  `error_bound` is the a-priori bound (Higham 2002, section 3.1)
on how far the float kernel's value (`quadratic.QuadraticStack`, which
`values_batch` and the descents read) can be from that exact value.  A
float value farther than its bound from a threshold lies on the same
side of it exactly, so `Fraction` is needed only inside the bound.  The
bound is gamma * |q|(|x|), |q| being the quadratic of |Q|, |c| and |d|.

On rational matrices (nested lists of Fractions), `bordered` forms a
quadratic's bordered matrix exactly, `psd` decides positive
semidefiniteness by an LDL^T with diagonal pivoting, and `null_space`
gives a kernel basis by exact row reduction.
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


def value(q, x):
    """q(x) in Fraction, every double of Q, c, d and x read exactly."""
    return combination([q], [1.0], x)


def combination(functions, weights, x, homogeneous=False):
    """sum_k w_k f_k(x) in Fraction for quadratics f_k and double weights
    w_k: the form of each `bordered` matrix at [x; 1], halved.  With
    `homogeneous` the form is taken at [x; 0], which reads only the
    quadratic parts, sum_k w_k 1/2 x^T Q_k x: the combination's growth
    along the direction x."""
    v = [Fraction(t) for t in np.asarray(x, dtype=float).ravel().tolist()]
    v.append(Fraction(int(not homogeneous)))
    return sum((Fraction(w) * form(bordered(f), v, v)
                for f, w in zip(functions, weights) if w), Fraction(0)) / 2


def error_bound(stack, X):
    """Bounds on |fl(f_k(x)) - f_k(x)| for the float values of the
    `QuadraticStack` of f_1..f_k, at the point x = X, shape (k,), or at
    each row of X, shape (m, k).

    The kernel forms (Q x / 2)_j in n products and n - 1 sums, adds c_j,
    multiplies by x_j, sums the n terms and adds d: 2n + 2 operations deep
    on every product, so |error| <= gamma_(2n+2) |f|(|x|) in any order and
    with fused multiply-adds (Higham 2002, section 3.1), |f| being the
    quadratic of |Q|, |c| and |d|; underflow adds to that absolutely.  The
    result is that bound times SAFETY, computed from the magnitudes of
    the stack's own arrays; a non-finite bound means no bound."""
    half, c, d = np.abs(stack.half), np.abs(stack.c), np.abs(stack.d)
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


PSD = "PSD"


def bordered(q):
    """q's bordered matrix [[Q, c], [c^T, 2d]] in Fraction, as nested
    lists: q(x) = 1/2 [x; 1]^T M [x; 1] exactly."""
    c = [Fraction(v) for v in q.c.tolist()]
    return ([[Fraction(v) for v in row] + [ci]
             for row, ci in zip(q.Q.tolist(), c)] + [c + [2 * Fraction(q.d)]])


def form(A, u, v):
    """u^T A v for a rational matrix A and vectors u, v."""
    return sum(ui * sum(a * vj for a, vj in zip(row, v) if a)
               for ui, row in zip(u, A) if ui)


def psd(A):
    """PSD when the rational symmetric matrix A is positive semidefinite,
    else a rational vector u with u^T A u < 0.

    An LDL^T with diagonal pivoting, kept as a congruence: the columns of
    T start as the identity, and S = T^T A T on the live indices is the
    Schur complement.  A negative S_ii gives u = T e_i; a zero S_ii with
    S_ij != 0 gives u from the block [[0, b], [b, c]] of S on (i, j), u =
    T (w e_i + e_j) with w = -(c + 1) / 2b and u^T A u = -1; a zero row
    is dropped; otherwise the largest S_kk is eliminated."""
    S = [list(row) for row in A]
    T = [[Fraction(int(i == j)) for j in range(len(S))] for i in range(len(S))]
    live = list(range(len(S)))
    while live:
        for i in live:
            if S[i][i] < 0:
                return T[i]
            for j in live:
                if not S[i][i] and S[i][j]:
                    w = -(S[j][j] + 1) / (2 * S[i][j])
                    return [w * a + b for a, b in zip(T[i], T[j])]
        live = [j for j in live if S[j][j]]
        if live:
            k = max(live, key=lambda j: S[j][j])
            live.remove(k)
            for a in live:
                r = S[k][a] / S[k][k]
                if r:
                    for b in live:
                        S[a][b] -= r * S[k][b]
                    T[a] = [x - r * y for x, y in zip(T[a], T[k])]
    return PSD


def null_space(A):
    """A basis of {z : A z = 0} for a rational matrix A: one vector per
    free column of A's reduced row echelon form, in column order, 1 there
    and 0 at every other free column."""
    rows, pivots = [list(row) for row in A], []
    for col in range(len(rows[0])):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if p is not None:
            rows[r], rows[p] = rows[p], rows[r]
            rows[r] = [v / rows[r][col] for v in rows[r]]
            rows = [row if i == r else [a - row[col] * b
                                        for a, b in zip(row, rows[r])]
                    for i, row in enumerate(rows)]
            pivots.append(col)
    basis = []
    for free in sorted(set(range(len(rows[0]))) - set(pivots)):
        z = [Fraction(int(j == free)) for j in range(len(rows[0]))]
        for row, col in zip(rows, pivots):
            z[col] = -row[free]
        basis.append(z)
    return basis
