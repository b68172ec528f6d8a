"""Quadratic functions, their bordered matrices, and the eigen routine.

A quadratic function is q(x) = 1/2 <Qx, x> + <c, x> + d with Q symmetric.
Global nonnegativity of q is equivalent to positive semidefiniteness of the
bordered (n+1)x(n+1) matrix [[Q, c], [c^T, 2d]]; every PSD test in the
toolkit goes through that matrix and `eigen_sym` below, a checked call to
LAPACK's symmetric eigensolver.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, NotConverged, NumericalBreakdown

_SYMMETRY_BAND = 1e-12
_ACCEPT_BAND = 1e-10
_MAX = np.finfo(float).max
_HALF_MAX = _MAX / 2                    # A + A.T is finite below it

# Default relative tolerance of the PSD test (certificate.check_multipliers).
PSD_RTOL = 1e-9


@dataclass(frozen=True)
class QuadraticFunction:
    """q(x) = 1/2 x^T Q x + c^T x + d over R^n."""

    Q: np.ndarray
    c: np.ndarray
    d: float
    n: int = field(init=False)

    def __post_init__(self):
        Q = np.atleast_2d(np.asarray(self.Q, dtype=float))
        c = np.asarray(self.c, dtype=float).ravel()
        n = Q.shape[0]
        if Q.shape != (n, n):
            raise DimensionMismatch(f"Q must be square, got shape {Q.shape}")
        if c.shape != (n,):
            raise DimensionMismatch(f"c has length {c.shape[0]}, expected {n}")
        if n < 1:
            raise DimensionMismatch("dimension must be at least 1")
        d, big = float(self.d), float(np.max(np.abs(Q)))   # NaN if Q has one
        if not (big <= _HALF_MAX and math.isfinite(d)
                and np.isfinite(c).all()):
            raise NumericalBreakdown("Q, c and d must be finite, and |Q| at "
                                     "most half the largest double")
        scale = 1.0 + big
        asym = np.max(np.abs(Q - Q.T))
        if asym > _SYMMETRY_BAND * scale:
            raise DimensionMismatch(
                f"Q is not symmetric: max asymmetry {asym:.3e} exceeds the "
                f"{_SYMMETRY_BAND:.0e} band"
            )
        Q = (Q + Q.T) / 2.0
        Q.setflags(write=False)
        c.setflags(write=False)
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "n", n)

    def __call__(self, x):
        return evaluate_quadratic(self, x)


def evaluate_quadratic(q, x):
    """1/2 x^T Q x + c^T x + d at a single point, from the stacked kernel
    (`QuadraticStack`) that evaluates every system's quadratics."""
    x = np.asarray(x, dtype=float).ravel()
    if x.shape != (q.n,):
        raise DimensionMismatch(f"point has length {x.shape[0]}, expected {q.n}")
    return float(QuadraticStack([q]).evaluate(x[None])[0][0, 0])


def _dot_order(n):
    """(even, odd) columns of an n-term dot product in the order of
    numpy's contiguous einsum dot at its x86-64 baseline, two SSE lanes:
    column 2t feeds lane 0 and column 2t+1 lane 1; each block of 8
    columns goes in reverse pair order (6, 4, 2, 0), the tail in pair
    order, and a lone last column pairs with nothing."""
    full = n - n % 8
    even = [b + t for b in range(0, full, 8) for t in (6, 4, 2, 0)]
    even += range(full, n, 2)
    return even, [j + 1 for j in even if j + 1 < n]


class QuadraticStack:
    """q_1..q_k over R^n evaluated together: one product X [Q_1/2 | ... |
    Q_k/2] gives every value x.(Q_i x/2 + c_i) + d_i and every gradient
    Q_i x + c_i.

    Values alone are computed with the points last.  A two-operand
    `einsum` forms the product from X.T as one (k, n, m) array, summing
    over j = 0..n-1 in turn as the points-first product does; c is added
    and the array multiplied by X.T in place, its n contiguous (k, m)
    planes are summed in a fixed order (`_dot_order`), and d is added.
    With gradients the product is (m, k, n) and the row-wise dot is a
    two-operand `einsum`, whose contiguous dot sums in that same order at
    numpy's x86-64 baseline.  No order depends on m, so a point gets the
    same bits alone as inside any batch, and both modes give the same
    values."""

    def __init__(self, functions):
        self.n, self.k = functions[0].n, len(functions)
        # halving is exact, so X (Q/2) is (X Q)/2 bit for bit
        self.half = np.hstack([0.5 * q.Q for q in functions])
        self.c = np.array([q.c for q in functions])
        # einsum's dot starts its lanes and its output at +0, the fixed
        # order starts each lane at its first product: the two sums differ
        # only where einsum's reads +0 and the other -0, and adding d + 0
        # (never -0) rather than d makes that difference vanish
        self.d = np.array([q.d for q in functions]) + 0.0
        self._even, self._odd = _dot_order(self.n)

    @cached_property
    def magnitudes(self):
        """(|half|, |c|, |d|): the arrays of |q_1|..|q_k|, the quadratics
        of |Q|, |c| and |d|, which `exact.error_bound` reads."""
        return np.abs(self.half), np.abs(self.c), np.abs(self.d)

    def evaluate(self, X, gradients=False):
        """Values (m, k) at the rows of X, and with `gradients` also the
        (m, k, n) gradients: (values, gradients or None).  The values
        alone come back as the transpose of a (k, m) array, so each
        function's column is contiguous."""
        if gradients:
            half_qx = np.einsum("ij,jk->ik", X, self.half).reshape(
                X.shape[0], self.k, self.n)
            slope = half_qx + self.c
            vals = np.einsum("ijk,ik->ij", slope, X)
            vals += self.d
            slope += half_qx
            return vals, slope
        XT = np.ascontiguousarray(X.T)
        terms = np.einsum("jk,ji->ki", self.half, XT).reshape(
            self.k, self.n, -1)
        terms += self.c[:, :, None]
        even, odd = self._even, self._odd
        # the row dot overflows as silently as einsum's does
        with np.errstate(over="ignore", invalid="ignore"):
            terms *= XT
            lane = terms[:, even[0]]
            for j in even[1:]:
                lane += terms[:, j]
            if odd:
                other = terms[:, odd[0]]
                for j in odd[1:]:
                    other += terms[:, j]
                lane += other
        return np.add(lane, self.d[:, None]).T, None


def bordered_matrix(q):
    """Homogenization [[Q, c], [c^T, 2d]]: q >= 0 everywhere iff PSD."""
    M = np.zeros((q.n + 1, q.n + 1))
    M[: q.n, : q.n] = q.Q
    M[: q.n, q.n] = q.c
    M[q.n, : q.n] = q.c
    M[q.n, q.n] = 2.0 * q.d
    return M


@dataclass(frozen=True)
class SymmetricEigen:
    """Eigenvalues sorted ascending; eigenvector k is column k."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def eigen_sym(A):
    """Eigen-decomposition by LAPACK's symmetric solver (numpy `eigh`).

    The input must be a nonempty square matrix, symmetric within a
    relative band; it is read in place, not copied, and (A + A.T) / 2 is
    what LAPACK solves.  An entry that is not finite, or whose magnitude
    times max(2, n) exceeds the largest double, raises NumericalBreakdown
    before LAPACK is called: above half the largest double A + A.T could
    overflow, and an n x n matrix's eigenvalues reach n max|A|.  LAPACK's
    rounding can still carry an extreme eigenvalue just under that bound
    past the largest double, which raises NumericalBreakdown too.  A
    LAPACK failure raises NotConverged.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or not A.size:
        raise DimensionMismatch(
            f"matrix must be square and nonempty, got shape {A.shape}")
    n, big = A.shape[0], float(abs(A).max())
    if not big * max(2, n) <= _MAX:
        raise NumericalBreakdown(
            "matrix has a non-finite entry" if not math.isfinite(big)
            else f"matrix entry {big:.3e} would overflow A + A.T"
            if big > _HALF_MAX
            else f"matrix entry {big:.3e} times n = {n} could overflow an "
                 "eigenvalue")
    scale = 1.0 + big
    asym = abs(A - A.T).max()
    if asym > _ACCEPT_BAND * scale:
        raise DimensionMismatch(
            f"matrix is not symmetric: max asymmetry {asym:.3e}"
        )
    S = A + A.T
    S /= 2.0
    try:
        lam, vecs = np.linalg.eigh(S)
    except np.linalg.LinAlgError as exc:
        raise NotConverged(f"symmetric eigensolver failed: {exc}") from None
    if not (math.isfinite(lam[0]) and math.isfinite(lam[-1])):
        raise NumericalBreakdown(
            f"an eigenvalue overflowed, with matrix entries up to {big:.3e}")
    return SymmetricEigen(lam, vecs)


def min_eigenvalue(A):
    """Smallest eigenvalue and an associated unit eigenvector."""
    decomp = eigen_sym(A)
    return float(decomp.eigenvalues[0]), decomp.eigenvectors[:, 0].copy()
