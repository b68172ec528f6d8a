"""Quadratic functions, their bordered matrices, and the eigen routine.

A quadratic function is q(x) = 1/2 <Qx, x> + <c, x> + d with Q symmetric.
Global nonnegativity of q is equivalent to positive semidefiniteness of the
bordered (n+1)x(n+1) matrix [[Q, c], [c^T, 2d]]; every PSD test in the
toolkit goes through that matrix and `eigen_sym` below, a checked call to
LAPACK's symmetric eigensolver.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NotConverged, NumericalBreakdown

_SYMMETRY_BAND = 1e-12
_ACCEPT_BAND = 1e-10

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
        scale = 1.0 + (np.max(np.abs(Q)) if Q.size else 0.0)
        asym = np.max(np.abs(Q - Q.T)) if Q.size else 0.0
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
        object.__setattr__(self, "d", float(self.d))
        object.__setattr__(self, "n", n)

    def __call__(self, x):
        return evaluate_quadratic(self, x)


def evaluate_quadratic(q, x):
    """1/2 x^T Q x + c^T x + d at a single point."""
    x = np.asarray(x, dtype=float).ravel()
    if x.shape != (q.n,):
        raise DimensionMismatch(f"point has length {x.shape[0]}, expected {q.n}")
    return float(0.5 * x @ q.Q @ x + q.c @ x + q.d)


def evaluate_quadratic_batch(q, X):
    """Values at each row of X (shape (m, n))."""
    X = np.asarray(X, dtype=float)
    # 0.5 * x^T Q x + c^T x + d, evaluated in place in that order
    vals = np.einsum("ij,jk,ik->i", X, q.Q, X)
    vals *= 0.5
    vals += X @ q.c
    vals += q.d
    return vals


class QuadraticStack:
    """q_1..q_k over R^n evaluated together: one product X [Q_1/2 | ... |
    Q_k/2] gives every value x.(Q_i x/2 + c_i) + d_i and every gradient
    Q_i x + c_i.  The product and the row-wise dot are two-operand
    `einsum`s, which round a row alike in any batch, one row included
    (`X @ A` does not for a single row); so a point gets the same bits
    alone as inside any batch."""

    def __init__(self, functions):
        self.n, self.k = functions[0].n, len(functions)
        # halving is exact, so X (Q/2) is (X Q)/2 bit for bit
        self.half = np.hstack([0.5 * q.Q for q in functions])
        self.c = np.array([q.c for q in functions])
        self.d = np.array([q.d for q in functions])

    def evaluate(self, X, gradients=False):
        """Values (m, k) at the rows of X, and with `gradients` also the
        (m, k, n) gradients: (values, gradients or None)."""
        half_qx = np.einsum("ij,jk->ik", X, self.half).reshape(
            X.shape[0], self.k, self.n)
        slope = half_qx + self.c
        vals = np.einsum("ijk,ik->ij", slope, X)
        vals += self.d
        if not gradients:
            return vals, None
        slope += half_qx
        return vals, slope


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

    The input must be square and symmetric within a relative band; it is
    symmetrized before the solve.  A non-finite entry raises
    NumericalBreakdown before LAPACK sees it, and a LAPACK failure raises
    NotConverged.
    """
    A = np.array(A, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n):
        raise DimensionMismatch(f"matrix must be square, got shape {A.shape}")
    scale = 1.0 + np.max(np.abs(A))
    if not np.isfinite(scale):
        raise NumericalBreakdown("matrix has a non-finite entry")
    asym = np.max(np.abs(A - A.T))
    if asym > _ACCEPT_BAND * scale:
        raise DimensionMismatch(
            f"matrix is not symmetric: max asymmetry {asym:.3e}"
        )
    try:
        return SymmetricEigen(*np.linalg.eigh((A + A.T) / 2.0))
    except np.linalg.LinAlgError as exc:
        raise NotConverged(f"symmetric eigensolver failed: {exc}") from None


def min_eigenvalue(A):
    """Smallest eigenvalue and an associated unit eigenvector."""
    decomp = eigen_sym(A)
    return float(decomp.eigenvalues[0]), decomp.eigenvectors[:, 0].copy()
