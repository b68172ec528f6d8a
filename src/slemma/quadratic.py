"""Quadratic functions, their bordered matrices, and a Jacobi eigensolver.

A quadratic function is q(x) = 1/2 <Qx, x> + <c, x> + d with Q symmetric.
Global nonnegativity of q is equivalent to positive semidefiniteness of the
bordered (n+1)x(n+1) matrix [[Q, c], [c^T, 2d]]; every PSD test in the
toolkit goes through that matrix and the eigensolver below.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NotConverged

MAX_EIGEN_SIZE = 64
_SYMMETRY_BAND = 1e-12
_ACCEPT_BAND = 1e-10

# A matrix passes the PSD test when lambda_min >= -PSD_RTOL * (1 + max|A|).
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
    return 0.5 * np.einsum("ij,jk,ik->i", X, q.Q, X) + X @ q.c + q.d


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


def _jacobi_sweeps_lists(a, v, n, threshold):
    """Cyclic Jacobi sweeps in place on plain nested lists a (the matrix)
    and v (the accumulated rotations).  Scalar loops on lists measured
    3-5x faster than numpy row and column updates up to 32x32, and within
    about 20% of them at the 64x64 size limit."""
    from math import sqrt

    for _sweep in range(100):
        # summing the off-diagonal entries directly avoids the cancellation
        # that ||A||_F^2 - ||diag||^2 suffers near convergence
        off2 = 0.0
        for i in range(n):
            row = a[i]
            for j in range(n):
                if i != j:
                    off2 += row[j] * row[j]
        off = sqrt(off2)
        if off <= threshold:
            return True
        # rotations below this size cannot move the off-norm meaningfully
        skip = off / (n * n) * 1e-4
        for p in range(n - 1):
            ap = a[p]
            for q in range(p + 1, n):
                apq = ap[q]
                if abs(apq) <= skip:
                    continue
                aq = a[q]
                theta = (aq[q] - ap[p]) / (2.0 * apq)
                t = 1.0 / (abs(theta) + sqrt(theta * theta + 1.0))
                if theta < 0.0:
                    t = -t
                c = 1.0 / sqrt(t * t + 1.0)
                s = t * c
                for row in a:
                    rp = row[p]
                    rq = row[q]
                    row[p] = c * rp - s * rq
                    row[q] = s * rp + c * rq
                for j in range(n):
                    rp = ap[j]
                    rq = aq[j]
                    ap[j] = c * rp - s * rq
                    aq[j] = s * rp + c * rq
                ap[q] = 0.0
                aq[p] = 0.0
                for row in v:
                    rp = row[p]
                    rq = row[q]
                    row[p] = c * rp - s * rq
                    row[q] = s * rp + c * rq
    return False


def eigen_sym(A, tol=1e-12):
    """Eigen-decomposition by cyclic Jacobi rotations.

    Sweeps run until the off-diagonal Frobenius norm drops below
    tol * ||A||_F, or 100 sweeps have passed (NotConverged).
    """
    A = np.array(A, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n):
        raise DimensionMismatch(f"matrix must be square, got shape {A.shape}")
    if n > MAX_EIGEN_SIZE:
        raise DimensionMismatch(f"matrix size {n} exceeds limit {MAX_EIGEN_SIZE}")
    scale = 1.0 + np.max(np.abs(A))
    asym = np.max(np.abs(A - A.T))
    if asym > _ACCEPT_BAND * scale:
        raise DimensionMismatch(
            f"matrix is not symmetric: max asymmetry {asym:.3e}"
        )
    A = (A + A.T) / 2.0
    V = np.eye(n)
    if n == 1:
        return SymmetricEigen(A[0].copy(), V)

    norm_f = float(np.linalg.norm(A))
    if norm_f == 0.0:
        return SymmetricEigen(np.zeros(n), V)
    threshold = tol * norm_f

    a = A.tolist()
    v = V.tolist()
    if not _jacobi_sweeps_lists(a, v, n, threshold):
        raise NotConverged(
            "Jacobi eigensolver did not converge within 100 sweeps; "
            "the input is likely ill-conditioned"
        )

    eigenvalues = np.diag(np.array(a))
    order = np.argsort(eigenvalues, kind="stable")
    return SymmetricEigen(eigenvalues[order], np.array(v)[:, order])


def min_eigenvalue(A, tol=1e-12):
    """Smallest eigenvalue and an associated unit eigenvector."""
    decomp = eigen_sym(A, tol)
    return float(decomp.eigenvalues[0]), decomp.eigenvectors[:, 0].copy()


def is_psd(A, rtol=PSD_RTOL):
    """PSD within relative tolerance: lambda_min >= -rtol * (1 + max|A|)."""
    lam, _ = min_eigenvalue(A)
    return lam >= -rtol * (1.0 + np.max(np.abs(A)))
