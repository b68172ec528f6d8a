"""Systems (f0; f1..fp) of quadratic or expression-defined functions.

The image map sends x to z(x) = (f0(x), -f1(x), ..., -fp(x)) in R^(p+1);
all the geometry below works on that vector.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import expr as expr_mod
from .errors import DimensionMismatch
from .quadratic import QuadraticFunction, QuadraticStack

ALL_QUADRATIC = "AllQuadratic"
MIXED = "Mixed"
# central-difference step of an expression's gradient
FD_STEP = 1e-5


def _check_dim(f, n):
    dim = f.n if isinstance(f, QuadraticFunction) else f.dimension
    if dim != n:
        raise DimensionMismatch(
            f"function dimension {dim} does not match system dimension {n}"
        )


@dataclass(frozen=True)
class FunctionSystem:
    """f0 plus constraints f1..fp, all over R^n."""

    n: int
    f0: object
    constraints: tuple = ()
    kind: str = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "constraints", tuple(self.constraints))
        _check_dim(self.f0, self.n)
        for f in self.constraints:
            _check_dim(f, self.n)
        all_quad = isinstance(self.f0, QuadraticFunction) and all(
            isinstance(f, QuadraticFunction) for f in self.constraints
        )
        object.__setattr__(self, "kind", ALL_QUADRATIC if all_quad else MIXED)

    @property
    def p(self):
        return len(self.constraints)

    @property
    def functions(self):
        return (self.f0,) + self.constraints

    @property
    def is_quadratic(self):
        return self.kind == ALL_QUADRATIC

    def is_linear(self):
        """True when every function is affine (all Q blocks exactly zero)."""
        return self.is_quadratic and all(
            not np.any(f.Q) for f in self.functions
        )

    def value(self, i, x):
        """f_i(x) at a single point (i = 0 is the objective)."""
        return self.functions[i](x)

    @cached_property
    def _quadratics(self):
        """(stacked kernel, columns) of the quadratic functions; built on
        first use, once per system."""
        cols = [i for i, f in enumerate(self.functions)
                if isinstance(f, QuadraticFunction)]
        return (QuadraticStack([self.functions[i] for i in cols])
                if cols else None), cols

    def _evaluate(self, X, first, gradients):
        """(values, gradients or None) of f_first..f_p at the rows of X."""
        X = np.asarray(X, dtype=float)
        stack, cols = self._quadratics
        if self.is_quadratic:
            vals, grads = stack.evaluate(X, gradients)
        else:
            m, k = X.shape[0], self.p + 1
            vals = np.empty((m, k))
            grads = np.empty((m, k, self.n)) if gradients else None
            if stack is not None:
                quad_vals, quad_grads = stack.evaluate(X, gradients)
                vals[:, cols] = quad_vals
                if gradients:
                    grads[:, cols] = quad_grads
            for i in range(first, k):
                f = self.functions[i]
                if not isinstance(f, QuadraticFunction):
                    vals[:, i], expr_grads = _expression_batch(f, X,
                                                               gradients)
                    if gradients:
                        grads[:, i] = expr_grads
        if first:
            vals = vals[:, first:]
            grads = None if grads is None else grads[:, first:]
        return vals, grads

    def values(self, x):
        """(f0(x), ..., fp(x)) at a single point.  An all-quadratic system
        gives exactly the bits of the point's row in `values_batch`."""
        if not self.is_quadratic:
            return np.array([f(x) for f in self.functions])
        x = np.asarray(x, dtype=float).ravel()
        if x.shape != (self.n,):
            raise DimensionMismatch(
                f"point has length {x.shape[0]}, expected {self.n}")
        return self._evaluate(x[None], 0, False)[0][0]

    def values_batch(self, X, first=0):
        """(m, p+1-first) array of the values of f_first..f_p at the rows
        of X; rows with out-of-domain evaluations come back non-finite."""
        return self._evaluate(X, first, False)[0]

    def values_and_gradients(self, X, first=0):
        """(values, gradients) of f_first..f_p at the rows of X, shaped
        (m, k) and (m, k, n) with k = p+1-first.  A quadratic's gradient
        is Q x + c from the stacked kernel; an expression's is a central
        difference with step FD_STEP, a non-finite difference reading 0."""
        return self._evaluate(X, first, True)

    def image_point(self, x):
        """z(x) = (f0(x), -f1(x), ..., -fp(x))."""
        vals = self.values(x)
        z = vals.copy()
        z[1:] *= -1.0
        return z

    def image_batch(self, X):
        vals = self.values_batch(X)
        vals[:, 1:] *= -1.0
        return vals


def _expression_batch(f, X, gradients):
    """Values of the expression f at the rows of X and, with `gradients`,
    its central differences, from one evaluation of X and its 2n probes."""
    if not gradients:
        return expr_mod.evaluate_batch(f, X), None
    m, n = X.shape
    points = np.repeat(X[None], 2 * n + 1, axis=0)
    for j in range(n):
        points[2 * j + 1, :, j] += FD_STEP
        points[2 * j + 2, :, j] -= FD_STEP
    vals = expr_mod.evaluate_batch(f, points.reshape(-1, n)).reshape(
        2 * n + 1, m)
    with np.errstate(invalid="ignore"):  # out of domain: inf - inf
        grads = (vals[1::2] - vals[2::2]).T / (2.0 * FD_STEP)
    grads[~np.isfinite(grads)] = 0.0
    return vals[0], grads


def quadratic_to_source(q):
    """Expression text equivalent to a quadratic function (for tests and
    the problem-file round trip)."""
    parts = [repr(float(q.d))]
    for i in range(q.n):
        parts.append(f"{float(q.c[i])!r}*x{i + 1}")
        parts.append(f"{0.5 * float(q.Q[i, i])!r}*x{i + 1}^2")
        for j in range(i + 1, q.n):
            parts.append(f"{float(q.Q[i, j])!r}*x{i + 1}*x{j + 1}")
    return " + ".join(parts)
