"""Systems (f0; f1..fp) of quadratic or expression-defined functions.

The image map sends x to z(x) = (f0(x), -f1(x), ..., -fp(x)) in R^(p+1);
all the geometry below works on that vector.
"""

from dataclasses import dataclass, field

import numpy as np

from . import expr as expr_mod
from .errors import DimensionMismatch
from .quadratic import (QuadraticFunction, evaluate_quadratic,
                        evaluate_quadratic_batch)

ALL_QUADRATIC = "AllQuadratic"
MIXED = "Mixed"


def _check_dim(f, n):
    dim = f.n if isinstance(f, QuadraticFunction) else f.dimension
    if dim != n:
        raise DimensionMismatch(
            f"function dimension {dim} does not match system dimension {n}"
        )


def _evaluate(f, x):
    if isinstance(f, QuadraticFunction):
        return evaluate_quadratic(f, x)
    return expr_mod.evaluate(f, x)


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
        return _evaluate(self.functions[i], x)

    def values(self, x):
        """(f0(x), ..., fp(x)) at a single point."""
        return np.array([_evaluate(f, x) for f in self.functions])

    def values_batch(self, X, first=0):
        """(m, p+1-first) array of the values of f_first..f_p at the rows
        of X; rows with out-of-domain evaluations come back non-finite."""
        X = np.asarray(X, dtype=float)
        out = np.empty((X.shape[0], self.p + 1 - first))
        for i, f in enumerate(self.functions[first:]):
            if isinstance(f, QuadraticFunction):
                out[:, i] = evaluate_quadratic_batch(f, X)
            else:
                out[:, i] = expr_mod.evaluate_batch(f, X)
        return out

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
