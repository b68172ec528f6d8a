import math
import warnings
from itertools import chain

import numpy as np
import pytest

from conftest import quadratic_values
from slemma.certificate import check_multipliers
from slemma.errors import DimensionMismatch, NotConverged, NumericalBreakdown
from slemma.expr import evaluate, parse
from slemma.geometry import _random_quadratic as random_quadratic
from slemma.quadratic import (QuadraticFunction, QuadraticStack,
                              bordered_matrix, eigen_sym, evaluate_quadratic,
                              min_eigenvalue)
from slemma.rng import SplitMix64
from slemma.systems import FunctionSystem, quadratic_to_source


def test_evaluate_example3_objective():
    q = QuadraticFunction(np.array([[4.0, 0.0], [0.0, -2.0]]), np.zeros(2), 0.0)
    assert evaluate_quadratic(q, [1.0, 0.0]) == 2.0
    assert evaluate_quadratic(q, [0.0, 1.0]) == -1.0


def test_evaluate_at_origin_gives_constant():
    q = QuadraticFunction(np.array([[1.0, 0.2], [0.2, 3.0]]),
                          np.array([1.0, -1.0]), 7.5)
    assert evaluate_quadratic(q, [0.0, 0.0]) == 7.5


def test_evaluate_identity_half_norm():
    q = QuadraticFunction(np.eye(2), np.zeros(2), 0.0)
    assert evaluate_quadratic(q, [3.0, 4.0]) == 12.5


def test_dimension_mismatch():
    q = QuadraticFunction(np.eye(2), np.zeros(2), 0.0)
    with pytest.raises(DimensionMismatch):
        evaluate_quadratic(q, [1.0, 2.0, 3.0])


def test_q_at_half_the_largest_double_constructs():
    big = np.finfo(float).max / 2
    q = QuadraticFunction(np.array([[big, -big], [-big, big]]), [0.0, 0.0],
                          0.0)
    assert q.Q[0, 0] == big and q.Q[0, 1] == -big


def test_asymmetric_q_rejected():
    Q = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(DimensionMismatch):
        QuadraticFunction(Q, np.zeros(2), 0.0)


@pytest.mark.parametrize("Q, c, d", [
    ([[np.nan, 1.0], [1.0, 2.0]], [0.0, 0.0], 0.0),
    ([[1.0, 0.0], [0.0, 1.0]], [np.inf, 0.0], np.nan),
    ([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0], -np.inf),
    ([[1.0, np.inf], [-np.inf, 1.0]], [0.0, 0.0], 0.0),
    ([[1e308, 0.0], [0.0, 1.0]], [0.0, 0.0], 0.0)])
def test_non_finite_data_breaks_down_before_the_symmetry_test(Q, c, d):
    # these used to construct, the first after a RuntimeWarning from
    # Q - Q.T, the last with Q[0, 0] = inf after one from Q + Q.T
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalBreakdown, match="must be finite"):
            QuadraticFunction(np.array(Q), c, d)


def test_bordered_matrix_assembly():
    q = QuadraticFunction([[1.0]], [0.0], 0.0)      # x^2/2
    assert bordered_matrix(q).tolist() == [[1.0, 0.0], [0.0, 0.0]]
    q = QuadraticFunction(np.array([[4.0, 0.0], [0.0, -2.0]]), np.zeros(2), 0.0)
    assert bordered_matrix(q).tolist() == [[4.0, 0.0, 0.0],
                                           [0.0, -2.0, 0.0],
                                           [0.0, 0.0, 0.0]]
    q = QuadraticFunction([[0.0]], [1.0], 1.0)      # x + 1
    assert bordered_matrix(q).tolist() == [[0.0, 1.0], [1.0, 2.0]]


def test_eigen_diagonal():
    dec = eigen_sym(np.diag([3.0, 1.0]))
    assert np.allclose(dec.eigenvalues, [1.0, 3.0])
    assert np.allclose(np.abs(dec.eigenvectors), np.eye(2)[:, ::-1])


def test_eigen_swap_matrix():
    dec = eigen_sym(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(dec.eigenvalues, [-1.0, 1.0], atol=1e-12)


def test_eigen_bordered_example():
    dec = eigen_sym(np.array([[4.0, 0, 0], [0, -2.0, 0], [0, 0, 0.0]]))
    assert np.allclose(dec.eigenvalues, [-2.0, 0.0, 4.0])


def test_min_eigenvalue_identity_and_zero():
    lam, v = min_eigenvalue(np.eye(3))
    assert lam == pytest.approx(1.0)
    assert np.linalg.norm(v) == pytest.approx(1.0)
    lam, v = min_eigenvalue(np.zeros((2, 2)))
    assert lam == 0.0
    assert np.linalg.norm(v) == pytest.approx(1.0)


def test_min_eigenvalue_swap():
    lam, v = min_eigenvalue(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert lam == pytest.approx(-1.0, abs=1e-12)
    target = np.array([1.0, -1.0]) / np.sqrt(2.0)
    assert min(np.linalg.norm(v - target), np.linalg.norm(v + target)) < 1e-8


def test_reconstruction_and_trace_invariants():
    rng = np.random.default_rng(0)
    # 120 random sizes in 1..10, then larger sizes
    sizes = chain((int(rng.integers(1, 11)) for _ in range(120)),
                  (13, 32, 64, 65, 100))
    for n in sizes:
        A = rng.uniform(-3, 3, (n, n))
        A = A + A.T
        dec = eigen_sym(A)
        V, lam = dec.eigenvectors, dec.eigenvalues
        scale = 1.0 + np.max(np.abs(A))
        assert np.max(np.abs(V @ np.diag(lam) @ V.T - A)) <= 1e-8 * scale
        assert np.max(np.abs(V.T @ V - np.eye(n))) <= 1e-9
        tr = np.trace(A)
        assert abs(tr - np.sum(lam)) <= 1e-9 * (1.0 + abs(tr))
        assert np.all(np.diff(lam) >= 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_eigen_non_finite_entry_breaks_down_before_lapack(bad, monkeypatch):
    def lapack(_):
        raise AssertionError("LAPACK was called")

    monkeypatch.setattr(np.linalg, "eigh", lapack)
    A = np.eye(3)
    A[1, 2] = A[2, 1] = bad
    with pytest.raises(NumericalBreakdown):
        eigen_sym(A)


@pytest.mark.parametrize("big", [9e307, -1.7976931348623157e308])
def test_eigen_entry_that_overflows_a_plus_a_t_breaks_down(big, monkeypatch):
    # finite, but A + A.T overflows: NumericalBreakdown, not NaN eigenpairs
    def lapack(_):
        raise AssertionError("LAPACK was called")

    monkeypatch.setattr(np.linalg, "eigh", lapack)
    A = np.eye(3)
    A[0, 1] = A[1, 0] = big
    with pytest.raises(NumericalBreakdown, match="would overflow A \\+ A.T"):
        eigen_sym(A)


def test_eigen_entry_times_n_past_the_largest_double_breaks_down(
        monkeypatch):
    # each entry is below half the largest double, but the eigenvalue
    # 3 * 8e307 is not a double: NumericalBreakdown, not an infinite one
    def lapack(_):
        raise AssertionError("LAPACK was called")

    monkeypatch.setattr(np.linalg, "eigh", lapack)
    with pytest.raises(NumericalBreakdown, match="times n = 3"):
        eigen_sym(np.full((3, 3), 8e307))


def _just_under_the_bound(n):
    largest = float(np.finfo(float).max)
    c = largest / n
    while c * n > largest:
        c = math.nextafter(c, 0.0)
    return c


def test_eigen_entries_just_under_the_bound_pass():
    c = _just_under_the_bound(3)
    lam = eigen_sym(np.full((3, 3), c)).eigenvalues
    assert np.isfinite(lam).all()
    assert lam[-1] == pytest.approx(3 * c, rel=1e-15)


@pytest.mark.parametrize("n", [3, 4, 5, 8])
def test_eigen_never_returns_an_infinite_eigenvalue(n):
    # just under the bound, LAPACK's rounding may still carry the top
    # eigenvalue past the largest double; that breaks down too
    try:
        lam = eigen_sym(np.full((n, n), _just_under_the_bound(n))).eigenvalues
    except NumericalBreakdown as exc:
        assert "overflowed" in str(exc)
    else:
        assert np.isfinite(lam).all()


def test_eigen_overflowed_eigenvalue_breaks_down(monkeypatch):
    def lapack(S):
        return np.array([-1.0, np.inf]), np.eye(2)

    monkeypatch.setattr(np.linalg, "eigh", lapack)
    with pytest.raises(NumericalBreakdown, match="overflowed"):
        eigen_sym(np.eye(2))


def test_eigen_entries_at_half_the_largest_double_pass():
    half = np.finfo(float).max / 2
    dec = eigen_sym(np.array([[half, 0.0], [0.0, -half]]))
    assert dec.eigenvalues.tolist() == pytest.approx([-half, half],
                                                     rel=1e-15)


@pytest.mark.parametrize("bad", [5.0, np.zeros((0, 0)), np.zeros(3),
                                 np.zeros((2, 3)), np.zeros((2, 2, 2))],
                         ids=["scalar", "empty", "vector", "2x3", "2x2x2"])
def test_eigen_malformed_input_is_a_dimension_mismatch(bad):
    with pytest.raises(DimensionMismatch):
        eigen_sym(bad)


def test_eigen_lapack_failure_is_not_converged(monkeypatch):
    def lapack(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", lapack)
    with pytest.raises(NotConverged):
        eigen_sym(np.eye(2))


def _grid_min(q, radius=10.0, points=41):
    axes = [np.linspace(-radius, radius, points)] * q.n
    mesh = np.meshgrid(*axes, indexing="ij")
    X = np.stack([m.ravel() for m in mesh], axis=1)
    return float(np.min(quadratic_values(q, X)))


def _psd(q):
    """The production PSD verdict on q's bordered matrix."""
    return check_multipliers(FunctionSystem(q.n, q), np.zeros(0)).valid


def test_bordered_psd_iff_grid_nonnegative():
    # both directions, on random instances of n <= 3
    rng = SplitMix64(2024)
    psd_count = 0
    for _ in range(40):
        n = 1 + int(rng.randint(3))
        q = random_quadratic(rng, n)
        psd = _psd(q)
        grid_ok = _grid_min(q) >= -1e-6
        if psd:
            psd_count += 1
            assert grid_ok, "PSD bordered matrix but grid found a violation"
        if not grid_ok:
            assert not psd
    # make sure the PSD branch is exercised too
    rng2 = SplitMix64(99)
    for _ in range(10):
        n = 1 + int(rng2.randint(3))
        vals = rng2.uniforms((n + 1) * (n + 1), -1.0, 1.0)
        L = np.array(vals).reshape(n + 1, n + 1)
        G = L @ L.T
        q = QuadraticFunction(G[:n, :n], G[:n, n], G[n, n] / 2.0)
        assert _psd(q)
        assert _grid_min(q) >= -1e-6


def test_quadratic_matches_parsed_expression():
    rng = SplitMix64(4321)
    for _ in range(10):
        n = 1 + int(rng.randint(3))
        q = random_quadratic(rng, n)
        e = parse(quadratic_to_source(q), n)
        for _ in range(20):
            x = list(rng.uniforms(n, -5.0, 5.0))
            qv = evaluate_quadratic(q, x)
            ev = evaluate(e, x)
            assert abs(qv - ev) <= 1e-10 * (1.0 + abs(qv))


def test_batch_matches_scalar_evaluation():
    rng = SplitMix64(8)
    q = random_quadratic(rng, 3)
    X = rng.uniform_box(4.0, 3, 30)
    batch = QuadraticStack([q]).evaluate(X)[0][:, 0]
    for i in range(30):
        assert batch[i] == evaluate_quadratic(q, X[i])
        assert batch[i] == pytest.approx(quadratic_values(q, X[i:i + 1])[0],
                                         abs=1e-12)


class _EinsumStack:
    """QuadraticStack as it was before the points-last values, verbatim:
    two two-operand einsums over (m, k, n) arrays.  The reference for the
    stacked kernel's bits."""

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


def _bits(a):
    a = np.asarray(a, dtype=float)
    return a.shape, np.ascontiguousarray(a).view(np.uint64).tolist()


def _signed_zeros(rng, a, share=0.25):
    """a with about `share` of its entries set to +0 and as many to -0."""
    a = np.array(a, dtype=float)
    a[rng.random(a.shape) < share] = 0.0
    a[rng.random(a.shape) < share] = -0.0
    return a


def _reference_functions(rng, n, k):
    """k quadratics over R^n with +-0 entries; f_1 has c >= 0 (+-0
    included) and d = -0, so a point of -0s makes each of its products -0
    and its dot -0 before d: the sum einsum starts from +0 reads +0."""
    functions = []
    for i in range(k):
        A = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-2, 3)
        Q = _signed_zeros(rng, np.triu(A))
        Q = np.triu(Q) + np.triu(Q, 1).T
        c = _signed_zeros(rng, rng.standard_normal(n))
        d = float(rng.standard_normal()) if i > 1 else (-0.0, 0.0)[i]
        if i == 0:
            c = np.where(np.signbit(c), -0.0, np.abs(c))
        functions.append(QuadraticFunction(Q, c, d))
    return functions


def _reference_points(rng, n, m):
    """m rows: all -0, all +0, two rows whose products overflow to +-inf
    and sum to nan, then random rows with +-0 entries."""
    rows = [np.full(n, -0.0), np.zeros(n), np.full(n, 1e200),
            np.resize([1e160, -3e160], n)]
    rest = _signed_zeros(rng, rng.standard_normal((max(m - 4, 0), n))
                         * 10.0 ** rng.integers(-3, 4, size=(1, n)))
    return np.vstack(rows + [rest])[:m]


@pytest.mark.parametrize("n", range(1, 14))
def test_stack_matches_the_einsum_form_bit_for_bit(n):
    rng = np.random.default_rng(1000 + n)
    overflowed = 0
    for k in range(1, 6):
        functions = _reference_functions(rng, n, k)
        stack, reference = QuadraticStack(functions), _EinsumStack(functions)
        for m in (0, 1, 2, 3, 17, 4096):
            X = _reference_points(rng, n, m)
            with np.errstate(over="ignore", invalid="ignore"):
                want, want_grads = reference.evaluate(X, gradients=True)
                assert _bits(reference.evaluate(X)[0]) == _bits(want)
                vals, none = stack.evaluate(X)
                both, grads = stack.evaluate(X, gradients=True)
            assert none is None
            assert _bits(vals) == _bits(want), (n, k, m)
            assert _bits(both) == _bits(want), (n, k, m)
            assert _bits(grads) == _bits(want_grads), (n, k, m)
            overflowed += int(np.sum(~np.isfinite(want)))
        # row 0 (all -0) in f_1: the +0 einsum adds before d = -0
        assert _bits(vals[0, 0]) == _bits(0.0)
    assert overflowed


@pytest.mark.parametrize("n", [1, 2, 3, 8, 9, 13])
def test_system_values_agree_bit_for_bit(n):
    # values_batch (points last), values_and_gradients (points first), a
    # single point's values and each function's __call__ read one set of
    # bits
    rng = np.random.default_rng(2000 + n)
    functions = _reference_functions(rng, n, 4)
    system = FunctionSystem(n, functions[0], functions[1:])
    X = _reference_points(rng, n, 40)[4:]        # the finite rows
    batch = system.values_batch(X)
    assert _bits(system.values_and_gradients(X)[0]) == _bits(batch)
    assert _bits(system.values_and_gradients(X, first=2)[0]) == \
        _bits(batch[:, 2:])
    for x, row in zip(X, batch):
        assert _bits(system.values(x)) == _bits(row)
        assert _bits([f(x) for f in functions]) == _bits(row)
