from itertools import chain

import numpy as np
import pytest

from conftest import random_quadratic
from slemma.errors import DimensionMismatch
from slemma.expr import evaluate, parse
from slemma.quadratic import (QuadraticFunction, bordered_matrix, eigen_sym,
                              evaluate_quadratic, evaluate_quadratic_batch,
                              is_psd, min_eigenvalue)
from slemma.rng import SplitMix64
from slemma.systems import quadratic_to_source


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


def test_asymmetric_q_rejected():
    Q = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(DimensionMismatch):
        QuadraticFunction(Q, np.zeros(2), 0.0)


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
    # 120 random sizes in 1..10, then larger sizes up to the 64x64 limit
    sizes = chain((int(rng.integers(1, 11)) for _ in range(120)),
                  (13, 32, 64))
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


def _grid_min(q, radius=10.0, points=41):
    axes = [np.linspace(-radius, radius, points)] * q.n
    mesh = np.meshgrid(*axes, indexing="ij")
    X = np.stack([m.ravel() for m in mesh], axis=1)
    return float(np.min(evaluate_quadratic_batch(q, X)))


def test_bordered_psd_iff_grid_nonnegative():
    # both directions, on random instances of n <= 3
    rng = SplitMix64(2024)
    psd_count = 0
    for _ in range(40):
        n = 1 + int(rng.randint(3))
        q = random_quadratic(rng, n)
        psd = is_psd(bordered_matrix(q))
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
        assert is_psd(bordered_matrix(q))
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
    batch = evaluate_quadratic_batch(q, X)
    for i in range(30):
        assert batch[i] == pytest.approx(evaluate_quadratic(q, X[i]), abs=1e-12)
