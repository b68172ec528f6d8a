import numpy as np
import pytest

from slemma.errors import DimensionMismatch
from slemma.farkas import (AFFINE, ALTERNATIVE, HOMOGENEOUS, INCONSISTENT,
                           MULTIPLIERS, FarkasResult, make_linear_system,
                           solve, verify_farkas)
from slemma.implication import INVALID, VALID, ClassifyConfig, classify_instance
from slemma.linprog import OPTIMAL, LinearProgram, solve_lp
from slemma.quadratic import QuadraticFunction
from slemma.rng import SplitMix64
from slemma.systems import FunctionSystem


def test_homogeneous_decomposition():
    data = make_linear_system([2.0, 3.0], 0.0,
                              [[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0])
    assert data.mode == HOMOGENEOUS
    res = solve(data)
    assert res.kind == MULTIPLIERS
    assert np.allclose(res.alpha, [2.0, 3.0], atol=1e-8)
    assert verify_farkas(data, res)["ok"]


def test_homogeneous_zero_objective():
    data = make_linear_system([0.0, 0.0], 0.0, [[1.0, 0.0]], [0.0])
    res = solve(data)
    assert res.kind == MULTIPLIERS
    assert np.allclose(res.alpha, [0.0])


def test_homogeneous_alternative_scaled():
    data = make_linear_system([-1.0, 0.0], 0.0, [[1.0, 0.0]], [0.0])
    res = solve(data)
    assert res.kind == ALTERNATIVE
    # normalized: the violated inequality has slack exactly 1
    assert float(np.dot([-1.0, 0.0], res.x)) == pytest.approx(-1.0)
    assert float(np.dot([1.0, 0.0], res.x)) >= -1e-9
    assert verify_farkas(data, res)["ok"]


def test_affine_identical_rows():
    data = make_linear_system([1.0], 1.0, [[1.0]], [1.0])
    res = solve(data)
    assert res.kind == MULTIPLIERS
    assert np.allclose(res.alpha, [1.0], atol=1e-9)


def test_affine_alternative():
    data = make_linear_system([1.0], 1.0, [[1.0]], [0.0])
    res = solve(data)
    assert res.kind == ALTERNATIVE
    x = float(res.x[0])
    assert x >= -1e-9            # satisfies x >= 0
    assert x < 1.0               # violates x >= 1
    assert verify_farkas(data, res)["ok"]


def test_affine_exact_decomposition():
    data = make_linear_system([1.0, 1.0], 0.0,
                              [[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0],
                              mode=AFFINE)
    res = solve(data)
    assert res.kind == MULTIPLIERS
    assert np.allclose(res.alpha, [1.0, 1.0], atol=1e-8)


def test_affine_unbounded_objective_gives_alternative():
    # feasible half-space, objective unbounded below on it
    data = make_linear_system([-1.0], 0.0, [[1.0]], [1.0], mode=AFFINE)
    res = solve(data)
    assert res.kind == ALTERNATIVE
    assert verify_farkas(data, res)["ok"]


def test_inconsistent_without_multipliers_is_flagged():
    data = make_linear_system([0.0, 1.0], 0.0,
                              [[1.0, 0.0], [-1.0, 0.0]], [1.0, 0.0],
                              mode=AFFINE)
    res = solve(data)
    assert res.kind == INCONSISTENT
    assert not res.system_consistent


def test_inconsistent_with_multipliers_keeps_flag():
    data = make_linear_system([1.0, 0.0], 5.0,
                              [[1.0, 0.0], [-1.0, 0.0]], [1.0, 0.0],
                              mode=AFFINE)
    res = solve(data)
    assert res.kind == MULTIPLIERS
    assert not res.system_consistent
    assert verify_farkas(data, res)["ok"]


def test_homogeneous_mode_enforced():
    with pytest.raises(DimensionMismatch):
        make_linear_system([1.0], 0.5, [[1.0]], [0.0], mode=HOMOGENEOUS)


def _random_affine_instance(rng):
    n = 2 + int(rng.randint(4))       # 2..5
    p = 1 + int(rng.randint(min(4, n)))
    A = np.array(rng.uniforms(p * n, -1.0, 1.0)).reshape(p, n)
    b = np.array(rng.uniforms(p, -1.0, 1.0))
    if rng.randint(2) == 0:
        alpha = np.array(rng.uniforms(p, 0.2, 2.0))
        a0 = A.T @ alpha
        b0 = float(alpha @ b) - float(rng.uniforms(1, 0.0, 1.0)[0])
    else:
        a0 = np.array(rng.uniforms(n, -1.0, 1.0))
        b0 = float(rng.uniforms(1, -1.0, 1.0)[0])
    return make_linear_system(a0, b0, A, b, mode=AFFINE)


def test_branches_reverify_on_random_instances():
    rng = SplitMix64(1618)
    kinds = {MULTIPLIERS: 0, ALTERNATIVE: 0}
    for _ in range(60):
        data = _random_affine_instance(rng)
        res = solve(data)
        assert res.kind in kinds
        kinds[res.kind] += 1
        assert verify_farkas(data, res)["ok"]
    assert kinds[MULTIPLIERS] > 5 and kinds[ALTERNATIVE] > 5


def _as_system(data):
    n = data.n
    f0 = QuadraticFunction(np.zeros((n, n)), data.a0, -data.b0)
    cons = tuple(QuadraticFunction(np.zeros((n, n)), data.a[i], -data.b[i])
                 for i in range(data.p))
    return FunctionSystem(n, f0, cons)


def test_agreement_with_classifier_on_q0_encoding():
    rng = SplitMix64(2718)
    for i in range(25):
        data = _random_affine_instance(rng)
        res = solve(data)
        rep = classify_instance(_as_system(data),
                                ClassifyConfig(seed=i, samples=1024))
        if res.kind == MULTIPLIERS:
            assert rep.verdict == VALID, i
            assert np.max(np.abs(rep.certificate.alpha - res.alpha)) <= 1e-6
        else:
            assert rep.verdict == INVALID, i


def farkas_homogeneous(data):
    """Multipliers alpha with a0 = sum alpha_i a_i, or an alternative x
    with a_i . x >= 0 for all i and <a0, x> <= -1.

    The homogeneous lemma as it stood on its own, kept as the reference
    for `solve` (its LP and dual helpers written out)."""
    if data.mode != HOMOGENEOUS:
        raise DimensionMismatch("farkas_homogeneous needs Homogeneous data")
    out = solve_lp(LinearProgram(c=data.a0, a_ub=-data.a, b_ub=-data.b,
                                 free=range(data.n)))
    if out.status == OPTIMAL:
        # value is 0 at x = 0; duals certify a0 in the cone of the a_i
        return FarkasResult(kind=MULTIPLIERS,
                            alpha=np.maximum(-out.dual_ub, 0.0))
    # unbounded: the ray d has a . d >= 0 and <a0, d> < 0; rescale so the
    # violated inequality has slack exactly 1
    ray = out.ray
    slope = float(data.a0 @ ray)
    x = ray / (-slope)
    return FarkasResult(kind=ALTERNATIVE, x=x)


def test_solve_matches_the_homogeneous_reference():
    rng = SplitMix64(4242)
    kinds = {MULTIPLIERS: 0, ALTERNATIVE: 0}
    for _ in range(120):
        n = 2 + int(rng.randint(4))
        p = 1 + int(rng.randint(4))
        A = np.array(rng.uniforms(p * n, -1.0, 1.0)).reshape(p, n)
        if rng.randint(2) == 0:
            a0 = A.T @ np.array(rng.uniforms(p, 0.0, 2.0))
        else:
            a0 = np.array(rng.uniforms(n, -1.0, 1.0))
        data = make_linear_system(a0, 0.0, A, np.zeros(p))
        assert data.mode == HOMOGENEOUS
        want, res = farkas_homogeneous(data), solve(data)
        assert res.kind == want.kind
        if want.kind == MULTIPLIERS:
            assert res.alpha.tobytes() == want.alpha.tobytes()
        else:
            assert res.x.tobytes() == want.x.tobytes()
        assert verify_farkas(data, res)["ok"]
        kinds[res.kind] += 1
    assert kinds[MULTIPLIERS] > 10 and kinds[ALTERNATIVE] > 10
