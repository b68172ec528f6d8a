import io
from pathlib import Path

import numpy as np
import pytest

import slemma
from conftest import (EXPRESSION_TERMS, conical_preimage,
                      former_hull_intersects_k, p1_image, random_quadratic)
from slemma import geometry as geo
from slemma import report, search
from slemma.expr import parse
from slemma.problem import load_problem
from slemma.quadratic import QuadraticFunction
from slemma.rng import SplitMix64, derive_seed
from slemma.systems import FunctionSystem, quadratic_to_source

CORPUS = Path(slemma.__file__).parent / "corpus"


def _cloud_from_points(points, sources=None, n=None):
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if sources is None:
        n = n or points.shape[1]
        sources = np.zeros((points.shape[0], n))
    return geo.ImageCloud(points=points, sources=np.asarray(sources, float),
                          box_radius=1.0, seed=0)


def test_sample_image_example3_parabola_bound(example3):
    cloud = geo.sample_image(example3, 10.0, 1000, 1)
    u = cloud.points[:, 0]
    v = -cloud.points[:, 1]          # q1 value
    assert np.min(u + 2.0 * v * v) >= -1e-9
    # points re-derive from sources
    z = example3.image_batch(cloud.sources)
    assert np.max(np.abs(z - cloud.points)) <= 1e-10 * (1 + np.max(np.abs(z)))


def test_sample_image_constant_system():
    one = QuadraticFunction([[0.0]], [0.0], 1.0)
    system = FunctionSystem(1, one, ())
    cloud = geo.sample_image(system, 5.0, 64, 3)
    assert np.allclose(cloud.points, 1.0)


def test_sample_image_mean_of_coordinate():
    f0 = QuadraticFunction([[0.0]], [1.0], 0.0)
    system = FunctionSystem(1, f0, ())
    cloud = geo.sample_image(system, 1.0, 10000, 9)
    assert abs(float(np.mean(cloud.points[:, 0]))) < 0.1


def test_sample_image_skips_domain_failures():
    system = FunctionSystem(1, parse("log(x1)", 1), ())
    with pytest.raises(Exception):
        # half the box is out of domain: abort
        geo.sample_image(system, 10.0, 200, 5)


def test_cone_membership_examples():
    assert geo.cone_k_member([-1.0, 0.0, 0.0], 0.0)
    assert not geo.cone_k_member([0.0, -1.0], 0.0)
    assert geo.cone_k_member([-1.0, -1.0], 0.0)
    assert not geo.cone_k_member([-1.0, 0.1], 0.0)


def test_cone_membership_example3_witness(example3):
    z = example3.image_point(np.array([0.0, 1.0]))
    assert z.tolist() == [-1.0, -1.0]
    assert geo.cone_k_member(z, 0.0)


def test_cone_scale_invariance(example3):
    cloud = geo.sample_image(example3, 10.0, 200, 4)
    for z in cloud.points[:50]:
        base = geo.cone_k_member(z, 0.0)
        for s in (1e-3, 1.0, 1e3):
            assert geo.cone_k_member(s * z, 0.0) == base


def test_cloud_membership_matches_source_signs(example3):
    # Theorem-2-style sample-level equivalence, exact by construction
    cloud = geo.sample_image(example3, 10.0, 500, 8)
    members = set(geo.cloud_k_members(cloud).tolist())
    for j in range(cloud.size):
        vals = example3.values(cloud.sources[j])
        expected = vals[0] < 0.0 and np.all(vals[1:] >= 0.0)
        assert (j in members) == expected


def _pareto_oracle(Z):
    """Brute force: i stays unless some j != i has Z[j] <= Z[i] and either
    differs from Z[i] somewhere or comes first (ties keep the lowest index)."""
    le = np.all(Z[:, None, :] <= Z[None, :, :], axis=2)    # [j, i]
    differs = np.any(Z[:, None, :] != Z[None, :, :], axis=2)
    earlier = np.arange(len(Z))[:, None] < np.arange(len(Z))[None, :]
    return np.flatnonzero(~np.any(le & (differs | earlier), axis=0))


@pytest.mark.parametrize("p", [1, 2, 3])
def test_pareto_frontier_matches_brute_force(p):
    rng = np.random.default_rng(40 + p)
    for trial in range(40):
        n_points = int(rng.integers(1, 200))
        if trial % 2:
            Z = rng.integers(-3, 4, (n_points, p + 1)).astype(float)
        else:
            Z = rng.uniform(-1.0, 1.0, (n_points, p + 1))
        got = geo._pareto_minimal(Z)
        assert got.tolist() == _pareto_oracle(Z).tolist(), trial
    # equal float sums, the second point strictly below the first
    tied = np.array([[1.0, 2e-20], [1.0, 1e-20]])
    assert geo._pareto_minimal(tied).tolist() == [1]
    assert _pareto_oracle(tied).tolist() == [1]


def _pareto_minimal_loop(Z):
    """The frontier filter one point at a time, in its (sum, coordinates,
    index) order."""
    order = np.lexsort((*Z.T[::-1], np.sum(Z, axis=1)))
    kept = []
    for idx in order:
        if not np.any(np.all(Z[kept] <= Z[idx], axis=1)):
            kept.append(int(idx))
    return np.array(sorted(kept), dtype=int)


def _clouds():
    rng = np.random.default_rng(17)
    yield np.zeros((0, 2))
    for trial in range(240):
        dim = 1 + trial % 5
        count = int(rng.integers(1, 400))
        kind = trial // 5 % 4
        if kind == 0:      # integer grid: ties and duplicates
            Z = rng.integers(-2, 3, (count, dim)).astype(float)
        elif kind == 1:
            Z = rng.uniform(-1.0, 1.0, (count, dim))
        elif kind == 2:    # infinite entries, some sums inf - inf
            Z = rng.integers(-2, 3, (count, dim)).astype(float)
            Z[rng.random((count, dim)) < 0.1] = np.inf
            Z[rng.random((count, dim)) < 0.1] = -np.inf
        else:              # equal float sums from different points
            Z = rng.choice([0.1, 0.2, 0.3, 0.7, -0.0, 0.0], (count, dim))
        yield Z


def test_pareto_frontier_matches_the_point_by_point_loop():
    # crosses the block boundaries of the vectorized filter
    for Z in _clouds():
        with np.errstate(invalid="ignore"):   # sums of inf and -inf
            got, expected = geo._pareto_minimal(Z), _pareto_minimal_loop(Z)
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes(), Z


def _added_points(rng, cloud, count):
    """`count` points made from the cloud's frontier points: one that
    dominates its point, one of equal coordinate sum, a duplicate, and a
    dominated one, in turn from a random start."""
    front = cloud.points[cloud.frontier]
    dim = cloud.p + 1
    added = []
    for kind in (int(rng.integers(4)) + np.arange(count)) % 4:
        z = front[rng.integers(len(front))]
        unit = np.eye(dim)[rng.integers(dim)]
        if kind == 0:
            z = z - rng.integers(0, 2, dim) - unit
        elif kind == 1:
            z = z + unit - np.eye(dim)[rng.integers(dim)]
        elif kind == 3:
            z = z + rng.integers(0, 2, dim) + unit
        added.append(z)
    return np.array(added)


def test_grown_cloud_frontier_equals_a_fresh_filter():
    # the refinement's grown cloud gets its frontier from its parent's and
    # the one to three added points; it equals _pareto_minimal on every
    # point of the grown cloud, through three rounds of growth, on integer
    # grids (ties and duplicates), float points of equal sums and
    # infinite coordinates, with added points that dominate, tie with,
    # duplicate or lie above frontier points
    rng = np.random.default_rng(31)
    grown_frontiers = 0
    for Z in _clouds():
        if not len(Z):
            continue
        cloud = _cloud_from_points(Z, n=1)
        for _ in range(3):
            with np.errstate(invalid="ignore"):   # sums of inf and -inf
                added = _added_points(rng, cloud, int(rng.integers(1, 4)))
                grown = cloud.grown(added, np.zeros((len(added), 1)))
                expected = geo._pareto_minimal(grown.points)
            assert grown.points.tobytes() == np.vstack([cloud.points,
                                                        added]).tobytes()
            assert grown.sources.shape == (grown.size, 1)
            assert grown.frontier.tobytes() == expected.tobytes()
            grown_frontiers += not np.array_equal(
                grown.frontier[:len(cloud.frontier)], cloud.frontier)
            cloud = grown
    assert grown_frontiers > 100


def test_hull_disjoint_positive_cloud():
    res = geo.hull_intersects_k(_cloud_from_points([[1.0, 0.0], [2.0, 1.0]]))
    assert not res.intersects


def test_hull_single_point_in_k():
    res = geo.hull_intersects_k(_cloud_from_points([[-1.0, -1.0]]))
    assert res.intersects
    assert res.weights.tolist() == [1.0]
    assert res.witness.tolist() == [-1.0, -1.0]


def test_hull_segment_meets_k():
    # t* = min over the segment of its largest coordinate: -1 at its
    # midpoint (-1, -1); the former hull LP's optimum was z_0 = -3
    res = geo.hull_intersects_k(_cloud_from_points([[1.0, -2.0], [-3.0, 0.0]]))
    assert res.intersects
    assert res.optimum == pytest.approx(-1.0)
    assert res.witness == pytest.approx([-1.0, -1.0])
    assert geo.cone_k_member(res.witness, 0.0)


def _hull_lines(hull):
    rep = report.Report("hull")
    report.hull_block(rep, hull)
    return rep.render().splitlines()[3:]


def test_hull_meeting_k_only_on_its_face_touches_its_closure():
    # (-1, 0) is a point of K on its face z_1 = 0: the former hull LP
    # said `intersects`, with that point as its witness.  The cloud LP's
    # t* is 0, so the hull touches K's closure, with the separator
    # alpha = (0, 1), delta = 0, and the report never says disjoint
    cloud = _cloud_from_points([[-1.0, 0.0], [1.0, 1.0]])
    former = former_hull_intersects_k(cloud)
    assert former.intersects and former.witness.tolist() == [-1.0, 0.0]
    hull = geo.hull_intersects_k(cloud)
    assert not hull.intersects and hull.touches
    assert hull.optimum == 0.0
    assert hull.separator.alpha.tolist() == [0.0, 1.0]
    assert hull.separator.delta == 0.0
    assert _hull_lines(hull) == ["  status: touches-closure",
                                 "  optimum: 0.0", "  witness: [-1.0, 0.0]"]


@pytest.mark.parametrize("points, tol, lines", [
    ([[-1.0, -1.0]], 1e-9,
     ["  status: intersects", "  optimum: -1.0", "  witness: [-1.0, -1.0]"]),
    ([[-1.0, -1e-10]], 1e-9,
     ["  status: touches-closure", "  optimum: -1e-10",
      "  witness: [-1.0, -1e-10]"]),
    ([[-1.0, 1e-10]], 1e-9,
     ["  status: touches-closure", "  optimum: 1e-10",
      "  witness: [-1.0, 1e-10]"]),
    ([[-1.0, 1e-10]], 1e-11, ["  status: sampled-disjoint"])])
def test_hull_status_reads_t_star_against_tol(points, tol, lines):
    # intersects below -tol, touches within tol, disjoint above tol
    hull = geo.hull_intersects_k(_cloud_from_points(points), tol)
    assert _hull_lines(hull) == lines
    assert hull.intersects == (hull.separator is None)


def test_a_cloud_with_a_point_in_k_never_reads_disjoint():
    # a point of K has every coordinate <= 0, so t* <= 0 on its cloud;
    # with coordinates of 0 in it, the point may lie on K's face
    rng = np.random.default_rng(5)
    for trial in range(200):
        dim = 2 + trial % 3
        points = rng.integers(-2, 4, (8, dim)).astype(float)
        points[0] = -rng.integers(0, 3, dim)
        points[0, 0] = -1.0
        hull = geo.hull_intersects_k(_cloud_from_points(points))
        assert hull.intersects or hull.touches, points
        assert hull.optimum <= 0.0


def test_separator_two_point_cloud():
    sep = geo.extract_separator(_cloud_from_points([[1.0, 0.0], [1.0, 1.0]]))
    assert sep is not None
    assert sep.delta == pytest.approx(1.0)
    assert np.sum(sep.alpha) == pytest.approx(1.0)
    assert np.all(sep.alpha >= 0)


def test_separator_none_for_k_point():
    assert geo.extract_separator(_cloud_from_points([[-1.0, -1.0]])) is None


def test_no_separator_costs_one_lp(monkeypatch):
    # the hull answer, its witness and the separator's "none" are one LP
    calls = []
    real = geo.solve_lp
    monkeypatch.setattr(geo, "solve_lp",
                        lambda lp: calls.append(lp) or real(lp))
    hull = geo.hull_intersects_k(_cloud_from_points([[-1.0, -1.0]]))
    assert hull.intersects and hull.witness.tolist() == [-1.0, -1.0]
    assert len(calls) == 1
    assert geo.extract_separator(_cloud_from_points([[-1.0, -1.0]])) is None
    assert len(calls) == 2


def test_hull_disjoint_implies_separator(example3):
    # LP duality of the former hull LP and the cloud LP, on clouds that
    # stay out of K (z_0 >= 1) and clouds that reach into it
    rng = SplitMix64(17)
    answers = set()
    for trial in range(10):
        shift = 4.0 if trial % 2 else 2.0
        pts = rng.uniform_box(3.0, 3, 40) + np.array([shift, 0.0, 0.0])
        cloud = _cloud_from_points(pts)
        former = former_hull_intersects_k(cloud, 1e-9)
        hull = geo.hull_intersects_k(cloud, 1e-9)
        assert hull.intersects == former.intersects, trial
        answers.add(hull.intersects)
        if not hull.intersects:
            assert hull.separator.delta >= -1e-9
    assert answers == {False, True}


def test_separator_divides_into_multipliers_on_cloud(example3):
    # Eq.(8)-style consistency: alpha with alpha_0 > 0 bounds the combined
    # function below by delta/alpha_0 on the sampled points
    conv = FunctionSystem(
        2,
        QuadraticFunction(2 * np.eye(2), np.zeros(2), 0.5),
        (QuadraticFunction(-2 * np.eye(2), np.zeros(2), 1.0),),
    )
    cloud = geo.sample_image(conv, 5.0, 300, 21)
    sep = geo.extract_separator(cloud, 1e-9)
    assert sep is not None
    alpha_full = sep.alpha
    assert alpha_full[0] >= 1e-8
    alpha = alpha_full[1:] / alpha_full[0]
    combined = cloud.points @ np.concatenate([[1.0], alpha])
    assert np.min(combined) >= sep.delta / alpha_full[0] - 1e-7


def test_epi_member_trivial_cases(example3):
    # a sampled image point is inside its own upper set
    cloud = geo.sample_image(example3, 10.0, 50, 2)
    res = geo.epi_member(example3, cloud.points[0], budget=8, seed=3)
    assert res.member
    # no x has x^2 <= -1
    sq = FunctionSystem(1, QuadraticFunction([[2.0]], [0.0], 0.0), ())
    res = geo.epi_member(sq, np.array([-1.0]), budget=8, seed=3)
    assert not res.member
    assert res.margin >= 0.9


def test_epi_member_example3_far_target(example3):
    res = geo.epi_member(example3, np.array([-100.0, -100.0]), budget=24,
                         seed=5)
    assert res.member
    z = example3.image_point(res.x)
    assert np.all(z <= np.array([-100.0, -100.0]) + 1e-7)


def test_falsify_identity_finds_example3_violation(example3):
    cloud = geo.sample_image(example3, 10.0, 4096, 1)
    oracle = geo.identity_membership_oracle(example3, cloud, budget=16, seed=7)
    res = geo.falsify_convexity(oracle, cloud, trials=2000, seed=99, eta=1e-3,
                                system=example3)
    assert res.found
    v = res.violation
    assert v.margin > 1e-3
    # the combination is recomputable
    assert np.allclose(v.m, v.t * v.z1 + (1 - v.t) * v.z2)


def test_falsify_epi_finds_nothing_on_example3(example3):
    cloud = geo.sample_image(example3, 10.0, 2048, 1)
    oracle = geo.epi_membership_oracle(example3, cloud, budget=16, seed=8)
    res = geo.falsify_convexity(oracle, cloud, trials=500, seed=100, eta=1e-3,
                                system=example3)
    assert not res.found
    assert res.trials_run == 500


def test_falsify_line_image_is_convex():
    line = FunctionSystem(1, QuadraticFunction([[0.0]], [1.0], 0.0), ())
    cloud = geo.sample_image(line, 10.0, 256, 12)
    for factory in (geo.identity_membership_oracle, geo.epi_membership_oracle):
        oracle = factory(line, cloud, budget=8, seed=1)
        res = geo.falsify_convexity(oracle, cloud, trials=60, seed=2, eta=1e-3,
                                    system=line)
        assert not res.found


def test_falsify_rejects_corrupted_cloud(example3):
    cloud = geo.sample_image(example3, 10.0, 64, 3)
    bad = geo.ImageCloud(points=cloud.points + 1.0, sources=cloud.sources,
                         box_radius=cloud.box_radius, seed=cloud.seed)

    def always_rejecting(M):
        return geo.MembershipAnswers(np.zeros(len(M), dtype=bool),
                                     np.ones(len(M)), np.zeros((len(M), 2)))

    with pytest.raises(AssertionError):
        geo.falsify_convexity(always_rejecting, bad, trials=10, seed=4,
                              eta=1e-3, system=example3)


def _same_result(a, b):
    """Same verdict, and the same bytes in x and margin."""
    def raw(v):
        return None if v is None else np.asarray(v, dtype=float).tobytes()

    return (a.member == b.member and raw(a.margin) == raw(b.margin)
            and raw(a.x) == raw(b.x))


def test_grouped_descend_equals_one_descend_per_group(example3):
    targets = np.array([[-1.0, 0.5], [3.0, -2.0], [0.2, 0.1]])
    sizes = [5, 1, 7]
    X0 = SplitMix64(31).uniform_box(4.0, 2, sum(sizes))
    groups = np.repeat(np.arange(3), sizes)

    def loss(X, g):
        vals, grads = example3.values_and_gradients(X)
        vals[:, 1:] *= -1.0
        grads[:, 1:] *= -1.0
        H = vals - targets[g]
        return (np.sum(H * H, axis=1),
                2.0 * np.einsum("ij,ijk->ik", H, grads))

    for radius in (None, 1.5):
        X, vals = search.descend(loss, X0, steps=40, box_radius=radius,
                                 groups=groups)
        lo = 0
        for j, size in enumerate(sizes):
            solo = search.descend(
                lambda Y, j=j: loss(Y, np.full(len(Y), j)),
                X0[groups == j], steps=40, box_radius=radius)
            assert X[lo:lo + size].tobytes() == solo[0].tobytes()
            assert vals[lo:lo + size].tobytes() == solo[1].tobytes()
            lo += size


@pytest.mark.parametrize("factory", [geo.epi_membership_oracle,
                                     geo.identity_membership_oracle,
                                     geo.conical_membership_oracle])
def test_stacked_oracle_equals_calls_one_at_a_time(example3, factory):
    cloud = geo.sample_image(example3, 10.0, 128, 21)
    # cloud points (epi fast path), points just off them, far targets
    M = np.vstack([cloud.points[:2], cloud.points[2:4] + 0.3,
                   [[-50.0, -3.0], [2.0, 40.0], [-0.5, 0.0]]])
    stacked = factory(example3, cloud, budget=6, seed=4)
    single = factory(example3, cloud, budget=6, seed=4)
    answers = [*stacked(M[:3]), *stacked(M[3:]), stacked(M[0])]
    expected = [single(m) for m in M] + [single(M[0])]
    assert len(answers) == len(expected) == 8
    assert all(_same_result(a, b) for a, b in zip(answers, expected))
    # a stack that spans more than one shortfall chunk
    k = geo._ORACLE_CHUNK + 5
    big = cloud.points[:k] + np.where(np.arange(k) % 2, 0.3, 0.0)[:, None]
    answers = stacked(big)
    expected = [single(m) for m in big]
    assert len(answers) == k
    assert all(_same_result(a, b) for a, b in zip(answers, expected))


def test_conical_oracle_answers_any_scale_with_one_search(monkeypatch):
    # F is the parabola {(v^2 + 1, v)}, so R_+ F is {(a, b) : |b| <= a/2}:
    # s (v^2 + 1, v) is a member at any scale s, here one between the
    # points of a log grid, and each target takes one search and one seed
    line = FunctionSystem(1, QuadraticFunction([[2.0]], [0.0], 1.0),
                          (QuadraticFunction([[0.0]], [-1.0], 0.0),))
    cloud = geo.sample_image(line, 10.0, 64, 5)
    s = 10.0 ** 0.125
    targets = np.array([s * np.array([1.49, 0.7]),
                        [-1.0, 0.0],
                        s * np.array([1.36, -0.6]),
                        [2.0, 5.0]])
    seeds = []
    real_search = geo._member_search

    def spy(system, M, budget, stack_seeds, mode, starts=None):
        seeds.append(list(stack_seeds))
        return real_search(system, M, budget, stack_seeds, mode, starts)

    monkeypatch.setattr(geo, "_member_search", spy)
    oracle = geo.conical_membership_oracle(line, cloud, budget=6, seed=3)
    results = [oracle(m) for m in targets]
    assert seeds == [[derive_seed(3, c)] for c in range(1, 5)]
    assert [res.member for res in results] == [True, False, True, False]
    for m, res in zip(targets, results):
        if res.member:
            # x is w = sqrt(scale) (v, 1) in R^2
            (v, tau), scale = res.x, res.x[1] ** 2
            image = scale * np.array([(v / tau) ** 2 + 1.0, v / tau])
            assert np.max(np.abs(image - m)) <= 2.0 * geo.MEMBER_TOL
    # every point of the cone is at least 1 and 8/3 from these two
    assert results[1].margin >= 1.0 and results[3].margin >= 8.0 / 3.0


def test_conical_oracle_descends_through_a_gradient_past_1e154():
    # an expression's perspective grows like 1/t near t = 0, and on this
    # system the descent of the 14th chord point meets a gradient whose
    # square passes the largest double: its norm reads +inf and the row
    # takes a zero step, as a non-finite value already does
    rng = SplitMix64(0)
    f0, f1, f2 = (parse(quadratic_to_source(random_quadratic(rng, 2))
                        + EXPRESSION_TERMS[i].format(n=2), 2)
                  for i in range(3))
    system = FunctionSystem(2, f0, (f1, f2))
    cloud = geo.sample_image(system, 6.0, 512, derive_seed(1, 9))
    trial_of, j1, j2, t_idx = geo._chord_draws(cloud.size, 14,
                                               derive_seed(1, 8))
    t = np.array(geo._CHORD_TS)[t_idx][:, None]
    M = t * cloud.points[j1] + (1.0 - t) * cloud.points[j2]
    assert len(M) == 14
    oracle = geo.conical_membership_oracle(system, cloud, budget=16,
                                           seed=derive_seed(1, 7))
    for m, res in zip(M, oracle(M), strict=True):
        assert np.isfinite(res.margin)
        if res.member:
            y, tau = res.x[:2], res.x[2]
            z = system.image_point(y / tau)
            assert np.max(np.abs(tau * tau * z - m)) <= 2.0 * geo.MEMBER_TOL


class _RecordingOracle:
    """Rejects the targets `rejects` picks, recording every stack it is
    asked about."""

    def __init__(self, rejects):
        self.rejects = rejects
        self.asked = []

    def answer(self, m):
        bad = bool(self.rejects(m))
        return geo.MembershipResult(member=not bad, x=None,
                                    margin=float(bad))

    def __call__(self, M):
        M = np.asarray(M)
        self.asked.append(M.copy())
        if M.ndim == 1:
            return self.answer(M)
        bad = np.array([bool(self.rejects(m)) for m in M], dtype=bool)
        return geo.MembershipAnswers(~bad, bad.astype(float),
                                     np.zeros((len(M), 2)))


def _falsify_trial_by_trial(oracle, cloud, trials, seed, eta):
    rng = SplitMix64(seed)
    for trial in range(1, trials + 1):
        j1, j2 = rng.randint(cloud.size), rng.randint(cloud.size)
        if j1 == j2:
            continue
        t = geo._CHORD_TS[rng.randint(3)]
        m = t * cloud.points[j1] + (1.0 - t) * cloud.points[j2]
        res = oracle(m)
        if not res.member and res.margin > eta:
            return trial, (j1, j2), t, m
    return trials, None, None, None


@pytest.mark.parametrize("size", [1, 2, 3, 4096])
def test_chord_draws_match_scalar_draws(size):
    for trials in (0, 1, 7, 60):
        rng = SplitMix64(8)
        expected = []
        for trial in range(1, trials + 1):
            j1, j2 = rng.randint(size), rng.randint(size)
            if j1 != j2:
                expected.append((trial, j1, j2, rng.randint(3)))
        draws = geo._chord_draws(size, trials, 8)
        assert list(zip(*(d.tolist() for d in draws))) == expected


@pytest.mark.parametrize("count,limit", [(4096, 2.8), (4096, 9.0),
                                         (3, 0.6), (3, 9.0)])
def test_falsifier_blocks_match_trial_by_trial(count, limit):
    points = SplitMix64(17).uniform_box(3.0, 2, count)
    cloud = _cloud_from_points(points)
    fake = _RecordingOracle(lambda m: m[0] > limit)
    ref = _RecordingOracle(lambda m: m[0] > limit)
    res = geo.falsify_convexity(fake, cloud, trials=60, seed=8, eta=0.5)
    trials_run, indices, t, m = _falsify_trial_by_trial(ref, cloud, 60, 8,
                                                        0.5)
    assert res.trials_run == trials_run
    assert res.found == (indices is not None)
    if res.found:
        v = res.violation
        assert v.indices == indices and v.t == t
        assert v.m.tobytes() == m.tobytes()
    asked = np.vstack(fake.asked)
    assert asked[:len(ref.asked)].tobytes() == np.array(ref.asked).tobytes()
    assert all(stack.ndim == 2 for stack in fake.asked)
    sizes = [len(stack) for stack in fake.asked]
    if count > 3:   # no j1 == j2 skip: the blocks are 1, 2, 4, ... trials
        assert sizes[:-1] == [2 ** i for i in range(len(sizes) - 1)]
        assert sum(sizes) == (60 if indices is None else len(asked))


def test_falsifier_reports_first_violation_of_a_block():
    cloud = _cloud_from_points(SplitMix64(17).uniform_box(3.0, 2, 4096))
    accepting = _RecordingOracle(lambda m: False)
    geo.falsify_convexity(accepting, cloud, trials=60, seed=8, eta=0.5)
    targets = np.vstack(accepting.asked)
    # trials 10 and 13 both violate; both lie in the block of trials 8-15
    bad = {targets[9].tobytes(), targets[12].tobytes()}
    fake = _RecordingOracle(lambda m: m.tobytes() in bad)
    res = geo.falsify_convexity(fake, cloud, trials=60, seed=8, eta=0.5)
    assert [len(stack) for stack in fake.asked] == [1, 2, 4, 8]
    assert res.trials_run == 10
    assert res.violation.m.tobytes() == targets[9].tobytes()


@pytest.mark.parametrize("k", [31, 32, 33, 65])
def test_epi_fast_path_matches_a_per_target_loop(example3, monkeypatch, k):
    # stacks around the shortfall chunk of 32: each target below or above
    # a cloud point, most of the lower ones left to the member search.
    # The stack's answer arrays and the per-target results built from
    # them both match the loop; the searched targets' answers, every
    # third a member, land in their own rows
    cloud = geo.sample_image(example3, 10.0, 256, 12)
    rng = SplitMix64(k)
    picks = (rng.u64s(k) % np.uint64(cloud.size)).astype(int)
    M = cloud.points[picks] + rng.uniforms(2 * k, -10.0, 1.0).reshape(k, 2)
    searched = []

    def searched_answers(count):
        member = np.arange(count) % 3 == 0
        return geo.MembershipAnswers(member, np.where(member, 0.0, 1.0 + count),
                                     np.arange(2.0 * count).reshape(count, 2))

    def fake_search(system, M, budget, seeds, mode, starts=None):
        searched.append((M.copy(), list(seeds), starts.copy()))
        return searched_answers(len(M))

    monkeypatch.setattr(geo, "_member_search", fake_search)
    oracle = geo.epi_membership_oracle(example3, cloud, budget=6, seed=4)
    answers = oracle(M)
    assert isinstance(answers, geo.MembershipAnswers)
    member, margin, x = np.zeros(k, dtype=bool), np.zeros(k), np.zeros((k, 2))
    slow, nearest = [], []
    for j, m in enumerate(M):
        gaps = np.max(cloud.points - m, axis=1)
        if gaps.min() <= geo.MEMBER_TOL:
            below = np.all(cloud.points <= m + geo.MEMBER_TOL, axis=1)
            member[j], margin[j] = True, max(gaps.min(), 0.0)
            x[j] = cloud.sources[below.argmax()]
        else:
            slow.append(j)
            nearest.append(np.argsort(gaps, kind="stable")[:6])
    assert 0 < len(slow) < k
    found = searched_answers(len(slow))
    member[slow], margin[slow], x[slow] = found.member, found.margin, found.x
    assert answers.member.tolist() == member.tolist()
    assert answers.margin.tobytes() == margin.tobytes()
    assert answers.x[member].tobytes() == x[member].tobytes()
    for j, res in enumerate(answers):
        assert res.member == member[j]
        assert np.float64(res.margin).tobytes() == margin[j].tobytes()
        assert (res.x.tobytes() == x[j].tobytes() if member[j]
                else res.x is None)
    assert len(list(answers)) == k
    ((stack, seeds, starts),) = searched
    assert stack.tobytes() == M[slow].tobytes()
    assert seeds == [derive_seed(4, 1 + j) for j in slow]
    assert starts.tobytes() == cloud.sources[np.array(nearest)].tobytes()


def _fast_path_clouds():
    """(name, cloud) pairs: duplicated points, points of tied coordinate
    sums, sampled images, and clouds of fewer than six points; every
    source distinct, so an x read from the wrong point shows."""
    rng = np.random.default_rng(29)
    steps = rng.integers(-3, 4, 60).astype(float)          # 14 points
    grid = np.column_stack([steps, rng.integers(0, 2, 60) - steps])
    level = rng.integers(-4, 5, 60).astype(float)          # sum 0 or 3
    tied = np.column_stack([level, np.where(np.arange(60) % 2, 3.0, 0.0)
                            - level])
    tied3 = np.column_stack([tied, rng.integers(-1, 2, 60)])
    sampled = geo.sample_image(
        FunctionSystem(2, random_quadratic(SplitMix64(3), 2),
                       (random_quadratic(SplitMix64(4), 2),)), 4.0, 300, 5)
    clouds = [("duplicates", grid), ("tied sums", tied),
              ("tied sums, p = 2", tied3), ("sampled", sampled.points),
              ("five points", grid[:5]), ("one point", grid[:1]),
              ("two equal points", np.vstack([grid[:1], grid[:1]]))]
    for name, points in clouds:
        sources = np.arange(2.0 * len(points)).reshape(-1, 2)
        yield name, geo.ImageCloud(points=points, sources=sources,
                                   box_radius=1.0, seed=0)


def _fast_path_targets(cloud, seed):
    """Each of some cloud points, itself and moved by -2, -1, +1 and +2
    MEMBER_TOL in every coordinate or in one, then chord points and
    targets below the cloud."""
    rng = np.random.default_rng(seed)
    dim = cloud.p + 1
    picks = cloud.points[rng.integers(0, cloud.size, 12)]
    moves = [np.zeros(dim)]
    for tol in (-2.0, -1.0, 1.0, 2.0):
        moves += [np.full(dim, tol * geo.MEMBER_TOL),
                  tol * geo.MEMBER_TOL * np.eye(dim)[rng.integers(dim)]]
    near = (picks[:, None] + np.array(moves)[None]).reshape(-1, dim)
    j1, j2 = rng.integers(0, cloud.size, (2, 20))
    chords = 0.25 * cloud.points[j1] + 0.75 * cloud.points[j2]
    below = cloud.points[rng.integers(0, cloud.size, 8)] - rng.uniform(
        0.0, 2.0, (8, dim))
    return np.vstack([near, chords, below])


@pytest.mark.parametrize("name,cloud", list(_fast_path_clouds()))
def test_epi_frontier_fast_path_matches_the_full_cloud_loop(
        example3, monkeypatch, name, cloud):
    # the oracle reads the least shortfall on the frontier alone; a loop
    # over every cloud point, one target at a time, gives the same member
    # flags, margins and fast members' x, and the same searched targets
    # with the same seeds and six (or all) starts, bit for bit.  The
    # targets go as one stack and then one at a time, so the call count
    # (the seeds) runs on across calls
    M = _fast_path_targets(cloud, len(name))
    k = len(M)
    searched = []

    def fake_search(system, M, budget, seeds, mode, starts=None):
        searched.append((M.copy(), list(seeds), starts.copy()))
        member = np.arange(len(M)) % 2 == 0
        return geo.MembershipAnswers(member, np.where(member, 0.0, 3.0),
                                     np.full((len(M), cloud.n), 7.0))

    monkeypatch.setattr(geo, "_member_search", fake_search)
    oracle = geo.epi_membership_oracle(example3, cloud, budget=6, seed=4)
    answers = oracle(M)
    singles = [oracle(m) for m in M]
    member, margin, x = np.zeros(k, dtype=bool), np.zeros(k), np.zeros((k, 2))
    slow, nearest = [], []
    for j, m in enumerate(M):
        gaps = np.max(cloud.points - m, axis=1)
        if gaps.min() <= geo.MEMBER_TOL:
            below = np.all(cloud.points <= m + geo.MEMBER_TOL, axis=1)
            member[j], margin[j] = True, max(gaps.min(), 0.0)
            x[j] = cloud.sources[below.argmax()]
        else:
            slow.append(j)
            nearest.append(np.argsort(gaps, kind="stable")[:6])
    assert 0 < len(slow) < k
    fast = ~np.isin(np.arange(k), slow)
    assert answers.member[fast].all()
    assert answers.margin[fast].tobytes() == margin[fast].tobytes()
    assert answers.x[fast].tobytes() == x[fast].tobytes()
    for j in np.flatnonzero(fast):
        assert singles[j].member
        assert np.float64(singles[j].margin).tobytes() == margin[j].tobytes()
        assert singles[j].x.tobytes() == x[j].tobytes()
    stack, seeds, starts = searched[0]
    assert stack.tobytes() == M[slow].tobytes()
    assert seeds == [derive_seed(4, 1 + j) for j in slow]
    assert starts.tobytes() == cloud.sources[np.array(nearest)].tobytes()
    assert len(searched) == 1 + len(slow)
    for i, j in enumerate(slow):
        one, one_seeds, one_starts = searched[1 + i]
        assert one.tobytes() == M[j:j + 1].tobytes()
        assert one_seeds == [derive_seed(4, 1 + k + j)]
        assert one_starts.tobytes() == cloud.sources[nearest[i]].tobytes()


def test_conical_oracle_zero_is_member(example3):
    cloud = geo.sample_image(example3, 10.0, 128, 6)
    oracle = geo.conical_membership_oracle(example3, cloud, budget=8, seed=9)
    assert oracle(np.zeros(2)).member


@pytest.mark.parametrize("affine", [False, True])
def test_every_p1_chord_point_is_a_conical_image(affine):
    # Dines (1941), checked without the package: each chord point of two
    # quadratic functions' image, f1 affine or not, is s z(x) with s > 0
    worst = 0.0
    for seed in range(60):
        rng = SplitMix64(seed)
        for n in range(1, 5):
            f0, f1 = random_quadratic(rng, n), random_quadratic(rng, n)
            if affine:
                f1 = QuadraticFunction(np.zeros((n, n)), f1.c, f1.d)
            for _ in range(5):
                u = rng.uniforms(2 * n + 1)
                x1, x2, t = 20.0 * u[:n] - 10.0, 20.0 * u[n:-1] - 10.0, u[-1]
                m = t * p1_image(f0, f1, x1) + (1.0 - t) * p1_image(f0, f1, x2)
                s, x = conical_preimage(f0, f1, x1, x2, t)
                assert s > 0.0
                worst = max(worst, np.max(np.abs(s * p1_image(f0, f1, x) - m))
                            / np.max(np.abs(m)))
    assert worst <= 1e-10


def test_slater_fail_former_conical_violation_is_a_member():
    # the chord point the sampled conical falsifier reported on
    # slater_fail (f0 = x, f1 = -x^2, so z(x) = (x, x^2)) is s z(x) at
    # x = b/a, s = a^2/b: a scale between two of the oracle's grid points
    system = load_problem(CORPUS / "slater_fail.json").system()
    f0, (f1,) = system.f0, system.constraints
    a, b = 3.5227671933257207, 43.37927311737693
    m = np.array([a, b])
    assert np.allclose(a * a / b * p1_image(f0, f1, b / a), m, rtol=1e-14, atol=0)
    # the independent oracle finds it from the reported chord too
    z1 = np.array([6.735729710951521, 45.37005473899506])
    z2 = np.array([-6.1161203595516795, 37.40692825252257])
    assert np.allclose(0.75 * z1 + 0.25 * z2, m, rtol=1e-15, atol=0)
    s, x = conical_preimage(f0, f1, z1[:1], z2[:1], 0.75)
    assert np.allclose(s * p1_image(f0, f1, x), m, rtol=1e-12, atol=0)


def test_conjecture_scan_runs_and_reports():
    scan = geo.conjecture_scan(1, 2, seed=5, budget=8, cloud_size=256,
                               trials=40)
    assert scan.count == 1
    assert len(scan.entries) == 1


def test_triple_with_zero_third_component_stays_convex(example3):
    # the pair upper set Im(q1, q2) + R^2 is convex for any two quadratics;
    # appending q3 = 0 keeps the three-function upper set convex, so the
    # falsifier machinery behind the conjecture scan finds nothing
    q0, q1 = example3.f0, example3.constraints[0]
    zero = QuadraticFunction(np.zeros((2, 2)), np.zeros(2), 0.0)
    triple = FunctionSystem(
        2, q0,
        (QuadraticFunction(-q1.Q, -q1.c, -q1.d),
         QuadraticFunction(-zero.Q, -zero.c, -zero.d)))
    cloud = geo.sample_image(triple, 10.0, 512, 13)
    assert np.allclose(cloud.points[:, 2], 0.0)
    oracle = geo.epi_membership_oracle(triple, cloud, budget=8, seed=14)
    res = geo.falsify_convexity(oracle, cloud, trials=120, seed=15, eta=1e-3,
                                system=triple)
    assert not res.found


def test_conjecture_scan_deterministic():
    a = geo.conjecture_scan(3, 2, seed=7, budget=6, cloud_size=128, trials=30)
    b = geo.conjecture_scan(3, 2, seed=7, budget=6, cloud_size=128, trials=30)
    assert len(a.entries) == len(b.entries) == 3
    for ea, eb in zip(a.entries, b.entries):
        assert ea.seed == eb.seed
        assert (ea.violation is None) == (eb.violation is None)
        if ea.violation is not None:
            assert ea.violation.m.tolist() == eb.violation.m.tolist()
            assert ea.violation.margin == eb.violation.margin


def test_cloud_export_round_trip(example3, tmp_path):
    cloud = geo.sample_image(example3, 10.0, 32, 11)
    path = tmp_path / "cloud.txt"
    geo.export_cloud(cloud, str(path))
    text = path.read_text()
    header = text.splitlines()[0]
    assert header == f"# p=1 n=2 R=10.0 seed=11 N=32 skipped=0"
    loaded = geo.load_cloud(str(path))
    assert np.array_equal(loaded.points, cloud.points)
    assert np.array_equal(loaded.sources, cloud.sources)


def test_cloud_export_keeps_the_skip_count(tmp_path):
    # log(x1 + 5) is undefined for x1 <= -5: a quarter of [-10, 10]
    system = FunctionSystem(1, parse("log(x1 + 5)", 1), (parse("x1", 1),))
    cloud = geo.sample_image(system, 10.0, 64, 5)
    assert cloud.skipped == 25
    path = tmp_path / "cloud.txt"
    geo.export_cloud(cloud, path)
    assert path.read_text().splitlines()[0].endswith(" skipped=25")
    loaded = geo.load_cloud(path)
    assert loaded.skipped == 25
    assert np.array_equal(loaded.points, cloud.points)
    # a header written without the field reads as no skips
    lines = path.read_text().splitlines()
    lines[0] = lines[0].rsplit(" ", 1)[0]
    path.write_text("\n".join(lines) + "\n")
    assert geo.load_cloud(path).skipped == 0


def test_cloud_export_to_a_path_round_trip(example3, tmp_path):
    cloud = geo.sample_image(example3, 10.0, 16, 12)
    path = tmp_path / "cloud.txt"
    geo.export_cloud(cloud, path)
    loaded = geo.load_cloud(path)
    assert np.array_equal(loaded.points, cloud.points)
    assert np.array_equal(loaded.sources, cloud.sources)


def test_export_to_stream(example3):
    cloud = geo.sample_image(example3, 10.0, 4, 11)
    buf = io.StringIO()
    geo.export_cloud(cloud, buf)
    lines = buf.getvalue().strip().splitlines()
    assert len(lines) == 5
    assert len(lines[1].split()) == 4   # p+1 = 2 plus n = 2
