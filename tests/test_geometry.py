import io

import numpy as np
import pytest

from slemma import geometry as geo
from slemma import search
from slemma.expr import parse
from slemma.quadratic import QuadraticFunction
from slemma.rng import SplitMix64, derive_seed
from slemma.systems import FunctionSystem


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


def _pareto_minimal_loop(Z):
    """The frontier filter as it was, one point at a time, kept verbatim."""
    order = np.argsort(np.sum(Z, axis=1), kind="stable")
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


def test_hull_disjoint_positive_cloud():
    res = geo.hull_intersects_k(_cloud_from_points([[1.0, 0.0], [2.0, 1.0]]))
    assert not res.intersects


def test_hull_single_point_in_k():
    res = geo.hull_intersects_k(_cloud_from_points([[-1.0, -1.0]]))
    assert res.intersects
    assert res.weights.tolist() == [1.0]
    assert res.witness.tolist() == [-1.0, -1.0]


def test_hull_segment_meets_k():
    res = geo.hull_intersects_k(_cloud_from_points([[1.0, -2.0], [-3.0, 0.0]]))
    assert res.intersects
    assert res.optimum == pytest.approx(-3.0)
    assert geo.cone_k_member(res.witness, 0.0)


def test_separator_two_point_cloud():
    sep = geo.extract_separator(_cloud_from_points([[1.0, 0.0], [1.0, 1.0]]))
    assert sep is not None
    assert sep.delta == pytest.approx(1.0)
    assert np.sum(sep.alpha) == pytest.approx(1.0)
    assert np.all(sep.alpha >= 0)


def test_separator_none_for_k_point():
    assert geo.extract_separator(_cloud_from_points([[-1.0, -1.0]])) is None


def test_no_separator_costs_one_lp(monkeypatch):
    # the separator question is one LP even when its answer is "none";
    # the hull witness is hull_intersects_k's own question
    calls = []
    real = geo.solve_lp
    monkeypatch.setattr(geo, "solve_lp",
                        lambda lp: calls.append(lp) or real(lp))
    geo.extract_separator(_cloud_from_points([[-1.0, -1.0]]))
    assert len(calls) == 1


def test_hull_disjoint_implies_separator(example3):
    # LP duality of the two programs, on clouds filtered to stay out of K
    rng = SplitMix64(17)
    for trial in range(10):
        pts = rng.uniform_box(3.0, 3, 40) + np.array([4.0, 0.0, 0.0])
        cloud = _cloud_from_points(pts)
        hull = geo.hull_intersects_k(cloud, 1e-9)
        if hull.intersects:
            continue
        sep = geo.extract_separator(cloud, 1e-9)
        assert sep is not None, trial
        assert sep.delta >= -1e-9


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
        return [geo.MembershipResult(member=False, x=None, margin=1.0)
                for _ in M]

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
                                     geo.identity_membership_oracle])
def test_stacked_oracle_equals_calls_one_at_a_time(example3, factory):
    cloud = geo.sample_image(example3, 10.0, 128, 21)
    # cloud points (epi fast path), points just off them, far targets
    M = np.vstack([cloud.points[:2], cloud.points[2:4] + 0.3,
                   [[-50.0, -3.0], [2.0, 40.0], [-0.5, 0.0]]])
    stacked = factory(example3, cloud, budget=6, seed=4)
    single = factory(example3, cloud, budget=6, seed=4)
    answers = stacked(M[:3]) + stacked(M[3:]) + [stacked(M[0])]
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


def test_conical_oracle_equals_scale_by_scale_loop(monkeypatch):
    # F is the parabola {(v^2 + 1, v)}: m = s * (v^2 + 1, v) lies in R_+ F
    # at the grid scale s and, for these v, at no other grid scale
    line = FunctionSystem(1, QuadraticFunction([[2.0]], [0.0], 1.0),
                          (QuadraticFunction([[0.0]], [-1.0], 0.0),))
    cloud = geo.sample_image(line, 10.0, 64, 5)
    scales = geo._CONE_SCALES
    targets = np.array([scales[12] * np.array([1.49, 0.7]),
                        [-1.0, 0.0],
                        np.zeros(2),
                        scales[8] * np.array([1.36, -0.6]),
                        [2.0, 5.0]])
    seeds = []   # the seeds of every member search, in order
    real_search = geo._member_search

    def spy(system, M, budget, stack_seeds, mode, starts=None):
        seeds.append(list(stack_seeds))
        return real_search(system, M, budget, stack_seeds, mode, starts)

    monkeypatch.setattr(geo, "_member_search", spy)
    inner = geo.identity_membership_oracle(line, cloud, budget=6, seed=3)

    def reference(m):
        # every scale of a non-zero target is asked, member or not
        if np.max(np.abs(m)) <= geo.MEMBER_TOL:
            return geo.MembershipResult(member=True, x=None, margin=0.0)
        results = [(inner(m / s), s) for s in scales]
        for res, s in results:
            if res.member:
                return geo.MembershipResult(member=True, x=res.x,
                                            margin=res.margin * s)
        return geo.MembershipResult(
            member=False, x=None,
            margin=float(min(res.margin * s for res, s in results)))

    expected = [reference(m) for m in targets]
    assert [r.member for r in expected] == [True, False, True, True, False]
    reference_seeds = [s for (s,) in seeds]
    assert len(reference_seeds) == 4 * 25
    one_by_one = geo.conical_membership_oracle(line, cloud, budget=6, seed=3)
    stacked = geo.conical_membership_oracle(line, cloud, budget=6, seed=3)
    for ask in (lambda: [one_by_one(m) for m in targets],
                lambda: stacked(targets)):
        seeds.clear()
        assert all(_same_result(a, b) for a, b in zip(ask(), expected))
        # one stack of all 25 scales per non-zero target, carrying the
        # seeds of the scale-by-scale loop
        assert [len(stack) for stack in seeds] == [25] * 4
        assert [s for stack in seeds for s in stack] == reference_seeds


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
        return self.answer(M) if M.ndim == 1 else [self.answer(m) for m in M]


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


def test_conical_falsifier_skips_the_searches_after_a_violation(
        example3, monkeypatch):
    cloud = _cloud_from_points(SplitMix64(17).uniform_box(3.0, 2, 4096))
    accepting = _RecordingOracle(lambda m: False)
    geo.falsify_convexity(accepting, cloud, trials=60, seed=8, eta=0.5)
    targets = np.vstack(accepting.asked)
    # trials 10 and 13 lie in the block of trials 8-15; the recording
    # inner oracle rejects every scale of theirs and accepts the others
    scales = geo._CONE_SCALES[:, None]
    bad = {row.tobytes() for m in targets[[9, 12]] for row in m / scales}
    inners = []

    def recording_inner(system, cloud, budget=24, seed=0):
        inners.append(_RecordingOracle(lambda row: row.tobytes() in bad))
        return inners[-1]

    monkeypatch.setattr(geo, "identity_membership_oracle", recording_inner)
    lazy = geo.conical_membership_oracle(example3, cloud, budget=6, seed=3)
    eager = geo.conical_membership_oracle(example3, cloud, budget=6, seed=3)
    res = geo.falsify_convexity(lazy, cloud, trials=60, seed=8, eta=1e-4)
    ref = geo.falsify_convexity(lambda M: list(eager(M)), cloud, trials=60,
                                seed=8, eta=1e-4)
    # one 25-scale search per target asked: trials 1-10 against 1-15
    searched, all_searched = (len(inner.asked) for inner in inners)
    assert all(len(stack) == 25 for inner in inners for stack in inner.asked)
    assert (searched, all_searched - searched) == (10, 5)
    assert res.trials_run == ref.trials_run == 10
    assert res.violation.m.tobytes() == ref.violation.m.tobytes() \
        == targets[9].tobytes()
    assert res.violation.margin == ref.violation.margin == 1e-3


@pytest.mark.parametrize("k", [31, 32, 33, 65])
def test_epi_fast_path_matches_a_per_target_loop(example3, monkeypatch, k):
    # stacks around the shortfall chunk of 32: each target below or above
    # a cloud point, most of the lower ones left to the member search
    cloud = geo.sample_image(example3, 10.0, 256, 12)
    rng = SplitMix64(k)
    picks = (rng.u64s(k) % np.uint64(cloud.size)).astype(int)
    M = cloud.points[picks] + rng.uniforms(2 * k, -10.0, 1.0).reshape(k, 2)
    searched = []

    def no_member(system, M, budget, seeds, mode, starts=None):
        searched.append((M.copy(), list(seeds), starts.copy()))
        return [geo.MembershipResult(False, None, 1.0) for _ in M]

    monkeypatch.setattr(geo, "_member_search", no_member)
    oracle = geo.epi_membership_oracle(example3, cloud, budget=6, seed=4)
    slow, nearest = [], []
    for j, (m, res) in enumerate(zip(M, oracle(M), strict=True)):
        gaps = np.max(cloud.points - m, axis=1)
        if gaps.min() <= geo.MEMBER_TOL:
            below = np.all(cloud.points <= m + geo.MEMBER_TOL, axis=1)
            assert res.member
            assert res.x.tobytes() == cloud.sources[below.argmax()].tobytes()
            assert res.margin == max(gaps.min(), 0.0)
        else:
            assert not res.member
            slow.append(j)
            nearest.append(np.argsort(gaps, kind="stable")[:6])
    assert 0 < len(slow) < k
    ((stack, seeds, starts),) = searched
    assert stack.tobytes() == M[slow].tobytes()
    assert seeds == [derive_seed(4, 1 + j) for j in slow]
    assert starts.tobytes() == cloud.sources[np.array(nearest)].tobytes()


def test_conical_oracle_zero_is_member(example3):
    cloud = geo.sample_image(example3, 10.0, 128, 6)
    oracle = geo.conical_membership_oracle(example3, cloud, budget=8, seed=9)
    assert oracle(np.zeros(2)).member


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
