"""The cloud LP: its separator against an exact-rational oracle, its hull
answer against the former hull LP, its count per command, and the LP on a
frontier of more than 1000 points."""

import io
import tracemalloc
from argparse import Namespace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import slemma
from conftest import former_hull_intersects_k, p2to4_system, random_p1_system
from slemma import certificate
from slemma import geometry as geo
from slemma.cli import _config_from
from slemma.cli import main as cli_main
from slemma.implication import ClassifyConfig, image_cloud
from slemma.problem import load_problem

CORPUS = Path(slemma.__file__).parent / "corpus"
CORPUS_FILES = sorted(p.name for p in CORPUS.glob("*.json")
                      if p.name != "expected_verdicts.json")


def _exact_min(alpha, Z):
    """min_j <alpha, z_j> in rationals, from the float data as it is."""
    alpha = [Fraction(float(a)) for a in alpha]
    return min(sum(a * Fraction(float(z)) for a, z in zip(alpha, row))
               for row in Z)


def _exact_p1_maximum(Z):
    """max over s in [0, 1] of g(s) = min_j (1 - s) z_j0 + s z_j1, in
    rationals.  g is concave and piecewise linear, so its maximum is at
    s = 0, at s = 1 or where two lines cross: walk the lower envelope
    right from s = 0 while its line rises."""
    lines = {(Fraction(float(a)), Fraction(float(b)) - Fraction(float(a)))
             for a, b in Z}                 # (value at s = 0, slope)
    s = Fraction(0)
    # at a tie, the least slope is the envelope's line to the right
    active = min(lines, key=lambda ln: (ln[0] + s * ln[1], ln[1]))
    while active[1] > 0:
        # lines of lower slope lie above `active` right of s until they
        # cross it; the first crossing, least slope at a tie, comes next
        ahead = [((a - active[0]) / (active[1] - b), b, (a, b))
                 for a, b in lines if b < active[1]]
        if not ahead:
            break
        cross, _, line = min(ahead)
        if cross >= 1:
            break
        s, active = cross, line
    else:
        return active[0] + s * active[1]
    return active[0] + active[1]            # still rising at s = 1


@pytest.fixture(scope="module")
def separated():
    """(file, round, cloud, separator) for every cloud the separation
    route of `slemma certificate --method separation` separates, over the
    bundled corpus."""
    seen = []
    real = certificate.hull_intersects_k

    def record(cloud, tol):
        hull = real(cloud, tol)
        seen.append((cloud, hull.separator))
        return hull

    found = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(certificate, "hull_intersects_k", record)
        for name in CORPUS_FILES:
            seen.clear()
            cli_main(["certificate", str(CORPUS / name), "--method",
                      "separation"], out=io.StringIO(), err=io.StringIO())
            found += [(name, k, cloud, sep)
                      for k, (cloud, sep) in enumerate(seen)
                      if sep is not None]
    return found


def test_the_corpus_separations_include_slater_fail_rounds_0_and_1(
        separated):
    rounds = [(k, cloud.size) for name, k, cloud, _ in separated
              if name == "slater_fail.json"]
    assert rounds == [(0, 512), (1, 515)]
    assert len(separated) > 8


def test_delta_is_what_alpha_achieves_on_the_cloud(separated):
    # the LP's entries are of the size of the frontier's largest |z|, so
    # its ulp is the unit of rounding in delta
    for name, k, cloud, sep in separated:
        assert sep.alpha.min() >= 0.0
        assert sum(sep.alpha) == pytest.approx(1.0)
        gap = _exact_min(sep.alpha, cloud.points) - Fraction(sep.delta)
        scale = np.abs(cloud.points[cloud.frontier]).max()
        assert abs(gap) <= 4 * np.spacing(scale), (name, k, float(gap))


def test_p1_delta_is_the_exact_best_separation(separated):
    p1 = [c for c in separated if c[2].p == 1]
    assert len(p1) > 8
    for name, k, cloud, sep in p1:
        gap = Fraction(sep.delta) - _exact_p1_maximum(cloud.points)
        assert abs(gap) <= 1e-12 * (1 + abs(sep.delta)), (name, k)


def test_exact_p1_maximum_on_small_clouds():
    # a single rising line peaks at s = 1, a falling one at s = 0
    assert _exact_p1_maximum([[0.0, 1.0]]) == 1
    assert _exact_p1_maximum([[2.0, 1.0]]) == 2
    # z = (1, 0) and (0, 1) cross at s = 1/2
    assert _exact_p1_maximum([[1.0, 0.0], [0.0, 1.0]]) == Fraction(1, 2)
    # a third line through the crossing and one below it
    assert _exact_p1_maximum([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]) == \
        Fraction(1, 2)
    assert _exact_p1_maximum([[1.0, 0.0], [0.0, 1.0], [0.375, 0.375]]) == \
        Fraction(3, 8)


def _arc_cloud(center, count):
    """`count` points on the lower-left quarter of the unit circle about
    `center`: none dominates another, so all are on the frontier."""
    theta = np.linspace(0.0, np.pi / 2, count)
    points = np.asarray(center) - np.stack([np.cos(theta), np.sin(theta)], 1)
    return geo.ImageCloud(points=points, sources=np.zeros((count, 1)),
                          box_radius=1.0, seed=0)


def test_the_cloud_lp_answers_on_a_frontier_of_2001_points():
    # about (1.5, 1.5) the cloud stays off K; the best separation is
    # 1.5 - sqrt(2)/2, at alpha = (1/2, 1/2) and theta = pi/4
    cloud = _arc_cloud([1.5, 1.5], 2001)
    assert len(cloud.frontier) == 2001
    # the LP's memory is linear in its size: a tableau of 4 rows by about
    # 2,000 columns, 64 KiB of doubles (a dense variables x columns matrix
    # once took the peak to about 31 MiB)
    tracemalloc.start()
    try:
        hull = geo.hull_intersects_k(cloud)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert not hull.intersects and not hull.touches
    sep = hull.separator
    assert sep.delta == hull.optimum
    assert sep.delta == pytest.approx(1.5 - np.sqrt(0.5), abs=1e-12)
    assert float(_exact_min(sep.alpha, cloud.points)) == pytest.approx(
        sep.delta, abs=1e-14)
    # about (0.5, 0.5) the arc's middle lies in K
    cloud = _arc_cloud([0.5, 0.5], 2001)
    hull = geo.hull_intersects_k(cloud)
    assert hull.intersects and hull.separator is None
    assert former_hull_intersects_k(cloud).intersects
    # the witness is the combination itself, both coordinates at t* up to
    # the LP's rounding (here 1.9e-12 above it), so it lies in K
    front = cloud.frontier
    assert np.array_equal(hull.witness,
                          hull.weights[front] @ cloud.points[front])
    assert hull.optimum < -geo.PSD_RTOL
    assert hull.witness == pytest.approx([hull.optimum] * 2, abs=1e-11)
    assert geo.cone_k_member(hull.witness)


def _instances():
    """(name, system, config) of the 16 corpus files with their settings,
    random_p1_system(seed) for seeds 0-59 and p2to4_system(s) for
    s = 0-39, each with classify's defaults."""
    for name in CORPUS_FILES:
        pf = load_problem(str(CORPUS / name))
        yield name, pf.system(), _config_from(pf, Namespace())
    for seed in range(60):
        yield f"p1 seed {seed}", random_p1_system(seed), ClassifyConfig()
    for s in range(40):
        yield f"p2to4 s = {s}", p2to4_system(s), ClassifyConfig()


def test_hull_answer_matches_the_former_hull_lp_on_116_clouds():
    # classify's cloud and tol on each instance: the cloud LP and the
    # former hull LP agree on every one; the face case of
    # tests/test_geometry.py, where they differ, is built by hand
    intersecting, touching = 0, 0
    for name, system, config in _instances():
        cloud = image_cloud(system, config)
        hull = geo.hull_intersects_k(cloud, config.psd_tol)
        former = former_hull_intersects_k(cloud, config.psd_tol)
        assert hull.intersects == former.intersects, name
        intersecting += hull.intersects
        touching += hull.touches
        # no witness coordinate passes t* by more than the LP's rounding,
        # at most 3.8e-14 max|z| here
        scale = np.abs(cloud.points[cloud.frontier]).max()
        assert hull.witness.max() - hull.optimum <= 1e-12 * scale, name
        if hull.intersects:
            assert geo.cone_k_member(hull.witness), name
        else:
            assert hull.separator.delta == hull.optimum, name
    # farkas_homogeneous's image is a subspace through 0: t* = 0
    assert (intersecting, touching) == (95, 1)


@pytest.mark.parametrize("command, name, lps", [
    ("classify", "slater_fail.json", 2),
    ("geometry", "slater_fail.json", 1),
    ("geometry", "example3_pair.json", 1)])
def test_each_cloud_costs_one_lp(monkeypatch, command, name, lps):
    # classify's separation route solves rounds 0 and 1 on slater_fail,
    # and the evidence step reads round 0's answer; `geometry` solves one
    # LP on its cloud (the former hull LP made these 3, 2 and 2)
    calls = []
    real = geo.solve_lp
    monkeypatch.setattr(geo, "solve_lp",
                        lambda lp: calls.append(lp) or real(lp))
    cli_main([command, str(CORPUS / name)], out=io.StringIO(),
             err=io.StringIO())
    assert len(calls) == lps
