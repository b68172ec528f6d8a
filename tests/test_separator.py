"""The separator against an exact-rational oracle, and both cloud LPs on
a frontier of more than 1000 points."""

import io
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import slemma
from slemma import certificate
from slemma import geometry as geo
from slemma.cli import main as cli_main

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
    real = certificate.extract_separator

    def record(cloud, tol):
        sep = real(cloud, tol)
        seen.append((cloud, sep))
        return sep

    found = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(certificate, "extract_separator", record)
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


def test_both_cloud_lps_answer_on_a_frontier_of_2001_points():
    # about (1.5, 1.5) the cloud stays off K; the best separation is
    # 1.5 - sqrt(2)/2, at alpha = (1/2, 1/2) and theta = pi/4
    cloud = _arc_cloud([1.5, 1.5], 2001)
    assert len(cloud.frontier) == 2001
    # each LP's memory is linear in its size: a tableau of 4 rows by
    # about 2,000 columns, 64 KiB of doubles (a dense variables x columns
    # matrix once took the peak to about 31 MiB)
    tracemalloc.start()
    try:
        hull = geo.hull_intersects_k(cloud)
        sep = geo.extract_separator(cloud)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert not hull.intersects
    assert sep.delta == pytest.approx(1.5 - np.sqrt(0.5), abs=1e-12)
    assert float(_exact_min(sep.alpha, cloud.points)) == pytest.approx(
        sep.delta, abs=1e-14)
    # about (0.5, 0.5) the arc's middle lies in K
    cloud = _arc_cloud([0.5, 0.5], 2001)
    hull = geo.hull_intersects_k(cloud)
    assert hull.intersects
    # the witness is the combination itself, in K up to the LP's
    # tolerance: here z_1 is 7.8e-13, not 0
    front = cloud.frontier
    assert np.array_equal(hull.witness,
                          hull.weights[front] @ cloud.points[front])
    assert hull.witness[0] == pytest.approx(hull.optimum, abs=1e-12)
    assert hull.optimum < -geo.PSD_RTOL
    scale = np.abs(cloud.points[front, 1:]).max(axis=0)
    assert np.all(hull.witness[1:] <= 1e-9 * scale)
    assert geo.extract_separator(cloud) is None
