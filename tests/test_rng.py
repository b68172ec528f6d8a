import numpy as np

from slemma.rng import SplitMix64, derive_seed, uniform_rows


def test_batch_matches_scalar_bitwise():
    a = SplitMix64(42)
    b = SplitMix64(42)
    batch = a.uniforms(1000)
    scalars = [b.uniform() for _ in range(1000)]
    assert batch.tolist() == scalars


def test_integer_batch_matches_scalar_draws():
    # u64s is the integer twin of uniforms; its residues are randint's
    a, b = SplitMix64(2**64 - 5), SplitMix64(2**64 - 5)
    batch = a.u64s(1000)
    assert batch.dtype == np.uint64
    assert batch.tolist() == [b.next_u64() for _ in range(1000)]
    assert a.next_u64() == b.next_u64()
    for n in (1, 3, 512, 4097):
        c, d = SplitMix64(n), SplitMix64(n)
        residues = c.u64s(300) % np.uint64(n)
        assert residues.tolist() == [d.randint(n) for _ in range(300)]
    assert SplitMix64(9).u64s(0).shape == (0,)


def test_stream_continues_after_batch():
    a = SplitMix64(7)
    a.uniforms(10)
    b = SplitMix64(7)
    for _ in range(10):
        b.uniform()
    assert a.uniform() == b.uniform()


def test_uniform_range_and_mean():
    rng = SplitMix64(1)
    u = rng.uniforms(20000, -3.0, 3.0)
    assert np.all(u >= -3.0) and np.all(u < 3.0)
    assert abs(np.mean(u)) < 0.05


def test_uniform_box_shape():
    X = SplitMix64(5).uniform_box(2.0, 3, 11)
    assert X.shape == (11, 3)
    assert np.max(np.abs(X)) <= 2.0


def test_determinism_across_instances():
    assert SplitMix64(123).next_u64() == SplitMix64(123).next_u64()
    assert SplitMix64(123).next_u64() != SplitMix64(124).next_u64()


def test_derive_seed_streams_differ():
    seeds = {derive_seed(99, k) for k in range(50)}
    assert len(seeds) == 50
    assert derive_seed(99, 3) == derive_seed(99, 3)


def test_randint_bounds():
    rng = SplitMix64(11)
    draws = [rng.randint(7) for _ in range(500)]
    assert set(draws) <= set(range(7))
    assert len(set(draws)) == 7


def test_uniform_rows_match_a_stream_per_seed():
    # the member search draws every target's restarts in one batch; row j
    # must be SplitMix64(seeds[j]).uniforms(count), bit for bit, also at
    # the seeds whose first state wraps past 2^64
    seeds = [0, 1, 2**64 - 1]
    for count in (0, 1, 7, 64):
        for lo, hi in ((0.0, 1.0), (-3.0, 5.0)):
            rows = uniform_rows(seeds, count, lo, hi)
            assert rows.shape == (3, count)
            for seed, row in zip(seeds, rows):
                assert row.tobytes() == \
                    SplitMix64(seed).uniforms(count, lo, hi).tobytes()
    assert uniform_rows([], 5).shape == (0, 5)
