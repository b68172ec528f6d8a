"""Deterministic 64-bit random number generation.

Every sampling routine in the toolkit draws from the splitmix64 sequence so
that results are reproducible across platforms from a single integer seed.
The generator is the standard one:

    state <- (state + 0x9E3779B97F4A7C15) mod 2^64
    z <- state
    z <- ((z XOR (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2^64
    z <- ((z XOR (z >> 27)) * 0x94D049BB133111EB) mod 2^64
    output z XOR (z >> 31)

Doubles in [0, 1) take the top 53 bits: (output >> 11) * 2^-53.

Because the k-th state is seed + k * 0x9E3779B97F4A7C15 (mod 2^64), whole
batches of outputs can be produced vectorized; `SplitMix64.u64s` is
bit-identical to repeated scalar `next_u64` calls, and `uniforms` to
repeated `uniform` calls.
"""

import numpy as np

_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1
_STREAM = 0xD1B54A32D192ED03

_TWO53 = float(1 << 53)


def _mix(z):
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def derive_seed(seed, stream):
    """Child seed for an independent stream (stage `stream` of a pipeline)."""
    return _mix((seed ^ ((stream + 1) * _STREAM)) & _MASK)


def _u64s(states, count):
    """Outputs 1..count of the streams at `states` (uint64), in a new last
    axis."""
    with np.errstate(over="ignore"):
        k = np.arange(1, count + 1, dtype=np.uint64)
        z = states[..., None] + k * np.uint64(_GAMMA)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        return z ^ (z >> np.uint64(31))


def _unit(z, lo, hi):
    """Doubles in [lo, hi) from the top 53 bits of each output."""
    u = (z >> np.uint64(11)).astype(np.float64) / _TWO53
    return lo + (hi - lo) * u


def uniform_rows(seeds, count, lo=0.0, hi=1.0):
    """(len(seeds), count) array whose row j is
    SplitMix64(seeds[j]).uniforms(count, lo, hi), bit for bit, drawn in
    one vectorized batch."""
    states = np.array([int(s) & _MASK for s in seeds], dtype=np.uint64)
    return _unit(_u64s(states, count), lo, hi).reshape(len(states), count)


class SplitMix64:
    """splitmix64 stream over a 64-bit state."""

    def __init__(self, seed):
        self.state = int(seed) & _MASK

    def next_u64(self):
        self.state = (self.state + _GAMMA) & _MASK
        return _mix(self.state)

    def uniform(self, lo=0.0, hi=1.0):
        u = (self.next_u64() >> 11) / _TWO53
        return lo + (hi - lo) * u

    def randint(self, n):
        """Integer in [0, n), by rejection-free modulo (bias < 2^-50 for the
        small n used here)."""
        return self.next_u64() % n

    def u64s(self, count):
        """Vectorized uint64 batch equal to `count` scalar `next_u64`
        calls."""
        z = _u64s(np.uint64(self.state), count)
        self.state = (self.state + count * _GAMMA) & _MASK
        return z

    def uniforms(self, count, lo=0.0, hi=1.0):
        """Vectorized batch equal to `count` scalar `uniform` calls."""
        return _unit(self.u64s(count), lo, hi)

    def uniform_box(self, radius, n, count):
        """(count, n) array of points uniform in [-radius, radius]^n."""
        flat = self.uniforms(count * n, -radius, radius)
        return flat.reshape(count, n)
