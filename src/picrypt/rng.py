"""Deterministic 64-bit PRNG used wherever keys or samples must be portable.

SplitMix64 state transition with Lemire's multiply-shift bounded sampler
(rejection on the low word, so bounded draws are exactly uniform). Chosen
because it is a handful of integer operations that behave identically on
any platform; key generation, patch dropping and collision sampling all
consume one of these streams.

Draw k of a stream mixes the state ``seed + (k + 1) * gamma``, so a block
of words is computed at once as a uint64 array (next_u64_block). Bounded
draws for an array of bounds below 2**32 (next_below_block) do Lemire's
128-bit product in 32-bit halves on that block. From the first draw whose
low word is below its bound, where rejection can start, the block hands the
stream back to the scalar next_below, so block and scalar draws give the
same values and leave the same state.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# bounds of next_below_block must stay below this, so each 32-bit half of
# the product fits in a uint64
_BOUND_LIMIT = 1 << 32


def _u64(c: int) -> np.ndarray:
    # a 0-d array: numpy combines it with an array faster than a np.uint64
    return np.array(c, dtype=np.uint64)


_U64_GAMMA, _U64_MIX1, _U64_MIX2 = _u64(_GAMMA), _u64(_MIX1), _u64(_MIX2)
_U64_27, _U64_30, _U64_31, _U64_32 = _u64(27), _u64(30), _u64(31), _u64(32)
_U64_LOW32 = _u64(_BOUND_LIMIT - 1)


def check_seed(seed: int, error: type = ConfigError) -> int:
    """``seed`` if it is in [0, 2**64), what SplitMix64 and numpy both accept;
    else ``error``, by default a ConfigError: seeds come from flags and files."""
    if not 0 <= seed < 1 << 64:
        raise error(f"seed must be in [0, 2**64), got {seed}")
    return seed


class SplitMix64:
    """Sequential stream of 64-bit words from a seed that check_seed admits."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = check_seed(seed)

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def next_below(self, n: int) -> int:
        """Uniform integer in [0, n), unbiased via rejection sampling.

        Multiplies a raw 64-bit word by n and keeps the high 64 bits; draws
        whose low word falls in the biased remainder zone are rejected. n <= 0
        is a programmer error (ValueError).
        """
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        x = self.next_u64()
        m = x * n
        low = m & _MASK64
        if low < n:
            threshold = ((1 << 64) - n) % n
            while low < threshold:
                x = self.next_u64()
                m = x * n
                low = m & _MASK64
        return m >> 64

    def next_unit(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def next_u64_block(self, k: int) -> np.ndarray:
        """The next k words as one uint64 array; the state advances by k.
        k < 0 is a programmer error (ValueError)."""
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        z = np.arange(1, k + 1, dtype=np.uint64) * _U64_GAMMA + _u64(self.state)
        self.state = (self.state + k * _GAMMA) & _MASK64
        z = (z ^ (z >> _U64_30)) * _U64_MIX1
        z = (z ^ (z >> _U64_27)) * _U64_MIX2
        return z ^ (z >> _U64_31)

    def next_below_block(self, bounds) -> np.ndarray:
        """``[next_below(b) for b in bounds]`` as a 1-D int64 array, each
        bound in [1, 2**32), leaving the same state as those calls. A bound
        outside that range is a programmer error (ValueError)."""
        bounds = np.asarray(bounds).ravel()
        if bounds.size and not (1 <= bounds.min() and bounds.max() < _BOUND_LIMIT):
            raise ValueError(f"bounds must be in [1, {_BOUND_LIMIT}), "
                             f"got {bounds.min()}..{bounds.max()}")
        b = bounds.astype(np.uint64)
        start = self.state
        x = self.next_u64_block(b.size)
        # high word of x * b from 32-bit halves; the sum stays below 2**64
        high = ((x >> _U64_32) * b + (((x & _U64_LOW32) * b) >> _U64_32)) >> _U64_32
        draws = high.astype(np.int64)
        # a low word below its bound is where the scalar rejection can start
        reject_zone = x * b < b
        if np.count_nonzero(reject_zone):
            first = int(reject_zone.argmax())
            self.state = (start + first * _GAMMA) & _MASK64
            draws[first:] = [self.next_below(int(n)) for n in b[first:]]
        return draws
