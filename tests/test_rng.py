"""Tests for the deterministic PRNG stream."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from picrypt.errors import ConfigError
from picrypt.rng import SplitMix64


def test_known_stream_is_stable():
    # frozen regression values: first three words for seeds 0 and 42
    r = SplitMix64(0)
    got = [r.next_u64() for _ in range(3)]
    assert got == [
        16294208416658607535,
        7960286522194355700,
        487617019471545679,
    ]
    r = SplitMix64(42)
    assert r.next_u64() == 13679457532755275413


def test_stream_is_deterministic():
    for seed in range(20):
        a = SplitMix64(seed)
        b = SplitMix64(seed)
        assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]


def test_words_are_64_bit():
    r = SplitMix64(7)
    for _ in range(1000):
        x = r.next_u64()
        assert 0 <= x < (1 << 64)


def test_seed_must_fit_64_bits():
    # a seed comes from a flag or a config file: an input error
    with pytest.raises(ConfigError):
        SplitMix64(-1)
    with pytest.raises(ConfigError):
        SplitMix64(1 << 64)
    SplitMix64((1 << 64) - 1)  # boundary is fine


def test_next_below_range_and_determinism():
    for seed in range(10):
        r = SplitMix64(seed)
        draws = [r.next_below(7) for _ in range(500)]
        assert all(0 <= d < 7 for d in draws)
        r2 = SplitMix64(seed)
        assert draws == [r2.next_below(7) for _ in range(500)]


def test_next_below_one_is_always_zero():
    r = SplitMix64(3)
    assert all(r.next_below(1) == 0 for _ in range(100))


def test_next_below_rejects_nonpositive():
    r = SplitMix64(0)
    with pytest.raises(ValueError):
        r.next_below(0)
    with pytest.raises(ValueError):
        r.next_below(-3)


def test_next_below_is_roughly_uniform():
    # chi-square over n=5 cells, 50000 draws; df=4, 0.999 quantile ~ 18.5
    n, draws = 5, 50000
    r = SplitMix64(123)
    counts = [0] * n
    for _ in range(draws):
        counts[r.next_below(n)] += 1
    expected = draws / n
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    assert chi2 < 18.5, f"chi-square {chi2:.2f} too large: {counts}"


def test_next_unit_in_half_open_interval():
    r = SplitMix64(9)
    vals = [r.next_unit() for _ in range(2000)]
    assert all(0.0 <= v < 1.0 for v in vals)
    # mean of uniforms ~ 0.5 +- 5 sigma (sigma = 1/sqrt(12 n))
    mean = sum(vals) / len(vals)
    assert abs(mean - 0.5) < 5.0 / math.sqrt(12 * len(vals))


# ---------------------------------------------------------------- block draws

GAMMA = 0x9E3779B97F4A7C15
MASK = (1 << 64) - 1


def zero_word_seed(k):
    """Seed whose stream has word k exactly 0: draw k mixes the state
    seed + (k + 1) * gamma, and the SplitMix64 mix of 0 is 0."""
    return (-(k + 1) * GAMMA) & MASK


def test_zero_word_seed():
    for k in (0, 1, 5):
        r = SplitMix64(zero_word_seed(k))
        words = [r.next_u64() for _ in range(k + 2)]
        assert words[k] == 0
        assert all(words[:k]) and words[k + 1]


def test_u64_block_equals_scalar_words():
    for seed in (0, 42, MASK, zero_word_seed(3)):
        a, b = SplitMix64(seed), SplitMix64(seed)
        block = a.next_u64_block(300)
        assert block.dtype == np.uint64
        assert block.tolist() == [b.next_u64() for _ in range(300)]
        assert a.state == b.state
        assert a.next_u64() == b.next_u64()


def test_u64_block_of_nothing_keeps_state():
    r = SplitMix64(9)
    assert r.next_u64_block(0).shape == (0,)
    assert r.state == 9
    with pytest.raises(ValueError):
        r.next_u64_block(-1)


def scalar_below(seed, bounds):
    r = SplitMix64(seed)
    return [r.next_below(int(b)) for b in bounds], r.state


seeds = st.one_of(st.integers(0, MASK), st.integers(0, 40).map(zero_word_seed))
bound_values = st.one_of(
    st.integers(1, (1 << 32) - 1),
    st.sampled_from([1, 2, 3, 7, 1 << 16, (1 << 32) - 2, (1 << 32) - 1]),
    st.integers((1 << 32) - 1000, (1 << 32) - 1),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(seeds, st.lists(bound_values, max_size=60))
def test_below_block_equals_scalar_draws(seed, bounds):
    want, want_state = scalar_below(seed, bounds)
    r = SplitMix64(seed)
    got = r.next_below_block(np.asarray(bounds, dtype=np.int64))
    assert got.dtype == np.int64
    assert got.tolist() == want
    assert r.state == want_state


@pytest.mark.parametrize("k", [0, 3])
def test_below_block_rejection_hands_back_to_scalar(k):
    # word k is 0: rejected for a bound that is not a power of two, so the
    # block spends one extra word; accepted as draw 0 for a power of two
    bounds = [7, 9, 11, 5, 6]
    draws, state = scalar_below(zero_word_seed(k), bounds)
    r = SplitMix64(zero_word_seed(k))
    assert r.next_below_block(bounds).tolist() == draws
    assert r.state == state == (zero_word_seed(k) + 6 * GAMMA) & MASK

    bounds = [8, 16, 4, 1 << 31, 2]
    r = SplitMix64(zero_word_seed(k))
    got = r.next_below_block(bounds).tolist()
    assert got == scalar_below(zero_word_seed(k), bounds)[0]
    assert got[k] == 0
    assert r.state == (zero_word_seed(k) + 5 * GAMMA) & MASK


@pytest.mark.parametrize("bad", [[1 << 32], [5, 1 << 64], [3, 0], [-2]])
def test_below_block_rejects_bounds_before_drawing(bad):
    r = SplitMix64(11)
    with pytest.raises(ValueError):
        r.next_below_block(bad)
    assert r.state == 11
