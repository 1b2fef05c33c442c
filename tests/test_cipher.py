"""Tests for RS/MI encryption, SPN rounds, keys, and key-space accounting."""

import itertools
import math
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings

from damaged_files import damaged, load_or_none, saved_bytes
from picrypt.cipher import (
    KEY_MAGIC,
    MAX_SPN_ROUNDS,
    MixedGrid,
    PermutationKey,
    drop_patches,
    encrypt,
    gen_key,
    keyspace,
    load_key,
    mi_encrypt,
    parse_mode,
    quantize_mixed,
    rs_encrypt,
    rs_decrypt,
    save_key,
    spn_encrypt,
    token_dim,
    token_rows,
)
from picrypt.errors import ConfigError, GeometryError, KeyMismatchError, PicryptError
from picrypt.imgio import Image, PatchGrid, split_patches, split_subpatches
from picrypt.rng import SplitMix64


def rand_grid(rng, rows=2, cols=3, ps=4, c=3):
    img = Image(pixels=rng.integers(0, 256, size=(rows * ps, cols * ps, c),
                                    dtype=np.uint8))
    return split_patches(img, ps, 0)


def quad(tl, tr, bl, br):
    top = np.concatenate([tl, tr], axis=1)
    bottom = np.concatenate([bl, br], axis=1)
    return np.concatenate([top, bottom], axis=0)


# ---------------------------------------------------------------- keys


def test_single_patch_key_is_identity():
    for seed in (0, 1, 2**64 - 1):
        assert gen_key(seed, 1).perm == (0,)


def test_key_determinism():
    for seed in range(20):
        assert gen_key(seed, 17).perm == gen_key(seed, 17).perm


def test_key_is_bijection():
    for seed in range(20):
        k = gen_key(seed, 50)
        assert sorted(k.perm) == list(range(50))


def test_key_rejects_empty():
    with pytest.raises(ValueError):
        gen_key(0, 0)


def test_key_validates_perm():
    with pytest.raises(PicryptError):
        PermutationKey(n=3, perm=(0, 0, 1), seed=0)
    with pytest.raises(PicryptError):
        PermutationKey(n=3, perm=(0, 1), seed=0)


def test_key_distribution_uniform_n4():
    # each of the 24 permutations should occur with frequency 1/24 +- 3 sigma
    # over 1e5 keys; sigma from the per-cell binomial
    trials = 100_000
    counts = {}
    for seed in range(trials):
        p = gen_key(seed, 4).perm
        counts[p] = counts.get(p, 0) + 1
    assert len(counts) == 24
    expected = trials / 24
    sigma = math.sqrt(trials * (1 / 24) * (23 / 24))
    for perm, c in counts.items():
        assert abs(c - expected) < 3 * sigma, f"{perm}: {c} vs {expected:.1f}"


GAMMA = 0x9E3779B97F4A7C15


def zero_word_seed(k):
    """Seed whose SplitMix64 stream has word k exactly 0: rejected by every
    bound that is not a power of two, accepted as 0 by one that is."""
    return (-(k + 1) * GAMMA) % 2**64


def scalar_gen_key(seed, n):
    """gen_key as one next_below call per swap: the oracle for the block draw."""
    rng = SplitMix64(seed)
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.next_below(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return tuple(perm)


def scalar_drop_holes(seed, n, k):
    rng = SplitMix64(seed)
    idx = list(range(n))
    for i in range(k):
        j = i + rng.next_below(n - i)
        idx[i], idx[j] = idx[j], idx[i]
    return sorted(idx[:k])


@pytest.mark.parametrize("seed,n", [
    (zero_word_seed(0), 7),     # rejection at the first draw (bound 7)
    (zero_word_seed(2), 7),     # rejection mid-stream (bound 5)
    (zero_word_seed(0), 8),     # zero word accepted by a power of two
    (zero_word_seed(5), 196),
    (0, 784), (2**64 - 1, 3136), (12345, 2), (7, 1),
])
def test_gen_key_matches_scalar_oracle(seed, n):
    assert gen_key(seed, n).perm == scalar_gen_key(seed, n)


def test_gen_key_rejection_draws_an_extra_word():
    # the rejected zero word shifts every later draw by one word, so the key
    # differs from one drawn as if the zero word were accepted
    seed = zero_word_seed(0)
    accepted = SplitMix64(seed)
    draws = [accepted.next_u64() * b >> 64 for b in range(7, 1, -1)]
    perm = list(range(7))
    for i, j in zip(range(6, 0, -1), draws):
        perm[i], perm[j] = perm[j], perm[i]
    assert gen_key(seed, 7).perm != tuple(perm)


@pytest.mark.parametrize("seed,rows,cols,ratio", [
    (zero_word_seed(0), 1, 7, 0.3),   # rejection at the first draw
    (zero_word_seed(1), 1, 7, 0.3),   # k=2 at n=7: rejection at the last draw
    (zero_word_seed(2), 1, 7, 0.5),   # rejection mid-stream
    (zero_word_seed(0), 2, 4, 0.5),   # zero word accepted (bound 8)
    (99, 28, 28, 0.2), (3, 14, 14, 0.9),
])
def test_drop_patches_matches_scalar_oracle(seed, rows, cols, ratio):
    g = rand_grid(np.random.default_rng(19), rows=rows, cols=cols, ps=2, c=1)
    n = rows * cols
    holes = drop_patches(g, ratio, seed).holes
    assert np.flatnonzero(holes).tolist() == scalar_drop_holes(seed, n, int(ratio * n))


def test_inverse_of_small_perm():
    k = PermutationKey(n=3, perm=(2, 0, 1), seed=0)
    assert k.inverse().tolist() == [1, 2, 0]


# ---------------------------------------------------------------- rs


def test_rs_identity_perm():
    rng = np.random.default_rng(0)
    g = rand_grid(rng)
    k = PermutationKey(n=6, perm=tuple(range(6)), seed=0)
    out = rs_encrypt(g, k)
    for a, b in zip(out.patches, g.patches):
        assert np.array_equal(a, b)


def test_rs_swap_two_patches():
    rng = np.random.default_rng(1)
    g = rand_grid(rng, rows=1, cols=2)
    k = PermutationKey(n=2, perm=(1, 0), seed=0)
    out = rs_encrypt(g, k)
    assert np.array_equal(out.patches[0], g.patches[1])
    assert np.array_equal(out.patches[1], g.patches[0])


def test_rs_roundtrip_random():
    rng = np.random.default_rng(2)
    for seed in range(20):
        g = rand_grid(rng, rows=3, cols=3)
        k = gen_key(seed, 9)
        back = rs_decrypt(rs_encrypt(g, k), k)
        for a, b in zip(back.patches, g.patches):
            assert np.array_equal(a, b)


def test_rs_output_slot_holds_perm_source():
    rng = np.random.default_rng(3)
    g = rand_grid(rng)
    k = gen_key(5, 6)
    out = rs_encrypt(g, k)
    for i in range(6):
        assert np.array_equal(out.patches[i], g.patches[k.perm[i]])


def test_rs_size_mismatch():
    rng = np.random.default_rng(4)
    g = rand_grid(rng)
    with pytest.raises(KeyMismatchError):
        rs_encrypt(g, gen_key(0, 5))
    with pytest.raises(KeyMismatchError):
        rs_decrypt(g, gen_key(0, 7))


# ---------------------------------------------------------------- mi


def test_mi_mean_of_constant_quadrants():
    quads = [np.full((2, 2, 1), v, dtype=np.uint8) for v in (0, 255, 0, 255)]
    patch = quad(*quads)
    grid = PatchGrid(rows=1, cols=1, patch_size=4, channels=1, interval=0,
                     patches=(patch,))
    mixed = mi_encrypt(grid)
    assert np.allclose(mixed.patches[0], 0.5)


def test_mi_idempotent_on_identical_quadrants():
    rng = np.random.default_rng(5)
    q = rng.integers(0, 256, size=(3, 3, 3), dtype=np.uint8)
    patch = quad(q, q, q, q)
    grid = PatchGrid(rows=1, cols=1, patch_size=6, channels=3, interval=0,
                     patches=(patch,))
    mixed = mi_encrypt(grid)
    assert mixed.patches[0].shape == q.shape
    assert np.max(np.abs(mixed.patches[0] - q / 255.0)) < 1e-15


def test_mi_invariant_to_subpatch_order():
    rng = np.random.default_rng(6)
    for _ in range(5):
        patch = rng.integers(0, 256, size=(8, 8, 3), dtype=np.uint8)
        subs = split_subpatches(patch)
        base = None
        for order in itertools.permutations(range(4)):
            re = quad(*(subs[i] for i in order))
            grid = PatchGrid(rows=1, cols=1, patch_size=8, channels=3,
                             interval=0, patches=(re,))
            m = mi_encrypt(grid).patches[0]
            if base is None:
                base = m
            else:
                assert np.max(np.abs(m - base)) < 1e-12


def test_mi_values_in_unit_interval():
    rng = np.random.default_rng(7)
    mixed = mi_encrypt(rand_grid(rng))
    for p in mixed.patches:
        assert p.min() >= 0.0 and p.max() <= 1.0


def test_mi_rejects_odd_patch_size():
    img = Image(pixels=np.zeros((9, 9, 1), dtype=np.uint8))
    with pytest.raises(GeometryError):
        mi_encrypt(split_patches(img, 3, 0))


def test_mi_rejects_holes():
    rng = np.random.default_rng(8)
    g = drop_patches(rand_grid(rng, rows=3, cols=3), 0.2, seed=1)
    with pytest.raises(GeometryError):
        mi_encrypt(g)


def test_mi_commutes_with_rs():
    # rs+mi and mi+rs name one cipher: both give, bit for bit, the patches
    # gathered by the key, then each one's quadrant mean
    rng = np.random.default_rng(9)
    for _ in range(8):
        rows, cols = (int(v) for v in rng.integers(1, 5, size=2))
        ps, c = int(rng.choice([2, 4, 8])), int(rng.choice([1, 3]))
        g = rand_grid(rng, rows=rows, cols=cols, ps=ps, c=c)
        seed = int(rng.integers(1 << 63))
        shuffled = g.patches[np.asarray(gen_key(seed, rows * cols).perm)]
        h = ps // 2
        q = shuffled.astype(np.float64) / 255.0
        want = 0.25 * (q[:, :h, :h] + q[:, :h, h:] + q[:, h:, :h] + q[:, h:, h:])
        for setting in ("rs+mi", "mi+rs"):
            got = encrypt(g, setting, lambda: seed)
            assert (got.rows, got.cols) == (rows, cols)
            assert got.patches.tobytes() == want.tobytes(), setting


def test_mixed_patch_tiles_its_quadrant():
    # the exported 8-bit grid tiles each quantized mean into all four quadrants
    rng = np.random.default_rng(10)
    mixed = mi_encrypt(rand_grid(rng))
    out = quantize_mixed(mixed)
    h = mixed.patch_size // 2
    for m, p in zip(mixed.patches, out.patches):
        v = np.rint(m * 255.0).astype(np.uint8)
        assert p.shape == (2 * h, 2 * h, mixed.channels)
        assert np.array_equal(p[:h, :h], v)
        assert np.array_equal(p[:h, h:], v)
        assert np.array_equal(p[h:, :h], v)
        assert np.array_equal(p[h:, h:], v)


def test_token_rows_of_mixed_grid_shape_and_range():
    rng = np.random.default_rng(4)
    v = token_rows(mi_encrypt(rand_grid(rng, rows=2, cols=2, ps=8)))
    assert v.shape == (4, token_dim("mi", 8, 3))
    assert v.min() >= 0.0 and v.max() <= 1.0


def test_mixed_grid_checks_patch_array_shape():
    ok = MixedGrid(rows=1, cols=2, patch_size=4, channels=3,
                   patches=np.zeros((2, 2, 2, 3)))
    assert ok.patches.dtype == np.float64
    for patch_size, shape in ((4, (2, 4, 4, 3)),   # full-size tiles
                              (4, (3, 2, 2, 3)),   # wrong count
                              (4, (2, 2, 2, 1)),   # wrong channels
                              (5, (2, 2, 2, 3))):  # odd patch size
        with pytest.raises(GeometryError):
            MixedGrid(rows=1, cols=2, patch_size=patch_size, channels=3,
                      patches=np.zeros(shape))


# ---------------------------------------------------------------- spn


def test_spn_single_round_is_rs_then_mi():
    rng = np.random.default_rng(11)
    g = rand_grid(rng, rows=3, cols=3)
    seed = 77
    out = spn_encrypt(g, 1, seed)
    k0 = gen_key(SplitMix64(seed).next_u64(), 9)
    ref = mi_encrypt(rs_encrypt(g, k0))
    for a, b in zip(out.patches, ref.patches):
        assert np.array_equal(a, b)


def spn_reference(grid, rounds, seed):
    """Per-unit SPN on full-size tiled patches; returns each patch's mean."""
    master = SplitMix64(seed)
    n, half = grid.n_patches, grid.patch_size // 2
    key0 = gen_key(master.next_u64(), n)
    state = []
    for i in range(n):
        p = grid.patches[key0.perm[i]].astype(np.float64) / 255.0
        mean = 0.25 * (p[:half, :half] + p[:half, half:] + p[half:, :half] + p[half:, half:])
        state.append(np.tile(mean, (2, 2, 1)))
    sub_cols = 2 * grid.cols
    for _ in range(1, rounds):
        sub_key = gen_key(master.next_u64(), 4 * n)
        units = []
        for r in range(2 * grid.rows):
            for c in range(sub_cols):
                patch = state[(r // 2) * grid.cols + c // 2]
                units.append(patch[(r % 2) * half:(r % 2 + 1) * half,
                                   (c % 2) * half:(c % 2 + 1) * half])
        units = [units[sub_key.perm[i]] for i in range(4 * n)]
        state = []
        for pr in range(grid.rows):
            for pc in range(grid.cols):
                q = [units[(2 * pr + dr) * sub_cols + 2 * pc + dc]
                     for dr in (0, 1) for dc in (0, 1)]
                state.append(np.tile(0.25 * (q[0] + q[1] + q[2] + q[3]), (2, 2, 1)))
    return np.stack([p[:half, :half] for p in state])


def test_spn_matches_per_unit_reference():
    rng = np.random.default_rng(14)
    for rows, cols in ((1, 1), (1, 4), (4, 1), (2, 3), (3, 3)):
        for ps, c in ((2, 1), (4, 3), (8, 1)):
            g = rand_grid(rng, rows=rows, cols=cols, ps=ps, c=c)
            for rounds in (1, 2, 4):
                seed = int(rng.integers(0, 2**63))
                out = spn_encrypt(g, rounds, seed)
                assert np.array_equal(out.patches, spn_reference(g, rounds, seed))


def test_spn_deterministic():
    rng = np.random.default_rng(12)
    g = rand_grid(rng, rows=3, cols=3)
    a = spn_encrypt(g, 3, 5)
    b = spn_encrypt(g, 3, 5)
    for pa, pb in zip(a.patches, b.patches):
        assert np.array_equal(pa, pb)


def test_spn_rejects_zero_rounds():
    rng = np.random.default_rng(13)
    with pytest.raises(ValueError):
        spn_encrypt(rand_grid(rng), 0, 0)


def test_parse_mode_bounds_spn_rounds():
    # checked at the parser only: a test that ran 17 rounds would be slow
    assert MAX_SPN_ROUNDS == 16
    assert parse_mode("spn:16") == ("spn", 16)
    with pytest.raises(ConfigError, match="1..16"):
        parse_mode("spn:17")


def test_spn_more_rounds_flatten_patch_means():
    # structured image: horizontal ramp; inner rounds permute at sub-patch
    # granularity, so repeated mixing pulls every patch mean toward the
    # global mean
    col = np.linspace(0, 255, 24, dtype=np.uint8)
    img = Image(pixels=np.broadcast_to(col[None, :, None], (24, 24, 1)).copy())
    g = split_patches(img, 8, 0)
    var = []
    for rounds in (1, 3):
        out = spn_encrypt(g, rounds, seed=3)
        means = [float(np.mean(p)) for p in out.patches]
        var.append(float(np.var(means)))
    assert var[1] < var[0] * 0.5, f"patch-mean variance did not flatten: {var}"


def test_quantize_mixed_rounds_half_even():
    grid = MixedGrid(rows=1, cols=1, patch_size=4, channels=1,
                     patches=np.array([[[[0.5 / 255], [1.5 / 255]],
                                        [[2.5 / 255], [1.0]]]]))
    q = quantize_mixed(grid)
    assert q.patches[0][:2, :2].reshape(-1).tolist() == [0, 2, 2, 255]


# ---------------------------------------------------------------- keyspace


def test_keyspace_small_values():
    assert keyspace(0) == 1
    assert keyspace(1) == 1
    assert keyspace(4) == 24


def test_keyspace_against_bigint_product_oracle():
    for n in (49, 196):
        oracle = reduce(lambda a, b: a * b, range(1, n + 1), 1)
        assert keyspace(n) == oracle
    assert len(str(keyspace(49))) == 63
    assert len(str(keyspace(196))) == 366


def test_keyspace_ratio_property():
    for n in range(1, 30):
        assert keyspace(n) == n * keyspace(n - 1)


def test_keyspace_rejects_negative():
    with pytest.raises(ValueError):
        keyspace(-1)


# ---------------------------------------------------------------- drop


def test_drop_zero_ratio_unchanged():
    rng = np.random.default_rng(14)
    g = rand_grid(rng)
    out = drop_patches(g, 0.0, seed=0)
    assert out.hole_count() == 0
    for a, b in zip(out.patches, g.patches):
        assert np.array_equal(a, b)


def test_drop_floor_arithmetic():
    img = Image(pixels=np.zeros((224, 224, 3), dtype=np.uint8))
    g = split_patches(img, 16, 0)
    out = drop_patches(g, 0.1, seed=0)
    assert out.hole_count() == 19


def test_drop_deterministic_and_distinct():
    rng = np.random.default_rng(15)
    g = rand_grid(rng, rows=4, cols=4)
    a = drop_patches(g, 0.5, seed=9)
    b = drop_patches(g, 0.5, seed=9)
    assert np.array_equal(a.holes, b.holes)
    assert a.hole_count() == 8


def test_dropped_pixels_do_not_survive():
    # hole slots hold zeros, before and after shuffling, and no dropped
    # patch's bytes remain anywhere in the grid
    rng = np.random.default_rng(17)
    g = rand_grid(rng, rows=4, cols=4)
    dropped = drop_patches(g, 0.5, seed=9)
    shuffled = rs_encrypt(dropped, gen_key(3, 16))
    gone = [g.patches[i].tobytes() for i in np.flatnonzero(dropped.holes)]
    for grid in (dropped, shuffled):
        assert grid.hole_count() == 8
        assert not grid.patches[grid.holes].any()
        kept = {p.tobytes() for p in grid.patches[~grid.holes]}
        assert kept.isdisjoint(gone)
    assert np.array_equal(shuffled.holes, dropped.holes[list(gen_key(3, 16).perm)])


def test_drop_keeps_earlier_holes():
    rng = np.random.default_rng(18)
    g = drop_patches(rand_grid(rng, rows=4, cols=4), 0.25, seed=1)
    twice = drop_patches(g, 0.25, seed=2)
    assert np.all(twice.holes[g.holes])
    assert not twice.patches[twice.holes].any()


def test_drop_rejects_full_ratio():
    rng = np.random.default_rng(16)
    with pytest.raises(ValueError):
        drop_patches(rand_grid(rng), 1.0, seed=0)


# ---------------------------------------------------------------- key file


def test_key_file_format(tmp_path):
    k = gen_key(42, 5)
    path = tmp_path / "k.key"
    save_key(k, path)
    lines = path.read_text().splitlines()
    assert lines[0] == KEY_MAGIC == "PICRYPT-KEY 1"
    assert lines[1] == "n=5"
    assert lines[2] == "seed=42"
    assert lines[3] == "perm=" + ",".join(str(i) for i in k.perm)
    assert len(lines) == 4


def test_key_file_roundtrip(tmp_path):
    for seed in range(5):
        k = gen_key(seed, 12)
        path = tmp_path / f"k{seed}.key"
        save_key(k, path)
        back = load_key(path)
        assert back == k


def test_key_file_rejects_tampered_perm(tmp_path):
    k = gen_key(7, 4)
    path = tmp_path / "k.key"
    save_key(k, path)
    text = path.read_text()
    swapped = ",".join(str(i) for i in (k.perm[1], k.perm[0]) + k.perm[2:])
    path.write_text(text.replace("perm=" + ",".join(map(str, k.perm)),
                                 "perm=" + swapped))
    with pytest.raises(KeyMismatchError):
        load_key(path)


def test_key_file_length_checked_before_gen_key(tmp_path, monkeypatch):
    # a short file claiming a huge n must be rejected without deriving the key
    def refuse(seed, n):
        raise AssertionError(f"gen_key({seed}, {n}) called")

    monkeypatch.setattr("picrypt.cipher.gen_key", refuse)
    path = tmp_path / "k.key"
    path.write_text(f"{KEY_MAGIC}\nn=30000000\nseed=0\nperm=0,1,2\n")
    with pytest.raises(KeyMismatchError):
        load_key(path)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_key_file_rejects_out_of_range_seed(tmp_path, seed):
    path = tmp_path / "k.key"
    path.write_text(f"{KEY_MAGIC}\nn=3\nseed={seed}\nperm=0,1,2\n")
    with pytest.raises(KeyMismatchError, match="seed"):
        load_key(path)


def test_key_file_rejects_non_ascii_byte(tmp_path):
    path = tmp_path / "k.key"
    path.write_bytes(f"{KEY_MAGIC}\nn=1\nseed=0\nperm=0\xff\n".encode("latin-1"))
    with pytest.raises(KeyMismatchError, match="not ASCII"):
        load_key(path)


def test_key_file_rejects_bad_magic(tmp_path):
    path = tmp_path / "k.key"
    path.write_text("NOT-A-KEY 9\nn=1\nseed=0\nperm=0\n")
    with pytest.raises(PicryptError):
        load_key(path)


@pytest.mark.parametrize("tail", ["garbage line\n", "perm=0,1,2,3,4,5\n", "\n"])
def test_key_file_rejects_a_line_after_the_fourth(tmp_path, tail):
    # an appended line, a second perm= line, a trailing blank line
    path = tmp_path / "k.key"
    save_key(gen_key(7, 6), path)
    assert load_key(path) == gen_key(7, 6)
    with path.open("a") as fh:
        fh.write(tail)
    with pytest.raises(KeyMismatchError, match="5 lines"):
        load_key(path)


VALID_KEY = saved_bytes(lambda path: save_key(gen_key(7, 6), path))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(damaged(VALID_KEY))
def test_damaged_key_file_gives_a_key_or_a_picrypt_error(blob):
    key = load_or_none(load_key, blob)
    assert key is None or key == gen_key(key.seed, key.n)
