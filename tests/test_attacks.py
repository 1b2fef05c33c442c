"""Tests for the jigsaw solver, gradient-leakage inversion, and MI collisions."""

import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from picrypt import attacks
from picrypt.attacks import (
    MAX_SOLVE_PATCHES,
    Arrangement,
    dump_arrangement,
    grad_leak_invert,
    jigsaw_solve,
    mi_collision,
    place,
    puzzle_metrics,
    seam_tables,
)
from picrypt.cipher import gen_key
from picrypt.errors import ConfigError, DataError, GeometryError, ShapeError
from picrypt.harness import truth_for_key
from picrypt.imgio import Image, split_patches
from picrypt.rng import SplitMix64
from test_jigsaw_oracle import relation_tables


def identity_arrangement(rows, cols, indices=None):
    """Each patch index at its row-major slot, restricted to ``indices`` if
    given: the ground truth of an unshuffled puzzle."""
    slots = np.arange(rows * cols)
    if indices is not None:
        slots[~np.isin(slots, list(indices))] = -1
    return Arrangement(slots.reshape(rows, cols))


def placed(arr):
    """Patch indices of the filled slots, row-major."""
    return arr.slots[arr.slots >= 0].tolist()


def smooth_image(size, seed=0):
    """Globally curved intensity field: every patch boundary is unique."""
    rng = np.random.default_rng(seed)
    y, x = np.mgrid[0:size, 0:size].astype(np.float64) / size
    f = 60 + 120 * (1 - (x - 0.3) ** 2 - (y - 0.6) ** 2) + 40 * np.sin(3 * x + 1) * np.cos(2 * y)
    f += rng.uniform(-4, 4, size=(size, size))
    return np.clip(f, 0, 255).astype(np.uint8)[..., None]


def patches_of(pixels, ps):
    return list(split_patches(Image(pixels=pixels), ps, 0).patches)


# ---------------------------------------------------------------- types


def test_arrangement_validates_bounds_and_uniqueness():
    arr = Arrangement([[3, -1], [-1, 0]])
    assert arr.slots.dtype == np.int64 and arr.slots.shape == (2, 2)
    with pytest.raises(GeometryError, match="2-D"):
        Arrangement([0, 1])
    with pytest.raises(GeometryError, match="below -1"):
        Arrangement([[0, -2]])
    with pytest.raises(GeometryError, match="patch 1 placed twice"):
        Arrangement([[1, 1], [-1, 0]])
    for bad in (np.array([[0.7, -1.0]]), np.array([[2**64 - 1]], dtype=np.uint64)):
        with pytest.raises(GeometryError, match="int64 patch indices"):
            Arrangement(bad)
    assert Arrangement(np.zeros((2, 0), dtype=np.uint8)).slots.shape == (2, 0)


def test_arrangement_is_a_frozen_copy():
    slots = np.array([[0, -1]])
    arr = Arrangement(slots)
    slots[0, 1] = 1
    assert arr.slots.tolist() == [[0, -1]]
    with pytest.raises(ValueError):
        arr.slots[0, 1] = 1


def test_identity_arrangement_row_major():
    arr = identity_arrangement(2, 3)
    assert arr.slots.tolist() == [[0, 1, 2], [3, 4, 5]]
    partial = identity_arrangement(2, 3, indices=[1, 4])
    assert partial.slots.tolist() == [[-1, 1, -1], [-1, 4, -1]]


# ---------------------------------------------------------------- edges


def seam_pair(a, b):
    """(right, below) seam costs of b right of a and b below a, on [0, 1] pixels."""
    d_right, d_below = seam_tables(np.stack([a, b]) / 255.0)[:2]
    return d_right[0, 1], d_below[0, 1]


def test_seam_tables_match_naive_loop():
    rng = np.random.default_rng(0)
    a = rng.integers(0, 256, size=(6, 6, 3), dtype=np.uint8)
    b = rng.integers(0, 256, size=(6, 6, 3), dtype=np.uint8)
    want_r = 0.0
    want_b = 0.0
    for i in range(6):
        for ch in range(3):
            want_r += ((int(a[i, 5, ch]) - int(b[i, 0, ch])) / 255.0) ** 2
            want_b += ((int(a[5, i, ch]) - int(b[0, i, ch])) / 255.0) ** 2
    got_r, got_b = seam_pair(a, b)
    assert abs(got_r - want_r) < 1e-12
    assert abs(got_b - want_b) < 1e-12


def test_seam_tables_constants():
    z = np.zeros((4, 4, 1), dtype=np.uint8)
    f = np.full((4, 4, 1), 255, dtype=np.uint8)
    assert seam_pair(z, z)[0] == 0.0
    got_r, got_b = seam_pair(z, f)
    assert abs(got_r - 4.0) < 1e-12
    assert abs(got_b - 4.0) < 1e-12


# ---------------------------------------------------------------- solver


def test_jigsaw_single_patch():
    p = np.zeros((4, 4, 1), dtype=np.uint8)
    arr = jigsaw_solve([p], 1, 1)
    assert arr.slots.tolist() == [[0]]
    assert jigsaw_solve([p], 2, 3, holes=[True]).slots.tolist() == [[-1] * 3] * 2


@pytest.mark.parametrize("patches, match", [
    (np.zeros((4, 4, 4), np.uint8), r"shape \(4, 4, 4\) are not an \(N, P, Q, C\) stack"),
    (np.zeros((2, 2, 2, 1, 1), np.uint8), "not an"),
    ([np.zeros((4, 4, 1), np.uint8), np.zeros((4, 2, 1), np.uint8)], "differ in shape"),
    ([np.zeros((4, 4, 1), np.uint8)] * 3 + [np.zeros((4, 4, 3), np.uint8)], "differ in shape"),
])
def test_jigsaw_rejects_a_malformed_patch_stack(patches, match):
    with pytest.raises(GeometryError, match=match):
        jigsaw_solve(patches, 2, 2)


def test_jigsaw_rejects_overfull():
    p = np.zeros((4, 4, 1), dtype=np.uint8)
    with pytest.raises(GeometryError):
        jigsaw_solve([p] * 5, 2, 2)


def test_jigsaw_rejects_more_patches_than_its_bound(monkeypatch):
    # the bound is checked before the two n x n seam tables are built, and
    # counts only the unmasked patches
    def no_tables(stack):
        raise RuntimeError(f"tables for {len(stack)} patches")

    monkeypatch.setattr(attacks, "seam_tables", no_tables)
    patches = np.zeros((MAX_SOLVE_PATCHES + 1, 2, 2, 1), dtype=np.uint8)
    with pytest.raises(GeometryError, match="solver bound"):
        jigsaw_solve(patches, 65, 65)
    holes = np.zeros(len(patches), dtype=bool)
    holes[7] = True
    with pytest.raises(RuntimeError, match=f"tables for {MAX_SOLVE_PATCHES} patches"):
        jigsaw_solve(patches, 65, 65, holes=holes)
    # 3136 patches, a 224^2 image at P=4, stay within the bound
    assert MAX_SOLVE_PATCHES >= 3136


def test_jigsaw_brute_force_2x2():
    # oracle: enumerate all 4! placements; the smooth field has a unique
    # minimal-cost arrangement, which is the original one
    pixels = smooth_image(16, seed=1)
    patches = patches_of(pixels, 8)

    d_right, d_below = seam_tables(np.stack(patches) / 255.0)[:2]

    def total_cost(order):
        # order[slot] = patch; slots row-major in a 2x2 grid
        c = d_right[order[0], order[1]]
        c += d_right[order[2], order[3]]
        c += d_below[order[0], order[2]]
        c += d_below[order[1], order[3]]
        return c

    costs = {o: total_cost(o) for o in itertools.permutations(range(4))}
    best = min(costs, key=costs.get)
    assert best == (0, 1, 2, 3), "fixture is degenerate: identity not optimal"
    ranked = sorted(costs.values())
    assert ranked[1] > ranked[0] * 1.5, "fixture is degenerate: near-tie"

    for seed in range(5):
        rng = np.random.default_rng(seed)
        perm = rng.permutation(4)
        shuffled = [patches[i] for i in perm]
        arr = jigsaw_solve(shuffled, 2, 2)
        # arr places shuffled-list indices; map back to original ids
        assert perm[arr.slots].tolist() == [[0, 1], [2, 3]]


def test_jigsaw_deterministic():
    pixels = smooth_image(24, seed=2)
    patches = patches_of(pixels, 8)
    rng = np.random.default_rng(3)
    perm = rng.permutation(9)
    shuffled = [patches[i] for i in perm]
    a = jigsaw_solve(shuffled, 3, 3)
    b = jigsaw_solve(shuffled, 3, 3)
    assert np.array_equal(a.slots, b.slots)


def test_jigsaw_skips_holes():
    pixels = smooth_image(16, seed=4)
    patches = patches_of(pixels, 8)
    holes = np.array([False, False, True, False])
    arr = jigsaw_solve(patches, 2, 2, holes=holes)
    assert sorted(placed(arr)) == [0, 1, 3]


def test_jigsaw_normalizes_to_origin():
    pixels = smooth_image(16, seed=5)
    arr = jigsaw_solve(patches_of(pixels, 8), 2, 2)
    r, c = np.nonzero(arr.slots >= 0)
    assert r.min() == 0 and c.min() == 0


def test_jigsaw_constant_patches_still_valid():
    # flat input has no boundary signal; the solver must still emit a legal,
    # deterministic arrangement
    patches = [np.full((4, 4, 1), 9, dtype=np.uint8) for _ in range(4)]
    a = jigsaw_solve(patches, 2, 2)
    b = jigsaw_solve(patches, 2, 2)
    assert np.array_equal(a.slots, b.slots)
    assert sorted(placed(a)) == [0, 1, 2, 3]


def test_jigsaw_one_row_and_one_column_grids():
    # the seed pair must be one the grid can hold: side by side in a single
    # row, stacked in a single column; flat patches tie every seam, so the
    # relation order alone would seed a column side by side
    flat = [np.full((4, 4, 1), 9, dtype=np.uint8) for _ in range(4)]
    for patches, rows, cols in ((flat, 4, 1), (flat[:2], 2, 1), (flat[:3], 1, 5)):
        arr = jigsaw_solve(patches, rows, cols)
        assert arr.slots.shape == (rows, cols)
        assert sorted(placed(arr)) == list(range(len(patches)))


def test_place_rejects_tables_that_are_not_n_by_n():
    # tables that are not square, too few or too many dimensions, and other
    # than four tables
    for tables in (np.zeros((4, 3, 4)), np.zeros((4, 4, 3)), np.zeros((4, 3)), np.zeros(3),
                   np.float64(0.0), np.zeros((4, 3, 3, 1)), np.zeros((2, 3, 3)),
                   np.zeros((5, 3, 3))):
        with pytest.raises(GeometryError, match="not n x n"):
            place(tables, 2, 2)


@pytest.mark.parametrize("n, rows, cols",
                         [(0, 2, 2), (1, 2, 2), (5, 2, 2), (3, 1, 2), (2, -1, -2)])
def test_place_rejects_patch_counts_outside_two_to_slots(n, rows, cols):
    with pytest.raises(GeometryError, match="a placement needs 2"):
        place(relation_tables(np.zeros((n, n)), np.zeros((n, n))), rows, cols)


def test_place_leaves_tables_unchanged():
    patches = patches_of(smooth_image(24, seed=2), 8)
    perm = np.random.default_rng(3).permutation(9)
    tables = seam_tables(np.stack([patches[i] / 255.0 for i in perm]))
    want = tables.copy()
    found = place(tables, 3, 3)
    assert np.array_equal(tables, want)
    assert np.array_equal(found.slots, jigsaw_solve([patches[i] for i in perm], 3, 3).slots)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_jigsaw_rejects_non_finite_float_patches(monkeypatch, bad):
    # checked before the seam tables are built, which would carry the NaN
    def no_tables(stack):
        raise RuntimeError("tables built")

    monkeypatch.setattr(attacks, "seam_tables", no_tables)
    patches = np.full((4, 2, 2, 3), 0.5)
    patches[2, 1, 0, 1] = bad
    with pytest.raises(DataError, match="NaN or inf"):
        jigsaw_solve(patches, 2, 2)


@pytest.mark.parametrize("entry, at", [(np.nan, (0, 1)), (np.nan, (2, 2)), (-np.inf, (1, 0)),
                                       (-np.inf, (3, 3)), (np.inf, (2, 3))])
@pytest.mark.parametrize("which", ["right", "below", "left", "above"])
def test_place_rejects_non_finite_table_entries(entry, at, which):
    # a placed patch scores +inf, and -inf + inf would be NaN; +inf stays
    # allowed on the diagonal, where seam_tables puts it; each of the four
    # tables is checked, not only the right and below ones
    table = np.full((4, 4), 0.5)
    np.fill_diagonal(table, np.inf)
    tables = relation_tables(table, table)
    tables[["right", "below", "left", "above"].index(which)][at] = entry
    with pytest.raises(DataError, match="seam table"):
        place(tables, 2, 2)


# ---------------------------------------------------------------- metrics


def test_metrics_perfect_match():
    truth = identity_arrangement(2, 3)
    m = puzzle_metrics(identity_arrangement(2, 3), truth)
    assert m == {"direct": 1.0, "neighbor": 1.0}


def test_metrics_translation_counts_as_direct():
    truth = Arrangement([[0, 1, -1], [-1, -1, -1]])
    shifted = Arrangement([[-1, -1, -1], [-1, 0, 1]])
    m = puzzle_metrics(shifted, truth)
    assert m["direct"] == 1.0
    assert m["neighbor"] == 1.0


def test_metrics_partial_neighbor():
    truth = identity_arrangement(1, 3)
    # swap last two patches: pair (0,1) broken, pair (1,2) broken
    found = Arrangement([[0, 2, 1]])
    m = puzzle_metrics(found, truth)
    assert m["direct"] == pytest.approx(1 / 3)
    assert m["neighbor"] == 0.0


def test_metrics_missing_patches_hurt_neighbor_not_crash():
    truth = identity_arrangement(2, 2)
    found = Arrangement([[0, 1], [-1, -1]])
    m = puzzle_metrics(found, truth)
    assert m["direct"] == pytest.approx(0.5)
    assert m["neighbor"] == pytest.approx(1 / 4)


def test_metrics_geometry_mismatch():
    with pytest.raises(GeometryError):
        puzzle_metrics(identity_arrangement(2, 2), identity_arrangement(2, 3))


def test_metrics_random_arrangement_near_chance():
    # Monte Carlo: a uniformly random bijection onto the full grid scores
    # direct accuracy near 1/n (best translation inflates it slightly)
    rng = np.random.default_rng(6)
    rows, cols = 3, 4
    n = rows * cols
    truth = identity_arrangement(rows, cols)
    vals = []
    for _ in range(300):
        perm = rng.permutation(n)
        m = puzzle_metrics(Arrangement(perm.reshape(rows, cols)), truth)
        vals.append(m["direct"])
    mean = float(np.mean(vals))
    assert 1 / n * 0.8 < mean < 4 / n, f"direct chance level off: {mean:.4f}"


def test_dump_arrangement_format():
    arr = Arrangement([[1, 0]])
    text = dump_arrangement(arr, {"direct": 0.5, "neighbor": 0.25})
    assert text.splitlines() == [
        "slot 0 0 -> patch 1",
        "slot 0 1 -> patch 0",
        "direct=0.500000",
        "neighbor=0.250000",
    ]


# ---------------------------------------------------------------- metrics oracle
#
# The dict form the arrangement had before it became a slot array, kept as
# the oracle: placement maps (row, col) -> patch index, missing slots empty.


def oracle_metrics(found, truth):
    """puzzle_metrics over two placement dicts."""
    t_slot = {i: rc for rc, i in truth.items()}
    f_slot = {i: rc for rc, i in found.items()}
    common = [i for i in t_slot if i in f_slot]
    total = len(t_slot)
    direct = 0.0
    if common and total:
        shifts = {}
        for i in common:
            tr, tc = t_slot[i]
            fr, fc = f_slot[i]
            d = (tr - fr, tc - fc)
            shifts[d] = shifts.get(d, 0) + 1
        direct = max(shifts.values()) / total
    pairs = 0
    kept = 0
    for (r, c), i in truth.items():
        for rel, s in (("right", (r, c + 1)), ("below", (r + 1, c))):
            if s not in truth:
                continue
            j = truth[s]
            pairs += 1
            if i not in f_slot or j not in f_slot:
                continue
            fr, fc = f_slot[i]
            want = (fr, fc + 1) if rel == "right" else (fr + 1, fc)
            if f_slot[j] == want:
                kept += 1
    neighbor = kept / pairs if pairs else 1.0
    return {"direct": direct, "neighbor": neighbor}


def oracle_dump(placement, metrics):
    lines = [f"slot {r} {c} -> patch {placement[(r, c)]}" for r, c in sorted(placement)]
    lines.append(f"direct={metrics['direct']:.6f}")
    lines.append(f"neighbor={metrics['neighbor']:.6f}")
    return "\n".join(lines) + "\n"


def oracle_truth(key, cols, kept):
    return {(key.perm[i] // cols, key.perm[i] % cols): int(i) for i in kept}


def as_placement(slots):
    return {(int(r), int(c)): int(slots[r, c]) for r, c in np.argwhere(slots >= 0)}


@st.composite
def puzzle_pairs(draw):
    """(found, truth) slot arrays on one grid of up to 6x6, -1 for empty.

    The truth holds distinct patches of 0..n+1 on any subset of slots. The
    found side is either an independent random placement, or the truth
    shifted, with a few slots swapped and some patches dropped, so that
    translations, kept pairs and patches missing on either side all occur.
    """
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    n = rows * cols
    ids = np.array(draw(st.permutations(range(n + 2)))[:n])
    filled = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    truth = np.where(filled, ids, -1).reshape(rows, cols)
    if draw(st.booleans()):
        ids = np.array(draw(st.permutations(range(n + 2)))[:n])
        filled = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        return np.where(filled, ids, -1).reshape(rows, cols), truth
    dr, dc = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
    found = np.full((rows, cols), -1)
    src = truth[max(0, -dr):rows - max(0, dr), max(0, -dc):cols - max(0, dc)]
    found[max(0, dr):max(0, dr) + src.shape[0], max(0, dc):max(0, dc) + src.shape[1]] = src
    flat = found.reshape(-1)
    for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=3)):
        flat[a], flat[b] = flat[b], flat[a]
    for a in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        flat[a] = -1
    return found, truth


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(puzzle_pairs())
def test_metrics_and_dump_match_dict_oracle(pair):
    found, truth = pair
    got = puzzle_metrics(Arrangement(found), Arrangement(truth))
    want = oracle_metrics(as_placement(found), as_placement(truth))
    assert type(got["direct"]) is float and type(got["neighbor"]) is float
    assert got == want
    want_text = oracle_dump(as_placement(found), want)
    assert dump_arrangement(Arrangement(found), got) == want_text


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**64 - 1), st.data())
def test_truth_for_key_matches_dict_oracle(rows, cols, seed, data):
    n = rows * cols
    key = gen_key(seed, n)
    holes = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    got = truth_for_key(key, rows, cols, holes=holes)
    assert as_placement(got.slots) == oracle_truth(key, cols, np.flatnonzero(~holes))
    got = truth_for_key(key, rows, cols)
    assert as_placement(got.slots) == oracle_truth(key, cols, range(n))


# ---------------------------------------------------------------- grad leak


def test_gradleak_recovers_rank_one_direction():
    rng = np.random.default_rng(7)
    for _ in range(10):
        x = rng.standard_normal(48)
        g = rng.standard_normal(16)
        got = grad_leak_invert(np.outer(x, g))
        want = x / np.linalg.norm(x)
        peak = int(np.argmax(np.abs(want)))
        if want[peak] < 0:
            want = -want
        assert np.max(np.abs(got - want)) < 1e-8


def test_gradleak_sign_convention():
    rng = np.random.default_rng(8)
    v = grad_leak_invert(np.outer(rng.standard_normal(10), rng.standard_normal(4)))
    assert v[int(np.argmax(np.abs(v)))] > 0


def test_gradleak_zero_gradient_returns_none():
    assert grad_leak_invert(np.zeros((8, 4))) is None


def test_gradleak_matches_svd_on_general_matrix():
    rng = np.random.default_rng(9)
    g = rng.standard_normal((12, 5))
    got = grad_leak_invert(g)
    u = np.linalg.svd(g)[0][:, 0]
    peak = int(np.argmax(np.abs(u)))
    if u[peak] < 0:
        u = -u
    assert np.max(np.abs(got - u)) < 1e-6


def test_gradleak_exact_when_top_singular_values_are_close():
    # draw 36 of the 12x5 standard-normal matrices from default_rng(1) has
    # (s2/s1)^2 = 0.94, so a hundred power-iteration steps from a ones start
    # still miss the leading singular vector by 2.6e-4
    g = np.random.default_rng(1).standard_normal((37, 12, 5))[36]
    u = np.linalg.svd(g)[0][:, 0]
    if u[int(np.argmax(np.abs(u)))] < 0:
        u = -u
    assert np.max(np.abs(grad_leak_invert(g) - u)) < 1e-12


def test_gradleak_rejects_non_matrix():
    with pytest.raises(ShapeError):
        grad_leak_invert(np.zeros(8))


# ---------------------------------------------------------------- collisions


def test_collision_means_reproduce_ciphertext():
    rng = np.random.default_rng(10)
    mixed = rng.random((4, 4, 3))
    for seed in (0, 1, 2):
        subs = mi_collision(mixed, seed=seed)
        assert len(subs) == 4
        mean = sum(subs) / 4.0
        assert np.max(np.abs(mean - mixed)) < 1e-12


def test_collision_distinct_across_seeds_and_from_trivial():
    rng = np.random.default_rng(11)
    mixed = rng.random((4, 4, 1))
    a = mi_collision(mixed, seed=0)
    b = mi_collision(mixed, seed=1)
    assert max(np.max(np.abs(x - y)) for x, y in zip(a, b)) > 1e-3
    # distinct from the trivial preimage (four copies of the mix)
    assert max(np.max(np.abs(x - mixed)) for x in a) > 1e-3


def test_collision_zero_amplitude_is_trivial():
    rng = np.random.default_rng(12)
    mixed = rng.random((2, 2, 1))
    subs = mi_collision(mixed, seed=3, amplitude=0.0)
    for s in subs:
        assert np.array_equal(s, mixed)


def test_collision_respects_amplitude_bound():
    rng = np.random.default_rng(13)
    mixed = rng.random((4, 4, 1))
    subs = mi_collision(mixed, seed=4, amplitude=0.1)
    for s in subs[:3]:
        assert np.max(np.abs(s - mixed)) <= 0.1 + 1e-15
    assert np.max(np.abs(subs[3] - mixed)) <= 0.3 + 1e-15


@pytest.mark.parametrize("amplitude", [float("nan"), float("inf"), -0.1, 1.5])
def test_collision_rejects_amplitude_outside_unit_interval(amplitude):
    with pytest.raises(ConfigError, match="amplitude"):
        mi_collision(np.full((2, 2, 1), 0.5), seed=1, amplitude=amplitude)


@pytest.mark.parametrize("seed,digest", [
    (5, "1133095dd9e7a5fe3ef4d71d6b9e0072cf351f21d016f21ca0d850838f20f958"),
    (2**64 - 1, "e9aeb5f0cd535f60127184887bfcec44b3210e63f3a763686c86d9cbdb3c42ee"),
])
def test_collision_bytes_pinned(seed, digest):
    # taken from the per-element next_unit loop the block draw replaced
    mixed = np.linspace(0.0, 1.0, 2 * 4 * 4 * 3).reshape(2, 4, 4, 3)
    h = hashlib.sha256()
    for sub in mi_collision(mixed, seed=seed):
        h.update(sub.tobytes())
    assert h.hexdigest() == digest


def test_collision_deltas_are_successive_units():
    mixed = np.full((3, 2, 1), 0.5)
    rng = SplitMix64(77)
    units = np.array([rng.next_unit() for _ in range(18)]).reshape(3, 3, 2, 1)
    subs = mi_collision(mixed, seed=77, amplitude=0.5)
    for sub, u in zip(subs, units):
        assert np.array_equal(sub, mixed + (u * 2.0 - 1.0) * 0.5)
