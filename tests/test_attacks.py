"""Tests for the jigsaw solver, gradient-leakage inversion, and MI collisions."""

import itertools

import numpy as np
import pytest

from picrypt.attacks import (
    Arrangement,
    dump_arrangement,
    edge_dissimilarity,
    grad_leak_invert,
    jigsaw_solve,
    mi_collision,
    puzzle_metrics,
)
from picrypt.errors import GeometryError, ShapeError
from picrypt.imgio import Image, split_patches


def identity_arrangement(rows, cols, indices=None):
    """Each patch index at its row-major slot, restricted to ``indices`` if
    given: the ground truth of an unshuffled puzzle."""
    keep = range(rows * cols) if indices is None else sorted(set(indices))
    return Arrangement(rows=rows, cols=cols,
                       placement={(i // cols, i % cols): i for i in keep})


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
    Arrangement(rows=2, cols=2, placement={(0, 0): 3, (1, 1): 0})
    with pytest.raises(GeometryError):
        Arrangement(rows=2, cols=2, placement={(2, 0): 0})
    with pytest.raises(GeometryError):
        Arrangement(rows=2, cols=2, placement={(0, 0): 1, (0, 1): 1})


def test_slot_of_inverts_placement():
    arr = Arrangement(rows=2, cols=3, placement={(0, 2): 5, (1, 0): 1})
    assert arr.slot_of() == {5: (0, 2), 1: (1, 0)}


def test_identity_arrangement_row_major():
    arr = identity_arrangement(2, 3)
    assert arr.placement[(0, 0)] == 0
    assert arr.placement[(0, 2)] == 2
    assert arr.placement[(1, 0)] == 3
    partial = identity_arrangement(2, 3, indices=[1, 4])
    assert set(partial.placement.values()) == {1, 4}


# ---------------------------------------------------------------- edges


def test_edge_dissimilarity_matches_naive_loop():
    rng = np.random.default_rng(0)
    a = rng.integers(0, 256, size=(6, 6, 3), dtype=np.uint8)
    b = rng.integers(0, 256, size=(6, 6, 3), dtype=np.uint8)
    want_r = 0.0
    want_b = 0.0
    for i in range(6):
        for ch in range(3):
            want_r += ((int(a[i, 5, ch]) - int(b[i, 0, ch])) / 255.0) ** 2
            want_b += ((int(a[5, i, ch]) - int(b[0, i, ch])) / 255.0) ** 2
    assert abs(edge_dissimilarity(a, b, "right") - want_r) < 1e-12
    assert abs(edge_dissimilarity(a, b, "below") - want_b) < 1e-12


def test_edge_dissimilarity_constants():
    z = np.zeros((4, 4, 1), dtype=np.uint8)
    f = np.full((4, 4, 1), 255, dtype=np.uint8)
    assert edge_dissimilarity(z, z, "right") == 0.0
    assert abs(edge_dissimilarity(z, f, "right") - 4.0) < 1e-12
    assert abs(edge_dissimilarity(z, f, "below") - 4.0) < 1e-12


def test_edge_dissimilarity_validates_inputs():
    z = np.zeros((4, 4, 1), dtype=np.uint8)
    with pytest.raises(ValueError):
        edge_dissimilarity(z, z, "diagonal")
    with pytest.raises(ShapeError):
        edge_dissimilarity(z, np.zeros((5, 5, 1), dtype=np.uint8), "right")


# ---------------------------------------------------------------- solver


def test_jigsaw_single_patch():
    p = np.zeros((4, 4, 1), dtype=np.uint8)
    arr = jigsaw_solve([p], 1, 1)
    assert arr.placement == {(0, 0): 0}


def test_jigsaw_rejects_overfull():
    p = np.zeros((4, 4, 1), dtype=np.uint8)
    with pytest.raises(GeometryError):
        jigsaw_solve([p] * 5, 2, 2)


def test_jigsaw_brute_force_2x2():
    # oracle: enumerate all 4! placements; the smooth field has a unique
    # minimal-cost arrangement, which is the original one
    pixels = smooth_image(16, seed=1)
    patches = patches_of(pixels, 8)

    def total_cost(order):
        # order[slot] = patch; slots row-major in a 2x2 grid
        c = edge_dissimilarity(patches[order[0]], patches[order[1]], "right")
        c += edge_dissimilarity(patches[order[2]], patches[order[3]], "right")
        c += edge_dissimilarity(patches[order[0]], patches[order[2]], "below")
        c += edge_dissimilarity(patches[order[1]], patches[order[3]], "below")
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
        got = {rc: int(perm[i]) for rc, i in arr.placement.items()}
        assert got == {(0, 0): 0, (0, 1): 1, (1, 0): 2, (1, 1): 3}


def test_jigsaw_deterministic():
    pixels = smooth_image(24, seed=2)
    patches = patches_of(pixels, 8)
    rng = np.random.default_rng(3)
    perm = rng.permutation(9)
    shuffled = [patches[i] for i in perm]
    a = jigsaw_solve(shuffled, 3, 3)
    b = jigsaw_solve(shuffled, 3, 3)
    assert a.placement == b.placement


def test_jigsaw_skips_holes():
    pixels = smooth_image(16, seed=4)
    patches = patches_of(pixels, 8)
    holes = np.array([False, False, True, False])
    arr = jigsaw_solve(patches, 2, 2, holes=holes)
    assert 2 not in arr.placement.values()
    assert len(arr.placement) == 3


def test_jigsaw_normalizes_to_origin():
    pixels = smooth_image(16, seed=5)
    arr = jigsaw_solve(patches_of(pixels, 8), 2, 2)
    assert min(r for r, _ in arr.placement) == 0
    assert min(c for _, c in arr.placement) == 0


def test_jigsaw_constant_patches_still_valid():
    # flat input has no boundary signal; the solver must still emit a legal,
    # deterministic arrangement
    patches = [np.full((4, 4, 1), 9, dtype=np.uint8) for _ in range(4)]
    a = jigsaw_solve(patches, 2, 2)
    b = jigsaw_solve(patches, 2, 2)
    assert a.placement == b.placement
    assert sorted(a.placement.values()) == [0, 1, 2, 3]


def test_jigsaw_one_row_and_one_column_grids():
    # the seed pair must be one the grid can hold: side by side in a single
    # row, stacked in a single column; flat patches tie every seam, so the
    # relation order alone would seed a column side by side
    flat = [np.full((4, 4, 1), 9, dtype=np.uint8) for _ in range(4)]
    for patches, rows, cols in ((flat, 4, 1), (flat[:2], 2, 1), (flat[:3], 1, 5)):
        arr = jigsaw_solve(patches, rows, cols)
        assert sorted(arr.placement.values()) == list(range(len(patches)))


# ---------------------------------------------------------------- metrics


def test_metrics_perfect_match():
    truth = identity_arrangement(2, 3)
    m = puzzle_metrics(identity_arrangement(2, 3), truth)
    assert m == {"direct": 1.0, "neighbor": 1.0}


def test_metrics_translation_counts_as_direct():
    truth = Arrangement(rows=2, cols=3, placement={(0, 0): 0, (0, 1): 1})
    shifted = Arrangement(rows=2, cols=3, placement={(1, 1): 0, (1, 2): 1})
    m = puzzle_metrics(shifted, truth)
    assert m["direct"] == 1.0
    assert m["neighbor"] == 1.0


def test_metrics_partial_neighbor():
    truth = identity_arrangement(1, 3)
    # swap last two patches: pair (0,1) broken, pair (1,2) broken
    found = Arrangement(rows=1, cols=3, placement={(0, 0): 0, (0, 1): 2, (0, 2): 1})
    m = puzzle_metrics(found, truth)
    assert m["direct"] == pytest.approx(1 / 3)
    assert m["neighbor"] == 0.0


def test_metrics_missing_patches_hurt_neighbor_not_crash():
    truth = identity_arrangement(2, 2)
    found = Arrangement(rows=2, cols=2, placement={(0, 0): 0, (0, 1): 1})
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
        placement = {(i // cols, i % cols): int(perm[i]) for i in range(n)}
        m = puzzle_metrics(Arrangement(rows=rows, cols=cols, placement=placement), truth)
        vals.append(m["direct"])
    mean = float(np.mean(vals))
    assert 1 / n * 0.8 < mean < 4 / n, f"direct chance level off: {mean:.4f}"


def test_dump_arrangement_format():
    arr = Arrangement(rows=1, cols=2, placement={(0, 0): 1, (0, 1): 0})
    text = dump_arrangement(arr, {"direct": 0.5, "neighbor": 0.25})
    assert text.splitlines() == [
        "slot 0 0 -> patch 1",
        "slot 0 1 -> patch 0",
        "direct=0.500000",
        "neighbor=0.250000",
    ]


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
    got = grad_leak_invert(g, iters=500, tol=1e-14)
    u = np.linalg.svd(g)[0][:, 0]
    peak = int(np.argmax(np.abs(u)))
    if u[peak] < 0:
        u = -u
    assert np.max(np.abs(got - u)) < 1e-6


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
