"""The incremental jigsaw solver against the greedy loops it replaced.

``reference_jigsaw_solve`` is the solver as it was before it kept state
between placements: after every placement it rebuilds the bounding box and
the frontier and rescores every frontier slot against every free patch.
It is kept here, test-only, as the oracle: the incremental solver must
produce the same arrangement, exact score ties included. Its seed pair
skips a relation the grid cannot hold, as the solver's does; without that,
a one-row or one-column grid could be seeded with a pair it cannot hold.

``scan_place`` is ``place`` as it was before its frontier was indexed: it
keeps the cached keys but gathers the free patches' scores and scans the
whole frontier for the minimum. It is fast enough to check ``place`` on
784- and 3136-patch grids, where the full rescore is not.
``broadcast_tables`` is the one-shot (n, n, edge) form of the right and
below tables of ``seam_tables``, which must match it bit for bit.
``relation_tables`` stacks a right and a below table with their transposes
into the (4, n, n) form ``place`` reads.
"""

import re
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import picrypt.attacks
from picrypt.attacks import (
    _NEIGHBORS,
    _TABLE_BLOCK,
    Arrangement,
    dump_arrangement,
    jigsaw_solve,
    place,
    seam_tables,
)
from picrypt.cipher import drop_patches, gen_key, rs_encrypt
from picrypt.errors import DataError, GeometryError
from picrypt.harness import gen_puzzle_corpus
from picrypt.imgio import Image, split_patches
from picrypt.rng import SplitMix64

REL_RANK = {"right": 0, "below": 1, "left": 2, "above": 3}

# the reference solver takes a patch list with HOLE entries for dropped patches
HOLE = None


def broadcast_tables(patches):
    """Both seam tables from one (n, n, edge) broadcast."""
    n = patches.shape[0]
    last_col = patches[:, :, -1, :].reshape(n, -1)
    first_col = patches[:, :, 0, :].reshape(n, -1)
    last_row = patches[:, -1, :, :].reshape(n, -1)
    first_row = patches[:, 0, :, :].reshape(n, -1)
    d_right = ((last_col[:, None, :] - first_col[None, :, :]) ** 2).sum(axis=2)
    d_below = ((last_row[:, None, :] - first_row[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(d_right, np.inf)
    np.fill_diagonal(d_below, np.inf)
    return d_right, d_below


def relation_tables(d_right, d_below):
    """The (4, n, n) right, below, left, above stack ``place`` reads."""
    return np.stack([d_right, d_below, d_right.T, d_below.T])


def reference_jigsaw_solve(patches, rows, cols):
    """Greedy kernel-growing solver that rescores the whole frontier per step."""
    idx_map = [i for i, p in enumerate(patches) if p is not HOLE]
    n = len(idx_map)
    if n > rows * cols:
        raise GeometryError(f"{n} patches cannot fit {rows}x{cols} slots")
    slots = np.full((rows, cols), -1)
    if n == 0:
        return Arrangement(slots)
    stack = np.stack([patches[i] for i in idx_map]) / 255.0
    if n == 1:
        slots[0, 0] = idx_map[0]
        return Arrangement(slots)

    d_right, d_below = broadcast_tables(stack)

    best = None
    for rel, table, room in (("right", d_right, cols > 1), ("below", d_below, rows > 1)):
        if not room:
            continue
        lo = table.min()
        ii, jj = np.unravel_index(np.argmin(table), table.shape)
        key = (lo, int(ii), int(jj), REL_RANK[rel])
        if best is None or key < best:
            best = key
    _, si, sj, srel = best
    placed = {(0, 0): si}
    if srel == REL_RANK["right"]:
        placed[(0, 1)] = sj
    else:
        placed[(1, 0)] = sj
    unplaced = np.ones(n, dtype=bool)
    unplaced[si] = unplaced[sj] = False

    while unplaced.any():
        lo_r = min(r for r, _ in placed)
        hi_r = max(r for r, _ in placed)
        lo_c = min(c for _, c in placed)
        hi_c = max(c for _, c in placed)
        free = np.flatnonzero(unplaced)

        frontier = {}
        for (r, c) in placed:
            for dr, dc in ((0, 1), (1, 0), (0, -1), (-1, 0)):
                s = (r + dr, c + dc)
                if s in placed or s in frontier:
                    continue
                height = max(hi_r, s[0]) - min(lo_r, s[0]) + 1
                width = max(hi_c, s[1]) - min(lo_c, s[1]) + 1
                if height <= rows and width <= cols:
                    frontier[s] = True

        best = None
        for (r, c) in sorted(frontier):
            score = np.zeros(len(free))
            rel_rank = 4
            for rel, (nr, nc) in (
                ("right", (r, c - 1)),
                ("below", (r - 1, c)),
                ("left", (r, c + 1)),
                ("above", (r + 1, c)),
            ):
                if (nr, nc) not in placed:
                    continue
                q = placed[(nr, nc)]
                if rel == "right":
                    score += d_right[q, free]
                elif rel == "below":
                    score += d_below[q, free]
                elif rel == "left":
                    score += d_right[free, q]
                else:
                    score += d_below[free, q]
                rel_rank = min(rel_rank, REL_RANK[rel])
            k = int(np.argmin(score))
            key = (float(score[k]), int(free[k]), rel_rank, r, c)
            if best is None or key < best:
                best = key
        _, pick, _, r, c = best
        placed[(r, c)] = pick
        unplaced[pick] = False

    lo_r = min(r for r, _ in placed)
    lo_c = min(c for _, c in placed)
    for (r, c), i in placed.items():
        slots[r - lo_r, c - lo_c] = idx_map[i]
    return Arrangement(slots)


def scan_place(d_right, d_below, rows, cols):
    """Greedy placement with cached slot keys, a gathered score over the free
    patches and a scan of the whole frontier for the minimum."""
    n = len(d_right)
    best = None
    for rank, (table, room) in enumerate(((d_right, cols > 1), (d_below, rows > 1))):
        if not room:
            continue
        ii, jj = np.unravel_index(np.argmin(table), table.shape)
        key = (table.min(), int(ii), int(jj), rank)
        if best is None or key < best:
            best = key
    _, si, sj, srel = best
    placed = {(0, 0): si, _NEIGHBORS[srel]: sj}
    unplaced = np.ones(n, dtype=bool)
    unplaced[si] = unplaced[sj] = False
    free = np.flatnonzero(unplaced)
    lo_r = lo_c = 0
    hi_r, hi_c = _NEIGHBORS[srel]
    seams = tuple(zip(_NEIGHBORS, (d_right, d_below, d_right.T, d_below.T)))

    def fits(s):
        height = max(hi_r, s[0]) - min(lo_r, s[0]) + 1
        width = max(hi_c, s[1]) - min(lo_c, s[1]) + 1
        return height <= rows and width <= cols

    def slot_key(r, c):
        score = np.zeros(len(free))
        rel_rank = 4
        for rank, ((dr, dc), table) in enumerate(seams):
            q = placed.get((r - dr, c - dc))
            if q is not None:
                score += table[q, free]
                rel_rank = min(rel_rank, rank)
        k = int(np.argmin(score))
        return (float(score[k]), int(free[k]), rel_rank, r, c)

    def open_neighbors(r, c):
        for dr, dc in _NEIGHBORS:
            s = (r + dr, c + dc)
            if s not in placed and fits(s):
                yield s

    frontier = {}
    stale = {s for rc in placed for s in open_neighbors(*rc)}
    while free.size:
        for s in stale:
            frontier[s] = slot_key(*s)
        _, pick, _, r, c = min(frontier.values())
        placed[(r, c)] = pick
        del frontier[(r, c)]
        unplaced[pick] = False
        free = np.flatnonzero(unplaced)
        if not (lo_r <= r <= hi_r and lo_c <= c <= hi_c):
            lo_r, hi_r = min(lo_r, r), max(hi_r, r)
            lo_c, hi_c = min(lo_c, c), max(hi_c, c)
            frontier = {s: key for s, key in frontier.items() if fits(s)}
        stale = {s for s, key in frontier.items() if key[1] == pick}
        stale.update(open_neighbors(r, c))

    slots = np.full((rows, cols), -1, dtype=np.int64)
    for (r, c), i in placed.items():
        slots[r - lo_r, c - lo_c] = i
    return Arrangement(slots)


def assert_same_solve(patches, rows, cols):
    """``patches`` is a list with HOLE entries; the solver gets it as one
    array with zeros in the hole slots plus the hole mask."""
    want = dump_arrangement(reference_jigsaw_solve(patches, rows, cols))
    holes = np.array([p is HOLE for p in patches])
    blank = np.zeros_like(next(p for p in patches if p is not HOLE))
    array = np.stack([blank if p is HOLE else p for p in patches])
    got = dump_arrangement(jigsaw_solve(array, rows, cols, holes=holes))
    assert got == want


# ---------------------------------------------------------------- tables


# patch sides; each runs at 1 and 3 channels but 128 at 1, so the edge
# lengths cover numpy's pairwise-sum cases: below 8, exactly 8, a multiple
# of 8, not a multiple, exactly 128 and above 128 (144, 150, 192: halved
# first, 150 at 72 rather than 75)
_TABLE_SIDES = [1, 2, 3, 4, 5, 8, 16, 48, 50, 64, 128]


@pytest.mark.parametrize("ps", _TABLE_SIDES)
def test_blocked_tables_equal_broadcast(ps):
    rng = np.random.default_rng(ps)
    # n = 2, and full table blocks plus a partial one
    rows = _TABLE_BLOCK // 130
    assert 130 > rows and 130 % rows
    for ch in (1,) if ps == 128 else (1, 3):
        for n in (2, 130):
            raw = rng.integers(0, 256, size=(n, ps, ps, ch), dtype=np.uint8)
            stack = raw / 255.0
            got = seam_tables(stack)
            want = broadcast_tables(stack)
            assert got.shape == (4, n, n) and got.flags.c_contiguous
            assert np.array_equal(got[0], want[0]), (ps, ch, n)
            assert np.array_equal(got[1], want[1]), (ps, ch, n)
            assert np.array_equal(got[2], got[0].T), (ps, ch, n)
            assert np.array_equal(got[3], got[1].T), (ps, ch, n)
            # uint8 patches are scaled edge by edge, with no wrap; a float32
            # stack's edges are cast before any difference is taken
            assert seam_tables(raw).tobytes() == got.tobytes(), (ps, ch, n)
            narrow = stack.astype(np.float32)
            assert (seam_tables(narrow).tobytes()
                    == seam_tables(narrow.astype(np.float64)).tobytes()), (ps, ch, n)


# ---------------------------------------------------------------- solver


# shapes where the bounding box binds in one or both directions
_BINDING_SHAPES = [(1, 5), (5, 1), (1, 9), (2, 7), (7, 2), (3, 3)]


@st.composite
def puzzles(draw):
    """Small puzzles over a 2-3 level palette, so exact score ties abound."""
    rows, cols = draw(st.sampled_from(_BINDING_SHAPES)
                      | st.tuples(st.integers(1, 4), st.integers(1, 4)))
    n = draw(st.integers(1, rows * cols))
    ps = draw(st.integers(1, 3))
    ch = draw(st.sampled_from([1, 3]))
    palette = draw(st.lists(st.integers(0, 255), min_size=2, max_size=3, unique=True))
    constant = draw(st.booleans())
    patches = []
    for _ in range(n):
        if constant:
            vals = [draw(st.sampled_from(palette))] * (ps * ps * ch)
        else:
            vals = draw(st.lists(st.sampled_from(palette),
                                 min_size=ps * ps * ch, max_size=ps * ps * ch))
        patches.append(np.array(vals, dtype=np.uint8).reshape(ps, ps, ch))
    for pos in sorted(draw(st.lists(st.integers(0, n), max_size=3)), reverse=True):
        patches.insert(pos, HOLE)
    return patches, rows, cols


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(puzzles())
@example(([np.full((2, 2, 1), 7, dtype=np.uint8)] * 14, 2, 7))
@example(([np.full((1, 1, 1), v, dtype=np.uint8) for v in (0, 255) * 3], 1, 6))
def test_incremental_matches_reference(puzzle):
    assert_same_solve(*puzzle)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(puzzles())
def test_place_on_broadcast_tables_matches_reference(puzzle):
    # place reads only the tables it is given: the one-shot broadcast tables
    # of the puzzle's patches, holes left out, give the reference arrangement
    raw, rows, cols = puzzle
    patches = [p for p in raw if p is not HOLE]
    assume(len(patches) >= 2)
    stack = np.stack(patches) / 255.0
    want = dump_arrangement(reference_jigsaw_solve(patches, rows, cols))
    assert dump_arrangement(place(relation_tables(*broadcast_tables(stack)), rows, cols)) == want


def test_random_partial_grid_matches_reference():
    # noise patches, n well below rows * cols, box binding in one direction
    rng = np.random.default_rng(21)
    patches = list(rng.integers(0, 256, size=(40, 3, 3, 3), dtype=np.uint8))
    assert_same_solve(patches, 5, 12)


@pytest.mark.parametrize("interval", [0, 1, 2])
@pytest.mark.parametrize("drop_ratio", [0.0, 0.1, 0.2])
def test_corpus_cells_match_reference(interval, drop_ratio):
    # one 14x14-patch corpus image per criterion-8 interval/drop cell,
    # shuffled as harness.solve_image does
    pixels = gen_puzzle_corpus(1, 224, seed=3)[0]
    rng = SplitMix64(17 + 3 * interval + int(drop_ratio * 10))
    grid = split_patches(Image(pixels=pixels), 16, interval)
    if drop_ratio > 0.0:
        grid = drop_patches(grid, drop_ratio, rng.next_u64())
    enc = rs_encrypt(grid, gen_key(rng.next_u64(), grid.n_patches))
    patches = [HOLE if hole else p for p, hole in zip(enc.patches, enc.holes)]
    assert_same_solve(patches, grid.rows, grid.cols)


def corpus_tables(ps, interval, drop_ratio, seed):
    """Seam tables of one shuffled 224^2 corpus image, holes left out."""
    pixels = gen_puzzle_corpus(1, 224, seed=3)[0]
    rng = SplitMix64(seed)
    grid = split_patches(Image(pixels=pixels), ps, interval)
    if drop_ratio > 0.0:
        grid = drop_patches(grid, drop_ratio, rng.next_u64())
    enc = rs_encrypt(grid, gen_key(rng.next_u64(), grid.n_patches))
    return seam_tables(enc.patches[~enc.holes] / 255.0), grid.rows, grid.cols


@pytest.mark.parametrize("seed", [5, 29])
@pytest.mark.parametrize("drop_ratio", [0.0, 0.2])
@pytest.mark.parametrize("interval", [0, 1])
def test_place_matches_scan_place_at_p8(interval, drop_ratio, seed):
    # P=8 grids of up to 784 patches, too many for the full-rescore oracle
    tables, rows, cols = corpus_tables(8, interval, drop_ratio, seed)
    want = scan_place(tables[0], tables[1], rows, cols)
    assert np.array_equal(place(tables, rows, cols).slots, want.slots)


def test_place_matches_scan_place_at_p4():
    # 3136 patches: many frontier slots cache the same pick, so the most
    # keys go stale between being pushed and reaching the top of the heap
    tables, rows, cols = corpus_tables(4, 0, 0.0, 5)
    assert len(tables[0]) == 3136
    want = scan_place(tables[0], tables[1], rows, cols)
    assert np.array_equal(place(tables, rows, cols).slots, want.slots)


def test_place_matches_scan_place_on_flat_784():
    # every slot wants the same patch, so each placement rescores the frontier
    stack = np.full((784, 8, 8, 3), 0.5)
    tables = seam_tables(stack)
    want = scan_place(tables[0], tables[1], 28, 28)
    assert np.array_equal(place(tables, 28, 28).slots, want.slots)


def test_place_overflowing_sums_match_scan_place():
    # entries near the float64 maximum: a slot with two or more placed
    # neighbors sums to +inf for every free patch, and must take the lowest
    # free one, as the gathered score does, not a placed one
    rng = np.random.default_rng(8)
    d_right, d_below = rng.uniform(0.9e308, 1e308, size=(2, 25, 25))
    np.fill_diagonal(d_right, np.inf)
    np.fill_diagonal(d_below, np.inf)
    with np.errstate(over="ignore"):
        assert np.isinf(d_right[0, 1] + d_below[0, 1])
        want = scan_place(d_right, d_below, 5, 5)
        assert np.array_equal(place(relation_tables(d_right, d_below), 5, 5).slots, want.slots)


@pytest.mark.parametrize("n, side", [(16, 4), (25, 5)])
def test_place_overflowing_sums_do_not_warn(n, side):
    # finite entries whose sums pass the float64 maximum: no RuntimeWarning
    # reaches the caller, and the arrangement is the gathered score's
    rng = np.random.default_rng(n)
    d_right, d_below = rng.uniform(0.9e308, 1e308, size=(2, n, n))
    with np.errstate(over="ignore"):
        want = scan_place(d_right, d_below, side, side)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = place(relation_tables(d_right, d_below), side, side)
    assert np.array_equal(got.slots, want.slots)


# ---------------------------------------------------------------- threads
# seam_tables fills its two table-and-transpose pairs on two threads: the
# calling one and a worker joined before the call returns; place starts none


def failing_on(fn, where):
    """``fn``, except that a call on the ``where`` thread ("main" or
    "worker") raises RuntimeError."""
    def wrapped(*args, **kwargs):
        main = threading.current_thread() is threading.main_thread()
        if main == (where == "main"):
            raise RuntimeError(f"{where} half failed")
        return fn(*args, **kwargs)
    return wrapped


def shuffled_stack(n=12, side=4):
    return np.random.default_rng(n).random((n, side, side, 3))


@pytest.mark.parametrize("where", ["worker", "main"])
def test_seam_tables_raise_a_failed_half(monkeypatch, where):
    monkeypatch.setattr(picrypt.attacks, "_pairwise_ssd",
                        failing_on(picrypt.attacks._pairwise_ssd, where))
    stack = shuffled_stack()
    before = threading.active_count()
    with pytest.raises(RuntimeError, match=f"{where} half failed"):
        seam_tables(stack)
    with pytest.raises(RuntimeError, match=f"{where} half failed"):
        jigsaw_solve(stack, 3, 4)
    assert threading.active_count() == before


@pytest.mark.parametrize("where", ["worker", "main"])
def test_seam_tables_raise_a_failed_transpose(monkeypatch, where):
    monkeypatch.setattr(np, "copyto", failing_on(np.copyto, where))
    before = threading.active_count()
    with pytest.raises(RuntimeError, match=f"{where} half failed"):
        seam_tables(shuffled_stack())
    with pytest.raises(RuntimeError, match=f"{where} half failed"):
        jigsaw_solve(shuffled_stack(), 3, 4)
    assert threading.active_count() == before


def test_no_thread_outlives_a_solve():
    stack = shuffled_stack()
    before = threading.active_count()
    tables = seam_tables(stack)
    assert threading.active_count() == before
    place(tables, 3, 4)
    assert threading.active_count() == before
    jigsaw_solve(stack, 3, 4)
    assert threading.active_count() == before
    with pytest.raises(DataError):
        place(relation_tables(np.full((12, 12), np.nan), tables[1]), 3, 4)
    assert threading.active_count() == before


def test_a_solve_starts_one_thread_and_place_none(monkeypatch):
    # place reads the four tables it is given: no thread, and no n x n
    # float64 table of its own (its finiteness masks are n x n bools)
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda self: started.append(self) or start(self))
    stack = shuffled_stack(300, 3)
    jigsaw_solve(stack, 20, 20)
    assert len(started) == 1
    tables = seam_tables(stack)
    started.clear()
    tracemalloc.start()
    try:
        place(tables, 20, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert started == []
    assert peak < 300 * 300 * 8


def test_a_solve_keeps_no_float_copy_of_the_patches():
    # seam_tables scales the four edge sets it reads: a float64 copy of
    # these 64 patches of 64x64x3 would be 6.3 MB; the edges, the tables
    # and the scratch peak at 1.75 MB
    patches = np.random.default_rng(4).integers(0, 256, size=(64, 64, 64, 3), dtype=np.uint8)
    tracemalloc.start()
    try:
        jigsaw_solve(patches, 8, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < patches.size * 8


@pytest.mark.parametrize("holes", [None, np.zeros(64, dtype=bool)])
def test_a_solve_with_nothing_masked_copies_no_patch(holes):
    # the 786,432-byte uint8 copy patches[idx_map] took the peak from
    # seam_tables' own 1.75 MB to 2.53 MB
    patches = np.random.default_rng(4).integers(0, 256, size=(64, 64, 64, 3), dtype=np.uint8)
    peaks = []
    for solve in (lambda: seam_tables(patches), lambda: jigsaw_solve(patches, 8, 8, holes=holes)):
        tracemalloc.start()
        try:
            solve()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < peaks[0] + patches.nbytes // 4


@pytest.mark.parametrize("holes", [np.zeros(63, dtype=bool), np.zeros(65, dtype=bool),
                                   np.zeros((8, 8), dtype=bool), np.ones(65, dtype=bool)])
def test_holes_not_one_per_patch_is_geometry_error(holes):
    patches = shuffled_stack(64, 2)
    with pytest.raises(GeometryError, match=re.escape(f"holes of shape {holes.shape} for 64 patches")):
        jigsaw_solve(patches, 8, 8, holes=holes)


def test_seam_tables_under_fast_thread_switching():
    # the halves share no array they write, so no switch order moves a bit
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for n, side in ((40, 2), (300, 3)):
            stack = shuffled_stack(n, side)
            got, want = seam_tables(stack), broadcast_tables(stack)
            assert [t.tobytes() for t in got] == [t.tobytes() for t in relation_tables(*want)]
            assert place(got, 20, 20).slots.tobytes() == scan_place(*want, 20, 20).slots.tobytes()
    finally:
        sys.setswitchinterval(old)


def overflowing_stack():
    # finite values whose squared edge differences overflow in both tables
    return np.random.default_rng(6).uniform(-1e200, 1e200, size=(12, 3, 3, 2))


def serial_both(f, a, b):
    """``attacks._both`` without the thread: both halves here, in order."""
    f(*a)
    f(*b)


def test_seam_tables_worker_keeps_the_callers_errstate():
    stack = overflowing_stack()
    with np.errstate(over="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")
        got = seam_tables(stack)
        want = broadcast_tables(stack)
        with pytest.raises(DataError):  # the tables' off-diagonal infs
            jigsaw_solve(stack, 3, 4)
    for g, w in zip(got, relation_tables(*want)):
        assert np.isinf(g[~np.eye(12, dtype=bool)]).any()
        assert g.tobytes() == w.tobytes()


def test_seam_tables_warn_as_the_serial_halves(monkeypatch):
    # without an errstate, each half warns as it would on one thread
    stack = overflowing_stack()

    def run():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            tables = seam_tables(stack)
        return tables, sorted((w.category.__name__, str(w.message), w.filename, w.lineno)
                              for w in caught)

    got, got_warnings = run()
    before = threading.active_count()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeWarning, match="overflow"):
            seam_tables(stack)
    assert threading.active_count() == before
    monkeypatch.setattr(picrypt.attacks, "_both", serial_both)
    want, want_warnings = run()
    assert got_warnings == want_warnings
    assert {w[1] for w in got_warnings} == {"overflow encountered in multiply"}
    assert [t.tobytes() for t in got] == [t.tobytes() for t in want]
