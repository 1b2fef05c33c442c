"""Adversary suite for the patch ciphers.

Three attacks, each matched to what it can and cannot recover:

* jigsaw: greedy kernel-growing solver that undoes patch shuffling when
  seams carry signal; degrades once gap pixels are discarded between
  patches (interval > 0).
* gradient leakage: for a single patch token through a linear embedding,
  the weight gradient is the rank-one outer product of the input and the
  output gradient, so the input direction is recoverable in closed form.
  Under ``rs`` that input is a plaintext patch in another slot: the attack
  recovers its pixels, and only its position stays hidden.
* mixing collision: constructs distinct sub-patch sets with the same mean,
  demonstrating that inverting the mix is ill-posed even with the key.
"""

from __future__ import annotations

import contextvars
import heapq
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, GeometryError, ShapeError
from .rng import SplitMix64

@dataclass(frozen=True, eq=False)
class Arrangement:
    """A placement of patch indices into a rows x cols slot grid.

    slots[r, c] is the patch index in slot (r, c); -1 marks an empty slot.
    """

    slots: np.ndarray

    def __post_init__(self):
        slots = np.asarray(self.slots)
        if slots.size and not np.can_cast(slots.dtype, np.int64):
            raise GeometryError(f"slots must hold int64 patch indices, got {slots.dtype}")
        slots = slots.astype(np.int64)  # a copy, so the caller's array may change
        if slots.ndim != 2:
            raise GeometryError(f"slots must be a 2-D array, got shape {slots.shape}")
        if (slots < -1).any():
            raise GeometryError("patch index below -1 in slots")
        ids, counts = np.unique(slots[slots >= 0], return_counts=True)
        if (counts > 1).any():
            raise GeometryError(f"patch {ids[counts > 1][0]} placed twice")
        slots.flags.writeable = False
        object.__setattr__(self, "slots", slots)


# seam table entries filled per step. A step of rows = _TABLE_BLOCK // n
# rows holds two (8, rows, n) float64 buffers per table (its partial sums
# and one group of squared differences), at most 0.8 MB each whatever n is
# (of the sizes timed on a 2-core Xeon, the fastest at 784 and 3136 patches)
_TABLE_BLOCK = 12544

# most patches one solve takes: ``seam_tables`` returns four n x n float64
# tables (the two seam tables and contiguous copies of their transposes),
# 512 MiB at this bound (3136 patches need 300 MiB)
MAX_SOLVE_PATCHES = 4096

# numpy's pairwise summation: runs shorter than this are summed in eight
# interleaved partials, longer ones are halved first
_PAIRWISE_BLOCK = 128


def _both(f, a, b):
    """``f(*a)`` on a second thread, in a copy of this thread's context (so
    numpy's errstate), while this one runs ``f(*b)``; joined, and its
    exception raised, before this returns. Callers allocate what ``f`` fills:
    a worker that allocates gets a malloc arena of its own, and more RSS."""
    failed = []

    def work():
        try:
            f(*a)
        except BaseException as exc:
            failed.append(exc)

    worker = threading.Thread(target=contextvars.copy_context().run, args=(work,))
    worker.start()
    try:
        f(*b)
    finally:
        worker.join()
    if failed:
        raise failed[0]


def _pairwise_ssd(a, b, out, part, sq):
    """out[i, j] = sum over k of (a[k, i] - b[k, j])**2, in numpy's order.

    ``a`` is (m, rows) and ``b`` is (m, n); the sum over k follows numpy's
    ``pairwise_sum`` over a contiguous axis of length m, so ``out`` is
    bit-identical to ``((a.T[:, None] - b.T[None]) ** 2).sum(axis=2)``.
    ``part`` and ``sq`` are (8, rows, n) scratch buffers.
    """
    m = len(a)
    if m > _PAIRWISE_BLOCK:  # two halves, the first a multiple of 8 long
        half = m // 2 - (m // 2) % 8
        _pairwise_ssd(a[:half], b[:half], out, part, sq)
        rest = np.empty_like(out)
        _pairwise_ssd(a[half:], b[half:], rest, part, sq)
        out += rest
        return
    whole = 0 if m < 8 else m - m % 8
    if whole:
        # eight partials over whole groups of 8, then summed as
        # ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        np.subtract(a[:8, :, None], b[:8, None, :], out=part)
        np.multiply(part, part, out=part)
        for k in range(8, whole, 8):
            np.subtract(a[k:k + 8, :, None], b[k:k + 8, None, :], out=sq)
            np.multiply(sq, sq, out=sq)
            part += sq
        np.add(part[0::2], part[1::2], out=part[0::2])
        np.add(part[0::4], part[2::4], out=part[0::4])
        np.add(part[0], part[4], out=out)
    else:  # numpy starts from 0.0; 0.0 + x is x for a square x
        np.subtract(a[0, :, None], b[0], out=out)
        np.multiply(out, out, out=out)
        whole = 1
    for k in range(whole, m):  # the rest, in order
        np.subtract(a[k, :, None], b[k], out=sq[0])
        np.multiply(sq[0], sq[0], out=sq[0])
        out += sq[0]


def seam_tables(patches: np.ndarray) -> np.ndarray:
    """(4, n, n) relation tables: right, below, left, above.

    ``tables[0][i, j]`` is the cost of j right of i, ``tables[1][i, j]`` of
    j below i, and tables 2 and 3 are exact copies of their transposes, so
    row q of ``tables[r]`` scores every patch in relation r to patch q.
    ``patches`` is an (n, P, P, C) array, uint8 or float in [0, 1]; only its
    four edge sets are cast to float64, and uint8 ones divided by 255.0. The
    diagonals are inf, so no patch is its own neighbor. Filled a block of
    rows at a time by whole-row elementwise ops over the edge vectors,
    summed in the order of numpy's pairwise sum, so the values are
    bit-identical to a one-shot (n, n, edge) broadcast and ``.sum(axis=2)``
    of the scaled patches. A second thread fills the right table and its
    transpose while this one fills the below pair, each with its own
    scratch; no entry's ops or their order change.
    """
    n = patches.shape[0]

    def edge(e):  # (edge, n): coordinate k of every patch's edge is one row
        out = np.ascontiguousarray(e.reshape(n, -1).T, dtype=np.float64)
        if patches.dtype == np.uint8:
            out /= 255.0
        return out

    last_col, first_col = edge(patches[:, :, -1, :]), edge(patches[:, :, 0, :])
    last_row, first_row = edge(patches[:, -1, :, :]), edge(patches[:, 0, :, :])
    tables = np.empty((4, n, n))
    rows = max(1, _TABLE_BLOCK // max(n, 1))
    block = (8, min(rows, n), n)

    def fill(a, b, out, out_t, part, sq):
        for lo in range(0, n, rows):
            hi = min(n, lo + rows)
            _pairwise_ssd(a[:, lo:hi], b, out[lo:hi], part[:, :hi - lo], sq[:, :hi - lo])
        np.copyto(out_t, out.T)

    _both(fill, (last_col, first_col, tables[0], tables[2], np.empty(block), np.empty(block)),
          (last_row, first_row, tables[1], tables[3], np.empty(block), np.empty(block)))
    tables[:, np.arange(n), np.arange(n)] = np.inf
    return tables


# neighbor offsets of a slot, in the pinned relation order right/below/left/above;
# a relation's rank is its position here
_NEIGHBORS = ((0, 1), (1, 0), (0, -1), (-1, 0))


def place(tables, rows: int, cols: int) -> Arrangement:
    """Greedy kernel-growing placement of n patches given their seam tables.

    ``tables`` is a (4, n, n) stack as ``seam_tables`` returns it; slots of
    the result hold table indices, and the tables are not changed. Seeds
    with the globally minimal pair, then repeatedly places the unplaced
    patch with the smallest cost summed over its already-placed neighbors,
    keeping the kernel's bounding box within rows x cols. Ties break by
    lower patch index, then relation order right/below/left/above, then
    slot coordinates, so results are deterministic. An entry that is NaN or
    -inf, or +inf off the diagonal, is a DataError.

    Each frontier slot keeps its best (score, patch, relation, slot) key in
    one heap, checked when it reaches the top: a key its slot has replaced
    is skipped, a slot the bounding box no longer admits is dropped, and a
    slot whose cached pick was placed is rescored. Placing a patch raises
    only the keys that cached it, and keys are unique, so the first key to
    pass is the minimum. On natural images a placement costs a few O(n)
    rescores (about three at 784 patches, four at 3136), so a solve is
    O(n^2); on flat inputs every slot wants one patch and all are rescored.
    """
    tables = np.asarray(tables)
    n = tables.shape[-1] if tables.ndim else 0
    if tables.shape != (4, n, n):
        raise GeometryError(f"seam tables {tables.shape} are not n x n, in a (4, n, n) stack")
    if not 2 <= n <= rows * cols or rows < 1 or cols < 1:
        raise GeometryError(f"{n} patches: a placement needs 2 to {rows}x{cols}")
    for table in tables:
        # a placed patch scores +inf below: -inf + inf would be NaN
        finite = np.isfinite(table)
        np.fill_diagonal(finite, finite.diagonal() | (table.diagonal() == np.inf))
        if not finite.all():
            raise DataError("seam table holds NaN, -inf or an off-diagonal inf")

    # seed: minimal pair over the relations the grid can hold (a one-row or
    # one-column grid admits only one); tie key (score, i, j, relation)
    def seed_key(rank):
        i, j = np.unravel_index(np.argmin(tables[rank]), (n, n))
        return tables[rank, i, j], int(i), int(j), rank

    _, si, sj, srel = min(seed_key(r) for r, room in enumerate((cols > 1, rows > 1)) if room)
    placed = {(0, 0): si, _NEIGHBORS[srel]: sj}
    # +inf for a placed patch, 0.0 for a free one: adding it to a score row
    # masks the placed patches, and x + 0.0 is the 0.0 + x of a sum from zero
    taken = np.zeros(n)
    taken[[si, sj]] = np.inf
    lo_r = lo_c = 0
    hi_r, hi_c = _NEIGHBORS[srel]
    seams = tuple(zip(_NEIGHBORS, tables))
    buf = np.empty(n)

    def fits(s):
        height = max(hi_r, s[0]) - min(lo_r, s[0]) + 1
        width = max(hi_c, s[1]) - min(lo_c, s[1]) + 1
        return height <= rows and width <= cols

    def slot_key(r, c):
        # placed neighbors summed in relation order, argmin over free patches
        rel_rank = None
        for rank, ((dr, dc), table) in enumerate(seams):
            q = placed.get((r - dr, c - dc))
            if q is None:
                continue
            if rel_rank is None:
                score = np.add(table[q], taken, out=buf)
                rel_rank = rank
            else:
                score += table[q]
        k = int(score.argmin())  # first occurrence = lowest patch index
        if taken[k]:  # every free sum overflowed to inf: the lowest free patch
            k = int(taken.argmin())
        return (float(score[k]), k, rel_rank, r, c)

    def open_neighbors(r, c):
        # empty slots next to (r, c) that the bounding box admits
        for dr, dc in _NEIGHBORS:
            s = (r + dr, c + dc)
            if s not in placed and fits(s):
                yield s

    # live: each slot's last pushed key; heap: every key pushed, checked when
    # popped (a placed or dropped slot is never pushed again)
    live = {}
    heap = []

    def push(s):
        live[s] = key = slot_key(*s)
        heapq.heappush(heap, key)

    # finite entries may sum past the float64 maximum: such a score is +inf,
    # as slot_key expects, and not worth a warning
    with np.errstate(over="ignore"):
        for s in {s for rc in placed for s in open_neighbors(*rc)}:
            push(s)
        for _ in range(n - 2):
            while True:
                key = heapq.heappop(heap)
                s = key[3:]
                if live[s] is not key or not fits(s):
                    continue  # replaced by a later push, or the box grew past it
                if not taken[key[1]]:
                    break  # a free pick keeps its slot's (min, lowest index)
                push(s)  # its cached pick went elsewhere: rescore
            _, pick, _, r, c = key
            placed[s] = pick
            taken[pick] = np.inf
            lo_r, hi_r = min(lo_r, r), max(hi_r, r)
            lo_c, hi_c = min(lo_c, c), max(hi_c, c)
            for t in open_neighbors(r, c):
                push(t)

    slots = np.full((rows, cols), -1, dtype=np.int64)
    for (r, c), i in placed.items():
        slots[r - lo_r, c - lo_c] = i
    return Arrangement(slots)


def jigsaw_solve(patches, rows: int, cols: int, *, holes=None) -> Arrangement:
    """Solve a shuffled patch grid: ``place`` over the ``seam_tables``.

    ``patches`` is an (N, P, P, C) array (or a list of patches), uint8 or
    float in [0, 1]; patches marked in the optional (N,) bool mask ``holes``
    are never placed, and a NaN or inf in a float patch that is placed is a
    DataError. Slots of the result hold indices into ``patches``.
    """
    patches = np.asarray(patches)
    holes = np.zeros(len(patches), bool) if holes is None else np.asarray(holes, dtype=bool)
    if holes.shape != (len(patches),):
        raise GeometryError(f"holes of shape {holes.shape} for {len(patches)} patches")
    idx_map = np.flatnonzero(~holes)
    n = len(idx_map)
    if n > MAX_SOLVE_PATCHES:
        raise GeometryError(f"{n} patches exceed the solver bound of {MAX_SOLVE_PATCHES}")
    if n > rows * cols:
        raise GeometryError(f"{n} patches cannot fit {rows}x{cols} slots")
    if n <= 1:  # nothing to match: a lone patch goes to slot (0, 0)
        slots = np.full((rows, cols), -1, dtype=np.int64)
        slots.flat[:n] = idx_map
        return Arrangement(slots)
    kept = patches if n == len(patches) else patches[idx_map]  # no copy unless masked
    if kept.dtype.kind == "f" and not np.isfinite(kept).all():
        raise DataError("patches hold NaN or inf")
    found = place(seam_tables(kept), rows, cols).slots
    return Arrangement(np.where(found >= 0, idx_map[found], -1))


def puzzle_metrics(found: Arrangement, truth: Arrangement) -> dict:
    """direct: best-translation fraction of exact slots; neighbor: preserved
    adjacent pairs with the same relation."""
    f, t = found.slots, truth.slots
    if f.shape != t.shape:
        raise GeometryError("geometry mismatch: {}x{} vs {}x{}".format(*f.shape, *t.shape))
    t_at, f_at = np.argwhere(t >= 0), np.argwhere(f >= 0)  # row-major, as t[t >= 0]
    _, ti, fi = np.intersect1d(t[t >= 0], f[f >= 0], assume_unique=True,
                               return_indices=True)
    d = t_at[ti] - f_at[fi]
    # per truth slot, the translation from the found slot of its patch as one
    # number (|d[:, 1]| < cols); NaN where found lacks the patch
    code = d[:, 0] * 2 * t.shape[1] + d[:, 1]
    shift = np.full(t.shape, np.nan)
    shift[tuple(t_at[ti].T)] = code
    direct = 0.0
    if code.size:
        direct = int(np.unique(code, return_counts=True)[1].max()) / len(t_at)

    # a truth pair is kept when found holds both patches under one
    # translation, and so in the same relation
    pairs = kept = 0
    for first, second in ((np.s_[:, :-1], np.s_[:, 1:]), (np.s_[:-1], np.s_[1:])):
        # right pairs, then below pairs
        pairs += int(((t[first] >= 0) & (t[second] >= 0)).sum())
        kept += int((shift[first] == shift[second]).sum())
    neighbor = kept / pairs if pairs else 1.0
    return {"direct": direct, "neighbor": neighbor}


def dump_arrangement(arr: Arrangement, metrics: dict | None = None) -> str:
    """Text form: one "slot r c -> patch i" line per filled slot, then metrics."""
    lines = [f"slot {r} {c} -> patch {arr.slots[r, c]}"
             for r, c in np.argwhere(arr.slots >= 0)]  # row-major
    if metrics is not None:
        lines.append(f"direct={metrics['direct']:.6f}")
        lines.append(f"neighbor={metrics['neighbor']:.6f}")
    return "\n".join(lines) + "\n"


def grad_leak_invert(grad_e: np.ndarray):
    """Dominant left singular direction of an embedding-weight gradient.

    For a loss over exactly one patch token through a linear embedding E,
    dL/dE = x g^T is rank one and the returned unit vector equals x/|x|.
    Computed by SVD, sign fixed so the largest-magnitude entry is positive.
    Returns None for a zero gradient.
    """
    g = np.asarray(grad_e, dtype=np.float64)
    if g.ndim != 2:
        raise ShapeError(f"expected a 2-D gradient matrix, got {g.shape}")
    if not np.any(g):
        return None
    v = np.linalg.svd(g, full_matrices=False)[0][:, 0]
    peak = int(np.argmax(np.abs(v)))
    return -v if v[peak] < 0 else v


def mi_collision(mixed: np.ndarray, seed: int, amplitude: float = 0.25):
    """Four sub-patches distinct from any original set whose mean is ``mixed``.

    Perturbations d1..d3 are PRNG-drawn in [-amplitude, amplitude] and
    d4 = -(d1 + d2 + d3), so the mean reproduces the ciphertext exactly;
    values may leave [0, 1] — the point is algebraic non-uniqueness.
    """
    if not 0.0 <= amplitude <= 1.0:  # also false for nan
        raise ConfigError(f"amplitude must be in [0, 1], got {amplitude}")
    m = np.asarray(mixed, dtype=np.float64)
    # 3 * m.size units off one stream, each the bits of next_unit: a word's
    # top 53 bits are exact in float64
    words = SplitMix64(seed).next_u64_block(3 * m.size)
    units = (words >> np.uint64(11)).astype(np.float64) * (1.0 / (1 << 53))
    deltas = list(((units * 2.0 - 1.0) * amplitude).reshape(3, *m.shape))
    deltas.append(-(deltas[0] + deltas[1] + deltas[2]))
    return tuple(m + d for d in deltas)
