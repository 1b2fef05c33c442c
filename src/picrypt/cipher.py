"""Patch-level encryption: keyed shuffling, sub-patch mixing, and their
alternation in a substitution-permutation style.

Shuffling permutes whole patches under a seeded key (the secret); mixing
replaces each patch by the elementwise mean of its four quadrants, scaled
to [0, 1]. Mixed patches keep their grid position. A mixed grid stores
only each patch's quadrant mean, one (P/2, P/2, C) block per patch in a
single array; quantize_mixed tiles the mean back into all four quadrants,
so the exported grid still renders at the original image size.

An encryption setting names one pipeline: ``none``, ``rs``, ``mi``,
``rs+mi`` or ``spn:<rounds>``; since mixing keeps patches in place,
``mi+rs`` is a second name for ``rs+mi`` and runs as shuffle-then-mix.
parse_mode is the only parser of these strings, encrypt the only place
that runs them, and token_dim and token_rows say what they give a model.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, GeometryError, KeyMismatchError
from .imgio import PatchGrid
from .rng import SplitMix64, check_seed

KEY_MAGIC = "PICRYPT-KEY 1"

MODES = ("none", "rs", "mi", "rs+mi", "mi+rs")

# most rounds a spn:<rounds> setting may ask for: each round costs about
# 1 ms on a 224^2 image at P=16 and 1.7 s on a 1024^2 image at P=2
MAX_SPN_ROUNDS = 16


@dataclass(frozen=True)
class PermutationKey:
    """Seeded permutation of ``n`` patch indices; the shuffling secret."""

    n: int
    perm: tuple
    seed: int

    def __post_init__(self):
        if sorted(self.perm) != list(range(self.n)):
            raise KeyMismatchError(f"perm is not a bijection on 0..{self.n - 1}")

    def inverse(self) -> np.ndarray:
        inv = np.empty(self.n, dtype=np.int64)
        inv[np.asarray(self.perm)] = np.arange(self.n)
        return inv


@dataclass(frozen=True)
class MixedGrid:
    """Grid of real-valued mixed patches, values in [0, 1].

    Geometry mirrors PatchGrid; ``patches`` is one (rows * cols,
    patch_size / 2, patch_size / 2, channels) float64 array holding each
    patch's quadrant mean, so ``patches[i]`` is patch i's distinct content.
    """

    rows: int
    cols: int
    patch_size: int
    channels: int
    patches: np.ndarray

    def __post_init__(self):
        patches = np.asarray(self.patches, dtype=np.float64)
        half = self.patch_size // 2
        shape = (self.rows * self.cols, half, half, self.channels)
        if self.patch_size % 2 or patches.shape != shape:
            raise GeometryError(
                f"mixed patches have shape {patches.shape}, expected {shape} "
                f"for patch_size {self.patch_size}"
            )
        object.__setattr__(self, "patches", patches)

    @property
    def n_patches(self) -> int:
        return self.rows * self.cols


def gen_key(seed: int, n: int) -> PermutationKey:
    """Derive an n-element permutation from ``seed`` by Fisher-Yates.

    Walks i = n-1 down to 1, drawing j uniformly from [0, i] off one
    SplitMix64 stream, so a (seed, n) pair always yields the same key. The
    n-1 draws come as one block (bounds n, n-1, ..., 2); only the swaps
    run one at a time. n < 1 is a programmer error (ValueError): every
    caller passes a grid's patch count or a key file's checked n.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    draws = SplitMix64(seed).next_below_block(np.arange(n, 1, -1)).tolist()
    perm = list(range(n))
    for i, j in zip(range(n - 1, 0, -1), draws):
        perm[i], perm[j] = perm[j], perm[i]
    return PermutationKey(n=n, perm=tuple(perm), seed=seed)


def _permute(grid: PatchGrid, key: PermutationKey, order: np.ndarray) -> PatchGrid:
    """``grid`` with output position i holding input patch order[i]; holes
    move with their patches."""
    if key.n != grid.n_patches:
        raise KeyMismatchError(
            f"key is for {key.n} patches, grid has {grid.n_patches}"
        )
    return dataclasses.replace(grid, patches=grid.patches[order], holes=grid.holes[order])


def rs_encrypt(grid: PatchGrid, key: PermutationKey) -> PatchGrid:
    """Shuffle patches: output position i receives input patch perm[i]."""
    return _permute(grid, key, np.asarray(key.perm))


def rs_decrypt(grid: PatchGrid, key: PermutationKey) -> PatchGrid:
    """Exact inverse of rs_encrypt for the same key."""
    return _permute(grid, key, key.inverse())


def _check_mixable(grid: PatchGrid) -> None:
    if grid.patch_size % 2:
        raise GeometryError(
            f"patch_size must be even for mixing, got {grid.patch_size}"
        )
    if grid.hole_count():
        raise GeometryError("cannot mix a grid with holes")


def _quadrant_means(blocks: np.ndarray) -> np.ndarray:
    """(N, P, P, C) uint8 patches -> (N, P/2, P/2, C) means scaled to [0, 1]."""
    h = blocks.shape[1] // 2
    q = [blocks[:, r : r + h, c : c + h].astype(np.float64) / 255.0
         for r in (0, h) for c in (0, h)]
    return 0.25 * (q[0] + q[1] + q[2] + q[3])


def mi_encrypt(grid: PatchGrid) -> MixedGrid:
    """Mix each patch: quadrants scaled to [0, 1] and averaged elementwise.

    Patch positions are preserved; only within-patch content is destroyed.
    """
    _check_mixable(grid)
    return MixedGrid(
        rows=grid.rows,
        cols=grid.cols,
        patch_size=grid.patch_size,
        channels=grid.channels,
        patches=_quadrant_means(grid.patches),
    )


def spn_encrypt(grid: PatchGrid, rounds: int, seed: int) -> MixedGrid:
    """Alternate shuffling (permutation role) and mixing (substitution role).

    Every round shuffles then mixes; sub-key seeds come off one SplitMix64
    stream. The first shuffle permutes whole patches. Later rounds permute
    at half-patch granularity so that content crosses patch boundaries
    before being averaged again, otherwise repeated rounds would never mix
    anything new. Intermediate grids stay real-valued throughout; nothing
    is re-quantized between rounds. rounds < 1 is a programmer error
    (ValueError): parse_mode bounds the rounds of a setting.
    """
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    master = SplitMix64(seed)
    rows, cols, n = grid.rows, grid.cols, grid.n_patches
    first = mi_encrypt(rs_encrypt(grid, gen_key(master.next_u64(), n)))
    state = first.patches

    # The four half-patch units of a mixed patch all hold its mean, so a
    # round only gathers means: unit u of the (2 * rows, 2 * cols) sub-grid
    # comes from patch src[u], and output patch (r, c) averages the units
    # the sub-key sends to sub-grid cells (2r + dr, 2c + dc).
    sub = np.arange(4 * n)
    src = (sub // (2 * cols) // 2) * cols + (sub % (2 * cols)) // 2
    for _ in range(1, rounds):
        sub_key = gen_key(master.next_u64(), 4 * n)
        g = src[np.asarray(sub_key.perm)].reshape(rows, 2, cols, 2)
        state = 0.25 * (
            state[g[:, 0, :, 0]] + state[g[:, 0, :, 1]]
            + state[g[:, 1, :, 0]] + state[g[:, 1, :, 1]]
        ).reshape(state.shape)
    return dataclasses.replace(first, patches=state)


def quantize_mixed(grid) -> PatchGrid:
    """Export a mixed grid as 8-bit patches (round half to even), each mean
    tiled 2x2 back to full patch size; a PatchGrid is returned unchanged.

    Only for producing a viewable image; all model-facing paths keep the
    real values.
    """
    if isinstance(grid, PatchGrid):
        return grid
    means = np.rint(np.clip(grid.patches, 0.0, 1.0) * 255.0).astype(np.uint8)
    return PatchGrid(
        rows=grid.rows,
        cols=grid.cols,
        patch_size=grid.patch_size,
        channels=grid.channels,
        interval=0,
        patches=np.tile(means, (1, 2, 2, 1)),
    )


def parse_mode(setting: str) -> tuple:
    """Parse an encryption setting into (kind, spn_rounds).

    ``kind`` is one of MODES with rounds 0, or ``"spn"`` for
    ``spn:<rounds>`` with rounds in 1..MAX_SPN_ROUNDS; anything else
    raises ConfigError.
    """
    if setting in MODES:
        return setting, 0
    if setting.startswith("spn:"):
        try:
            rounds = int(setting[4:])
        except ValueError:
            raise ConfigError(f"bad spn rounds in {setting!r}") from None
        if not 1 <= rounds <= MAX_SPN_ROUNDS:
            raise ConfigError(f"spn rounds must be in 1..{MAX_SPN_ROUNDS}, got {rounds}")
        return "spn", rounds
    raise ConfigError(
        f"unknown encryption setting {setting!r}; "
        f"expected one of {MODES} or spn:<rounds>"
    )


def encrypt(grid: PatchGrid, setting: str, draw_seed):
    """Run the encryption ``setting`` (see parse_mode) on ``grid``.

    ``draw_seed()`` returns the key seed. It is called exactly once for
    rs, rs+mi, mi+rs and spn, and never for none or mi, so callers that
    draw seeds off one stream see the same keys for every later image.
    Returns a PatchGrid for none and rs, and a MixedGrid otherwise.
    """
    kind, rounds = parse_mode(setting)
    if kind == "none":
        return grid
    if kind == "mi":
        return mi_encrypt(grid)
    if kind == "spn":
        return spn_encrypt(grid, rounds, draw_seed())
    shuffled = rs_encrypt(grid, gen_key(draw_seed(), grid.n_patches))
    return shuffled if kind == "rs" else mi_encrypt(shuffled)


def mixes(setting: str) -> bool:
    """Whether ``setting`` mixes quadrants: every setting but none and rs."""
    return parse_mode(setting)[0] not in ("none", "rs")


def token_dim(setting: str, patch_size: int, channels: int) -> int:
    """Width of one model row for ``setting``: a whole patch for none and
    rs, one quadrant mean for every setting that mixes, which needs an
    even patch_size."""
    if mixes(setting):
        if patch_size % 2:
            raise GeometryError(f"patch size must be even to mix quadrants, got {patch_size}")
        patch_size //= 2
    return patch_size * patch_size * channels


def token_rows(grid) -> np.ndarray:
    """Model rows of an encrypted grid, values in [0, 1]: each kept patch
    of a PatchGrid scaled by 1/255, or each quadrant mean of a MixedGrid."""
    if isinstance(grid, MixedGrid):
        return grid.patches.reshape(grid.n_patches, -1)
    kept = grid.patches[~grid.holes] if grid.holes.any() else grid.patches
    return np.divide(kept.reshape(len(kept), -1), 255.0)


def keyspace(n: int) -> int:
    """Number of permutations of n patches: exactly n!. Fewer keys can be
    reached: ``load_key`` accepts only ``gen_key(seed, n)``, so at most 2**64.
    n < 0 is a programmer error (ValueError): the CLI bounds ``--n``."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return math.factorial(n)


def drop_patches(grid: PatchGrid, ratio: float, seed: int) -> PatchGrid:
    """Replace floor(ratio * n) distinct patches by holes.

    Hole positions come from a partial Fisher-Yates draw on a SplitMix64
    stream seeded with ``seed``: position k swaps index k with a uniform
    pick from [k, n), and the first floor(ratio * n) indices become holes.
    The k draws come as one block (bounds n, n-1, ..., n-k+1). A hole's
    pixels are zeroed, so no dropped byte stays in the grid. A ratio
    outside [0, 1) is a programmer error (ValueError): TrainConfig and
    SweepCell bound drop_ratio.
    """
    if not 0.0 <= ratio < 1.0:
        raise ValueError(f"ratio must be in [0, 1), got {ratio}")
    n = grid.n_patches
    k = int(ratio * n)
    if k == 0:
        return grid
    draws = SplitMix64(seed).next_below_block(np.arange(n, n - k, -1)).tolist()
    idx = list(range(n))
    for i, d in enumerate(draws):
        j = i + d
        idx[i], idx[j] = idx[j], idx[i]
    holes = grid.holes.copy()
    holes[idx[:k]] = True
    patches = grid.patches.copy()
    patches[holes] = 0
    return dataclasses.replace(grid, patches=patches, holes=holes)


def save_key(key: PermutationKey, path) -> None:
    """Write a key file: magic line, n, seed, comma-separated permutation."""
    lines = [
        KEY_MAGIC,
        f"n={key.n}",
        f"seed={key.seed}",
        "perm=" + ",".join(str(i) for i in key.perm),
    ]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_key(path) -> PermutationKey:
    """Read a key file, verifying the permutation against its (seed, n)."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = [ln.rstrip("\n") for ln in fh]
    except UnicodeDecodeError as exc:
        raise KeyMismatchError(
            f"key file is not ASCII: byte {exc.object[exc.start]:#04x}") from None
    if not lines or lines[0] != KEY_MAGIC:
        raise KeyMismatchError(f"bad key file magic: {lines[0] if lines else '<empty>'!r}")
    if len(lines) > 4:  # a trailing blank line counts: save_key writes none
        raise KeyMismatchError(f"key file has {len(lines)} lines, a key has 4")
    fields = {}
    for ln in lines[1:]:
        if "=" not in ln:
            raise KeyMismatchError(f"malformed key line: {ln!r}")
        k, v = ln.split("=", 1)
        fields[k] = v
    try:
        n = int(fields["n"])
        seed = int(fields["seed"])
        perm = tuple(int(t) for t in fields["perm"].split(","))
    except (KeyError, ValueError) as exc:
        raise KeyMismatchError(f"malformed key file: {exc}") from None
    # before gen_key, whose cost is set by the file's own n
    if len(perm) != n:
        raise KeyMismatchError(f"perm has {len(perm)} entries, n={n}")
    check_seed(seed, KeyMismatchError)
    expected = gen_key(seed, n)
    if perm != expected.perm:
        raise KeyMismatchError("perm does not match the stated (seed, n)")
    return expected
