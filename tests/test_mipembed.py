"""Tests for the mixed-patch embedding."""

import hashlib
import itertools

import numpy as np
import pytest

from picrypt.cipher import mi_encrypt, token_dim, token_rows
from picrypt.errors import ShapeError
from picrypt.imgio import Image, split_patches
from picrypt.mipembed import init_mi_embed, mi_patch_embed
from picrypt.tensor import Tensor, add, gelu, matmul

SUB_DIM = token_dim("mi", 8, 3)
EMBED_DIM = 16


def rand_mixed(rng, rows=2, cols=2, ps=8, c=3):
    img = Image(pixels=rng.integers(0, 256, size=(rows * ps, cols * ps, c),
                                    dtype=np.uint8))
    return mi_encrypt(split_patches(img, ps, 0))


def test_init_mi_embed_shapes():
    p = init_mi_embed(SUB_DIM, EMBED_DIM, seed=0)
    assert sorted(p) == ["mi.b1", "mi.b2", "mi.w1", "mi.w2"]
    assert p["mi.w1"].shape == (48, 16)
    assert p["mi.b1"].shape == (1, 16)
    assert p["mi.w2"].shape == (16, 16)
    assert p["mi.b2"].shape == (1, 16)


def test_init_mi_embed_weights_pinned():
    # criterion 5 checks the mixing identity on these weights; the digest
    # holds them to the same draws
    p = init_mi_embed(48, 32, seed=6)
    h = hashlib.sha256()
    for name in ("mi.w1", "mi.b1", "mi.w2", "mi.b2"):
        a = p[name].data
        h.update(f"{name}{a.dtype.str}{a.shape}".encode()
                 + np.ascontiguousarray(a).tobytes())
    assert h.hexdigest() == (
        "b06359ab5ed183eaa2fa5368c22af7890b6d118b69d5727f82ac43053292560e")


def test_embed_zero_input_zero_biases_gives_b2():
    p = init_mi_embed(SUB_DIM, EMBED_DIM, seed=1)
    p["mi.b2"].data[...] = 1.5
    out = mi_patch_embed(p, np.zeros(SUB_DIM)).data
    assert out.shape == (1, 16)
    assert np.max(np.abs(out - 1.5)) < 1e-15


def test_embed_accepts_vector_or_matrix():
    p = init_mi_embed(SUB_DIM, EMBED_DIM, seed=2)
    rng = np.random.default_rng(2)
    x = rng.random((3, SUB_DIM))
    m = mi_patch_embed(p, x).data
    for i in range(3):
        v = mi_patch_embed(p, x[i]).data
        # batched and single-row matmul may differ in the last bit
        assert np.max(np.abs(v[0] - m[i])) < 1e-12
    with pytest.raises(ShapeError):
        mi_patch_embed(p, np.zeros(SUB_DIM + 1))


def test_embed_mixed_equals_average_of_subembeds():
    # averaging commutes with the first linear layer: embedding the mean
    # equals averaging the four sub-patch projections before gelu
    p = init_mi_embed(SUB_DIM, EMBED_DIM, seed=3)
    rng = np.random.default_rng(3)
    for _ in range(50):
        subs = rng.random((4, SUB_DIM))
        mixed = subs.mean(axis=0)
        a = mi_patch_embed(p, mixed).data
        pre = Tensor(subs.mean(axis=0, keepdims=True))
        h = gelu(add(matmul(pre, p["mi.w1"]), p["mi.b1"]))
        b = add(matmul(h, p["mi.w2"]), p["mi.b2"]).data
        assert np.max(np.abs(a - b)) < 1e-12
        # explicit four-way projection average, then the rest of the map
        proj = np.stack([
            (Tensor(subs[i:i + 1]).data @ p["mi.w1"].data)[0] for i in range(4)
        ]).mean(axis=0, keepdims=True)
        h2 = gelu(add(Tensor(proj), p["mi.b1"]))
        c = add(matmul(h2, p["mi.w2"]), p["mi.b2"]).data
        assert np.max(np.abs(a - c)) < 1e-12


def test_grid_vectors_shape_and_range():
    rng = np.random.default_rng(4)
    grid = rand_mixed(rng)
    v = token_rows(grid)
    assert v.shape == (4, SUB_DIM)
    assert v.min() >= 0.0 and v.max() <= 1.0


def test_sequence_invariant_to_subpatch_order():
    # shuffling sub-patches inside each patch before mixing cannot change
    # the embedded grid
    p = init_mi_embed(SUB_DIM, EMBED_DIM, seed=7)
    rng = np.random.default_rng(7)
    img = rng.integers(0, 256, size=(16, 16, 3), dtype=np.uint8)
    grid = split_patches(Image(pixels=img), 8, 0)
    base = mi_patch_embed(p, token_rows(mi_encrypt(grid))).data

    h = 4
    for order in itertools.permutations(range(4)):
        shuffled = []
        for patch in grid.patches:
            quads = [patch[:h, :h], patch[:h, h:], patch[h:, :h], patch[h:, h:]]
            q = [quads[i] for i in order]
            top = np.concatenate([q[0], q[1]], axis=1)
            bottom = np.concatenate([q[2], q[3]], axis=1)
            shuffled.append(np.concatenate([top, bottom], axis=0))
        g2 = type(grid)(rows=2, cols=2, patch_size=8, channels=3, interval=0,
                        patches=tuple(shuffled))
        z = mi_patch_embed(p, token_rows(mi_encrypt(g2))).data
        assert np.max(np.abs(z - base)) < 1e-12
