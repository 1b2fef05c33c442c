"""Tests for the mixed-patch detection front end."""

import itertools

import numpy as np
import pytest

from picrypt.cipher import gen_key, mi_encrypt, rs_encrypt, token_rows
from picrypt.errors import ConfigError, ShapeError
from picrypt.imgio import Image, split_patches
from picrypt.mipembed import (
    DetConfig,
    build_det_sequence,
    encode_det_sequence,
    init_det_params,
    mi_patch_embed,
)
from picrypt.pevit import ModelConfig, init_params
from picrypt.tensor import Tensor, add, gelu, matmul

CFG = DetConfig(patch_size=8, channels=3, embed_dim=16, det_tokens=5)


def rand_mixed(rng, rows=2, cols=2, ps=8, c=3):
    img = Image(pixels=rng.integers(0, 256, size=(rows * ps, cols * ps, c),
                                    dtype=np.uint8))
    return mi_encrypt(split_patches(img, ps, 0))


def test_config_validation():
    with pytest.raises(ConfigError):
        DetConfig(patch_size=7, channels=3)
    with pytest.raises(ConfigError):
        DetConfig(patch_size=8, channels=3, det_tokens=0)
    assert CFG.sub_dim == 4 * 4 * 3


def test_init_det_params_shapes():
    p = init_det_params(CFG, n_patches=4, seed=0)
    assert p["mi.w1"].shape == (48, 16)
    assert p["mi.w2"].shape == (16, 16)
    assert p["det"].shape == (5, 16)
    assert p["pos"].shape == (9, 16)


def test_embed_zero_input_zero_biases_gives_b2():
    p = init_det_params(CFG, n_patches=4, seed=1)
    p["mi.b2"].data[...] = 1.5
    out = mi_patch_embed(p, np.zeros(CFG.sub_dim)).data
    assert out.shape == (1, 16)
    assert np.max(np.abs(out - 1.5)) < 1e-15


def test_embed_accepts_vector_or_matrix():
    p = init_det_params(CFG, n_patches=4, seed=2)
    rng = np.random.default_rng(2)
    x = rng.random((3, CFG.sub_dim))
    m = mi_patch_embed(p, x).data
    for i in range(3):
        v = mi_patch_embed(p, x[i]).data
        # batched and single-row matmul may differ in the last bit
        assert np.max(np.abs(v[0] - m[i])) < 1e-12
    with pytest.raises(ShapeError):
        mi_patch_embed(p, np.zeros(CFG.sub_dim + 1))


def test_embed_mixed_equals_average_of_subembeds():
    # averaging commutes with the first linear layer: embedding the mean
    # equals averaging the four sub-patch projections before gelu
    p = init_det_params(CFG, n_patches=4, seed=3)
    rng = np.random.default_rng(3)
    for _ in range(50):
        subs = rng.random((4, CFG.sub_dim))
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
    assert v.shape == (4, CFG.sub_dim)
    assert v.min() >= 0.0 and v.max() <= 1.0


def test_sequence_layout_and_pos_addition():
    p = init_det_params(CFG, n_patches=4, seed=5)
    rng = np.random.default_rng(5)
    grid = rand_mixed(rng)
    z = build_det_sequence(p, CFG, grid).data
    assert z.shape == (9, 16)
    emb = mi_patch_embed(p, token_rows(grid)).data
    want = np.vstack([p["det"].data, emb]) + p["pos"].data
    assert np.max(np.abs(z - want)) < 1e-15


def test_sequence_rejects_geometry_mismatch():
    p = init_det_params(CFG, n_patches=4, seed=6)
    rng = np.random.default_rng(6)
    with pytest.raises(ShapeError):
        build_det_sequence(p, CFG, rand_mixed(rng, ps=4))
    with pytest.raises(ShapeError):
        build_det_sequence(p, CFG, rand_mixed(rng, rows=3))


def test_sequence_invariant_to_subpatch_order():
    # shuffling sub-patches inside each patch before mixing cannot change
    # the token sequence
    p = init_det_params(CFG, n_patches=4, seed=7)
    rng = np.random.default_rng(7)
    img = rng.integers(0, 256, size=(16, 16, 3), dtype=np.uint8)
    grid = split_patches(Image(pixels=img), 8, 0)
    base = build_det_sequence(p, CFG, mi_encrypt(grid)).data

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
        z = build_det_sequence(p, CFG, mi_encrypt(g2)).data
        assert np.max(np.abs(z - base)) < 1e-12


def test_sequence_sensitive_to_patch_order():
    # positional rows make whole-patch shuffling visible, unlike the
    # classifier path
    p = init_det_params(CFG, n_patches=4, seed=8)
    rng = np.random.default_rng(8)
    img = Image(pixels=rng.integers(0, 256, size=(16, 16, 3), dtype=np.uint8))
    grid = split_patches(img, 8, 0)
    base = build_det_sequence(p, CFG, mi_encrypt(grid)).data
    key = gen_key(1, 4)  # derangement check below keeps the test honest
    shuffled = build_det_sequence(p, CFG, mi_encrypt(rs_encrypt(grid, key))).data
    assert tuple(key.perm) != (0, 1, 2, 3)
    assert np.max(np.abs(shuffled - base)) > 1e-3


def test_encode_det_sequence_runs_encoder():
    depth, heads = 2, 2
    p = init_det_params(CFG, n_patches=4, seed=9)
    enc = init_params(ModelConfig(patch_dim=CFG.sub_dim, dim=16, depth=depth,
                                  heads=heads, ffn_dim=32, n_classes=2), seed=9)
    p.update({k: v for k, v in enc.items() if k.startswith("layer")})
    rng = np.random.default_rng(9)
    z = encode_det_sequence(p, CFG, rand_mixed(rng), depth, heads).data
    assert z.shape == (9, 16)
    assert np.all(np.isfinite(z))
