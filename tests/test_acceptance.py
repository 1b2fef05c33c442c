"""Acceptance suite: one test per shipped guarantee.

Each test is self-contained and pins its seeds; tolerances and runtime
budgets are part of the guarantee. Run with ``pytest -v`` to get one
pass/fail line per criterion.
"""

import dataclasses
import itertools
import time
from functools import reduce

import numpy as np

import picrypt.pevit as pevit
from picrypt.attacks import (
    grad_leak_invert,
    jigsaw_solve,
    mi_collision,
    puzzle_metrics,
    seam_tables,
)
from picrypt.cipher import (
    gen_key,
    keyspace,
    mi_encrypt,
    rs_decrypt,
    rs_encrypt,
    token_dim,
)
from picrypt.harness import (
    SynthSpec,
    TrainConfig,
    gen_dataset,
    gen_puzzle_corpus,
    gradleak_demo,
    predictions,
    solve_corpus,
    train,
    truth_for_key,
)
from picrypt.imgio import Image, split_patches, split_subpatches
from picrypt.pevit import ModelConfig, encoder_block, forward, init_params, msa
from picrypt.tensor import Tensor, add, gelu, grad_check, layer_norm, matmul

KEYSPACE_49 = 608281864034267560872252163321295376887552831379210240000000000


def test_criterion_01_permutation_invariance_100_shuffles():
    """Logits move < 1e-9 under 100 random patch shuffles, rpe on and off."""
    start = time.monotonic()
    rng = np.random.default_rng(0)
    worst = 0.0
    for use_rpe in (False, True):
        cfg = ModelConfig(patch_dim=48, dim=64, depth=4, heads=4, ffn_dim=256,
                          n_classes=10, rpe=use_rpe, rpe_hidden=64)
        params = init_params(cfg, seed=1)
        x = rng.random((16, 48))
        base = forward(params, cfg, x).data
        for _ in range(100):
            out = forward(params, cfg, x[rng.permutation(16)]).data
            worst = max(worst, float(np.max(np.abs(out - base))))
    elapsed = time.monotonic() - start
    assert worst < 1e-9, f"invariance violated: {worst:.3e}"
    assert elapsed < 60.0, f"invariance suite too slow: {elapsed:.1f}s"


def test_criterion_02_equivariance_suite():
    """Row ops permute bit-exactly; MSA/encoder within 1e-9; cls anchored."""
    rng = np.random.default_rng(2)
    cfg = ModelConfig(patch_dim=24, dim=32, depth=3, heads=4, ffn_dim=64,
                      n_classes=5)
    params = init_params(cfg, seed=3)
    n = 11
    z = rng.standard_normal((n, cfg.dim))
    perm = rng.permutation(n)

    # layer_norm / gelu / ffn: bit-exact row equivariance
    g, b = params["layer0.ln1.gamma"], params["layer0.ln1.beta"]
    a1 = layer_norm(Tensor(z[perm]), g, b).data
    b1 = layer_norm(Tensor(z), g, b).data[perm]
    assert np.array_equal(a1, b1), "layer_norm not bit-exact equivariant"

    a2 = gelu(Tensor(z[perm])).data
    b2 = gelu(Tensor(z)).data[perm]
    assert np.array_equal(a2, b2), "gelu not bit-exact equivariant"

    def ffn(x):
        h = gelu(add(matmul(x, params["layer0.ffn.w1"]), params["layer0.ffn.b1"]))
        return add(matmul(h, params["layer0.ffn.w2"]), params["layer0.ffn.b2"])

    a3 = ffn(Tensor(z[perm])).data
    b3 = ffn(Tensor(z)).data[perm]
    assert np.array_equal(a3, b3), "ffn not bit-exact equivariant"

    # msa and encoder block: 1e-9 equivariance
    a4 = msa(params, "layer0.attn", Tensor(z[perm]), cfg.heads).data
    b4 = msa(params, "layer0.attn", Tensor(z), cfg.heads).data[perm]
    assert np.max(np.abs(a4 - b4)) < 1e-9, "msa equivariance broken"

    a5 = encoder_block(params, "layer0", Tensor(z[perm]), cfg.heads).data
    b5 = encoder_block(params, "layer0", Tensor(z), cfg.heads).data[perm]
    assert np.max(np.abs(a5 - b5)) < 1e-9, "encoder block equivariance broken"

    # class-token anchoring per layer: token 0 identical across shuffles
    x = rng.random((9, cfg.patch_dim))
    tr_a, tr_b = {}, {}
    pevit.encode(params, cfg, x, trace=tr_a)
    pevit.encode(params, cfg, x[rng.permutation(9)], trace=tr_b)
    for layer, (ta, tb) in enumerate(zip(tr_a["tokens"], tr_b["tokens"])):
        dev = float(np.max(np.abs(ta[0] - tb[0])))
        assert dev < 1e-9, f"cls token drifts at layer {layer}: {dev:.3e}"


def test_criterion_03_full_model_gradient_check():
    """Central differences vs autodiff, >= 1000 sampled params, < 1e-4."""
    start = time.monotonic()
    cfg = ModelConfig(patch_dim=12, dim=16, depth=2, heads=2, ffn_dim=32,
                      n_classes=4, rpe=True, rpe_hidden=8)
    params = init_params(cfg, seed=4)
    rng = np.random.default_rng(4)
    x = rng.uniform(0.0, 1.0, size=(5, cfg.patch_dim))

    report = grad_check(lambda p: pevit.loss_fn(p, cfg, x, 1), params,
                        max_entries=1000, seed=0)
    elapsed = time.monotonic() - start
    assert report.n_checked >= 1000
    assert report.max_rel_error < 1e-4, (
        f"gradient mismatch {report.max_rel_error:.3e} "
        f"at {report.param}[{report.index}]"
    )
    assert elapsed < 300.0, f"gradient check too slow: {elapsed:.1f}s"


def test_criterion_04_cipher_roundtrip_and_keyspace():
    """RS roundtrip over 100 images; MI order-invariance; exact factorials."""
    rng = np.random.default_rng(5)
    for i in range(100):
        ps = int(rng.choice([4, 8]))
        rows, cols = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        c = 3 if i % 2 == 0 else 1
        px = rng.integers(0, 256, size=(rows * ps, cols * ps, c), dtype=np.uint8)
        grid = split_patches(Image(pixels=px), ps, 0)
        key = gen_key(int(rng.integers(0, 2**63)), grid.n_patches)
        back = rs_decrypt(rs_encrypt(grid, key), key)
        for a, b in zip(back.patches, grid.patches):
            assert np.array_equal(a, b), f"roundtrip broke on image {i}"

    # MI: all 24 sub-patch orders mix to the same patch within 1e-12
    for i in range(20):
        patch = rng.integers(0, 256, size=(8, 8, 3), dtype=np.uint8)
        subs = split_subpatches(patch)
        base = None
        for order in itertools.permutations(range(4)):
            q = [subs[k] for k in order]
            re = np.concatenate([np.concatenate([q[0], q[1]], axis=1),
                                 np.concatenate([q[2], q[3]], axis=1)], axis=0)
            grid = split_patches(Image(pixels=re), 8, 0)
            m = mi_encrypt(grid).patches[0]
            if base is None:
                base = m
            else:
                assert np.max(np.abs(m - base)) < 1e-12

    # keyspace: cross-checked against an independent big-integer product
    oracle49 = reduce(lambda a, b: a * b, range(1, 50), 1)
    assert keyspace(49) == oracle49 == KEYSPACE_49
    assert len(str(KEYSPACE_49)) == 63
    oracle196 = reduce(lambda a, b: a * b, range(1, 197), 1)
    assert keyspace(196) == oracle196
    assert len(str(keyspace(196))) == 366


def test_criterion_05_mi_embedding_identity_1000_patches():
    """The classifier's embedding of a mixed patch (the mean of its four
    sub-patches) equals the mean of the sub-patches' embeddings."""
    cfg = ModelConfig(patch_dim=token_dim("mi", 8, 3), dim=32, depth=1, heads=2,
                      ffn_dim=32, n_classes=10)
    params = init_params(cfg, seed=6)
    rng = np.random.default_rng(6)
    subs = rng.random((1000, 4, cfg.patch_dim))
    # row 0 is the class token; rows 1.. embed the mixed patches
    direct = pevit.build_tokens(params, cfg, subs.mean(axis=1)).data[1:]
    alt = (subs @ params["embed.w"].data).mean(axis=1) + params["embed.b"].data
    worst = float(np.max(np.abs(direct - alt)))
    assert worst < 1e-12, f"mixing/embedding identity broken: {worst:.3e}"


def test_criterion_06_learnable_on_ciphertext():
    """D=64 L=4 toy model >= 90% on RS-encrypted images in 20 epochs."""
    start = time.monotonic()
    spec = SynthSpec(image_size=64, classes=10, train_per_class=30,
                     test_per_class=10, seed=0)
    data = gen_dataset(spec)
    cfg = TrainConfig(
        model=ModelConfig(patch_dim=16 * 16 * 3, dim=64, depth=4, heads=4,
                          ffn_dim=256, n_classes=10),
        epochs=20, encryption="rs", patch_size=16, seed=0,
    )
    params, history = train(cfg, data)
    preds = {s: predictions(params, cfg, data.test_x, seed=s) for s in (11, 97)}
    accs = {s: float(np.mean(p == data.test_y)) for s, p in preds.items()}
    elapsed = time.monotonic() - start
    assert accs[11] >= 0.9, f"test accuracy {accs[11]:.3f} below 0.9; " \
                            f"final train acc {history[-1]['accuracy']:.3f}"
    assert accs[11] == accs[97], f"accuracy depends on the shuffle: {accs}"
    assert np.array_equal(preds[11], preds[97]), "predictions depend on shuffle"
    assert elapsed < 900.0, f"training criterion too slow: {elapsed:.1f}s"


def test_criterion_07_positional_baseline_positive_control():
    """Absolute positional embeddings make predictions shuffle-dependent."""
    spec = SynthSpec(image_size=64, classes=10, train_per_class=0,
                     test_per_class=3, seed=3)
    data = gen_dataset(spec)
    model = ModelConfig(patch_dim=16 * 16 * 3, dim=32, depth=2, heads=2,
                        ffn_dim=64, n_classes=10, positions=17)
    base_params = init_params(model, seed=0)

    # the invariant control reads the same params, "pos" included
    flips = {}
    for positions, name in ((17, "baseline"), (0, "invariant")):
        cfg = TrainConfig(model=dataclasses.replace(model, positions=positions),
                          epochs=1, encryption="rs", patch_size=16, seed=0)
        a = predictions(base_params, cfg, data.test_x, seed=11)
        b = predictions(base_params, cfg, data.test_x, seed=97)
        flips[name] = int((a != b).sum())
    assert flips["baseline"] >= 1, "positional baseline never changed its mind"
    assert flips["invariant"] == 0, "control broken: invariant model flipped"


def test_criterion_08_jigsaw_attack_asymmetry():
    """Greedy solver is exact on small smooth puzzles (brute-force verified)
    and degrades monotonically with interval and drop on the 14x14 corpus."""

    def brute_force_optimum(patches, rows, cols):
        n = len(patches)
        d_right, d_below = (t.tolist() for t in seam_tables(np.stack(patches) / 255.0)[:2])
        best, second = None, None
        best_order = None
        for order in itertools.permutations(range(n)):
            cost = 0.0
            for r in range(rows):
                for c in range(cols):
                    i = order[r * cols + c]
                    if c + 1 < cols:
                        cost += d_right[i][order[r * cols + c + 1]]
                    if r + 1 < rows:
                        cost += d_below[i][order[(r + 1) * cols + c]]
            if best is None or cost < best:
                best, second = cost, best
                best_order = order
            elif second is None or cost < second:
                second = cost
        return best_order, best, second

    for rows, cols, size in ((2, 2, 16), (3, 3, 24)):
        img = gen_puzzle_corpus(1, size, seed=7)[0]
        grid = split_patches(Image(pixels=img), 8, 0)
        order, best, second = brute_force_optimum(list(grid.patches), rows, cols)
        assert order == tuple(range(rows * cols)), (
            f"{rows}x{cols} fixture degenerate: optimum {order} is not identity"
        )
        assert second > best, f"{rows}x{cols} fixture has a tied optimum"
        for seed in range(5):
            key = gen_key(seed + 100, rows * cols)
            enc = rs_encrypt(grid, key)
            found = jigsaw_solve(enc.patches, rows, cols)
            truth = truth_for_key(key, rows, cols)
            m = puzzle_metrics(found, truth)
            assert m["direct"] == 1.0, (
                f"{rows}x{cols} seed {seed}: direct {m['direct']} != 1.0"
            )

    # 14x14 corpus: paired monotone degradation over >= 20 images
    corpus = gen_puzzle_corpus(20, 224, seed=0)

    by_interval = [solve_corpus(corpus, 16, interval=iv, drop_ratio=0.0, seed=0)
                   for iv in (0, 1, 2)]
    nb = [r["neighbor"] for r in by_interval]
    assert nb[0] > nb[1] > nb[2], f"interval trend not monotone: {nb}"
    assert nb[0] - nb[2] > 0.2, f"interval effect too small: {nb}"
    for lo, hi in ((0, 1), (1, 2)):
        diffs = np.array(by_interval[lo]["per_image_neighbor"]) - \
            np.array(by_interval[hi]["per_image_neighbor"])
        assert diffs.mean() > 0, f"paired interval trend failed {lo}->{hi}"

    by_drop = [solve_corpus(corpus, 16, interval=1, drop_ratio=dr, seed=0)
               for dr in (0.0, 0.1, 0.2)]
    nd = [r["neighbor"] for r in by_drop]
    assert nd[0] > nd[1] > nd[2], f"drop trend not monotone: {nd}"
    for lo, hi in ((0, 1), (1, 2)):
        diffs = np.array(by_drop[lo]["per_image_neighbor"]) - \
            np.array(by_drop[hi]["per_image_neighbor"])
        assert diffs.mean() > 0, f"paired drop trend failed {lo}->{hi}"


def test_criterion_09_gradient_leakage_recovers_ciphertext_only():
    """Rank-one inversion to 1e-8; end to end it reveals the encrypted patch."""
    rng = np.random.default_rng(9)
    for _ in range(20):
        x = rng.standard_normal(64)
        g = rng.standard_normal(24)
        got = grad_leak_invert(np.outer(x, g))
        want = x / np.linalg.norm(x)
        if want[int(np.argmax(np.abs(want)))] < 0:
            want = -want
        assert np.max(np.abs(got - want)) < 1e-8

    img = rng.integers(0, 256, size=(64, 64, 3), dtype=np.uint8)
    out = gradleak_demo(img, patch_size=16, seed=0)
    # the recovered direction is the ciphertext patch, almost exactly
    cipher_dir = out["cipher_patch"] / np.linalg.norm(out["cipher_patch"])
    assert np.max(np.abs(out["recovered"] - cipher_dir)) < 1e-8
    assert out["corr_cipher"] > 1.0 - 1e-9
    # ... while the plaintext patch at that position stays hidden: its
    # correlation sits inside the null spread of unrelated patch pairs
    assert out["slot_source"] != 0, "fixture degenerate: slot 0 maps to itself"
    grid = split_patches(Image(pixels=img), 16, 0)
    null = []
    for j, p in enumerate(grid.patches):
        if j == out["slot_source"]:
            continue
        v = p.reshape(-1).astype(np.float64) / 255.0
        null.append(abs(float(np.corrcoef(out["recovered"], v)[0, 1])))
    assert abs(out["corr_plain"]) < 0.5
    assert abs(out["corr_plain"]) <= max(null) + 1e-12


def test_criterion_10_mi_collision_nonuniqueness():
    """>= 2 distinct preimage quadruples reproduce any mixed patch to 1e-12."""
    rng = np.random.default_rng(10)
    for trial in range(10):
        px = rng.integers(0, 256, size=(8, 8, 3), dtype=np.uint8)
        grid = split_patches(Image(pixels=px), 8, 0)
        mixed = mi_encrypt(grid).patches[0][:4, :4, :]  # the distinct quadrant
        sets = [mi_collision(mixed, seed=s) for s in (1, 2)]
        trivial = tuple(mixed.copy() for _ in range(4))
        for subs in sets:
            err = float(np.max(np.abs(sum(subs) / 4.0 - mixed)))
            assert err < 1e-12, f"trial {trial}: mean off by {err:.3e}"
        # pairwise distinct, and distinct from the trivial preimage
        candidates = sets + [trivial]
        for a in range(len(candidates)):
            for b in range(a + 1, len(candidates)):
                gap = max(float(np.max(np.abs(x - y)))
                          for x, y in zip(candidates[a], candidates[b]))
                assert gap > 1e-6, f"trial {trial}: preimages {a},{b} coincide"
