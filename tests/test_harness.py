"""Tests for the experiment harness: data, training, leakage, solver sweeps."""

import dataclasses
import hashlib
import re
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import picrypt.harness
import picrypt.pevit as pevit
from picrypt.attacks import puzzle_metrics
from picrypt.cipher import MODES, gen_key, rs_encrypt, token_dim, token_rows
from picrypt.errors import (
    ConfigError,
    DataError,
    GeometryError,
    KeyMismatchError,
    PicryptError,
)
from picrypt.harness import (
    MARKER_SIZE,
    MAX_CORPUS_BYTES,
    MAX_IMAGE_SIZE,
    SWEEP_HEADER,
    Adam,
    SweepCell,
    SynthSpec,
    TrainConfig,
    check_geometry,
    config_specs,
    evaluate,
    gen_dataset,
    gen_puzzle_corpus,
    gradleak_demo,
    image_vectors,
    leakage_ratio,
    load_config,
    parse_config_text,
    predictions,
    solve_corpus,
    solve_image,
    sweep,
    sweep_to_csv,
    train,
    truth_for_key,
    white_marker_count,
)
from picrypt.imgio import Image, split_patches
from picrypt.pevit import ModelConfig
from picrypt.rng import SplitMix64
from picrypt.tensor import Tensor, add, backward, load_checkpoint, matmul, zero_grads

TINY_MODEL = ModelConfig(patch_dim=16 * 16 * 3, dim=16, depth=1, heads=2,
                         ffn_dim=32, n_classes=4)


def tiny_cfg(**kw):
    base = dict(model=TINY_MODEL, epochs=5, encryption="rs", patch_size=16,
                seed=0)
    base.update(kw)
    return TrainConfig(**base)


# ---------------------------------------------------------------- dataset


def test_dataset_shapes_and_balance():
    spec = SynthSpec(image_size=32, classes=3, train_per_class=4,
                     test_per_class=2, seed=0)
    d = gen_dataset(spec)
    assert d.train_x.shape == (12, 32, 32, 3) and d.train_x.dtype == np.uint8
    assert d.test_x.shape == (6, 32, 32, 3)
    assert np.bincount(d.train_y).tolist() == [4, 4, 4]
    assert np.bincount(d.test_y).tolist() == [2, 2, 2]


def test_dataset_bytes_pinned():
    # taken when images were stacked from lists; preallocating keeps the bytes
    spec = SynthSpec(image_size=32, classes=3, train_per_class=4,
                     test_per_class=2, marker=True, seed=11)
    d = gen_dataset(spec)
    h = hashlib.sha256()
    for a in (d.train_x, d.train_y, d.test_x, d.test_y):
        h.update(a.tobytes())
    assert h.hexdigest() == (
        "6686420577da50603f74b443efed4c45101787af9e4c235b9558413b5cec4c32")
    assert d.train_y.dtype == d.test_y.dtype == np.int64


def test_dataset_deterministic():
    spec = SynthSpec(image_size=32, classes=2, train_per_class=3,
                     test_per_class=1, seed=7)
    a, b = gen_dataset(spec), gen_dataset(spec)
    assert np.array_equal(a.train_x, b.train_x)
    assert np.array_equal(a.test_y, b.test_y)


def test_dataset_empty_split():
    spec = SynthSpec(image_size=32, classes=2, train_per_class=0,
                     test_per_class=1, seed=0)
    d = gen_dataset(spec)
    assert d.train_x.shape == (0, 32, 32, 3)
    assert d.test_x.shape == (2, 32, 32, 3)


def test_dataset_marker_present():
    spec = SynthSpec(image_size=32, classes=2, train_per_class=3,
                     test_per_class=0, marker=True, seed=0)
    d = gen_dataset(spec)
    for img in d.train_x:
        assert white_marker_count(img) >= 1


def test_dataset_validates_spec():
    with pytest.raises(ConfigError):
        SynthSpec(classes=11)
    with pytest.raises(ConfigError):
        SynthSpec(image_size=8)


def test_classes_are_visually_separable():
    # 1-NN over raw pixels must beat chance by a wide margin, otherwise the
    # training criterion would be testing noise
    spec = SynthSpec(image_size=32, classes=4, train_per_class=20,
                     test_per_class=5, seed=0)
    d = gen_dataset(spec)
    train_f = d.train_x.reshape(len(d.train_x), -1).astype(np.float64)
    test_f = d.test_x.reshape(len(d.test_x), -1).astype(np.float64)
    hits = 0
    for i in range(len(test_f)):
        j = int(np.argmin(((train_f - test_f[i]) ** 2).sum(axis=1)))
        hits += int(d.train_y[j] == d.test_y[i])
    acc = hits / len(test_f)
    assert acc >= 0.5, f"1-NN accuracy {acc} barely above chance 0.25"


def test_puzzle_corpus_deterministic_and_in_range():
    a = gen_puzzle_corpus(3, 48, seed=5)
    b = gen_puzzle_corpus(3, 48, seed=5)
    assert len(a) == 3
    for x, y in zip(a, b):
        assert np.array_equal(x, y)
        assert x.shape == (48, 48, 3) and x.dtype == np.uint8


# ---------------------------------------------------------------- config


def test_enc_mode_settings():
    for mode in MODES:
        TrainConfig(model=TINY_MODEL if mode in ("none", "rs") else
                    dataclasses.replace(TINY_MODEL, patch_dim=8 * 8 * 3),
                    encryption=mode)
    TrainConfig(model=dataclasses.replace(TINY_MODEL, patch_dim=8 * 8 * 3),
                encryption="spn:3")
    with pytest.raises(ConfigError):
        TrainConfig(model=TINY_MODEL, encryption="rot13")
    with pytest.raises(ConfigError):
        TrainConfig(model=TINY_MODEL, encryption="spn:0")
    with pytest.raises(ConfigError):
        TrainConfig(model=TINY_MODEL, encryption="spn:x")


def test_train_config_bounds():
    with pytest.raises(ConfigError):
        tiny_cfg(epochs=0)
    with pytest.raises(ConfigError):
        tiny_cfg(drop_ratio=1.0)
    with pytest.raises(ConfigError):
        tiny_cfg(interval=-1)
    for bad in ({"lr": -1.0}, {"lr": 0.0}, {"lr": float("nan")}, {"lr": float("inf")},
                {"lr": -float("inf")}):
        with pytest.raises(ConfigError):
            tiny_cfg(**bad)


def test_token_dim():
    assert token_dim("none", 16, 3) == 768
    assert token_dim("rs", 16, 3) == 768
    assert token_dim("mi", 16, 3) == 192
    assert token_dim("rs+mi", 16, 3) == 192
    assert token_dim("mi+rs", 16, 3) == 192
    assert token_dim("spn:2", 16, 3) == 192


def test_token_dim_rejects_odd_patch_for_mixing():
    assert token_dim("none", 15, 3) == token_dim("rs", 15, 3) == 675
    for mode in ("mi", "rs+mi", "mi+rs", "spn:2"):
        with pytest.raises(GeometryError, match="even"):
            token_dim(mode, 15, 3)


# ---------------------------------------------------------------- vectors


def test_image_vectors_shapes_per_mode():
    rng = np.random.default_rng(0)
    img = rng.integers(0, 256, size=(32, 32, 3), dtype=np.uint8)
    for mode, dim in (("none", 768), ("rs", 768), ("mi", 192),
                      ("rs+mi", 192), ("mi+rs", 192), ("spn:2", 192)):
        model = dataclasses.replace(TINY_MODEL, patch_dim=dim)
        cfg = tiny_cfg(model=model, encryption=mode)
        v = image_vectors(img, cfg, SplitMix64(0))
        assert v.shape == (4, dim), mode
        assert v.min() >= 0.0 and v.max() <= 1.0, mode


def test_image_vectors_none_is_plain_flatten():
    rng = np.random.default_rng(1)
    img = rng.integers(0, 256, size=(32, 32, 3), dtype=np.uint8)
    cfg = tiny_cfg(encryption="none")
    v = image_vectors(img, cfg, SplitMix64(0))
    grid = split_patches(Image(pixels=img), 16, 0)
    want = np.stack([p.reshape(-1) / 255.0 for p in grid.patches])
    assert np.array_equal(v, want)


def test_image_vectors_rs_is_row_permutation():
    rng = np.random.default_rng(2)
    img = rng.integers(0, 256, size=(32, 32, 3), dtype=np.uint8)
    plain = image_vectors(img, tiny_cfg(encryption="none"), SplitMix64(0))
    shuffled = image_vectors(img, tiny_cfg(encryption="rs"), SplitMix64(3))
    # same multiset of rows, and the permutation is the seeded key
    key = gen_key(SplitMix64(3).next_u64(), 4)
    assert np.array_equal(shuffled, plain[list(key.perm)])


def test_image_vectors_drop_only_for_plain_modes():
    rng = np.random.default_rng(3)
    img = rng.integers(0, 256, size=(32, 32, 3), dtype=np.uint8)
    cfg = tiny_cfg(encryption="rs", drop_ratio=0.5)
    v = image_vectors(img, cfg, SplitMix64(0))
    assert v.shape == (2, 768)
    model = dataclasses.replace(TINY_MODEL, patch_dim=192)
    with pytest.raises(ConfigError, match="drop_ratio"):
        tiny_cfg(model=model, encryption="mi", drop_ratio=0.5)


def test_geometry_checked_before_training():
    spec = SynthSpec(image_size=40, classes=2, train_per_class=1,
                     test_per_class=0, seed=0)
    d = gen_dataset(spec)
    with pytest.raises(GeometryError, match="divisible"):
        train(tiny_cfg(), d)
    spec2 = SynthSpec(image_size=32, classes=2, train_per_class=1,
                      test_per_class=0, seed=0)
    d2 = gen_dataset(spec2)
    model = dataclasses.replace(TINY_MODEL, patch_dim=100)
    with pytest.raises(ConfigError, match="patch_dim"):
        train(tiny_cfg(model=model), d2)


# ---------------------------------------------------------------- training


def test_adam_moves_toward_minimum():
    # quadratic bowl: (w - 3)^2; a few hundred steps land near 3
    w = Tensor(np.array([[0.0]]))
    opt = Adam({"w": w}, lr=0.1)
    for _ in range(300):
        w.grad[...] = 2.0 * (w.data - 3.0)  # the grad is a view into opt.grad
        opt.step()
    assert abs(w.data[0, 0] - 3.0) < 1e-3
    assert np.array_equal(w.grad, [[0.0]])  # step zeroes gradients in place


def test_zero_grads_keeps_adam_gradients_attached():
    # one-weight bowl (w - 3)^2 through the tape, zeroing before each backward
    w = Tensor(np.array([[0.0]]))
    opt = Adam({"w": w}, lr=0.1)
    for _ in range(300):
        zero_grads({"w": w})
        d = add(w, Tensor(np.array([[-3.0]])))
        backward(matmul(d, d))
        opt.step()
    assert abs(w.data[0, 0] - 3.0) < 1e-3
    assert np.shares_memory(w.grad, opt.grad)


def test_train_loss_decreases():
    spec = SynthSpec(image_size=32, classes=4, train_per_class=4,
                     test_per_class=2, seed=0)
    d = gen_dataset(spec)
    params, hist = train(tiny_cfg(), d)
    assert len(hist) == 5
    assert hist[0]["epoch"] == 0 and hist[-1]["epoch"] == 4
    assert hist[-1]["loss"] < hist[0]["loss"]


def test_train_deterministic():
    spec = SynthSpec(image_size=32, classes=2, train_per_class=2,
                     test_per_class=0, seed=1)
    d = gen_dataset(spec)
    model = dataclasses.replace(TINY_MODEL, n_classes=2)
    pa, ha = train(tiny_cfg(model=model, epochs=2), d)
    pb, hb = train(tiny_cfg(model=model, epochs=2), d)
    assert ha == hb
    for name in pa:
        assert np.array_equal(pa[name].data, pb[name].data), name


def test_train_leaves_no_adam_thread(monkeypatch):
    # embed.w alone is 98,304 floats, over one ADAM_BLOCK: every step
    # hands its second half to one worker, joined before step returns
    spec = SynthSpec(image_size=32, classes=2, train_per_class=2,
                     test_per_class=0, seed=1)
    model = dataclasses.replace(TINY_MODEL, dim=128, n_classes=2)
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda self: started.append(self) or start(self))
    before = threading.active_count()
    train(tiny_cfg(model=model, epochs=2), gen_dataset(spec))
    assert len(started) == 8  # 4 images, 2 epochs, batch 1
    assert threading.active_count() == before


def test_train_writes_checkpoint(tmp_path):
    spec = SynthSpec(image_size=32, classes=2, train_per_class=2,
                     test_per_class=0, seed=2)
    d = gen_dataset(spec)
    model = dataclasses.replace(TINY_MODEL, n_classes=2)
    path = tmp_path / "m.petn"
    params, _ = train(tiny_cfg(model=model, epochs=1), d, checkpoint=path)
    back = load_checkpoint(path)
    assert sorted(back) == sorted(params)
    for name in params:
        assert np.array_equal(back[name].data, params[name].data)


def test_train_non_finite_raises_without_checkpoint(tmp_path):
    # lr=1e300 blows the weights up after the first step: the next logits
    # are NaN, and no checkpoint may be written
    spec = SynthSpec(image_size=32, classes=2, train_per_class=4,
                     test_per_class=0, seed=0)
    path = tmp_path / "m.petn"
    model = dataclasses.replace(TINY_MODEL, n_classes=2)
    with pytest.raises(DataError, match="finite"):
        train(tiny_cfg(model=model, epochs=2, lr=1e300), gen_dataset(spec),
              checkpoint=path)
    assert not path.exists()


def test_train_non_finite_last_step_writes_no_checkpoint(tmp_path, monkeypatch):
    # one sample, one step to an infinite weight that is never run forward
    spec = SynthSpec(image_size=32, classes=1, train_per_class=1,
                     test_per_class=0, seed=0)
    path = tmp_path / "m.petn"
    step = Adam.step

    def step_to_inf(opt):
        step(opt)
        opt.params["head.b"].data[0, 0] = np.inf

    monkeypatch.setattr(Adam, "step", step_to_inf)
    with pytest.raises(DataError, match="finite"):
        train(tiny_cfg(epochs=1), gen_dataset(spec), checkpoint=path)
    assert not path.exists()


def test_empty_splits_are_data_errors(tmp_path):
    spec = SynthSpec(image_size=32, classes=2, train_per_class=0,
                     test_per_class=0, seed=0)
    d = gen_dataset(spec)
    path = tmp_path / "m.petn"
    with pytest.raises(DataError, match="no training images"):
        train(tiny_cfg(), d, checkpoint=path)
    assert not path.exists()
    params = pevit.init_params(TINY_MODEL, seed=0)
    with pytest.raises(DataError, match="no images"):
        evaluate(params, tiny_cfg(), d.test_x, d.test_y)


def test_overfit_micro_set_to_perfect_accuracy():
    spec = SynthSpec(image_size=32, classes=2, train_per_class=4,
                     test_per_class=0, seed=1)
    d = gen_dataset(spec)
    model = dataclasses.replace(TINY_MODEL, n_classes=2)
    cfg = tiny_cfg(model=model, epochs=25)
    params, hist = train(cfg, d)
    assert hist[-1]["accuracy"] == 1.0
    assert evaluate(params, cfg, d.train_x, d.train_y, seed=5) == 1.0


def test_untrained_model_near_chance():
    spec = SynthSpec(image_size=32, classes=10, train_per_class=0,
                     test_per_class=10, seed=2)
    d = gen_dataset(spec)
    model = dataclasses.replace(TINY_MODEL, n_classes=10)
    cfg = tiny_cfg(model=model)
    params = pevit.init_params(model, seed=3)
    acc = evaluate(params, cfg, d.test_x, d.test_y, seed=0)
    assert acc <= 0.3, f"untrained accuracy {acc} suspiciously high"


def test_predictions_reject_non_finite_logits():
    # np.argmax would silently call a NaN row class 0
    spec = SynthSpec(image_size=32, classes=2, train_per_class=1,
                     test_per_class=0, seed=1)
    d = gen_dataset(spec)
    cfg = tiny_cfg()
    params = pevit.init_params(TINY_MODEL, seed=0)
    params["head.w"].data[0, 0] = np.nan
    with pytest.raises(DataError, match="finite"):
        predictions(params, cfg, d.train_x)


def test_predictions_reject_overflowing_layer_norm():
    # an embedding of scale 1e200 gives finite tokens whose squared
    # deviations overflow: layer_norm would map every row to 0 and the
    # model would still return labels
    spec = SynthSpec(image_size=32, classes=2, train_per_class=1,
                     test_per_class=0, seed=1)
    d = gen_dataset(spec)
    params = pevit.init_params(TINY_MODEL, seed=0)
    w = params["embed.w"].data
    w[...] = np.random.default_rng(0).standard_normal(w.shape) * 1e200
    with pytest.raises(DataError, match="variance"):
        predictions(params, tiny_cfg(), d.train_x)


def test_accuracy_identical_across_shuffle_seeds():
    spec = SynthSpec(image_size=32, classes=2, train_per_class=4,
                     test_per_class=0, seed=1)
    d = gen_dataset(spec)
    model = dataclasses.replace(TINY_MODEL, n_classes=2)
    cfg = tiny_cfg(model=model, epochs=3)
    params, _ = train(cfg, d)
    preds = [predictions(params, cfg, d.train_x, seed=s) for s in (11, 97)]
    assert np.array_equal(preds[0], preds[1])


# ---------------------------------------------------------------- baseline


def test_baseline_has_positional_rows():
    model = dataclasses.replace(TINY_MODEL, n_classes=10, positions=5)
    p = pevit.init_params(model, seed=0)
    assert p["pos"].shape == (5, 16)
    rng = np.random.default_rng(4)
    x = rng.random((4, 768))
    out = pevit.forward(p, model, x)
    assert out.data.shape == (1, 10)


def test_baseline_sensitive_to_patch_order():
    model = dataclasses.replace(TINY_MODEL, n_classes=10, positions=5)
    p = pevit.init_params(model, seed=0)
    rng = np.random.default_rng(5)
    x = rng.random((4, 768))
    a = pevit.forward(p, model, x).data
    b = pevit.forward(p, model, x[[1, 0, 3, 2]]).data
    assert np.max(np.abs(a - b)) > 1e-6


def test_train_positional_model():
    # train fits the pos rows of a positional config, and the trained model
    # depends on patch order; the same params under positions 0 do not
    spec = SynthSpec(image_size=32, classes=4, train_per_class=3,
                     test_per_class=2, seed=0)
    d = gen_dataset(spec)
    model = dataclasses.replace(TINY_MODEL, positions=5)
    cfg = tiny_cfg(model=model, epochs=2)
    params, history = train(cfg, d)
    assert np.isfinite(history[-1]["loss"])
    assert not np.array_equal(params["pos"].data,
                              pevit.init_params(model, seed=0)["pos"].data)
    for positions in (5, 0):
        m = dataclasses.replace(model, positions=positions)
        a, b = (np.array([pevit.forward(params, m, image_vectors(img, cfg, SplitMix64(s))).data
                          for img in d.test_x]) for s in (11, 97))
        assert (np.max(np.abs(a - b)) > 1e-9) == bool(positions), positions


@pytest.mark.parametrize("positions,drop_ratio,tokens", [(5, 0.0, 17), (17, 0.1, 16)])
def test_positions_checked_before_any_weight(monkeypatch, positions, drop_ratio, tokens):
    # 64^2 at P=16 is 16 patches; a drop ratio of 0.1 leaves 15, plus the class row
    d = gen_dataset(SynthSpec(image_size=64, classes=4, train_per_class=1,
                              test_per_class=1, seed=0))
    cfg = tiny_cfg(model=dataclasses.replace(TINY_MODEL, positions=positions),
                   drop_ratio=drop_ratio, epochs=1)

    def refuse(*args, **kwargs):
        raise AssertionError("the model ran")

    monkeypatch.setattr(pevit, "init_params", refuse)
    monkeypatch.setattr(pevit, "predict", refuse)
    want = f"positions {positions} does not match the {tokens} tokens"
    with pytest.raises(ConfigError, match=want):
        train(cfg, d)
    with pytest.raises(ConfigError, match=want):
        predictions({}, cfg, d.test_x)
    monkeypatch.undo()
    # the count the check names is the one the model needs
    fitted = tiny_cfg(model=dataclasses.replace(TINY_MODEL, positions=tokens),
                      drop_ratio=drop_ratio, epochs=1)
    params, _ = train(fitted, d)
    assert predictions(params, fitted, d.test_x).shape == (4,)


# ---------------------------------------------------------------- gradleak


def test_gradleak_demo_recovers_ciphertext_only():
    rng = np.random.default_rng(6)
    img = rng.integers(0, 256, size=(64, 64, 3), dtype=np.uint8)
    out = gradleak_demo(img, patch_size=16, seed=0)
    assert out["slot_source"] == gen_key(0, 16).perm[0]
    assert out["corr_cipher"] > 1.0 - 1e-9
    assert abs(out["corr_plain"]) < 0.9
    assert out["recovered"].shape == (768,)
    # under rs the recovered patch is a plaintext patch, pixels intact
    plain = token_rows(split_patches(Image(pixels=img), 16, 0))[out["slot_source"]]
    assert np.max(np.abs(out["recovered"] - plain / np.linalg.norm(plain))) < 1e-8


# ---------------------------------------------------------------- leakage


def marker_corpus(n=20, seed=4):
    spec = SynthSpec(image_size=64, classes=10, train_per_class=n // 10,
                     test_per_class=0, marker=True, seed=seed)
    return list(gen_dataset(spec).train_x)


def test_white_marker_count_exact():
    img = np.zeros((32, 32, 3), dtype=np.uint8)
    assert white_marker_count(img) == 0
    img[4:4 + MARKER_SIZE, 10:10 + MARKER_SIZE] = 255
    assert white_marker_count(img) == 1
    # two extra rows of white: (rows-7) x (cols-7) sliding windows
    img[4:4 + MARKER_SIZE + 2, 10:10 + MARKER_SIZE] = 255
    assert white_marker_count(img) == 3


def test_leakage_identity_for_plain_mode():
    corpus = marker_corpus()
    assert leakage_ratio(corpus, "none", 16, seed=0) == 1.0


def test_leakage_drops_under_encryption():
    # frozen run: rs=0.3, mi=0.0, rs+mi=0.0 on this corpus; rs keeps some
    # markers (those inside one patch), mixing erases all of them
    corpus = marker_corpus()
    rs = leakage_ratio(corpus, "rs", 16, seed=0)
    mi = leakage_ratio(corpus, "mi", 16, seed=0)
    both = leakage_ratio(corpus, "rs+mi", 16, seed=0)
    assert rs == pytest.approx(0.3)
    assert mi == 0.0
    assert both == 0.0
    assert mi <= rs < 1.0


def test_leakage_undefined_without_detections():
    corpus = [np.zeros((32, 32, 3), dtype=np.uint8)]
    with pytest.raises(DataError):
        leakage_ratio(corpus, "rs", 16, seed=0)


# ---------------------------------------------------------------- solver


def test_truth_for_key_matches_manual_construction():
    rng = np.random.default_rng(7)
    img = rng.integers(0, 256, size=(32, 32, 3), dtype=np.uint8)
    grid = split_patches(Image(pixels=img), 16, 0)
    key = gen_key(9, 4)
    enc = rs_encrypt(grid, key)
    truth = truth_for_key(key, 2, 2)
    # slot of original patch j must hold the encrypted index i with perm[i]=j
    for i, j in enumerate(key.perm):
        assert truth.slots[j // 2, j % 2] == i
    # solving with the truth arrangement scores perfectly
    assert puzzle_metrics(truth, truth) == {"direct": 1.0, "neighbor": 1.0}


def test_solve_image_perfect_on_smooth_64px():
    img = gen_puzzle_corpus(1, 64, seed=0)[0]
    m = solve_image(img, patch_size=16, interval=0, drop_ratio=0.0, seed=0)
    assert m["direct"] == 1.0 and m["neighbor"] == 1.0


def test_solve_corpus_reports_means_and_per_image():
    corpus = gen_puzzle_corpus(3, 64, seed=0)
    r = solve_corpus(corpus, 16, interval=0, seed=0)
    assert len(r["per_image_direct"]) == 3
    assert r["direct"] == pytest.approx(np.mean(r["per_image_direct"]))
    assert r["direct"] > 0.9


def test_solve_corpus_rejects_empty_corpus():
    with pytest.raises(DataError, match="no images"):
        solve_corpus([], 16)


def test_truth_for_key_rejects_key_of_wrong_size():
    for n in (3, 5):
        with pytest.raises(KeyMismatchError):
            truth_for_key(gen_key(0, n), 2, 2)


# ---------------------------------------------------------------- sweep


def test_image_side_bound():
    # every side the package and its benchmark use is inside the bound
    SynthSpec(image_size=MAX_IMAGE_SIZE, classes=1, train_per_class=1, test_per_class=1)
    assert MAX_IMAGE_SIZE >= 224
    with pytest.raises(ConfigError, match="image_size"):
        SynthSpec(image_size=MAX_IMAGE_SIZE + 1)
    with pytest.raises(ConfigError, match="image_size"):
        gen_puzzle_corpus(1, MAX_IMAGE_SIZE + 1)
    assert gen_puzzle_corpus(1, 1)[0].shape == (1, 1, 3)
    for side in (0, -5):
        with pytest.raises(ConfigError, match="image_size"):
            gen_puzzle_corpus(1, side)
    with pytest.raises(ConfigError, match="image_size"):
        sweep([SweepCell(patch_size=16, image_size=MAX_IMAGE_SIZE + 1)], corpus_size=1)


def no_drawing(monkeypatch):
    def drew(*args):
        raise AssertionError("an image was drawn")

    monkeypatch.setattr(picrypt.harness, "_render_sample", drew)
    monkeypatch.setattr(picrypt.harness, "_bilinear_upsample", drew)


def test_synth_spec_corpus_bound():
    # the bound admits the defaults and the largest corpus that fits
    SynthSpec()
    fits = MAX_CORPUS_BYTES // (64 * 64 * 3)
    SynthSpec(image_size=64, classes=1, train_per_class=fits, test_per_class=0)
    with pytest.raises(ConfigError, match="MAX_CORPUS_BYTES"):
        SynthSpec(image_size=64, classes=1, train_per_class=fits - 2, test_per_class=3)
    with pytest.raises(ConfigError, match="MAX_CORPUS_BYTES"):
        SynthSpec(train_per_class=10**9)


def test_puzzle_corpus_bound_before_any_image(monkeypatch):
    no_drawing(monkeypatch)
    with pytest.raises(ConfigError, match="MAX_CORPUS_BYTES"):
        gen_puzzle_corpus(MAX_CORPUS_BYTES // (64 * 64 * 3) + 1, 64)
    with pytest.raises(ConfigError, match="MAX_CORPUS_BYTES"):
        sweep([SweepCell(patch_size=16, image_size=224)], corpus_size=10**8)


@pytest.mark.parametrize("drop", [float("nan"), -0.5, 1.0, 1.5])
def test_sweep_cell_rejects_drop_outside_unit_interval(drop):
    with pytest.raises(ConfigError, match="drop_ratio"):
        SweepCell(patch_size=16, drop_ratio=drop)


@pytest.mark.parametrize("patch,interval,match", [
    (0, 0, "patch_size must be >= 2"), (16, -1, "interval must be >= 0"),
    (100, 0, "exceeds image dimensions"), (24, 0, "not divisible"),
], ids=["patch0", "interval-1", "patch100", "patch24"])
def test_sweep_cell_rejects_bad_geometry(patch, interval, match):
    with pytest.raises(GeometryError, match=match):
        SweepCell(patch_size=patch, interval=interval, image_size=64)


def test_sweep_rows_and_csv():
    rows = sweep([SweepCell(patch_size=16, interval=0, image_size=48)],
                 seed=0, corpus_size=2)
    assert len(rows) == 1
    assert np.isnan(rows[0]["model_accuracy"])
    csv = sweep_to_csv(rows)
    lines = csv.splitlines()
    assert lines[0] == SWEEP_HEADER
    # the first four columns are the SweepCell fields, in order
    assert SWEEP_HEADER.split(",")[:4] == [f.name for f in dataclasses.fields(SweepCell)]
    assert lines[1].startswith("16,0,0,48,")


def test_sweep_smaller_patches_degrade_solver():
    # frozen run at 224px, interval 1, 5 images:
    #   P=32 neighbor 1.0000, P=16 0.9096, P=8 0.3178
    rows = sweep([SweepCell(patch_size=p, interval=1) for p in (32, 16, 8)],
                 seed=0, corpus_size=5)
    nb = [r["solver_neighbor"] for r in rows]
    assert nb[0] > nb[1] > nb[2], f"no granularity trend: {nb}"
    assert nb[0] > 0.95 and nb[2] < 0.5


def test_sweep_with_training_budget():
    spec = SynthSpec(image_size=32, classes=2, train_per_class=2,
                     test_per_class=1, seed=0)
    base = TrainConfig(model=dataclasses.replace(TINY_MODEL, n_classes=2),
                       epochs=1, encryption="rs", patch_size=16, seed=0)
    rows = sweep([SweepCell(patch_size=16, interval=0, image_size=32)],
                 seed=0, corpus_size=1, training=(spec, base))
    assert 0.0 <= rows[0]["model_accuracy"] <= 1.0


# ---------------------------------------------------------------- config files


def test_parse_config_text():
    text = """
    # comment line
    data.classes = 4

    train.epochs=7   # trailing comment
    enc.mode = rs+mi
    """
    d = parse_config_text(text)
    assert d == {"data.classes": "4", "train.epochs": "7", "enc.mode": "rs+mi"}


def test_parse_config_rejects_bad_line():
    with pytest.raises(ConfigError):
        parse_config_text("this is not a key value pair\n")


def test_config_specs_defaults_and_overrides(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text(
        "data.image_size = 32\ndata.classes = 2\ndata.train_per_class = 2\n"
        "data.test_per_class = 1\nmodel.dim = 16\nmodel.depth = 1\n"
        "model.heads = 2\nmodel.ffn_dim = 32\ntrain.epochs = 3\n"
        "enc.mode = rs\nenc.patch_size = 16\n"
    )
    spec, cfg = config_specs(load_config(path))
    assert spec.image_size == 32 and spec.classes == 2
    assert cfg.epochs == 3 and cfg.encryption == "rs"
    assert cfg.model.patch_dim == 768 and cfg.model.n_classes == 2


def test_load_config_not_utf8_is_config_error(tmp_path):
    # the offset counts from the start of the file, past the first 8 KiB read
    head = b"# padding\n" * 1000 + b"enc.mode = r"
    path = tmp_path / "c.cfg"
    path.write_bytes(head + b"\xe9s\n")
    with pytest.raises(ConfigError, match=f"not UTF-8: byte 0xe9 at offset {len(head)}$"):
        load_config(path)


def test_config_specs_rejects_empty_test_split():
    # train, eval and sweep all evaluate: rejected with the config
    with pytest.raises(DataError, match="data.test_per_class = 0: no images to evaluate"):
        config_specs({"data.test_per_class": "0"})


@pytest.mark.parametrize("field", ["train_per_class", "test_per_class"])
def test_synth_spec_rejects_negative_per_class_counts(monkeypatch, field):
    # a ConfigError naming the field, before numpy sees a negative dimension
    no_drawing(monkeypatch)
    with pytest.raises(ConfigError, match=f"{field} must be >= 0, got -1"):
        config_specs({f"data.{field}": "-1"})
    assert getattr(SynthSpec(**{field: 0}), field) == 0


def test_config_specs_rejects_a_model_of_too_many_arrays(monkeypatch):
    # 2,796,136 one-float layers fit MAX_MODEL_FLOATS but make 33.6 M arrays
    def drew(*args, **kwargs):
        raise AssertionError("weights were drawn")

    monkeypatch.setattr(pevit, "init_params", drew)
    d = {"model.dim": "1", "model.heads": "1", "model.ffn_dim": "1", "model.depth": "2796136"}
    with pytest.raises(ConfigError, match="MAX_MODEL_TENSORS"):  # checked after the floats
        config_specs(d)


def test_config_specs_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown"):
        config_specs({"data.bogus": "1"})


def test_config_specs_rejects_bad_value():
    with pytest.raises(ConfigError):
        config_specs({"train.epochs": "many"})


def test_config_specs_bool_words():
    for raw, want in (("true", True), ("False", False), ("1", True), ("0", False)):
        spec, cfg = config_specs({"data.marker": raw, "model.rpe": raw})
        assert spec.marker is want and cfg.model.rpe is want
    with pytest.raises(ConfigError, match="model.rpe"):
        config_specs({"model.rpe": "yes"})


@pytest.mark.parametrize("key", ["data.seed", "train.seed"])
@pytest.mark.parametrize("seed", [-1, 1 << 64])
def test_config_specs_reject_seeds_outside_64_bits(key, seed):
    with pytest.raises(ConfigError, match="seed must be in"):
        config_specs({key: str(seed)})
    spec, cfg = config_specs({key: str((1 << 64) - 1)})
    assert (1 << 64) - 1 in (spec.seed, cfg.seed)


def test_config_specs_empty_is_dataclass_defaults():
    spec, cfg = config_specs({})
    assert spec == SynthSpec()
    train_defaults = {f.name: f.default for f in dataclasses.fields(TrainConfig)
                      if f.name != "model"}
    pdim = token_dim(train_defaults["encryption"], train_defaults["patch_size"], 3)
    model = ModelConfig(patch_dim=pdim, n_classes=spec.classes)
    assert cfg == TrainConfig(model=model, **train_defaults)


def probe_config_keys() -> set:
    """Every `section.field` name (plus enc.mode) that config_specs accepts.

    The candidates are each section prefix joined to each field of the
    three config dataclasses; a key is known when config_specs does not
    reject it as unknown (its value may still be bad).
    """
    fields = {f.name for cls in (SynthSpec, ModelConfig, TrainConfig)
              for f in dataclasses.fields(cls)}
    candidates = {f"{section}.{name}" for section in ("data", "model", "train", "enc")
                  for name in fields} | {"enc.mode"}
    known = set()
    for key in candidates:
        try:
            config_specs({key: "1"})
        except ConfigError as e:
            if "unknown config keys" in str(e):
                continue
        known.add(key)
    return known


CONFIG_KEYS = sorted(probe_config_keys())


def readme_config_keys() -> set:
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("## Config files", 1)[1].split("\n## ", 1)[0]
    keys = set()
    for line in section.splitlines():
        if line.startswith("| `"):
            keys.update(re.findall(r"`([^`]+)`", line.split("|")[1]))
    return keys


def test_readme_config_table_matches_config_keys():
    assert len(CONFIG_KEYS) == 20
    assert readme_config_keys() == set(CONFIG_KEYS)


CONFIG_VALUES = st.one_of(
    st.text(max_size=12),
    st.integers(min_value=-10**6, max_value=10**6).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["true", "False", "0", "1", "rs", "mi+rs", "spn:2", "16", "0.5"]),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.dictionaries(st.sampled_from(CONFIG_KEYS), CONFIG_VALUES))
def test_config_specs_returns_specs_or_config_error(d):
    try:
        spec, cfg = config_specs(d)
    except ConfigError:
        return
    except DataError:  # the one DataError: an empty test split
        assert int(d["data.test_per_class"]) == 0
        return
    for obj in (spec, cfg, cfg.model):  # every field keeps its default's type
        for f in dataclasses.fields(obj):
            if f.default is not dataclasses.MISSING:
                assert type(getattr(obj, f.name)) is type(f.default), f.name


CONFIG_LINES = st.one_of(
    st.tuples(st.sampled_from(CONFIG_KEYS),
              CONFIG_VALUES | st.integers().map(str)
              | st.text("0123456789", min_size=4000, max_size=5000)),
    st.text(max_size=20).map(lambda line: (line,)),
).map(" = ".join)


# a valid config naming every key; one key's value replaced, it reaches
# check_geometry and gen_dataset far more often than a free text does
VALID_CONFIG = {
    "data.image_size": "32", "data.classes": "2", "data.train_per_class": "1",
    "data.test_per_class": "1", "data.marker": "false", "data.seed": "3",
    "model.dim": "16", "model.depth": "1", "model.heads": "2", "model.ffn_dim": "32",
    "model.rpe": "false", "model.rpe_hidden": "8", "train.epochs": "1",
    "train.batch": "1", "train.lr": "0.01", "train.seed": "0", "enc.mode": "rs",
    "enc.patch_size": "16", "enc.interval": "0", "enc.drop_ratio": "0.0",
}
ONE_KEY_EDITS = st.tuples(
    st.sampled_from(CONFIG_KEYS),
    st.integers(-2, 64).map(str) | CONFIG_VALUES | st.integers().map(str),
).map(lambda edit: "\n".join(f"{key} = {edit[1] if key == edit[0] else value}"
                              for key, value in VALID_CONFIG.items()))


def test_valid_config_names_every_key_and_draws_its_dataset():
    assert sorted(VALID_CONFIG) == CONFIG_KEYS
    spec, cfg = config_specs(VALID_CONFIG)
    check_geometry(cfg, (spec.image_size, spec.image_size, 3))
    assert len(gen_dataset(spec).train_x) == 2


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(ONE_KEY_EDITS | st.lists(CONFIG_LINES, max_size=8).map("\n".join))
@example("enc.patch_size = 1" + "0" * 3999)  # its weight count passed str()'s limit
@example("data.train_per_class = -1")  # must stop at SynthSpec, not at np.empty
def test_config_text_gives_specs_or_a_picrypt_error(text):
    # any key=value text over the known keys, and any stray line: specs whose
    # geometry fits and whose dataset draws, or a PicryptError, in bounded time
    try:
        spec, cfg = config_specs(parse_config_text(text))
        check_geometry(cfg, (spec.image_size, spec.image_size, 3))
    except PicryptError:
        return
    small = dataclasses.replace(spec, train_per_class=min(spec.train_per_class, 1),
                                test_per_class=min(spec.test_per_class, 1))
    data = gen_dataset(small)  # at most one image per class and split
    assert len(data.train_x) == small.classes * small.train_per_class
    assert len(data.test_y) == small.classes * small.test_per_class
