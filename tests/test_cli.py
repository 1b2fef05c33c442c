"""Tests for the command-line front end: verbs, formats, exit codes."""

import math
import struct
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import picrypt.attacks
import picrypt.cipher
import picrypt.harness
import picrypt.pevit
from picrypt.cli import MAX_KEYSPACE_N, run
from picrypt.errors import ConfigError
from picrypt.harness import TrainConfig
from picrypt.imgio import Image, load_ppm, save_ppm
from picrypt.pevit import ModelConfig
from picrypt.tensor import CHECKPOINT_MAGIC, Tensor, load_checkpoint, save_checkpoint

TINY_CFG = (
    "data.image_size = 32\ndata.classes = 2\ndata.train_per_class = 2\n"
    "data.test_per_class = 2\nmodel.dim = 16\nmodel.depth = 1\n"
    "model.heads = 2\nmodel.ffn_dim = 32\ntrain.epochs = 1\n"
    "enc.mode = rs\nenc.patch_size = 16\n"
)


def no_drawing(monkeypatch):
    def drew(*args):
        raise AssertionError("an image was drawn")

    monkeypatch.setattr(picrypt.harness, "_render_sample", drew)
    monkeypatch.setattr(picrypt.harness, "_bilinear_upsample", drew)


def counted(monkeypatch, *names):
    """Record the calls of the named harness functions; they still run."""
    calls = []
    for name in names:
        real = getattr(picrypt.harness, name)
        monkeypatch.setattr(picrypt.harness, name,
                            lambda *a, _n=name, _f=real, **k: calls.append(_n) or _f(*a, **k))
    return calls


def allocated(*args, **kwargs):
    raise AssertionError("model weights were allocated")


def write_image(path, size=32, seed=0, channels=3):
    rng = np.random.default_rng(seed)
    px = rng.integers(0, 256, size=(size, size, channels), dtype=np.uint8)
    save_ppm(Image(pixels=px), path)
    return px


# ---------------------------------------------------------------- usage


def test_no_verb_is_usage_error(capsys):
    assert run([]) == 1


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert "picrypt" in capsys.readouterr().out


def test_unknown_verb_is_usage_error():
    assert run(["frobnicate"]) == 1


def test_missing_required_flag_is_usage_error(capsys):
    assert run(["keyspace"]) == 1
    assert "picrypt:" in capsys.readouterr().err


SEEDED_VERBS = {
    "encrypt": ["--mode", "mi", "--in", "a.ppm", "--out", "b.ppm"],
    "attack-gradleak": ["--in", "a.ppm"],
    "attack-collision": ["--in", "a.ppm"],
    "eval": ["--config", "c.cfg", "--ckpt", "m.petn"],
    "leakage": ["--mode", "none", "--images", "2", "--image-size", "32"],
    "sweep": ["--images", "2", "--image-size", "32"],
    "gradcheck": [],
}


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
@pytest.mark.parametrize("verb", SEEDED_VERBS)
def test_seed_out_of_range_is_usage_error(tmp_path, monkeypatch, capsys, verb, seed):
    # rejected while parsing, before any file is read or written
    monkeypatch.chdir(tmp_path)
    write_image(tmp_path / "a.ppm")
    assert run([verb, *SEEDED_VERBS[verb], "--seed", seed]) == 1
    assert "--seed" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.ppm"]


def test_bad_mode_fails_before_io(tmp_path, capsys):
    # never touches the filesystem: bad mode must not surface as exit 2
    assert run(["encrypt", "--mode", "nope", "--in", str(tmp_path / "x.ppm"),
                "--out", str(tmp_path / "y.ppm")]) == 1
    assert "nope" in capsys.readouterr().err


ACCEPTED_MODES = ("none", "rs", "mi", "rs+mi", "mi+rs", "spn:1", "spn:4")
REJECTED_MODES = ("", "RS", "spn:0", "spn:", "spn:x", "mi+mi", "spn:17")


@pytest.mark.parametrize("mode", ACCEPTED_MODES + REJECTED_MODES)
def test_mode_vocabulary_shared(tmp_path, capsys, mode):
    # encrypt --mode, leakage --mode and TrainConfig agree on every setting
    write_image(tmp_path / "a.ppm")
    encrypt = run(["encrypt", "--mode", mode, "--in", str(tmp_path / "a.ppm"),
                   "--out", str(tmp_path / "b.ppm")])
    leakage = run(["leakage", "--mode", mode, "--images", "2",
                   "--image-size", "32"])
    model = ModelConfig(patch_dim=1, dim=4, heads=1)
    if mode in ACCEPTED_MODES:
        assert (encrypt, leakage) == (0, 0)
        TrainConfig(model=model, encryption=mode)
    else:
        assert (encrypt, leakage) == (1, 1)
        with pytest.raises(ConfigError):
            TrainConfig(model=model, encryption=mode)


def test_key_flag_only_for_rs(tmp_path):
    write_image(tmp_path / "a.ppm")
    assert run(["encrypt", "--mode", "mi", "--in", str(tmp_path / "a.ppm"),
                "--out", str(tmp_path / "b.ppm"),
                "--key", str(tmp_path / "k.key")]) == 1


def test_missing_input_file_is_data_error(tmp_path, capsys):
    assert run(["encrypt", "--mode", "rs", "--in", str(tmp_path / "no.ppm"),
                "--out", str(tmp_path / "o.ppm")]) == 2


def test_value_error_inside_a_verb_is_internal_error(tmp_path, monkeypatch, capsys):
    # a ValueError is a bug, not a data error: only PicryptError and OSError exit 2
    def broken(seed, n):
        raise ValueError("boom")

    monkeypatch.setattr(picrypt.cipher, "gen_key", broken)
    write_image(tmp_path / "a.ppm")
    assert run(["encrypt", "--mode", "rs", "--in", str(tmp_path / "a.ppm"),
                "--out", str(tmp_path / "b.ppm")]) == 3
    assert "internal error: boom" in capsys.readouterr().err


def test_internal_error_maps_to_exit_3(monkeypatch, capsys):
    monkeypatch.setattr(picrypt.cipher, "keyspace",
                        lambda n: (_ for _ in ()).throw(RuntimeError("boom")))
    assert run(["keyspace", "--n", "4"]) == 3
    assert "internal error" in capsys.readouterr().err


# ---------------------------------------------------------------- keyspace


def test_keyspace_values(capsys):
    assert run(["keyspace", "--n", "4"]) == 0
    assert capsys.readouterr().out.strip() == "24"
    assert run(["keyspace", "--n", "49"]) == 0
    out = capsys.readouterr().out.strip()
    assert len(out) == 63 and out.startswith("60828186403426756087")
    assert run(["keyspace", "--n", "-1"]) == 1


def test_keyspace_prints_every_digit_past_the_str_limit(capsys):
    # 3136 patches is 224x224 at P=4: 9605 digits, past CPython's default 4300
    assert run(["keyspace", "--n", "3136"]) == 0
    out = capsys.readouterr().out.strip()
    assert len(out) == 9605 and Decimal(out) == math.factorial(3136)  # exact digits


def test_keyspace_bound_is_usage_error(capsys):
    assert run(["keyspace", "--n", str(MAX_KEYSPACE_N + 1)]) == 1
    assert str(MAX_KEYSPACE_N) in capsys.readouterr().err


# ---------------------------------------------------------------- encrypt


def test_encrypt_decrypt_roundtrip(tmp_path):
    px = write_image(tmp_path / "plain.ppm", seed=1)
    assert run(["encrypt", "--mode", "rs", "--in", str(tmp_path / "plain.ppm"),
                "--out", str(tmp_path / "enc.ppm"), "--patch", "8",
                "--seed", "5", "--key", str(tmp_path / "k.key")]) == 0
    enc = load_ppm(tmp_path / "enc.ppm")
    assert not np.array_equal(enc.pixels, px)
    assert sorted(enc.pixels.reshape(-1)) == sorted(px.reshape(-1))
    assert run(["decrypt", "--in", str(tmp_path / "enc.ppm"),
                "--out", str(tmp_path / "dec.ppm"), "--patch", "8",
                "--key", str(tmp_path / "k.key")]) == 0
    assert (tmp_path / "dec.ppm").read_bytes() == (tmp_path / "plain.ppm").read_bytes()


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_decrypt_key_seed_out_of_range_is_key_error(tmp_path, capsys, seed):
    write_image(tmp_path / "a.ppm", seed=6)
    (tmp_path / "k.key").write_text(
        f"{picrypt.cipher.KEY_MAGIC}\nn=16\nseed={seed}\nperm="
        + ",".join(map(str, range(16))) + "\n")
    assert run(["decrypt", "--in", str(tmp_path / "a.ppm"),
                "--out", str(tmp_path / "d.ppm"), "--patch", "8",
                "--key", str(tmp_path / "k.key")]) == 2
    assert f"got {seed}" in capsys.readouterr().err


def test_decrypt_key_with_a_fifth_line_is_key_error(tmp_path, capsys):
    write_image(tmp_path / "a.ppm", seed=6)
    picrypt.cipher.save_key(picrypt.cipher.gen_key(3, 16), tmp_path / "k.key")
    with (tmp_path / "k.key").open("a") as fh:
        fh.write("perm=" + ",".join(map(str, range(16))) + "\n")
    assert run(["decrypt", "--in", str(tmp_path / "a.ppm"),
                "--out", str(tmp_path / "d.ppm"), "--patch", "8",
                "--key", str(tmp_path / "k.key")]) == 2
    assert "key file has 5 lines" in capsys.readouterr().err


def test_decrypt_non_ascii_key_is_key_error(tmp_path, capsys):
    write_image(tmp_path / "a.ppm", seed=6)
    (tmp_path / "k.key").write_bytes(
        f"{picrypt.cipher.KEY_MAGIC}\nn=16\nseed=0\nperm=\xff\n".encode("latin-1"))
    assert run(["decrypt", "--in", str(tmp_path / "a.ppm"),
                "--out", str(tmp_path / "d.ppm"), "--patch", "8",
                "--key", str(tmp_path / "k.key")]) == 2
    assert "key file is not ASCII" in capsys.readouterr().err


def test_encrypt_none_copies_canonically(tmp_path):
    px = write_image(tmp_path / "a.ppm", seed=2)
    assert run(["encrypt", "--mode", "none", "--in", str(tmp_path / "a.ppm"),
                "--out", str(tmp_path / "b.ppm")]) == 0
    assert np.array_equal(load_ppm(tmp_path / "b.ppm").pixels, px)


def test_encrypt_mi_constant_quadrants(tmp_path):
    write_image(tmp_path / "a.ppm", seed=3)
    assert run(["encrypt", "--mode", "mi", "--in", str(tmp_path / "a.ppm"),
                "--out", str(tmp_path / "b.ppm"), "--patch", "8"]) == 0
    out = load_ppm(tmp_path / "b.ppm").pixels
    # every patch of the output is a 2x2 tiling of its top-left quadrant
    for r in (0, 8, 16, 24):
        for c in (0, 8, 16, 24):
            p = out[r:r + 8, c:c + 8]
            assert np.array_equal(p[:4, :4], p[4:, 4:])


def test_encrypt_spn_mode_runs(tmp_path):
    write_image(tmp_path / "a.ppm", seed=4)
    assert run(["encrypt", "--mode", "spn:2", "--in", str(tmp_path / "a.ppm"),
                "--out", str(tmp_path / "b.ppm"), "--patch", "8"]) == 0
    assert load_ppm(tmp_path / "b.ppm").pixels.shape == (32, 32, 3)


# ---------------------------------------------------------------- attacks


def test_attack_jigsaw_with_key_scores_metrics(tmp_path, capsys):
    from picrypt.harness import gen_puzzle_corpus

    img = gen_puzzle_corpus(1, 64, seed=0)[0]
    save_ppm(Image(pixels=img), tmp_path / "p.ppm")
    assert run(["encrypt", "--mode", "rs", "--in", str(tmp_path / "p.ppm"),
                "--out", str(tmp_path / "e.ppm"), "--patch", "16",
                "--seed", "9", "--key", str(tmp_path / "k.key")]) == 0
    assert run(["attack-jigsaw", "--in", str(tmp_path / "e.ppm"),
                "--patch", "16", "--key", str(tmp_path / "k.key")]) == 0
    out = capsys.readouterr().out
    assert "direct=1.000000" in out
    assert "neighbor=1.000000" in out
    assert out.count("slot ") == 16


@pytest.mark.parametrize("n", [4, 64])
def test_attack_jigsaw_key_of_wrong_size_is_key_error(tmp_path, capsys, n):
    # a 64x64 image at P=16 has 16 patches; keys for fewer and for more fail alike
    write_image(tmp_path / "a.ppm", size=64, seed=8)
    picrypt.cipher.save_key(picrypt.cipher.gen_key(3, n), tmp_path / "k.key")
    assert run(["attack-jigsaw", "--in", str(tmp_path / "a.ppm"),
                "--patch", "16", "--key", str(tmp_path / "k.key")]) == 2
    assert f"key is for {n} patches, grid has 4x4" in capsys.readouterr().err


@pytest.mark.parametrize("fault, want", [
    ("magic", "bad key file magic"),
    ("perm", "perm does not match"),
    ("size", "key is for 9 patches, grid has 4x4"),
])
def test_attack_jigsaw_checks_the_key_before_solving(monkeypatch, tmp_path, capsys,
                                                     fault, want):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the key was checked")

    monkeypatch.setattr(picrypt.attacks, "jigsaw_solve", no_solve)
    write_image(tmp_path / "a.ppm", size=64, seed=8)
    key = tmp_path / "k.key"
    picrypt.cipher.save_key(picrypt.cipher.gen_key(3, 9 if fault == "size" else 16), key)
    if fault == "magic":
        key.write_text("not a key\n" + key.read_text())
    elif fault == "perm":
        lines = key.read_text().splitlines()
        lines[2] = "seed=4"
        key.write_text("\n".join(lines) + "\n")
    assert run(["attack-jigsaw", "--in", str(tmp_path / "a.ppm"),
                "--patch", "16", "--key", str(key)]) == 2
    assert want in capsys.readouterr().err


def test_attack_jigsaw_writes_file(tmp_path):
    write_image(tmp_path / "a.ppm", seed=5)
    dest = tmp_path / "arr.txt"
    assert run(["attack-jigsaw", "--in", str(tmp_path / "a.ppm"),
                "--patch", "16", "--out", str(dest)]) == 0
    assert dest.read_text().count("slot ") == 4


def test_attack_jigsaw_above_solver_bound_is_geometry_error(tmp_path, capsys):
    # 130x130 at P=2 is 65x65 = 4225 patches: four 136 MiB seam tables
    write_image(tmp_path / "a.ppm", size=130, seed=2, channels=1)
    assert run(["attack-jigsaw", "--in", str(tmp_path / "a.ppm"), "--patch", "2"]) == 2
    assert "4225 patches exceed the solver bound" in capsys.readouterr().err


def test_attack_gradleak_output(tmp_path, capsys):
    write_image(tmp_path / "a.ppm", seed=6, size=64)
    assert run(["attack-gradleak", "--in", str(tmp_path / "a.ppm"),
                "--patch", "16", "--seed", "0"]) == 0
    out = dict(line.split("=") for line in capsys.readouterr().out.splitlines())
    assert float(out["corr_cipher"]) > 0.999999
    assert abs(float(out["corr_plain"])) < 0.9
    assert out["slot_source"].isdigit()


def test_attack_collision_output(tmp_path, capsys):
    write_image(tmp_path / "a.ppm", seed=7)
    assert run(["attack-collision", "--in", str(tmp_path / "a.ppm"),
                "--patch", "8", "--row", "1", "--col", "2"]) == 0
    out = dict(line.split("=") for line in capsys.readouterr().out.splitlines())
    assert out["preimages"] == "4"
    assert float(out["max_mean_abs_err"]) < 1e-12
    assert out["distinct_from_trivial"] == "true"


def test_attack_collision_bounds_checked_first(tmp_path, capsys):
    write_image(tmp_path / "a.ppm", seed=8)
    assert run(["attack-collision", "--in", str(tmp_path / "a.ppm"),
                "--patch", "8", "--row", "9", "--col", "0"]) == 1
    assert "outside" in capsys.readouterr().err


@pytest.mark.parametrize("amplitude", ["nan", "inf", "-0.1", "1.5"])
def test_attack_collision_bad_amplitude_is_config_error(tmp_path, capsys, amplitude):
    write_image(tmp_path / "a.ppm", seed=9)
    assert run(["attack-collision", "--in", str(tmp_path / "a.ppm"),
                "--amplitude", amplitude]) == 2
    assert "amplitude" in capsys.readouterr().err


# ---------------------------------------------------------------- train/eval


def test_train_eval_and_sweep_flow(tmp_path, capsys):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_CFG)
    ckpt = tmp_path / "model.petn"
    assert run(["train", "--config", str(cfg), "--out", str(ckpt)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("epoch=0 loss=")
    assert "test_accuracy=" in out
    train_acc = out.rsplit("test_accuracy=", 1)[1].strip()

    assert run(["eval", "--config", str(cfg), "--ckpt", str(ckpt),
                "--seed", "0"]) == 0
    ev = capsys.readouterr().out.strip()
    assert ev == f"accuracy={train_acc}"


def test_eval_missing_checkpoint_is_data_error(tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_CFG)
    assert run(["eval", "--config", str(cfg),
                "--ckpt", str(tmp_path / "no.petn")]) == 2


def test_eval_truncated_checkpoint_is_data_error(tmp_path, capsys):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_CFG)
    ckpt = tmp_path / "cut.petn"
    save_checkpoint(ckpt, {"w": Tensor(np.ones((2, 2)))})
    ckpt.write_bytes(ckpt.read_bytes()[:20])
    assert run(["eval", "--config", str(cfg), "--ckpt", str(ckpt)]) == 2
    assert "truncated" in capsys.readouterr().err


@pytest.mark.parametrize("name,rank,want", [
    (b"w\xff", 2, "not UTF-8"),
    (b"w", 65, "rank 65"),
], ids=["name", "rank"])
def test_eval_undecodable_checkpoint_is_shape_error(tmp_path, capsys, name, rank, want):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_CFG)
    ckpt = tmp_path / "bad.petn"
    ckpt.write_bytes(CHECKPOINT_MAGIC + struct.pack("<IIH", 1, 1, len(name)) + name
                     + struct.pack(f"<I{rank}Q", rank, *(1,) * rank)
                     + struct.pack("<d", 0.0))
    assert run(["eval", "--config", str(cfg), "--ckpt", str(ckpt)]) == 2
    assert want in capsys.readouterr().err


@pytest.mark.parametrize("fault,want", [
    ("missing", "no entry 'embed.w'"),
    ("shape", "'cls' has shape (2, 16)"),
    ("extra", "'extra' is not a weight"),
    ("pos", "'pos' is not a weight"),
], ids=["missing", "shape", "extra", "pos"])
def test_eval_checkpoint_must_match_model(monkeypatch, tmp_path, capsys, fault, want):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_CFG)
    _, train_cfg = picrypt.harness.config_specs(picrypt.harness.parse_config_text(TINY_CFG))
    params = picrypt.pevit.init_params(train_cfg.model)
    if fault == "missing":
        del params["embed.w"]
    elif fault == "shape":
        params["cls"] = Tensor(np.zeros((2, 16)))
    else:
        params[fault] = Tensor(np.zeros((5, 16)))
    ckpt = tmp_path / "bad.petn"
    save_checkpoint(ckpt, params)
    calls = counted(monkeypatch, "gen_dataset")
    assert run(["eval", "--config", str(cfg), "--ckpt", str(ckpt)]) == 2
    assert want in capsys.readouterr().err
    assert calls == []


def test_eval_nan_weight_is_data_error(tmp_path, capsys):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_CFG)
    ckpt = tmp_path / "model.petn"
    assert run(["train", "--config", str(cfg), "--out", str(ckpt)]) == 0
    params = load_checkpoint(ckpt)
    params["head.b"].data[0, 1] = np.nan
    save_checkpoint(ckpt, params)
    capsys.readouterr()
    assert run(["eval", "--config", str(cfg), "--ckpt", str(ckpt)]) == 2
    assert "finite" in capsys.readouterr().err


def test_train_non_finite_is_data_error(tmp_path, capsys):
    cfg = tmp_path / "hot.cfg"
    cfg.write_text(TINY_CFG + "train.lr = 1e300\n")
    ckpt = tmp_path / "model.petn"
    assert run(["train", "--config", str(cfg), "--out", str(ckpt)]) == 2
    assert "finite" in capsys.readouterr().err
    assert not ckpt.exists()


def test_empty_splits_are_data_errors(tmp_path, capsys):
    no_test = tmp_path / "no_test.cfg"
    no_test.write_text(TINY_CFG + "data.test_per_class = 0\n")
    ckpt = tmp_path / "model.petn"
    assert run(["train", "--config", str(no_test), "--out", str(ckpt)]) == 2
    assert "test_per_class" in capsys.readouterr().err
    assert not ckpt.exists()
    no_train = tmp_path / "no_train.cfg"
    no_train.write_text(TINY_CFG + "data.train_per_class = 0\n")
    assert run(["train", "--config", str(no_train), "--out", str(ckpt)]) == 2
    assert "no training images" in capsys.readouterr().err
    assert not ckpt.exists()
    save_checkpoint(ckpt, {"w": Tensor(np.ones((2, 2)))})
    assert run(["eval", "--config", str(no_test), "--ckpt", str(ckpt)]) == 2
    assert "no images" in capsys.readouterr().err


@pytest.mark.parametrize("verb, setting, want", [
    ("train", "enc.patch_size = 7", "not divisible by patch_size 7"),
    ("eval", "enc.patch_size = 7", "not divisible by patch_size 7"),
    ("train", "data.test_per_class = 0", "no images to evaluate"),
    ("eval", "data.test_per_class = 0", "no images to evaluate"),
    ("sweep", "data.test_per_class = 0", "no images to evaluate"),
])
def test_config_rejected_before_any_corpus(monkeypatch, tmp_path, capsys, verb, setting, want):
    # a 32x32 image does not split into 7x7 patches, and a run that cannot
    # evaluate writes nothing: both exit 2 before any image is drawn
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(TINY_CFG + setting + "\n")
    # a checkpoint that fits the 7x7 model, so only the geometry can fail
    odd = TINY_CFG.replace("enc.patch_size = 16", "enc.patch_size = 7")
    _, odd_cfg = picrypt.harness.config_specs(picrypt.harness.parse_config_text(odd))
    ckpt = tmp_path / "m.petn"
    save_checkpoint(ckpt, picrypt.pevit.init_params(odd_cfg.model))
    argv = {"train": ["train", "--config", str(cfg), "--out", str(tmp_path / "new.petn")],
            "eval": ["eval", "--config", str(cfg), "--ckpt", str(ckpt)],
            "sweep": ["sweep", "--image-size", "32", "--images", "1",
                      "--train-config", str(cfg)]}[verb]
    calls = counted(monkeypatch, "gen_dataset", "gen_puzzle_corpus", "train")
    assert run(argv) == 2
    assert want in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "new.petn").exists()


@pytest.mark.parametrize("field,value", [("heads", 0), ("rpe_hidden", 0), ("rpe_hidden", -1)])
def test_train_bad_model_field_is_config_error(tmp_path, capsys, field, value):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(TINY_CFG + f"model.rpe = true\nmodel.{field} = {value}\n")
    ckpt = tmp_path / "m.petn"
    assert run(["train", "--config", str(cfg), "--out", str(ckpt)]) == 2
    assert f"{field} must be >= 1" in capsys.readouterr().err
    assert not ckpt.exists()


def test_train_spn_rounds_above_bound_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(TINY_CFG.replace("enc.mode = rs", "enc.mode = spn:17"))
    assert run(["train", "--config", str(cfg), "--out", str(tmp_path / "m.petn")]) == 2
    assert "spn rounds must be in 1..16" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["data.seed", "train.seed"])
@pytest.mark.parametrize("seed", [-1, 1 << 64])
def test_train_seed_outside_64_bits_is_config_error(monkeypatch, tmp_path, capsys, key, seed):
    # rejected with the config: not numpy's ValueError, nor SplitMix64's
    # after a dataset is drawn
    no_drawing(monkeypatch)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(TINY_CFG + f"{key} = {seed}\n")
    ckpt = tmp_path / "m.petn"
    assert run(["train", "--config", str(cfg), "--out", str(ckpt)]) == 2
    assert f"seed must be in [0, 2**64), got {seed}" in capsys.readouterr().err
    assert not ckpt.exists()


@pytest.mark.parametrize("key", ["data.train_per_class", "data.test_per_class"])
def test_train_negative_per_class_is_config_error(monkeypatch, tmp_path, capsys, key):
    # rejected with the config, not by numpy once the dataset is drawn
    no_drawing(monkeypatch)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(TINY_CFG + f"{key} = -1\n")
    ckpt = tmp_path / "m.petn"
    assert run(["train", "--config", str(cfg), "--out", str(ckpt)]) == 2
    assert f"{key.split('.')[1]} must be >= 0, got -1" in capsys.readouterr().err
    assert not ckpt.exists()


def test_train_model_above_bound_is_config_error(monkeypatch, tmp_path, capsys):
    # rejected with the config, before any image is drawn or weight allocated
    no_drawing(monkeypatch)
    monkeypatch.setattr(picrypt.pevit, "init_params", allocated)
    cfg = tmp_path / "big.cfg"
    cfg.write_text(TINY_CFG.replace("model.dim = 16", "model.dim = 4000000")
                   .replace("model.heads = 2", "model.heads = 1"))
    ckpt = tmp_path / "m.petn"
    assert run(["train", "--config", str(cfg), "--out", str(ckpt)]) == 2
    assert "MAX_MODEL_FLOATS" in capsys.readouterr().err
    assert not ckpt.exists()


def test_train_mixing_odd_patch_is_geometry_error(monkeypatch, tmp_path, capsys):
    calls = counted(monkeypatch, "gen_dataset")
    cfg = tmp_path / "odd.cfg"
    cfg.write_text(TINY_CFG.replace("enc.mode = rs", "enc.mode = mi")
                   .replace("enc.patch_size = 16", "enc.patch_size = 15"))
    ckpt = tmp_path / "m.petn"
    assert run(["train", "--config", str(cfg), "--out", str(ckpt)]) == 2
    assert "patch size must be even" in capsys.readouterr().err
    assert calls == []
    assert not ckpt.exists()


def test_train_bad_config_key_is_data_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("data.bogus = 1\n")
    assert run(["train", "--config", str(cfg),
                "--out", str(tmp_path / "m.petn")]) == 2


# ---------------------------------------------------------------- leakage/sweep


def test_leakage_line(capsys):
    assert run(["leakage", "--mode", "none", "--images", "10",
                "--image-size", "32"]) == 0
    assert capsys.readouterr().out.strip() == "ratio=1.000000"
    assert run(["leakage", "--mode", "mi", "--images", "10",
                "--image-size", "32"]) == 0
    assert capsys.readouterr().out.strip() == "ratio=0.000000"
    assert run(["leakage", "--mode", "bogus", "--images", "10"]) == 1


@pytest.mark.parametrize("images", ["0", "-5"])
def test_leakage_without_images_is_data_error(monkeypatch, capsys, images):
    measured = []
    monkeypatch.setattr(picrypt.harness, "white_marker_count",
                        lambda pixels: measured.append(pixels) or 0)
    assert run(["leakage", "--mode", "none", "--images", images,
                "--image-size", "32"]) == 2
    assert "--images must be >= 1" in capsys.readouterr().err
    assert measured == []


def test_image_side_above_bound_is_config_error(tmp_path, capsys):
    big = str(picrypt.harness.MAX_IMAGE_SIZE + 1)
    want = "image_size must be"
    assert run(["sweep", "--image-size", big, "--images", "1"]) == 2
    assert want in capsys.readouterr().err
    assert run(["leakage", "--mode", "none", "--image-size", big, "--images", "1"]) == 2
    assert want in capsys.readouterr().err
    cfg = tmp_path / "c.cfg"
    cfg.write_text(TINY_CFG.replace("data.image_size = 32", f"data.image_size = {big}"))
    assert run(["train", "--config", str(cfg), "--out", str(tmp_path / "m.petn")]) == 2
    assert want in capsys.readouterr().err
    assert not (tmp_path / "m.petn").exists()


@pytest.mark.parametrize("side", ["0", "-5"])
def test_sweep_image_side_below_one_is_config_error(capsys, side):
    assert run(["sweep", "--image-size", side, "--images", "1"]) == 2
    assert "image_size must be" in capsys.readouterr().err


def test_corpus_above_bound_is_config_error(monkeypatch, tmp_path, capsys):
    # every CLI route to a generated corpus checks its size before drawing
    no_drawing(monkeypatch)
    want = "MAX_CORPUS_BYTES"
    assert run(["leakage", "--mode", "none", "--images", "100000000",
                "--image-size", "256"]) == 2
    assert want in capsys.readouterr().err
    assert run(["sweep", "--images", "100000000"]) == 2
    assert want in capsys.readouterr().err
    for key in ("train_per_class", "test_per_class"):
        cfg = tmp_path / f"{key}.cfg"
        cfg.write_text(TINY_CFG.replace(f"data.{key} = 2", f"data.{key} = 1000000000"))
        assert run(["train", "--config", str(cfg), "--out", str(tmp_path / "m.petn")]) == 2
        assert want in capsys.readouterr().err
    assert not (tmp_path / "m.petn").exists()


def test_sweep_csv_output(tmp_path, capsys):
    dest = tmp_path / "sweep.csv"
    assert run(["sweep", "--patch", "16", "--interval", "0,2",
                "--image-size", "48", "--images", "2", "--seed", "0",
                "--out", str(dest)]) == 0
    lines = dest.read_text().splitlines()
    assert lines[0] == ("patch_size,interval,drop_ratio,image_size,"
                        "solver_direct,solver_neighbor,model_accuracy")
    assert len(lines) == 3
    assert lines[1].startswith("16,0,0,48,") and lines[2].startswith("16,2,0,48,")
    assert lines[1].endswith(",nan")


@pytest.mark.parametrize("images", ["0", "-2"])
def test_sweep_without_images_is_data_error(tmp_path, capsys, images):
    dest = tmp_path / "sweep.csv"
    assert run(["sweep", "--image-size", "48", "--images", images,
                "--out", str(dest)]) == 2
    assert "no images" in capsys.readouterr().err
    assert not dest.exists()


def test_sweep_bad_list_is_usage_error(capsys):
    assert run(["sweep", "--patch", "16,x"]) == 1


@pytest.mark.parametrize("drop", ["nan", "-0.5", "1.0", "1.5"])
def test_sweep_drop_outside_unit_interval_is_config_error(monkeypatch, tmp_path, capsys, drop):
    # rejected with the cells, before any corpus is built
    no_drawing(monkeypatch)
    dest = tmp_path / "sweep.csv"
    assert run(["sweep", "--drop", f"0.1,{drop}", "--image-size", "32", "--images", "1",
                "--out", str(dest)]) == 2
    assert "drop_ratio must be in [0, 1)" in capsys.readouterr().err
    assert not dest.exists()


@pytest.mark.parametrize("flag,values,want", [
    ("--patch", "16,0", "patch_size must be >= 2"),
    ("--interval", "0,-1", "interval must be >= 0"),
    ("--patch", "16,100", "exceeds image dimensions"),
    ("--patch", "16,24", "not divisible"),
], ids=["patch0", "interval-1", "patch100", "patch24"])
def test_sweep_bad_geometry_exits_before_any_corpus(monkeypatch, capsys, flag, values, want):
    calls = counted(monkeypatch, "gen_puzzle_corpus")
    assert run(["sweep", flag, values, "--image-size", "64", "--images", "2"]) == 2
    assert want in capsys.readouterr().err
    assert calls == []


def test_sweep_train_config_checked_before_any_corpus(monkeypatch, tmp_path, capsys):
    calls = counted(monkeypatch, "gen_puzzle_corpus", "gen_dataset")
    cfg = tmp_path / "mi.cfg"
    cfg.write_text(TINY_CFG.replace("enc.mode = rs", "enc.mode = mi"))
    assert run(["sweep", "--drop", "0.0,0.1", "--image-size", "64", "--images", "2",
                "--train-config", str(cfg)]) == 2
    assert "drop_ratio is only supported" in capsys.readouterr().err
    assert calls == []


# a 1024^2 image at P=2 is 262144 patches: one head's scores alone would
# be a 512 GiB (1, 262145, 262145) array
HUGE_ATTENTION_CFG = (
    "data.image_size = 1024\ndata.classes = 2\ndata.train_per_class = 1\n"
    "data.test_per_class = 1\nmodel.dim = 8\nmodel.depth = 1\nmodel.heads = 1\n"
    "model.ffn_dim = 8\ntrain.epochs = 1\nenc.mode = rs\nenc.patch_size = 2\n"
)


@pytest.mark.parametrize("verb", ["train", "eval", "sweep"])
def test_attention_scores_above_bound_exit_before_any_corpus(monkeypatch, tmp_path,
                                                             capsys, verb):
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(HUGE_ATTENTION_CFG)
    argv = {"train": ["train", "--config", str(cfg), "--out", str(tmp_path / "m.petn")],
            "eval": ["eval", "--config", str(cfg), "--ckpt", str(tmp_path / "m.petn")],
            "sweep": ["sweep", "--patch", "2", "--image-size", "1024", "--images", "1",
                      "--train-config", str(cfg)]}[verb]
    calls = counted(monkeypatch, "gen_dataset", "gen_puzzle_corpus")
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "1 heads of 262145x262145 attention scores exceed MAX_MODEL_FLOATS" in err
    assert calls == []
    assert not (tmp_path / "m.petn").exists()


# ---------------------------------------------------------------- gradcheck


def test_gradcheck_verb(capsys):
    assert run(["gradcheck", "--entries", "60", "--seed", "0"]) == 0
    out = dict(line.split("=") for line in capsys.readouterr().out.splitlines())
    assert out["passed"] == "true"
    assert float(out["max_rel_error"]) < 1e-4
    assert int(out["n_checked"]) == 60


@pytest.mark.parametrize("entries", ["0", "-3"])
def test_gradcheck_entries_below_one_is_usage_error(monkeypatch, capsys, entries):
    monkeypatch.setattr(picrypt.pevit, "init_params", allocated)
    assert run(["gradcheck", "--entries", entries]) == 1
    captured = capsys.readouterr()
    assert "--entries must be >= 1" in captured.err and captured.out == ""


# ---------------------------------------------------------------- argv suite
# the fast verbs on drawn argv: every run ends 0, 1 or 2, never an exit-3
# internal error. Each flag takes a file the verb reads, one it writes, or a
# value; the value pool holds small, negative and huge ints, nan, the empty
# string and spn:<k>.

_ARGV_INTS = (-(2**64), -4, -1, 0, 1, 2, 3, 4, 7, 8, 16, 33, 100, 2**31, 2**64, 10**30)
_ARGV_VALUES = ([str(i) for i in _ARGV_INTS] + [f"spn:{i}" for i in _ARGV_INTS]
                + ["nan", "-inf", "0.9", "", "9" * 5000, "none", "rs", "mi", "rs+mi"])
_FAST_VERBS = {
    "encrypt": {"--in": "read", "--patch": "value", "--seed": "value",
                "--mode": "value", "--out": "write", "--key": "write"},
    "decrypt": {"--in": "read", "--patch": "value", "--out": "write", "--key": "read"},
    "keyspace": {"--n": "value"},
    "attack-jigsaw": {"--in": "read", "--patch": "value", "--interval": "value",
                      "--key": "read", "--out": "write"},
    "attack-gradleak": {"--in": "read", "--patch": "value", "--seed": "value"},
    "attack-collision": {"--in": "read", "--patch": "value", "--seed": "value",
                         "--row": "value", "--col": "value", "--amplitude": "value"},
}


@pytest.fixture(scope="module")
def argv_files(tmp_path_factory):
    """Paths each flag kind draws from: 32x32 P6 and P5 images, a key for
    their 16 patches at P=8 and one for 4, and paths that fail to open."""
    d = tmp_path_factory.mktemp("argv")
    write_image(d / "rgb.ppm", seed=11)
    write_image(d / "gray.pgm", seed=12, channels=1)
    picrypt.cipher.save_key(picrypt.cipher.gen_key(5, 16), d / "k16.key")
    picrypt.cipher.save_key(picrypt.cipher.gen_key(5, 4), d / "k4.key")
    missing = [str(d / "missing"), str(d / "no-dir" / "x"), str(d), ""]
    return {
        "read": [str(d / name) for name in ("rgb.ppm", "gray.pgm", "k16.key", "k4.key")] + missing,
        "write": [str(d / "out.ppm"), str(d / "out.key")] + missing,
        "value": _ARGV_VALUES,
    }


@st.composite
def fast_argv(draw, files):
    """A valid argv for one fast verb, about a quarter of its flags dropped,
    then up to four flags of that verb (or an unknown one) appended with
    drawn values; argparse keeps a repeated flag's last value."""
    verb = draw(st.sampled_from(sorted(_FAST_VERBS)))
    flags = _FAST_VERBS[verb]
    base = {"--in": files["read"][draw(st.integers(0, 1))], "--patch": "8",
            "--mode": "rs", "--out": files["write"][0], "--key": files["read"][2],
            "--n": "5", "--amplitude": "0.25"}
    argv = [verb]
    for flag in flags:
        keep = draw(st.sampled_from([True, True, True, False]))  # most stay valid
        if flag in base and (flag != "--key" or verb == "decrypt") and keep:
            argv += [flag, base[flag]]
    for _ in range(draw(st.integers(0, 4))):
        flag = draw(st.sampled_from(sorted(flags) + ["--bogus"]))
        argv += [flag, draw(st.sampled_from(files[flags.get(flag, "value")]))]
    return argv


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_fast_verbs_never_exit_3(argv_files, data):
    argv = data.draw(fast_argv(argv_files), label="argv")
    assert run(argv) in (0, 1, 2), argv
