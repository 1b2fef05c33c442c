"""Golden SHA-256 digests of CLI output: ``picrypt encrypt`` output files and
rs key files, ``attack-jigsaw --key`` stdout and a ``sweep`` CSV.

The digests were taken from the CLI while it still ran its own copy of the
mode dispatch. They pin the bytes of every output file for every mode, two
key seeds, P = 4, 8 and 16, and 1- and 3-channel images, plus the key file
that ``--key`` writes in rs mode.
"""

import hashlib

import numpy as np
import pytest

from picrypt.cli import run
from picrypt.harness import gen_puzzle_corpus
from picrypt.imgio import Image, save_ppm

MODES = ("none", "rs", "rs+mi", "mi+rs", "mi", "spn:1", "spn:3")
SEEDS = (0, 7)
PATCHES = (4, 8, 16)
CHANNELS = (1, 3)


def pixels(h, w, c, salt):
    """Deterministic noise from a SplitMix64-style finalizer over the index."""
    x = np.arange(h * w * c, dtype=np.uint64) + np.uint64(salt)
    x *= np.uint64(0x9E3779B97F4A7C15)
    x ^= x >> np.uint64(31)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    return (x >> np.uint64(56)).astype(np.uint8).reshape(h, w, c)


def file_digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def cli_digests(tmp_path, mode):
    """Digests of every output file (and rs key file) of one mode."""
    out = {}
    for c in CHANNELS:
        src = tmp_path / f"in{c}.ppm"
        save_ppm(Image(pixels=pixels(32, 48, c, salt=c)), src)
        for seed in SEEDS:
            for p in PATCHES:
                name = f"{mode}/s{seed}/P{p}/c{c}"
                dst = tmp_path / "out.ppm"
                argv = ["encrypt", "--mode", mode, "--in", str(src),
                        "--out", str(dst), "--patch", str(p), "--seed", str(seed)]
                if mode == "rs":
                    argv += ["--key", str(tmp_path / "k.key")]
                assert run(argv) == 0, name
                out[name] = file_digest(dst)
                if mode == "rs":
                    out[f"key/s{seed}/P{p}/c{c}"] = file_digest(tmp_path / "k.key")
    return out


GOLDEN = {
    "none/s0/P4/c1": "a4e0d9483b94e651",
    "none/s0/P8/c1": "a4e0d9483b94e651",
    "none/s0/P16/c1": "a4e0d9483b94e651",
    "none/s7/P4/c1": "a4e0d9483b94e651",
    "none/s7/P8/c1": "a4e0d9483b94e651",
    "none/s7/P16/c1": "a4e0d9483b94e651",
    "none/s0/P4/c3": "fdca34f72fc2051a",
    "none/s0/P8/c3": "fdca34f72fc2051a",
    "none/s0/P16/c3": "fdca34f72fc2051a",
    "none/s7/P4/c3": "fdca34f72fc2051a",
    "none/s7/P8/c3": "fdca34f72fc2051a",
    "none/s7/P16/c3": "fdca34f72fc2051a",
    "rs/s0/P4/c1": "35e35fde711ae2db",
    "key/s0/P4/c1": "0e4f06601a298692",
    "rs/s0/P8/c1": "6e82dcd655557a77",
    "key/s0/P8/c1": "5488d280eed953df",
    "rs/s0/P16/c1": "8d305c5b88fa3eae",
    "key/s0/P16/c1": "c3cf44cfb26cf5d4",
    "rs/s7/P4/c1": "bb195e2c6a11be6c",
    "key/s7/P4/c1": "6ca91dcedd61145d",
    "rs/s7/P8/c1": "0ccc600db88e6167",
    "key/s7/P8/c1": "2e2dad52a83b3ce7",
    "rs/s7/P16/c1": "a5a5f3f963eb384e",
    "key/s7/P16/c1": "b1e836dfe38a1fa3",
    "rs/s0/P4/c3": "bbae82c042bccdd2",
    "key/s0/P4/c3": "0e4f06601a298692",
    "rs/s0/P8/c3": "f1bfbe56abc5984e",
    "key/s0/P8/c3": "5488d280eed953df",
    "rs/s0/P16/c3": "01d84e08cb40ba7c",
    "key/s0/P16/c3": "c3cf44cfb26cf5d4",
    "rs/s7/P4/c3": "6e7ff290d3fe3f3a",
    "key/s7/P4/c3": "6ca91dcedd61145d",
    "rs/s7/P8/c3": "e070098fd385c021",
    "key/s7/P8/c3": "2e2dad52a83b3ce7",
    "rs/s7/P16/c3": "59917dc056fd98d4",
    "key/s7/P16/c3": "b1e836dfe38a1fa3",
    "rs+mi/s0/P4/c1": "bf43e9f26e7c7993",
    "rs+mi/s0/P8/c1": "7cfd4a01edaa5b81",
    "rs+mi/s0/P16/c1": "1a8b5a594fd075a0",
    "rs+mi/s7/P4/c1": "31170d440c412480",
    "rs+mi/s7/P8/c1": "5ec19fedad1ccd23",
    "rs+mi/s7/P16/c1": "32939cbb7ae986ab",
    "rs+mi/s0/P4/c3": "1046bb5428d3ab3e",
    "rs+mi/s0/P8/c3": "473726dbe4d41d00",
    "rs+mi/s0/P16/c3": "dfa0422d3c221449",
    "rs+mi/s7/P4/c3": "34a67c1f474ef563",
    "rs+mi/s7/P8/c3": "dec68fbda28bbe7a",
    "rs+mi/s7/P16/c3": "f0e225f7e98b315c",
    "mi+rs/s0/P4/c1": "bf43e9f26e7c7993",
    "mi+rs/s0/P8/c1": "7cfd4a01edaa5b81",
    "mi+rs/s0/P16/c1": "1a8b5a594fd075a0",
    "mi+rs/s7/P4/c1": "31170d440c412480",
    "mi+rs/s7/P8/c1": "5ec19fedad1ccd23",
    "mi+rs/s7/P16/c1": "32939cbb7ae986ab",
    "mi+rs/s0/P4/c3": "1046bb5428d3ab3e",
    "mi+rs/s0/P8/c3": "473726dbe4d41d00",
    "mi+rs/s0/P16/c3": "dfa0422d3c221449",
    "mi+rs/s7/P4/c3": "34a67c1f474ef563",
    "mi+rs/s7/P8/c3": "dec68fbda28bbe7a",
    "mi+rs/s7/P16/c3": "f0e225f7e98b315c",
    "mi/s0/P4/c1": "6969c4190ecef0e8",
    "mi/s0/P8/c1": "066035352c0205f1",
    "mi/s0/P16/c1": "31beae713f7ccbd6",
    "mi/s7/P4/c1": "6969c4190ecef0e8",
    "mi/s7/P8/c1": "066035352c0205f1",
    "mi/s7/P16/c1": "31beae713f7ccbd6",
    "mi/s0/P4/c3": "65adb8c85a1b3d19",
    "mi/s0/P8/c3": "185905307bab6213",
    "mi/s0/P16/c3": "f3f3fad77a5f06db",
    "mi/s7/P4/c3": "65adb8c85a1b3d19",
    "mi/s7/P8/c3": "185905307bab6213",
    "mi/s7/P16/c3": "f3f3fad77a5f06db",
    "spn:1/s0/P4/c1": "bef168cc751a9e49",
    "spn:1/s0/P8/c1": "5c1bcc9d8beeb247",
    "spn:1/s0/P16/c1": "9c180d862bfbb6c8",
    "spn:1/s7/P4/c1": "6f7240f9adc6e86b",
    "spn:1/s7/P8/c1": "1c0b2185ef195743",
    "spn:1/s7/P16/c1": "b2a22d45b70a6885",
    "spn:1/s0/P4/c3": "f29170511f81fd64",
    "spn:1/s0/P8/c3": "56a623d3135f11d2",
    "spn:1/s0/P16/c3": "ebb186c5012d11a6",
    "spn:1/s7/P4/c3": "a1d590aaf524adb8",
    "spn:1/s7/P8/c3": "cbd321deaf1aa611",
    "spn:1/s7/P16/c3": "30a0d2477172b494",
    "spn:3/s0/P4/c1": "1caf4655046a483e",
    "spn:3/s0/P8/c1": "cf205d144f86153d",
    "spn:3/s0/P16/c1": "f6d218995e8f4160",
    "spn:3/s7/P4/c1": "6d06279e816fdc31",
    "spn:3/s7/P8/c1": "b358989ba4e2191a",
    "spn:3/s7/P16/c1": "4e576db15a5d2719",
    "spn:3/s0/P4/c3": "8ba1374a465b9f88",
    "spn:3/s0/P8/c3": "2dda7d2f2df9f047",
    "spn:3/s0/P16/c3": "511bb9a7fd5a40ee",
    "spn:3/s7/P4/c3": "2e07942f47fc2b9d",
    "spn:3/s7/P8/c3": "4c5621f013e27aab",
    "spn:3/s7/P16/c3": "1ec620bddc1a1f73",
}


@pytest.mark.parametrize("mode", MODES)
def test_encrypt_output_bytes_pinned(tmp_path, mode):
    got = cli_digests(tmp_path, mode)
    want = {k: v for k, v in GOLDEN.items()
            if k.startswith(f"{mode}/") or (mode == "rs" and k.startswith("key/"))}
    assert got == want


# ---------------------------------------------------------------- solver output
#
# The stdout of ``picrypt attack-jigsaw --key`` (one line per filled slot,
# then direct= and neighbor=) and the CSV of a small ``picrypt sweep``, each
# taken before the puzzle arrangement became a slot array.

JIGSAW_CASES = (
    # (image side, channels, patch, key seed)
    (64, 3, 16, 0),
    (64, 3, 8, 5),
    (96, 3, 8, 11),
    (48, 1, 8, 2),
)


def smooth_pixels(size, channels, seed):
    return gen_puzzle_corpus(1, size, seed=seed)[0][..., :channels].copy()


def jigsaw_stdout(tmp_path, capsys, size, channels, patch, seed):
    plain, enc, key = (tmp_path / n for n in ("plain.ppm", "enc.ppm", "k.key"))
    save_ppm(Image(pixels=smooth_pixels(size, channels, seed)), plain)
    assert run(["encrypt", "--mode", "rs", "--in", str(plain), "--out", str(enc),
                "--patch", str(patch), "--seed", str(seed), "--key", str(key)]) == 0
    capsys.readouterr()
    assert run(["attack-jigsaw", "--in", str(enc), "--patch", str(patch),
                "--key", str(key)]) == 0
    return capsys.readouterr().out


JIGSAW_GOLDEN = {
    (64, 3, 16, 0): "73a6de014388507d",  # direct 1, neighbor 1
    (64, 3, 8, 5): "d749ceb05914928a",   # direct 0.640625, neighbor 0.705357
    (96, 3, 8, 11): "07cac751a42916de",  # direct 0.944444, neighbor 0.928030
    (48, 1, 8, 2): "eff2a789040f9aee",   # direct 0.166667, neighbor 0.216667
}


@pytest.mark.parametrize("case", JIGSAW_CASES, ids=lambda c: "s{}c{}P{}k{}".format(*c))
def test_attack_jigsaw_stdout_pinned(tmp_path, capsys, case):
    out = jigsaw_stdout(tmp_path, capsys, *case)
    assert "direct=" in out and "neighbor=" in out
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == JIGSAW_GOLDEN[case]


SWEEP_ARGV = ["sweep", "--patch", "8,16", "--interval", "0,1", "--drop", "0.0,0.25",
              "--image-size", "48", "--images", "2", "--seed", "3"]
SWEEP_GOLDEN = "214345dd57624bb2"


def test_sweep_csv_pinned(capsys):
    assert run(SWEEP_ARGV) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 9
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == SWEEP_GOLDEN
