"""Golden SHA-256 digests of fixed-seed cipher outputs.

The digests were taken from the per-patch implementation of the ciphers
(tiled mixed patches, one Python loop per patch) and pin every output that
a reimplementation must keep byte for byte: reassembled ciphertext for
every mode, the model-facing token matrices, the grid cutter at several
intervals and the key file format.
"""

import hashlib

import numpy as np
import pytest

from picrypt.cipher import gen_key, mi_encrypt, save_key, spn_encrypt, token_rows
from picrypt.harness import TrainConfig, encrypt_pixels, image_vectors
from picrypt.imgio import Image, split_patches
from picrypt.pevit import ModelConfig
from picrypt.rng import SplitMix64

ALL_MODES = ("none", "rs", "mi", "rs+mi", "mi+rs", "spn:1", "spn:2", "spn:3")
MIX_MODES = ("mi", "rs+mi", "mi+rs", "spn:1", "spn:2", "spn:3")

# (height, width, channels, patch_size): non-square grids, both channel
# counts, one-row and one-column grids, and P = 4, 8 and 16
GEOMETRIES = (
    (32, 48, 3, 16),
    (24, 40, 1, 8),
    (12, 20, 3, 4),
    (16, 8, 1, 4),
    (8, 40, 3, 8),
    (24, 8, 1, 8),
)


def pixels(h, w, c, salt):
    """Deterministic noise from a SplitMix64-style finalizer over the index."""
    x = np.arange(h * w * c, dtype=np.uint64) + np.uint64(salt)
    x *= np.uint64(0x9E3779B97F4A7C15)
    x ^= x >> np.uint64(31)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    return (x >> np.uint64(56)).astype(np.uint8).reshape(h, w, c)


def digest(arr):
    arr = np.asarray(arr)
    head = f"{arr.dtype.str}{arr.shape}".encode()
    return hashlib.sha256(head + np.ascontiguousarray(arr).tobytes()).hexdigest()[:16]


def ciphertext_digests():
    out = {}
    for h, w, c, p in GEOMETRIES:
        px = pixels(h, w, c, salt=h * 1000 + w * 10 + c)
        for mode in ALL_MODES:
            enc = encrypt_pixels(px, mode, p, SplitMix64(h + w + p))
            out[f"{h}x{w}x{c}/P{p}/{mode}"] = digest(enc)
    return out


def token_digests():
    out = {}
    for (h, w, c, p), interval in (((32, 48, 3, 16), 0), ((24, 40, 1, 8), 0),
                                   ((30, 52, 3, 8), 2)):
        px = pixels(h, w, c, salt=7 * h + w)
        for mode in ("none", "rs") + MIX_MODES:
            cfg = TrainConfig(model=ModelConfig(patch_dim=1, dim=4, heads=1),
                              encryption=mode, patch_size=p, interval=interval)
            rng = SplitMix64(h * w)
            first = image_vectors(px, cfg, rng)
            second = image_vectors(px, cfg, rng)  # fresh keys off the same stream
            out[f"{h}x{w}x{c}/P{p}/i{interval}/{mode}"] = digest(
                np.concatenate([first, second])
            )
    return out


def grid_vector_digests():
    out = {}
    for h, w, c, p in GEOMETRIES:
        grid = split_patches(Image(pixels=pixels(h, w, c, salt=3 * c + p)), p, 0)
        out[f"{h}x{w}x{c}/P{p}/mi"] = digest(token_rows(mi_encrypt(grid)))
        out[f"{h}x{w}x{c}/P{p}/spn:3"] = digest(token_rows(spn_encrypt(grid, 3, 41)))
    return out


def split_digests():
    out = {}
    for h, w, c, p in ((37, 53, 3, 8), (20, 20, 1, 4), (9, 33, 3, 2)):
        img = Image(pixels=pixels(h, w, c, salt=h * w))
        for interval in (0, 1, 2):
            if interval == 0 and (h % p or w % p):
                continue
            grid = split_patches(img, p, interval)
            key = f"{h}x{w}x{c}/P{p}/i{interval}"
            out[key] = (grid.rows, grid.cols, digest(np.stack(grid.patches)))
    return out


GOLDEN_CIPHERTEXT = {
    "32x48x3/P16/none": "4fe71849716ec457",
    "32x48x3/P16/rs": "257a7d36633e900a",
    "32x48x3/P16/mi": "7313b11dee172e0d",
    "32x48x3/P16/rs+mi": "524af74a4eeeb538",
    "32x48x3/P16/mi+rs": "524af74a4eeeb538",
    "32x48x3/P16/spn:1": "98d4c271fbf84d7d",
    "32x48x3/P16/spn:2": "9f4754774c0ee429",
    "32x48x3/P16/spn:3": "b65a8bf92208875f",
    "24x40x1/P8/none": "f68589a1f38d1215",
    "24x40x1/P8/rs": "38a8f7f27e8f3ee4",
    "24x40x1/P8/mi": "56437f092042a4df",
    "24x40x1/P8/rs+mi": "c21765bf8224601e",
    "24x40x1/P8/mi+rs": "c21765bf8224601e",
    "24x40x1/P8/spn:1": "a17f036db636bee7",
    "24x40x1/P8/spn:2": "f1371387fd9f0297",
    "24x40x1/P8/spn:3": "df1da7ddc8f9abee",
    "12x20x3/P4/none": "ef10ba80e216e189",
    "12x20x3/P4/rs": "5f1c4e14c93945f7",
    "12x20x3/P4/mi": "8bf799c791b70d5b",
    "12x20x3/P4/rs+mi": "144f83cd0321ff1f",
    "12x20x3/P4/mi+rs": "144f83cd0321ff1f",
    "12x20x3/P4/spn:1": "d5d207d973ea5978",
    "12x20x3/P4/spn:2": "3607e3c07b899d94",
    "12x20x3/P4/spn:3": "f9256e25ee79af75",
    "16x8x1/P4/none": "bdbfec8629e0f561",
    "16x8x1/P4/rs": "466e35804af522f2",
    "16x8x1/P4/mi": "55d314d259a4f16e",
    "16x8x1/P4/rs+mi": "47d5789459152bcf",
    "16x8x1/P4/mi+rs": "47d5789459152bcf",
    "16x8x1/P4/spn:1": "f80e96155b2f24a3",
    "16x8x1/P4/spn:2": "9d5aee6a00594019",
    "16x8x1/P4/spn:3": "c098e2fac84fb079",
    "8x40x3/P8/none": "f6fe0f143594ae8c",
    "8x40x3/P8/rs": "407185f4b605ed53",
    "8x40x3/P8/mi": "3da965a151e2f319",
    "8x40x3/P8/rs+mi": "d40b6ee4db958ba9",
    "8x40x3/P8/mi+rs": "d40b6ee4db958ba9",
    "8x40x3/P8/spn:1": "78d94c22888c770e",
    "8x40x3/P8/spn:2": "7cdde0c26ebf5073",
    "8x40x3/P8/spn:3": "31102cf9a7ee4496",
    "24x8x1/P8/none": "5b94742cabe4b2e8",
    "24x8x1/P8/rs": "3136650afe5e8d79",
    "24x8x1/P8/mi": "79b53c2a8cecde21",
    "24x8x1/P8/rs+mi": "a22c07cd427f1edd",
    "24x8x1/P8/mi+rs": "a22c07cd427f1edd",
    "24x8x1/P8/spn:1": "353bdf397554397b",
    "24x8x1/P8/spn:2": "97f3f85255b4a65d",
    "24x8x1/P8/spn:3": "947f8bafc7ffa5ae",
}

GOLDEN_TOKENS = {
    "32x48x3/P16/i0/none": "d3b93a8dd352637f",
    "32x48x3/P16/i0/rs": "2c0c408c34776db3",
    "32x48x3/P16/i0/mi": "f2ddc0eada8c6030",
    "32x48x3/P16/i0/rs+mi": "1a030d80e950023d",
    "32x48x3/P16/i0/mi+rs": "1a030d80e950023d",
    "32x48x3/P16/i0/spn:1": "5749c2e7bcf507cc",
    "32x48x3/P16/i0/spn:2": "6585733897d8ebce",
    "32x48x3/P16/i0/spn:3": "fa4dfffe85e336d9",
    "24x40x1/P8/i0/none": "a42ef966e1337dc1",
    "24x40x1/P8/i0/rs": "15743fc6fddf4170",
    "24x40x1/P8/i0/mi": "d0aeff3197f3e9b8",
    "24x40x1/P8/i0/rs+mi": "46da4f28c44029c8",
    "24x40x1/P8/i0/mi+rs": "46da4f28c44029c8",
    "24x40x1/P8/i0/spn:1": "754fb74b63a17f11",
    "24x40x1/P8/i0/spn:2": "35e2d0823fbe2d93",
    "24x40x1/P8/i0/spn:3": "2ffedde2f8e75731",
    "30x52x3/P8/i2/none": "abe86787fc2f3017",
    "30x52x3/P8/i2/rs": "785a74b84d5f4209",
    "30x52x3/P8/i2/mi": "b5e76c93f08b82bf",
    "30x52x3/P8/i2/rs+mi": "00a7d0193c15a8cb",
    "30x52x3/P8/i2/mi+rs": "00a7d0193c15a8cb",
    "30x52x3/P8/i2/spn:1": "609f8478ae051abd",
    "30x52x3/P8/i2/spn:2": "ffb91eb49b432486",
    "30x52x3/P8/i2/spn:3": "64c116310821f8ed",
}

GOLDEN_GRID_VECTORS = {
    "32x48x3/P16/mi": "f889ff31dbbd6bfc",
    "32x48x3/P16/spn:3": "001fed71f2ef8597",
    "24x40x1/P8/mi": "ebde16ed5a10270b",
    "24x40x1/P8/spn:3": "738635b80f159c81",
    "12x20x3/P4/mi": "ab15e104c8a9f095",
    "12x20x3/P4/spn:3": "4f8549dea144357a",
    "16x8x1/P4/mi": "ffb789d248952702",
    "16x8x1/P4/spn:3": "7771563855743b24",
    "8x40x3/P8/mi": "2231da9d8d50dbf1",
    "8x40x3/P8/spn:3": "7d475037c3e97bed",
    "24x8x1/P8/mi": "e712ae2616c73e75",
    "24x8x1/P8/spn:3": "7139347304dc414e",
}

GOLDEN_SPLIT = {
    "37x53x3/P8/i1": (4, 6, "e96cecabf3a3504d"),
    "37x53x3/P8/i2": (3, 5, "8ee48209e596f4e5"),
    "20x20x1/P4/i0": (5, 5, "6b32ab7266437aa6"),
    "20x20x1/P4/i1": (4, 4, "f55afcab5b42210d"),
    "20x20x1/P4/i2": (3, 3, "39d6bc53f59818cc"),
    "9x33x3/P2/i1": (3, 11, "a1d7fd5d7fe54202"),
    "9x33x3/P2/i2": (2, 8, "32ad45499039cbab"),
}

GOLDEN_KEY_FILES = {
    (0, 1): "6ee3cf4e79d4d4b4",
    (12345, 196): "4242df49af6fe7f4",
    (2**64 - 1, 49): "ced0164a24eb4c13",
}


def test_ciphertext_matches_golden():
    assert ciphertext_digests() == GOLDEN_CIPHERTEXT


def test_image_vectors_match_golden():
    assert token_digests() == GOLDEN_TOKENS


def test_mixed_token_rows_match_golden():
    assert grid_vector_digests() == GOLDEN_GRID_VECTORS


def test_split_patches_match_golden():
    assert split_digests() == GOLDEN_SPLIT


@pytest.mark.parametrize("seed,n", [(0, 1), (12345, 196), (2**64 - 1, 49)])
def test_key_file_bytes_match_golden(tmp_path, seed, n):
    path = tmp_path / "k.key"
    save_key(gen_key(seed, n), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest()[:16] == GOLDEN_KEY_FILES[(seed, n)]
