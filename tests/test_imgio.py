"""Tests for PPM/PGM io and patch-grid geometry."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from damaged_files import damaged, load_or_none
from picrypt.errors import DecodeError, GeometryError
from picrypt.imgio import (
    Image,
    PatchGrid,
    assemble,
    load_ppm,
    save_ppm,
    split_patches,
    split_subpatches,
)


def join_subpatches(subs):
    """Inverse of split_subpatches, the oracle for its order: reassemble
    [top-left, top-right, bottom-left, bottom-right]."""
    return np.concatenate([np.concatenate(subs[:2], axis=1),
                           np.concatenate(subs[2:], axis=1)], axis=0)


def rand_image(rng, h, w, c):
    return Image(pixels=rng.integers(0, 256, size=(h, w, c), dtype=np.uint8))


# ---------------------------------------------------------------- ppm/pgm


def test_load_constant_p6(tmp_path):
    p = tmp_path / "a.ppm"
    p.write_bytes(b"P6\n2 2\n255\n" + b"\xff" * 12)
    img = load_ppm(p)
    assert (img.height, img.width, img.channels) == (2, 2, 3)
    assert np.all(img.pixels == 255)


def test_load_single_pixel_p5(tmp_path):
    p = tmp_path / "a.pgm"
    p.write_bytes(b"P5\n1 1\n255\n\x00")
    img = load_ppm(p)
    assert (img.height, img.width, img.channels) == (1, 1, 1)
    assert img.pixels[0, 0, 0] == 0


def test_save_byte_count(tmp_path):
    # canonical header b"P6\n1 1\n255\n" is 11 bytes, plus 3 payload bytes
    img = Image(pixels=np.array([[[1, 2, 3]]], dtype=np.uint8))
    p = tmp_path / "a.ppm"
    save_ppm(img, p)
    data = p.read_bytes()
    assert data == b"P6\n1 1\n255\n\x01\x02\x03"
    assert len(data) == len(b"P6\n1 1\n255\n") + 3 == 14


def test_grayscale_dispatches_to_p5(tmp_path):
    img = Image(pixels=np.zeros((2, 3, 1), dtype=np.uint8))
    p = tmp_path / "a.pgm"
    save_ppm(img, p)
    assert p.read_bytes().startswith(b"P5\n3 2\n255\n")


def test_roundtrip_random_corpus(tmp_path):
    rng = np.random.default_rng(0)
    for seed in range(20):
        h, w = int(rng.integers(1, 40)), int(rng.integers(1, 40))
        c = 3 if seed % 2 == 0 else 1
        img = rand_image(rng, h, w, c)
        p = tmp_path / f"r{seed}.ppm"
        save_ppm(img, p)
        back = load_ppm(p)
        assert np.array_equal(back.pixels, img.pixels)
        # the writer emits the canonical header, so save.load.save is a fixpoint
        save_ppm(back, tmp_path / "again.ppm")
        assert (tmp_path / "again.ppm").read_bytes() == p.read_bytes()


def test_header_with_comments_and_padding(tmp_path):
    p = tmp_path / "a.ppm"
    p.write_bytes(b"P6\n# a comment\n 2\t1 # more\n255\n" + b"\x01" * 6)
    img = load_ppm(p)
    assert (img.height, img.width) == (1, 2)


def test_bad_magic_rejected(tmp_path):
    p = tmp_path / "a.ppm"
    p.write_bytes(b"P3\n1 1\n255\n000")
    with pytest.raises(DecodeError, match="magic"):
        load_ppm(p)


def test_bad_maxval_rejected(tmp_path):
    p = tmp_path / "a.ppm"
    p.write_bytes(b"P6\n1 1\n65535\n" + b"\x00" * 6)
    with pytest.raises(DecodeError, match="maxval"):
        load_ppm(p)


def test_truncated_payload_rejected(tmp_path):
    p = tmp_path / "a.ppm"
    p.write_bytes(b"P6\n2 2\n255\n" + b"\xff" * 11)
    with pytest.raises(DecodeError, match="payload"):
        load_ppm(p)


def test_garbage_dimension_rejected(tmp_path):
    p = tmp_path / "a.ppm"
    p.write_bytes(b"P6\nx 1\n255\n" + b"\x00" * 3)
    with pytest.raises(DecodeError, match="width"):
        load_ppm(p)


# a P6 with a header comment and a P5, as written by hand
VALID_PPMS = (b"P6\n# c\n3 2\n255\n" + bytes(range(18)), b"P5\n2 3\n255\n" + bytes(range(6)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(VALID_PPMS).flatmap(damaged))
def test_damaged_ppm_gives_an_image_or_a_picrypt_error(blob):
    img = load_or_none(load_ppm, blob)
    assert img is None or isinstance(img, Image)


def test_image_rejects_wrapping_values():
    # a bare uint8 cast would turn 300 into 44 and -1.7 into 255
    for bad in (300, -1.7, 2.5, np.nan, np.inf):
        with pytest.raises(GeometryError, match=r"\[0, 255\]"):
            Image(pixels=np.full((2, 2, 1), bad))


def test_image_accepts_integral_values_of_any_dtype():
    for dtype in (np.int64, np.float64, np.uint16):
        img = Image(pixels=np.array([[[0], [255]], [[7], [128]]], dtype=dtype))
        assert img.pixels.dtype == np.uint8
        assert img.pixels.reshape(-1).tolist() == [0, 255, 7, 128]


# ---------------------------------------------------------------- grids


def test_split_index_arithmetic():
    img = Image(pixels=np.arange(16, dtype=np.uint8).reshape(4, 4, 1))
    grid = split_patches(img, 2, 0)
    assert (grid.rows, grid.cols) == (2, 2)
    assert grid.patches[0].reshape(-1).tolist() == [0, 1, 4, 5]
    assert grid.patches[3].reshape(-1).tolist() == [10, 11, 14, 15]


def test_split_224_gives_196_patches():
    img = Image(pixels=np.zeros((224, 224, 3), dtype=np.uint8))
    grid = split_patches(img, 16, 0)
    assert grid.n_patches == 196


def test_split_with_interval_stride():
    img = Image(pixels=np.arange(100, dtype=np.uint8).reshape(10, 10, 1))
    grid = split_patches(img, 4, 2)
    # stride 6: valid top-left corners are 0 and 6 in each axis
    assert (grid.rows, grid.cols) == (2, 2)
    assert grid.patches[0][0, 0, 0] == 0
    assert grid.patches[1][0, 0, 0] == 6
    assert grid.patches[2][0, 0, 0] == 60


def test_split_matches_corner_enumeration():
    # oracle: brute-force every top-left corner where a full patch fits on
    # the stride lattice
    rng = np.random.default_rng(1)
    for h, w, ps, k in [(10, 10, 4, 2), (16, 16, 4, 0), (23, 17, 5, 3), (9, 9, 2, 1)]:
        img = rand_image(rng, h, w, 1)
        grid = split_patches(img, ps, k)
        corners = [
            (r, c)
            for r in range(0, h - ps + 1, ps + k)
            for c in range(0, w - ps + 1, ps + k)
        ]
        assert grid.n_patches == len(corners)
        for patch, (r, c) in zip(grid.patches, corners):
            assert np.array_equal(patch, img.pixels[r:r + ps, c:c + ps])


def test_split_grid_does_not_alias_source_pixels():
    # 1x1, 1xk and kx1 grids are where a reshape of the pixels is a view
    for h, w, ps, k in [(4, 4, 4, 0), (4, 12, 4, 0), (12, 4, 4, 0),
                        (5, 13, 4, 1), (13, 5, 4, 1), (6, 6, 3, 2)]:
        px = np.arange(h * w * 3, dtype=np.uint8).reshape(h, w, 3)
        grid = split_patches(Image(pixels=px), ps, k)
        before = [p.copy() for p in grid.patches]
        px[...] = 255 - px
        for p, b in zip(grid.patches, before):
            assert np.array_equal(p, b), f"grid aliases pixels at {h}x{w}"


def test_split_rejects_indivisible_when_contiguous():
    img = Image(pixels=np.zeros((10, 10, 1), dtype=np.uint8))
    with pytest.raises(GeometryError):
        split_patches(img, 4, 0)


def test_split_rejects_oversized_patch():
    img = Image(pixels=np.zeros((8, 8, 1), dtype=np.uint8))
    with pytest.raises(GeometryError):
        split_patches(img, 9, 0)


def test_assemble_inverts_split():
    rng = np.random.default_rng(2)
    img = rand_image(rng, 32, 32, 3)
    back = assemble(split_patches(img, 8, 0))
    assert np.array_equal(back.pixels, img.pixels)


def test_assemble_single_patch():
    rng = np.random.default_rng(3)
    img = rand_image(rng, 6, 6, 3)
    grid = split_patches(img, 6, 0)
    assert np.array_equal(assemble(grid).pixels, img.pixels)


def test_assemble_rejects_holes():
    img = Image(pixels=np.zeros((4, 4, 1), dtype=np.uint8))
    grid = split_patches(img, 2, 0)
    holed = PatchGrid(rows=2, cols=2, patch_size=2, channels=1, interval=0,
                      patches=grid.patches, holes=[False, True, False, False])
    with pytest.raises(GeometryError, match="hole"):
        assemble(holed)


def test_patch_grid_checks_array_and_mask():
    # a tuple of patches becomes one array; no mask means no holes
    p = np.zeros((2, 2, 1), dtype=np.uint8)
    grid = PatchGrid(rows=1, cols=2, patch_size=2, channels=1, interval=0,
                     patches=(p, p + 1))
    assert grid.patches.shape == (2, 2, 2, 1)
    assert grid.holes.tolist() == [False, False] and grid.hole_count() == 0
    for patches, holes in (((p,), None),                        # wrong count
                           ((p, np.zeros((2, 3, 1), np.uint8)), None),  # ragged
                           ((p, p.astype(np.int16)), None),     # not uint8
                           ((p, p), [True])):                   # short mask
        with pytest.raises(GeometryError):
            PatchGrid(rows=1, cols=2, patch_size=2, channels=1, interval=0,
                      patches=patches, holes=holes)


def test_assemble_rejects_interval():
    img = Image(pixels=np.zeros((10, 10, 1), dtype=np.uint8))
    grid = split_patches(img, 4, 2)
    with pytest.raises(GeometryError, match="interval"):
        assemble(grid)


def test_subpatch_order_and_roundtrip():
    patch = np.array([[[1], [2]], [[3], [4]]], dtype=np.uint8)
    subs = split_subpatches(patch)
    assert [s.reshape(-1).tolist() for s in subs] == [[1], [2], [3], [4]]
    assert np.array_equal(join_subpatches(subs), patch)

    rng = np.random.default_rng(4)
    for _ in range(10):
        p = rng.integers(0, 256, size=(8, 8, 3), dtype=np.uint8)
        assert np.array_equal(join_subpatches(split_subpatches(p)), p)


def test_subpatch_constant_symmetry():
    p = np.full((4, 4, 1), 7, dtype=np.uint8)
    subs = split_subpatches(p)
    assert all(np.array_equal(s, subs[0]) for s in subs)


def test_subpatch_rejects_odd_size():
    with pytest.raises(GeometryError):
        split_subpatches(np.zeros((3, 3, 1), dtype=np.uint8))
