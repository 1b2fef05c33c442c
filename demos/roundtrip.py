"""Encrypt an image, stare at the ciphertext, decrypt it back.

Walks the basic cipher workflow end to end: build a little test image,
shuffle its patches with a seeded key, check nothing survives visually
(patch means move around), then invert and compare byte for byte.
"""

import tempfile
from pathlib import Path

import numpy as np

from picrypt.cipher import (
    gen_key,
    keyspace,
    load_key,
    mi_encrypt,
    rs_decrypt,
    rs_encrypt,
    save_key,
)
from picrypt.imgio import Image, assemble, split_patches


def checkerboardish(size=64):
    # quadrant-colored image so shuffling is visible in the patch means
    px = np.zeros((size, size, 3), dtype=np.uint8)
    h = size // 2
    px[:h, :h] = (250, 40, 40)
    px[:h, h:] = (40, 180, 40)
    px[h:, :h] = (20, 20, 140)
    px[h:, h:] = (230, 230, 40)
    return Image(pixels=px)


def main():
    img = checkerboardish()
    grid = split_patches(img, 16, 0)
    print(f"image {img.pixels.shape}, {grid.n_patches} patches of 16x16")
    print(f"keyspace({grid.n_patches}) = {keyspace(grid.n_patches)}")

    key = gen_key(2024, grid.n_patches)
    with tempfile.TemporaryDirectory() as tmp:
        save_key(key, Path(tmp) / "demo.key")
        key = load_key(Path(tmp) / "demo.key")  # roundtrips through the text format
    print(f"key perm = {list(key.perm)}")

    enc = rs_encrypt(grid, key)
    before = [int(p.mean()) for p in grid.patches]
    after = [int(p.mean()) for p in enc.patches]
    print(f"patch means before: {before}")
    print(f"patch means after : {after}")

    back = rs_decrypt(enc, key)
    restored = assemble(back)
    ok = np.array_equal(restored.pixels, img.pixels)
    print(f"decrypt restores every byte: {ok}")

    mixed = mi_encrypt(grid)
    print(f"mi output is float in [0,1]: min={mixed.patches[0].min():.3f} "
          f"max={mixed.patches[0].max():.3f} (no key, not invertible)")


if __name__ == "__main__":
    main()
