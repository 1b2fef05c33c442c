"""Three ways to pry at the cipher, with mixed results.

A greedy jigsaw solver reassembles shuffled smooth images when patches
touch, and falls apart once gaps open between them. Gradient leakage
inverts a rank-one embedding gradient perfectly: under RS it recovers a
plaintext patch, pixels intact, and only where it came from stays
hidden. MI can't be inverted at all:
infinitely many sub-patch sets average to the same ciphertext, and we
print two of them.
"""

import numpy as np

from picrypt.attacks import mi_collision
from picrypt.cipher import mi_encrypt
from picrypt.harness import gen_puzzle_corpus, gradleak_demo, solve_corpus
from picrypt.imgio import Image, split_patches


def main():
    corpus = gen_puzzle_corpus(10, 224, seed=0)
    print("jigsaw on 10 smooth 224px images, 16px patches:")
    for interval in (0, 1, 2):
        m = solve_corpus(corpus, 16, interval=interval, drop_ratio=0.0, seed=0)
        print(f"  interval={interval}  direct={m['direct']:.3f}  "
              f"neighbor={m['neighbor']:.3f}")
    for drop in (0.0, 0.1, 0.2):
        m = solve_corpus(corpus, 16, interval=1, drop_ratio=drop, seed=0)
        print(f"  drop={drop:.1f} (interval 1)  direct={m['direct']:.3f}  "
              f"neighbor={m['neighbor']:.3f}")

    rng = np.random.default_rng(3)
    img = rng.integers(0, 256, size=(64, 64, 3), dtype=np.uint8)
    out = gradleak_demo(img, patch_size=16, seed=0)
    print("\ngradient leakage on a single RS-encrypted token:")
    print(f"  corr(recovered, ciphertext slot 0) = {out['corr_cipher']:+.6f}")
    print(f"  corr(recovered, plaintext slot 0)  = {out['corr_plain']:+.6f}")
    print(f"  ciphertext slot 0 is plaintext patch {out['slot_source']}, pixels intact: "
          "RS hides only its position")

    px = rng.integers(0, 256, size=(8, 8, 3), dtype=np.uint8)
    grid = split_patches(Image(pixels=px), 8, 0)
    mixed = mi_encrypt(grid).patches[0][:4, :4, :]
    print("\nmi collision: distinct preimages for one mixed patch")
    for seed in (1, 2):
        subs = mi_collision(mixed, seed=seed)
        err = float(np.max(np.abs(sum(subs) / 4.0 - mixed)))
        spread = float(np.max(np.abs(subs[0] - subs[1])))
        print(f"  seed {seed}: mean error {err:.1e}, "
              f"sub-patch spread {spread:.3f}")


if __name__ == "__main__":
    main()
