"""Write pins.json: every pool image's outputs at the current commit.

Run from the root of a checkout, once, at the commit whose outputs the
benchmark pins (about ten minutes on one core):

    python3 perfbench/make_pins.py

For each pool image it records the SHA-256 of the ciphertext bytes of every
cipher mode and of the rs key, and for each jigsaw cell the SHA-256 of the
solver's arrangement (as ``attacks.dump_arrangement`` prints it) with its
exact direct and neighbor scores.
"""

import json
import sys
from pathlib import Path

import workloads as wl


def pin_image(prog, index: int) -> tuple:
    pixels = wl.pool_image(prog, index)
    cipher = {}
    for k, mode in enumerate(wl.CIPHER_MODES):
        rng = prog.rng.SplitMix64(wl.item_seed(index, k))
        out = prog.harness.encrypt_pixels(pixels, mode, wl.CIPHER_PATCH, rng)
        cipher[mode] = wl.digest(out.tobytes())
    cipher["key"] = wl.key_digest(wl.rs_key(prog, index))
    jigsaw = {}
    for c, cell in enumerate(wl.JIGSAW_CELLS):
        m, arrangement = wl.solve_cell(prog, pixels, index, c)
        jigsaw[wl.cell_name(cell)] = [
            wl.arrangement_digest(prog, arrangement), m["direct"], m["neighbor"]]
    return cipher, jigsaw


def main() -> int:
    here = Path(__file__).resolve().parent
    prog = wl.load_program(here.parent / "src")
    pins = {"pool_size": wl.POOL_SIZE, "cipher": {}, "jigsaw": {}}
    for index in range(wl.POOL_SIZE):
        pins["cipher"][str(index)], pins["jigsaw"][str(index)] = pin_image(prog, index)
        print(f"pinned pool image {index}", file=sys.stderr, flush=True)
    (here / "pins.json").write_text(json.dumps(pins, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
