"""picrypt: learnable image encryption by patch shuffling and mixing.

Shuffle an image's patches with a keyed permutation (rs), collapse each
patch to the mean of its sub-patches (mi), or alternate both like an SPN
(spn) — then train a transformer that never looks at patch order, attack
the schemes with a jigsaw solver and gradient-leakage inversion, and
measure what actually leaks.
"""

from .cipher import (
    MixedGrid,
    PermutationKey,
    drop_patches,
    encrypt,
    gen_key,
    keyspace,
    load_key,
    mi_encrypt,
    parse_mode,
    quantize_mixed,
    rs_decrypt,
    rs_encrypt,
    save_key,
    spn_encrypt,
)
from .errors import (
    ConfigError,
    DataError,
    DecodeError,
    GeometryError,
    KeyMismatchError,
    PicryptError,
    ShapeError,
)
from .imgio import (
    Image,
    PatchGrid,
    assemble,
    load_ppm,
    save_ppm,
    split_patches,
    split_subpatches,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DataError",
    "DecodeError",
    "GeometryError",
    "Image",
    "KeyMismatchError",
    "MixedGrid",
    "PatchGrid",
    "PermutationKey",
    "PicryptError",
    "ShapeError",
    "assemble",
    "drop_patches",
    "encrypt",
    "gen_key",
    "keyspace",
    "load_key",
    "load_ppm",
    "mi_encrypt",
    "parse_mode",
    "quantize_mixed",
    "rs_decrypt",
    "rs_encrypt",
    "save_key",
    "save_ppm",
    "split_patches",
    "split_subpatches",
    "spn_encrypt",
    "__version__",
]
