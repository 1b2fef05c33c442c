"""Two-layer embedding of mixed (MI-encrypted) patches.

A mixed patch carries only the mean of its four sub-patches, flattened to a
(P/2)^2 * C vector. Each is embedded by a two-layer map
H(x) = gelu(x W1 + b1) W2 + b2; because averaging commutes with the first
linear layer, embedding the mixed patch equals embedding each sub-patch
with W1, averaging, then finishing the map, so the embedding can't tell
which sub-patch order produced the mix.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError
from .tensor import Tensor, add, gelu, matmul


def init_mi_embed(sub_dim: int, embed_dim: int, seed: int = 0) -> dict:
    """mi.w1|b1|w2|b2 for the patch map from sub_dim to embed_dim."""
    rng = np.random.default_rng(seed)
    sd = 0.02
    return {
        "mi.w1": Tensor(rng.normal(0.0, sd, size=(sub_dim, embed_dim))),
        "mi.b1": Tensor(np.zeros((1, embed_dim))),
        "mi.w2": Tensor(rng.normal(0.0, sd, size=(embed_dim, embed_dim))),
        "mi.b2": Tensor(np.zeros((1, embed_dim))),
    }


def mi_patch_embed(params: dict, x: np.ndarray) -> Tensor:
    """H(x) = gelu(x W1 + b1) W2 + b2 over rows of mixed-patch vectors.

    Accepts a single sub_dim vector or an (N, sub_dim) matrix; always
    returns a 2-D Tensor.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != params["mi.w1"].data.shape[0]:
        raise ShapeError(
            f"expected rows of width {params['mi.w1'].data.shape[0]}, got {x.shape}"
        )
    h = gelu(add(matmul(Tensor(x), params["mi.w1"]), params["mi.b1"]))
    return add(matmul(h, params["mi.w2"]), params["mi.b2"])
