"""Token-sequence front end for detection over mixed (MI-encrypted) grids.

A mixed patch carries only the mean of its four sub-patches, flattened to a
(P/2)^2 * C vector. Each is embedded by a two-layer map
H(x) = gelu(x W1 + b1) W2 + b2; because averaging commutes with the first
linear layer, embedding the mixed patch equals embedding each sub-patch
with W1, averaging, then finishing the map — the sequence can't tell which
sub-patch order produced the mix. A block of learnable detection tokens is
prepended and learnable positional rows are added; patch tokens keep grid
order since mixing never moves patches.

Detection heads (matching, box regression) are out of scope; this stops at
the token sequence and a shared encoder forward reusing the pevit blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cipher import MixedGrid, token_dim, token_rows
from .errors import ConfigError, ShapeError
from .pevit import block_stack
from .tensor import Tensor, add, concat_rows, gelu, matmul


@dataclass(frozen=True)
class DetConfig:
    patch_size: int
    channels: int
    embed_dim: int = 64
    det_tokens: int = 100

    def __post_init__(self):
        if self.patch_size % 2:
            raise ConfigError(f"patch_size must be even, got {self.patch_size}")
        if self.det_tokens < 1:
            raise ConfigError(f"det_tokens must be >= 1, got {self.det_tokens}")

    @property
    def sub_dim(self) -> int:
        return token_dim("mi", self.patch_size, self.channels)


def init_det_params(cfg: DetConfig, n_patches: int, seed: int = 0) -> dict:
    """mi.w1|b1|w2|b2 for the patch map, det tokens, and positional rows."""
    rng = np.random.default_rng(seed)
    sd = 0.02
    d = cfg.embed_dim
    return {
        "mi.w1": Tensor(rng.normal(0.0, sd, size=(cfg.sub_dim, d))),
        "mi.b1": Tensor(np.zeros((1, d))),
        "mi.w2": Tensor(rng.normal(0.0, sd, size=(d, d))),
        "mi.b2": Tensor(np.zeros((1, d))),
        "det": Tensor(rng.normal(0.0, sd, size=(cfg.det_tokens, d))),
        "pos": Tensor(rng.normal(0.0, sd, size=(cfg.det_tokens + n_patches, d))),
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


def build_det_sequence(params: dict, cfg: DetConfig, grid: MixedGrid) -> Tensor:
    """z0 = [det tokens; embedded mixed patches] + positional rows."""
    if grid.patch_size != cfg.patch_size or grid.channels != cfg.channels:
        raise ShapeError(
            f"grid geometry {grid.patch_size}x{grid.patch_size}x{grid.channels} "
            f"does not match config {cfg.patch_size}x{cfg.patch_size}x{cfg.channels}"
        )
    n = grid.n_patches
    want = cfg.det_tokens + n
    if params["pos"].data.shape[0] != want:
        raise ShapeError(
            f"pos has {params['pos'].data.shape[0]} rows, need {want}"
        )
    emb = mi_patch_embed(params, token_rows(grid))
    return add(concat_rows([params["det"], emb]), params["pos"])


def encode_det_sequence(params: dict, cfg: DetConfig, grid: MixedGrid,
                        depth: int, heads: int) -> Tensor:
    """Run pevit encoder blocks over z0; params must also carry layer{i}.* keys."""
    return block_stack(params, build_det_sequence(params, cfg, grid), depth, heads)
