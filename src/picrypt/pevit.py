"""Transformer classifier over patch vectors; no positional encoding unless
ModelConfig.positions asks for the positional control.

Without absolute position information every encoder block is equivariant
to the order of the patch tokens, and the class-token readout is therefore
invariant: shuffling the input rows cannot change the logits. An optional
reference-based module (rpe) adds features computed per token from
(patch - reference) in pixel space to the embeddings; they depend on each
patch's content, not its position, so the invariance holds with rpe on.

Parameter dicts map dotted names to Tensors; see init_params for the
naming scheme. All shapes are 2-D rows-of-features.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, ShapeError
from .tensor import (
    Tensor,
    add,
    attention,
    concat_rows,
    cross_entropy,
    first_row,
    gelu,
    layer_norm,
    matmul,
    scale,
    sigmoid,
)


# most weights a model may hold: 256 MiB of float64, 1 GiB with the
# gradient and Adam's two moments beside it
MAX_MODEL_FLOATS = 1 << 25
# most weight arrays a model may hold (MAX_MODEL_FLOATS admits 2.8 M tiny layers)
MAX_MODEL_TENSORS = 1 << 16


@dataclass(frozen=True)
class ModelConfig:
    patch_dim: int          # flattened patch width (P*P*C, or the mixed quadrant)
    dim: int = 64
    depth: int = 4
    heads: int = 4
    ffn_dim: int = 256
    n_classes: int = 10
    rpe: bool = False
    rpe_hidden: int = 64
    positions: int = 0      # learned absolute position rows, one per token; 0 = none

    def __post_init__(self):
        for field in ("patch_dim", "dim", "depth", "heads", "ffn_dim", "n_classes",
                      "rpe_hidden"):
            if getattr(self, field) < 1:
                raise ConfigError(f"{field} must be >= 1")
        if self.positions < 0:
            raise ConfigError(f"positions must be >= 0, got {self.positions}")
        if self.dim % self.heads != 0:
            raise ConfigError(f"dim {self.dim} not divisible by heads {self.heads}")
        if self.n_weights > MAX_MODEL_FLOATS:
            raise ConfigError(f"{self.n_weights} model weights exceed "
                              f"MAX_MODEL_FLOATS = {MAX_MODEL_FLOATS}")
        if self.n_tensors > MAX_MODEL_TENSORS:
            raise ConfigError(f"{self.n_tensors} weight arrays exceed "
                              f"MAX_MODEL_TENSORS = {MAX_MODEL_TENSORS}")

    @property
    def n_weights(self) -> int:
        """Entries over all init_params arrays, counted from the fields alone."""
        d, f, h = self.dim, self.ffn_dim, self.rpe_hidden
        return (self.patch_dim * d + 2 * d + (d + 1) * self.n_classes
                + self.depth * (4 * d * d + 2 * d * f + f + 5 * d)
                + self.rpe * (self.patch_dim * (1 + h) + h * (1 + d) + d)
                + self.positions * d)

    @property
    def n_tensors(self) -> int:
        """Number of init_params arrays, counted from the fields alone."""
        return 5 + 5 * self.rpe + self.depth * (9 + 3 * self.heads) + (self.positions > 0)

    @property
    def head_dim(self) -> int:
        return self.dim // self.heads


def init_params(cfg: ModelConfig, seed: int = 0) -> dict:
    """Gaussian(0, 0.02) weights, zero biases, unit layer-norm scales.

    Names: embed.w/b, cls, layer{i}.ln1.gamma|beta, layer{i}.attn.h{j}.wq|wk|wv,
    layer{i}.attn.wo, layer{i}.ln2.gamma|beta, layer{i}.ffn.w1|b1|w2|b2,
    head.w/b, rpe.w1|b1|w2|b2|ref when cfg.rpe is set, and pos when cfg.positions is.
    """
    rng = np.random.default_rng(seed)
    sd = 0.02

    def w(*shape):
        return Tensor(rng.normal(0.0, sd, size=shape))

    def zeros(*shape):
        return Tensor(np.zeros(shape))

    p = {
        "embed.w": w(cfg.patch_dim, cfg.dim),
        "embed.b": zeros(1, cfg.dim),
        "cls": w(1, cfg.dim),
        "head.w": w(cfg.dim, cfg.n_classes),
        "head.b": zeros(1, cfg.n_classes),
    }
    if cfg.rpe:
        p["rpe.ref"] = w(1, cfg.patch_dim)
        p["rpe.w1"] = w(cfg.patch_dim, cfg.rpe_hidden)
        p["rpe.b1"] = zeros(1, cfg.rpe_hidden)
        p["rpe.w2"] = w(cfg.rpe_hidden, cfg.dim)
        p["rpe.b2"] = zeros(1, cfg.dim)
    for i in range(cfg.depth):
        pre = f"layer{i}"
        p[f"{pre}.ln1.gamma"] = Tensor(np.ones((1, cfg.dim)))
        p[f"{pre}.ln1.beta"] = zeros(1, cfg.dim)
        for j in range(cfg.heads):
            for nm in ("wq", "wk", "wv"):
                p[f"{pre}.attn.h{j}.{nm}"] = w(cfg.dim, cfg.head_dim)
        p[f"{pre}.attn.wo"] = w(cfg.dim, cfg.dim)
        p[f"{pre}.ln2.gamma"] = Tensor(np.ones((1, cfg.dim)))
        p[f"{pre}.ln2.beta"] = zeros(1, cfg.dim)
        p[f"{pre}.ffn.w1"] = w(cfg.dim, cfg.ffn_dim)
        p[f"{pre}.ffn.b1"] = zeros(1, cfg.ffn_dim)
        p[f"{pre}.ffn.w2"] = w(cfg.ffn_dim, cfg.dim)
        p[f"{pre}.ffn.b2"] = zeros(1, cfg.dim)
    if cfg.positions:
        pos_rng = np.random.default_rng([seed, 1])
        p["pos"] = Tensor(pos_rng.normal(0.0, sd, size=(cfg.positions, cfg.dim)))
    return p


def msa(params: dict, prefix: str, z: Tensor, heads: int, trace=None) -> Tensor:
    """Multi-head self-attention: the heads' separate projections in one
    tensor.attention node, then the output projection wo."""
    wq, wk, wv = ([params[f"{prefix}.h{j}.{nm}"] for j in range(heads)]
                  for nm in ("wq", "wk", "wv"))
    dk = wq[0].data.shape[1]
    return matmul(attention(z, wq, wk, wv, 1.0 / np.sqrt(dk), trace=trace),
                  params[f"{prefix}.wo"])


def encoder_block(params: dict, prefix: str, z: Tensor, heads: int, trace=None) -> Tensor:
    """Pre-norm block: z' = MSA(LN(z)) + z ; out = FFN(LN(z')) + z'."""
    a = msa(params, f"{prefix}.attn",
            layer_norm(z, params[f"{prefix}.ln1.gamma"], params[f"{prefix}.ln1.beta"]),
            heads, trace=trace)
    zp = add(a, z)
    h = layer_norm(zp, params[f"{prefix}.ln2.gamma"], params[f"{prefix}.ln2.beta"])
    h = matmul(gelu(add(matmul(h, params[f"{prefix}.ffn.w1"]), params[f"{prefix}.ffn.b1"])),
               params[f"{prefix}.ffn.w2"])
    h = add(h, params[f"{prefix}.ffn.b2"])
    return add(h, zp)


def rpe(params: dict, x: Tensor) -> Tensor:
    """Reference-based positional features: sigmoid(mlp(x - ref)), one row per patch."""
    delta = add(x, scale(params["rpe.ref"], -1.0))
    h = gelu(add(matmul(delta, params["rpe.w1"]), params["rpe.b1"]))
    return sigmoid(add(matmul(h, params["rpe.w2"]), params["rpe.b2"]))


def build_tokens(params: dict, cfg: ModelConfig, patches: np.ndarray) -> Tensor:
    """Token matrix (N+1, D): the class row on top of the embedded (N, patch_dim)
    patches, plus their rpe features when cfg.rpe is set and the pos rows when
    cfg.positions is (a "pos" entry in params is ignored under positions 0)."""
    patches = np.asarray(patches, dtype=np.float64)
    if patches.ndim != 2 or patches.shape[1] != cfg.patch_dim:
        raise ShapeError(
            f"expected patch matrix (N, {cfg.patch_dim}), got {patches.shape}"
        )
    # add would broadcast a single pos row over every token
    if cfg.positions and len(patches) + 1 != cfg.positions:
        raise ShapeError(f"{len(patches) + 1} tokens for {cfg.positions} position rows")
    # the patches are a constant of the embedding: no gradient is formed for them
    emb = add(matmul(patches, params["embed.w"]), params["embed.b"])
    if cfg.rpe:
        emb = add(emb, rpe(params, Tensor(patches)))
    z = concat_rows([params["cls"], emb])
    return add(z, params["pos"]) if cfg.positions else z


def readout(params: dict, z: Tensor) -> Tensor:
    """Logits (1, n_classes): the head over the class row after an
    affine-free layer norm (unit scale, zero shift, not trainable)."""
    d = z.data.shape[1]
    y = layer_norm(first_row(z), Tensor(np.ones((1, d))), Tensor(np.zeros((1, d))))
    return add(matmul(y, params["head.w"]), params["head.b"])


def encode(params: dict, cfg: ModelConfig, patches: np.ndarray, trace: dict | None = None) -> Tensor:
    """Run blocks layer0 .. layer{depth-1} over build_tokens; returns the
    (N+1, D) token matrix. A dict ``trace`` receives "tokens" (the block
    input and each block's output) and "attn" (per block, the per-head
    attention weights), as numpy copies."""
    z = build_tokens(params, cfg, patches)
    if trace is not None:
        trace["tokens"] = [z.data.copy()]
        trace["attn"] = []
    for i in range(cfg.depth):
        attn_trace = [] if trace is not None else None
        z = encoder_block(params, f"layer{i}", z, cfg.heads, trace=attn_trace)
        if trace is not None:
            trace["tokens"].append(z.data.copy())
            trace["attn"].append(attn_trace)
    return z


def forward(params: dict, cfg: ModelConfig, patches: np.ndarray) -> Tensor:
    """Logits (1, n_classes) from the normalized class token."""
    return readout(params, encode(params, cfg, patches))


def loss_fn(params: dict, cfg: ModelConfig, patches: np.ndarray, label: int) -> Tensor:
    return cross_entropy(forward(params, cfg, patches), label)


def top_class(logits: np.ndarray) -> int:
    """Index of the largest logit; non-finite logits have no prediction."""
    if not np.all(np.isfinite(logits)):
        raise DataError("logits are not all finite (NaN or inf in the input or weights)")
    return int(np.argmax(logits))


def predict(params: dict, cfg: ModelConfig, patches: np.ndarray) -> int:
    return top_class(forward(params, cfg, patches).data)
