"""Golden SHA-256 digests of fixed-seed model outputs.

The digests were taken before the classifier's forward and positional
baseline were folded onto one token build, block stack and readout. They
pin every output that refactor must keep byte for byte: logits and all
parameter gradients (rpe off and on), the encoder trace, the baseline
logits, test-time predictions and accuracy, and checkpoint bytes and
epoch losses after training with and without a tail batch. The values
are float64 bytes from numpy's matmul, so a BLAS build with different
kernels may change the last bits.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from picrypt import pevit
from picrypt.harness import (
    SynthSpec,
    TrainConfig,
    evaluate,
    gen_dataset,
    predictions,
    train,
)
from picrypt.tensor import backward, cross_entropy

MODEL = pevit.ModelConfig(patch_dim=48, dim=16, depth=2, heads=2, ffn_dim=32,
                          n_classes=3, rpe_hidden=8)
SPEC = SynthSpec(image_size=16, classes=3, train_per_class=5, test_per_class=3,
                 seed=4)


def digest(arr):
    arr = np.asarray(arr)
    head = f"{arr.dtype.str}{arr.shape}".encode()
    return hashlib.sha256(head + np.ascontiguousarray(arr).tobytes()).hexdigest()[:16]


def digest_all(arrays):
    h = hashlib.sha256()
    for arr in arrays:
        h.update(digest(arr).encode())
    return h.hexdigest()[:16]


def patches(n=16, seed=0):
    return np.random.default_rng(seed).random((n, MODEL.patch_dim))


def forward_and_grads(rpe):
    cfg = dataclasses.replace(MODEL, rpe=rpe)
    params = pevit.init_params(cfg, seed=1)
    logits = pevit.forward(params, cfg, patches())
    backward(cross_entropy(logits, 2))
    grads = [params[name].grad for name in sorted(params)]
    return {"logits": digest(logits.data), "grads": digest_all(grads)}


def encode_trace():
    trace = {}
    pevit.encode(pevit.init_params(MODEL, seed=2), MODEL, patches(seed=2), trace=trace)
    return {"tokens": digest_all(trace["tokens"]),
            "attn": digest_all(a for block in trace["attn"] for a in block)}


def baseline_logits():
    cfg = dataclasses.replace(MODEL, positions=17)
    params = pevit.init_params(cfg, seed=3)
    return digest(pevit.forward(params, cfg, patches(seed=3)).data)


def train_cfg(batch):
    return TrainConfig(model=MODEL, epochs=2, batch=batch, encryption="rs",
                       patch_size=4, seed=6)


def trained(tmp_path, batch):
    path = tmp_path / f"b{batch}.petn"
    params, history = train(train_cfg(batch), gen_dataset(SPEC), checkpoint=path)
    losses = [row["loss"] for row in history]
    return params, hashlib.sha256(path.read_bytes()).hexdigest()[:16], digest(losses)


def test_forward_logits_and_gradients():
    assert forward_and_grads(rpe=False) == {"logits": "13034d82d0cfde82",
                                            "grads": "55c79a54f9ad1a16"}
    assert forward_and_grads(rpe=True) == {"logits": "1aa2fd12fb666618",
                                           "grads": "60c0f6010f734c00"}


def test_encode_trace_tokens_and_attention():
    assert encode_trace() == {"tokens": "bccf02976462a3b4", "attn": "48e6154f6e14cf5d"}


def test_positional_baseline_logits():
    assert baseline_logits() == "aff80ac707224ce7"


def test_predictions_and_evaluate(tmp_path):
    data = gen_dataset(SPEC)
    params, _, _ = trained(tmp_path, 1)
    cfg = train_cfg(1)
    assert digest(predictions(params, cfg, data.test_x, seed=8)) == "dd8070d18f32992d"
    assert evaluate(params, cfg, data.test_x, data.test_y, seed=8) == 6 / 9


@pytest.mark.parametrize("batch, want", [(1, ("daf79a548e30cf55", "ff478f273a56803e")),
                                         (4, ("ca3db4eb02cb78dd", "a7db54e3f6adda3d"))])
def test_train_checkpoint_and_losses(tmp_path, batch, want):
    # 15 training images: batch 4 leaves a tail batch of 3
    assert trained(tmp_path, batch)[1:] == want
