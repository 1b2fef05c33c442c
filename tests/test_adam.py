"""The flat-buffer Adam against the per-name Adam it replaced.

``PerNameAdam`` is the optimizer as it was before the parameters were
packed into one buffer: a loop over sorted names with one expression per
array. It is kept here, test-only, as the oracle: the flat step must give
the same bits for the values and both moments, step after step.
"""

import sys
import threading
import warnings

import numpy as np
import pytest

from picrypt import pevit
from picrypt.harness import ADAM_BLOCK, Adam
from picrypt.tensor import Tensor, backward, cross_entropy, zero_grads

# the criterion-6 classifier: 16 rs tokens of 16x16x3, D=64, L=4, H=4
MODEL = pevit.ModelConfig(patch_dim=16 * 16 * 3, dim=64, depth=4, heads=4,
                          ffn_dim=256, n_classes=10)
STEPS = 50


class PerNameAdam:
    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = {k: np.zeros_like(t.data) for k, t in params.items()}
        self.v = {k: np.zeros_like(t.data) for k, t in params.items()}

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for name in sorted(self.params):
            p = self.params[name]
            g = p.grad
            if g is None:
                continue
            self.m[name] = b1 * self.m[name] + (1 - b1) * g
            self.v[name] = b2 * self.v[name] + (1 - b2) * g * g
            mhat = self.m[name] / (1 - b1**self.t)
            vhat = self.v[name] / (1 - b2**self.t)
            p.data -= self.lr * mhat / (np.sqrt(vhat) + self.eps)
        zero_grads(self.params)


def flat(arrays: dict) -> np.ndarray:
    return np.concatenate([arrays[name].ravel() for name in sorted(arrays)])


def batch_sizes(batch, n=10):
    """Batch sizes of ``STEPS`` steps over epochs of n samples, tail included."""
    epoch = [min(batch, n - start) for start in range(0, n, batch)]
    return (epoch * STEPS)[:STEPS]


@pytest.mark.parametrize("batch", [1, 4])
def test_flat_step_matches_per_name_oracle(batch):
    params = pevit.init_params(MODEL, seed=3)
    twin = {name: Tensor(p.data.copy()) for name, p in params.items()}
    opt = Adam(params, lr=3e-3)
    oracle = PerNameAdam(twin, lr=3e-3)
    rng = np.random.default_rng(batch)
    sizes = batch_sizes(batch)
    assert batch == 1 or sizes[:3] == [4, 4, 2]  # epochs of 10 end on a tail of 2
    for size in sizes:
        for _ in range(size):
            x = rng.random((4, MODEL.patch_dim))
            label = int(rng.integers(MODEL.n_classes))
            for p in (params, twin):
                backward(cross_entropy(pevit.forward(p, MODEL, x), label))
        if size > 1:
            opt.grad /= size
            for p in twin.values():
                p.grad /= size
        opt.step()
        oracle.step()
    assert np.array_equal(opt.data, flat({k: p.data for k, p in twin.items()}))
    assert np.array_equal(opt.m, flat(oracle.m))
    assert np.array_equal(opt.v, flat(oracle.v))
    for name in params:
        assert np.array_equal(params[name].data, twin[name].data), name
        assert not params[name].grad.any(), name


def test_params_are_views_of_the_flat_buffers():
    params = pevit.init_params(MODEL, seed=4)
    before = {name: p.data.copy() for name, p in params.items()}
    params["head.b"].grad = np.full((1, MODEL.n_classes), 0.5)
    opt = Adam(params)
    assert opt.data.size == opt.grad.size == opt.m.size == sum(a.size for a in before.values())
    for name, p in params.items():
        assert np.shares_memory(p.data, opt.data), name
        assert np.shares_memory(p.grad, opt.grad), name
        assert np.array_equal(p.data, before[name]), name
    # a gradient accumulated before the optimizer existed is carried over
    assert np.array_equal(params["head.b"].grad, np.full((1, MODEL.n_classes), 0.5))
    assert opt.grad.sum() == 0.5 * MODEL.n_classes


def split_params(sizes, seed):
    """Named parameters of the given sizes, and their per-name twins."""
    rng = np.random.default_rng(seed)
    params = {f"p{i:02d}": Tensor(rng.standard_normal(size)) for i, size in enumerate(sizes)}
    twin = {name: Tensor(p.data.copy()) for name, p in params.items()}
    return params, twin


def count_starts(monkeypatch):
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda self: started.append(self) or start(self))
    return started


# one size per case: below one block (one thread), exactly two blocks, an
# odd count whose halves each end on a partial block, the criterion-6 model
SPLIT_SIZES = {
    "below_one_block": [700, 3, 1000],
    "two_blocks": [ADAM_BLOCK - 5, 7, ADAM_BLOCK - 2],
    "odd_partial_halves": [ADAM_BLOCK + 17, 2 * ADAM_BLOCK - 16],
    "criterion6": [p.data.size for _, p in sorted(pevit.init_params(MODEL, seed=0).items())],
}


@pytest.mark.parametrize("case", sorted(SPLIT_SIZES))
def test_split_step_matches_per_name_oracle(case, monkeypatch):
    sizes = SPLIT_SIZES[case]
    n = sum(sizes)
    assert {"below_one_block": n < ADAM_BLOCK, "two_blocks": n == 2 * ADAM_BLOCK,
            "odd_partial_halves": n % 2 == 1 and n // 2 % ADAM_BLOCK > 0,
            "criterion6": n == 248_842}[case]
    params, twin = split_params(sizes, seed=len(case))
    opt = Adam(params, lr=3e-3)
    oracle = PerNameAdam(twin, lr=3e-3)
    started = count_starts(monkeypatch)
    rng = np.random.default_rng(7)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # the halves write no common element
    try:
        for _ in range(3):
            for name, p in params.items():
                g = rng.standard_normal(p.data.size)
                p.grad += g  # a view of opt.grad
                twin[name].grad = g
            opt.step()
            oracle.step()
    finally:
        sys.setswitchinterval(old)
    assert len(started) == (0 if n <= ADAM_BLOCK else 3)
    assert np.array_equal(opt.data, flat({k: p.data for k, p in twin.items()}))
    assert np.array_equal(opt.m, flat(oracle.m))
    assert np.array_equal(opt.v, flat(oracle.v))
    for name in params:
        assert np.array_equal(params[name].data, twin[name].data), name
        assert not params[name].grad.any(), name


def test_split_step_worker_keeps_the_callers_errstate():
    # g * g overflows only in the second half, the worker's
    n = 3 * ADAM_BLOCK
    params, _ = split_params([n], seed=0)
    opt = Adam(params)
    opt.grad[n // 2:] = 1e200
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        opt.step()
    opt.grad[n // 2:] = 1e200
    with np.errstate(over="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")
        opt.step()
    assert np.isinf(opt.v[n // 2:]).all() and np.isfinite(opt.data).all()
    assert not opt.grad.any()
