"""Tape compositions the package replaced, kept as bit-for-bit oracles.

``msa`` used to build each head from a transposed copy of k, a row softmax
and a last-axis concatenation, eight tape nodes per head. Those ops no
longer have a caller in the package; they are kept here, as they were, so
the fused node can be checked bit for bit against the composition it
replaced. ``full_rows_forward`` is ``pevit.forward`` from before its last
block ran the FFN on the class row alone. ``dfs_backward`` is
``tensor.backward`` from before it walked the tape newest node first: a
depth-first collection of every reachable Tensor, leaves included, then a
replay in descending ``_id``.
"""

import itertools

import numpy as np

from picrypt.pevit import encode, readout
from picrypt.errors import ShapeError
from picrypt.tensor import Tensor, matmul, scale


def transpose_last_two(a: Tensor) -> Tensor:
    out = Tensor(a.data.T.copy(), parents=(a,))
    out._pullback = lambda g: a.accumulate(g.T)
    return out


def softmax_rows(a: Tensor) -> Tensor:
    """Row-wise softmax with per-row max subtraction for stability."""
    da = a.data
    shifted = da - da.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=1, keepdims=True)
    out = Tensor(y, parents=(a,))

    def pull(g):
        dot = (g * y).sum(axis=1, keepdims=True)
        a.accumulate(y * (g - dot))

    out._pullback = pull
    return out


def concat_last_axis(tensors) -> Tensor:
    """Join along the last axis; the pullback hands each input its columns of g."""
    tensors = list(tensors)
    stops = list(itertools.accumulate(t.data.shape[-1] for t in tensors))
    out = Tensor(np.concatenate([t.data for t in tensors], axis=-1),
                 parents=tuple(tensors))

    def pull(g):
        for t, start, stop in zip(tensors, [0] + stops, stops):
            t.accumulate(g[..., start:stop])

    out._pullback = pull
    return out


def per_head_msa(params: dict, prefix: str, z: Tensor, heads: int, trace=None) -> Tensor:
    """``pevit.msa`` as a loop over heads, each its own projections and softmax."""
    outs = []
    for j in range(heads):
        q = matmul(z, params[f"{prefix}.h{j}.wq"])
        k = matmul(z, params[f"{prefix}.h{j}.wk"])
        v = matmul(z, params[f"{prefix}.h{j}.wv"])
        dk = q.data.shape[1]
        weights = softmax_rows(scale(matmul(q, transpose_last_two(k)), 1.0 / np.sqrt(dk)))
        if trace is not None:
            trace.append(weights.data.copy())
        outs.append(matmul(weights, v))
    return matmul(concat_last_axis(outs), params[f"{prefix}.wo"])


def full_rows_forward(params: dict, cfg, patches) -> Tensor:
    """Logits with every block, the last one too, run over all N+1 rows."""
    return readout(params, encode(params, cfg, patches))


def dfs_backward(loss: Tensor) -> None:
    """``backward`` as a DFS over every reachable Tensor and a sort of their ids."""
    if loss.data.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    nodes = {}
    stack = [loss]
    while stack:
        t = stack.pop()
        if t._id in nodes:
            continue
        nodes[t._id] = t
        stack.extend(t._parents)
    loss.accumulate(np.ones_like(loss.data))
    for tid in sorted(nodes, reverse=True):
        t = nodes[tid]
        if t._pullback is not None and t.grad is not None:
            t._pullback(t.grad)
