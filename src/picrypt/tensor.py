"""Minimal dense float64 tensor with reverse-mode automatic differentiation.

Every operation records its inputs and a pullback closure on the tensor it
returns; backward() replays the pullbacks in reverse recording order, so
gradient accumulation order is fixed and runs are reproducible. Matrices
are plain 2-D numpy arrays; there is no broadcasting beyond the bias-row
case add() documents.
"""

from __future__ import annotations

import itertools
import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, ShapeError

_ids = itertools.count()

# tanh-form gelu constants, pinned for cross-run determinism
_GELU_C0 = 0.7978845608028654
_GELU_C1 = 0.044715

LAYER_NORM_EPS = 1e-5

# grad_check's central-difference step and relative-error denominator floor
GRAD_CHECK_STEP = 1e-5
GRAD_CHECK_FLOOR = 1e-6


class Tensor:
    """Node in the autodiff graph: float64 values plus an optional gradient."""

    __slots__ = ("data", "grad", "_parents", "_pullback", "_id")

    def __init__(self, data, parents=()):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self._parents = parents
        self._pullback = None
        self._id = next(_ids)

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"

    def accumulate(self, g):
        if self.grad is None:
            self.grad = g + 0.0  # the bits of zeros + g (-0.0 + 0.0 is +0.0), not g itself
        else:
            self.grad += g


def _as2d(name, t):
    if t.data.ndim != 2:
        raise ShapeError(f"{name} expects a 2-D tensor, got shape {t.data.shape}")
    return t.data


def matmul(a, b: Tensor) -> Tensor:
    """a @ b of 2-D operands. ``a`` may be a plain array: a constant, which
    is not a parent of the result and gets no gradient."""
    const = not isinstance(a, Tensor)
    da, db = np.asarray(a, dtype=np.float64) if const else a.data, b.data
    if da.ndim != 2 or db.ndim != 2 or da.shape[1] != db.shape[0]:
        raise ShapeError(f"matmul shape mismatch: {da.shape} @ {db.shape}")
    out = Tensor(da @ db, parents=(b,) if const else (a, b))

    def pull(g):
        if not const:
            a.accumulate(g @ db.T)
        b.accumulate(da.T @ g)

    out._pullback = pull
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; b may also be a single row (1, D) broadcast over a's rows."""
    if a.data.shape == b.data.shape:
        out = Tensor(a.data + b.data, parents=(a, b))

        def pull(g):
            a.accumulate(g)
            b.accumulate(g)

    elif (
        a.data.ndim == 2
        and b.data.ndim == 2
        and b.data.shape == (1, a.data.shape[1])
    ):
        out = Tensor(a.data + b.data, parents=(a, b))

        def pull(g):
            a.accumulate(g)
            b.accumulate(g.sum(axis=0, keepdims=True))

    else:
        raise ShapeError(f"add shape mismatch: {a.data.shape} + {b.data.shape}")
    out._pullback = pull
    return out


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)
    out = Tensor(a.data * s, parents=(a,))
    out._pullback = lambda g: a.accumulate(g * s)
    return out


def concat_rows(tensors) -> Tensor:
    """Stack 2-D tensors of equal width vertically; the pullback hands each
    input its rows of g."""
    tensors = list(tensors)
    if not tensors:
        raise ShapeError("concat_rows of an empty sequence")
    width = _as2d("concat_rows", tensors[0]).shape[1]
    for t in tensors:
        if _as2d("concat_rows", t).shape[1] != width:
            raise ShapeError(f"concat_rows mismatch: {t.data.shape} vs width {width}")
    stops = list(itertools.accumulate(len(t.data) for t in tensors))
    out = Tensor(np.concatenate([t.data for t in tensors]), parents=tuple(tensors))

    def pull(g):
        for t, start, stop in zip(tensors, [0] + stops, stops):
            t.accumulate(g[start:stop])

    out._pullback = pull
    return out


def first_row(a: Tensor) -> Tensor:
    """Row 0 of a 2-D tensor, as a (1, D) tensor."""
    da = _as2d("first_row", a)
    out = Tensor(da[:1], parents=(a,))

    def pull(g):
        full = np.zeros_like(da)
        full[:1] = g
        a.accumulate(full)

    out._pullback = pull
    return out


def attention(z: Tensor, wq, wk, wv, scale: float, trace=None) -> Tensor:
    """Multi-head self-attention before the output projection, as one node.

    ``wq``, ``wk`` and ``wv`` hold one (D, d) projection per head. Head j is
    softmax(scale * (z wq_j)(z wk_j)^T)(z wv_j) with a row softmax, and the
    heads are joined along the last axis into an (N, H*d) tensor. A list
    ``trace`` receives a copy of each head's (N, N) attention weights.

    The heads run stacked, but every numpy call works per head on operands
    laid out as in a per-head composition of matmul, a transposed copy of
    k, a scale and a row softmax, and the pullback adds into z in that
    composition's reverse-tape order (heads last to first; v, k, then q),
    so values and gradients are bit for bit that composition's.
    """
    dz = _as2d("attention", z)
    heads, ws = len(wq), (*wq, *wk, *wv)
    shapes = {w.data.shape for w in ws}
    if not heads or not heads == len(wk) == len(wv) \
            or shapes != {(dz.shape[1], *wq[0].shape[-1:])}:
        raise ShapeError(f"attention of tokens {dz.shape} needs one (D, d) shape for "
                         f"{heads} wq, {len(wk)} wk and {len(wv)} wv, got {sorted(shapes)}")
    n, s = dz.shape[0], float(scale)
    stacked = np.stack([w.data for w in ws])  # (3H, D, d)
    proj = np.matmul(dz, stacked)
    q, k, v = proj[:heads], proj[heads:2 * heads], proj[2 * heads:]
    kt = k.transpose(0, 2, 1).copy()
    scores = np.matmul(q, kt) * s
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    y = e / e.sum(axis=-1, keepdims=True)
    if trace is not None:
        trace.extend(w.copy() for w in y)
    out = Tensor(np.matmul(y, v).transpose(1, 0, 2).reshape(n, -1), parents=(z, *ws))

    def pull(g):
        # a gradient holds no -0.0, so this is each head's g[:, cols] + 0.0;
        # every "+ 0.0" below is the first accumulate of a per-head node
        g_o = np.ascontiguousarray(g.reshape(n, heads, -1).transpose(1, 0, 2))
        g_y = np.matmul(g_o, v.transpose(0, 2, 1)) + 0.0
        g_v = np.matmul(y.transpose(0, 2, 1), g_o) + 0.0
        g_s = (y * (g_y - (g_y * y).sum(axis=-1, keepdims=True)) + 0.0) * s + 0.0
        g_q = np.matmul(g_s, kt.transpose(0, 2, 1)) + 0.0
        # the transposed copy's gradient, read back through the transpose:
        # per head an F-ordered (N, d) array
        g_k = (np.matmul(q.transpose(0, 2, 1), g_s) + 0.0).transpose(0, 2, 1)
        wt = stacked.transpose(0, 2, 1)
        parts = [(np.matmul(g_p, wt[i * heads:(i + 1) * heads]), np.matmul(dz.T, g_p))
                 for i, g_p in enumerate((g_q, g_k, g_v))]
        for j in reversed(range(heads)):
            for i in (2, 1, 0):
                to_z, to_w = parts[i]
                z.accumulate(to_z[j])
                ws[i * heads + j].accumulate(to_w[j])

    out._pullback = pull
    return out


def _row_means(a):
    # a.mean(axis=1, keepdims=True) bit for bit: numpy's mean is this
    # add.reduce divided by the row count, behind a Python-level wrapper
    return np.add.reduce(a, axis=1, keepdims=True) / a.shape[1]


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize each row to zero mean / unit variance, then affine scale."""
    dx = _as2d("layer_norm", x)
    d = dx.shape[1]
    grow = gamma.data.reshape(1, -1)
    brow = beta.data.reshape(1, -1)
    if grow.shape[1] != d or brow.shape[1] != d:
        raise ShapeError(
            f"layer_norm affine shapes {gamma.data.shape}/{beta.data.shape} "
            f"do not match row width {d}"
        )
    mu = _row_means(dx)
    var = _row_means((dx - mu) ** 2)
    if not np.isfinite(var).all():  # an inf var would normalise its row to 0
        raise DataError("layer_norm rows have no finite variance (NaN or overflow)")
    inv_std = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = (dx - mu) * inv_std
    out = Tensor(grow * xhat + brow, parents=(x, gamma, beta))

    def pull(g):
        gamma.accumulate((g * xhat).sum(axis=0, keepdims=True).reshape(gamma.data.shape))
        beta.accumulate(g.sum(axis=0, keepdims=True).reshape(beta.data.shape))
        dxhat = g * grow
        term = dxhat - _row_means(dxhat) - xhat * _row_means(dxhat * xhat)
        x.accumulate(inv_std * term)

    out._pullback = pull
    return out


def gelu(x: Tensor) -> Tensor:
    """tanh-form gelu; the approximation constants are fixed."""
    dx = x.data
    inner = _GELU_C0 * (dx + _GELU_C1 * dx**3)
    t = np.tanh(inner)
    out = Tensor(0.5 * dx * (1.0 + t), parents=(x,))

    def pull(g):
        dinner = _GELU_C0 * (1.0 + 3.0 * _GELU_C1 * dx**2)
        deriv = 0.5 * (1.0 + t) + 0.5 * dx * (1.0 - t**2) * dinner
        x.accumulate(g * deriv)

    out._pullback = pull
    return out


def sigmoid(x: Tensor) -> Tensor:
    s = 1.0 / (1.0 + np.exp(-x.data))
    out = Tensor(s, parents=(x,))
    out._pullback = lambda g: x.accumulate(g * s * (1.0 - s))
    return out


def cross_entropy(logits: Tensor, label: int) -> Tensor:
    """Negative log-likelihood of ``label`` under softmax(logits); scalar."""
    flat = logits.data.reshape(-1)
    k = flat.shape[0]
    if not 0 <= label < k:
        raise ShapeError(f"label {label} out of range for {k} classes")
    m = flat.max()
    z = flat - m
    logsumexp = m + np.log(np.exp(z).sum())
    out = Tensor(logsumexp - flat[label], parents=(logits,))

    def pull(g):
        p = np.exp(z) / np.exp(z).sum()
        p[label] -= 1.0
        logits.accumulate(float(g) * p.reshape(logits.data.shape))

    out._pullback = pull
    return out


def backward(loss: Tensor) -> None:
    """Populate grads of everything ``loss`` depends on.

    Pullbacks run in reverse recording order (a valid topological order by
    construction), so accumulation order never varies between runs.
    """
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


def zero_grads(params) -> None:
    """Zero each existing gradient in place, so a gradient that is a view
    (as ``harness.Adam`` makes them) stays one."""
    for t in params.values():
        if t.grad is not None:
            t.grad.fill(0.0)


@dataclass
class GradCheckReport:
    max_rel_error: float
    param: str
    index: int
    n_checked: int
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tolerance


def grad_check(f, params, tolerance: float = 1e-4,
               max_entries: int | None = None, seed: int = 0) -> GradCheckReport:
    """Compare analytic gradients of ``f(params)`` to central differences.

    f must return a scalar Tensor. Checks every parameter entry, or a
    seeded sample of ``max_entries`` of them. Relative error uses
    max(|analytic|, |numeric|, GRAD_CHECK_FLOOR) as denominator so
    near-zero gradients are compared absolutely. A check of no entry
    raises ConfigError.
    """
    if max_entries is not None and max_entries < 1:
        raise ConfigError(f"max_entries must be >= 1, got {max_entries}")
    if not any(t.data.size for t in params.values()):
        raise ConfigError("no parameter entries to check")
    zero_grads(params)
    loss = f(params)
    backward(loss)
    analytic = {
        name: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data))
        for name, t in params.items()
    }

    entries = [
        (name, idx)
        for name in sorted(params)
        for idx in range(params[name].data.size)
    ]
    if max_entries is not None and len(entries) > max_entries:
        rng = np.random.default_rng(seed)
        picks = rng.choice(len(entries), size=max_entries, replace=False)
        entries = [entries[i] for i in sorted(picks)]

    worst = (0.0, "", -1)
    for name, idx in entries:
        flat = params[name].data.reshape(-1)
        orig = flat[idx]
        flat[idx] = orig + GRAD_CHECK_STEP
        fp = f(params).data.item()
        flat[idx] = orig - GRAD_CHECK_STEP
        fm = f(params).data.item()
        flat[idx] = orig
        numeric = (fp - fm) / (2.0 * GRAD_CHECK_STEP)
        a = analytic[name].reshape(-1)[idx]
        rel = abs(a - numeric) / max(abs(a), abs(numeric), GRAD_CHECK_FLOOR)
        if rel > worst[0]:
            worst = (rel, name, idx)

    return GradCheckReport(
        max_rel_error=worst[0],
        param=worst[1],
        index=worst[2],
        n_checked=len(entries),
        tolerance=tolerance,
    )


CHECKPOINT_MAGIC = b"PETN"
CHECKPOINT_VERSION = 1
# most dimensions of a checkpoint entry: numpy 1.x's limit (numpy 2 allows 64)
MAX_CHECKPOINT_RANK = 32


def save_checkpoint(path, params) -> None:
    """Write named tensors to ``path`` in the binary checkpoint format.

    Layout: magic "PETN", version u32, entry count u32; per entry a u16
    name length, the UTF-8 name, a u32 rank, the dims as u64, then the
    float64 payload. All integers and floats little-endian. Entries are
    written in sorted name order so files are byte-reproducible.
    """
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(params)))
        for name in sorted(params):
            data = params[name].data
            raw = name.encode("utf-8")
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<I", data.ndim))
            fh.write(struct.pack(f"<{data.ndim}Q", *data.shape))
            fh.write(data.astype("<f8").tobytes())


def load_checkpoint(path) -> dict:
    """Read a checkpoint back as a name -> Tensor dict.

    A file cut short anywhere (header, name, dims or payload), a name that
    is not UTF-8 or is repeated, a rank above MAX_CHECKPOINT_RANK, dims no
    array can have or bytes after the last entry raise ShapeError.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise ShapeError(f"bad checkpoint magic: {blob[:4]!r}")
    pos = 4

    def advance(nbytes, what):
        # offset of the next nbytes, which must lie inside the file
        nonlocal pos
        if len(blob) - pos < nbytes:
            raise ShapeError(
                f"truncated checkpoint: {what} needs {nbytes} bytes at offset "
                f"{pos}, {len(blob) - pos} left"
            )
        pos += nbytes
        return pos - nbytes

    version, count = struct.unpack_from("<II", blob, advance(8, "header"))
    if version != CHECKPOINT_VERSION:
        raise ShapeError(f"unsupported checkpoint version {version}")
    params = {}
    for _ in range(count):
        (nlen,) = struct.unpack_from("<H", blob, advance(2, "name length"))
        at = advance(nlen, "name")
        try:
            name = blob[at : at + nlen].decode("utf-8")
        except UnicodeDecodeError:
            raise ShapeError(f"checkpoint entry name at offset {at} is not UTF-8") from None
        if name in params:
            raise ShapeError(f"checkpoint entry {name!r} appears twice")
        (rank,) = struct.unpack_from("<I", blob, advance(4, "rank"))
        if rank > MAX_CHECKPOINT_RANK:
            raise ShapeError(f"entry {name!r} has rank {rank}, above {MAX_CHECKPOINT_RANK}")
        dims = struct.unpack_from(f"<{rank}Q", blob, advance(8 * rank, "dims"))
        size = math.prod(dims)
        at = advance(8 * size, "data")
        if 8 * math.prod(d or 1 for d in dims) > np.iinfo(np.intp).max:  # numpy's limit
            raise ShapeError(f"entry {name!r} has dims {dims}, too large for an array")
        data = np.frombuffer(blob, dtype="<f8", count=size, offset=at).reshape(dims)
        params[name] = Tensor(data.copy())
    if pos != len(blob):
        raise ShapeError(f"{len(blob) - pos} bytes after the last checkpoint entry")
    return params
