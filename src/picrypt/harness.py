"""Experiment plumbing: synthetic data, toy training runs, leakage and sweeps.

Everything here is a pure function of (config, seeds). The dataset is ten
classes of colored geometric shapes on a dark noisy background — deliberately
separable from a bag of patches, since the whole point is to train on
shuffled/mixed inputs. A separate smooth-field corpus feeds the jigsaw
experiments, where seam continuity (not class structure) is what matters.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import pevit
from .attacks import Arrangement, _both, grad_leak_invert, jigsaw_solve, puzzle_metrics
from .cipher import (
    drop_patches,
    encrypt,
    gen_key,
    mixes,
    quantize_mixed,
    rs_encrypt,
    token_dim,
    token_rows,
)
from .errors import ConfigError, DataError, KeyMismatchError
from .imgio import Image, assemble, grid_shape, split_patches
from .pevit import ModelConfig
from .rng import SplitMix64, check_seed
from .tensor import backward, cross_entropy, save_checkpoint

# ten distinct bright colors, none close to white (the leakage marker is
# the only source of exact 255/255/255 pixels)
PALETTE = (
    (220, 40, 40), (40, 200, 60), (50, 80, 220), (230, 220, 50),
    (200, 50, 200), (60, 210, 210), (240, 140, 30), (130, 60, 200),
    (160, 220, 40), (240, 120, 160),
)

MARKER_SIZE = 8

# largest image side that SynthSpec and gen_puzzle_corpus accept: each
# generated image allocates a few (side, side, 3) float64 or int64 arrays
MAX_IMAGE_SIZE = 1024

# largest generated corpus, in uint8 bytes (images * side^2 * 3), that
# SynthSpec and gen_puzzle_corpus accept; SynthSpec's defaults are 74 MB
MAX_CORPUS_BYTES = 1 << 28

# gen_puzzle_corpus: coarse-field control-point spacing (pixels), and the
# amplitudes of the pixel noise, the intensity bowl and the coarse field
PUZZLE_CELL = 12
PUZZLE_NOISE_AMP = 8.0
PUZZLE_BOWL_AMP = 110.0
PUZZLE_FIELD_AMP = 55.0


@dataclass(frozen=True)
class SynthSpec:
    image_size: int = 64
    classes: int = 10
    train_per_class: int = 500
    test_per_class: int = 100
    marker: bool = False
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.classes <= len(PALETTE):
            raise ConfigError(f"classes must be in 1..{len(PALETTE)}")
        _check_side(self.image_size, smallest=16)
        for field in ("train_per_class", "test_per_class"):
            if getattr(self, field) < 0:
                raise ConfigError(f"{field} must be >= 0, got {getattr(self, field)}")
        _check_corpus(self.classes * (self.train_per_class + self.test_per_class),
                      self.image_size)
        check_seed(self.seed)


def _check_side(side: int, smallest: int = 1) -> None:
    if not smallest <= side <= MAX_IMAGE_SIZE:
        raise ConfigError(f"image_size must be in {smallest}..{MAX_IMAGE_SIZE}")


def _check_drop_ratio(ratio: float) -> None:
    if not 0.0 <= ratio < 1.0:  # also false for nan
        raise ConfigError(f"drop_ratio must be in [0, 1), got {ratio}")


def _check_corpus(images: int, side: int) -> None:
    if images * side * side * 3 > MAX_CORPUS_BYTES:
        raise ConfigError(f"{images} images of side {side} exceed "
                          f"MAX_CORPUS_BYTES = {MAX_CORPUS_BYTES}")


@dataclass(frozen=True)
class Dataset:
    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray


def _shape_mask(kind: int, size: int, cx: float, cy: float, r: float) -> np.ndarray:
    yy, xx = np.mgrid[0:size, 0:size]
    dx, dy = xx - cx, yy - cy
    if kind == 0:      # filled square
        return (np.abs(dx) <= r) & (np.abs(dy) <= r)
    if kind == 1:      # disc
        return dx * dx + dy * dy <= r * r
    if kind == 2:      # downward-widening triangle
        return (np.abs(dy) <= r) & (np.abs(dx) <= (dy + r) / 2.0)
    if kind == 3:      # plus sign
        bar = max(1.0, r / 3.0)
        return ((np.abs(dx) <= bar) & (np.abs(dy) <= r)) | (
            (np.abs(dy) <= bar) & (np.abs(dx) <= r)
        )
    # ring
    d2 = dx * dx + dy * dy
    return (d2 <= r * r) & (d2 >= (r / 2.0) ** 2)


def _render_sample(rng, spec: SynthSpec, cls: int) -> np.ndarray:
    s = spec.image_size
    img = rng.integers(6, 34, size=(s, s, 3))
    cx = rng.uniform(0.3 * s, 0.7 * s)
    cy = rng.uniform(0.3 * s, 0.7 * s)
    r = rng.uniform(0.16 * s, 0.3 * s)
    mask = _shape_mask(cls % 5, s, cx, cy, r)
    img[mask] = PALETTE[cls % len(PALETTE)]
    if spec.marker:
        mx = int(rng.integers(0, s - MARKER_SIZE + 1))
        my = int(rng.integers(0, s - MARKER_SIZE + 1))
        img[my : my + MARKER_SIZE, mx : mx + MARKER_SIZE] = 255
    return img.astype(np.uint8)


def gen_dataset(spec: SynthSpec) -> Dataset:
    """Balanced labeled train/test images, deterministic per seed."""
    rng = np.random.default_rng(spec.seed)
    n_train, n_test = spec.train_per_class, spec.test_per_class
    shape = (spec.image_size, spec.image_size, 3)
    # each image is written into its slot, so the corpus is held once
    train_x = np.empty((spec.classes * n_train, *shape), dtype=np.uint8)
    test_x = np.empty((spec.classes * n_test, *shape), dtype=np.uint8)
    for cls in range(spec.classes):
        for i in range(n_train):
            train_x[cls * n_train + i] = _render_sample(rng, spec, cls)
        for i in range(n_test):
            test_x[cls * n_test + i] = _render_sample(rng, spec, cls)
    labels = np.arange(spec.classes, dtype=np.int64)
    return Dataset(
        train_x=train_x,
        train_y=np.repeat(labels, n_train),
        test_x=test_x,
        test_y=np.repeat(labels, n_test),
    )


def _bilinear_upsample(field: np.ndarray, size: int) -> np.ndarray:
    """Upsample (h, w, c) to (size, size, c) with bilinear interpolation."""
    h, w = field.shape[:2]
    ys = np.linspace(0.0, h - 1.0, size)
    xs = np.linspace(0.0, w - 1.0, size)
    y0 = np.clip(ys.astype(int), 0, h - 2)
    x0 = np.clip(xs.astype(int), 0, w - 2)
    fy = (ys - y0)[:, None, None]
    fx = (xs - x0)[None, :, None]
    a = field[y0][:, x0]
    b = field[y0][:, x0 + 1]
    c = field[y0 + 1][:, x0]
    d = field[y0 + 1][:, x0 + 1]
    return (a * (1 - fy) * (1 - fx) + b * (1 - fy) * fx
            + c * fy * (1 - fx) + d * fy * fx)


def gen_puzzle_corpus(n: int, image_size: int, seed: int = 0) -> list:
    """Images with smooth low-frequency structure for the jigsaw experiments.

    Each image is a quadratic intensity bowl (globally unique levels, so no
    two distant regions look alike) plus a bilinearly upsampled coarse
    random field (one control point every ``PUZZLE_CELL`` pixels) plus mild
    pixel noise. Adjacent pixels correlate strongly, pixels a few steps apart
    much less — which is what makes seam matching work at interval 0 and
    fail as gap pixels are discarded. Deliberately no flat regions:
    constant areas produce zero-cost impostor seams that poison any
    boundary-based solver.
    """
    _check_side(image_size)
    _check_corpus(n, image_size)
    rng = np.random.default_rng(seed)
    coarse = max(2, image_size // PUZZLE_CELL)
    yy, xx = np.mgrid[0:image_size, 0:image_size].astype(np.float64)
    out = []
    for _ in range(n):
        cx, cy = rng.uniform(0.2 * image_size, 0.8 * image_size, 2)
        d2 = ((xx - cx) ** 2 + (yy - cy) ** 2) / (image_size * image_size / 2.0)
        bowl = PUZZLE_BOWL_AMP * (1.0 - np.clip(d2, 0.0, 1.0))
        field = rng.uniform(-PUZZLE_FIELD_AMP, PUZZLE_FIELD_AMP,
                            size=(coarse, coarse, 3))
        img = 60.0 + bowl[..., None] + _bilinear_upsample(field, image_size)
        img += rng.uniform(-PUZZLE_NOISE_AMP, PUZZLE_NOISE_AMP, size=img.shape)
        out.append(np.clip(np.rint(img), 0, 255).astype(np.uint8))
    return out


# --------------------------------------------------------------------------
# training


@dataclass(frozen=True)
class TrainConfig:
    model: ModelConfig
    epochs: int = 20
    batch: int = 1
    lr: float = 1e-3
    encryption: str = "rs"
    patch_size: int = 16
    interval: int = 0
    drop_ratio: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.batch < 1:
            raise ConfigError("epochs and batch must be >= 1")
        _check_drop_ratio(self.drop_ratio)
        if self.interval < 0:
            raise ConfigError(f"interval must be >= 0, got {self.interval}")
        if mixes(self.encryption) and self.drop_ratio > 0.0:  # parses every setting
            raise ConfigError("drop_ratio is only supported for none/rs settings")
        if not 0.0 < self.lr < np.inf:
            raise ConfigError(f"lr must be finite and > 0, got {self.lr}")
        check_seed(self.seed)


def image_vectors(pixels: np.ndarray, cfg: TrainConfig, rng: SplitMix64) -> np.ndarray:
    """Encrypt one image per cfg and flatten it to a token matrix.

    Key material is drawn from ``rng``, so consecutive calls see fresh
    permutations — the per-sample shuffle the training recipe requires.
    """
    grid = split_patches(Image(pixels=pixels), cfg.patch_size, cfg.interval)
    if cfg.drop_ratio > 0.0:
        grid = drop_patches(grid, cfg.drop_ratio, rng.next_u64())
    return token_rows(encrypt(grid, cfg.encryption, rng.next_u64))


# elements per block of Adam.step: six 512 KiB slices stay in cache
ADAM_BLOCK = 1 << 16
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Adam:
    """Adaptive-moment gradient step over a named parameter dict.

    The parameters are packed, in sorted-name order, into one flat value
    buffer ``data`` and one gradient buffer ``grad`` (a gradient already
    accumulated carries over), and each Tensor's ``.data`` and ``.grad``
    become views of them. ``step`` works in place, block by block, with the
    per-element operations of m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g,
    data -= lr*(m/c1) / (sqrt(v/c2) + eps) in that order (b1, b2 and eps
    are ``ADAM_BETA1``, ``ADAM_BETA2`` and ``ADAM_EPS``), so its bits are
    that expression's. Buffers over one ``ADAM_BLOCK`` are stepped in two
    halves, the second on a worker thread; no element is in both, so the
    bits do not depend on the split. After a step the gradients are zeroed
    views, not None, and every parameter is stepped: one that got no
    gradient still moves by its decayed moments.
    """

    def __init__(self, params: dict, lr: float = TrainConfig.lr):
        self.params = params
        self.lr = lr
        self.t = 0
        tensors = [params[name] for name in sorted(params)]
        self.data = np.concatenate([p.data.ravel() for p in tensors])
        self.grad = np.concatenate([np.zeros(p.data.size) if p.grad is None
                                    else p.grad.ravel() for p in tensors])
        cuts = np.cumsum([p.data.size for p in tensors])[:-1]
        for p, d, g in zip(tensors, np.split(self.data, cuts), np.split(self.grad, cuts)):
            p.data, p.grad = d.reshape(p.shape), g.reshape(p.shape)
        self.m, self.v = np.zeros_like(self.data), np.zeros_like(self.data)
        # one (a, b) scratch pair per half: a worker that allocated its own
        # would take a malloc arena of its own
        halves = 2 if self.data.size > ADAM_BLOCK else 1
        self._scratch = np.empty((halves, 2, min(self.data.size, ADAM_BLOCK)))

    def step(self) -> None:
        self.t += 1
        c1, c2 = 1 - ADAM_BETA1**self.t, 1 - ADAM_BETA2**self.t
        n = self.data.size
        if len(self._scratch) == 1:
            self._step_part(0, n, self._scratch[0], c1, c2)
        else:
            half = n // 2
            _both(self._step_part, (half, n, self._scratch[1], c1, c2),
                  (0, half, self._scratch[0], c1, c2))

    def _step_part(self, lo: int, hi: int, scratch: np.ndarray, c1: float, c2: float) -> None:
        """Step elements [lo, hi) in blocks as long as ``scratch``'s rows, and
        zero their gradient."""
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        block = scratch.shape[1]
        for start in range(lo, hi, block):
            part = slice(start, min(start + block, hi))
            g, m, v = self.grad[part], self.m[part], self.v[part]
            a, b = scratch[0, :g.size], scratch[1, :g.size]
            np.multiply(g, 1 - b1, out=a)
            m *= b1
            m += a
            np.multiply(g, 1 - b2, out=a)
            a *= g
            v *= b2
            v += a
            np.divide(m, c1, out=a)
            a *= self.lr
            np.divide(v, c2, out=b)
            np.sqrt(b, out=b)
            b += ADAM_EPS
            a /= b
            self.data[part] -= a
        self.grad[lo:hi] = 0.0


def check_geometry(cfg: TrainConfig, shape: tuple) -> None:
    """Raise unless (height, width, channels) images fit ``cfg``'s tokens."""
    rows, cols = grid_shape(shape[0], shape[1], cfg.patch_size, cfg.interval)
    want = token_dim(cfg.encryption, cfg.patch_size, shape[2])
    if cfg.model.patch_dim != want:
        raise ConfigError(
            f"model patch_dim {cfg.model.patch_dim} does not match "
            f"{want} for encryption {cfg.encryption!r}"
        )
    # the class row, then one token per patch that drop_patches keeps
    n = rows * cols
    tokens = n - int(cfg.drop_ratio * n) + 1
    if cfg.model.positions and cfg.model.positions != tokens:
        raise ConfigError(
            f"model positions {cfg.model.positions} does not match the {tokens} "
            f"tokens of a {rows}x{cols} grid at drop_ratio {cfg.drop_ratio}"
        )


def train(cfg: TrainConfig, data: Dataset, checkpoint=None):
    """Train the classifier cfg.model describes; returns (params, history).

    Deterministic given cfg.seed: parameter init, epoch shuffles, and all
    encryption keys come from seeded streams. history holds one row per
    epoch with the mean loss and the running train accuracy.
    """
    n = data.train_x.shape[0]
    if n == 0:
        raise DataError("no training images")
    check_geometry(cfg, data.train_x.shape[1:])
    params = pevit.init_params(cfg.model, seed=cfg.seed)
    opt = Adam(params, lr=cfg.lr)
    key_rng = SplitMix64(cfg.seed)
    order_rng = np.random.default_rng(cfg.seed)
    history = []
    with np.errstate(over="ignore", invalid="ignore"):  # a DataError reports it
        for epoch in range(cfg.epochs):
            order = order_rng.permutation(n)
            total_loss = 0.0
            correct = 0
            for start in range(0, n, cfg.batch):
                batch = order[start : start + cfg.batch]
                for img_i in batch:
                    x = image_vectors(data.train_x[img_i], cfg, key_rng)
                    label = int(data.train_y[img_i])
                    logits = pevit.forward(params, cfg.model, x)
                    if pevit.top_class(logits.data) == label:
                        correct += 1
                    loss = cross_entropy(logits, label)
                    total_loss += float(loss.data)
                    backward(loss)
                if len(batch) > 1:  # step on the batch-mean gradient, tail included
                    opt.grad /= len(batch)
                opt.step()
            history.append({
                "epoch": epoch,
                "loss": total_loss / n,
                "accuracy": correct / n,
            })
    if checkpoint is not None:
        if not np.isfinite(opt.data).all():
            raise DataError("trained weights are not all finite; no checkpoint written")
        save_checkpoint(checkpoint, params)
    return params, history


def evaluate(params: dict, cfg: TrainConfig, images: np.ndarray,
             labels: np.ndarray, seed: int = 0) -> float:
    """Top-1 accuracy of ``predictions``; an empty split has no accuracy."""
    if images.shape[0] == 0:
        raise DataError("no images to evaluate; accuracy is undefined")
    correct = int((predictions(params, cfg, images, seed) == labels).sum())
    return correct / images.shape[0]


def predictions(params: dict, cfg: TrainConfig, images: np.ndarray,
                seed: int = 0) -> np.ndarray:
    """Predicted labels per image."""
    check_geometry(cfg, images.shape[1:])
    rng = SplitMix64(seed)
    out = np.empty(images.shape[0], dtype=np.int64)
    with np.errstate(over="ignore", invalid="ignore"):  # a DataError reports it
        for i in range(images.shape[0]):
            out[i] = pevit.predict(params, cfg.model, image_vectors(images[i], cfg, rng))
    return out


# --------------------------------------------------------------------------
# gradient leakage, end to end


def gradleak_demo(pixels: np.ndarray, patch_size: int, seed: int = 0) -> dict:
    """Recover a patch from a single-token training gradient.

    The image is RS-encrypted, one patch token is pushed through the full
    classifier, and the embedding-weight gradient (rank one: the token
    times the upstream gradient) is inverted by SVD. The recovered
    direction is the ciphertext's slot-0 patch, which under ``rs`` is the
    plaintext patch ``slot_source`` with its pixels intact: the shuffle
    hides where that patch was, not what it shows.
    """
    grid = split_patches(Image(pixels=pixels), patch_size, 0)
    key = gen_key(seed, grid.n_patches)
    enc = rs_encrypt(grid, key)
    x_cipher, x_plain = token_rows(enc)[0], token_rows(grid)[0]
    model_cfg = ModelConfig(patch_dim=x_cipher.size, dim=32, depth=2,
                            heads=2, ffn_dim=64, n_classes=10)
    params = pevit.init_params(model_cfg, seed=seed)
    loss = cross_entropy(pevit.forward(params, model_cfg, x_cipher[None, :]), 0)
    backward(loss)
    recovered = grad_leak_invert(params["embed.w"].grad)

    def corr(a, b):
        if np.std(a) == 0 or np.std(b) == 0:
            return 0.0
        return float(np.corrcoef(a, b)[0, 1])

    return {
        "recovered": recovered,
        "cipher_patch": x_cipher,
        "plain_patch": x_plain,
        "corr_cipher": corr(recovered, x_cipher) if recovered is not None else 0.0,
        "corr_plain": corr(recovered, x_plain) if recovered is not None else 0.0,
        "slot_source": int(key.perm[0]),
    }


# --------------------------------------------------------------------------
# privacy leakage


def white_marker_count(pixels: np.ndarray) -> int:
    """Exact template detector: number of all-white 8x8 windows."""
    h, w = pixels.shape[:2]
    if h < MARKER_SIZE or w < MARKER_SIZE:
        return 0
    win = np.lib.stride_tricks.sliding_window_view(
        pixels, (MARKER_SIZE, MARKER_SIZE), axis=(0, 1)
    )
    return int((win == 255).all(axis=(2, 3, 4)).sum())


def encrypt_pixels(pixels: np.ndarray, encryption: str, patch_size: int,
                   rng: SplitMix64) -> np.ndarray:
    """Encrypt and reassemble an image back to pixels (interval 0 only);
    mixed grids are exported through quantize_mixed."""
    grid = encrypt(split_patches(Image(pixels=pixels), patch_size, 0),
                   encryption, rng.next_u64)
    return assemble(quantize_mixed(grid)).pixels


def leakage_ratio(corpus, encryption: str, patch_size: int = 16,
                  seed: int = 0) -> float:
    """Marker detections (white_marker_count) in the encrypted corpus over
    those in the original corpus."""
    rng = SplitMix64(seed)
    base = 0
    enc = 0
    for pixels in corpus:
        base += white_marker_count(pixels)
        enc += white_marker_count(encrypt_pixels(pixels, encryption, patch_size, rng))
    if base == 0:
        raise DataError("no detections on the original corpus; ratio undefined")
    return enc / base


# --------------------------------------------------------------------------
# solver experiments and sweeps


def truth_for_key(key, rows: int, cols: int, *, holes=None) -> Arrangement:
    """Ground-truth arrangement of RS-shuffled patches.

    Position i of the encrypted patches holds original patch key.perm[i],
    whose true slot is its row-major position in the original grid.
    Positions marked in ``holes`` are left out.
    """
    if key.n != rows * cols:
        raise KeyMismatchError(f"key is for {key.n} patches, grid has {rows}x{cols}")
    kept = np.arange(key.n)
    if holes is not None:
        kept = kept[~np.asarray(holes, dtype=bool)]
    slots = np.full(rows * cols, -1, dtype=np.int64)
    slots[np.asarray(key.perm)[kept]] = kept
    return Arrangement(slots.reshape(rows, cols))


def solve_image(pixels: np.ndarray, patch_size: int, interval: int,
                drop_ratio: float, seed: int) -> dict:
    """Shuffle one image, run the jigsaw solver, score against the truth."""
    rng = SplitMix64(seed)
    grid = split_patches(Image(pixels=pixels), patch_size, interval)
    if drop_ratio > 0.0:
        grid = drop_patches(grid, drop_ratio, rng.next_u64())
    key = gen_key(rng.next_u64(), grid.n_patches)
    enc = rs_encrypt(grid, key)
    found = jigsaw_solve(enc.patches, grid.rows, grid.cols, holes=enc.holes)
    truth = truth_for_key(key, grid.rows, grid.cols, holes=enc.holes)
    return puzzle_metrics(found, truth)


def solve_corpus(corpus, patch_size: int, interval: int = 0,
                 drop_ratio: float = 0.0, seed: int = 0) -> dict:
    """Mean solver metrics over a corpus, one fresh key per image; an empty
    corpus has no mean."""
    rng = SplitMix64(seed)
    direct = []
    neighbor = []
    for pixels in corpus:
        m = solve_image(pixels, patch_size, interval, drop_ratio, rng.next_u64())
        direct.append(m["direct"])
        neighbor.append(m["neighbor"])
    if not direct:
        raise DataError("no images to solve; solver accuracy is undefined")
    return {
        "direct": float(np.mean(direct)),
        "neighbor": float(np.mean(neighbor)),
        "per_image_direct": direct,
        "per_image_neighbor": neighbor,
    }


@dataclass(frozen=True)
class SweepCell:
    patch_size: int
    interval: int = 0
    drop_ratio: float = 0.0
    image_size: int = 224

    def __post_init__(self):
        _check_drop_ratio(self.drop_ratio)
        _check_side(self.image_size)
        grid_shape(self.image_size, self.image_size, self.patch_size, self.interval)


# sweep CSV columns and their format specs, in order; the first four are
# the SweepCell fields
SWEEP_COLUMNS = (
    ("patch_size", ""), ("interval", ""), ("drop_ratio", "g"), ("image_size", ""),
    ("solver_direct", ".6f"), ("solver_neighbor", ".6f"), ("model_accuracy", ".6f"),
)
SWEEP_HEADER = ",".join(name for name, _ in SWEEP_COLUMNS)


def _cell_training(cell: SweepCell, spec: SynthSpec, base: TrainConfig) -> tuple:
    """(SynthSpec, TrainConfig) of the model trained for one sweep cell."""
    spec = dataclasses.replace(spec, image_size=cell.image_size)
    pdim = token_dim(base.encryption, cell.patch_size, 3)
    cfg = dataclasses.replace(
        base,
        patch_size=cell.patch_size,
        interval=cell.interval,
        drop_ratio=cell.drop_ratio,
        model=dataclasses.replace(base.model, patch_dim=pdim, n_classes=spec.classes),
    )
    return spec, cfg


def sweep(cells, seed: int = 0, corpus_size: int = 20, training: tuple | None = None) -> list:
    """Security-vs-granularity table: solver accuracy per cell, and model
    accuracy given ``training``, a (SynthSpec, TrainConfig) budget.

    Every cell's training settings are built, and so checked, before the
    first corpus."""
    cells = list(cells)
    budgets = [None if training is None else _cell_training(cell, *training)
               for cell in cells]
    rows = []
    for cell, budget in zip(cells, budgets):
        corpus = gen_puzzle_corpus(corpus_size, cell.image_size, seed=seed)
        solved = solve_corpus(corpus, cell.patch_size, cell.interval,
                              cell.drop_ratio, seed=seed)
        acc = float("nan")
        if budget is not None:
            spec, cfg = budget
            data = gen_dataset(spec)
            params, _ = train(cfg, data)
            acc = evaluate(params, cfg, data.test_x, data.test_y, seed=seed)
        values = dataclasses.astuple(cell) + (solved["direct"], solved["neighbor"], acc)
        rows.append(dict(zip((name for name, _ in SWEEP_COLUMNS), values)))
    return rows


def sweep_to_csv(rows) -> str:
    lines = [SWEEP_HEADER] + [
        ",".join(format(r[name], spec) for name, spec in SWEEP_COLUMNS) for r in rows
    ]
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# key=value config files


_BOOL = {"true": True, "false": False, "1": True, "0": False}


def parse_config_text(text: str) -> dict:
    """Line-based key=value parser; '#' starts a comment, blanks ignored."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def load_config(path) -> dict:
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file is not UTF-8: byte {raw[exc.start]:#04x} "
                          f"at offset {exc.start}") from None
    return parse_config_text(text)


# config-file key -> (dataclass, field); the key is section.field except
# for enc.mode, and a key left out keeps the field's default
_CONFIG_KEYS = {
    **{f"data.{name}": (SynthSpec, name) for name in (
        "image_size", "classes", "train_per_class", "test_per_class", "marker", "seed")},
    **{f"model.{name}": (ModelConfig, name) for name in (
        "dim", "depth", "heads", "ffn_dim", "rpe", "rpe_hidden")},
    **{f"train.{name}": (TrainConfig, name) for name in ("epochs", "batch", "lr", "seed")},
    **{f"enc.{name}": (TrainConfig, name) for name in ("patch_size", "interval", "drop_ratio")},
    "enc.mode": (TrainConfig, "encryption"),
}


def config_specs(d: dict) -> tuple:
    """Build (SynthSpec, TrainConfig) from a parsed key=value dict.

    Each value is converted with the type of its field's default. The model's
    patch_dim follows from enc.patch_size and enc.mode, n_classes from
    data.classes.
    """
    unknown = set(d) - set(_CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    kwargs = {SynthSpec: {}, ModelConfig: {}, TrainConfig: {}}
    for key, (cls, name) in _CONFIG_KEYS.items():
        value = getattr(cls, name)  # the field's default
        if key in d:
            raw = d[key]
            try:
                value = _BOOL[raw.lower()] if type(value) is bool else type(value)(raw)
                if type(value) is int and abs(value) >> 1024:
                    raise ValueError  # a check may print a product; str() stops at 4300 digits
            except (ValueError, KeyError):
                raise ConfigError(f"bad value for {key}: {raw!r}") from None
        kwargs[cls][name] = value
    spec = SynthSpec(**kwargs[SynthSpec])
    if spec.test_per_class == 0:  # train, eval and sweep all evaluate
        raise DataError("data.test_per_class = 0: no images to evaluate")
    train_kw = kwargs[TrainConfig]
    model = ModelConfig(
        patch_dim=token_dim(train_kw["encryption"], train_kw["patch_size"], 3),
        n_classes=spec.classes,
        **kwargs[ModelConfig],
    )
    return spec, TrainConfig(model=model, **train_kw)
