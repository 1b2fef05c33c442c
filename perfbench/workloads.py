"""The three picrypt workloads: setup, timed measurement and output checks.

Every workload drives the program only through public functions of its
modules, called from here. ``*_setup`` builds the inputs from the workload
seed; ``*_measure`` times the work for about ``seconds`` seconds (training
runs a fixed budget instead), checks every output it times, and returns
end-to-end rates plus details. For a traced run
``instrument`` wraps the program first, and ``layer_metrics`` turns the spans
into the per-layer numbers.

``cipher224`` and ``jigsaw224`` draw their images by seed from a pool of
``POOL_SIZE`` corpus images whose outputs at this commit are pinned in
``pins.json``, so every output is checked exactly, whatever the seed.
"""

from __future__ import annotations

import hashlib
import importlib
import itertools
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import numpy as np

MODULES = ("tensor", "pevit", "harness", "cipher", "imgio", "rng", "attacks")

POOL_SIZE = 64
IMAGE_SIZE = 224
CIPHER_PATCH = 16
CIPHER_MODES = ("rs", "mi", "rs+mi", "mi+rs", "spn:4")
# (patch size, interval, drop ratio): the criterion-8 cells at P=16 (196
# patches before gaps and drops), then P=8 (784 patches)
JIGSAW_CELLS = tuple(
    (16, interval, drop) for interval in (0, 1, 2) for drop in (0.0, 0.1, 0.2)
) + ((8, 0, 0.0),)

TRAIN_EPOCHS = 10
ACCURACY_GATE = 0.9
EVAL_PASSES = 4  # prediction passes before training, and again after it
TRAIN_WINDOW = 100  # training samples per timed window

clock = time.perf_counter


def load_program(src: Path) -> SimpleNamespace:
    """Import picrypt afresh from ``src`` and return its modules.

    Earlier imports are dropped first, so every call pays the full import.
    A picrypt found anywhere but ``src`` is refused.
    """
    for name in [n for n in sys.modules if n == "picrypt" or n.startswith("picrypt.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    pkg = importlib.import_module("picrypt")
    where = Path(pkg.__file__).resolve().parent
    if where != (src / "picrypt").resolve():
        raise ImportError(f"picrypt imported from {where}, not from {src}")
    return SimpleNamespace(
        package=pkg,
        **{m: importlib.import_module(f"picrypt.{m}") for m in MODULES},
    )


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def pool_image(prog, index: int) -> np.ndarray:
    return prog.harness.gen_puzzle_corpus(1, IMAGE_SIZE, seed=index)[0]


def item_seed(index: int, k: int) -> int:
    """Key seed of pool image ``index`` in cipher mode or jigsaw cell ``k``."""
    return (index << 8) | k


def cell_name(cell) -> str:
    patch, interval, drop = cell
    return f"p{patch}.i{interval}.d{drop:g}"


def percentile(values, q):
    """Nearest-rank percentile, ``q`` in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


class Checks:
    """Counts operations attempted and failed; keeps the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def expect(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self._fail(what)

    def error(self, what: str):
        """Count an operation that raised; call from an ``except`` block."""
        self.attempted += 1
        self._fail(f"{what}: {traceback.format_exc(limit=3)}")

    def _fail(self, what: str):
        self.failed += 1
        if len(self.notes) < 5:
            self.notes.append(what)


# --------------------------------------------------------------------------
# train_rs64: main = training samples/s, aux = eval images/s


def train_setup(prog, seed):
    h = prog.harness
    spec = h.SynthSpec(image_size=64, classes=10, train_per_class=30,
                       test_per_class=10, seed=seed)
    data = h.gen_dataset(spec)
    model = prog.pevit.ModelConfig(patch_dim=16 * 16 * 3, dim=64, depth=4,
                                   heads=4, ffn_dim=256, n_classes=10)
    cfg = h.TrainConfig(model=model, epochs=TRAIN_EPOCHS, encryption="rs",
                        patch_size=16, seed=seed)
    initial = prog.pevit.init_params(model, seed=seed)
    shuffle_seeds = np.random.default_rng(seed).integers(1 << 62, size=2 * EVAL_PASSES)
    return SimpleNamespace(data=data, cfg=cfg, initial=initial,
                           shuffle_seeds=shuffle_seeds)


def predict_pass(prog, params, cfg, images, seed, times, checks) -> list:
    """Encrypt+flatten and predict every image under one shuffle seed;
    appends each image's time to ``times[i]``. A failed image reads -1."""
    rng = prog.rng.SplitMix64(seed)
    labels = []
    for i, pixels in enumerate(images):
        t = clock()
        try:
            x = prog.harness.image_vectors(pixels, cfg, rng)
            labels.append(prog.pevit.predict(params, cfg.model, x))
        except Exception:
            checks.error(f"predict test image {i}")
            labels.append(-1)
            continue
        times[i].append(clock() - t)
    return labels


def train_timed(prog, cfg, data):
    """``harness.train`` with a timestamp per training sample.

    The stamps come from the ``harness.image_vectors`` calls, one per
    sample; if the calls do not match the samples, only the whole budget is
    timed and the stamp list is empty."""
    h = prog.harness
    vectors = h.image_vectors
    stamps = []

    def stamped(*args, **kwargs):
        stamps.append(clock())
        return vectors(*args, **kwargs)

    h.image_vectors = stamped
    start = clock()
    try:
        params, _ = h.train(cfg, data)
    finally:
        h.image_vectors = vectors
    stamps.append(clock())
    train_s = stamps[-1] - start
    if len(stamps) != cfg.epochs * len(data.train_y) + 1:
        stamps = []
    return params, train_s, stamps


def train_measure(prog, state, seconds, checks, pins, tracer=None):
    """Predict the test split in passes before training, with the initial
    parameters, then train for the fixed budget, then predict again in
    passes under fresh shuffle seeds, checking accuracy and that the
    predictions never change with the shuffle.

    Prediction cost does not depend on the weights, so the passes before
    training time the same work. Both rates are taken at the fastest repeat
    (window of ``TRAIN_WINDOW`` training samples; pass of an image, median
    over images), which the host's slow phases rarely reach."""
    data, cfg = state.data, state.cfg
    seeds = (int(s) for s in state.shuffle_seeds)
    eval_times = [[] for _ in data.test_y]
    for _ in range(EVAL_PASSES):
        predict_pass(prog, state.initial, cfg, data.test_x, next(seeds), eval_times, checks)
    try:
        params, train_s, stamps = train_timed(prog, cfg, data)
    except Exception:
        checks.error("train")
        return None
    first = predict_pass(prog, params, cfg, data.test_x, next(seeds), eval_times, checks)
    accuracy = float(np.mean(np.asarray(first) == data.test_y))
    checks.expect(accuracy >= ACCURACY_GATE,
                  f"test accuracy {accuracy:.3f} below {ACCURACY_GATE}")
    for _ in range(EVAL_PASSES - 1):
        labels = predict_pass(prog, params, cfg, data.test_x, next(seeds), eval_times, checks)
        for i, (a, b) in enumerate(zip(first, labels)):
            checks.expect(a == b, f"test image {i}: prediction changed with the shuffle")
    if not all(eval_times):
        return None
    n = len(data.train_y)
    windows = [b - a for a, b in zip(stamps[::TRAIN_WINDOW], stamps[TRAIN_WINDOW::TRAIN_WINDOW])]
    return {
        "main_per_s": TRAIN_WINDOW / min(windows) if windows else cfg.epochs * n / train_s,
        "aux_per_s": 1.0 / statistics.median(min(v) for v in eval_times),
    }, {
        "train_s": train_s,
        "epoch_s": [b - a for a, b in zip(stamps[::n], stamps[n::n])],
        "test_accuracy": accuracy,
        "eval_ms_p50": 1e3 * statistics.median(t for v in eval_times for t in v),
    }


# --------------------------------------------------------------------------
# cipher224: main = images/s through all five modes, aux = rs decrypts/s


def cipher_setup(prog, seed):
    picks = np.random.default_rng(seed).choice(POOL_SIZE, size=16, replace=False)
    return [(int(i), pool_image(prog, int(i))) for i in picks]


def rs_key(prog, index: int):
    """The key ``encrypt_pixels`` draws for the rs mode of pool image ``index``."""
    seed = prog.rng.SplitMix64(item_seed(index, 0)).next_u64()
    return prog.cipher.gen_key(seed, (IMAGE_SIZE // CIPHER_PATCH) ** 2)


def key_digest(key) -> str:
    return digest(np.asarray(key.perm, dtype="<i8").tobytes())


def cipher_measure(prog, images, seconds, checks, pins, tracer=None):
    """Each image through split -> encrypt -> (quantize) -> assemble in every
    mode, then its rs ciphertext through split -> decrypt -> assemble.

    The images are cycled for ``seconds``, so each is timed many times,
    spread over the run; a rate is taken at the median over images of each
    image's fastest pass, which the host's slow phases rarely reach."""
    imgio = prog.imgio
    image_times = {index: [] for index, _ in images}
    dec_times = {index: [] for index, _ in images}
    mode_times = {m: [] for m in CIPHER_MODES}
    start = clock()
    for index, pixels in itertools.cycle(images):
        pin = pins["cipher"][str(index)]
        outputs = {}
        for k, mode in enumerate(CIPHER_MODES):
            rng = prog.rng.SplitMix64(item_seed(index, k))
            t = clock()
            try:
                outputs[mode] = prog.harness.encrypt_pixels(pixels, mode, CIPHER_PATCH, rng)
            except Exception:
                checks.error(f"pool image {index} {mode}")
                continue
            mode_times[mode].append(clock() - t)
            checks.expect(digest(outputs[mode].tobytes()) == pin[mode],
                          f"pool image {index} {mode}: ciphertext differs from the pin")
        if len(outputs) == len(CIPHER_MODES):
            image_times[index].append(sum(v[-1] for v in mode_times.values()))

        if "rs" in outputs:
            try:
                key = rs_key(prog, index)
                checks.expect(key_digest(key) == pin["key"],
                              f"pool image {index}: key differs from the pin")
                t = clock()
                grid = imgio.split_patches(imgio.Image(pixels=outputs["rs"]), CIPHER_PATCH)
                plain = imgio.assemble(prog.cipher.rs_decrypt(grid, key)).pixels
                dec_times[index].append(clock() - t)
                checks.expect(np.array_equal(plain, pixels),
                              f"pool image {index}: rs decrypt is not the plaintext")
            except Exception:
                checks.error(f"pool image {index} decrypt")
        if clock() - start >= seconds:
            break
    if not all(image_times.values()) or not all(dec_times.values()):
        return None
    every_image = [t for v in image_times.values() for t in v]
    return {
        "main_per_s": 1.0 / statistics.median(min(v) for v in image_times.values()),
        "aux_per_s": 1.0 / statistics.median(min(v) for v in dec_times.values()),
    }, {
        "images": len(every_image),
        "image_ms_p50": 1e3 * statistics.median(every_image),
        "image_ms_p90": 1e3 * percentile(every_image, 90),
        "mode_ms_p50": {m: 1e3 * statistics.median(v) for m, v in mode_times.items()},
        "decrypt_ms_p50": 1e3 * statistics.median(t for v in dec_times.values() for t in v),
    }


# --------------------------------------------------------------------------
# jigsaw224: main = P=16 solves/s, aux = P=8 solves/s


def jigsaw_setup(prog, seed):
    order = np.random.default_rng(seed).permutation(POOL_SIZE)
    small = [(int(i), pool_image(prog, int(i))) for i in order[:2]]
    large = [(int(i), pool_image(prog, int(i))) for i in order[2:3]]
    return small, large


def solve_cell(prog, pixels, index: int, c: int):
    """``harness.solve_image`` on one pool image and cell.

    Returns the solver's metrics and the arrangement it found, taken from
    the ``jigsaw_solve`` call that ``solve_image`` makes (None if it made
    none through that name).
    """
    h = prog.harness
    solve = h.jigsaw_solve
    found = []

    def capturing_solve(*args, **kwargs):
        found.append(solve(*args, **kwargs))
        return found[-1]

    h.jigsaw_solve = capturing_solve
    try:
        m = h.solve_image(pixels, *JIGSAW_CELLS[c], item_seed(index, c))
    finally:
        h.jigsaw_solve = solve
    return m, found[0] if found else None


def arrangement_digest(prog, arrangement) -> str:
    if arrangement is None:
        return ""
    return digest(prog.attacks.dump_arrangement(arrangement).encode())


def jigsaw_measure(prog, state, seconds, checks, pins, tracer=None):
    """Alternate P=16 rounds (the nine cells on one image) and P=8 rounds
    (one solve), spending about a third of the time on the first and two
    thirds on the second.

    Two P=16 images and one P=8 image are cycled, so each is solved several
    times over the run; a rate is the cells of a round over the median over
    images of each image's fastest round, which the host's slow phases
    rarely reach."""
    cells = {"n196": [c for c, cell in enumerate(JIGSAW_CELLS) if cell[0] == 16],
             "n784": [c for c, cell in enumerate(JIGSAW_CELLS) if cell[0] == 8]}
    images = {"n196": itertools.cycle(state[0]), "n784": itertools.cycle(state[1])}
    times = {"n196": [], "n784": []}
    cell_times = {cell_name(cell): [] for cell in JIGSAW_CELLS}
    rounds = {g: {index: [] for index, _ in imgs} for g, imgs in zip(cells, state)}
    scores = {"n196": [], "n784": []}
    start = clock()
    while clock() - start < seconds or not (all(times.values()) or checks.failed):
        group = "n784" if sum(times["n784"]) < 2 * sum(times["n196"]) else "n196"
        index, pixels = next(images[group])
        if tracer is not None:
            tracer.group = group
        round_s = []
        for c in cells[group]:
            name = cell_name(JIGSAW_CELLS[c])
            t = clock()
            try:
                m, arrangement = solve_cell(prog, pixels, index, c)
            except Exception:
                checks.error(f"pool image {index} {name}")
                break
            round_s.append(clock() - t)
            cell_times[name].append(round_s[-1])
            scores[group].append((m["direct"], m["neighbor"]))
            found = [arrangement_digest(prog, arrangement), m["direct"], m["neighbor"]]
            checks.expect(found == pins["jigsaw"][str(index)][name],
                          f"pool image {index} {name}: solve differs from the pin")
        times[group] += round_s
        if len(round_s) == len(cells[group]):
            rounds[group][index].append(sum(round_s))
    if tracer is not None:
        tracer.group = ""
    best = {g: [min(v) for v in r.values() if v] for g, r in rounds.items()}
    if not all(best.values()):
        return None
    return {
        "main_per_s": len(cells["n196"]) / statistics.median(best["n196"]),
        "aux_per_s": len(cells["n784"]) / statistics.median(best["n784"]),
    }, {
        "rounds": {g: [len(v) for v in r.values()] for g, r in rounds.items()},
        "solves": {g: len(v) for g, v in times.items()},
        "solve_s_n196_p50": statistics.median(times["n196"]),
        "solve_s_n196_p90": percentile(times["n196"], 90),
        "solve_s_n784_p50": statistics.median(times["n784"]),
        "cell_s_p50": {k: statistics.median(v) for k, v in cell_times.items() if v},
        "scores": {g: np.mean(v, axis=0).tolist() for g, v in scores.items()},
    }


# --------------------------------------------------------------------------
# traced run

# (owner, attribute, span name); wrapped at every binding in the package
TRACED = (
    ("tensor", "backward", "tensor.backward"),
    ("tensor", "cross_entropy", "tensor.cross_entropy"),
    ("tensor", "layer_norm", "tensor.layer_norm"),
    ("tensor", "gelu", "tensor.gelu"),
    ("pevit", "forward", "pevit.forward"),
    ("pevit", "predict", "pevit.predict"),
    ("pevit", "encoder_block", "pevit.encoder_block"),
    ("pevit", "msa", "pevit.msa"),
    ("harness", "image_vectors", "harness.image_vectors"),
    ("harness.Adam", "step", "harness.adam_step"),
    ("imgio", "split_patches", "imgio.split_patches"),
    ("imgio", "assemble", "imgio.assemble"),
    ("cipher", "gen_key", "rng.gen_key"),
    ("cipher", "rs_encrypt", "cipher.rs_encrypt"),
    ("cipher", "rs_decrypt", "cipher.rs_decrypt"),
    ("cipher", "mi_encrypt", "cipher.mi_encrypt"),
    ("cipher", "spn_encrypt", "cipher.spn_encrypt"),
    ("cipher", "quantize_mixed", "cipher.quantize_mixed"),
    ("cipher", "drop_patches", "cipher.drop_patches"),
    ("attacks", "jigsaw_solve", "attacks.jigsaw_solve"),
    ("attacks", "puzzle_metrics", "attacks.puzzle_metrics"),
)

# (metric, span, time kind, scale): mean time per call. Self time leaves out
# wrapped callees; the whole forward pass, prediction and encrypt+flatten
# step are reported inclusive.
LAYER_TIMES = (
    ("harness.adam_step_ms", "harness.adam_step", "self", 1e3),
    ("tensor.backward_ms", "tensor.backward", "self", 1e3),
    ("tensor.cross_entropy_ms", "tensor.cross_entropy", "self", 1e3),
    ("pevit.forward_ms", "pevit.forward", "incl", 1e3),
    ("pevit.msa_ms", "pevit.msa", "self", 1e3),
    ("pevit.encoder_block_ms", "pevit.encoder_block", "self", 1e3),
    ("tensor.layer_norm_ms", "tensor.layer_norm", "self", 1e3),
    ("tensor.gelu_ms", "tensor.gelu", "self", 1e3),
    ("harness.image_vectors_ms", "harness.image_vectors", "incl", 1e3),
    ("pevit.predict_ms", "pevit.predict", "incl", 1e3),
    ("imgio.split_patches_ms", "imgio.split_patches", "self", 1e3),
    ("imgio.assemble_ms", "imgio.assemble", "self", 1e3),
    ("rng.gen_key_ms.n196", "rng.gen_key.n196", "self", 1e3),
    ("rng.gen_key_ms.n784", "rng.gen_key.n784", "self", 1e3),
    ("cipher.rs_encrypt_ms", "cipher.rs_encrypt", "self", 1e3),
    ("cipher.rs_decrypt_ms", "cipher.rs_decrypt", "self", 1e3),
    ("cipher.mi_encrypt_ms", "cipher.mi_encrypt", "self", 1e3),
    ("cipher.spn_encrypt_ms", "cipher.spn_encrypt", "self", 1e3),
    ("cipher.quantize_mixed_ms", "cipher.quantize_mixed", "self", 1e3),
    ("cipher.drop_patches_ms", "cipher.drop_patches", "self", 1e3),
    ("attacks.jigsaw_solve_s.n196", "attacks.jigsaw_solve@n196", "self", 1.0),
    ("attacks.jigsaw_solve_s.n784", "attacks.jigsaw_solve@n784", "self", 1.0),
    ("attacks.puzzle_metrics_ms", "attacks.puzzle_metrics", "self", 1e3),
)


def _key_size(args, kwargs) -> str:
    return f".n{kwargs['n'] if 'n' in kwargs else args[1]}"


def _moment_arrays(opt) -> int:
    """Arrays in the optimizer's first-moment state: the arrays it loops over."""
    m = getattr(opt, "m", None)
    if isinstance(m, np.ndarray):
        return 1
    return len(m) if isinstance(m, (dict, list, tuple)) else 0


def instrument(prog, tracer):
    """Wrap the traced functions, and count Tensors built and the optimizer's
    arrays at every ``Adam.step``. Returns the counters."""
    modules = [prog.package] + [getattr(prog, m) for m in MODULES]
    counts = {"tensors": 0, "at_step": [], "moment_arrays": [], "missing": []}
    for owner_path, attr, name in TRACED:
        owner = prog
        for part in owner_path.split("."):
            owner = getattr(owner, part, None)
        if owner is None or not callable(getattr(owner, attr, None)):
            counts["missing"].append(f"{owner_path}.{attr}")
            continue
        tracer.install(modules, owner, attr, name,
                       _key_size if name == "rng.gen_key" else None)

    tensor_cls, adam_cls = prog.tensor.Tensor, prog.harness.Adam
    init, step = tensor_cls.__init__, adam_cls.step

    def counting_init(self, *args, **kwargs):
        counts["tensors"] += 1
        init(self, *args, **kwargs)

    def counting_step(opt, *args, **kwargs):
        counts["at_step"].append(counts["tensors"])
        counts["moment_arrays"].append(_moment_arrays(opt))
        return step(opt, *args, **kwargs)

    tensor_cls.__init__ = counting_init
    adam_cls.step = counting_step
    return counts


def layer_metrics(tracer, counts, detail) -> dict:
    """Per-layer numbers of a traced run; layers a workload never calls read 0."""
    stats = tracer.stats()
    out = {}
    for metric, span, kind, scale in LAYER_TIMES:
        row = stats.get(span)
        out[metric] = scale * row[kind] / row["calls"] if row else 0.0
    per_step = np.diff(counts["at_step"]).tolist()
    out["tensor.nodes_per_step"] = int(statistics.median(per_step)) if per_step else 0
    arrays = counts["moment_arrays"]
    out["harness.param_tensors"] = int(statistics.median(arrays)) if arrays else 0
    for group, (direct, neighbor) in detail.get("scores", {}).items():
        out[f"attacks.direct_acc.{group}"] = direct
        out[f"attacks.neighbor_acc.{group}"] = neighbor
    for group in ("n196", "n784"):
        out.setdefault(f"attacks.direct_acc.{group}", 0.0)
        out.setdefault(f"attacks.neighbor_acc.{group}", 0.0)
    detail["trace"] = {
        "spans": len(tracer.spans),
        "missing": counts["missing"],
        "nodes_per_step_values": sorted(set(per_step)),
        "param_tensors_values": sorted(set(arrays)),
        "calls": {name: row["calls"] for name, row in stats.items() if "@" not in name},
    }
    return out
