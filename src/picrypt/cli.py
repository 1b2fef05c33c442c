"""Command-line front end: one verb per library workflow.

Exit codes: 0 success, 1 usage error, 2 data/format error, 3 internal
error. Diagnostics go to stderr; results to stdout or to files.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from decimal import Decimal

import numpy as np

from . import attacks, cipher, harness, imgio, pevit
from .errors import ConfigError, DataError, PicryptError
from .tensor import grad_check, load_checkpoint


# largest `keyspace --n`: 256x256 one-pixel patches (65536! has 287,194 digits)
MAX_KEYSPACE_N = 1 << 16


class _UsageError(Exception):
    pass


def _seed(text: str) -> int:
    # one range for every --seed: the seeds SplitMix64 and numpy both accept
    seed = int(text)
    if not 0 <= seed < 1 << 64:
        raise argparse.ArgumentTypeError(f"must be in [0, 2**64), got {seed}")
    return seed


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; we need 1, and no SystemExit
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="picrypt", description=__doc__)
    sub = p.add_subparsers(dest="verb", metavar="verb")

    enc = sub.add_parser("encrypt", help="encrypt a PPM/PGM image")
    enc.add_argument("--mode", required=True,
                     help="none|rs|mi|rs+mi|mi+rs|spn:<rounds>")
    enc.add_argument("--in", dest="infile", required=True)
    enc.add_argument("--out", required=True)
    enc.add_argument("--patch", type=int, default=16)
    enc.add_argument("--seed", type=_seed, default=0)
    enc.add_argument("--key", help="write the permutation key here (rs only)")

    dec = sub.add_parser("decrypt", help="invert an rs encryption with its key")
    dec.add_argument("--in", dest="infile", required=True)
    dec.add_argument("--out", required=True)
    dec.add_argument("--key", required=True)
    dec.add_argument("--patch", type=int, default=16)

    ks = sub.add_parser("keyspace", help="count permutations of n patches")
    ks.add_argument("--n", type=int, required=True)

    jig = sub.add_parser("attack-jigsaw", help="solve a shuffled image")
    jig.add_argument("--in", dest="infile", required=True)
    jig.add_argument("--patch", type=int, default=16)
    jig.add_argument("--interval", type=int, default=0)
    jig.add_argument("--key", help="encryption key file, for scoring")
    jig.add_argument("--out", help="write the arrangement here instead of stdout")

    gl = sub.add_parser("attack-gradleak",
                        help="recover a patch from a single-token gradient")
    gl.add_argument("--in", dest="infile", required=True)
    gl.add_argument("--patch", type=int, default=16)
    gl.add_argument("--seed", type=_seed, default=0)

    col = sub.add_parser("attack-collision",
                         help="construct colliding mixing preimages")
    col.add_argument("--in", dest="infile", required=True)
    col.add_argument("--patch", type=int, default=16)
    col.add_argument("--row", type=int, default=0)
    col.add_argument("--col", type=int, default=0)
    col.add_argument("--seed", type=_seed, default=0)
    col.add_argument("--amplitude", type=float, default=0.25)

    tr = sub.add_parser("train", help="train the classifier per a config file")
    tr.add_argument("--config", required=True)
    tr.add_argument("--out", required=True, help="checkpoint path")

    ev = sub.add_parser("eval", help="evaluate a checkpoint per a config file")
    ev.add_argument("--config", required=True)
    ev.add_argument("--ckpt", required=True)
    ev.add_argument("--seed", type=_seed, default=0)

    lk = sub.add_parser("leakage", help="marker-detection leakage ratio")
    lk.add_argument("--mode", required=True)
    lk.add_argument("--patch", type=int, default=16)
    lk.add_argument("--images", type=int, default=50)
    lk.add_argument("--image-size", type=int, default=64, dest="image_size")
    lk.add_argument("--seed", type=_seed, default=0)

    sw = sub.add_parser("sweep", help="security-vs-granularity table")
    sw.add_argument("--patch", default="16", help="comma-separated patch sizes")
    sw.add_argument("--interval", default="0", help="comma-separated intervals")
    sw.add_argument("--drop", default="0.0", help="comma-separated drop ratios")
    sw.add_argument("--image-size", type=int, default=224, dest="image_size")
    sw.add_argument("--images", type=int, default=20)
    sw.add_argument("--seed", type=_seed, default=0)
    sw.add_argument("--train-config", dest="train_config",
                    help="config file enabling the model-accuracy column")
    sw.add_argument("--out", help="write CSV here instead of stdout")

    gc = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    gc.add_argument("--seed", type=_seed, default=0)
    gc.add_argument("--entries", type=int, default=1000)

    return p


def _parse_mode(mode: str):
    try:
        return cipher.parse_mode(mode)
    except PicryptError as e:
        raise _UsageError(str(e)) from None


def _cmd_encrypt(args) -> int:
    kind, _ = _parse_mode(args.mode)
    if args.key and kind != "rs":
        raise _UsageError("--key is only meaningful with --mode rs")
    grid = imgio.split_patches(imgio.load_ppm(args.infile), args.patch, 0)
    # --seed is the key seed itself, not the seed of a key stream
    out = cipher.quantize_mixed(cipher.encrypt(grid, args.mode, lambda: args.seed))
    if args.key:
        cipher.save_key(cipher.gen_key(args.seed, grid.n_patches), args.key)
    imgio.save_ppm(imgio.assemble(out), args.out)
    return 0


def _cmd_decrypt(args) -> int:
    img = imgio.load_ppm(args.infile)
    key = cipher.load_key(args.key)
    grid = imgio.split_patches(img, args.patch, 0)
    imgio.save_ppm(imgio.assemble(cipher.rs_decrypt(grid, key)), args.out)
    return 0


def _cmd_keyspace(args) -> int:
    if not 0 <= args.n <= MAX_KEYSPACE_N:
        raise _UsageError(f"--n must be in 0..{MAX_KEYSPACE_N}")
    # from n = 1559, n! has more digits than str(int) allows by default
    # (4300); Decimal converts exactly without that limit
    print(Decimal(cipher.keyspace(args.n)))
    return 0


def _cmd_attack_jigsaw(args) -> int:
    img = imgio.load_ppm(args.infile)
    grid = imgio.split_patches(img, args.patch, args.interval)
    truth = None
    if args.key:  # checked before the solve: over a second at 3136 patches
        truth = harness.truth_for_key(cipher.load_key(args.key), grid.rows, grid.cols)
    found = attacks.jigsaw_solve(grid.patches, grid.rows, grid.cols)
    metrics = None if truth is None else attacks.puzzle_metrics(found, truth)
    text = attacks.dump_arrangement(found, metrics)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_attack_gradleak(args) -> int:
    img = imgio.load_ppm(args.infile)
    report = harness.gradleak_demo(img.pixels, args.patch, seed=args.seed)
    if report["recovered"] is None:
        print("recovered=none")
        return 0
    print(f"corr_cipher={report['corr_cipher']:.6f}")
    print(f"corr_plain={report['corr_plain']:.6f}")
    print(f"slot_source={report['slot_source']}")
    return 0


def _cmd_attack_collision(args) -> int:
    img = imgio.load_ppm(args.infile)
    grid = imgio.split_patches(img, args.patch, 0)
    mixed = cipher.mi_encrypt(grid)
    if not (0 <= args.row < mixed.rows and 0 <= args.col < mixed.cols):
        raise _UsageError(
            f"patch ({args.row}, {args.col}) outside {mixed.rows}x{mixed.cols}"
        )
    idx = args.row * mixed.cols + args.col
    target = mixed.patches[idx]
    pre = attacks.mi_collision(target, args.seed, amplitude=args.amplitude)
    err = float(np.abs(np.mean(pre, axis=0) - target).max())
    trivial = all(np.array_equal(s, target) for s in pre)
    print(f"preimages={len(pre)}")
    print(f"max_mean_abs_err={err:.3e}")
    print(f"distinct_from_trivial={'true' if not trivial else 'false'}")
    return 0


def _cmd_train(args) -> int:
    spec, cfg = harness.config_specs(harness.load_config(args.config))
    harness.check_geometry(cfg, (spec.image_size, spec.image_size, 3))
    data = harness.gen_dataset(spec)
    params, history = harness.train(cfg, data, checkpoint=args.out)
    for row in history:
        print(f"epoch={row['epoch']} loss={row['loss']:.6f} "
              f"accuracy={row['accuracy']:.6f}")
    acc = harness.evaluate(params, cfg, data.test_x, data.test_y, seed=cfg.seed)
    print(f"test_accuracy={acc:.6f}")
    return 0


def _check_checkpoint(params: dict, model: pevit.ModelConfig) -> None:
    """ConfigError unless ``params`` has exactly the names and shapes of
    the weights of ``model``."""
    want = {name: t.shape for name, t in pevit.init_params(model).items()}
    for name in sorted(set(want) | set(params)):
        if name not in params:
            raise ConfigError(f"checkpoint has no entry {name!r}")
        if name not in want:
            raise ConfigError(f"checkpoint entry {name!r} is not a weight of the model")
        if params[name].shape != want[name]:
            raise ConfigError(f"checkpoint entry {name!r} has shape "
                              f"{params[name].shape}, the model needs {want[name]}")


def _cmd_eval(args) -> int:
    spec, cfg = harness.config_specs(harness.load_config(args.config))
    harness.check_geometry(cfg, (spec.image_size, spec.image_size, 3))
    params = load_checkpoint(args.ckpt)
    _check_checkpoint(params, cfg.model)
    data = harness.gen_dataset(spec)
    acc = harness.evaluate(params, cfg, data.test_x, data.test_y, seed=args.seed)
    print(f"accuracy={acc:.6f}")
    return 0


def _cmd_leakage(args) -> int:
    _parse_mode(args.mode)
    if args.images < 1:
        raise DataError("--images must be >= 1: the ratio is undefined without images")
    per_class = max(1, -(-args.images // 10))
    spec = harness.SynthSpec(image_size=args.image_size, classes=10,
                             train_per_class=per_class, test_per_class=0,
                             marker=True, seed=args.seed)
    corpus = harness.gen_dataset(spec).train_x[: args.images]
    ratio = harness.leakage_ratio(corpus, args.mode, patch_size=args.patch,
                                  seed=args.seed)
    print(f"ratio={ratio:.6f}")
    return 0


def _cmd_sweep(args) -> int:
    try:
        patches = [int(x) for x in args.patch.split(",")]
        intervals = [int(x) for x in args.interval.split(",")]
        drops = [float(x) for x in args.drop.split(",")]
    except ValueError as e:
        raise _UsageError(f"bad sweep list: {e}") from None
    cells = [
        harness.SweepCell(patch_size=p, interval=i, drop_ratio=d,
                          image_size=args.image_size)
        for p, i, d in itertools.product(patches, intervals, drops)
    ]
    train_spec = train_base = None
    if args.train_config:
        train_spec, train_base = harness.config_specs(
            harness.load_config(args.train_config)
        )
    rows = harness.sweep(cells, seed=args.seed, corpus_size=args.images,
                         train_spec=train_spec, train_base=train_base)
    text = harness.sweep_to_csv(rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_gradcheck(args) -> int:
    if args.entries < 1:
        raise _UsageError(f"--entries must be >= 1, got {args.entries}")
    cfg = pevit.ModelConfig(patch_dim=12, dim=16, depth=2, heads=2,
                            ffn_dim=32, n_classes=4, rpe=True, rpe_hidden=8)
    params = pevit.init_params(cfg, seed=args.seed)
    rng = np.random.default_rng(args.seed)
    x = rng.uniform(0.0, 1.0, size=(5, cfg.patch_dim))

    report = grad_check(
        lambda p: pevit.loss_fn(p, cfg, x, 1),
        params,
        max_entries=args.entries,
        seed=args.seed,
    )
    print(f"max_rel_error={report.max_rel_error:.3e}")
    print(f"param={report.param}")
    print(f"index={report.index}")
    print(f"n_checked={report.n_checked}")
    print(f"passed={'true' if report.passed else 'false'}")
    return 0 if report.passed else 3


_COMMANDS = {
    "encrypt": _cmd_encrypt,
    "decrypt": _cmd_decrypt,
    "keyspace": _cmd_keyspace,
    "attack-jigsaw": _cmd_attack_jigsaw,
    "attack-gradleak": _cmd_attack_gradleak,
    "attack-collision": _cmd_attack_collision,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "leakage": _cmd_leakage,
    "sweep": _cmd_sweep,
    "gradcheck": _cmd_gradcheck,
}


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.verb is None:
            parser.print_usage(sys.stderr)
            return 1
        return _COMMANDS[args.verb](args)
    except _UsageError as e:
        print(f"picrypt: {e}", file=sys.stderr)
        return 1
    except SystemExit as e:
        # argparse --help exits 0; anything else is usage
        return 0 if e.code == 0 else 1
    except PicryptError as e:
        print(f"picrypt: {e}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as e:
        print(f"picrypt: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # pragma: no cover - safety net
        print(f"picrypt: internal error: {e}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
