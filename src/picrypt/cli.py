"""Command-line front end: one verb per library workflow.

Exit codes: 0 success, 1 usage error, 2 data/format error (a PicryptError
or an OS error), 3 internal error (anything else). Diagnostics go to
stderr; results to stdout or to files.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from decimal import Decimal

import numpy as np

from . import attacks, cipher, harness, imgio, pevit, rng
from .errors import ConfigError, DataError, PicryptError
from .tensor import grad_check, load_checkpoint


# largest `keyspace --n`: 256x256 one-pixel patches (65536! has 287,194 digits)
MAX_KEYSPACE_N = 1 << 16


class _UsageError(Exception):
    pass


def _seed(text: str) -> int:
    return rng.check_seed(int(text), argparse.ArgumentTypeError)  # a usage error


def _list_of(kind):
    def parse(text: str) -> list:  # an argparse type, named in its errors
        return [kind(x) for x in text.split(",")]
    parse.__name__ = f"comma-separated {kind.__name__}"
    return parse


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; we need 1, and no SystemExit
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="picrypt", description=__doc__)
    sub = p.add_subparsers(dest="verb", metavar="verb")
    # flags several verbs share, each defined once
    image = argparse.ArgumentParser(add_help=False)
    image.add_argument("--in", dest="infile", required=True)
    image.add_argument("--patch", type=int, default=16)
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=_seed, default=0)

    enc = sub.add_parser("encrypt", parents=[image, seeded], help="encrypt a PPM/PGM image")
    enc.add_argument("--mode", required=True,
                     help="none|rs|mi|rs+mi|mi+rs|spn:<rounds>")
    enc.add_argument("--out", required=True)
    enc.add_argument("--key", help="write the permutation key here (rs only)")

    dec = sub.add_parser("decrypt", parents=[image],
                         help="invert an rs encryption with its key")
    dec.add_argument("--out", required=True)
    dec.add_argument("--key", required=True)

    ks = sub.add_parser("keyspace", help="count permutations of n patches")
    ks.add_argument("--n", type=int, required=True)

    jig = sub.add_parser("attack-jigsaw", parents=[image], help="solve a shuffled image")
    jig.add_argument("--interval", type=int, default=0)
    jig.add_argument("--key", help="encryption key file, for scoring")
    jig.add_argument("--out", help="write the arrangement here instead of stdout")

    sub.add_parser("attack-gradleak", parents=[image, seeded],
                   help="recover a patch from a single-token gradient")

    col = sub.add_parser("attack-collision", parents=[image, seeded],
                         help="construct colliding mixing preimages")
    col.add_argument("--row", type=int, default=0)
    col.add_argument("--col", type=int, default=0)
    col.add_argument("--amplitude", type=float, default=0.25)

    tr = sub.add_parser("train", help="train the classifier per a config file")
    tr.add_argument("--config", required=True)
    tr.add_argument("--out", required=True, help="checkpoint path")

    ev = sub.add_parser("eval", parents=[seeded],
                        help="evaluate a checkpoint per a config file")
    ev.add_argument("--config", required=True)
    ev.add_argument("--ckpt", required=True)

    lk = sub.add_parser("leakage", parents=[seeded], help="marker-detection leakage ratio")
    lk.add_argument("--mode", required=True)
    lk.add_argument("--patch", type=int, default=16)
    lk.add_argument("--images", type=int, default=50)
    lk.add_argument("--image-size", type=int, default=64, dest="image_size")

    sw = sub.add_parser("sweep", parents=[seeded], help="security-vs-granularity table")
    sw.add_argument("--patch", type=_list_of(int), default="16",
                    help="comma-separated patch sizes")
    sw.add_argument("--interval", type=_list_of(int), default="0",
                    help="comma-separated intervals")
    sw.add_argument("--drop", type=_list_of(float), default="0.0",
                    help="comma-separated drop ratios")
    sw.add_argument("--image-size", type=int, default=224, dest="image_size")
    sw.add_argument("--images", type=int, default=20)
    sw.add_argument("--train-config", dest="train_config",
                    help="config file enabling the model-accuracy column")
    sw.add_argument("--out", help="write CSV here instead of stdout")

    gc = sub.add_parser("gradcheck", parents=[seeded], help="finite-difference gradient audit")
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


def _write_out(text: str, path) -> None:
    """Write ``text`` to ``path``, or to stdout when no path is given."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


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
    _write_out(attacks.dump_arrangement(found, metrics), args.out)
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
    cells = [harness.SweepCell(patch_size=p, interval=i, drop_ratio=d, image_size=args.image_size)
             for p, i, d in itertools.product(args.patch, args.interval, args.drop)]
    training = (harness.config_specs(harness.load_config(args.train_config))
                if args.train_config else None)
    rows = harness.sweep(cells, seed=args.seed, corpus_size=args.images,
                         training=training)
    _write_out(harness.sweep_to_csv(rows), args.out)
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
    except SystemExit as e:
        # argparse --help exits 0; anything else is usage
        return 0 if e.code == 0 else 1
    except (_UsageError, PicryptError, OSError) as e:
        print(f"picrypt: {e}", file=sys.stderr)
        return 1 if isinstance(e, _UsageError) else 2
    except Exception as e:  # pragma: no cover - safety net
        print(f"picrypt: internal error: {e}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
