"""picrypt benchmark: run one workload, or compare two sets of results.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train_rs64 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --compare before.jsonl after.jsonl

A run imports picrypt from ``src/`` of the checkout it lives in, builds the
workload's inputs from ``--seed``, measures for about ``--seconds`` seconds
and checks every output it times. The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
Each run also appends a record (machine info, seed, end-to-end numbers even
when traced, details) to ``--results``; a traced run writes its spans next
to it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> int:
    """Cap BLAS threads at the usable core count; must run before numpy loads."""
    cap = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if value.isdigit() and 0 < int(value) < cap:
            cap = int(value)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(cap)
    return cap


def machine_info(blas_threads: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads,
    }


def run(args) -> int:
    blas_threads = cap_blas_threads()
    import spans
    import workloads as wl

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    pins = json.loads((HERE / "pins.json").read_text(encoding="utf-8"))
    setup, measure = {
        "train_rs64": (wl.train_setup, wl.train_measure),
        "cipher224": (wl.cipher_setup, wl.cipher_measure),
        "jigsaw224": (wl.jigsaw_setup, wl.jigsaw_measure),
    }[args.workload]

    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        try:
            prog = wl.load_program(ROOT / "src")
        except ImportError as exc:
            print(f"cannot import the program: {exc}", file=sys.stderr)
            return 2
        state = setup(prog, args.seed)
        setup_times.append(time.perf_counter() - start)

    tracer = spans.Tracer() if args.trace else None
    counts = wl.instrument(prog, tracer) if tracer else None
    checks = wl.Checks()
    measured = measure(prog, state, args.seconds, checks, pins, tracer)
    if measured is None:
        print(f"{args.workload}: nothing measured; {checks.notes}", file=sys.stderr)
        return 1
    rates, detail = measured
    end_to_end = {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **rates,
    }
    if tracer:
        values = wl.layer_metrics(tracer, counts, detail)
        kind = "per_layer"
    else:
        values = end_to_end
        kind = "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in bench[kind]}
    result = {"correct": checks.failed == 0, "attempted": checks.attempted,
              "failed": checks.failed, "metrics": metrics}

    results = Path(args.results)
    results.parent.mkdir(parents=True, exist_ok=True)
    spans_path = None
    if tracer:
        spans_path = results.with_name(f"spans-{args.workload}-{args.seed}.json")
        tracer.dump(spans_path)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": bool(args.trace), "time": time.time(),
        "machine": machine_info(blas_threads), "setup_s_all": setup_times,
        "end_to_end": end_to_end, "detail": detail, "notes": checks.notes,
        "spans": str(spans_path) if spans_path else None, "result": result,
    }
    with open(results, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps({k: record[k] for k in ("machine", "detail", "notes")}))
    print(json.dumps(result))
    return 0


# --------------------------------------------------------------------------
# compare


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(old, new, better, bound):
    """Compare two samples of one metric by the benchmark's bound.

    A side whose quartile spread exceeds the bound makes the comparison
    unresolved, unless every new run beats every old run.
    """
    sign = 1.0 if better == "higher" else -1.0
    (a1, am, a3), (b1, bm, b3) = quartiles(old), quartiles(new)
    spread = max((a3 - a1) / am, (b3 - b1) / bm)
    if spread > bound:
        if all(sign * (y - x) > 0 for x in old for y in new):
            return "better"
        return "unresolved"
    gain = sign * (bm - am) / am
    if gain < -bound:
        return "worse"
    if gain > (a3 - a1) / am:
        return "better"
    return "unchanged"


def load_results(path):
    """{(workload, traced): [record, ...]} from a results file."""
    groups = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                groups.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    return groups


def fmt(values):
    q1, q2, q3 = quartiles(values)
    return f"{q2:.6g} [{q1:.6g}, {q3:.6g}] n={len(values)}"


def metric_values(records, kind, name):
    """One metric across records: the end-to-end numbers every run keeps,
    or the per-layer values of traced runs' results."""
    if kind == "per_layer":
        return [r["result"]["metrics"][name]["value"] for r in records]
    return [r["end_to_end"][name] for r in records]


def compare(old_path, new_path) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    old, new = load_results(old_path), load_results(new_path)
    workloads = sorted({w for w, _ in old} | {w for w, _ in new})
    print("workload | metric | old median [q1, q3] | new median [q1, q3] | change | verdict")
    for w in workloads:
        for kind, traced in (("end_to_end", False), ("per_layer", True)):
            if (w, traced) not in old or (w, traced) not in new:
                continue
            for m in bench[kind]:
                a = metric_values(old[(w, traced)], kind, m["name"])
                b = metric_values(new[(w, traced)], kind, m["name"])
                am = statistics.median(a)
                change = f"{(statistics.median(b) - am) / am:+.1%}" if am else "-"
                judged = verdict(a, b, m["better"], m["bound"]) if "bound" in m else "-"
                print(f"{w} | {m['name']} | {fmt(a)} | {fmt(b)} | {change} | {judged}")
    print()
    print("tracing overhead: traced end-to-end median over untraced median")
    for label, groups in (("old", old), ("new", new)):
        for w in workloads:
            if (w, True) not in groups or (w, False) not in groups:
                continue
            for m in bench["end_to_end"]:
                plain = statistics.median(metric_values(groups[(w, False)], "end_to_end", m["name"]))
                traced = statistics.median(metric_values(groups[(w, True)], "end_to_end", m["name"]))
                print(f"{label} | {w} | {m['name']} | untraced {plain:.6g} | "
                      f"traced {traced:.6g} | {(traced - plain) / plain:+.1%}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=("train_rs64", "cipher224", "jigsaw224"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", default=str(ROOT / ".perfbench" / "results.jsonl"))
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required unless --compare is given")
    if not 0 <= args.seed < 1 << 62:
        parser.error("--seed must be in [0, 2**62)")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
