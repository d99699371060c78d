"""Command-line front end: bench, check, and model subcommands.

Wires the benchmark driver, the verification harness, and the speedup model
into scriptable experiments. Exit codes follow the usual CI contract: 0 when
everything passed, 1 when a run or check failed, 2 for usage errors (bad
flags or flag combinations) and for a refused replay, one whose operations
overlap on a key too much for the checker's state bound.

``cbst check`` makes one recorded stress run and decides it three ways: the
final tree's structure, the history's linearizability, and the history's
balance against the final contents. ``cbst check --history PATH`` replays a
saved history through the linearizability check instead.

Machine-readable output of bench and model goes to --out when given,
otherwise to stdout; their human summary table is printed only when --out
keeps stdout free. check always prints its verdicts, and --out also writes
them as a check,ok table.
"""

from __future__ import annotations

import argparse
import math
import statistics
import sys

from . import bench as bench_mod
from . import model as model_mod
from .core import POS_SENTINEL, check_mix
from .tree import CONCURRENT_VARIANTS, VARIANT_NAMES
from .verify import (
    History,
    HistoryFormatError,
    HistoryTooLargeError,
    StressConfig,
    check_balance,
    check_linearizable,
    check_structure,
    run_stress,
)

_PRESETS = {
    "paper-low": bench_mod.MIX_LOW,
    "paper-mid": bench_mod.MIX_MID,
}
_PRESET_BUCKETS = [10000, 100000]
_PRESET_THREADS = [1, 2, 4, 8, 16, 32]


def _at_least(minimum: int, at_most: float = math.inf):
    """An argparse type for an integer count or duration of at least
    ``minimum`` and at most ``at_most``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        if value > at_most:
            raise argparse.ArgumentTypeError(f"must be at most {at_most}, got {value}")
        return value

    return parse


def _positive_seconds(text: str) -> float:
    """An argparse type for a positive, finite number of seconds."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text!r}")
    return value


def _thread_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma-separated integer list, got {text!r}")
    if min(values) < 1:
        raise argparse.ArgumentTypeError(f"thread counts must be at least 1, got {text!r}")
    return values


def _mix(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("mix must be three numbers: insert,delete,search")
    try:
        mix = tuple(float(part) for part in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"mix values must be numeric, got {text!r}")
    try:
        check_mix(*mix)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{exc}, got {text!r}") from None
    return mix


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cbst",
        description="Concurrent BST benchmarks, correctness checks, and the speedup model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bench", help="run throughput benchmarks")
    b.add_argument("--variant", choices=VARIANT_NAMES, default=None,
                   help="tree variant to benchmark (default fem, or the preset grid)")
    b.add_argument("--threads", type=_thread_list, default=None, metavar="N,N,...",
                   help="thread counts to sweep (default 1)")
    b.add_argument("--duration-ms", type=_at_least(1), default=1000, metavar="MS")
    b.add_argument("--key-range", type=_at_least(2, POS_SENTINEL), default=None, metavar="N",
                   help="key range aka bucket size (default 10000)")
    b.add_argument("--mix", type=_mix, default=None, metavar="I,D,S",
                   help="insert,delete,search percentages (default 20,10,70)")
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--repeats", type=_at_least(1), default=3)
    b.add_argument("--warmup-ms", type=_at_least(0), default=500, metavar="MS")
    b.add_argument("--format", choices=("csv", "json"), default="csv")
    b.add_argument("--out", default=None, metavar="PATH")
    b.add_argument("--preset", choices=sorted(_PRESETS), default=None,
                   help="expand to the published experiment grid for this mix")

    c = sub.add_parser("check", help="stress-check a variant, or replay a history file")
    c.add_argument("--variant", choices=VARIANT_NAMES, default="fem")
    c.add_argument("--threads", type=_at_least(1), default=None,
                   help="worker threads (default 4; seq runs on 1)")
    c.add_argument("--ops", type=_at_least(0), default=1000, help="operations per thread")
    c.add_argument("--key-range", type=_at_least(1, POS_SENTINEL), default=64)
    c.add_argument("--mix", type=_mix, default=(20.0, 10.0, 70.0), metavar="I,D,S")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--timeout-s", type=_positive_seconds, default=30.0)
    c.add_argument("--history", default=None, metavar="PATH",
                   help="replay this history file instead of running a stress check")
    c.add_argument("--out", default=None, metavar="PATH")

    m = sub.add_parser("model", help="evaluate the speedup model")
    action = m.add_mutually_exclusive_group(required=True)
    action.add_argument("--eval", action="store_true", help="print concurrent speedup")
    action.add_argument("--curve-alpha", action="store_true", help="emit the alpha(t) curve")
    action.add_argument("--compare", action="store_true",
                        help="compare predictions against benchmark records")
    m.add_argument("--P", type=int, default=None, help="processor/thread count")
    m.add_argument("--c", type=float, default=None, help="contention rate")
    m.add_argument("--alpha", type=float, default=1.0)
    m.add_argument("--beta", type=float, default=1.0)
    m.add_argument("--ws-ratio", type=float, default=0.0, help="w_snapshot / w_p")
    m.add_argument("--wc-ratio", type=float, default=0.0, help="w_control / w_p")
    m.add_argument("--h", type=float, default=None, help="structure hardness, > 1")
    m.add_argument("--asymptote", type=float, default=None, help="alpha(t) asymptote")
    m.add_argument("--t-max", type=float, default=10.0)
    m.add_argument("--step", type=float, default=0.5)
    m.add_argument("--records", default=None, metavar="PATH", help="bench records (compare)")
    m.add_argument("--out", default=None, metavar="PATH")
    return parser


# -- bench -------------------------------------------------------------------


def _bench_grid(args, parser):
    """Resolve flags and preset into (variants, thread lists, buckets, mix)."""
    preset_mix = _PRESETS.get(args.preset) if args.preset else None
    mix = args.mix or preset_mix or (20.0, 10.0, 70.0)
    buckets = [args.key_range] if args.key_range else (
        _PRESET_BUCKETS if args.preset else [10000]
    )
    if args.variant:
        variants = [args.variant]
    elif args.preset:
        variants = list(CONCURRENT_VARIANTS) + ["seq"]
    else:
        variants = ["fem"]
    threads = args.threads or (_PRESET_THREADS if args.preset else [1])
    explicit_threads = args.threads is not None
    if "seq" in variants and explicit_threads and threads != [1]:
        parser.error("the seq variant is single-threaded; use --threads 1")
    return variants, threads, buckets, mix


def cmd_bench(args, parser) -> int:
    variants, threads, buckets, mix = _bench_grid(args, parser)
    records = []
    for key_range in buckets:
        workload = bench_mod.WorkloadSpec(mix[0], mix[1], mix[2], key_range)
        base = bench_mod.BenchConfig(
            variant="fem",
            threads=1,
            duration_ms=args.duration_ms,
            workload=workload,
            seed=args.seed,
            warmup_ms=args.warmup_ms,
        )
        for variant in variants:
            variant_threads = [1] if variant == "seq" else threads
            records.extend(
                bench_mod.sweep(base, variant_threads, [variant], repeats=args.repeats)
            )

    if args.out:
        if args.format == "json":
            bench_mod.write_json(records, args.out)
        else:
            bench_mod.write_csv(records, args.out)
        _print_bench_summary(records)
        print(f"{len(records)} records written to {args.out}")
    else:
        if args.format == "json":
            bench_mod.write_json(records, sys.stdout)
        else:
            bench_mod.write_csv(records, sys.stdout)
    return 0


def _print_bench_summary(records) -> None:
    groups: dict[tuple, list[float]] = {}
    conts: dict[tuple, list[float]] = {}
    for rec in records:
        key = (rec.variant, rec.threads, rec.key_range)
        groups.setdefault(key, []).append(rec.throughput_ops_s)
        conts.setdefault(key, []).append(rec.contention_rate)
    print(f"{'variant':<8} {'threads':>7} {'key_range':>9} {'median ops/s':>14} {'contention':>10}")
    for key in sorted(groups):
        variant, threads, key_range = key
        thr = statistics.median(groups[key])
        con = statistics.median(conts[key])
        print(f"{variant:<8} {threads:>7} {key_range:>9} {thr:>14,.0f} {con:>10.4f}")


# -- check -------------------------------------------------------------------


def _write_lines(path, lines) -> None:
    with open(path, "w", encoding="ascii") as fp:
        fp.write("\n".join(lines))
        fp.write("\n")


def _replay(path) -> int:
    try:
        history = History.load(path)
    except (OSError, HistoryFormatError) as exc:
        print(f"cannot load history: {exc}", file=sys.stderr)
        return 1
    try:
        ok = check_linearizable(history)
    except HistoryTooLargeError as exc:
        print(f"refusing replay: {exc}", file=sys.stderr)
        return 2
    print(f"linearizable: {'true' if ok else 'false'}")
    return 0 if ok else 1


def cmd_check(args, parser) -> int:
    if args.history is not None:
        return _replay(args.history)
    threads = args.threads or (1 if args.variant == "seq" else 4)
    if args.variant == "seq" and threads != 1:
        parser.error("the seq variant is single-threaded; use --threads 1")

    config = StressConfig(
        variant=args.variant,
        threads=threads,
        key_range=args.key_range,
        insert_pct=args.mix[0],
        delete_pct=args.mix[1],
        search_pct=args.mix[2],
        seed=args.seed,
        ops_per_thread=args.ops,
        timeout_s=args.timeout_s,
    )
    history, tree = run_stress(config)
    linearizable = check_linearizable(history)
    violations = {
        "structure": check_structure(tree).violations,
        "linearizable": [] if linearizable else ["the history is not linearizable"],
        "balance": check_balance(history, tree.collect_leaf_keys()),
    }
    for name, found in violations.items():
        print(f"{name}: {'VIOLATED' if found else 'ok'}")
    if args.out:
        _write_lines(args.out, ["check,ok"] + [
            f"{name},{str(not found).lower()}" for name, found in violations.items()
        ])
    failures = [v for found in violations.values() for v in found]
    if not failures:
        return 0
    print(f"first violation: {failures[0]}", file=sys.stderr)
    if not linearizable:
        print("\n".join(history.to_lines()), file=sys.stderr)
    return 1


# -- model -------------------------------------------------------------------


def cmd_model(args, parser) -> int:
    if args.eval:
        if args.P is None or args.c is None:
            parser.error("--eval requires --P and --c")
        params = model_mod.ModelParams(
            processors=args.P,
            contention=args.c,
            alpha=args.alpha,
            beta=args.beta,
            parallel_work=1.0,
            snapshot_work=args.ws_ratio,
            control_work=args.wc_ratio,
        )
        try:
            value = model_mod.concurrent_speedup(params)
        except model_mod.ModelDomainError as exc:
            print(str(exc), file=sys.stderr)
            return 1
        print(f"{value:g}")
        return 0

    if args.curve_alpha:
        if args.h is None or args.asymptote is None:
            parser.error("--curve-alpha requires --h and --asymptote")
        try:
            points = model_mod.alpha_curve(args.h, args.asymptote, args.t_max, args.step)
        except model_mod.ModelDomainError as exc:
            print(str(exc), file=sys.stderr)
            return 1
        lines = ["t,alpha"] + [f"{t:g},{alpha:.10g}" for t, alpha in points]
        if args.out:
            _write_lines(args.out, lines)
        else:
            print("\n".join(lines))
        return 0

    # compare
    if not args.records:
        parser.error("--compare requires --records")
    try:
        if args.records.endswith(".json"):
            records = bench_mod.read_json(args.records)
        else:
            records = bench_mod.read_csv(args.records)
    except (OSError, ValueError) as exc:
        print(f"cannot load records: {exc}", file=sys.stderr)
        return 1
    template = model_mod.ModelParams(
        processors=1,
        contention=0.0,
        alpha=args.alpha,
        beta=args.beta,
        parallel_work=1.0,
        snapshot_work=args.ws_ratio,
        control_work=args.wc_ratio,
    )
    try:
        rows = model_mod.predict_vs_measured(records, template)
    except (model_mod.ModelInputError, model_mod.ModelDomainError) as exc:
        print(str(exc), file=sys.stderr)
        return 1
    if args.out:
        model_mod.write_comparison_csv(rows, args.out)
        print(f"{'variant':<8} {'threads':>7} {'measured':>9} {'predicted':>9} {'ratio':>7}")
        for row in rows:
            print(
                f"{row.variant:<8} {row.threads:>7} {row.measured_speedup:>9.3f} "
                f"{row.predicted_speedup:>9.3f} {row.ratio:>7.3f}"
            )
    else:
        model_mod.write_comparison_csv(rows, sys.stdout)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "bench":
            return cmd_bench(args, parser)
        if args.command == "check":
            return cmd_check(args, parser)
        return cmd_model(args, parser)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
