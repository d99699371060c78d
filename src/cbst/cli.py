"""Command-line front end: bench, check, and model subcommands.

Wires the benchmark driver, the verification harness, and the speedup model
into scriptable experiments. Exit codes follow the usual CI contract: 0 when
everything passed, 1 when a run or check failed, 2 for usage errors (bad
flags or flag combinations).

``cbst check`` makes one recorded stress run and decides it two ways: the
final tree's structure, and the history's linearizability ending at the
final contents. ``cbst check --history PATH`` replays a saved history
through the linearizability check instead, and reports its one verdict the
same way.

Machine-readable output goes to --out when given, otherwise to stdout:
bench records and every model action (the --eval value, the --curve-alpha
CSV and the --compare CSV). bench and --compare print a human summary
table only when --out keeps stdout free. check always prints its verdicts
and how many operations overlap another thread's, and --out also writes the
verdicts as a check,ok table. bench and check open --out before their sweep
or stress run. A model input out of range, an unusable set of records or an
--out path that cannot be opened prints one ``error: ...`` line to stderr
and exits 1.
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
    IncompleteHistoryError,
    StressConfig,
    _first_violation,
    check_structure,
    count_overlapping,
    run_stress,
)

_PRESETS = {
    "paper-low": bench_mod.MIX_LOW,
    "paper-mid": bench_mod.MIX_MID,
}
_PRESET_BUCKETS = [10000, 100000]
# bench prefills key_range // 2 keys, so it caps the range at 10x the largest preset.
_MAX_KEY_RANGE = 10 * max(_PRESET_BUCKETS)
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
    b.add_argument("--key-range", type=_at_least(2, _MAX_KEY_RANGE), default=None, metavar="N",
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


def _out(args):
    """The machine-readable output stream: the --out file when it is given,
    otherwise stdout. Commands enter it before their work, so a path that
    cannot be opened fails before a sweep or a stress run is spent."""
    return bench_mod.open_text(args.out or sys.stdout, "w")


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
    with _out(args) as out:
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
        write = bench_mod.write_json if args.format == "json" else bench_mod.write_csv
        write(records, out)
    if args.out:
        _print_bench_summary(records)
        print(f"{len(records)} records written to {args.out}")
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


def _report(args, out, history: History, violations: dict[str, list[str]]) -> int:
    """Print one ``name: ok|VIOLATED`` line per check and one line saying
    how many of the history's operations overlap another thread's, write
    the verdicts to --out as a check,ok table, and print the first
    violation to stderr. Returns the exit code: 0 when every check passed."""
    for name, found in violations.items():
        print(f"{name}: {'VIOLATED' if found else 'ok'}")
    total = len(history.operations())
    overlapping = count_overlapping(history)
    share = overlapping / total if total else 0.0
    print(f"overlap: {overlapping} of {total} operations ({share:.1%}) "
          f"overlap another thread's")
    if args.out:
        rows = [f"{name},{str(not found).lower()}" for name, found in violations.items()]
        print("check,ok", *rows, sep="\n", file=out)
    failures = [v for found in violations.values() for v in found]
    if not failures:
        return 0
    print(f"first violation: {failures[0]}", file=sys.stderr)
    return 1


def _replay(args) -> int:
    try:
        history = History.load(args.history)
    except (OSError, HistoryFormatError, IncompleteHistoryError) as exc:
        print(f"cannot load history: {exc}", file=sys.stderr)
        return 1
    violation = _first_violation(history)
    with _out(args) as out:
        verdicts = {"linearizable": [] if violation is None else [violation]}
        return _report(args, out, history, verdicts)


def cmd_check(args, parser) -> int:
    if args.history is not None:
        return _replay(args)
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
    with _out(args) as out:
        history, tree = run_stress(config)
        violation = _first_violation(history, tree.collect_leaf_keys())
        code = _report(args, out, history, {
            "structure": check_structure(tree).violations,
            "linearizable": [] if violation is None else [violation],
        })
    if violation is not None:
        print("\n".join(history.to_lines()), file=sys.stderr)
    return code


# -- model -------------------------------------------------------------------


def cmd_model(args, parser) -> int:
    if args.eval and (args.P is None or args.c is None):
        parser.error("--eval requires --P and --c")
    if args.curve_alpha and (args.h is None or args.asymptote is None):
        parser.error("--curve-alpha requires --h and --asymptote")
    if args.compare and not args.records:
        parser.error("--compare requires --records")
    # --compare sets P and c per benchmark point; --eval has both.
    params = model_mod.ModelParams(
        processors=1 if args.P is None else args.P,
        contention=0.0 if args.c is None else args.c,
        alpha=args.alpha,
        beta=args.beta,
        snapshot_work=args.ws_ratio,
        control_work=args.wc_ratio,
    )

    if args.eval:
        value = model_mod.concurrent_speedup(params)
        with _out(args) as out:
            print(f"{value:g}", file=out)
    elif args.curve_alpha:
        points = model_mod.alpha_curve(args.h, args.asymptote, args.t_max, args.step)
        lines = [f"{t:g},{alpha:.10g}" for t, alpha in points]
        with _out(args) as out:
            print("t,alpha", *lines, sep="\n", file=out)
    else:
        read = bench_mod.read_json if args.records.endswith(".json") else bench_mod.read_csv
        try:
            records = read(args.records)
        except (OSError, ValueError) as exc:
            print(f"cannot load records: {exc}", file=sys.stderr)
            return 1
        rows = model_mod.predict_vs_measured(records, params)
        with _out(args) as out:
            model_mod.write_comparison_csv(rows, out)
        if args.out:
            print(f"{'variant':<8} {'threads':>7} {'measured':>9} {'predicted':>9} {'ratio':>7}")
            for row in rows:
                print(
                    f"{row.variant:<8} {row.threads:>7} {row.measured_speedup:>9.3f} "
                    f"{row.predicted_speedup:>9.3f} {row.ratio:>7.3f}"
                )
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
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
