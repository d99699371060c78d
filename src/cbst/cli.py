"""Command-line front end: bench, check, and model subcommands.

Wires the benchmark driver, the verification harness, and the speedup model
into scriptable experiments. Exit codes follow the usual CI contract: 0 when
everything passed, 1 when a run or check failed, 2 for usage errors (bad
flags or flag combinations).

The parser only parses. Each count, range and mix is checked by the config
it fills (``BenchConfig``, ``WorkloadSpec`` or ``StressConfig``), which also
holds its default, and a value that config rejects exits 2 with the
config's message before any run starts. The parser itself bounds only what
no config holds: ``--repeats``, and bench's key range, which the CLI caps
well below ``WorkloadSpec``'s limit. Every usage error, the parser's own or
a config's, is reported by the subcommand's parser, with its usage line.

``cbst check`` makes one recorded stress run and decides it two ways: the
final tree's structure, and the history's linearizability ending at the
final contents. ``cbst check --history PATH`` replays a saved history, one
operation per line as ``History.save`` writes it, through the
linearizability check instead, and reports its one verdict the same way.

Machine-readable output goes to --out when given, otherwise to stdout:
bench records and every model action (the --eval value, the --curve-alpha
CSV and the --compare CSV). bench and --compare print a human summary
table only when --out keeps stdout free. check always prints its verdicts
and how many operations overlap another thread's, and --out also writes the
verdicts as a check,ok table. bench and check open --out before any
benchmark or stress run. A model input out of range, an unusable set of records or an
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
from .tree import CONCURRENT_VARIANTS, VARIANT_NAMES
from .verify import (
    History,
    HistoryFormatError,
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
    """An argparse type for an integer of at least ``minimum`` and at most
    ``at_most``, for the two bounds that no config holds: ``--repeats`` and
    bench's key range. Its error names every bound it has."""
    bounds = f"at least {minimum}" if at_most == math.inf else (
        f"at most {at_most} and at least {minimum}")

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if not minimum <= value <= at_most:
            raise argparse.ArgumentTypeError(f"must be {bounds}, got {value}")
        return value

    return parse


def _thread_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma-separated integer list, got {text!r}")


def _mix(text: str) -> tuple[float, float, float]:
    try:
        insert, delete, search = map(float, text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"mix must be three numbers insert,delete,search, got {text!r}") from None
    return insert, delete, search


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cbst",
        description="Concurrent BST benchmarks, correctness checks, and the speedup model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Each subcommand runs with its own parser, which reports its usage errors.
    b = sub.add_parser("bench", help="run throughput benchmarks")
    b.set_defaults(run=cmd_bench, parser=b)
    b.add_argument("--variant", choices=VARIANT_NAMES, default=None,
                   help="tree variant to benchmark (default fem, or the preset grid)")
    b.add_argument("--threads", type=_thread_list, default=None, metavar="N,N,...",
                   help="thread counts to sweep (default 1)")
    b.add_argument("--duration-ms", type=int, default=1000, metavar="MS")
    b.add_argument("--key-range", type=_at_least(2, _MAX_KEY_RANGE), default=None,
                   metavar="N", help="key range aka bucket size (default 10000)")
    b.add_argument("--mix", type=_mix, default=None, metavar="I,D,S",
                   help="insert,delete,search percentages (default %s,%s,%s)" % bench_mod.MIX_MID)
    b.add_argument("--seed", type=int, default=bench_mod.BenchConfig.seed)
    b.add_argument("--repeats", type=_at_least(1), default=3)
    b.add_argument("--warmup-ms", type=int, default=bench_mod.BenchConfig.warmup_ms, metavar="MS")
    b.add_argument("--format", choices=("csv", "json"), default="csv")
    b.add_argument("--out", default=None, metavar="PATH")
    b.add_argument("--preset", choices=sorted(_PRESETS), default=None,
                   help="expand to the published experiment grid for this mix")

    c = sub.add_parser("check", help="stress-check a variant, or replay a history file")
    c.set_defaults(run=cmd_check, parser=c)
    c.add_argument("--variant", choices=VARIANT_NAMES, default=StressConfig.variant)
    c.add_argument("--threads", type=int, default=None,
                   help=f"worker threads (default {StressConfig.threads}; seq runs on 1)")
    c.add_argument("--ops", type=int, default=1000, help="operations per thread")
    c.add_argument("--key-range", type=int, default=StressConfig.key_range)
    c.add_argument("--mix", type=_mix, metavar="I,D,S", default=(
        StressConfig.insert_pct, StressConfig.delete_pct, StressConfig.search_pct))
    c.add_argument("--seed", type=int, default=StressConfig.seed)
    c.add_argument("--timeout-s", type=float, default=StressConfig.timeout_s)
    c.add_argument("--history", default=None, metavar="PATH",
                   help="replay this history file instead of running a stress check")
    c.add_argument("--out", default=None, metavar="PATH")

    m = sub.add_parser("model", help="evaluate the speedup model")
    m.set_defaults(run=cmd_model, parser=m)
    action = m.add_mutually_exclusive_group(required=True)
    action.add_argument("--eval", action="store_true", help="print concurrent speedup")
    action.add_argument("--curve-alpha", action="store_true", help="emit the alpha(t) curve")
    action.add_argument("--compare", action="store_true",
                        help="compare predictions against benchmark records")
    m.add_argument("--P", type=int, default=None, help="processor/thread count")
    m.add_argument("--c", type=float, default=None, help="contention rate")
    m.add_argument("--alpha", type=float, default=1.0)
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
    cannot be opened fails before a benchmark or a stress run is spent."""
    return bench_mod.open_text(args.out or sys.stdout, "w")


# -- bench -------------------------------------------------------------------


def cmd_bench(args, parser) -> int:
    mix = args.mix or _PRESETS.get(args.preset, bench_mod.MIX_MID)
    buckets = [args.key_range] if args.key_range is not None else (
        _PRESET_BUCKETS if args.preset else [10000])
    variants = [args.variant] if args.variant else (
        [*CONCURRENT_VARIANTS, "seq"] if args.preset else ["fem"])
    threads = args.threads or (_PRESET_THREADS if args.preset else [1])
    # Every flag the configs reject is a usage error, before any point runs.
    try:
        configs = [
            bench_mod.BenchConfig(
                variant=variant,
                threads=n,
                duration_ms=args.duration_ms,
                workload=bench_mod.WorkloadSpec(*mix, key_range),
                seed=args.seed,
                warmup_ms=args.warmup_ms,
            )
            for key_range in buckets
            for variant in variants
            # seq is single-threaded, so it runs at 1 unless --threads says otherwise.
            for n in ([1] if variant == "seq" and args.threads is None else threads)
        ]
    except ValueError as exc:
        parser.error(str(exc))
    with _out(args) as out:
        records = [bench_mod.run_bench(config, repeat=r)
                   for config in configs for r in range(args.repeats)]
        write = bench_mod.write_json if args.format == "json" else bench_mod.write_csv
        write(records, out)
    if args.out:
        _print_bench_summary(records)
        print(f"{len(records)} records written to {args.out}")
    return 0


def _print_bench_summary(records) -> None:
    groups: dict[tuple, list] = {}
    for rec in records:
        groups.setdefault((rec.variant, rec.threads, rec.key_range), []).append(rec)
    print(f"{'variant':<8} {'threads':>7} {'key_range':>9} {'median ops/s':>14} {'contention':>10}")
    for (variant, threads, key_range), group in sorted(groups.items()):
        thr = statistics.median(rec.throughput_ops_s for rec in group)
        con = statistics.median(rec.contention_rate for rec in group)
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
    except (OSError, HistoryFormatError) as exc:
        print(f"cannot load history: {exc}", file=sys.stderr)
        return 1
    violation = _first_violation(history)
    with _out(args) as out:
        verdicts = {"linearizable": [] if violation is None else [violation]}
        return _report(args, out, history, verdicts)


def cmd_check(args, parser) -> int:
    if args.history is not None:
        return _replay(args)
    # Every flag the config rejects is a usage error.
    try:
        config = StressConfig(
            variant=args.variant,
            threads=((1 if args.variant == "seq" else StressConfig.threads)
                     if args.threads is None else args.threads),
            key_range=args.key_range,
            insert_pct=args.mix[0],
            delete_pct=args.mix[1],
            search_pct=args.mix[2],
            seed=args.seed,
            ops_per_thread=args.ops,
            timeout_s=args.timeout_s,
        )
    except ValueError as exc:
        parser.error(str(exc))
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
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args, args.parser)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
