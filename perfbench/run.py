"""Run one cbst benchmark workload and print its metrics.

    python3 perfbench/run.py --workload read-large-1t --seed 1 --seconds 10 --trace 0

Run from the repository root: the package is imported from ``src/``. With
``--trace 0`` the last line of standard output is a JSON object holding every
``end_to_end`` metric of BENCHMARK.json; with ``--trace 1`` it holds every
``per_layer`` metric, and the run's spans are written to
``.perfbench/trace-<workload>-seed<seed>.json``. The line before it is a
report with the raw wall-clock rates' quartiles, sample counts, the seed and
the reference tree's rate, which stands for the host's speed.
The exit code is 1 when an output check fails and 2 when the benchmark cannot
run at all.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# A run is flagged noisy when the reference tree's median rate in the second
# half of the measuring differs from that in the first half by more than this.
NOISY_DRIFT = 0.10


def _cannot_run(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def _import_cbst():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import cbst
    except ImportError as exc:
        _cannot_run(f"cannot import cbst from {ROOT / 'src'}: {exc}")
    if not Path(cbst.__file__).resolve().is_relative_to(ROOT / "src"):
        _cannot_run(f"cbst was imported from {cbst.__file__}, not from {ROOT / 'src'}")


def _declared(mode: str) -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fp:
        return {m["name"]: m["unit"] for m in json.load(fp)[mode]}


def setup_totals(wr) -> list[float]:
    """Seconds each repeated set-up of all six trees took."""
    return [sum(times[rep] for times in wr.setup_times.values())
            for rep in range(len(wr.setup_times["seq"]))]


def median_quartiles(values):
    """(median, q1, q3, n) as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0], 1
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, len(values)


def end_to_end(wr, bytes_per_key) -> dict:
    """Each variant's wall-clock chunk rate over the reference tree's rate on
    the same operations in the same step, median over the steps; set-up
    seconds scaled by the reference tree's build, median over the set-ups.
    Raw seconds and rates move by 20-40 % with this host's speed from one
    minute to the next, and the reference tree moves with them."""
    from workloads import REFERENCE_INSERTS_S, VARIANT_NAMES

    out = {f"throughput_vs_ref.{v}": statistics.median(vr.ratios)
           for v, vr in wr.runs.items()}
    for v, value in bytes_per_key.items():
        out[f"bytes_per_key.{v}"] = value
    inserted = len(VARIANT_NAMES) * (wr.w.key_range // 2)  # by a set-up's reference builds
    out["setup_s"] = statistics.median(
        total * inserted / ref / REFERENCE_INSERTS_S
        for total, ref in zip(setup_totals(wr), wr.setup_reference_s))
    return out


def per_layer(wr, seed) -> dict:
    import layers

    w = wr.w
    keys = layers.probe_keys(w, seed)
    out = {}
    depths = []
    plain_ops = plain_wall = traced_ops = traced_wall = 0.0
    for v, vr in wr.runs.items():
        for kind, samples in enumerate(vr.latencies_ns):
            if not samples:
                layers.probe_kind(vr.tree, kind, keys, samples)
        out.update(layers.latency_metrics(v, vr.latencies_ns))
        find_us, depth = layers.find_and_depth(vr.tree, keys)
        out[f"tree.{v}.find_us.p50"] = find_us
        depths.append(depth)
        out[f"tree.{v}.retries_per_op"] = vr.retries / vr.ops
        out[f"tree.{v}.useful_share"] = vr.ops / (vr.ops + vr.retries)
        out[f"tree.{v}.cpu_per_wall"] = vr.cpu / vr.wall
        out[f"bench.prefill_s.{v}"] = statistics.median(wr.setup_times[v])
        plain_ops += vr.ops
        plain_wall += vr.wall
        traced_ops += vr.traced_ops
        traced_wall += vr.traced_wall
    out["tree.depth_mean"] = statistics.fmean(depths)
    out["trace.overhead_share"] = 1 - (traced_ops / traced_wall) / (plain_ops / plain_wall)
    out["verify.check_structure_ms"] = statistics.median(wr.structure_ms)
    with wr.tracer.span("layers/locks"):
        out.update(layers.lock_metrics())
    with wr.tracer.span("layers/core"):
        out.update(layers.core_metrics(w, seed))
    with wr.tracer.span("layers/bench"):
        out.update(layers.bench_metrics(w, seed))
    with wr.tracer.span("layers/verify"):
        out.update(layers.verify_metrics(seed, wr.fail))
    return out


def report(wr, args) -> dict:
    refs = wr.reference_rates
    med, q1, q3, n = median_quartiles(refs)
    half = len(refs) // 2
    drift = statistics.median(refs[half:]) / statistics.median(refs[:half]) - 1
    seq = statistics.median(wr.runs["seq"].rates)
    ops = {}
    for v, vr in wr.runs.items():
        for label, rates in (("wall", vr.rates), ("traced_wall", vr.traced_rates)):
            if rates:
                m, a, b, k = median_quartiles(rates)
                ops.setdefault(v, {})[label] = {"median": m, "q1": a, "q3": b, "n": k}
        ops[v]["wall_total"] = vr.ops / vr.wall
        ops[v]["cpu_per_wall"] = vr.cpu / vr.wall
        ops[v]["speedup_vs_seq"] = statistics.median(vr.rates) / seq
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "steps": wr.steps,
        "chunk_rates": ops,
        "setup_s_per_rep": setup_totals(wr),
        "reference_build_s_per_rep": wr.setup_reference_s,
        "reference_tree": {
            "ops_s_median": med, "q1": q1, "q3": q3, "n": n,
            "drift": drift, "noisy": abs(drift) > NOISY_DRIFT,
        },
        "failures": wr.failures[:20],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    _import_cbst()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"expected one of {', '.join(workloads.WORKLOADS)}")
    mode = "per_layer" if args.trace else "end_to_end"
    declared = _declared(mode)
    w = workloads.WORKLOADS[args.workload]
    tracer = workloads.Tracer(enabled=bool(args.trace))
    wr = workloads.WorkloadRun(w, args.seed, tracer)

    with tracer.span(f"run/{w.name}"):
        with tracer.span("setup"):
            wr.setup()
        bytes_per_key = {}
        if not args.trace:
            bytes_per_key = wr.bytes_per_key()
        with tracer.span("measure"):
            wr.measure(args.seconds, traced=bool(args.trace))
        with tracer.span("check"):
            wr.check_final()
        if args.trace:
            values = per_layer(wr, args.seed)
        else:
            values = end_to_end(wr, bytes_per_key)

    if set(values) != set(declared):
        missing = sorted(set(declared) - set(values))
        extra = sorted(set(values) - set(declared))
        _cannot_run(f"metrics differ from BENCHMARK.json: "
                    f"missing {missing[:5]}, undeclared {extra[:5]}")
    if args.trace:
        out_dir = Path.cwd() / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"trace-{w.name}-seed{args.seed}.json"
        with open(trace_path, "w", encoding="utf-8") as fp:
            json.dump({"fields": ["id", "parent", "name", "start_ns", "end_ns"],
                       "spans": tracer.spans}, fp)

    print(json.dumps({"report": report(wr, args)}))
    print(json.dumps({
        "correct": not wr.failures,
        "attempted": wr.attempted,
        "failed": wr.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0 if not wr.failures else 1


if __name__ == "__main__":
    sys.exit(main())
