"""Per-layer measurements for the traced run.

Each function times one layer of cbst through its public API and returns
metrics named as in BENCHMARK.json's ``per_layer`` list. Layer code that the
workloads' timed loops cannot isolate (a lock, a key check, run_bench,
the checkers) is timed here in microbenchmarks on inputs drawn from
the run's seed.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
import tracemalloc

from cbst import (
    VARIANT_NAMES,
    BenchConfig,
    FlagLock,
    FlagMarkWord,
    StressConfig,
    TicketLock,
    check_balance,
    check_key,
    check_linearizable,
    draw_op,
    run_bench,
    run_stress,
)

from workloads import (
    KIND_NAMES,
    Workload,
    apply_ops,
    bind,
    build,
    draw_step,
    run_threads,
    single_thread,
)

REPS = 5
PROBE_KEYS = 2_000


def _ns_per_call(loop, n: int) -> float:
    """Median over REPS of loop()'s time divided by n, in nanoseconds."""
    times = []
    for _ in range(REPS):
        t0 = time.perf_counter_ns()
        loop()
        times.append((time.perf_counter_ns() - t0) / n)
    return statistics.median(times)


def _percentile(sorted_values, q: float):
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def latency_metrics(variant: str, latencies_ns) -> dict:
    out = {}
    for name, samples in zip(KIND_NAMES, latencies_ns):
        ordered = sorted(samples)
        prefix = f"tree.{variant}.{name}_us"
        out[f"{prefix}.p50"] = _percentile(ordered, 0.50) / 1e3
        out[f"{prefix}.p99"] = _percentile(ordered, 0.99) / 1e3
        out[f"{prefix}.n"] = len(ordered)
    return out


def probe_keys(w: Workload, seed: int) -> list[int]:
    rng = random.Random(f"{w.name}/{seed}/probe")
    return [rng.randrange(w.key_range) for _ in range(PROBE_KEYS)]


def probe_kind(tree, kind: int, keys, latencies) -> None:
    """Time one call per key of an op kind the workload's mix leaves out."""
    method = (tree.insert, tree.delete, tree.search)[kind]
    clock = time.perf_counter_ns
    record = latencies.append
    for k in keys:
        t0 = clock()
        method(k)
        record(clock() - t0)


def find_and_depth(tree, keys) -> tuple[float, float]:
    """Median public find() time in us, and the mean leaf depth of the keys
    walked from the root off the clock."""
    clock = time.perf_counter_ns
    find = tree.find
    samples = []
    for k in keys:
        t0 = clock()
        find(k)
        samples.append(clock() - t0)
    depth = 0
    for k in keys:
        node = tree.root
        while node.left is not None:
            node = node.left if k < node.key else node.right
            depth += 1
    return statistics.median(samples) / 1e3, depth / len(keys)


def lock_metrics() -> dict:
    out = {}
    for cls in (FlagLock, FlagMarkWord, TicketLock):
        lock = cls()
        acquire, release = lock.try_acquire, lock.release
        n = 100_000

        def loop():
            for _ in range(n):
                acquire()
                release()

        out[f"locks.{cls.__name__}.acq_rel_ns"] = _ns_per_call(loop, n)
        slots = [None] * 1_000
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(len(slots)):
                slots[i] = cls()
            gc.collect()
            out[f"locks.{cls.__name__}.bytes"] = (
                tracemalloc.get_traced_memory()[0] - before
            ) / len(slots)
        finally:
            tracemalloc.stop()
    return out


def core_metrics(w: Workload, seed: int) -> dict:
    rng = random.Random(f"{w.name}/{seed}/core")
    keys = [rng.randrange(w.key_range) for _ in range(100_000)]
    ins, dele, _ = w.mix
    kr = w.key_range

    def check_loop():
        for k in keys:
            check_key(k)

    def draw_loop():
        for _ in range(len(keys)):
            draw_op(rng, ins, dele, kr)

    return {
        "core.check_key_ns": _ns_per_call(check_loop, len(keys)),
        "core.draw_op_ns": _ns_per_call(draw_loop, len(keys)),
    }


def bench_metrics(w: Workload, seed: int) -> dict:
    """run_bench's seq throughput against the benchmark's own pre-drawn loop
    on the same mix, key range and prefill, alternating the two."""
    config = BenchConfig("seq", 1, duration_ms=500, workload=w.spec, seed=seed, warmup_ms=100)
    chunks = [single_thread(draw_step(w, seed, step)) for step in range(8)]
    via_run_bench, direct = [], []
    for _ in range(2):
        via_run_bench.append(run_bench(config).throughput_ops_s)
        tree = build(w, "seq", seed)
        ops = 0
        wall = 0.0
        for chunk in chunks:
            wall += run_threads(apply_ops, [(bind(tree, chunk), chunk[1], [])])[0]
            ops += len(chunk[1])
        direct.append(ops / wall)
    run_bench_ops_s = statistics.median(via_run_bench)
    return {
        "bench.run_bench.ops_s.seq": run_bench_ops_s,
        "bench.driver_overhead_share": 1 - run_bench_ops_s / statistics.median(direct),
    }


def _stress_config(variant: str, seed: int, record: bool, **kw) -> StressConfig:
    threads = 1 if variant == "seq" else 2
    defaults = dict(key_range=64, insert_pct=20, delete_pct=10, search_pct=70,
                    ops_per_thread=2_000 // threads)
    defaults.update(kw)
    return StressConfig(variant=variant, threads=threads, seed=seed, record_events=record,
                        timeout_s=60.0, **defaults)


def verify_metrics(seed: int, fail) -> dict:
    """Recording's share of run_stress time per variant, and the checkers'
    costs on the histories they are given in practice."""
    out = {}
    histories = []  # (variant, history, tree)
    for v in VARIANT_NAMES:
        recorded, plain = [], []
        for rep in range(3):
            for record, rates in ((True, recorded), (False, plain)):
                config = _stress_config(v, seed * 100 + rep, record)
                t0 = time.perf_counter()
                history, tree = run_stress(config)
                rates.append(2_000 / (time.perf_counter() - t0))
                if record:
                    histories.append((v, history, tree))
        out[f"verify.record_share.{v}"] = 1 - statistics.median(recorded) / statistics.median(plain)

    ops_us, balance_us = [], []
    for v, history, tree in histories:
        t0 = time.perf_counter()
        n = len(history.operations())
        t1 = time.perf_counter()
        violations = check_balance(history, tree.collect_leaf_keys())
        t2 = time.perf_counter()
        ops_us.append((t1 - t0) * 1e6 / n)
        balance_us.append((t2 - t1) * 1e6 / n)
        if violations:
            fail(v, f"layer history: {violations[0]}")
    out["verify.operations_us_per_op"] = statistics.median(ops_us)
    out["verify.check_balance_us_per_op"] = statistics.median(balance_us)

    # As `cbst check --mode linearizability` runs them, at 2 threads.
    run_ms, check_us = [], []
    for i in range(40):
        config = _stress_config("fem", seed * 100 + i, True, key_range=4, ops_per_thread=10)
        t0 = time.perf_counter()
        history, _ = run_stress(config)
        t1 = time.perf_counter()
        ok = check_linearizable(history)
        t2 = time.perf_counter()
        run_ms.append((t1 - t0) * 1e3)
        check_us.append((t2 - t1) * 1e6 / 20)
        if not ok:
            fail("fem", f"small history {i} is not linearizable")
    out["verify.small_run_ms"] = statistics.median(run_ms)
    out["verify.check_linearizable_us_per_op"] = statistics.median(check_us)
    return out
