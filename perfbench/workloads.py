"""The benchmark's three workloads, driven through cbst's public API.

Each workload fixes a thread count, an operation mix and a key range, in the
manner of Synchrobench, and runs every tree variant on it. Each step's
operations are drawn from the seed and the step number before the clock
starts, so the timed loop holds nothing but the tree calls and the recording
of their results. Variants run in interleaved steps (one chunk of each
variant per step, in a rotating order, all on the same operations). The
benchmark's own reference tree runs the same operations in every step, so
each rate can be read against the host's speed at that time.

``seq`` is single-threaded only. On the 2-thread workloads it runs both
threads' operations one after the other on one thread, as the reference
tree does on every workload.
"""

from __future__ import annotations

import gc
import random
import threading
import time
import tracemalloc
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field

import reference
from cbst import (
    VARIANT_NAMES,
    OpKind,
    SeqOracle,
    StressConfig,
    WorkloadSpec,
    check_balance,
    check_structure,
    draw_op,
    new_tree,
    prefill,
    run_stress,
)

# Operation kinds are stored as these indexes, which also select the bound
# method (insert, delete, search) a stream calls.
INSERT, DELETE, SEARCH = 0, 1, 2
KIND_NAMES = ("insert", "delete", "search")
KIND_INDEX = {OpKind.INSERT: INSERT, OpKind.DELETE: DELETE, OpKind.SEARCH: SEARCH}

# Set-up is repeated, at least SETUP_REPS times and for SETUP_MIN_S in all,
# and its median reported, as setup_s is gated.
SETUP_REPS = 3
SETUP_MIN_S = 2.0
# setup_s is reported in seconds of a host that builds the reference tree at
# this many inserted keys per second.
REFERENCE_INSERTS_S = 400_000.0
# The reference tree repeats a step's operations until it has run this long,
# so that its rate is not taken over a much shorter time than the chunks'.
REFERENCE_MIN_S = 0.02
# bytes_per_key is traced on a tree prefilled over at most this key range, as
# tracemalloc makes a build several times slower.
BYTES_KEY_RANGE = 20_000
# Untimed tree building before the first timed set-up. A vCPU that was idle
# runs the first half second or so measurably slower.
WARM_UP_S = 1.0
# Steps counted even when --seconds runs out sooner.
MIN_STEPS = 4
JOIN_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Workload:
    """A thread count, an operation mix and a key range."""

    name: str
    threads: int
    mix: tuple[float, float, float]
    key_range: int
    chunk_ops: int  # operations per thread in one timed chunk
    recorded: bool = False  # drive run_stress, the harness path

    @property
    def spec(self) -> WorkloadSpec:
        return WorkloadSpec(*self.mix, self.key_range)

    def threads_for(self, variant: str) -> int:
        return 1 if variant == "seq" else self.threads


WORKLOADS = {
    w.name: w
    for w in (
        # Searches dominate a tree larger than the CPU caches: descent cost.
        Workload("read-large-1t", 1, (9.0, 1.0, 90.0), 100_000, chunk_ops=10_000),
        # All writes on a small shared tree: locks, validation and retries.
        Workload("update-small-2t", 2, (50.0, 50.0, 0.0), 1_000, chunk_ops=5_000),
        # The harness path: recorded, interleaved run_stress plus checkers.
        Workload("stress-recorded-2t", 2, (20.0, 10.0, 70.0), 64, chunk_ops=1_000,
                 recorded=True),
    )
}


class Tracer:
    """In-memory spans (id, parent id, name, start ns, end ns); a no-op
    when disabled. A span's parent is the span open around it."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple[int, int, str, int, int] | None] = []
        self._open = [0]

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        sid = len(self.spans) + 1
        self.spans.append(None)
        parent = self._open[-1]
        self._open.append(sid)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self.spans[sid - 1] = (sid, parent, name, start, time.perf_counter_ns())
            self._open.pop()


@dataclass
class VariantRun:
    """One variant's tree, samples and check results."""

    variant: str
    threads: int
    tree: object = None
    initial: frozenset = frozenset()
    rates: list = field(default_factory=list)  # wall ops/s of each counted plain chunk
    ratios: list = field(default_factory=list)  # each over the reference tree's in its step
    traced_rates: list = field(default_factory=list)
    ops: int = 0  # counted plain chunks only, for the ratios below
    retries: int = 0
    wall: float = 0.0
    cpu: float = 0.0
    traced_ops: int = 0
    traced_wall: float = 0.0
    executed: int = 0  # every operation run, warm-up and traced chunks included
    latencies_ns: list = field(default_factory=lambda: [array("q"), array("q"), array("q")])
    last_results: list = field(default_factory=list)  # of the latest 1-thread chunk
    net: dict = field(default_factory=dict)  # key -> net insert/delete successes
    failed: bool = False  # an output check on this variant failed


# -- op streams ---------------------------------------------------------------


def draw_step(w: Workload, seed: int, step: int):
    """Per thread, the step's chunk of (kind indexes, keys). Every step gets
    fresh operations, so the mix stays as declared however long the run."""
    ins, dele, _ = w.mix
    chunks = []
    for tid in range(w.threads):
        rng = random.Random(f"{w.name}/{seed}/{step}/{tid}")
        kinds = bytearray()
        keys = []
        for _ in range(w.chunk_ops):
            op, key = draw_op(rng, ins, dele, w.key_range)
            kinds.append(KIND_INDEX[op])
            keys.append(key)
        chunks.append((bytes(kinds), keys))
    return chunks


def single_thread(chunks):
    """All threads' chunks run back to back, as one thread's chunk."""
    return b"".join(kinds for kinds, _ in chunks), [k for _, keys in chunks for k in keys]


def bind(tree, chunk):
    """The tree's bound method for each operation of a chunk, off the clock."""
    methods = (tree.insert, tree.delete, tree.search)
    return [methods[k] for k in chunk[0]]


# -- set-up -------------------------------------------------------------------


def build(w: Workload, variant: str, seed: int):
    tree = new_tree(variant)
    prefill(tree, w.spec, seed)
    return tree


def warm_up() -> None:
    deadline = time.perf_counter() + WARM_UP_S
    spec = WorkloadSpec(50.0, 50.0, 0.0, 1_000)
    while time.perf_counter() < deadline:
        for v in VARIANT_NAMES:
            prefill(new_tree(v), spec, 0)


def held_bytes(spec: WorkloadSpec, variant: str, seed: int) -> int:
    """tracemalloc-traced bytes that prefill leaves allocated in a tree.

    A full collection before each reading empties the interpreter's free
    lists, whose contents would otherwise make the count jitter by a few
    bytes from build to build.
    """
    tree = new_tree(variant)
    gc.collect()
    before = tracemalloc.get_traced_memory()[0]
    prefill(tree, spec, seed)
    gc.collect()
    return tracemalloc.get_traced_memory()[0] - before


# -- timed chunks -------------------------------------------------------------


def apply_ops(calls, keys, out):
    append = out.append
    for f, k in zip(calls, keys):
        append(f(k))


def _apply_traced(calls, keys, out, durations):
    append = out.append
    record = durations.append
    clock = time.perf_counter_ns
    for f, k in zip(calls, keys):
        t0 = clock()
        r = f(k)
        record(clock() - t0)
        append(r)


def run_threads(target, arg_lists):
    """Run target(*args) once per entry, each on its own thread, released
    together. Returns (wall seconds, summed thread CPU seconds); wall runs
    from the first worker's start to the last worker's finish."""
    n = len(arg_lists)
    barrier = threading.Barrier(n)
    spans = [None] * n
    errors = []

    def worker(i):
        try:
            barrier.wait()
            c0 = time.thread_time()
            t0 = time.perf_counter()
            target(*arg_lists[i])
            t1 = time.perf_counter()
            spans[i] = (t0, t1, time.thread_time() - c0)
        except BaseException as exc:  # reported to the caller below
            errors.append(exc)
            barrier.abort()

    threads = [threading.Thread(target=worker, args=(i,), daemon=True) for i in range(n)]
    for t in threads:
        t.start()
    deadline = time.monotonic() + JOIN_TIMEOUT_S
    for t in threads:
        t.join(max(0.0, deadline - time.monotonic()))
    if errors:
        raise RuntimeError(f"benchmark worker failed: {errors[0]!r}") from errors[0]
    if any(t.is_alive() for t in threads):
        raise RuntimeError(f"benchmark workers still running after {JOIN_TIMEOUT_S} s")
    wall = max(s[1] for s in spans) - min(s[0] for s in spans)
    return wall, sum(s[2] for s in spans)


class WorkloadRun:
    """One run of a workload: set-up, timed steps, output checks."""

    def __init__(self, w: Workload, seed: int, tracer: Tracer):
        self.w = w
        self.seed = seed
        self.tracer = tracer
        self.runs = {v: VariantRun(v, w.threads_for(v)) for v in VARIANT_NAMES}
        self.failures: list[str] = []  # one line per failed output check
        self.reference = None  # the reference tree the steps run, a copy of seq's
        self.reference_rates: list[float] = []  # its ops/s in each counted plain step
        self.setup_reference_s: list[float] = []  # its builds' time in each set-up
        self.steps = 0
        self.oracle = None
        self.setup_times = {v: [] for v in VARIANT_NAMES}

    def fail(self, variant: str, message: str) -> None:
        """Record a failed output check; the variant's operations count as failed."""
        self.failures.append(f"{variant}: {message}")
        self.runs[variant].failed = True

    # -- set-up -----------------------------------------------------------

    def setup(self):
        warm_up()
        trees = self._setup_rep(keep=True)
        spent = 0.0
        while len(self.setup_times["seq"]) < SETUP_REPS or spent < SETUP_MIN_S:
            self._setup_rep()
            spent = sum(map(sum, self.setup_times.values()))
        if self.w.recorded:
            return  # run_stress builds its own trees
        for v, vr in self.runs.items():
            vr.tree = trees[v]
            vr.initial = frozenset(vr.tree.collect_leaf_keys())
        self.oracle = SeqOracle(self.runs["seq"].initial)
        gc.collect()
        gc.freeze()

    def _reference_seed(self) -> str:
        return f"{self.w.name}/{self.seed}/reference"

    def _setup_rep(self, keep: bool = False) -> dict:
        """Time one set-up: every variant's prefilled tree, each followed by
        a build of the reference tree, so that the two sample the same host
        speed. Objects alive before each build are frozen out of the cyclic
        collector, so a build's time does not depend on the trees built
        before it."""
        trees = {}
        reference_s = 0.0
        for v in VARIANT_NAMES:
            gc.collect()
            gc.freeze()
            with self.tracer.span(f"setup/{v}"):
                t0 = time.perf_counter()
                tree = build(self.w, v, self.seed)
                elapsed = time.perf_counter() - t0
            self.setup_times[v].append(elapsed)
            if keep:
                trees[v] = tree
            gc.collect()
            gc.freeze()
            t0 = time.perf_counter()
            ref = reference.build(self.w.key_range, self._reference_seed())
            reference_s += time.perf_counter() - t0
        self.setup_reference_s.append(reference_s)
        if keep:
            problem = reference.self_check(ref, self.w.key_range)
            if problem:
                raise RuntimeError(problem)
            # The same shape as the variants' trees, so the same descents.
            self.reference = reference.clone(trees["seq"].root)
        return trees

    def bytes_per_key(self) -> dict:
        """Bytes per resident key from two untimed builds, which must agree."""
        spec = WorkloadSpec(*self.w.mix, min(self.w.key_range, BYTES_KEY_RANGE))
        gc_was_enabled = gc.isenabled()
        gc.disable()
        tracemalloc.start()
        try:
            held_bytes(spec, "seq", self.seed + 1)  # one-time allocations land here
            out = {}
            for v in VARIANT_NAMES:
                first = held_bytes(spec, v, self.seed)
                second = held_bytes(spec, v, self.seed)
                if first != second:
                    self.fail(v, f"two untimed builds held {first} and {second} bytes")
                out[v] = first / (spec.key_range // 2)
            return out
        finally:
            tracemalloc.stop()
            if gc_was_enabled:
                gc.enable()

    # -- timed steps ------------------------------------------------------

    def measure(self, seconds: float, traced: bool):
        """One uncounted warm-up step, then counted steps for ``seconds``.
        In a traced run, even steps are traced and odd ones plain."""
        self.step(traced=False, counted=False)
        measured = 0.0
        counted = 0
        while counted < MIN_STEPS or measured < seconds:
            t0 = time.perf_counter()
            self.step(traced=traced and counted % 2 == 0, counted=True)
            measured += time.perf_counter() - t0
            counted += 1

    def step(self, traced: bool, counted: bool):
        """One chunk of every variant and one of the reference tree, all on
        the step's operations (run_stress draws its own), in an order that
        rotates from step to step."""
        order = [*VARIANT_NAMES, "reference"]
        r = self.steps % len(order)
        order = order[r:] + order[:r]
        chunks = draw_step(self.w, self.seed, self.steps)
        single = single_thread(chunks)
        for v in order:
            with self.tracer.span(f"chunk/{v}/{'traced' if traced else 'plain'}"):
                if v == "reference":
                    rate = self._reference_chunk(single)
                elif self.w.recorded:
                    self._stress_chunk(self.runs[v], traced, counted)
                else:
                    vr = self.runs[v]
                    self._chunk(vr, [single] if vr.threads == 1 else chunks, traced, counted)
        if counted and not traced:
            self.reference_rates.append(rate)
            for vr in self.runs.values():
                vr.ratios.append(vr.rates[-1] / rate)
        if not self.w.recorded:
            self._check_single_thread_step(single)
        self.steps += 1

    def _reference_chunk(self, single) -> float:
        """The reference tree's ops/s on the step's operations, run on one
        thread as seq runs them, repeated until REFERENCE_MIN_S has passed."""
        _, keys = single
        calls = bind(self.reference, single)
        ops = 0
        wall = 0.0
        while wall < REFERENCE_MIN_S:
            wall += run_threads(apply_ops, [(calls, keys, [])])[0]
            ops += len(keys)
        return ops / wall

    def _count(self, vr, ops, wall, cpu, retries, traced, counted):
        vr.executed += ops
        if not counted:
            return
        if traced:
            vr.traced_rates.append(ops / wall)
            vr.traced_ops += ops
            vr.traced_wall += wall
        else:
            vr.rates.append(ops / wall)
            vr.ops += ops
            vr.wall += wall
            vr.cpu += cpu
            vr.retries += retries

    def _chunk(self, vr, chunks, traced, counted):
        jobs = [(kinds, keys, bind(vr.tree, (kinds, keys))) for kinds, keys in chunks]
        results = [[] for _ in jobs]
        retries_before = vr.tree.retry_count()
        if traced:
            durations = [array("q") for _ in jobs]
            args = [(calls, keys, res, d) for (_, keys, calls), res, d in zip(jobs, results, durations)]
            wall, cpu = run_threads(_apply_traced, args)
        else:
            args = [(calls, keys, res) for (_, keys, calls), res in zip(jobs, results)]
            wall, cpu = run_threads(apply_ops, args)
        retries = vr.tree.retry_count() - retries_before
        ops = sum(len(keys) for _, keys, _ in jobs)
        self._count(vr, ops, wall, cpu, retries, traced, counted)
        if traced:
            for (kinds, _, _), d in zip(jobs, durations):
                for kind, ns in zip(kinds, d):
                    vr.latencies_ns[kind].append(ns)
        if vr.threads == 1:
            vr.last_results = results[0]
        else:
            net = vr.net
            for (kinds, keys, _), res in zip(jobs, results):
                for kind, key, ok in zip(kinds, keys, res):
                    if ok and kind != SEARCH:
                        net[key] = net.get(key, 0) + (1 if kind == INSERT else -1)

    def _check_single_thread_step(self, single):
        kinds, keys = single
        o = self.oracle
        methods = (o.insert, o.delete, o.search)
        expected = [methods[k](key) for k, key in zip(kinds, keys)]
        for vr in self.runs.values():
            if vr.threads == 1 and vr.last_results != expected:
                bad = next(i for i, (a, b) in enumerate(zip(vr.last_results, expected)) if a != b)
                self.fail(vr.variant, f"step {self.steps} op {bad} returned "
                                      f"{vr.last_results[bad]}, SeqOracle says {expected[bad]}")

    def _stress_chunk(self, vr, traced, counted):
        w = self.w
        config = StressConfig(
            variant=vr.variant,
            threads=vr.threads,
            key_range=w.key_range,
            insert_pct=w.mix[0],
            delete_pct=w.mix[1],
            search_pct=w.mix[2],
            seed=self.seed * 100_003 + self.steps,
            ops_per_thread=w.chunk_ops * w.threads // vr.threads,
            timeout_s=JOIN_TIMEOUT_S,
        )
        c0 = time.process_time()
        t0 = time.perf_counter()
        history, tree = run_stress(config)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        ops = history.operations()
        self._count(vr, len(ops), wall, cpu, tree.retry_count(), traced, counted)
        vr.tree = tree
        where = f"stress step {self.steps}"
        if len(ops) != w.chunk_ops * w.threads:
            self.fail(vr.variant, f"{where}: history holds {len(ops)} operations")
        if not check_structure(tree).ok:
            self.fail(vr.variant, f"{where}: check_structure failed")
        balance = check_balance(history, tree.collect_leaf_keys())
        if balance:
            self.fail(vr.variant, f"{where}: {balance[0]}")
        if traced:
            for op in ops:
                vr.latencies_ns[KIND_INDEX[op.op]].append(op.respond_ts - op.invoke_ts)

    # -- final checks -----------------------------------------------------

    def check_final(self):
        """Structure of every final tree; contents against the oracle
        (1 thread) or against prefill plus net successes (2 threads);
        exactly zero retries on one thread."""
        self.structure_ms = []
        for vr in self.runs.values():
            v = vr.variant
            t0 = time.perf_counter()
            report = check_structure(vr.tree)
            self.structure_ms.append((time.perf_counter() - t0) * 1e3)
            if not report.ok:
                self.fail(v, report.violations[0])
            if vr.threads == 1 and vr.tree.retry_count() != 0:
                self.fail(v, f"{vr.tree.retry_count()} retries on one thread")
            if self.w.recorded:
                continue
            final = vr.tree.collect_leaf_keys()
            if vr.threads == 1:
                if final != self.oracle.contents():
                    self.fail(v, "final contents differ from SeqOracle")
                continue
            final_set = set(final)
            bad = [
                k for k in range(self.w.key_range)
                if (k in vr.initial) + vr.net.get(k, 0) != (k in final_set)
            ]
            if bad or not final_set <= set(range(self.w.key_range)):
                self.fail(v, f"final contents disagree with prefill plus net successes "
                             f"on {len(bad)} keys")

    @property
    def attempted(self) -> int:
        return sum(vr.executed for vr in self.runs.values())

    @property
    def failed(self) -> int:
        return sum(vr.executed for vr in self.runs.values() if vr.failed)
