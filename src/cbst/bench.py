"""Throughput benchmark driver: prefill, timed mixed workloads, sweeps.

A benchmark run prefills a fresh tree to half its key range, lets every
worker thread warm up for a fixed period, then measures how many operations
complete before a shared deadline. Operation kinds are drawn per thread from
a percentage mix (insert, delete, search) with keys uniform over the key
range, each thread on its own seeded generator so the op streams are
reproducible run to run even though interleavings are not.

Contention is reported as retries / (retries + ops_completed), where a retry
is one failed validation or lock pass inside a tree operation; a
single-threaded run can never retry, so its contention rate is exactly zero.
A failed pass pauses (:data:`cbst.core.pause`) before it is retried, so
the rate counts real conflicts, not passes spun while a lock's holder waited
for the GIL; it is far lower than in records made while the loops spun, and
the two are not comparable.

Records serialize to CSV and JSON with identical field names, one flat
record per run.
"""

from __future__ import annotations

import csv
import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from threading import TIMEOUT_MAX
from typing import get_type_hints

from .core import POS_SENTINEL, OpKind, check_mix, draw_op, run_threads, thread_rng
from .tree import VARIANT_NAMES, TreeBase, new_tree

# The two standard mixes, in (insert_pct, delete_pct, search_pct) order.
MIX_LOW = (9, 1, 90)
MIX_MID = (20, 10, 70)

# run_bench waits for its workers this long past their deadline, and a join
# waits at most TIMEOUT_MAX seconds, which caps a run's warmup plus duration.
_GRACE_S = 30.0
_MAX_RUN_MS = int((TIMEOUT_MAX - _GRACE_S) * 1000)


@dataclass(frozen=True)
class WorkloadSpec:
    """An operation mix plus the key range ("bucket") it runs over.

    Keys are drawn from ``[0, key_range)``, so ``key_range`` is at most
    ``POS_SENTINEL``.
    """

    insert_pct: float
    delete_pct: float
    search_pct: float
    key_range: int

    def __post_init__(self):
        check_mix(self.insert_pct, self.delete_pct, self.search_pct)
        if not 2 <= self.key_range <= POS_SENTINEL:
            raise ValueError(f"key_range must be between 2 and {POS_SENTINEL}")


@dataclass(frozen=True)
class BenchConfig:
    """One benchmark point: a variant, a thread count, and a workload."""

    variant: str
    threads: int
    duration_ms: int
    workload: WorkloadSpec
    seed: int = 0
    warmup_ms: int = 500

    def __post_init__(self):
        if self.variant not in VARIANT_NAMES:
            raise ValueError(f"unknown variant: {self.variant!r}")
        if self.threads < 1:
            raise ValueError("threads must be at least 1")
        if self.duration_ms <= 0:
            raise ValueError("duration_ms must be positive")
        if self.warmup_ms < 0:
            raise ValueError("warmup_ms must be non-negative")
        if self.warmup_ms + self.duration_ms > _MAX_RUN_MS:
            raise ValueError(f"warmup_ms + duration_ms must be at most {_MAX_RUN_MS}")
        if self.variant == "seq" and self.threads != 1:
            raise ValueError("the seq variant is single-threaded only")


@dataclass(frozen=True)
class BenchRecord:
    """One measured run; field names match the CSV/JSON columns."""

    variant: str
    threads: int
    key_range: int
    insert_pct: float
    delete_pct: float
    search_pct: float
    duration_ms: int
    ops_completed: int
    throughput_ops_s: float
    retries: int
    contention_rate: float
    wall_time_ms: float
    seed: int
    repeat: int


CSV_FIELDS = tuple(f.name for f in fields(BenchRecord))
CSV_HEADER = ",".join(CSV_FIELDS)


# Stream index reserved for prefill so it never collides with a worker.
_PREFILL_STREAM = -1


def prefill(tree: TreeBase, workload: WorkloadSpec, seed: int) -> int:
    """Fill an empty tree with uniform-random keys until it holds
    key_range // 2 of them; returns the number of keys drawn (duplicates
    included).

    The tree is the one that inserting the drawn keys in order would build,
    laid out in preorder: it is bulk-loaded in one pass, not built by a
    descent per key. A tree that already holds a key raises ValueError.
    """
    rng = thread_rng(seed, _PREFILL_STREAM)
    target = workload.key_range // 2
    kr = workload.key_range
    # rng.randrange(kr)'s own rejection loop, as in draw_op.
    getrandbits = rng.getrandbits
    bits = kr.bit_length()
    drawn = {}  # the distinct keys, in the order each was first drawn
    attempts = 0
    while len(drawn) < target:
        attempts += 1
        key = getrandbits(bits)
        while key >= kr:
            key = getrandbits(bits)
        drawn[key] = None
    keys = list(drawn)
    del drawn  # so that the build's peak memory holds the list alone
    tree._load(keys)
    return attempts


def run_bench(config: BenchConfig, repeat: int = 0) -> BenchRecord:
    """Run one benchmark point and return its record.

    The tree is prefilled single-threaded, then all workers start together,
    burn the warmup period uncounted, and count completed operations until
    the deadline. Retries are read off the tree's counter over the measured
    window only; wall time runs from the end of warmup to the last worker's
    finish.
    """
    wl = config.workload
    tree = new_tree(config.variant)
    prefill(tree, wl, config.seed)

    nt = config.threads
    counts = [0] * nt
    spans = [0] * nt  # each worker's finish, in ns after the end of warmup
    retries_before = [0]

    ins_pct = wl.insert_pct
    del_pct = wl.delete_pct
    kr = wl.key_range
    warmup_ns = config.warmup_ms * 1_000_000
    duration_ns = config.duration_ms * 1_000_000
    now = time.monotonic_ns
    SEARCH, INSERT = OpKind.SEARCH, OpKind.INSERT

    def worker(tid: int, start_ns: int) -> None:
        rng = thread_rng(config.seed, tid)
        # Identity tests: an OpKind dict lookup runs Enum.__hash__.
        insert, delete, search = tree.insert, tree.delete, tree.search
        warm_end = start_ns + warmup_ns
        deadline = warm_end + duration_ns
        while now() < warm_end:
            op, key = draw_op(rng, ins_pct, del_pct, kr)
            (search if op is SEARCH else insert if op is INSERT else delete)(key)
        if tid == 0:
            retries_before[0] = tree.retry_count()
        done = 0
        while now() < deadline:
            op, key = draw_op(rng, ins_pct, del_pct, kr)
            (search if op is SEARCH else insert if op is INSERT else delete)(key)
            done += 1
        counts[tid] = done
        spans[tid] = now() - warm_end

    budget = _GRACE_S + (config.warmup_ms + config.duration_ms) / 1000.0
    if run_threads(worker, nt, budget):
        raise RuntimeError("benchmark workers failed to stop at the deadline")

    retries = tree.retry_count() - retries_before[0]
    ops_completed = sum(counts)
    wall_ms = max(spans) / 1e6
    throughput = ops_completed / (wall_ms / 1000.0) if wall_ms > 0 else 0.0
    attempts = retries + ops_completed
    return BenchRecord(
        variant=config.variant,
        threads=nt,
        key_range=kr,
        insert_pct=ins_pct,
        delete_pct=del_pct,
        search_pct=wl.search_pct,
        duration_ms=config.duration_ms,
        ops_completed=ops_completed,
        throughput_ops_s=throughput,
        retries=retries,
        contention_rate=retries / attempts if attempts else 0.0,
        wall_time_ms=wall_ms,
        seed=config.seed,
        repeat=repeat,
    )


def sweep(
    base_config: BenchConfig,
    thread_list: list[int],
    variant_list: list[str],
    repeats: int = 3,
) -> list[BenchRecord]:
    """Cross product of variants and thread counts, each point run
    ``repeats`` times; record order is deterministic (variant, threads,
    repeat).

    Every combination must be valid: pairing seq with a thread count above
    one raises before any point runs, so run seq as its own single-thread
    sweep.
    """
    if not thread_list or not variant_list:
        raise ValueError("thread_list and variant_list must be non-empty")
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    configs = [replace(base_config, variant=variant, threads=threads)
               for variant in variant_list for threads in thread_list]
    return [run_bench(config, repeat=rep) for config in configs for rep in range(repeats)]


# -- serialization -----------------------------------------------------------

# Each column's parser: the field's own type (int, float or str).
_FIELD_TYPES = get_type_hints(BenchRecord)


@contextmanager
def open_text(target, mode: str):
    """Yield ``target`` when it is an open text file, else open the path it
    names as ASCII text and close it on exit."""
    if isinstance(target, (str, os.PathLike)):
        with open(target, mode, newline="", encoding="ascii") as fp:
            yield fp
    else:
        yield target


def _record_from_row(row) -> BenchRecord:
    """Build a record from one CSV row or JSON object, parsing each field as
    its own type; raise ValueError when the row is not a complete record."""
    if not isinstance(row, dict):
        raise ValueError(f"a record must be an object, got {row!r}")
    try:
        return BenchRecord(**{name: _FIELD_TYPES[name](row[name]) for name in CSV_FIELDS})
    except KeyError as exc:
        raise ValueError(f"record has no field {exc}") from None
    except TypeError as exc:
        raise ValueError(f"record field of the wrong type: {exc}") from None


def write_csv(records: list[BenchRecord], dest) -> None:
    """Write records as CSV to a path or text file object."""
    with open_text(dest, "w") as fp:
        writer = csv.DictWriter(fp, fieldnames=CSV_FIELDS, lineterminator="\n")
        writer.writeheader()
        for rec in records:
            writer.writerow({name: getattr(rec, name) for name in CSV_FIELDS})


def read_csv(src) -> list[BenchRecord]:
    """Read records from a path or text file object."""
    with open_text(src, "r") as fp:
        return [_record_from_row(row) for row in csv.DictReader(fp)]


def write_json(records: list[BenchRecord], dest) -> None:
    """Write records as a JSON array of flat objects, same field names."""
    payload = [{name: getattr(rec, name) for name in CSV_FIELDS} for rec in records]
    with open_text(dest, "w") as fp:
        json.dump(payload, fp, indent=2)
        fp.write("\n")


def read_json(src) -> list[BenchRecord]:
    """Read records from a path or text file object."""
    with open_text(src, "r") as fp:
        payload = json.load(fp)
    if not isinstance(payload, list):
        raise ValueError("records must be a JSON array of objects")
    return [_record_from_row(obj) for obj in payload]
