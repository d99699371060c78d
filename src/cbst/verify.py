"""Verification harness: histories, linearizability, invariants, stress runs.

The harness treats a concurrent execution as a *history*: a time-ordered
sequence of INVOKE/RESPOND event pairs, two per completed operation. A
history is linearizable when every operation can be assigned a single atomic
point between its invocation and response such that the resulting sequential
execution is legal for a set that starts empty.

Three checkers operate on trees and histories:

* :func:`check_linearizable` decides linearizability by searching over the
  real-time partial order (operations whose intervals overlap may commute).
* :func:`check_structure` walks a quiescent tree and validates the external
  BST shape, key order, and the immortal sentinel structure.
* :func:`check_balance` cross-checks a history against the final leaf set:
  per key, successful inserts minus successful deletes must equal final
  presence, and the successes must admit an insert/delete alternation that
  respects real time.

:func:`run_stress` drives a variant with several threads of randomized
operations and returns the recorded history plus the quiescent tree; it
aborts with :class:`DeadlockSuspectedError` naming a stuck thread's last
invocation if the run fails to terminate within its grace period.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

from .core import NEG_SENTINEL, POS_SENTINEL, OpKind, check_mix, draw_op, run_threads, thread_rng
from .tree import TreeBase, new_tree

INVOKE = "INVOKE"
RESPOND = "RESPOND"


class Event(NamedTuple):
    """One endpoint of an operation: its invocation or its response.

    ``seq`` numbers events within a thread, ``result`` is None on INVOKE,
    and timestamps come from a monotonic nanosecond clock shared by all
    threads of the run.
    """

    thread_id: int
    seq: int
    kind: str
    op: OpKind
    key: int
    result: bool | None
    timestamp_ns: int


class Operation(NamedTuple):
    """A completed operation reconstructed from its event pair."""

    thread_id: int
    op: OpKind
    key: int
    result: bool
    invoke_ts: int
    respond_ts: int


class HistoryFormatError(ValueError):
    """A serialized history line could not be parsed."""


class IncompleteHistoryError(ValueError):
    """Events do not pair up into completed operations."""


class HistoryTooLargeError(ValueError):
    """The history exceeds the linearizability checker's operation bound."""


class DeadlockSuspectedError(RuntimeError):
    """A stress run failed to terminate within its grace period."""

    def __init__(self, thread_id, op, key, alive, total):
        self.thread_id = thread_id
        self.op = op
        self.key = key
        last = "no operation invoked yet" if op is None else f"last invoked {op.value}({key})"
        super().__init__(
            f"thread {thread_id} did not finish within the grace period; "
            f"{last}; {alive} of {total} threads still running"
        )


class History:
    """An ordered record of INVOKE/RESPOND events from one run.

    Events are kept sorted by (timestamp, thread, seq). Well-formedness
    (per-thread INVOKE/RESPOND alternation with matching operation and key,
    every invocation answered) is enforced lazily by :meth:`operations`.
    """

    __slots__ = ("events",)

    def __init__(self, events: Iterable[Event]):
        self.events = sorted(events, key=lambda e: (e.timestamp_ns, e.thread_id, e.seq))

    def __len__(self):
        return len(self.events)

    def operations(self) -> list[Operation]:
        """Pair events into operations, sorted by invocation time.

        Raises :class:`IncompleteHistoryError` when any thread's events do
        not strictly alternate INVOKE/RESPOND over the same operation.
        """
        pending: dict[int, Event] = {}
        ops: list[Operation] = []
        for e in sorted(self.events, key=lambda e: (e.thread_id, e.seq)):
            if e.kind == INVOKE:
                if e.thread_id in pending:
                    raise IncompleteHistoryError(
                        f"thread {e.thread_id}: INVOKE while an operation is still open"
                    )
                pending[e.thread_id] = e
            elif e.kind == RESPOND:
                inv = pending.pop(e.thread_id, None)
                if inv is None or inv.op is not e.op or inv.key != e.key:
                    raise IncompleteHistoryError(
                        f"thread {e.thread_id}: RESPOND does not match the open INVOKE"
                    )
                if e.result is None:
                    raise IncompleteHistoryError(
                        f"thread {e.thread_id}: RESPOND carries no result"
                    )
                ops.append(
                    Operation(e.thread_id, e.op, e.key, e.result, inv.timestamp_ns, e.timestamp_ns)
                )
            else:
                raise IncompleteHistoryError(f"unknown event kind {e.kind!r}")
        if pending:
            raise IncompleteHistoryError(
                f"unanswered INVOKE on thread(s) {sorted(pending)}"
            )
        ops.sort(key=lambda o: (o.invoke_ts, o.thread_id))
        return ops

    def signature(self) -> tuple:
        """Timestamp-free view: per-thread operation streams with results.

        Two runs of the same seeded single-threaded workload produce equal
        signatures even though their clock readings differ.
        """
        return tuple(
            (e.thread_id, e.seq, e.kind, e.op.value, e.key, e.result)
            for e in sorted(self.events, key=lambda e: (e.thread_id, e.seq))
        )

    # -- serialization ----------------------------------------------------
    #
    # One event per line:
    #   <thread> <seq> <INVOKE|RESPOND> <SEARCH|INSERT|DELETE> <key> [<true|false>] <timestamp_ns>
    # INVOKE lines carry no result field.

    def to_lines(self) -> list[str]:
        lines = []
        for e in self.events:
            res = "" if e.result is None else (" true" if e.result else " false")
            lines.append(
                f"{e.thread_id} {e.seq} {e.kind} {e.op.value} {e.key}{res} {e.timestamp_ns}"
            )
        return lines

    @classmethod
    def from_lines(cls, lines: Iterable[str]) -> "History":
        events = []
        for lineno, raw in enumerate(lines, start=1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split()
            try:
                if len(parts) == 6:
                    tid, seq, kind, opname, key, ts = parts
                    result = None
                elif len(parts) == 7:
                    tid, seq, kind, opname, key, res, ts = parts
                    if res not in ("true", "false"):
                        raise ValueError(f"result must be true or false, got {res!r}")
                    result = res == "true"
                else:
                    raise ValueError(f"expected 6 or 7 fields, got {len(parts)}")
                if kind not in (INVOKE, RESPOND):
                    raise ValueError(f"unknown event kind {kind!r}")
                events.append(
                    Event(int(tid), int(seq), kind, OpKind(opname), int(key), result, int(ts))
                )
            except ValueError as exc:
                raise HistoryFormatError(f"line {lineno}: {exc}") from None
        return cls(events)

    def save(self, path) -> None:
        with open(path, "w", encoding="ascii") as fp:
            fp.write("\n".join(self.to_lines()))
            fp.write("\n")

    @classmethod
    def load(cls, path) -> "History":
        with open(path, "r", encoding="ascii") as fp:
            return cls.from_lines(fp)


# -- linearizability ------------------------------------------------------


def _precedence_masks(ops: list[Operation]) -> list[int]:
    # a strictly precedes b when a responded before b was invoked; equal
    # timestamps count as overlap and impose no order.
    n = len(ops)
    masks = [0] * n
    for i, a in enumerate(ops):
        m = 0
        inv = a.invoke_ts
        for j, b in enumerate(ops):
            if b.respond_ts < inv:
                m |= 1 << j
        masks[i] = m
    return masks


def _step(members: frozenset, op: Operation) -> frozenset | None:
    """Apply one operation to the abstract set; None when the recorded
    result is impossible from this state."""
    kind = op.op
    key = op.key
    present = key in members
    if kind is OpKind.SEARCH:
        return members if op.result == present else None
    if kind is OpKind.INSERT:
        if op.result:
            return None if present else members | {key}
        return members if present else None
    if op.result:
        return members - {key} if present else None
    return None if present else members


def check_linearizable(history: History, max_ops: int = 20, initial=()) -> bool:
    """Decide whether ``history`` is linearizable for a set starting at
    ``initial`` (empty by default).

    The search walks linearization prefixes in depth-first order, choosing
    any pending operation whose real-time predecessors have all been
    placed. Visited completed-operation subsets are memoized: the recorded
    results fix how many inserts and deletes succeeded per key, so every
    legal ordering of the same subset leaves the set in the same state.

    Histories with more than ``max_ops`` operations are refused with
    :class:`HistoryTooLargeError` rather than risking an unbounded search.
    """
    ops = history.operations()
    n = len(ops)
    if n == 0:
        return True
    if n > max_ops:
        raise HistoryTooLargeError(
            f"history has {n} operations; checker bound is {max_ops}"
        )
    preds = _precedence_masks(ops)
    full = (1 << n) - 1
    visited: set[int] = set()

    def extend(done: int, members: frozenset) -> bool:
        if done == full:
            return True
        if done in visited:
            return False
        visited.add(done)
        for i in range(n):
            bit = 1 << i
            if done & bit or preds[i] & ~done:
                continue
            nxt = _step(members, ops[i])
            if nxt is None:
                continue
            if extend(done | bit, nxt):
                return True
        return False

    return extend(0, frozenset(initial))


def brute_force_linearizable(history: History, initial=()) -> bool:
    """Reference decision procedure: enumerate every real-time-respecting
    total order and replay each one wholesale.

    No memoization and no incremental pruning, so it shares no machinery
    with :func:`check_linearizable`; exponential, use only on tiny
    histories.
    """
    ops = history.operations()
    n = len(ops)

    def replay(order: list[int]) -> bool:
        members = set(initial)
        for i in order:
            op = ops[i]
            present = op.key in members
            if op.op is OpKind.SEARCH:
                if op.result != present:
                    return False
            elif op.op is OpKind.INSERT:
                if op.result == present:
                    return False
                if op.result:
                    members.add(op.key)
            else:
                if op.result != present:
                    return False
                if op.result:
                    members.discard(op.key)
        return True

    def orders(remaining: set, prefix: list) -> bool:
        if not remaining:
            return replay(prefix)
        for i in sorted(remaining):
            if any(ops[j].respond_ts < ops[i].invoke_ts for j in remaining if j != i):
                continue
            remaining.discard(i)
            prefix.append(i)
            if orders(remaining, prefix):
                remaining.add(i)
                prefix.pop()
                return True
            prefix.pop()
            remaining.add(i)
        return False

    return orders(set(range(n)), [])


# -- structural invariants -------------------------------------------------


@dataclass
class InvariantReport:
    """Outcome of the structural and balance checks, with human-readable
    violation strings for anything that failed."""

    order_ok: bool = True
    shape_ok: bool = True
    sentinels_ok: bool = True
    balance_ok: bool = True
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.order_ok and self.shape_ok and self.sentinels_ok and self.balance_ok


def check_structure(tree: TreeBase) -> InvariantReport:
    """Validate a quiescent tree: external shape, key order, sentinels.

    Every internal node must have two children; every router's left subtree
    holds keys strictly below its key and its right subtree keys at or above
    it; leaf keys are strictly increasing left to right; and the immortal
    frame (positive-sentinel root, negative-sentinel leftmost leaf,
    positive-sentinel rightmost leaf) is intact.
    """
    rep = InvariantReport()
    root = tree.root
    if root.left is None or root.right is None:
        rep.sentinels_ok = False
        rep.violations.append("root is not an internal node")
        return rep
    if root.key != POS_SENTINEL:
        rep.sentinels_ok = False
        rep.violations.append(f"root key is {root.key}, not the positive sentinel")

    leaves: list[tuple[int, str]] = []
    stack = [(root, None, None, "")]
    while stack:
        node, low, high, path = stack.pop()
        key = node.key
        where = path or "root"
        if low is not None and key < low:
            rep.order_ok = False
            rep.violations.append(f"key {key} at {where} below its lower bound {low}")
        if high is not None and key >= high:
            rep.order_ok = False
            rep.violations.append(f"key {key} at {where} at or above its upper bound {high}")
        left, right = node.left, node.right
        if (left is None) != (right is None):
            rep.shape_ok = False
            rep.violations.append(f"internal node {key} at {where} has exactly one child")
            continue
        if left is None:
            leaves.append((key, where))
        else:
            stack.append((right, key, high, path + "R"))
            stack.append((left, low, key, path + "L"))

    for (k1, _), (k2, w2) in zip(leaves, leaves[1:]):
        if k2 <= k1:
            rep.order_ok = False
            rep.violations.append(f"leaf keys not strictly increasing at {w2}: {k1} then {k2}")
    if not leaves or leaves[0][0] != NEG_SENTINEL:
        rep.sentinels_ok = False
        rep.violations.append("leftmost leaf is not the negative sentinel")
    if not leaves or leaves[-1][0] != POS_SENTINEL:
        rep.sentinels_ok = False
        rep.violations.append("rightmost leaf is not the positive sentinel")
    return rep


# -- balance against a history ---------------------------------------------


def _alternation_fast(kops) -> bool:
    # Respond-order replay: works whenever the successful operations on the
    # key were effectively serialized, which is the overwhelmingly common
    # case in real histories.
    present = False
    for is_insert, _, _ in sorted(kops, key=lambda t: t[2]):
        if is_insert == present:
            return False
        present = is_insert
    return True


def _alternation_exact(kops) -> bool:
    # Exact feasibility over the real-time partial order, iterative DFS with
    # memoized completed subsets. Only reached when overlapping operations
    # make the respond-order replay fail.
    n = len(kops)
    preds = [0] * n
    for i in range(n):
        inv = kops[i][1]
        m = 0
        for j in range(n):
            if kops[j][2] < inv:
                m |= 1 << j
        preds[i] = m
    full = (1 << n) - 1
    seen: set[tuple[int, bool]] = set()
    stack: list[tuple[int, bool]] = [(0, False)]
    while stack:
        done, present = stack.pop()
        if done == full:
            return True
        if (done, present) in seen:
            continue
        seen.add((done, present))
        for i in range(n):
            bit = 1 << i
            if done & bit or preds[i] & ~done:
                continue
            is_insert = kops[i][0]
            if is_insert == present:
                continue
            stack.append((done | bit, is_insert))
    return False


def check_balance(history: History, final_keys: Iterable[int]) -> list[str]:
    """Cross-check a history against the final leaf keys of its tree.

    For every key, the number of successful inserts minus successful
    deletes must equal its final presence (the run starts from an empty
    set), and the successes must admit an ordering, consistent with real
    time, that strictly alternates insert/delete starting with an insert.
    Returns a list of violation strings, empty when the history balances.
    """
    per_key: dict[int, list] = {}
    for op in history.operations():
        if not op.result or op.op is OpKind.SEARCH:
            continue
        per_key.setdefault(op.key, []).append(
            (op.op is OpKind.INSERT, op.invoke_ts, op.respond_ts)
        )

    final = set(final_keys)
    violations = []
    for key in final - per_key.keys():
        violations.append(f"key {key} present at the end but never successfully inserted")
    for key, kops in sorted(per_key.items()):
        ins = sum(1 for t in kops if t[0])
        dels = len(kops) - ins
        expected = 1 if key in final else 0
        if ins - dels != expected:
            violations.append(
                f"key {key}: {ins} successful inserts minus {dels} successful deletes "
                f"does not match final presence {expected}"
            )
            continue
        if not _alternation_fast(kops) and not _alternation_exact(kops):
            violations.append(
                f"key {key}: successful inserts and deletes admit no real-time "
                f"consistent alternation"
            )
    return violations


# -- randomized stress runs --------------------------------------------------


@dataclass
class StressConfig:
    """Parameters for one randomized multi-thread run.

    Exactly one of ``ops_per_thread`` (zero or more) and ``duration_ms``
    (positive) must be set. The percentages must sum to 100. ``timeout_s``
    (positive and finite) is the grace period beyond the nominal run length
    before the run is declared stuck.

    A recorded run yields the scheduler, on 70 % of operations, between
    stamping an invocation and running it. Short bursts would otherwise
    execute one whole thread at a time and the recorded histories would
    never overlap; the yield widens operation windows without falsifying
    anything, since the response is stamped only after the operation really
    returns.
    """

    variant: str = "fem"
    threads: int = 4
    key_range: int = 64
    insert_pct: float = 20.0
    delete_pct: float = 10.0
    search_pct: float = 70.0
    seed: int = 0
    ops_per_thread: int | None = None
    duration_ms: int | None = None
    timeout_s: float = 30.0
    record_events: bool = True

    def __post_init__(self):
        if self.threads < 1:
            raise ValueError("threads must be at least 1")
        if self.key_range < 1:
            raise ValueError("key_range must be at least 1")
        check_mix(self.insert_pct, self.delete_pct, self.search_pct)
        if (self.ops_per_thread is None) == (self.duration_ms is None):
            raise ValueError("set exactly one of ops_per_thread and duration_ms")
        if self.ops_per_thread is not None and self.ops_per_thread < 0:
            raise ValueError("ops_per_thread must be non-negative")
        if self.duration_ms is not None and self.duration_ms <= 0:
            raise ValueError("duration_ms must be positive")
        if not 0 < self.timeout_s < math.inf:
            raise ValueError("timeout_s must be positive and finite")
        if self.variant == "seq" and self.threads != 1:
            raise ValueError("the seq variant is single-threaded only")


def run_stress(config: StressConfig) -> tuple[History, TreeBase]:
    """Run one randomized multi-thread workload and record its history.

    All threads start together at a 10 us switch interval. Each draws
    operations from its own seeded generator, so the per-thread operation
    streams are fully determined by (seed, thread index). Returns the merged
    history and the quiescent tree; raises :class:`DeadlockSuspectedError`
    when any thread outlives the grace period, naming that thread's last
    invocation.
    """
    tree = new_tree(config.variant)
    nt = config.threads
    buffers: list[list[Event]] = [[] for _ in range(nt)]
    last_op: list[tuple[OpKind, int] | None] = [None] * nt

    ins_pct = config.insert_pct
    del_pct = config.delete_pct
    kr = config.key_range
    record = config.record_events
    now = time.monotonic_ns

    def worker(tid: int, start_ns: int) -> None:
        rng = thread_rng(config.seed, tid)
        buf = buffers[tid]
        methods = {
            OpKind.INSERT: tree.insert,
            OpKind.DELETE: tree.delete,
            OpKind.SEARCH: tree.search,
        }
        seq = 0
        if config.ops_per_thread is not None:
            remaining = config.ops_per_thread
            deadline = None
        else:
            remaining = None
            deadline = start_ns + config.duration_ms * 1_000_000
        while True:
            if remaining is not None:
                if remaining == 0:
                    break
                remaining -= 1
            elif now() >= deadline:
                break
            op, key = draw_op(rng, ins_pct, del_pct, kr)
            last_op[tid] = (op, key)
            if record:
                buf.append(Event(tid, seq, INVOKE, op, key, None, now()))
                if rng.random() < 0.7:
                    time.sleep(0)
                result = methods[op](key)
                buf.append(Event(tid, seq + 1, RESPOND, op, key, result, now()))
                seq += 2
            else:
                methods[op](key)

    budget = config.timeout_s + (config.duration_ms or 0) / 1000.0
    # A short scheduling quantum makes small runs actually interleave.
    stuck = run_threads(worker, nt, budget, switch_interval=1e-5)
    if stuck:
        tid = stuck[0]
        op, key = last_op[tid] or (None, None)
        raise DeadlockSuspectedError(tid, op, key, len(stuck), nt)

    events: list[Event] = []
    for buf in buffers:
        events.extend(buf)
    return History(events), tree
