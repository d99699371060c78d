"""Verification harness: histories, linearizability, invariants, stress runs.

The harness treats a concurrent execution as a *history*: a time-ordered
sequence of INVOKE/RESPOND event pairs, two per completed operation. A
history is linearizable when every operation can be assigned a single atomic
point between its invocation and response such that the resulting sequential
execution is legal for a set that starts empty.

Every set operation touches one key, so by locality (Herlihy & Wing 1990) a
history is linearizable exactly when each key's sub-history is. One engine,
:func:`_key_linearizable`, searches a single key's sub-history for a
sequential witness that respects real time (operations whose intervals
overlap may commute); its cost follows how many operations overlap on the
key, not the history's length. Two entry points run it:

* :func:`check_linearizable` runs it on every key's full sub-history.
* :func:`check_balance` runs it on every key's successful inserts and
  deletes, with the final leaf set as the terminal presence.

:func:`check_structure` walks a quiescent tree and validates the external
BST shape, key order, and the immortal sentinel structure.

:func:`run_stress` drives a variant with several threads of randomized
operations and returns the recorded history plus the quiescent tree; it
aborts with :class:`DeadlockSuspectedError` naming a stuck thread's last
invocation if the run fails to terminate within its grace period.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

from .core import (
    NEG_SENTINEL,
    POS_SENTINEL,
    OpKind,
    check_mix,
    draw_op,
    pause,
    run_threads,
    thread_rng,
)
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
    """One key's operations overlap too much for the checker's state bound."""


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
    every invocation answered, no response stamped before its invocation) is
    enforced lazily by :meth:`operations`.
    """

    __slots__ = ("events",)

    def __init__(self, events: Iterable[Event]):
        self.events = sorted(events, key=lambda e: (e.timestamp_ns, e.thread_id, e.seq))

    def __len__(self):
        return len(self.events)

    def operations(self) -> list[Operation]:
        """Pair events into operations, sorted by invocation time.

        Raises :class:`IncompleteHistoryError` when any thread's events do
        not strictly alternate INVOKE/RESPOND over the same operation, or a
        response is stamped before its invocation.
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
                if e.timestamp_ns < inv.timestamp_ns:
                    raise IncompleteHistoryError(
                        f"thread {e.thread_id}: RESPOND stamped before its INVOKE"
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

# Memo states one key's search may reach before the history is refused.
_MAX_STATES = 1 << 20

# Set semantics for one key: _SET_STEP[kind, result][present] is the
# presence after the operation, or None when the result is impossible.
_SET_STEP = {
    (OpKind.INSERT, True): (True, None),
    (OpKind.INSERT, False): (None, True),
    (OpKind.DELETE, True): (None, False),
    (OpKind.DELETE, False): (False, None),
    (OpKind.SEARCH, True): (None, True),
    (OpKind.SEARCH, False): (False, None),
}


def _key_linearizable(ops, final: bool | None = None) -> bool:
    """Decide whether one key's operations admit a legal sequential witness.

    ``ops`` holds ``(kind, result, invoke_ts, respond_ts)`` tuples sorted by
    invocation. The key starts absent; ``final``, when given, is the
    presence the witness must end with.

    The depth-first search walks states ``(lo, mask)``: every operation
    before ``lo`` is linearized, ``ops[lo]`` is not, and bit ``j`` of
    ``mask`` marks ``ops[lo + j]`` as linearized. An undone operation may go
    next when no other undone operation responded strictly before it was
    invoked; equal timestamps count as overlap. The linearized set fixes the
    presence, so states are memoized without it, and a state's width is
    bounded by how many operations overlap, not by the history's length.
    A search that reaches ``_MAX_STATES`` states raises
    :class:`HistoryTooLargeError`.
    """
    n = len(ops)
    steps = [_SET_STEP[kind, result] for kind, result, _, _ in ops]
    seen: set[tuple[int, int]] = set()
    stack = [(0, 0, False)]
    while stack:
        lo, mask, present = stack.pop()
        if lo == n:
            # Every complete witness ends at the same presence.
            return final is None or present == final
        if (lo, mask) in seen:
            continue
        seen.add((lo, mask))
        if len(seen) >= _MAX_STATES:
            raise HistoryTooLargeError(
                f"key search reached {_MAX_STATES} states over {n} operations"
            )
        moves = []
        # Invocations are sorted, so the first undone operation invoked
        # after the earliest undone response ends the candidates.
        horizon = math.inf
        for i in range(lo, n):
            if mask >> (i - lo) & 1:
                continue
            _, _, invoke_ts, respond_ts = ops[i]
            if invoke_ts > horizon:
                break
            if respond_ts < horizon:
                horizon = respond_ts
            after = steps[i][present]
            if after is None:
                continue
            if i == lo:
                nlo, nmask = lo + 1, mask >> 1
                while nmask & 1:
                    nlo, nmask = nlo + 1, nmask >> 1
            else:
                nlo, nmask = lo, mask | 1 << (i - lo)
            if (nlo, nmask) not in seen:
                moves.append((nlo, nmask, after))
        # Try the earliest-invoked operation first.
        stack.extend(reversed(moves))
    return False


def _by_key(ops: Iterable[Operation]) -> dict[int, list[tuple]]:
    """Split operations, in order, into per-key engine tuples."""
    per_key: dict[int, list[tuple]] = {}
    for op in ops:
        per_key.setdefault(op.key, []).append((op.op, op.result, op.invoke_ts, op.respond_ts))
    return per_key


def check_linearizable(history: History) -> bool:
    """Decide whether ``history`` is linearizable for a set starting empty.

    Every operation touches one key, so by locality (Herlihy & Wing 1990)
    the history is linearizable exactly when each key's sub-history is;
    each is decided by :func:`_key_linearizable`. The cost follows how many
    operations overlap on a key, not the history's length; a key whose
    search reaches the engine's state bound raises
    :class:`HistoryTooLargeError`.
    """
    return all(_key_linearizable(kops) for kops in _by_key(history.operations()).values())


def brute_force_linearizable(history: History) -> bool:
    """Reference decision procedure: enumerate every real-time-respecting
    total order and replay each one wholesale from the empty set.

    No memoization and no incremental pruning, so it shares no machinery
    with :func:`check_linearizable`; exponential, use only on tiny
    histories.
    """
    ops = history.operations()
    n = len(ops)

    def replay(order: list[int]) -> bool:
        members = set()
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
    """Outcome of the structural checks, with human-readable violation
    strings for anything that failed."""

    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


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
        rep.violations.append("root is not an internal node")
        return rep
    if root.key != POS_SENTINEL:
        rep.violations.append(f"root key is {root.key}, not the positive sentinel")

    leaves: list[tuple[int, str]] = []
    stack = [(root, None, None, "")]
    while stack:
        node, low, high, path = stack.pop()
        key = node.key
        where = path or "root"
        if low is not None and key < low:
            rep.violations.append(f"key {key} at {where} below its lower bound {low}")
        if high is not None and key >= high:
            rep.violations.append(f"key {key} at {where} at or above its upper bound {high}")
        left, right = node.left, node.right
        if (left is None) != (right is None):
            rep.violations.append(f"internal node {key} at {where} has exactly one child")
            continue
        if left is None:
            leaves.append((key, where))
        else:
            stack.append((right, key, high, path + "R"))
            stack.append((left, low, key, path + "L"))

    for (k1, _), (k2, w2) in zip(leaves, leaves[1:]):
        if k2 <= k1:
            rep.violations.append(f"leaf keys not strictly increasing at {w2}: {k1} then {k2}")
    if not leaves or leaves[0][0] != NEG_SENTINEL:
        rep.violations.append("leftmost leaf is not the negative sentinel")
    if not leaves or leaves[-1][0] != POS_SENTINEL:
        rep.violations.append("rightmost leaf is not the positive sentinel")
    return rep


# -- balance against a history ---------------------------------------------


def check_balance(history: History, final_keys: Iterable[int]) -> list[str]:
    """Cross-check a history against the final leaf keys of its tree.

    For every key, the successful inserts and deletes alone must admit an
    ordering, consistent with real time, that strictly alternates
    insert/delete from an absent key (the run starts from an empty set) and
    ends with the key's final presence. Searches and failed operations are
    ignored. Returns one violation string per failing key, naming it; empty
    when the history balances.
    """
    per_key = _by_key(
        op for op in history.operations() if op.result and op.op is not OpKind.SEARCH
    )
    final = set(final_keys)
    violations = []
    for key in sorted(per_key.keys() | final):
        kops = per_key.get(key, [])
        if not _key_linearizable(kops, key in final):
            inserts = sum(1 for kind, *_ in kops if kind is OpKind.INSERT)
            violations.append(
                f"key {key}: {inserts} successful inserts and {len(kops) - inserts} "
                f"successful deletes admit no real-time consistent alternation "
                f"from absent to {'present' if key in final else 'absent'}"
            )
    return violations


# -- randomized stress runs --------------------------------------------------


@dataclass
class StressConfig:
    """Parameters for one randomized multi-thread run.

    ``ops_per_thread`` (zero or more) must be set. Keys are drawn from
    ``[0, key_range)``, so ``key_range`` is at most ``POS_SENTINEL``. The
    percentages must sum to 100. ``timeout_s`` (positive and finite) is the
    time the run may take before it is declared stuck.

    On 70 % of operations a recorded run hands over between stamping an
    invocation and running it: it calls :data:`~cbst.core.pause` (a
    GIL-releasing ``sched_yield``) until another thread has stamped an event
    or no other thread is left running. Short bursts would otherwise execute
    one whole thread at a time, and about half the recorded operations, not
    98 %, would overlap another thread's. The hand-over widens operation
    windows without falsifying anything, since the response is stamped only
    after the operation really returns. A single pause is not enough when
    the threads sit on separate CPUs: ``sched_yield`` then returns at once
    and the yielder usually takes the GIL back before the other thread
    wakes, and only 50-75 % of operations overlapped (2-vCPU x86-64 VM,
    CPython 3.11).
    """

    variant: str = "fem"
    threads: int = 4
    key_range: int = 64
    insert_pct: float = 20.0
    delete_pct: float = 10.0
    search_pct: float = 70.0
    seed: int = 0
    ops_per_thread: int | None = None
    timeout_s: float = 30.0
    record_events: bool = True

    def __post_init__(self):
        if self.threads < 1:
            raise ValueError("threads must be at least 1")
        if not 1 <= self.key_range <= POS_SENTINEL:
            raise ValueError(f"key_range must be between 1 and {POS_SENTINEL}")
        check_mix(self.insert_pct, self.delete_pct, self.search_pct)
        if self.ops_per_thread is None or self.ops_per_thread < 0:
            raise ValueError("ops_per_thread must be set to zero or more")
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
    when any thread outlives the grace period, naming the last invocation
    of a stuck thread that is not waiting in a hand-over (see
    :class:`StressConfig`).
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
    # Threads still running; a lost decrement would hang a hand-over.
    running = [nt]
    running_lock = threading.Lock()
    handing_over = [False] * nt

    def worker(tid: int, _start_ns: int) -> None:
        try:
            run_ops(tid)
        finally:
            with running_lock:
                running[0] -= 1

    def run_ops(tid: int) -> None:
        rng = thread_rng(config.seed, tid)
        buf = buffers[tid]
        methods = {
            OpKind.INSERT: tree.insert,
            OpKind.DELETE: tree.delete,
            OpKind.SEARCH: tree.search,
        }
        seq = 0
        for _ in range(config.ops_per_thread):
            op, key = draw_op(rng, ins_pct, del_pct, kr)
            last_op[tid] = (op, key)
            if record:
                # Events of all threads before this one's invocation; each
                # buffer grows only by its own thread's appends.
                before = sum(map(len, buffers))
                buf.append(Event(tid, seq, INVOKE, op, key, None, now()))
                if rng.random() < 0.7:
                    # This thread holds no tree lock yet, so it blocks no
                    # one. Two waiters cannot both see only their own stamp
                    # added: the later one's ``before`` counts the earlier's.
                    pause()
                    handing_over[tid] = True
                    while sum(map(len, buffers)) == before + 1 and running[0] > 1:
                        pause()
                    handing_over[tid] = False
                result = methods[op](key)
                buf.append(Event(tid, seq + 1, RESPOND, op, key, result, now()))
                seq += 2
            else:
                methods[op](key)

    # A short scheduling quantum makes small runs actually interleave.
    stuck = run_threads(worker, nt, config.timeout_s, switch_interval=1e-5)
    if stuck:
        # A thread that waits in a hand-over is stuck only because another
        # one is; name one of the others.
        tid = next((t for t in stuck if not handing_over[t]), stuck[0])
        with running_lock:
            # Let the waiters go, so that none spins for the rest of the
            # process.
            running[0] = 0
        op, key = last_op[tid] or (None, None)
        raise DeadlockSuspectedError(tid, op, key, len(stuck), nt)

    events: list[Event] = []
    for buf in buffers:
        events.extend(buf)
    return History(events), tree
