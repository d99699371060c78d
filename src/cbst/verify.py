"""Verification harness: histories, linearizability, invariants, stress runs.

The harness treats a concurrent execution as a *history*: its completed
operations, each an interval from its invocation to its response stamp. A
history is linearizable when every operation can be assigned a single atomic
point between its invocation and response such that the resulting sequential
execution is legal for a set that starts empty. A history is saved and
loaded as text, one operation per line.

Every set operation touches one key, so by locality (Herlihy & Wing 1990) a
history is linearizable exactly when each key's sub-history is. One engine,
:func:`_key_violation`, builds a single key's sequential witness greedily,
respecting real time (operations whose intervals overlap may commute), in
O(n log n) for n operations on the key; it never refuses a history. Two
entry points run it:

* :func:`check_linearizable` runs it on every key's full sub-history,
  optionally with the final leaf set as each key's terminal presence.
* :func:`check_balance` runs it on every key's successful inserts and
  deletes, with the final leaf set as the terminal presence.

:func:`check_structure` walks a quiescent tree and validates the external
BST shape, key order, and the immortal sentinel structure.
:func:`count_overlapping` counts the operations of a history that overlap
another thread's; a history where none do tested no race.

:func:`run_stress` drives a variant with several threads of randomized
operations and returns the recorded history plus the quiescent tree. It
draws every thread's operations before the threads start, by
:func:`~cbst.core.draw_op`'s rule run inline, so a worker's loop only calls
the tree and, when recording, stamps each call and keeps its result; the
operations are built from those after the join. No worker waits for
another, so threads switch inside tree calls as well as between them. It
aborts with :class:`DeadlockSuspectedError` naming a stuck thread's last
invocation if the run fails to terminate within its grace period.
"""

from __future__ import annotations

import heapq
import math
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import repeat
from operator import itemgetter, length_hint
from threading import TIMEOUT_MAX
from typing import Iterable, Iterator, NamedTuple

from .core import (
    NEG_SENTINEL,
    POS_SENTINEL,
    OpKind,
    check_mix,
    run_threads,
    thread_rng,
)
from .tree import TreeBase, new_tree

class Operation(NamedTuple):
    """A completed operation: what it did and when it was invoked and
    answered, in nanoseconds of a monotonic clock shared by the run's
    threads."""

    thread_id: int
    op: OpKind
    key: int
    result: bool
    invoke_ts: int
    respond_ts: int


# Sort keys: built-in getters cost about half what a lambda does per item.
_INVOKE_TS = itemgetter(4)
_THREAD_SPAN = itemgetter(0, 4, 5)


class HistoryFormatError(ValueError):
    """A saved history could not be read: a malformed line, or a thread
    whose operations overlap."""


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
    """The completed operations of one run, sorted by (invoke_ts, thread_id).

    ``History(ops)`` takes a list of operations in thread order, each
    thread's in invocation order, and sorts that list in place by
    invocation; it checks nothing, since only :meth:`from_lines` reads
    outside input. ``len(history)`` counts operations.
    """

    __slots__ = ("_ops",)

    def __init__(self, ops: list[Operation]):
        # The operations are in thread order, so a stable sort on the
        # invocation alone orders them by (invoke_ts, thread_id).
        ops.sort(key=_INVOKE_TS)
        self._ops = ops

    def __len__(self):
        return len(self._ops)

    def operations(self) -> list[Operation]:
        """The operations, sorted by (invoke_ts, thread_id); the history's
        own list, not a copy."""
        return self._ops

    # -- serialization ----------------------------------------------------
    #
    # One operation per line, in the history's own order:
    #   <thread> <SEARCH|INSERT|DELETE> <key> <true|false> <invoke_ts> <respond_ts>

    def to_lines(self) -> list[str]:
        return [
            f"{tid} {op.value} {key} {'true' if result else 'false'} {invoke_ts} {respond_ts}"
            for tid, op, key, result, invoke_ts, respond_ts in self._ops
        ]

    @classmethod
    def from_lines(cls, lines: Iterable[str]) -> "History":
        """Parse saved lines, in any order; blank lines are skipped.

        Raises :class:`HistoryFormatError` naming the line when one is not
        ASCII, has other than six fields, an unknown operation or result
        word, a field that is not an integer, or a response stamped before
        its invocation; and naming the thread when one of its operations is
        invoked before its previous one responded (equal stamps are legal).
        """
        ops = []
        for lineno, raw in enumerate(lines, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                if not line.isascii():
                    raise ValueError("not ASCII text")
                parts = line.split()
                if len(parts) != 6:
                    raise ValueError(f"expected 6 fields, got {len(parts)}")
                tid, opname, key, res, invoke_ts, respond_ts = parts
                if res not in ("true", "false"):
                    raise ValueError(f"result must be true or false, got {res!r}")
                op = Operation(int(tid), OpKind(opname), int(key), res == "true",
                               int(invoke_ts), int(respond_ts))
                if op.respond_ts < op.invoke_ts:
                    raise ValueError("response stamped before its invocation")
            except ValueError as exc:
                raise HistoryFormatError(f"line {lineno}: {exc}") from None
            ops.append(op)
        ops.sort(key=_THREAD_SPAN)
        for prev, op in zip(ops, ops[1:]):
            if op.thread_id == prev.thread_id and op.invoke_ts < prev.respond_ts:
                raise HistoryFormatError(
                    f"thread {op.thread_id}: operation invoked at {op.invoke_ts}, "
                    f"before its previous one responded at {prev.respond_ts}"
                )
        return cls(ops)

    def save(self, path) -> None:
        with open(path, "w", encoding="ascii") as fp:
            fp.write("\n".join(self.to_lines()))
            fp.write("\n")

    @classmethod
    def load(cls, path) -> "History":
        # A byte that is not ASCII decodes to a lone surrogate, which
        # from_lines rejects with its line number.
        with open(path, "r", encoding="ascii", errors="surrogateescape") as fp:
            return cls.from_lines(fp)


# -- linearizability ------------------------------------------------------


def _key_violation(ops: list[Operation], final: bool | None) -> str | None:
    """Build one key's sequential witness greedily, or say why none exists.

    ``ops`` holds the key's operations sorted by invocation. The key starts
    absent; ``final``, when given, is the presence the witness must end
    with. Returns None when a witness exists, otherwise the reason.

    A *read* (a search, a failed insert or a failed delete) keeps the key's
    presence; a *flip* (a successful insert or delete) changes it. The
    candidates are the undone operations invoked no later than the earliest
    undone response; equal timestamps count as overlap. Each step
    linearizes every candidate read that is legal now, or else the legal
    candidate flip with the earliest response. Both choices are safe by
    exchange: a read changes no state and only lifts real-time constraints,
    and all legal flips share one precondition and one effect, so the one
    that responds first can move to the front without breaking real-time
    order. When neither exists no witness does, and the blocked candidates
    are the evidence. Each operation enters and leaves a heap once, so one
    key costs O(n log n) for n operations.
    """
    # Heaps of (respond_ts, i) over the admitted undone reads and flips,
    # each indexed by the presence the operation needs.
    reads: tuple[list, list] = ([], [])
    flips: tuple[list, list] = ([], [])
    admitted, present = 0, False
    while True:
        horizon = math.inf
        for heap in reads + flips:
            if heap and heap[0][0] < horizon:
                horizon = heap[0][0]
        # Invocations are sorted, so admission stops at the first operation
        # invoked after the earliest undone response.
        while admitted < len(ops) and ops[admitted].invoke_ts <= horizon:
            op = ops[admitted]
            horizon = min(horizon, op.respond_ts)
            # Searches and deletes need the presence they report; inserts
            # need the opposite.
            needs = op.result != (op.op is OpKind.INSERT)
            flip = op.result and op.op is not OpKind.SEARCH
            heapq.heappush((flips if flip else reads)[needs], (op.respond_ts, admitted))
            admitted += 1
        if reads[present]:
            reads[present].clear()
        elif flips[present]:
            heapq.heappop(flips[present])
            present = not present
        elif reads[not present] or flips[not present]:
            blocked = sorted(i for _, i in reads[not present] + flips[not present])
            evidence = "; ".join(
                f"thread {o.thread_id} {o.op.value} {str(o.result).lower()} "
                f"[{o.invoke_ts}, {o.respond_ts}]"
                for o in [ops[i] for i in blocked]
            )
            return (f"no operation can take effect next with the key "
                    f"{'present' if present else 'absent'}: {evidence}")
        else:
            break
    if final is not None and present != final:
        return (f"every witness leaves the key {'present' if present else 'absent'}, "
                f"but the final contents {'hold' if final else 'lack'} it")
    return None


def _violations(ops: Iterable[Operation], final: set[int] | None) -> Iterator[str]:
    """Yield, in key order, one violation for each key whose operations
    admit no witness; with ``final``, keys in it that no operation touched
    are decided too."""
    per_key: dict[int, list[Operation]] = {}
    for op in ops:
        per_key.setdefault(op.key, []).append(op)
    keys = per_key.keys() if final is None else per_key.keys() | final
    for key in sorted(keys):
        why = _key_violation(per_key.get(key, []), None if final is None else key in final)
        if why is not None:
            yield f"key {key}: {why}"


def _first_violation(history: History, final_keys: Iterable[int] | None = None) -> str | None:
    """The first violation :func:`check_linearizable` finds, in key order,
    or None when it passes."""
    final = None if final_keys is None else set(final_keys)
    return next(_violations(history.operations(), final), None)


def check_linearizable(history: History, final_keys: Iterable[int] | None = None) -> bool:
    """Decide whether ``history`` is linearizable for a set starting empty.

    By locality (Herlihy & Wing 1990) the history is linearizable exactly
    when each key's sub-history is. Each key's witness is built greedily:
    among the operations that may go next in real time, every search or
    failed update that is legal now goes first, otherwise the legal
    successful insert or delete that responded earliest; when neither
    exists, no witness does (see :func:`_key_violation`). That costs
    O(n log n) for a key's n operations, so no history is refused, however
    its operations overlap. With ``final_keys`` each witness must also end at
    the key's presence in that set, which makes a key in it that no
    operation touched fail; a history that passes this way also passes
    :func:`check_balance` against the same keys.
    """
    return _first_violation(history, final_keys) is None


def count_overlapping(history: History) -> int:
    """How many operations overlap an operation of another thread.

    Intervals are closed, so equal stamps count as overlap, as in the
    checker. A history where this is 0 ran its threads strictly in turn and
    tested no race. Operation j meets operation o when j is invoked no later
    than o responds and responds no earlier than o is invoked; those are the
    operations invoked by o's response less those that responded before o's
    invocation, two binary searches over sorted stamps. o overlaps another
    thread when more operations meet it overall than on its own thread, so
    the count costs O(n log n) for n operations.
    """
    ops = history.operations()
    invokes = [o.invoke_ts for o in ops]
    responds = sorted(o.respond_ts for o in ops)
    # A thread's operations follow one another, so its invocations and its
    # responses are each already sorted.
    own: dict[int, tuple[list[int], list[int]]] = {}
    for o in ops:
        inv, resp = own.setdefault(o.thread_id, ([], []))
        inv.append(o.invoke_ts)
        resp.append(o.respond_ts)

    def meeting(inv, resp, o):
        return bisect_right(inv, o.respond_ts) - bisect_left(resp, o.invoke_ts)

    return sum(meeting(invokes, responds, o) > meeting(*own[o.thread_id], o) for o in ops)


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
    """Cross-check a history's successful updates against the final leaf
    keys of its tree.

    For every key, the successful inserts and deletes alone must admit an
    ordering, consistent with real time, that strictly alternates
    insert/delete from an absent key (the run starts from an empty set) and
    ends with the key's final presence. Searches and failed operations are
    ignored, so ``check_linearizable(history, final_keys)`` decides strictly
    more. This weaker check stays because perfbench's stress-recorded-2t
    output check and its ``verify.check_balance_us_per_op`` probe call it.
    Returns one violation string per failing key, naming it; empty when the
    history balances.
    """
    successes = (op for op in history.operations() if op.result and op.op is not OpKind.SEARCH)
    return list(_violations(successes, set(final_keys)))


# -- randomized stress runs --------------------------------------------------


@dataclass
class StressConfig:
    """Parameters for one randomized multi-thread run.

    ``ops_per_thread`` (zero or more) must be set. Keys are drawn from
    ``[0, key_range)``, so ``key_range`` is at most ``POS_SENTINEL``. The
    percentages must sum to 100. ``timeout_s`` is the time the run may take
    before it is declared stuck: positive and at most
    ``threading.TIMEOUT_MAX``, the longest wait a join accepts.

    Each thread's stream is drawn before the workers start.
    :func:`~cbst.core.draw_op` defines the stream, and :func:`run_stress`
    runs that rule inline, so a recorded run, an unrecorded run and
    ``draw_op`` give the same stream for a (seed, thread index). The timed
    loop only calls the tree and, in a recorded run, stamps the clock
    before and after each call and keeps its result. After the workers are
    joined, each operation becomes one :class:`Operation` from its two
    stamps and its result.
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
        if not 0 < self.timeout_s <= TIMEOUT_MAX:
            raise ValueError(f"timeout_s must be positive and at most {TIMEOUT_MAX}")
        if self.variant == "seq" and self.threads != 1:
            raise ValueError("the seq variant is single-threaded only")


def run_stress(config: StressConfig) -> tuple[History, TreeBase]:
    """Run one randomized multi-thread workload and record its history.

    Each thread's operations come from its own seeded generator, so the
    per-thread operation streams are fully determined by (seed, thread
    index), recorded or not. They are drawn on the calling thread before
    any worker starts, by :func:`~cbst.core.draw_op`'s rule inlined into
    one loop per thread that also picks each operation's bound tree method.
    The workers then start together at a 10 us switch interval, and each
    one's timed loop only runs its operations. No worker ever waits for
    another, so thread switches fall inside tree calls as well as between
    them, and that is where a locking protocol's races lie. A recorded run
    also stamps each invocation and response and keeps each result, and one
    :class:`Operation` per call is built from these after the join. Returns
    the history, holding those operations, and the quiescent tree (an
    unrecorded run's history is empty); raises
    :class:`DeadlockSuspectedError`, naming the last invocation of the
    first thread still running, when any thread outlives the grace period.
    """
    tree = new_tree(config.variant)
    nt = config.threads
    n = config.ops_per_thread
    record = config.record_events
    # Per thread: the operations, their keys and their bound tree methods.
    # Each operation is drawn by draw_op's rule, inlined: the mix roll, then
    # the key's getrandbits rejection loop.
    ops: list[list[OpKind]] = []
    keys: list[list[int]] = []
    calls: list[list] = []
    insert, delete, search = tree.insert, tree.delete, tree.search
    ins, kr = config.insert_pct, config.key_range
    ins_del = ins + config.delete_pct
    bits = kr.bit_length()
    SEARCH, INSERT, DELETE = OpKind.SEARCH, OpKind.INSERT, OpKind.DELETE
    for tid in range(nt):
        rng = thread_rng(config.seed, tid)
        roll, getrandbits = rng.random, rng.getrandbits
        t_ops, t_keys, t_calls = [], [], []
        add_op, add_key, add_call = t_ops.append, t_keys.append, t_calls.append
        for _ in range(n):
            r = roll() * 100.0
            key = getrandbits(bits)
            while key >= kr:
                key = getrandbits(bits)
            if r < ins:
                add_op(INSERT)
                add_call(insert)
            elif r < ins_del:
                add_op(DELETE)
                add_call(delete)
            else:
                add_op(SEARCH)
                add_call(search)
            add_key(key)
        ops.append(t_ops)
        keys.append(t_keys)
        calls.append(t_calls)

    now = time.monotonic_ns
    # Each thread's invocation and response stamps, two per operation, and
    # its results; each list grows only by its own thread's appends.
    stamps: list[list[int]] = [[] for _ in range(nt)]
    results: list[list[bool]] = [[] for _ in range(nt)]
    # Each thread's key iterator; what is left of one shows how far its
    # thread has got.
    left = [iter(k) for k in keys]

    def worker(tid: int, _start_ns: int) -> None:
        if record:
            stamp = stamps[tid].append
            answer = results[tid].append
            for call, key in zip(calls[tid], left[tid]):
                stamp(now())
                answer(call(key))
                stamp(now())
        else:
            for call, key in zip(calls[tid], left[tid]):
                call(key)

    # A short scheduling quantum makes small runs actually interleave.
    stuck = run_threads(worker, nt, config.timeout_s, switch_interval=1e-5)
    if stuck:
        tid = stuck[0]
        invoked = n - length_hint(left[tid])
        op, key = (ops[tid][invoked - 1], keys[tid][invoked - 1]) if invoked else (None, None)
        raise DeadlockSuspectedError(tid, op, key, len(stuck), nt)

    done: list[Operation] = []
    if record:
        new = tuple.__new__
        for tid in range(nt):
            t_stamps = stamps[tid]
            done.extend(map(new, repeat(Operation), zip(
                repeat(tid), ops[tid], keys[tid], results[tid], t_stamps[::2], t_stamps[1::2],
            )))
    return History(done), tree
