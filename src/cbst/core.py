"""Shared set semantics: the key domain, operation kinds, and a sequential
oracle; plus the operation draws and thread runs the harness and benchmark share.

Every tree variant in this package implements the same abstract object, a set
of integer keys with three operations (search, insert, delete). This module
pins down that contract once so the trees, the verification harness, and the
benchmark driver all agree on what counts as a key and what each operation
returns. :func:`draw_op` defines the operation stream: benchmark runs draw
through it, and stress runs run its rule inline before their workers start.
Both run their threads through :func:`run_threads`. Only a tree operation
waits for another thread, and it waits through :data:`pause`.

Keys are signed 64-bit integers with the two extremes reserved: the trees use
them as immortal routing sentinels, so application code may only store keys
strictly between ``NEG_SENTINEL`` and ``POS_SENTINEL``.
"""

from __future__ import annotations

import enum
import os
import random
import sys
import threading
import time

# Reserved routing sentinels. Application keys live in the open interval
# between them.
NEG_SENTINEL = -(2**63)
POS_SENTINEL = 2**63 - 1

# How a tree operation waits for another thread: give up the GIL and the CPU
# without arming a timer. ``sleep(0)`` also releases the GIL, but it goes
# through the kernel's timed sleep and costs 56-80 us of timer slack per
# call, against about 0.5 us for ``sched_yield`` (2-vCPU x86-64 VM, CPython
# 3.11). On GIL CPython a failed ``acquire(False)`` usually means the holder
# is waiting for the GIL, so the waiter's best move is to hand it over.
# POSIX only.
pause = os.sched_yield


class OpKind(enum.Enum):
    """The three set operations."""

    SEARCH = "SEARCH"
    INSERT = "INSERT"
    DELETE = "DELETE"


def check_key(key: int) -> None:
    """Reject sentinels, bools and anything that is not an in-range int.

    The trees' operations run this test inline, since the call costs about
    twice the test itself (CPython 3.11, x86-64), and call this only to
    raise its error, so the message has one definition.
    """
    # A stored True would be written to a history as a word that
    # History.from_lines cannot read back, so bools are refused too.
    if type(key) is not int or not NEG_SENTINEL < key < POS_SENTINEL:
        raise ValueError(
            f"key must be an integer strictly between {NEG_SENTINEL} and "
            f"{POS_SENTINEL}, got {key!r}"
        )


class SeqOracle:
    """Single-threaded reference set.

    The oracle defines the return-value contract every tree must match:
    search reports membership, insert returns True only when the key was
    absent, delete returns True only when the key was present. It is the
    ground truth for equivalence tests and for replaying histories.
    """

    __slots__ = ("_keys",)

    def __init__(self, initial=()):
        self._keys: set[int] = set()
        for key in initial:
            check_key(key)
            self._keys.add(key)

    def search(self, key: int) -> bool:
        check_key(key)
        return key in self._keys

    def insert(self, key: int) -> bool:
        check_key(key)
        if key in self._keys:
            return False
        self._keys.add(key)
        return True

    def delete(self, key: int) -> bool:
        check_key(key)
        if key in self._keys:
            self._keys.discard(key)
            return True
        return False

    def contents(self) -> list[int]:
        """Keys currently in the set, ascending."""
        return sorted(self._keys)


def check_mix(insert_pct: float, delete_pct: float, search_pct: float) -> None:
    """Reject a percentage mix that has a negative (or NaN) part or does
    not sum to 100."""
    if not min(insert_pct, delete_pct, search_pct) >= 0:
        raise ValueError("mix percentages must be non-negative")
    if not abs(insert_pct + delete_pct + search_pct - 100.0) <= 1e-9:
        raise ValueError("mix percentages must sum to 100")


def thread_rng(seed: int, stream: int) -> random.Random:
    """The generator for one op stream: distinct and deterministic per
    (seed, stream index), independent of hash seeds."""
    return random.Random(seed * 1_000_003 + stream)


def run_threads(
    body, threads: int, budget_s: float, switch_interval: float | None = None
) -> list[int]:
    """Run ``body(tid, start_ns)`` on ``threads`` daemon threads and return
    the indexes of those still alive when ``budget_s`` seconds have passed.

    A barrier releases all threads together, and its action stamps the one
    monotonic ``start_ns`` every thread is given. The first exception a body
    raises is re-raised here as a ``RuntimeError`` naming its thread. If a
    thread cannot be started, the barrier is broken, the threads already
    started are joined within the budget and the start error is re-raised.
    ``switch_interval``, when given, is the interpreter's thread switch
    interval for the run; the old value is restored on return.
    """
    start_ns: list[int] = []
    barrier = threading.Barrier(threads, action=lambda: start_ns.append(time.monotonic_ns()))
    errors: list[tuple[int, BaseException]] = []

    def run(tid: int) -> None:
        try:
            barrier.wait()
            body(tid, start_ns[0])
        except BaseException as exc:
            errors.append((tid, exc))

    workers = [
        threading.Thread(target=run, args=(tid,), daemon=True, name=f"cbst-{tid}")
        for tid in range(threads)
    ]
    old_interval = sys.getswitchinterval()
    if switch_interval is not None:
        sys.setswitchinterval(switch_interval)
    started = []
    try:
        for t in workers:
            t.start()
            started.append(t)
    except BaseException:
        # The workers already started would wait at the barrier for ever.
        barrier.abort()
        raise
    finally:
        deadline = time.monotonic() + budget_s
        for t in started:
            t.join(max(0.0, deadline - time.monotonic()))
        sys.setswitchinterval(old_interval)
    # Bodies run only once the barrier has released every thread, so no
    # thread can find it broken: the first error is the cause.
    if errors:
        tid, exc = errors[0]
        raise RuntimeError(f"worker {tid} failed: {exc!r}") from exc
    return [tid for tid, t in enumerate(workers) if t.is_alive()]


def draw_op(rng, insert_pct: float, delete_pct: float, key_range: int):
    """Draw one (operation, key) pair from a percentage mix.

    Consumes the mix roll, then the key, in a fixed order, so identical
    seeds replay identical operation streams. The remaining probability
    mass after insert and delete goes to search. ``rng`` is a
    ``random.Random``: the key is drawn with the ``getrandbits`` rejection
    loop that its ``randrange(key_range)`` runs (CPython 3.11), so the
    stream is the same, without that method's argument checks.
    :func:`cbst.verify.run_stress` runs this rule inline, and its tests pin
    the two to the same streams.
    """
    r = rng.random() * 100.0
    bits = key_range.bit_length()
    key = rng.getrandbits(bits)
    while key >= key_range:
        key = rng.getrandbits(bits)
    if r < insert_pct:
        return OpKind.INSERT, key
    if r < insert_pct + delete_pct:
        return OpKind.DELETE, key
    return OpKind.SEARCH, key
