"""Try-lock wrapper classes, kept as the benchmark's lock-layer probes.

No tree uses these classes: every node a variant locks carries a bare
``threading.Lock``, and fem's mark and tn's version stamp are plain slots on
the node (see ``cbst.tree``). They stay only because ``perfbench/layers.py``
times their construction, acquire and release in traced runs.

All three locks are non-blocking: ``try_acquire`` either takes the lock and
returns True or returns False immediately, and callers run their own retry
loops. None of them spin or queue.

On CPython the interpreter lock makes single attribute loads and stores
atomic and sequentially consistent, which is what the plain ``marked`` and
``version`` fields rely on; the compound read-modify-write steps of
:class:`TicketLock` are guarded by an internal mutex because ``x += 1`` is
not atomic.
"""

from __future__ import annotations

import threading


class FlagLock:
    """A plain ownership flag: at most one holder at a time.

    ``try_acquire`` is a single atomic test-and-set; ``release`` must only be
    called by the current holder and raises if the flag is not held.
    """

    __slots__ = ("_flag",)

    def __init__(self):
        self._flag = threading.Lock()

    def try_acquire(self) -> bool:
        return self._flag.acquire(False)

    def release(self) -> None:
        self._flag.release()

    @property
    def held(self) -> bool:
        return self._flag.locked()


class FlagMarkWord(FlagLock):
    """An ownership flag paired with a logical-retirement mark.

    The mark may only be flipped while the flag is held. Because rollback
    paths clear the mark strictly before releasing the flag, and successful
    removals never release at all, any node observed marked while its flag
    is free (or while the observer holds the flag) is retired for good.
    """

    __slots__ = ("marked",)

    def __init__(self):
        super().__init__()
        self.marked = False


class TicketLock:
    """A (ticket, version) counter pair; locked while ticket != version.

    ``try_acquire`` advances the ticket only when the counters agree, and
    ``release`` advances the version, so the version doubles as a write
    stamp: a reader that sampled version v and later observes v unchanged
    knows no critical section committed on this lock in between.
    """

    __slots__ = ("_guard", "ticket", "version")

    def __init__(self):
        self._guard = threading.Lock()
        self.ticket = 0
        self.version = 0

    def try_acquire(self) -> bool:
        with self._guard:
            if self.ticket == self.version:
                self.ticket += 1
                return True
            return False

    def release(self) -> None:
        with self._guard:
            if self.ticket == self.version:
                raise RuntimeError("release of a TicketLock that is not held")
            self.version += 1

    def counters(self) -> tuple[int, int]:
        """A consistent (ticket, version) snapshot, for observers."""
        with self._guard:
            return self.ticket, self.version

    @property
    def held(self) -> bool:
        with self._guard:
            return self.ticket != self.version
