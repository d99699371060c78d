"""Try-lock wrapper classes, kept as the benchmark's lock-layer probes.

No tree uses these classes: every node a variant locks carries a bare
``threading.Lock``. tn's version stamp is a plain slot on the node, and
fem's mark takes no slot: a delete marks a router by storing the always-held
lock ``cbst.tree._RETIRED`` in its ``lock`` slot. They stay only because
``perfbench/layers.py`` times their construction, acquire and release in
traced runs.

All three locks are non-blocking: ``try_acquire`` either takes the lock and
returns True or returns False immediately, and callers run their own retry
loops. None of them spin or queue.

The read-modify-write steps of :class:`TicketLock` are guarded by an
internal mutex, because ``x += 1`` is not atomic.
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


class FlagMarkWord(FlagLock):
    """An ownership flag paired with a ``marked`` slot: the size of a lock
    and mark word."""

    __slots__ = ("marked",)

    def __init__(self):
        super().__init__()
        self.marked = False


class TicketLock:
    """A (ticket, version) counter pair; locked while ticket != version.

    ``try_acquire`` advances the ticket only when the counters agree, and
    ``release`` advances the version.
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
