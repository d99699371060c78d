import threading
import time

import pytest

from cbst.core import run_threads
from cbst.locks import FlagLock, FlagMarkWord, TicketLock

# The mutual-exclusion stress drives a plain unguarded counter through each
# lock; any exclusion failure shows up as lost increments.
STRESS_THREADS = 4
STRESS_ACQUISITIONS = 120_000


def _exclusion_stress(lock):
    per_thread = STRESS_ACQUISITIONS // STRESS_THREADS
    counter = [0]
    acquired = [0] * STRESS_THREADS

    def work(tid, _start_ns):
        got = 0
        while got < per_thread:
            if lock.try_acquire():
                counter[0] += 1
                got += 1
                lock.release()
            else:
                time.sleep(0)
        acquired[tid] = got

    assert run_threads(work, STRESS_THREADS, 120, switch_interval=1e-5) == []
    assert sum(acquired) == STRESS_THREADS * per_thread
    assert counter[0] == STRESS_THREADS * per_thread


class TestFlagLock:
    def test_acquire_release_cycle(self):
        lock = FlagLock()
        assert lock.try_acquire() is True
        assert lock.try_acquire() is False
        lock.release()
        assert lock.try_acquire() is True

    def test_release_unheld_raises(self):
        with pytest.raises(RuntimeError):
            FlagLock().release()

    def test_two_racing_acquires_one_winner(self):
        # Repeated two-thread races on a fresh lock: exactly one try wins.
        for _ in range(300):
            lock = FlagLock()
            barrier = threading.Barrier(2)
            results = [None, None]

            def attempt(i):
                barrier.wait()
                results[i] = lock.try_acquire()

            ts = [threading.Thread(target=attempt, args=(i,)) for i in range(2)]
            for t in ts:
                t.start()
            for t in ts:
                t.join()
            assert sorted(results) == [False, True]

    def test_mutual_exclusion_stress(self):
        _exclusion_stress(FlagLock())


class TestFlagMarkWord:
    def test_starts_unmarked(self):
        word = FlagMarkWord()
        assert word.marked is False
        assert word.try_acquire() is True

    def test_mark_survives_release(self):
        word = FlagMarkWord()
        assert word.try_acquire()
        word.marked = True
        word.release()
        # Released while marked: retirement is permanent by protocol.
        assert word.marked is True
        assert word.try_acquire()

    def test_rollback_unmarks_before_release(self):
        word = FlagMarkWord()
        assert word.try_acquire()
        word.marked = True
        word.marked = False
        word.release()
        assert word.marked is False

    def test_mark_visible_across_threads(self):
        word = FlagMarkWord()
        seen = []

        def observer():
            # The mark is set under the flag, so once the flag is free again
            # the observer can take it and see the mark.
            while True:
                if word.marked and word.try_acquire():
                    word.release()
                    seen.append(True)
                    return
                time.sleep(0)

        t = threading.Thread(target=observer)
        t.start()
        assert word.try_acquire()
        word.marked = True
        word.release()
        t.join(30)
        assert seen == [True]

    def test_mutual_exclusion_stress(self):
        _exclusion_stress(FlagMarkWord())


class TestTicketLock:
    def test_counters_advance_in_lockstep(self):
        # The lock is held exactly while the counters differ.
        lock = TicketLock()
        assert (lock.ticket, lock.version) == (0, 0)
        for i in range(1, 6):
            assert lock.try_acquire() is True
            assert (lock.ticket, lock.version) == (i, i - 1)
            assert lock.try_acquire() is False
            lock.release()
            assert (lock.ticket, lock.version) == (i, i)
        assert lock.version == 5

    def test_release_unheld_raises(self):
        with pytest.raises(RuntimeError):
            TicketLock().release()

    def test_version_stamps_detect_writes(self):
        # Only a release advances the version.
        lock = TicketLock()
        stamp = lock.version
        assert lock.try_acquire()
        assert lock.version == stamp
        lock.release()
        assert lock.version == stamp + 1

    def test_gap_stays_in_unit_interval_under_stress(self):
        lock = TicketLock()
        stop = threading.Event()
        bad = []

        def observer():
            # Under the lock no other thread moves the counters, and the
            # holder's acquire left them one apart.
            while not stop.is_set():
                if lock.try_acquire():
                    ticket, version = lock.ticket, lock.version
                    lock.release()
                    if ticket - version != 1:
                        bad.append((ticket, version))
                        return

        obs = threading.Thread(target=observer)
        obs.start()
        for _ in range(20_000):
            if lock.try_acquire():
                lock.release()
        stop.set()
        obs.join(30)
        assert bad == []

    def test_mutual_exclusion_stress(self):
        _exclusion_stress(TicketLock())
