import random
import sys
import threading
import time

import pytest
from hypothesis import given, strategies as st

from cbst.core import (
    NEG_SENTINEL,
    POS_SENTINEL,
    OpKind,
    SeqOracle,
    check_key,
    draw_op,
    draw_stream,
    run_threads,
)
from oracle import apply_op

KEYS = st.integers(min_value=-1000, max_value=1000)


class TestKeyDomain:
    def test_sentinels_are_extreme_64_bit(self):
        assert NEG_SENTINEL == -(2**63)
        assert POS_SENTINEL == 2**63 - 1

    @pytest.mark.parametrize(
        "bad", [NEG_SENTINEL, POS_SENTINEL, "x", 1.5, None, True, False]
    )
    def test_check_key_rejects(self, bad):
        with pytest.raises(ValueError):
            check_key(bad)

    def test_check_key_accepts_in_range(self):
        check_key(0)
        check_key(-42)
        check_key(NEG_SENTINEL + 1)
        check_key(POS_SENTINEL - 1)


class TestSeqOracle:
    def test_empty_searches_false(self):
        o = SeqOracle()
        assert o.search(7) is False
        assert o.contents() == []

    def test_insert_then_delete_cycle(self):
        o = SeqOracle()
        assert o.insert(5) is True
        assert o.insert(5) is False
        assert o.search(5) is True
        assert o.delete(5) is True
        assert o.delete(5) is False
        assert o.search(5) is False

    def test_contents_sorted(self):
        o = SeqOracle(initial=[5, 1, 9])
        assert o.contents() == [1, 5, 9]
        assert o.search(5) is True

    def test_sentinel_rejected(self):
        o = SeqOracle()
        with pytest.raises(ValueError):
            o.insert(POS_SENTINEL)

    @pytest.mark.parametrize("bad", [True, False])
    def test_bool_keys_rejected(self, bad):
        o = SeqOracle()
        for method in (o.search, o.insert, o.delete):
            with pytest.raises(ValueError):
                method(bad)
        with pytest.raises(ValueError):
            SeqOracle(initial=[bad])
        assert o.contents() == []

    @given(st.lists(st.tuples(st.sampled_from(list(OpKind)), KEYS), max_size=200))
    def test_result_encodes_state_change(self, ops):
        o = SeqOracle()
        shadow = set()
        for op, key in ops:
            res = apply_op(o, op, key)
            if op is OpKind.SEARCH:
                assert res == (key in shadow)
            elif op is OpKind.INSERT:
                assert res == (key not in shadow)
                shadow.add(key)
            else:
                assert res == (key in shadow)
                shadow.discard(key)
        assert o.contents() == sorted(shadow)


class TestDrawOp:
    def test_deterministic_stream(self):
        a = random.Random(3)
        b = random.Random(3)
        for _ in range(500):
            assert draw_op(a, 20, 10, 64) == draw_op(b, 20, 10, 64)

    @pytest.mark.parametrize("key_range", [1, 2, 3, 64, 100, 1000, 2**20 + 1, 10**6, 2**63 - 1])
    def test_keys_are_randranges(self, key_range):
        # The key is drawn with the loop randrange runs, so the stream is
        # the one randrange gives.
        for seed in range(3):
            drawn, expected = random.Random(seed), random.Random(seed)
            for _ in range(300):
                _, key = draw_op(drawn, 20, 10, key_range)
                expected.random()
                assert key == expected.randrange(key_range)

    def test_key_in_range(self):
        rng = random.Random(1)
        for _ in range(1000):
            _, key = draw_op(rng, 9, 1, 17)
            assert 0 <= key < 17

    def test_degenerate_mixes(self):
        rng = random.Random(2)
        assert all(draw_op(rng, 100, 0, 4)[0] is OpKind.INSERT for _ in range(200))
        assert all(draw_op(rng, 0, 100, 4)[0] is OpKind.DELETE for _ in range(200))
        assert all(draw_op(rng, 0, 0, 4)[0] is OpKind.SEARCH for _ in range(200))

    def test_frequencies_roughly_match(self):
        rng = random.Random(9)
        n = 20000
        counts = {OpKind.INSERT: 0, OpKind.DELETE: 0, OpKind.SEARCH: 0}
        for _ in range(n):
            op, _ = draw_op(rng, 20, 10, 100)
            counts[op] += 1
        assert abs(counts[OpKind.INSERT] / n * 100 - 20) < 2
        assert abs(counts[OpKind.DELETE] / n * 100 - 10) < 2
        assert abs(counts[OpKind.SEARCH] / n * 100 - 70) < 2


class EdgeRandom(random.Random):
    """A generator whose ``random()`` lands exactly on one of ``edges`` on
    about a third of its calls, so that a mix threshold compared with the
    wrong operator changes the stream."""

    edges: tuple[float, ...] = ()

    def random(self):
        x = super().random()
        if self.edges and x < 1 / 3:
            return self.edges[int(x * 3 * len(self.edges))]
        return x


def edge_rng(seed, insert_pct, delete_pct):
    """An :class:`EdgeRandom` that lands on the mix's thresholds: roll * 100.0
    equals insert_pct, or insert_pct + delete_pct."""
    thresholds = (insert_pct, insert_pct + delete_pct)
    rng = EdgeRandom(seed)
    rng.edges = tuple(t / 100 for t in thresholds if t < 100)
    assert all(e * 100.0 in thresholds for e in rng.edges)
    return rng


class TestDrawStream:
    @pytest.mark.parametrize("mix", [
        (100, 0, 0), (0, 100, 0), (0, 0, 100), (20, 10, 70), (33.3, 33.3, 33.4),
    ], ids=lambda mix: "-".join(map(str, mix)))
    @pytest.mark.parametrize("key_range", [1, 2, 3, 64, 1000, 2**63 - 1])
    def test_is_draw_op_stream(self, key_range, mix):
        # n draws of draw_stream are n calls of draw_op on a twin generator,
        # and leave it in the same state. The generators land on the mix
        # thresholds.
        insert_pct, delete_pct, _ = mix
        rng, twin = edge_rng(5, insert_pct, delete_pct), edge_rng(5, insert_pct, delete_pct)
        kinds, keys = draw_stream(rng, insert_pct, delete_pct, key_range, 300)
        assert list(zip(kinds, keys)) == [draw_op(twin, insert_pct, delete_pct, key_range)
                                          for _ in range(300)]
        assert rng.getstate() == twin.getstate()


class TestRunThreads:
    def test_threads_share_one_start_at_the_given_interval(self):
        before = sys.getswitchinterval()
        seen = {}

        def body(tid, start_ns):
            seen[tid] = (start_ns, sys.getswitchinterval())

        t0 = time.monotonic_ns()
        assert run_threads(body, 3, 10, switch_interval=1e-5) == []
        assert sorted(seen) == [0, 1, 2]
        assert len(set(seen.values())) == 1
        start_ns, interval = seen[0]
        assert t0 <= start_ns <= time.monotonic_ns()
        assert interval == pytest.approx(1e-5)
        assert sys.getswitchinterval() == before

    def test_returns_threads_alive_at_the_budget(self):
        gate = threading.Event()

        def body(tid, _):
            if tid == 1:
                gate.wait(30)

        try:
            stuck = run_threads(body, 3, 0.2)
        finally:
            gate.set()
        assert stuck == [1]

    def test_error_names_its_worker(self):
        before = sys.getswitchinterval()

        def body(tid, _):
            if tid == 1:
                raise ZeroDivisionError("boom")

        with pytest.raises(RuntimeError, match="worker 1 failed.*boom") as err:
            run_threads(body, 2, 10, switch_interval=1e-5)
        assert isinstance(err.value.__cause__, ZeroDivisionError)
        assert sys.getswitchinterval() == before

    def test_start_failure_frees_the_started_workers(self, monkeypatch):
        # Thread 1 cannot start, so only thread 0 ever reaches the barrier.
        real_start = threading.Thread.start
        real_barrier = threading.Barrier
        started = []
        barriers = []

        def failing_start(thread):
            if started:
                raise RuntimeError("can't start new thread")
            started.append(thread)
            real_start(thread)

        def recording_barrier(*args, **kwargs):
            barriers.append(real_barrier(*args, **kwargs))
            return barriers[-1]

        monkeypatch.setattr(threading.Thread, "start", failing_start)
        monkeypatch.setattr(threading, "Barrier", recording_barrier)
        before = sys.getswitchinterval()
        ran = []
        try:
            with pytest.raises(RuntimeError, match="can't start new thread"):
                run_threads(lambda tid, _: ran.append(tid), 3, 5, switch_interval=1e-5)
            stranded = [t.name for t in started if t.is_alive()]
        finally:
            # Frees a worker that run_threads left waiting at the barrier.
            for barrier in barriers:
                barrier.abort()
        assert [t.name for t in started] == ["cbst-0"]
        assert stranded == []
        assert ran == []
        assert sys.getswitchinterval() == before
