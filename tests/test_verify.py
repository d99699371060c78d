import bisect
import os
import random
import statistics
import sys
import threading
from pathlib import Path

import pytest

import cbst.verify
from cbst.core import OpKind
from cbst.tree import VARIANT_NAMES, new_tree
from cbst.verify import (
    DeadlockSuspectedError,
    Event,
    History,
    HistoryFormatError,
    HistoryTooLargeError,
    IncompleteHistoryError,
    StressConfig,
    brute_force_linearizable,
    check_balance,
    check_linearizable,
    check_structure,
    run_stress,
)

FIXTURES = Path(__file__).parent / "fixtures"


def overlap_share(history):
    """Share of operations whose interval overlaps, ends included, the
    interval of some operation on another thread."""
    ops = history.operations()
    by_thread = {}
    for op in ops:
        by_thread.setdefault(op.thread_id, []).append(op)
    # A thread's operations are sequential, so its responses ascend too.
    responds = {tid: [o.respond_ts for o in tops] for tid, tops in by_thread.items()}
    overlapping = 0
    for op in ops:
        for tid, tops in by_thread.items():
            if tid == op.thread_id:
                continue
            i = bisect.bisect_left(responds[tid], op.invoke_ts)
            if i < len(tops) and tops[i].invoke_ts <= op.respond_ts:
                overlapping += 1
                break
    return overlapping / len(ops)


def interrupted_share(history):
    """Share of operations during whose interval, ends excluded, another
    thread stamped an event."""
    ops = history.operations()
    stamps = {}
    for op in ops:
        stamps.setdefault(op.thread_id, []).extend((op.invoke_ts, op.respond_ts))
    for ts in stamps.values():
        ts.sort()
    interrupted = 0
    for op in ops:
        for tid, ts in stamps.items():
            if tid == op.thread_id:
                continue
            i = bisect.bisect_right(ts, op.invoke_ts)
            if i < len(ts) and ts[i] < op.respond_ts:
                interrupted += 1
                break
    return interrupted / len(ops)


def recorded_shares(measure):
    """``measure`` of recorded fem runs, 2 threads x 1,000 ops on 64 keys at
    20/10/70, seeds 0-2."""
    shares = []
    for seed in range(3):
        cfg = StressConfig(variant="fem", threads=2, key_range=64,
                           insert_pct=20, delete_pct=10, search_pct=70,
                           seed=seed, ops_per_thread=1000)
        history, _ = run_stress(cfg)
        shares.append(measure(history))
    return shares


def on_worker_start(monkeypatch, hook):
    """Call ``hook(tid)`` on each run_stress worker thread as it starts,
    before its first operation."""
    thread_rng = cbst.verify.thread_rng

    def start(seed, tid):
        hook(tid)
        return thread_rng(seed, tid)

    monkeypatch.setattr(cbst.verify, "thread_rng", start)


def make_history(spec):
    """Build a history from (tid, kind, op, key, result, ts) tuples."""
    events = []
    seqs = {}
    for tid, kind, op, key, result, ts in spec:
        seq = seqs.get(tid, 0)
        seqs[tid] = seq + 1
        events.append(Event(tid, seq, kind, op, key, result, ts))
    return History(events)


class TestHistorySerialization:
    def test_round_trip(self):
        h = make_history([
            (0, "INVOKE", OpKind.INSERT, 5, None, 100),
            (1, "INVOKE", OpKind.SEARCH, 5, None, 150),
            (0, "RESPOND", OpKind.INSERT, 5, True, 200),
            (1, "RESPOND", OpKind.SEARCH, 5, True, 250),
        ])
        again = History.from_lines(h.to_lines())
        assert again.events == h.events

    def test_line_format(self):
        h = make_history([
            (3, "INVOKE", OpKind.DELETE, -7, None, 42),
            (3, "RESPOND", OpKind.DELETE, -7, False, 99),
        ])
        assert h.to_lines() == [
            "3 0 INVOKE DELETE -7 42",
            "3 1 RESPOND DELETE -7 false 99",
        ]

    def test_save_load(self, tmp_path):
        h = make_history([
            (0, "INVOKE", OpKind.INSERT, 1, None, 10),
            (0, "RESPOND", OpKind.INSERT, 1, True, 20),
        ])
        path = tmp_path / "run.history"
        h.save(path)
        assert History.load(path).events == h.events

    @pytest.mark.parametrize("bad", [
        "0 0 PING INSERT 5 100",
        "0 0 INVOKE UPSERT 5 100",
        "0 0 RESPOND INSERT 5 yes 100",
        "0 0 INVOKE INSERT",
        "x 0 INVOKE INSERT 5 100",
    ])
    def test_format_errors(self, bad):
        with pytest.raises(HistoryFormatError) as err:
            History.from_lines([bad])
        assert "line 1" in str(err.value)

    def test_blank_lines_skipped(self):
        h = History.from_lines(["", "0 0 INVOKE INSERT 5 100", "  ",
                                "0 1 RESPOND INSERT 5 true 200"])
        assert len(h) == 2


class TestOperationPairing:
    def test_unanswered_invoke_rejected(self):
        h = make_history([(0, "INVOKE", OpKind.INSERT, 5, None, 100)])
        with pytest.raises(IncompleteHistoryError):
            h.operations()

    def test_mismatched_respond_rejected(self):
        h = make_history([
            (0, "INVOKE", OpKind.INSERT, 5, None, 100),
            (0, "RESPOND", OpKind.DELETE, 5, True, 200),
        ])
        with pytest.raises(IncompleteHistoryError):
            h.operations()

    def test_respond_before_invoke_rejected(self):
        h = make_history([
            (0, "INVOKE", OpKind.INSERT, 5, None, 200),
            (0, "RESPOND", OpKind.INSERT, 5, True, 100),
        ])
        with pytest.raises(IncompleteHistoryError):
            h.operations()

    def test_double_invoke_rejected(self):
        h = make_history([
            (0, "INVOKE", OpKind.INSERT, 5, None, 100),
            (0, "INVOKE", OpKind.INSERT, 6, None, 150),
        ])
        with pytest.raises(IncompleteHistoryError):
            h.operations()

    def test_operations_sorted_by_invocation(self):
        h = make_history([
            (1, "INVOKE", OpKind.SEARCH, 2, None, 50),
            (0, "INVOKE", OpKind.INSERT, 1, None, 100),
            (1, "RESPOND", OpKind.SEARCH, 2, False, 150),
            (0, "RESPOND", OpKind.INSERT, 1, True, 200),
        ])
        ops = h.operations()
        assert [op.invoke_ts for op in ops] == [50, 100]


class TestCheckLinearizable:
    def test_empty_history(self):
        assert check_linearizable(History([])) is True

    def test_sequential_legal(self):
        h = make_history([
            (0, "INVOKE", OpKind.INSERT, 5, None, 1),
            (0, "RESPOND", OpKind.INSERT, 5, True, 2),
            (0, "INVOKE", OpKind.SEARCH, 5, None, 3),
            (0, "RESPOND", OpKind.SEARCH, 5, True, 4),
            (0, "INVOKE", OpKind.DELETE, 5, None, 5),
            (0, "RESPOND", OpKind.DELETE, 5, True, 6),
        ])
        assert check_linearizable(h) is True

    def test_sequential_illegal(self):
        h = make_history([
            (0, "INVOKE", OpKind.INSERT, 5, None, 1),
            (0, "RESPOND", OpKind.INSERT, 5, True, 2),
            (0, "INVOKE", OpKind.SEARCH, 5, None, 3),
            (0, "RESPOND", OpKind.SEARCH, 5, False, 4),
        ])
        assert check_linearizable(h) is False
        assert check_linearizable(lost_insert_history(search_overlaps_insert=False)) is False

    def test_overlap_permits_reordering(self):
        h = make_history([
            (0, "INVOKE", OpKind.INSERT, 5, None, 10),
            (1, "INVOKE", OpKind.SEARCH, 5, None, 15),
            (1, "RESPOND", OpKind.SEARCH, 5, False, 25),
            (0, "RESPOND", OpKind.INSERT, 5, True, 30),
        ])
        assert check_linearizable(h) is True
        assert check_linearizable(lost_insert_history(search_overlaps_insert=True)) is True

    def test_equal_timestamps_count_as_overlap(self):
        h = make_history([
            (0, "INVOKE", OpKind.INSERT, 5, None, 10),
            (0, "RESPOND", OpKind.INSERT, 5, True, 20),
            (1, "INVOKE", OpKind.SEARCH, 5, None, 20),
            (1, "RESPOND", OpKind.SEARCH, 5, False, 30),
        ])
        # respond at 20 and invoke at 20 overlap: search may order first
        assert check_linearizable(h) is True

    def test_fixture_rejected(self):
        h = History.load(FIXTURES / "non_linearizable.history")
        assert check_linearizable(h) is False
        assert brute_force_linearizable(h) is False

    def test_oversized_history_refused(self):
        # The cost follows overlap per key, not length: 10,000 sequential
        # operations are decided, while 21 mutually overlapping searches on
        # one key, never linearizable because one of them reads true, reach
        # the engine's state bound.
        assert check_linearizable(sequential_history(10_000)) is True
        with pytest.raises(HistoryTooLargeError):
            check_linearizable(overlapping_searches(21))

    def test_set_starts_empty(self):
        h = make_history([
            (0, "INVOKE", OpKind.SEARCH, 5, None, 1),
            (0, "RESPOND", OpKind.SEARCH, 5, True, 2),
        ])
        assert check_linearizable(h) is False


SET_CYCLE = [(OpKind.INSERT, True), (OpKind.SEARCH, True),
             (OpKind.DELETE, True), (OpKind.SEARCH, False)]


def sequential_history(n_ops):
    """One thread cycling insert/search/delete/search over seven keys."""
    spec = []
    for j in range(n_ops):
        op, result = SET_CYCLE[j % 4]
        key = j // 4 % 7
        spec += [(0, "INVOKE", op, key, None, 2 * j),
                 (0, "RESPOND", op, key, result, 2 * j + 1)]
    return make_history(spec)


def lost_insert_history(search_overlaps_insert):
    """5,000 operations on one key cycling insert/search/delete/search, in
    which one search after a successful insert misses the key; that search
    runs on its own thread and either strictly follows the insert or
    overlaps it."""
    spec, late = [], []
    for j in range(5000):
        op, result = SET_CYCLE[j % 4]
        start = 10 * j
        if j == 2401:
            start -= 8 if search_overlaps_insert else 0
            late += [(1, "INVOKE", op, 5, None, start),
                     (1, "RESPOND", op, 5, False, start + 5)]
        else:
            spec += [(0, "INVOKE", op, 5, None, start),
                     (0, "RESPOND", op, 5, result, start + 5)]
    return make_history(spec + late)


def overlapping_searches(n_ops):
    """n_ops mutually overlapping searches of a never-inserted key; all but
    one read false."""
    spec = []
    for t in range(n_ops):
        spec += [(t, "INVOKE", OpKind.SEARCH, 7, None, t),
                 (t, "RESPOND", OpKind.SEARCH, 7, t == n_ops // 2, 100 + t)]
    return make_history(spec)


def random_history(rng, max_ops):
    """Synthetic well-formed history with random overlap and random results."""
    n_threads = rng.randint(1, 3)
    n_ops = rng.randint(1, max_ops)
    owners = [rng.randrange(n_threads) for _ in range(n_ops)]
    kinds = [rng.choice((OpKind.SEARCH, OpKind.INSERT, OpKind.DELETE)) for _ in range(n_ops)]
    keys = [rng.randrange(2) for _ in range(n_ops)]
    results = [rng.random() < 0.5 for _ in range(n_ops)]

    events = []
    seqs = {t: 0 for t in range(n_threads)}
    open_op: dict[int, int] = {}
    todo = list(range(n_ops))
    tick = 0
    while todo or open_op:
        # Randomly either open the next op on a free thread or close one.
        closable = list(open_op)
        startable = [i for i in todo if owners[i] not in open_op]
        if closable and (not startable or rng.random() < 0.5):
            tid = rng.choice(closable)
            i = open_op.pop(tid)
            events.append(Event(tid, seqs[tid], "RESPOND", kinds[i], keys[i], results[i], tick))
        else:
            i = rng.choice(startable)
            tid = owners[i]
            todo.remove(i)
            events.append(Event(tid, seqs[tid], "INVOKE", kinds[i], keys[i], None, tick))
            open_op[tid] = i
        seqs[tid] += 1
        tick += 1
    return History(events)


class TestCheckerAgainstBruteForce:
    def test_agreement_on_random_histories(self):
        rng = random.Random(4242)
        seen_true = seen_false = 0
        for _ in range(200):
            h = random_history(rng, max_ops=7)
            fast = check_linearizable(h)
            slow = brute_force_linearizable(h)
            assert fast == slow, "\n".join(h.to_lines())
            if fast:
                seen_true += 1
            else:
                seen_false += 1
        # the generator must produce both outcomes or the test is vacuous
        assert seen_true > 10 and seen_false > 10


class TestCheckBalance:
    def _op_events(self, tid, op, key, result, start, end):
        return [
            (tid, "INVOKE", op, key, None, start),
            (tid, "RESPOND", op, key, result, end),
        ]

    def test_clean_cycle_balances(self):
        h = make_history(
            self._op_events(0, OpKind.INSERT, 5, True, 1, 2)
            + self._op_events(0, OpKind.DELETE, 5, True, 3, 4)
        )
        assert check_balance(h, []) == []

    def test_present_key_needs_net_one(self):
        h = make_history(self._op_events(0, OpKind.INSERT, 5, True, 1, 2))
        assert check_balance(h, [5]) == []
        assert check_balance(h, []) != []

    def test_untouched_final_key_flagged(self):
        h = History([])
        violations = check_balance(h, [9])
        assert violations and "9" in violations[0]

    def test_double_insert_infeasible(self):
        h = make_history(
            self._op_events(0, OpKind.INSERT, 5, True, 1, 2)
            + self._op_events(0, OpKind.INSERT, 5, True, 3, 4)
        )
        assert check_balance(h, []) != []

    def test_failed_ops_ignored(self):
        h = make_history(
            self._op_events(0, OpKind.INSERT, 5, True, 1, 2)
            + self._op_events(0, OpKind.INSERT, 5, False, 3, 4)
            + self._op_events(0, OpKind.SEARCH, 5, True, 5, 6)
        )
        assert check_balance(h, [5]) == []

    def test_overlap_rescues_respond_order(self):
        # Respond order reads insert, insert, but the delete's window
        # overlaps the second insert, so delete-then-insert is feasible.
        h = make_history(
            self._op_events(0, OpKind.INSERT, 5, True, 0, 1)
            + self._op_events(1, OpKind.DELETE, 5, True, 10, 20)
            + self._op_events(2, OpKind.INSERT, 5, True, 12, 14)
        )
        assert check_balance(h, [5]) == []

    def test_strictly_ordered_inserts_stay_infeasible(self):
        h = make_history(
            self._op_events(0, OpKind.INSERT, 5, True, 0, 1)
            + self._op_events(1, OpKind.INSERT, 5, True, 10, 14)
            + self._op_events(2, OpKind.DELETE, 5, True, 20, 25)
        )
        assert check_balance(h, [5]) != []


class TestRunStress:
    def test_single_thread_signature_deterministic(self):
        cfg = StressConfig(variant="fem", threads=1, key_range=16, seed=42,
                           ops_per_thread=100)
        h1, t1 = run_stress(cfg)
        h2, t2 = run_stress(cfg)
        streams = [
            [(o.thread_id, o.op, o.key, o.result) for o in h.operations()]
            for h in (h1, h2)
        ]
        assert streams[0] == streams[1]
        assert t1.collect_leaf_keys() == t2.collect_leaf_keys()

    def test_multi_thread_op_streams_deterministic(self):
        cfg = StressConfig(variant="fem", threads=3, key_range=8, seed=7,
                           ops_per_thread=50)
        streams = []
        for _ in range(2):
            h, _ = run_stress(cfg)
            per_thread = {}
            for e in sorted(h.events, key=lambda e: (e.thread_id, e.seq)):
                if e.kind == "INVOKE":
                    per_thread.setdefault(e.thread_id, []).append((e.op, e.key))
            streams.append(per_thread)
        assert streams[0] == streams[1]

    def test_event_counts_match_ops(self):
        cfg = StressConfig(variant="tn", threads=2, key_range=8, seed=1,
                           ops_per_thread=25)
        h, _ = run_stress(cfg)
        assert len(h) == 2 * 2 * 25
        assert len(h.operations()) == 50

    def test_config_validation(self):
        with pytest.raises(ValueError, match="ops_per_thread must be set"):
            StressConfig(variant="fem")
        with pytest.raises(ValueError):
            StressConfig(variant="seq", threads=2, ops_per_thread=5)
        with pytest.raises(ValueError):
            StressConfig(variant="fem", insert_pct=50, delete_pct=50,
                         search_pct=50, ops_per_thread=5)
        with pytest.raises(ValueError, match="ops_per_thread"):
            StressConfig(variant="fem", ops_per_thread=-1)
        for timeout_s in (0, -1, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="timeout_s"):
                StressConfig(variant="fem", ops_per_thread=5, timeout_s=timeout_s)

    def test_key_range_ceiling(self):
        # Keys are drawn from [0, key_range) and must stay below the
        # positive sentinel.
        StressConfig(key_range=2**63 - 1, ops_per_thread=5)
        with pytest.raises(ValueError, match="key_range"):
            StressConfig(key_range=2**63, ops_per_thread=5)

    @pytest.mark.parametrize("variant", VARIANT_NAMES)
    def test_zero_ops_give_empty_history(self, variant):
        cfg = StressConfig(variant=variant, threads=1 if variant == "seq" else 2,
                           ops_per_thread=0)
        h, tree = run_stress(cfg)
        assert len(h) == 0
        assert check_structure(tree).ok

    def test_worker_error_propagates(self):
        cfg = StressConfig(variant="fem", threads=2, key_range=4, seed=0,
                           ops_per_thread=5)
        import cbst.verify as verify_mod

        class Exploding:
            variant = "fem"

            def insert(self, key):
                raise ZeroDivisionError("boom")

            delete = search = insert

        real = verify_mod.new_tree
        verify_mod.new_tree = lambda v: Exploding()
        interval = sys.getswitchinterval()
        try:
            with pytest.raises(RuntimeError, match="boom"):
                run_stress(cfg)
        finally:
            verify_mod.new_tree = real
        assert sys.getswitchinterval() == interval

    def test_deadlock_verdict_names_stuck_thread(self):
        import cbst.verify as verify_mod

        gate = threading.Event()

        class Stuck:
            variant = "fem"

            def insert(self, key):
                gate.wait(60)
                return False

            delete = search = insert

        real = verify_mod.new_tree
        verify_mod.new_tree = lambda v: Stuck()
        try:
            cfg = StressConfig(variant="fem", threads=2, key_range=4, seed=0,
                               ops_per_thread=3, timeout_s=0.5)
            with pytest.raises(DeadlockSuspectedError) as err:
                run_stress(cfg)
        finally:
            gate.set()
            verify_mod.new_tree = real
        assert err.value.thread_id in (0, 1)
        assert err.value.op is not None
        assert "last invoked" in str(err.value)

    def test_recorded_runs_overlap(self):
        # The hand-over between stamping an invocation and running it is
        # what makes recorded operations overlap: about 98 % do with it, and
        # 20-60 % without it.
        shares = recorded_shares(overlap_share)
        assert statistics.median(shares) >= 0.8, shares

    def test_verdict_names_hung_thread_not_hand_over_waiter(self, monkeypatch):
        # Worker 1 hangs inside its first operation and holds no tree lock.
        # Worker 0 never conflicts with it, but its next hand-over waits
        # for a stamp from worker 1 that never comes. The verdict must name
        # worker 1, and worker 0 must be let go rather than wait forever.
        gate = threading.Event()
        workers = {}

        def note_thread(tid):
            workers[tid] = threading.current_thread()

        def hung_tree(variant):
            tree = new_tree(variant)
            for name in ("insert", "delete", "search"):
                method = getattr(tree, name)

                def op(key, method=method):
                    if threading.current_thread() is workers.get(1):
                        gate.wait(60)
                    return method(key)

                setattr(tree, name, op)
            return tree

        on_worker_start(monkeypatch, note_thread)
        monkeypatch.setattr(cbst.verify, "new_tree", hung_tree)
        cfg = StressConfig(variant="fem", threads=2, key_range=64, seed=0,
                           ops_per_thread=1000, timeout_s=0.5)
        try:
            with pytest.raises(DeadlockSuspectedError) as err:
                run_stress(cfg)
            assert err.value.thread_id == 1
            assert err.value.op is not None
            workers[0].join(10)
            assert not workers[0].is_alive()
        finally:
            gate.set()
            workers[1].join(10)

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs thread CPU affinity")
    def test_recorded_runs_interleave_on_separate_cpus(self, monkeypatch):
        # Pin the threads to separate CPUs: a sched_yield then returns at
        # once and the yielder takes the GIL straight back, so after a
        # single pause another thread stamped an event inside only 2-8 % of
        # operations. Waiting for that stamp puts it inside about 69 %:
        # nearly all of the 70 % that hand over.
        cpus = sorted(os.sched_getaffinity(0))
        on_worker_start(monkeypatch, lambda tid: os.sched_setaffinity(0, {cpus[tid % len(cpus)]}))
        shares = recorded_shares(interrupted_share)
        assert statistics.median(shares) >= 0.6, shares

    def test_structure_and_balance_after_stress(self):
        cfg = StressConfig(variant="fe", threads=4, key_range=12,
                           insert_pct=40, delete_pct=30, search_pct=30,
                           seed=77, ops_per_thread=2000, timeout_s=60)
        history, tree = run_stress(cfg)
        assert check_structure(tree).ok
        assert check_balance(history, tree.collect_leaf_keys()) == []
