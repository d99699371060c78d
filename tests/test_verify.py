import ast
import random
import sys
import threading
import time
from pathlib import Path

import pytest

import cbst.verify
from cbst.core import OpKind, draw_op, thread_rng
from cbst.tree import VARIANT_NAMES, new_tree
from cbst.verify import (
    DeadlockSuspectedError,
    Event,
    History,
    HistoryFormatError,
    IncompleteHistoryError,
    StressConfig,
    check_balance,
    check_linearizable,
    check_structure,
    count_overlapping,
    run_stress,
)

from oracle import brute_force_linearizable

FIXTURES = Path(__file__).parent / "fixtures"


def on_worker_start(monkeypatch, hook):
    """Call ``hook(tid)`` on each run_stress worker thread as it starts,
    before its first operation."""
    run_threads = cbst.verify.run_threads

    def hooked(body, *args, **kwargs):
        def start(tid, start_ns):
            hook(tid)
            body(tid, start_ns)

        return run_threads(start, *args, **kwargs)

    monkeypatch.setattr(cbst.verify, "run_threads", hooked)


def drawn_streams(cfg, rng_of=thread_rng):
    """Each thread's (op, key) stream as draw_op draws it on the thread's
    generator, ``rng_of(seed, tid)``."""
    streams = {}
    for tid in range(cfg.threads):
        rng = rng_of(cfg.seed, tid)
        streams[tid] = [draw_op(rng, cfg.insert_pct, cfg.delete_pct, cfg.key_range)
                        for _ in range(cfg.ops_per_thread)]
    return streams


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


def edge_rng_of(cfg):
    """A ``thread_rng`` stand-in whose generators land on ``cfg``'s mix
    thresholds: roll * 100.0 equals insert_pct, or insert_pct + delete_pct."""
    thresholds = (cfg.insert_pct, cfg.insert_pct + cfg.delete_pct)
    edges = tuple(t / 100 for t in thresholds if t < 100)
    assert all(e * 100.0 in thresholds for e in edges)

    def rng_of(seed, stream):
        rng = EdgeRandom(seed * 1_000_003 + stream)
        rng.edges = edges
        return rng

    return rng_of


def invoked_streams(history):
    """Each thread's (op, key) invocations in a history, in invocation
    order."""
    streams = {}
    for o in history.operations():
        streams.setdefault(o.thread_id, []).append((o.op, o.key))
    return streams


def make_history(spec):
    """Build a history from (tid, kind, op, key, result, ts) tuples."""
    events = []
    seqs = {}
    for tid, kind, op, key, result, ts in spec:
        seq = seqs.get(tid, 0)
        seqs[tid] = seq + 1
        events.append(Event(tid, seq, kind, op, key, result, ts))
    return History(events)


def spec_lines(spec):
    """The saved-history lines of (tid, kind, op, key, result, ts) tuples,
    numbered as make_history numbers them."""
    lines = []
    seqs = {}
    for tid, kind, op, key, result, ts in spec:
        seq = seqs.get(tid, 0)
        seqs[tid] = seq + 1
        res = "" if result is None else f" {str(result).lower()}"
        lines.append(f"{tid} {seq} {kind} {op.value} {key}{res} {ts}")
    return lines


class TestHistorySerialization:
    def test_round_trip(self):
        h = make_history([
            (0, "INVOKE", OpKind.INSERT, 5, None, 100),
            (1, "INVOKE", OpKind.SEARCH, 5, None, 150),
            (0, "RESPOND", OpKind.INSERT, 5, True, 200),
            (1, "RESPOND", OpKind.SEARCH, 5, True, 250),
        ])
        again = History.from_lines(h.to_lines())
        assert again.to_lines() == h.to_lines()
        assert again.operations() == h.operations()

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
        again = History.load(path)
        assert again.to_lines() == h.to_lines()
        assert again.operations() == h.operations()

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

    def test_skipped_seqs_renumbered_from_zero(self):
        # Only each thread's seq order matters: seqs 0 and 5 pair, decide,
        # and are written back as 0 and 1.
        h = History.from_lines(["0 0 INVOKE INSERT 5 100", "0 5 RESPOND INSERT 5 true 200"])
        assert check_linearizable(h, [5]) is True
        assert h.to_lines() == ["0 0 INVOKE INSERT 5 100", "0 1 RESPOND INSERT 5 true 200"]


class TestOperationPairing:
    @staticmethod
    def assert_rejected(spec):
        # Pairing happens when a history is built, from events or from lines.
        with pytest.raises(IncompleteHistoryError):
            make_history(spec)
        with pytest.raises(IncompleteHistoryError):
            History.from_lines(spec_lines(spec))

    def test_unanswered_invoke_rejected(self):
        self.assert_rejected([(0, "INVOKE", OpKind.INSERT, 5, None, 100)])

    def test_mismatched_respond_rejected(self):
        self.assert_rejected([
            (0, "INVOKE", OpKind.INSERT, 5, None, 100),
            (0, "RESPOND", OpKind.DELETE, 5, True, 200),
        ])

    def test_respond_before_invoke_rejected(self):
        self.assert_rejected([
            (0, "INVOKE", OpKind.INSERT, 5, None, 200),
            (0, "RESPOND", OpKind.INSERT, 5, True, 100),
        ])

    def test_double_invoke_rejected(self):
        self.assert_rejected([
            (0, "INVOKE", OpKind.INSERT, 5, None, 100),
            (0, "INVOKE", OpKind.INSERT, 6, None, 150),
        ])

    def test_overlapping_operations_of_one_thread_rejected(self):
        # A thread's next INVOKE may share its previous RESPOND's stamp but
        # not precede it.
        self.assert_rejected([
            (0, "INVOKE", OpKind.INSERT, 5, None, 100),
            (0, "RESPOND", OpKind.INSERT, 5, True, 300),
            (0, "INVOKE", OpKind.SEARCH, 5, None, 200),
            (0, "RESPOND", OpKind.SEARCH, 5, True, 400),
        ])
        h = make_history([
            (0, "INVOKE", OpKind.INSERT, 5, None, 100),
            (0, "RESPOND", OpKind.INSERT, 5, True, 300),
            (0, "INVOKE", OpKind.SEARCH, 5, None, 300),
            (0, "RESPOND", OpKind.SEARCH, 5, True, 400),
        ])
        assert [op.invoke_ts for op in h.operations()] == [100, 300]

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

    def test_overlapping_history_decided_not_refused(self):
        # The cost follows each key's operation count, not how they overlap:
        # 10,000 sequential operations are decided, and so, within a second,
        # are 21 mutually overlapping searches on one key, never
        # linearizable because one of them reads true.
        assert check_linearizable(sequential_history(10_000)) is True
        t0 = time.perf_counter()
        assert check_linearizable(overlapping_searches(21)) is False
        assert time.perf_counter() - t0 < 1.0

    def test_final_keys_bind_every_key(self):
        h = make_history([
            (0, "INVOKE", OpKind.INSERT, 5, None, 1),
            (0, "RESPOND", OpKind.INSERT, 5, True, 2),
            (0, "INVOKE", OpKind.SEARCH, 6, None, 3),
            (0, "RESPOND", OpKind.SEARCH, 6, False, 4),
        ])
        assert check_linearizable(h, [5]) is True
        assert check_linearizable(h, []) is False
        assert check_linearizable(h, [5, 6]) is False
        # A final key that no operation touched has no witness.
        assert check_linearizable(h, [5, 9]) is False

    def test_wide_overlap_at_scale(self):
        # 5,000 operations on one key around a sequential witness, each
        # interval overlapping about 50 others: decided for the witness's
        # final presence and against the other, each within a second.
        h, present = point_history(random.Random(7), 5000, 500_000, 5_000)
        for final_keys, expected in (([0] if present else [], True),
                                     ([] if present else [0], False)):
            t0 = time.perf_counter()
            assert check_linearizable(h, final_keys) is expected
            assert time.perf_counter() - t0 < 1.0

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


def point_history(rng, n_ops, span, width):
    """n_ops operations on key 0, each on its own thread, with random
    intervals (invoked in [0, span), lasting under ``width``) and results
    legal in the order of a random point inside each; 4 in 5 are the insert
    or delete that flips the key. Returns the history and the key's final
    presence."""
    points = []
    for tid in range(n_ops):
        invoke = rng.randrange(span)
        respond = invoke + rng.randrange(width)
        points.append((rng.uniform(invoke, respond), tid, invoke, respond))
    spec, present = [], False
    for _, tid, invoke, respond in sorted(points):
        if rng.random() < 0.8:
            op = OpKind.DELETE if present else OpKind.INSERT
        else:
            op = rng.choice((OpKind.SEARCH, OpKind.INSERT, OpKind.DELETE))
        result = present if op is not OpKind.INSERT else not present
        if result and op is not OpKind.SEARCH:
            present = not present
        spec += [(tid, "INVOKE", op, 0, None, invoke),
                 (tid, "RESPOND", op, 0, result, respond)]
    return make_history(spec), present


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


def ops_spec(intervals):
    """(tid, invoke, respond) triples as make_history tuples: searches of
    key 0 that read false."""
    spec = []
    for tid, invoke, respond in intervals:
        spec += [(tid, "INVOKE", OpKind.SEARCH, 0, None, invoke),
                 (tid, "RESPOND", OpKind.SEARCH, 0, False, respond)]
    return spec


class TestCountOverlapping:
    def test_known_two_thread_share(self):
        # Thread 1's first operation overlaps thread 0's first, its second
        # touches thread 0's second at stamp 30, and the last of each
        # overlaps nothing: 4 of 6.
        h = make_history(ops_spec([
            (0, 0, 10), (0, 20, 30), (0, 40, 50),
            (1, 5, 15), (1, 30, 35), (1, 60, 70),
        ]))
        assert count_overlapping(h) == 4

    def test_turn_taking_threads_overlap_nothing(self):
        h = make_history(ops_spec([(0, 0, 10), (1, 11, 20), (0, 21, 30), (1, 31, 40)]))
        assert count_overlapping(h) == 0
        # Touching stamps on one thread are no overlap; an empty history
        # has none.
        assert count_overlapping(make_history(ops_spec([(0, 0, 10), (0, 10, 20)]))) == 0
        assert count_overlapping(History([])) == 0

    def test_agrees_with_pairwise_test(self):
        rng = random.Random(5)
        for _ in range(200):
            intervals = []
            for tid in range(rng.randint(1, 4)):
                ts = 0
                for _ in range(rng.randint(1, 6)):
                    invoke = ts + rng.randrange(3)
                    ts = invoke + rng.randrange(3)
                    intervals.append((tid, invoke, ts))
            expected = sum(
                any(t != u and i <= r2 and i2 <= r for u, i2, r2 in intervals)
                for t, i, r in intervals
            )
            assert count_overlapping(make_history(ops_spec(intervals))) == expected


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

    def test_final_presence_agrees_with_brute_force(self):
        # A final presence is the same constraint as one more search per
        # key, after every response, that reads it.
        rng = random.Random(2718)
        outcomes = []
        for _ in range(200):
            # point_history touches key 0 only.
            point, _ = point_history(rng, rng.randint(1, 7), 10, 10)
            for h, finals in ((random_history(rng, max_ops=7), ([], [0], [1], [0, 1])),
                              (point, ([], [0]))):
                spec = []
                for o in h.operations():
                    spec += [(o.thread_id, "INVOKE", o.op, o.key, None, o.invoke_ts),
                             (o.thread_id, "RESPOND", o.op, o.key, o.result, o.respond_ts)]
                end = max(o.respond_ts for o in h.operations())
                for final_keys in finals:
                    searches = []
                    for i, key in enumerate((0, 1)):
                        searches += [
                            (-1, "INVOKE", OpKind.SEARCH, key, None, end + 1 + 2 * i),
                            (-1, "RESPOND", OpKind.SEARCH, key, key in final_keys, end + 2 + 2 * i),
                        ]
                    fast = check_linearizable(h, final_keys)
                    slow = brute_force_linearizable(make_history(spec + searches))
                    assert fast == slow, ("\n".join(h.to_lines()), final_keys)
                    outcomes.append((check_linearizable(h), fast))
        # Both outcomes occur, and so do linearizable histories that end
        # at the wrong contents.
        assert outcomes.count((True, True)) > 10 and outcomes.count((False, False)) > 10
        assert outcomes.count((True, False)) > 10


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

    @pytest.mark.parametrize("record", [True, False], ids=["recorded", "unrecorded"])
    @pytest.mark.parametrize("variant, threads", [("seq", 1), ("fem", 1), ("fem", 2), ("fem", 3)])
    def test_workers_never_wait(self, variant, threads, record):
        # A worker only calls the tree and, in a recorded run, stamps and
        # keeps results: verify.py's code on the workers calls no
        # sched_yield and takes no lock. A with block on a lock shows only
        # as its __exit__ call. threading.setprofile reaches only the
        # threads started after it, which are the workers.
        calls = []

        def profile(frame, event, arg):
            if frame.f_code.co_filename == cbst.verify.__file__:
                if event == "call":
                    calls.append(frame.f_code.co_name)
                elif event == "c_call":
                    calls.append(arg.__name__)

        cfg = StressConfig(variant=variant, threads=threads, key_range=16, seed=3,
                           ops_per_thread=200, record_events=record)
        threading.setprofile(profile)
        try:
            run_stress(cfg)
        finally:
            threading.setprofile(None)
        assert calls.count("worker") == threads
        assert not {"sched_yield", "acquire", "__exit__"} & set(calls)

    def test_two_thread_runs_never_pause(self):
        # A long recorded 2-thread run stays linearizable while verify.py's
        # code on the workers makes no pause call at all; a hand-over that
        # spun made about 11,000 in this run.
        pauses = []

        def profile(frame, event, arg):
            if (event == "c_call" and frame.f_code.co_filename == cbst.verify.__file__
                    and arg.__name__ == "sched_yield"):
                pauses.append(None)

        cfg = StressConfig(variant="fem", threads=2, key_range=64, seed=0,
                           ops_per_thread=1000)
        threading.setprofile(profile)
        try:
            history, tree = run_stress(cfg)
        finally:
            threading.setprofile(None)
        assert check_linearizable(history, tree.collect_leaf_keys())
        assert pauses == []

    @pytest.mark.parametrize("record", [True, False], ids=["recorded", "unrecorded"])
    @pytest.mark.parametrize("mix", [
        (100, 0, 0), (0, 100, 0), (0, 0, 100), (20, 10, 70), (33.3, 33.3, 33.4),
    ], ids=lambda mix: "-".join(map(str, mix)))
    @pytest.mark.parametrize("key_range", [1, 2, 3, 64, 1000, 2**63 - 1])
    def test_streams_run_as_drawn(self, monkeypatch, key_range, mix, record):
        # run_stress draws by draw_op's rule inline: each thread runs
        # draw_op's stream on its generator, so a recorded run, an
        # unrecorded one and draw_op agree. The generators land on the mix
        # thresholds, and the calls are observed in the tree's methods,
        # since an unrecorded run leaves no history.
        tids, seen = {}, {}

        def note_thread(tid):
            tids[threading.current_thread()] = tid
            seen[tid] = []

        def observed_tree(variant):
            tree = new_tree(variant)
            for op in OpKind:
                name = op.value.lower()

                def call(key, op=op, method=getattr(tree, name)):
                    seen[tids[threading.current_thread()]].append((op, key))
                    return method(key)

                setattr(tree, name, call)
            return tree

        on_worker_start(monkeypatch, note_thread)
        monkeypatch.setattr(cbst.verify, "new_tree", observed_tree)
        cfg = StressConfig(variant="fem", threads=3, key_range=key_range,
                           insert_pct=mix[0], delete_pct=mix[1], search_pct=mix[2],
                           seed=5, ops_per_thread=100, record_events=record)
        rng_of = edge_rng_of(cfg)
        monkeypatch.setattr(cbst.verify, "thread_rng", rng_of)
        h, _ = run_stress(cfg)
        drawn = drawn_streams(cfg, rng_of=rng_of)
        assert seen == drawn
        assert invoked_streams(h) == (drawn if record else {})

    def test_workers_never_draw(self, monkeypatch):
        # Every stream is drawn on the calling thread before the workers
        # start, so a worker's loop only runs and stamps its operations.
        # Each generator notes the thread of every draw; a mix roll is a
        # random() that a key's getrandbits follows.
        workers, logs = set(), []
        on_worker_start(monkeypatch, lambda tid: workers.add(threading.current_thread()))

        class NotedRandom(random.Random):
            def random(self):
                self.log.append(("random", threading.current_thread()))
                return super().random()

            def getrandbits(self, k):
                self.log.append(("getrandbits", threading.current_thread()))
                return super().getrandbits(k)

        def noted_rng(seed, stream):
            rng = NotedRandom(seed * 1_000_003 + stream)
            rng.log = []
            logs.append(rng.log)
            return rng

        monkeypatch.setattr(cbst.verify, "thread_rng", noted_rng)
        for record in (True, False):
            run_stress(StressConfig(variant="fem", threads=3, key_range=16, seed=2,
                                    ops_per_thread=50, record_events=record))
        assert len(workers) == 6
        drawers = {thread for log in logs for _, thread in log}
        mix_rolls = sum(
            1 for log in logs for (name, _), (after, _) in zip(log, log[1:])
            if name == "random" and after == "getrandbits"
        )
        assert mix_rolls == 2 * 3 * 50
        assert not workers & drawers

    def test_multi_thread_op_streams_deterministic(self):
        cfg = StressConfig(variant="fem", threads=3, key_range=8, seed=7,
                           ops_per_thread=50)
        streams = [invoked_streams(run_stress(cfg)[0]) for _ in range(2)]
        assert streams[0] == streams[1]
        # Each thread runs draw_op's stream on its own generator.
        assert streams[0] == drawn_streams(cfg)

    def test_event_counts_match_ops(self):
        cfg = StressConfig(variant="tn", threads=2, key_range=8, seed=1,
                           ops_per_thread=25)
        h, _ = run_stress(cfg)
        assert len(h) == 2 * 2 * 25
        assert len(h.operations()) == 50

    def test_recorded_run_builds_operations_only(self, monkeypatch):
        # A recorded history is its operations: run_stress builds no Event,
        # and operations() hands back the history's one list.
        def no_event(*args):
            raise AssertionError("run_stress built an Event")

        monkeypatch.setattr(cbst.verify, "Event", no_event)
        h, _ = run_stress(StressConfig(variant="fem", threads=2, key_range=8, seed=4,
                                       ops_per_thread=50))
        assert len(h.operations()) == 100
        assert h.operations() is h.operations()

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
        verdicts = []
        try:
            for record in (True, False):
                cfg = StressConfig(variant="fem", threads=2, key_range=4, seed=0,
                                   ops_per_thread=3, timeout_s=0.5, record_events=record)
                with pytest.raises(DeadlockSuspectedError) as err:
                    run_stress(cfg)
                verdicts.append((cfg, err.value))
        finally:
            gate.set()
            verify_mod.new_tree = real
        for cfg, verdict in verdicts:
            assert verdict.thread_id in (0, 1)
            # Every operation hangs, so the stuck thread is in its first one.
            streams = drawn_streams(cfg)
            assert (verdict.op, verdict.key) == streams[verdict.thread_id][0]
            assert "last invoked" in str(verdict)

    def test_verdict_names_hung_thread_while_others_finish(self, monkeypatch):
        # Worker 1 hangs inside its first operation and holds no tree lock.
        # Worker 0 never waits for it and runs to its end; the verdict must
        # name worker 1.
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

    def test_structure_and_balance_after_stress(self):
        cfg = StressConfig(variant="fe", threads=4, key_range=12,
                           insert_pct=40, delete_pct=30, search_pct=30,
                           seed=77, ops_per_thread=2000, timeout_s=60)
        history, tree = run_stress(cfg)
        assert check_structure(tree).ok
        assert check_balance(history, tree.collect_leaf_keys()) == []


def test_only_from_lines_names_event():
    # Events are the saved-history line format: outside annotations and its
    # own class, verify.py names Event only where lines are parsed.
    module = ast.parse(Path(cbst.verify.__file__).read_text(encoding="utf-8"))
    annotations = {
        id(node)
        for owner in ast.walk(module)
        for ann in (getattr(owner, "annotation", None), getattr(owner, "returns", None))
        if ann is not None
        for node in ast.walk(ann)
    }
    naming = set()
    for fn in ast.walk(module):
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                if isinstance(node, ast.Name) and node.id == "Event" and id(node) not in annotations:
                    naming.add(fn.name)
    assert naming == {"from_lines"}
