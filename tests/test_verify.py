import random
import sys
import threading
import time
from operator import itemgetter
from pathlib import Path

import pytest

import cbst.verify
from cbst.core import OpKind, draw_op, thread_rng
from cbst.tree import VARIANT_NAMES, new_tree
from cbst.verify import (
    DeadlockSuspectedError,
    History,
    HistoryFormatError,
    Operation,
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
    """Build a history from (tid, op, key, result, invoke_ts, respond_ts)
    tuples, in any order."""
    return History(sorted((Operation(*o) for o in spec), key=itemgetter(0, 4)))


def spec_lines(spec):
    """The saved-history lines of (tid, op, key, result, invoke_ts,
    respond_ts) tuples, in spec order."""
    return [f"{tid} {op.value} {key} {str(result).lower()} {invoke} {respond}"
            for tid, op, key, result, invoke, respond in spec]


class TestHistorySerialization:
    def test_round_trip(self):
        h = make_history([
            (0, OpKind.INSERT, 5, True, 100, 200),
            (1, OpKind.SEARCH, 5, True, 150, 250),
        ])
        again = History.from_lines(h.to_lines())
        assert again.to_lines() == h.to_lines()
        assert again.operations() == h.operations()

    def test_line_format(self):
        # One line per operation, in (invoke_ts, thread) order.
        h = make_history([
            (3, OpKind.DELETE, -7, False, 42, 99),
            (1, OpKind.INSERT, 8, True, 42, 43),
        ])
        assert h.to_lines() == [
            "1 INSERT 8 true 42 43",
            "3 DELETE -7 false 42 99",
        ]

    def test_save_load(self, tmp_path):
        h = make_history([(0, OpKind.INSERT, 1, True, 10, 20)])
        path = tmp_path / "run.history"
        h.save(path)
        assert path.read_text() == "0 INSERT 1 true 10 20\n"
        again = History.load(path)
        assert again.to_lines() == h.to_lines()
        assert again.operations() == h.operations()

    # The first five are lines of the old INVOKE/RESPOND event format,
    # which no longer loads.
    @pytest.mark.parametrize("bad", [
        "0 0 PING INSERT 5 100",
        "0 0 INVOKE UPSERT 5 100",
        "0 0 RESPOND INSERT 5 yes 100",
        "0 0 INVOKE INSERT",
        "x 0 INVOKE INSERT 5 100",
        "0 INSERT 5 true 100 200 300",
        "x INSERT 5 true 100 200",
        "0 INSERT 5 true 100 2e3",
        "0 INSERT ٥ true 100 200",
    ])
    def test_format_errors(self, bad):
        with pytest.raises(HistoryFormatError) as err:
            History.from_lines([bad])
        assert "line 1" in str(err.value)

    @pytest.mark.parametrize("bad, reason", [
        ("0 INSERT 5 true 100", "expected 6 fields, got 5"),
        ("0 UPSERT 5 true 100 200", "'UPSERT' is not a valid OpKind"),
        ("0 INSERT 5 yes 100 200", "result must be true or false, got 'yes'"),
        ("0 INSERT 5 true 100 x", "invalid literal for int() with base 10: 'x'"),
        ("0 INSERT 5 trué 100 200", "not ASCII text"),
    ], ids=["fields", "op", "result", "integer", "ascii"])
    def test_format_error_names_line_and_fault(self, bad, reason):
        with pytest.raises(HistoryFormatError) as err:
            History.from_lines(["0 SEARCH 5 false 1 2", "", bad])
        assert str(err.value) == f"line 3: {reason}"

    def test_non_ascii_byte_names_its_line(self, tmp_path):
        path = tmp_path / "bad.history"
        path.write_bytes(b"0 INSERT 5 true 100 200\n0 SEARCH 5 tr\xffue 300 400\n")
        with pytest.raises(HistoryFormatError, match="^line 2: not ASCII text$"):
            History.load(path)

    def test_blank_lines_skipped(self):
        h = History.from_lines(["", "0 INSERT 5 true 100 200", "  "])
        assert len(h) == 1

    def test_lines_load_in_any_order(self):
        spec = [
            (1, OpKind.SEARCH, 5, False, 50, 150),
            (0, OpKind.INSERT, 5, True, 100, 200),
            (0, OpKind.SEARCH, 5, True, 200, 300),
            (1, OpKind.DELETE, 5, True, 250, 400),
        ]
        h = make_history(spec)
        for order in ([3, 2, 1, 0], [2, 0, 3, 1]):
            again = History.from_lines(spec_lines([spec[i] for i in order]))
            assert again.operations() == h.operations()

    @pytest.mark.parametrize("variant", VARIANT_NAMES)
    def test_recorded_histories_round_trip(self, variant):
        cfg = StressConfig(variant=variant, threads=1 if variant == "seq" else 3,
                           key_range=16, seed=11, ops_per_thread=300)
        h, tree = run_stress(cfg)
        again = History.from_lines(h.to_lines())
        assert again.operations() == h.operations()
        final = tree.collect_leaf_keys()
        assert check_linearizable(again, final) is check_linearizable(h, final) is True


class TestOperationPairing:
    # The checks that span a line's two stamps or a thread's lines.

    def test_respond_before_invoke_rejected(self):
        with pytest.raises(HistoryFormatError,
                           match="^line 1: response stamped before its invocation$"):
            History.from_lines(spec_lines([(0, OpKind.INSERT, 5, True, 200, 100)]))

    def test_overlapping_operations_of_one_thread_rejected(self):
        # A thread's next operation may be invoked at its previous one's
        # response stamp but not before it, whatever the lines' order.
        spec = [
            (0, OpKind.SEARCH, 5, True, 200, 400),
            (1, OpKind.SEARCH, 5, True, 150, 250),
            (0, OpKind.INSERT, 5, True, 100, 300),
        ]
        with pytest.raises(HistoryFormatError) as err:
            History.from_lines(spec_lines(spec))
        assert str(err.value) == ("thread 0: operation invoked at 200, before its "
                                  "previous one responded at 300")
        spec[0] = (0, OpKind.SEARCH, 5, True, 300, 400)
        h = History.from_lines(spec_lines(spec))
        assert [(op.thread_id, op.invoke_ts) for op in h.operations()] == [
            (0, 100), (1, 150), (0, 300)]

    def test_operations_sorted_by_invocation(self):
        spec = [
            (0, OpKind.INSERT, 1, True, 100, 200),
            (1, OpKind.SEARCH, 2, False, 50, 150),
            (2, OpKind.SEARCH, 2, False, 100, 150),
        ]
        for h in (make_history(spec), History.from_lines(spec_lines(spec))):
            assert [(op.invoke_ts, op.thread_id) for op in h.operations()] == [
                (50, 1), (100, 0), (100, 2)]


class TestCheckLinearizable:
    def test_empty_history(self):
        assert check_linearizable(History([])) is True

    def test_sequential_legal(self):
        h = make_history([
            (0, OpKind.INSERT, 5, True, 1, 2),
            (0, OpKind.SEARCH, 5, True, 3, 4),
            (0, OpKind.DELETE, 5, True, 5, 6),
        ])
        assert check_linearizable(h) is True

    def test_sequential_illegal(self):
        h = make_history([
            (0, OpKind.INSERT, 5, True, 1, 2),
            (0, OpKind.SEARCH, 5, False, 3, 4),
        ])
        assert check_linearizable(h) is False
        assert check_linearizable(lost_insert_history(search_overlaps_insert=False)) is False

    def test_overlap_permits_reordering(self):
        h = make_history([
            (0, OpKind.INSERT, 5, True, 10, 30),
            (1, OpKind.SEARCH, 5, False, 15, 25),
        ])
        assert check_linearizable(h) is True
        assert check_linearizable(lost_insert_history(search_overlaps_insert=True)) is True

    def test_equal_timestamps_count_as_overlap(self):
        h = make_history([
            (0, OpKind.INSERT, 5, True, 10, 20),
            (1, OpKind.SEARCH, 5, False, 20, 30),
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
            (0, OpKind.INSERT, 5, True, 1, 2),
            (0, OpKind.SEARCH, 6, False, 3, 4),
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
        h = make_history([(0, OpKind.SEARCH, 5, True, 1, 2)])
        assert check_linearizable(h) is False


SET_CYCLE = [(OpKind.INSERT, True), (OpKind.SEARCH, True),
             (OpKind.DELETE, True), (OpKind.SEARCH, False)]


def sequential_history(n_ops):
    """One thread cycling insert/search/delete/search over seven keys."""
    spec = []
    for j in range(n_ops):
        op, result = SET_CYCLE[j % 4]
        spec.append((0, op, j // 4 % 7, result, 2 * j, 2 * j + 1))
    return make_history(spec)


def lost_insert_history(search_overlaps_insert):
    """5,000 operations on one key cycling insert/search/delete/search, in
    which one search after a successful insert misses the key; that search
    runs on its own thread and either strictly follows the insert or
    overlaps it."""
    spec = []
    for j in range(5000):
        op, result = SET_CYCLE[j % 4]
        start = 10 * j
        if j == 2401:
            start -= 8 if search_overlaps_insert else 0
            spec.append((1, op, 5, False, start, start + 5))
        else:
            spec.append((0, op, 5, result, start, start + 5))
    return make_history(spec)


def overlapping_searches(n_ops):
    """n_ops mutually overlapping searches of a never-inserted key; all but
    one read false."""
    return make_history([(t, OpKind.SEARCH, 7, t == n_ops // 2, t, 100 + t)
                         for t in range(n_ops)])


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
        spec.append((tid, op, 0, result, invoke, respond))
    return make_history(spec), present


def random_history(rng, max_ops):
    """Synthetic well-formed history with random overlap and random results."""
    n_threads = rng.randint(1, 3)
    n_ops = rng.randint(1, max_ops)
    owners = [rng.randrange(n_threads) for _ in range(n_ops)]
    kinds = [rng.choice((OpKind.SEARCH, OpKind.INSERT, OpKind.DELETE)) for _ in range(n_ops)]
    keys = [rng.randrange(2) for _ in range(n_ops)]
    results = [rng.random() < 0.5 for _ in range(n_ops)]

    spec = []
    open_op: dict[int, tuple[int, int]] = {}  # tid -> (op index, invoke tick)
    todo = list(range(n_ops))
    tick = 0
    while todo or open_op:
        # Randomly either open the next op on a free thread or close one.
        closable = list(open_op)
        startable = [i for i in todo if owners[i] not in open_op]
        if closable and (not startable or rng.random() < 0.5):
            tid = rng.choice(closable)
            i, invoke = open_op.pop(tid)
            spec.append((tid, kinds[i], keys[i], results[i], invoke, tick))
        else:
            i = rng.choice(startable)
            todo.remove(i)
            open_op[owners[i]] = (i, tick)
        tick += 1
    return make_history(spec)


def ops_spec(intervals):
    """(tid, invoke, respond) triples as make_history tuples: searches of
    key 0 that read false."""
    return [(tid, OpKind.SEARCH, 0, False, invoke, respond)
            for tid, invoke, respond in intervals]


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
                end = max(o.respond_ts for o in h.operations())
                for final_keys in finals:
                    searches = [(-1, OpKind.SEARCH, key, key in final_keys,
                                 end + 1 + 2 * i, end + 2 + 2 * i)
                                for i, key in enumerate((0, 1))]
                    fast = check_linearizable(h, final_keys)
                    slow = brute_force_linearizable(make_history(h.operations() + searches))
                    assert fast == slow, ("\n".join(h.to_lines()), final_keys)
                    outcomes.append((check_linearizable(h), fast))
        # Both outcomes occur, and so do linearizable histories that end
        # at the wrong contents.
        assert outcomes.count((True, True)) > 10 and outcomes.count((False, False)) > 10
        assert outcomes.count((True, False)) > 10


class TestCheckBalance:
    def _op_events(self, tid, op, key, result, start, end):
        return [(tid, op, key, result, start, end)]

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
        # A recorded run keeps one operation per call; len counts them.
        cfg = StressConfig(variant="tn", threads=2, key_range=8, seed=1,
                           ops_per_thread=25)
        h, _ = run_stress(cfg)
        assert len(h) == len(h.operations()) == 50

    def test_recorded_run_builds_operations_only(self):
        # A recorded history is its operations: operations() hands back the
        # history's one list.
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

    def test_timeout_within_the_join_limit(self):
        # A join waits at most threading.TIMEOUT_MAX seconds.
        for timeout_s in (1e10, 2 * threading.TIMEOUT_MAX):
            with pytest.raises(ValueError, match="timeout_s"):
                StressConfig(variant="fem", ops_per_thread=5, timeout_s=timeout_s)
        cfg = StressConfig(variant="fem", threads=2, key_range=8, ops_per_thread=20,
                           timeout_s=threading.TIMEOUT_MAX)
        history, _ = run_stress(cfg)
        assert len(history) == 40

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

