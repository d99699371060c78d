import ast
import dis
import functools
import gc
import random
import sys
import threading
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import cbst.tree
from cbst.bench import WorkloadSpec, prefill
from cbst.core import NEG_SENTINEL, POS_SENTINEL, OpKind, SeqOracle, draw_op, run_threads
from cbst.tree import (
    _RETIRED,
    _RETRY,
    CONCURRENT_VARIANTS,
    VARIANT_NAMES,
    Leaf,
    LockedNode,
    Node,
    Snapshot,
    StampedNode,
    TnTree,
    TreeBase,
    new_leaf,
    new_locked_node,
    new_node,
    new_stamped_node,
    new_tree,
)
from cbst.verify import check_structure
from oracle import apply_op

ALL = list(VARIANT_NAMES)


def reachable(tree):
    """Every node reachable from the root."""
    stack = [tree.root]
    while stack:
        node = stack.pop()
        yield node
        if node.left is not None:
            stack.extend((node.left, node.right))


def control_args(tree, op, key):
    """The arguments that ``tree``'s ``op`` ("insert" or "delete") of
    ``key`` hands its control phase now; the key must be absent (insert) or
    present (delete). The control phase is swapped for a recorder that
    returns False, so the tree is left unchanged."""
    seen = []
    name = "_" + op

    def record(*args):
        seen.append(args)
        return False

    setattr(tree, name, record)
    try:
        getattr(tree, op)(key)
    finally:
        delattr(tree, name)
    (args,) = seen
    return args


class TestInitialStructure:
    @pytest.mark.parametrize("variant", ALL)
    def test_immortal_frame(self, variant):
        t = new_tree(variant)
        assert t.root.key == POS_SENTINEL
        assert t.root.left.key == NEG_SENTINEL
        assert t.root.right.key == POS_SENTINEL
        assert t.root.left.is_leaf() and t.root.right.is_leaf()
        assert t.collect_leaf_keys() == []
        assert check_structure(t).ok

    def test_find_on_empty_tree(self):
        t = new_tree("fem")
        s = t.find(5)
        assert isinstance(s, Snapshot)
        assert s.ppred is None
        assert s.pright is False
        assert s.pred is t.root
        assert s.right is False
        assert s.curr is t.root.left

    @pytest.mark.parametrize("variant", ALL)
    def test_search_agrees_with_find(self, variant):
        # search is its own descent; it must reach the same leaf as find.
        t = new_tree(variant)
        for k in random.Random(4).sample(range(200), 100):
            t.insert(k)

        def agrees():
            return all(t.search(k) == (t.find(k).curr.key == k) for k in range(200))

        assert agrees()
        for k in range(0, 200, 2):
            t.delete(k)
        assert agrees()

    def test_find_routes_ties_right(self):
        t = new_tree("seq")
        t.insert(5)
        s = t.find(5)
        # The router keyed 5 sends an equal key to its right child.
        assert s.pred.key == 5
        assert s.right is True
        assert s.curr.key == 5

    def test_variant_attribute(self):
        for name in ALL:
            assert new_tree(name).variant == name

    def test_unknown_variant(self):
        # Names are exact: no variant is found by another case.
        for name in ("avl", "SEQ", "Fem", None, ["fem"]):
            with pytest.raises(ValueError, match="unknown variant"):
                new_tree(name)


class _IntSubclass(int):
    pass


# Keys every operation refuses: the sentinels, values just past them or far
# out of range, non-ints, bools and an int subclass.
BAD_KEYS = (
    NEG_SENTINEL,
    POS_SENTINEL,
    NEG_SENTINEL - 1,
    POS_SENTINEL + 1,
    2**64,
    "7",
    2.5,
    None,
    True,
    False,
    _IntSubclass(7),
)


def _churned(variant):
    t = new_tree(variant)
    rng = random.Random(variant.encode()[-1])
    for k in rng.sample(range(400), 250):
        t.insert(k)
    for k in rng.sample(range(400), 120):
        t.delete(k)
    return t


class TestDescentSides:
    """The descent derives right and pright from keys after its loop, as
    the control phases do; they must still name the pointers that link
    ppred to pred to curr."""

    @pytest.mark.parametrize("variant", ALL)
    def test_sides_name_the_linking_pointers(self, variant):
        t = _churned(variant)
        for key in range(-1, 402):
            ppred, pright, pred, right, curr = t.find(key)
            assert (pred.right if right else pred.left) is curr, (key, right)
            if ppred is None:
                assert pred is t.root and pright is False
            else:
                assert (ppred.right if pright else ppred.left) is pred, (key, pright)

    @pytest.mark.parametrize("variant", ALL)
    def test_each_pass_hands_its_control_phase_the_descended_path(self, variant):
        # The retry loops' inline descent must reach find()'s nodes; tn's
        # control phases get the same arguments and read pred's stamp
        # themselves.
        t = _churned(variant)
        present = set(t.collect_leaf_keys())
        for key in range(-1, 402):
            ppred, _, pred, _, curr = t.find(key)
            if key in present:
                assert control_args(t, "delete", key) == (key, ppred, pred, curr), key
            else:
                assert control_args(t, "insert", key) == (key, pred, curr), key

    def test_tn_runs_the_shared_retry_loops(self):
        # So a failed tn update runs exactly seq's descent: pred's stamp is
        # read in the control phase, not on the way down.
        assert TnTree.insert is TreeBase.insert and TnTree.delete is TreeBase.delete


class TestInsertDelete:
    @pytest.mark.parametrize("variant", ALL)
    def test_insert_delete_restores_initial_shape(self, variant):
        t = new_tree(variant)
        neg, pos = t.root.left, t.root.right
        assert t.insert(5) is True
        assert t.insert(5) is False
        assert t.search(5) is True
        assert t.collect_leaf_keys() == [5]
        assert t.delete(5) is True
        assert t.delete(5) is False
        assert t.root.left is neg and t.root.right is pos
        assert t.collect_leaf_keys() == []

    @pytest.mark.parametrize("variant", ALL)
    def test_router_key_is_larger_of_pair(self, variant):
        # Ascending insert pairs the new key with the previous leaf.
        t = new_tree(variant)
        t.insert(3)
        t.insert(5)
        s = t.find(5)
        assert s.pred.key == 5
        assert s.pred.left.key == 3
        assert s.pred.right.key == 5

        # A delete widens leaf 5's interval so insert(3) reaches it and
        # must hang itself on the left of a router keyed 5.
        t2 = new_tree(variant)
        t2.insert(2)
        t2.insert(5)
        t2.delete(2)
        assert t2.find(3).curr.key == 5
        t2.insert(3)
        s2 = t2.find(3)
        assert s2.pred.key == 5
        assert s2.pred.left.key == 3
        assert s2.pred.right.key == 5

    @pytest.mark.parametrize("variant", ALL)
    def test_sentinel_keys_rejected(self, variant):
        t = new_tree(variant)
        for bad in BAD_KEYS:
            with pytest.raises(ValueError):
                t.insert(bad)
            with pytest.raises(ValueError):
                t.delete(bad)
            with pytest.raises(ValueError):
                t.search(bad)

    @pytest.mark.parametrize("variant", ALL)
    def test_key_test_calls_check_key_only_to_raise(self, variant, monkeypatch):
        # The operations test the key inline; check_key keeps the one
        # definition of the error, so only a refused key may reach it.
        calls = []
        check_key = cbst.tree.check_key

        def counting_check_key(key):
            calls.append(key)
            check_key(key)

        monkeypatch.setattr(cbst.tree, "check_key", counting_check_key)
        t = new_tree(variant)
        for op in ("insert", "search", "delete"):
            for key in (NEG_SENTINEL + 1, -1, 0, 7, POS_SENTINEL - 1):
                getattr(t, op)(key)
        assert calls == []
        for op in ("insert", "delete", "search"):
            for bad in BAD_KEYS:
                del calls[:]
                with pytest.raises(ValueError):
                    getattr(t, op)(bad)
                assert len(calls) == 1 and calls[0] is bad, (op, bad)

    @pytest.mark.parametrize("variant", ALL)
    def test_negative_keys_work(self, variant):
        t = new_tree(variant)
        assert t.insert(-7) and t.insert(0) and t.insert(7)
        assert t.collect_leaf_keys() == [-7, 0, 7]
        assert t.search(-7) and t.delete(-7)
        assert t.collect_leaf_keys() == [0, 7]

    @pytest.mark.parametrize("variant", ALL)
    def test_single_threaded_never_retries(self, variant):
        t = new_tree(variant)
        rng = random.Random(5)
        for _ in range(3000):
            k = rng.randrange(64)
            r = rng.random()
            if r < 0.4:
                t.insert(k)
            elif r < 0.8:
                t.delete(k)
            else:
                t.search(k)
        assert t.retry_count() == 0


class TestOracleEquivalence:
    @pytest.mark.parametrize("variant", ALL)
    def test_seeded_equivalence(self, variant):
        t = new_tree(variant)
        oracle = SeqOracle()
        rng = random.Random(variant.encode()[0])
        kinds = (OpKind.SEARCH, OpKind.INSERT, OpKind.DELETE)
        for i in range(10_000):
            op = kinds[rng.randrange(3)]
            key = rng.randrange(300)
            assert apply_op(t, op, key) == apply_op(oracle, op, key), (i, op, key)
        assert t.collect_leaf_keys() == oracle.contents()
        assert check_structure(t).ok

    @settings(max_examples=50, deadline=None)
    @given(
        variant=st.sampled_from(ALL),
        ops=st.lists(
            st.tuples(st.sampled_from(list(OpKind)), st.integers(0, 20)), max_size=80
        ),
    )
    def test_any_sequence_matches_oracle(self, variant, ops):
        t = new_tree(variant)
        oracle = SeqOracle()
        for op, key in ops:
            assert apply_op(t, op, key) == apply_op(oracle, op, key)
        assert t.collect_leaf_keys() == oracle.contents()

    @pytest.mark.parametrize("variant", ALL)
    def test_one_descent_per_pass(self, variant):
        # Every descent starts with one read of self.root. An operation
        # descends once, in its retry loop; a pass that reaches its control
        # phase descends once more there in fe, which validates by a fresh
        # re-traversal, and never in any other variant.
        log = []

        def read_root(self):
            log.append("R")
            return self.__dict__["root"]

        def write_root(self, node):
            self.__dict__["root"] = node

        counting = type("Counting", (type(new_tree(variant)),), {
            "root": property(read_root, write_root),
        })
        t = counting()
        for name in ("_insert", "_delete"):
            def counted(*args, control=getattr(t, name)):
                log.append("(")
                result = control(*args)
                log.append(")")
                return result

            setattr(t, name, counted)
        control_phase = "(R)" if variant == "fe" else "()"
        oracle = SeqOracle()
        rng = random.Random(12)
        passes = 0
        for i in range(3000):
            op, key = draw_op(rng, 40, 40, 64)
            expected = apply_op(oracle, op, key)
            # A single thread never retries, so an update that changes the
            # set runs exactly one pass.
            ran_pass = op is not OpKind.SEARCH and expected
            passes += ran_pass
            del log[:]
            assert apply_op(t, op, key) == expected, (i, op, key)
            assert "".join(log) == "R" + (control_phase if ran_pass else ""), (i, op, key)
        assert t.collect_leaf_keys() == oracle.contents()
        assert t.retry_count() == 0 and passes > 1000

    @pytest.mark.parametrize("variant", ALL)
    def test_descents_never_read_the_root_key(self, variant):
        # Every application key is below the root's, so every descent (the
        # retry loops, tn's included, search and fe's re-traversals) starts
        # at root.left. The root's key is read only by a control phase that
        # links under the root (insert's pred, delete's ppred), to pick the
        # side.
        t = new_tree(variant)
        base = type(t.root)
        watch = [True]
        reads = []

        def read_key(node):
            if watch[-1]:
                reads.append(sys._getframe(1).f_code.co_name)
            return base.key.__get__(node)

        t.root.__class__ = type("CountedRoot", (base,), {
            "__slots__": (), "key": property(read_key),
        })
        assert t.root.key == POS_SENTINEL and len(reads) == 1
        del reads[:]
        for name in ("_insert", "_delete"):
            def watched(key, top, *rest, control=getattr(t, name)):
                watch.append(top is not t.root)
                try:
                    return control(key, top, *rest)
                finally:
                    watch.pop()

            setattr(t, name, watched)
        oracle = SeqOracle()
        rng = random.Random(14)
        # Four keys empty the tree often; 64 make it deep.
        for key_range in (4, 64):
            for i in range(2000):
                op, key = draw_op(rng, 40, 40, key_range)
                assert apply_op(t, op, key) == apply_op(oracle, op, key), (i, op, key)
        assert reads == []
        assert t.collect_leaf_keys() == oracle.contents()


# The snapshot node whose lock each update pass takes first.
FIRST_LOCKED = {
    ("fn", "insert"): "pred",
    ("fn", "delete"): "ppred",
    ("fe", "insert"): "curr",
    ("fe", "delete"): "pred",
    ("fem", "insert"): "curr",
    ("fem", "delete"): "pred",
    ("tn", "insert"): "pred",
    ("tn", "delete"): "ppred",
}


class TestRetryPause:
    @pytest.mark.parametrize("variant", ["fn", "fe", "fem", "tn"])
    @pytest.mark.parametrize("op", ["insert", "delete"])
    def test_failed_pass_pauses_once(self, variant, op, monkeypatch):
        # One thread: the pass's first lock is held, so the pass fails, and
        # the stub pause stands in for the holder finishing its commit.
        t = new_tree(variant)
        for k in (10, 20, 30):
            t.insert(k)
        key = 25 if op == "insert" else 20
        lock = getattr(t.find(key), FIRST_LOCKED[variant, op]).lock
        assert lock.acquire(False)
        calls = []
        count_retry = t._count_retry

        def stub_pause():
            calls.append(lock.locked())
            lock.release()

        def count_retry_bounded():
            # A loop that reran the pass without pausing would spin on the
            # held lock forever; a second failed pass frees it instead, so
            # the assertions below fail rather than hang.
            count_retry()
            if t.retry_count() > 1:
                lock.release()

        monkeypatch.setattr(cbst.tree, "pause", stub_pause)
        monkeypatch.setattr(t, "_count_retry", count_retry_bounded)
        assert getattr(t, op)(key) is True
        assert t.retry_count() == 1
        assert calls == [True]
        assert check_structure(t).ok

    def test_count_is_exact_and_takes_no_lock(self, monkeypatch):
        # At a 1 us switch interval, switches fall inside _count_retry. A
        # counter guarded by a lock tried like a node lock would pause each
        # time a switch left another thread holding it.
        t = new_tree("fn")
        pauses = []
        monkeypatch.setattr(cbst.tree, "pause", lambda: pauses.append(True))

        def count(tid, start_ns):
            for _ in range(20_000):
                t._count_retry()

        assert run_threads(count, 4, 60, switch_interval=1e-6) == []
        assert t.retry_count() == 80_000
        assert pauses == []


# Stale passes: (variant, op, key, moves, busy). The pass for ``key`` runs
# on a snapshot taken from a tree holding 10 and 30, after ``moves`` (k
# inserts k, -k deletes k) changed the tree. ``busy`` names the one snapshot
# node an update in flight holds, so that the pass fails its acquire of it
# or, for a fem router, its mark test: the test takes the node's lock and,
# on a fem router, marks it, storing ``_RETIRED`` as its lock, as the delete
# that retires it does once its checks pass. With None every node is free
# and unmarked, so only a validation step can fail the pass.
STALE_PASSES = [
    # curr (leaf 10) retired under a new parent; fn leaves carry no lock, so
    # the link re-check fails the pass
    ("fn", "insert", 25, (15, -10), None),
    # leaf 10 split: pred's child is now a new router
    ("fn", "insert", 25, (15,), None),
    ("fn", "delete", 10, (15,), None),
    ("fem", "insert", 25, (15,), None),
    ("fem", "delete", 10, (15,), None),
    ("tn", "insert", 25, (15,), None),
    # the re-traversal reaches the new router, not the locked path
    ("fe", "insert", 25, (15,), None),
    ("fe", "delete", 10, (15,), None),
    # an insert under pred split curr, so tn's link check, made before any
    # lock, fails the pass; a commit inside the pass moves pred's stamp
    # (TestTnStamps)
    ("tn", "delete", 10, (15,), None),
    # the tree was emptied, retiring every snapshot node: fe's pass fails its
    # first acquire, as fn's, fem's and tn's do on a retired node
    ("fe", "insert", 25, (-10, -30), None),
    ("fe", "delete", 10, (-10, -30), None),
    # fem's delete fails its acquire of curr, its check of ppred's mark, and
    # its acquire of pred; with the moved link above, that is every one of
    # its rollback sites
    ("fem", "delete", 10, (), "curr"),
    ("fem", "delete", 10, (), "ppred"),
    ("fem", "delete", 10, (), "pred"),
]


def stale_pass(variant, op, key, moves, busy):
    """The tree, the snapshot and the stale control-phase arguments of the
    ``STALE_PASSES`` row given, with its moves made and its busy node held."""
    t = new_tree(variant)
    for k in (10, 30):
        t.insert(k)
    snap = t.find(key)
    stale = control_args(t, op, key)
    for k in moves:
        if k > 0:
            t.insert(k)
        else:
            t.delete(-k)
    if busy is not None:
        node = getattr(snap, busy)
        node.lock.acquire()
        if variant == "fem" and not node.is_leaf():
            node.lock = _RETIRED
    return t, snap, stale


@functools.cache
def store_offsets(code):
    """The attribute each STORE_ATTR of ``code`` stores, by byte offset."""
    return {ins.offset: ins.argval for ins in dis.get_instructions(code)
            if ins.opname == "STORE_ATTR"}


class TestRollbackSites:
    """Passes on stale snapshots: every pass's validation step, which
    threaded runs seldom reach. Each pass must fail, store nothing, and
    leave no reachable node locked but the one an update in flight holds."""

    @pytest.mark.parametrize("variant, op, key, moves, busy", STALE_PASSES)
    def test_stale_pass_rolls_back(self, variant, op, key, moves, busy):
        t, snap, stale = stale_pass(variant, op, key, moves, busy)

        def lock_states():
            # The snapshot's nodes may have left the tree, so they are read
            # here and not only through check_structure.
            locks = [getattr(getattr(snap, n), "lock", None) for n in ("ppred", "pred", "curr")]
            return [None if lock is None else (lock, lock.locked()) for lock in locks]

        before = lock_states()
        # Only the snapshot handed to the control phase is stale; fe's
        # re-traversal descends the tree as it is now.
        assert getattr(t, "_" + op)(*stale) is _RETRY
        assert lock_states() == before
        locked = check_structure(t).violations
        if busy is None:
            assert locked == []
        else:
            [violation] = locked
            assert violation.startswith(f"node {getattr(snap, busy).key} at ")
            assert violation.endswith("is still locked")

    @pytest.mark.parametrize("variant, op, key, moves, busy", STALE_PASSES)
    def test_failed_pass_stores_nothing(self, variant, op, key, moves, busy):
        # A failed pass should cost about what a search does: its rollback
        # only releases what it took, so no STORE_ATTR of cbst.tree runs
        # before it returns _RETRY.
        t, _, stale = stale_pass(variant, op, key, moves, busy)
        stores = []

        def trace(frame, event, arg):
            if frame.f_globals is not vars(cbst.tree):
                return None
            offsets = store_offsets(frame.f_code)
            frame.f_trace_lines = False
            frame.f_trace_opcodes = True

            def local(frame, event, arg):
                if event == "opcode" and frame.f_lasti in offsets:
                    stores.append((frame.f_code.co_name, offsets[frame.f_lasti]))
                return local

            return local

        saved = sys.gettrace()
        sys.settrace(trace)
        try:
            result = getattr(t, "_" + op)(*stale)
        finally:
            sys.settrace(saved)
        assert result is _RETRY
        assert stores == []

    def test_tn_commit_under_ppred_does_not_fail_a_delete(self):
        # insert(5) commits under ppred (router 10), on the side away from
        # the pred (router 30) that delete(10) descended to. That changes
        # nothing the delete holds, so its pass commits.
        t = new_tree("tn")
        for k in (10, 30):
            t.insert(k)
        stale = control_args(t, "delete", 10)
        assert t.find(5).pred is t.find(10).ppred
        t.insert(5)
        assert t._delete(*stale) is True
        assert check_structure(t).ok
        assert t.collect_leaf_keys() == [5, 30]


class TestRetirementBookkeeping:
    @pytest.mark.parametrize("variant", ["fn", "fe", "fem", "tn"])
    def test_delete_keeps_retired_nodes_locked(self, variant):
        t = new_tree(variant)
        t.insert(5)
        s = t.find(5)
        pred, curr = s.pred, s.curr
        plock = pred.lock
        # fn and tn lock only routers, so their leaves have no lock to hold.
        clock = getattr(curr, "lock", None)
        assert (clock is None) == (type(curr) is Leaf) == (variant in ("fn", "tn"))
        assert t.delete(5)
        # Every lock of the retired nodes stays held for good. fem also marks
        # pred, storing _RETIRED over its old lock; no code tests a leaf's
        # mark, so curr keeps its own lock.
        assert (pred.lock is _RETIRED) == (variant == "fem")
        assert getattr(curr, "lock", None) is clock
        for lock in (plock, pred.lock, clock):
            assert lock is None or lock.acquire(False) is False
        # The retired nodes are unreachable, so no reachable node is locked.
        assert check_structure(t).ok

    def test_live_nodes_stay_lockable(self):
        t = new_tree("fem")
        t.insert(5)
        t.insert(9)
        t.delete(9)
        s = t.find(5)
        assert s.curr.lock.acquire(False) is True
        s.curr.lock.release()

    @pytest.mark.parametrize("variant", ["fn", "fe", "fem", "tn"])
    def test_stale_operation_on_retired_nodes_retries(self, variant):
        # A deleter retires a parent and leaf; a second delete that had already
        # descended to them must fail its pass, and a fresh one report absence.
        tree = new_tree(variant)
        tree.insert(5)
        snap = tree.find(5)
        assert tree.delete(5) is True
        assert tree._delete(5, snap.ppred, snap.pred, snap.curr) is _RETRY
        assert tree.delete(5) is False
        assert check_structure(tree).ok

    def test_search_never_blocks_on_held_locks(self):
        # Optimistic searches traverse even while every node's lock is held.
        tree = new_tree("fem")
        for k in (2, 4, 6):
            tree.insert(k)
        held = []
        stack = [tree.root]
        while stack:
            node = stack.pop()
            if node.lock.acquire(False):
                held.append(node)
            if node.left is not None:
                stack.extend((node.left, node.right))
        try:
            done = []
            t = threading.Thread(target=lambda: done.append(tree.search(4)))
            t.start()
            t.join(10)
            assert not t.is_alive()
            assert done == [True]
        finally:
            for node in held:
                node.lock.release()


BARE_LOCK = type(threading.Lock())


def _grown(variant):
    t = new_tree(variant)
    for k in (3, 7, 5):
        t.insert(k)
    return t


class TestLockPlumbing:
    """Each variant's nodes hold only the state its protocol touches."""

    def test_tn_routers_are_stamped_and_leaves_plain(self):
        t = _grown("tn")
        assert type(t.root) is StampedNode
        leaves = 0
        for node in reachable(t):
            if node.left is None:
                leaves += 1
                assert type(node) is Leaf
                assert not hasattr(node, "lock") and not hasattr(node, "version")
            else:
                assert type(node) is StampedNode
                assert type(node.lock) is BARE_LOCK
        # Both sentinels and the three keys.
        assert leaves == 5

    @pytest.mark.parametrize("variant", ["fn", "fe", "fem"])
    def test_flag_variants_use_locked_nodes_with_bare_locks(self, variant):
        # fe and fem lock every node; fem's mark is a lock, so its nodes are
        # fe's. fn locks only routers, so, as in tn, its leaves, sentinels
        # included, are key-only leaves.
        t = _grown(variant)
        assert type(t.root) is LockedNode
        leaves = 0
        for node in reachable(t):
            if variant == "fn" and node.left is None:
                leaves += 1
                assert type(node) is Leaf and not hasattr(node, "lock")
                continue
            assert type(node) is LockedNode
            assert type(node.lock) is BARE_LOCK
            assert not hasattr(node, "version")
        # Both sentinels and the three keys.
        assert leaves == {"fn": 5, "fe": 0, "fem": 0}[variant]

    def test_seq_nodes_carry_no_locks(self):
        # Nor do coarse's: its one lock is the tree mutex.
        for variant in ("seq", "coarse"):
            for node in reachable(_grown(variant)):
                assert type(node) is Node
                assert not hasattr(node, "lock")

    @pytest.mark.parametrize("variant", ALL)
    def test_loaded_nodes_own_free_locks(self, variant):
        # A bulk load hands each locked node a lock from one batch. Two nodes
        # handed the same lock would make fn's two-lock delete retry for
        # ever.
        t = new_tree(variant)
        prefill(t, WorkloadSpec(10, 10, 80, key_range=1000), seed=4)
        nodes = list(reachable(t))
        # The sentinel frame and a router and a leaf per key.
        assert len(nodes) == 3 + 2 * 500
        locks = []
        for node in nodes:
            if variant in ("fn", "tn") and node.left is None:
                assert type(node) is Leaf
                continue
            if variant in ("seq", "coarse"):
                assert type(node) is Node and not hasattr(node, "lock")
                continue
            assert type(node.lock) is BARE_LOCK
            assert node.lock.acquire(False) is True
            node.lock.release()
            locks.append(node.lock)
            if variant == "tn":
                assert node.version == 0
        # fn and tn lock only their 501 routers; fe and fem every node.
        expected = {"seq": 0, "coarse": 0, "fn": 501, "tn": 501}.get(variant, 1003)
        assert len(locks) == expected
        assert len({id(lock) for lock in locks}) == len(locks)

    @pytest.mark.parametrize("variant", ALL)
    def test_bytes_per_key_follow_the_node_layout(self, variant, monkeypatch):
        # Each insert of a new key adds one router, one leaf and a lock per
        # locked node, and holds nothing else. fem's mark is a lock, so its
        # nodes are fe's, and fn and tn build key-only leaves.
        keys = random.Random(11).sample(range(100_000), 2000)
        locks = [None] * len(keys)

        def per_key(fill):
            """Bytes that ``fill(i, key)`` for every i-th key allocated and
            still holds, as traced, per key. Rounding drops the few dozen bytes
            that the measurement's own ints and one-time caches of the
            process take. The collector stays off: a callback some other
            module registered in ``gc.callbacks`` may allocate when it runs."""
            gc.collect()
            gc.disable()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                for i, key in enumerate(keys):
                    fill(i, key)
                return round((tracemalloc.get_traced_memory()[0] - before) / len(keys))
            finally:
                tracemalloc.stop()
                gc.enable()

        def tree_per_key(name):
            t = new_tree(name)
            return per_key(lambda i, key: t.insert(key))

        def make_lock(i, key):
            locks[i] = threading.Lock()

        node, leaf, locked, stamped = (
            sys.getsizeof(build(1))
            for build in (new_node, new_leaf, new_locked_node, new_stamped_node)
        )
        lock = per_key(make_lock)
        expected = {
            "seq": 2 * node,
            "coarse": 2 * node,
            "fn": locked + lock + leaf,
            "fe": 2 * (locked + lock),
            "fem": 2 * (locked + lock),
            "tn": stamped + lock + leaf,
        }
        measured = tree_per_key(variant)
        assert measured == expected[variant]
        if variant == "fem":
            assert measured == tree_per_key("fe")
        if variant in ("fn", "tn"):
            # Built as Nodes, as they were before key-only leaves, the
            # leaves hold exactly a Node's two child slots more per key.
            monkeypatch.setattr(cbst.tree, "new_leaf", new_node)
            assert tree_per_key(variant) - measured == node - leaf == 16


# Each builder and the class of the nodes it builds.
BUILDERS = [
    (new_node, Node),
    (new_leaf, Leaf),
    (new_locked_node, LockedNode),
    (new_stamped_node, StampedNode),
]
INITIAL = {"version": 0}


def assert_fresh(node):
    """Every slot of ``node`` is set, and to its initial value where it has
    one: a free bare lock, version 0."""
    for cls in type(node).__mro__:
        for name in cls.__dict__.get("__slots__", ()):
            value = getattr(node, name)
            if name == "lock":
                assert type(value) is BARE_LOCK and not value.locked(), node
            elif name in INITIAL:
                assert value is INITIAL[name], (node, name)


class TestNodeBuilders:
    """A builder is the only way to make a node, and it sets every slot."""

    @pytest.mark.parametrize("build, cls", BUILDERS, ids=lambda b: b.__name__)
    def test_builder_sets_every_slot(self, build, cls):
        # As an insert calls it: a locked node's builder makes its lock.
        right = new_node(9)
        leaf = build(7)
        router = build(9, leaf, right)
        # A Leaf has no child slots; new_leaf takes the others' arguments
        # so that _load calls every builder alike.
        children = (None, None) if cls is Leaf else (leaf, right)
        assert type(leaf) is cls and type(router) is cls
        assert (leaf.key, leaf.left, leaf.right) == (7, None, None)
        assert (router.key, router.left, router.right) == (9, *children)
        assert_fresh(leaf)
        assert_fresh(router)
        # As _load calls it, with a lock handed over; new_node and new_leaf
        # ignore it.
        lock = threading.Lock()
        loaded = build(9, leaf, right, lock)
        assert type(loaded) is cls
        assert (loaded.key, loaded.left, loaded.right) == (9, *children)
        assert_fresh(loaded)
        if build in (new_node, new_leaf):
            assert not hasattr(loaded, "lock")
        else:
            assert leaf.lock is not router.lock
            assert loaded.lock is lock

    @pytest.mark.parametrize("cls", [cls for _, cls in BUILDERS],
                             ids=lambda cls: cls.__name__)
    def test_classes_have_no_init(self, cls):
        assert "__init__" not in vars(cls)
        with pytest.raises(TypeError):
            cls(7)


def test_tree_module_never_blocks_on_a_lock():
    # Every lock in tree.py is tried with acquire(False) and waited for
    # through pause(); a ``with`` or a blocking acquire would park the
    # thread in the kernel until the holder's release wakes it.
    module = ast.parse(Path(cbst.tree.__file__).read_text(encoding="utf-8"))
    blocking = []
    for node in ast.walk(module):
        if isinstance(node, ast.With):
            blocking.append((node.lineno, "with"))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "acquire"
        ):
            first = node.args[0] if node.args else None
            if not (isinstance(first, ast.Constant) and first.value is False):
                blocking.append((node.lineno, "acquire"))
    assert blocking == []


# The only code that may make a lock: the module itself, for fem's mark
# ``_RETIRED``, the locked nodes' builders, the bulk load's batch and
# coarse's tree mutex.
LOCK_MAKERS = {
    "", "new_locked_node", "new_stamped_node", "TreeBase._load", "CoarseTree.__init__",
}


def test_tree_module_makes_only_protocol_locks():
    # A lock that no protocol needs, such as one guarding a counter, would
    # be taken on paths that should cost no more than a search. Every use of
    # ``threading`` but get_ident is recorded with the function it is in.
    module = ast.parse(Path(cbst.tree.__file__).read_text(encoding="utf-8"))
    made = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, f"{where}.{child.name}".lstrip("."))
                continue
            if (
                isinstance(child, ast.Attribute)
                and isinstance(child.value, ast.Name)
                and child.value.id == "threading"
                and child.attr != "get_ident"
            ):
                made.add((where, child.attr))
            elif isinstance(child, ast.ImportFrom) and child.module == "threading":
                made.add((where, "import"))
            visit(child, where)

    visit(module, "")
    assert made == {(name, "Lock") for name in LOCK_MAKERS}


# The operations, their retry loops and the control phases: the code every
# operation runs.
HOT_PATHS = {"search", "insert", "delete", "_insert", "_delete"}
NODE_CLASSES = {cls.__name__ for _, cls in BUILDERS}


def test_hot_paths_pay_no_fixed_per_call_costs():
    # A control phase names its node builders directly and calls no node
    # class, fe re-traverses in place, and a key is tested inline with
    # check_key called only to raise.
    module = ast.parse(Path(cbst.tree.__file__).read_text(encoding="utf-8"))
    seen = set()
    costs = []
    for cls in module.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for fn in cls.body:
            if not (isinstance(fn, ast.FunctionDef) and fn.name in HOT_PATHS):
                continue
            seen.add(fn.name)
            raising = {
                id(node)
                for branch in ast.walk(fn)
                if isinstance(branch, ast.If)
                for stmt in branch.body + branch.orelse
                for node in ast.walk(stmt)
            }
            for node in ast.walk(fn):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                    and node.attr in ("_router", "_leaf", "_find")
                ):
                    costs.append((cls.name, fn.name, node.lineno, node.attr))
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "check_key"
                    and id(node) not in raising
                ):
                    costs.append((cls.name, fn.name, node.lineno, "check_key"))
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in NODE_CLASSES
                ):
                    costs.append((cls.name, fn.name, node.lineno, node.func.id))
    assert seen == HOT_PATHS
    assert costs == []


class TestCoarseMutex:
    @pytest.mark.parametrize("op, key", [("search", 10), ("insert", 15), ("delete", 20)])
    def test_busy_mutex_pauses_not_blocks(self, op, key, monkeypatch):
        # The test holds the tree mutex; the stub pause stands in for the
        # holder finishing its operation.
        t = new_tree("coarse")
        for k in (10, 20):
            t.insert(k)
        big = t._big
        pauses = []

        def stub_pause():
            if not pauses:
                big.release()
            pauses.append(True)

        monkeypatch.setattr(cbst.tree, "pause", stub_pause)
        assert big.acquire(False)
        result = []
        worker = threading.Thread(
            target=lambda: result.append(getattr(t, op)(key)), daemon=True
        )
        worker.start()
        worker.join(5)
        blocked = worker.is_alive()
        if blocked:
            # A blocking acquire waits until the mutex is released; let it
            # finish so the test fails instead of hanging.
            big.release()
            worker.join(5)
        assert not blocked
        assert result == [True]
        assert len(pauses) >= 1
        assert t.retry_count() == 0
        assert not big.locked()
        # A refused key still releases the mutex.
        with pytest.raises(ValueError):
            getattr(t, op)(True)
        assert not big.locked()


def _versions(tree):
    """{router: version} for every router reachable from the root; tn
    leaves carry no version."""
    return {node: node.version for node in reachable(tree) if node.left is not None}


class TestTnStamps:
    def _tree(self):
        t = new_tree("tn")
        for k in (10, 20, 30, 40):
            t.insert(k)
        return t

    def test_insert_of_absent_key_bumps_pred_once(self):
        t = self._tree()
        before = _versions(t)
        pred = t.find(25).pred
        assert t.insert(25)
        after = _versions(t)
        assert after[pred] == before[pred] + 1
        # Nothing else moved; the new router and leaf start at 0.
        for node, version in after.items():
            if node is not pred:
                assert version == before.get(node, 0)

    def test_non_writing_operations_bump_nothing(self):
        t = self._tree()
        before = _versions(t)
        assert t.insert(20) is False
        assert t.delete(25) is False
        assert t.search(30) is True
        assert t.search(35) is False
        assert _versions(t) == before
        assert not any(node.lock.locked() for node in before)

    def test_delete_leaves_ppred_version_and_freezes_retired_pred(self):
        # Only an insert commit moves a version; a delete commit under
        # ppred changes the edge into a router, which no stamp guards.
        t = self._tree()
        s = t.find(30)
        ppred, pred = s.ppred, s.pred
        gversion, pversion = ppred.version, pred.version
        assert t.delete(30)
        assert ppred.version == gversion
        assert not ppred.lock.locked()
        assert pred.lock.locked()
        assert pred.version == pversion
        # Later commits around it never touch the retired pred.
        for k in (31, 29, 40):
            t.insert(k)
            t.delete(k)
        assert pred.lock.locked() and pred.version == pversion

    def test_stamp_taken_before_a_commit_no_longer_matches(self):
        # insert(other) commits under the pass's pred, on the side of its
        # curr, after the pass read pred's stamp and checked the link and
        # just before it acquires pred's lock: only the compare of pred's
        # version with the stamp can see it. A commit that lands before the
        # stamp is read is the link check's (STALE_PASSES' tn rows).
        for op, key, other in [("insert", 25, 26), ("delete", 20, 25)]:
            t = self._tree()
            stale = control_args(t, op, key)
            pred = stale[-2]
            assert t.find(other).pred is pred and t.find(other).curr is stale[-1]
            lock, version, keys = pred.lock, pred.version, t.collect_leaf_keys()

            def commit_first(blocking):
                pred.lock = lock
                assert t.insert(other)
                return lock.acquire(blocking)

            pred.lock = SimpleNamespace(acquire=commit_first, release=lock.release)
            assert getattr(t, "_" + op)(*stale) is _RETRY, op
            assert pred.lock is lock and pred.version == version + 1
            assert check_structure(t).ok
            assert t.collect_leaf_keys() == sorted(keys + [other])


class TestCollectLeafKeys:
    @pytest.mark.parametrize("variant", ["seq", "fem"])
    def test_sorted_and_sentinel_free(self, variant):
        t = new_tree(variant)
        keys = random.Random(1).sample(range(1000), 200)
        for k in keys:
            t.insert(k)
        got = t.collect_leaf_keys()
        assert got == sorted(keys)

    def test_corrupt_one_child_node_detected(self):
        t = new_tree("seq")
        t.insert(5)
        t.insert(9)
        # Manufacture an impossible shape: an internal node with one child.
        s = t.find(9)
        s.pred.right = None
        rep = check_structure(t)
        assert not rep.ok
        assert rep.violations == ["internal node 9 at LR has exactly one child"]

    def test_order_violation_detected(self):
        t = new_tree("seq")
        t.insert(5)
        t.insert(9)
        bad = new_node(999)
        t.find(5).pred.left = bad
        rep = check_structure(t)
        assert not rep.ok
        assert "key 999 at LRL at or above its upper bound 9" in rep.violations
