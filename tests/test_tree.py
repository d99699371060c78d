import random
import threading

import pytest
from hypothesis import given, settings, strategies as st

import cbst.tree
from cbst.core import NEG_SENTINEL, POS_SENTINEL, OpKind, SeqOracle
from cbst.tree import (
    _RETRY,
    CONCURRENT_VARIANTS,
    VARIANT_NAMES,
    MarkedNode,
    Node,
    Snapshot,
    StampedNode,
    new_tree,
)
from cbst.verify import check_structure

ALL = list(VARIANT_NAMES)


def apply_op(tree, op, key):
    if op is OpKind.SEARCH:
        return tree.search(key)
    if op is OpKind.INSERT:
        return tree.insert(key)
    return tree.delete(key)


def leaked_locks(tree):
    """(key, held, marked) of every reachable node still held or marked.

    Retired nodes may stay locked (and, for fem, marked) but are
    unreachable, so a reachable node that is still held or marked was
    leaked."""
    leaked = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        held = node.lock.locked()
        marked = getattr(node, "marked", False)
        if held or marked:
            leaked.append((node.key, held, marked))
        if node.left is not None:
            stack.extend((node.left, node.right))
    return leaked


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
        with pytest.raises(ValueError):
            new_tree("avl")


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
        for bad in (NEG_SENTINEL, POS_SENTINEL, "7", 2.5, True, False):
            with pytest.raises(ValueError):
                t.insert(bad)
            with pytest.raises(ValueError):
                t.delete(bad)
            with pytest.raises(ValueError):
                t.search(bad)

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
            assert apply_op(t, op, key) == oracle.apply(op, key), (i, op, key)
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
            assert apply_op(t, op, key) == oracle.apply(op, key)
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
        assert leaked_locks(t) == []


# Stale passes: (variant, op, key, moves, busy). The pass for ``key`` runs
# on a snapshot taken from a tree holding 10 and 30, after ``moves`` (k
# inserts k, -k deletes k) changed the tree. ``busy`` names the one snapshot
# node the moves left held; with None every node is free and unmarked, so
# only a validation step can fail the pass.
STALE_PASSES = [
    # curr (leaf 10) retired, still locked, under a new parent
    ("fn", "insert", 25, (15, -10), "curr"),
    # leaf 10 split: pred's child is now a new router
    ("fn", "insert", 25, (15,), None),
    ("fn", "delete", 10, (15,), None),
    ("fem", "insert", 25, (15,), None),
    ("fem", "delete", 10, (15,), None),
    ("tn", "insert", 25, (15,), None),
    # the re-traversal reaches the new router, not the locked path
    ("fe", "insert", 25, (15,), None),
    ("fe", "delete", 10, (15,), None),
    # an insert under ppred moved ppred's stamp
    ("tn", "delete", 10, (5,), None),
]


class TestRollbackSites:
    """Passes on stale snapshots: every pass's validation step, and fn
    insert's busy curr lock, which threaded runs seldom reach. Each pass
    must fail and leave no reachable node held or marked."""

    @pytest.mark.parametrize("variant, op, key, moves, busy", STALE_PASSES)
    def test_stale_pass_rolls_back(self, variant, op, key, moves, busy, monkeypatch):
        t = new_tree(variant)
        for k in (10, 30):
            t.insert(k)
        finder = "_find_stamped" if variant == "tn" else "_find"
        real = getattr(t, finder)
        stale = [real(key)]
        for k in moves:
            if k > 0:
                t.insert(k)
            else:
                t.delete(-k)
        snap = Snapshot(*stale[0][:5])
        names = ("ppred", "pred", "curr")
        held = [getattr(snap, n).lock.locked() or getattr(getattr(snap, n), "marked", False)
                for n in names]
        assert held == [n == busy for n in names]
        # Only the pass's first descent is stale; fe's re-traversal is not.
        monkeypatch.setattr(t, finder, lambda k: stale.pop() if stale else real(k))
        assert getattr(t, "_" + op)(key) is _RETRY
        assert leaked_locks(t) == []


class TestRetirementBookkeeping:
    def test_fem_delete_leaves_marked_locked_nodes(self):
        t = new_tree("fem")
        t.insert(5)
        s = t.find(5)
        pred, curr = s.pred, s.curr
        assert t.delete(5)
        # Retired parent and leaf stay locked and marked forever.
        for node in (pred, curr):
            assert node.marked is True
            assert node.lock.locked() is True
            assert node.lock.acquire(False) is False

    def test_fn_delete_keeps_flags_held(self):
        t = new_tree("fn")
        t.insert(5)
        s = t.find(5)
        pred, curr = s.pred, s.curr
        assert t.delete(5)
        assert pred.lock.locked() and curr.lock.locked()

    def test_fe_delete_releases_flags(self):
        t = new_tree("fe")
        t.insert(5)
        s = t.find(5)
        pred, curr = s.pred, s.curr
        assert t.delete(5)
        assert not pred.lock.locked() and not curr.lock.locked()

    def test_tn_delete_retires_parent_ticket(self):
        t = new_tree("tn")
        t.insert(5)
        s = t.find(5)
        pred = s.pred
        assert t.delete(5)
        assert pred.lock.locked()
        assert pred.lock.acquire(False) is False

    def test_live_nodes_stay_lockable(self):
        t = new_tree("fem")
        t.insert(5)
        t.insert(9)
        t.delete(9)
        s = t.find(5)
        assert s.curr.lock.acquire(False) is True
        s.curr.lock.release()


BARE_LOCK = type(threading.Lock())


class TestLockPlumbing:
    def test_fem_nodes_are_marked_nodes_with_bare_locks(self):
        t = new_tree("fem")
        t.insert(3)
        for node in (t.root, t.find(3).pred, t.find(3).curr):
            assert type(node) is MarkedNode
            assert type(node.lock) is BARE_LOCK
            assert node.marked is False

    def test_tn_nodes_are_stamped_nodes_with_bare_locks(self):
        t = new_tree("tn")
        t.insert(3)
        for node in (t.root, t.find(3).pred, t.find(3).curr):
            assert type(node) is StampedNode
            assert type(node.lock) is BARE_LOCK

    @pytest.mark.parametrize("variant", ["fn", "fe"])
    def test_flag_variants_use_plain_nodes_with_bare_locks(self, variant):
        t = new_tree(variant)
        t.insert(3)
        for node in (t.root, t.find(3).pred, t.find(3).curr):
            assert type(node) is Node
            assert type(node.lock) is BARE_LOCK

    def test_seq_nodes_carry_no_locks(self):
        t = new_tree("seq")
        t.insert(3)
        assert t.root.lock is None
        assert t.find(3).curr.lock is None


def _versions(tree):
    """{node: version} for every node reachable from the root."""
    out = {}
    stack = [tree.root]
    while stack:
        node = stack.pop()
        out[node] = node.version
        if node.left is not None:
            stack.extend((node.left, node.right))
    return out


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

    def test_delete_bumps_ppred_and_freezes_retired_pred(self):
        t = self._tree()
        s = t.find(30)
        ppred, pred = s.ppred, s.pred
        gversion, pversion = ppred.version, pred.version
        assert t.delete(30)
        assert ppred.version == gversion + 1
        assert not ppred.lock.locked()
        assert pred.lock.locked()
        assert pred.version == pversion
        # Later commits around it never touch the retired pred.
        for k in (31, 29, 40):
            t.insert(k)
            t.delete(k)
        assert pred.lock.locked() and pred.version == pversion

    def test_stamp_taken_before_a_commit_no_longer_matches(self):
        t = self._tree()
        _, _, pred, _, _, pstamp, _ = t._find_stamped(25)
        assert pred.version == pstamp
        # Another insert under the same pred commits in between.
        assert t.find(26).pred is pred
        assert t.insert(26)
        assert pred.version != pstamp


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
        bad = Node(999, None, None, None)
        t.find(5).pred.left = bad
        rep = check_structure(t)
        assert not rep.ok
        assert "key 999 at LRL at or above its upper bound 9" in rep.violations
