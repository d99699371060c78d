"""Concurrent behaviour of the lock-based variants.

These tests drive real threads. They assert outcomes that must hold for
every legal interleaving (structure, balance, linearizability, termination),
never specific schedules.
"""

import random
import threading
import time
from dataclasses import replace

import pytest

import cbst.verify
from cbst.core import run_threads
from cbst.tree import _RETIRED, _RETRY, CONCURRENT_VARIANTS, new_tree
from cbst.verify import (
    StressConfig,
    check_balance,
    check_linearizable,
    check_structure,
    run_stress,
)
from test_tree import leaked_locks

CONCURRENT = list(CONCURRENT_VARIANTS)
# The join timeout run_stress gives a run by default.
JOIN_TIMEOUT_S = StressConfig.timeout_s


def _run_threads(targets):
    """Run one thread per target at a 10 us switch interval and fail unless
    all finish within JOIN_TIMEOUT_S; a target's exception is re-raised."""
    stuck = run_threads(lambda tid, _: targets[tid](), len(targets), JOIN_TIMEOUT_S,
                        switch_interval=1e-5)
    assert stuck == [], f"threads {stuck} did not finish"


@pytest.mark.parametrize("variant", CONCURRENT)
def test_hammer_preserves_structure_and_balance(variant):
    config = StressConfig(
        variant=variant,
        threads=4,
        key_range=16,
        insert_pct=40,
        delete_pct=30,
        search_pct=30,
        seed=101,
        ops_per_thread=4000,
        timeout_s=60,
    )
    history, tree = run_stress(config)
    report = check_structure(tree)
    assert report.ok, report.violations[:3]
    assert check_balance(history, tree.collect_leaf_keys()) == []
    assert check_linearizable(history)


@pytest.mark.parametrize("variant", CONCURRENT)
def test_small_histories_linearizable(variant):
    for seed in range(30):
        config = StressConfig(
            variant=variant,
            threads=3,
            key_range=4,
            insert_pct=40,
            delete_pct=30,
            search_pct=30,
            seed=seed,
            ops_per_thread=5,
        )
        history, _ = run_stress(config)
        assert check_linearizable(history), "\n".join(history.to_lines())


def hold_one_key_until_retry(tree, hold_s):
    """Make one update pass of ``tree``, once its descent is done, first
    lock the leaf its key reaches and that leaf's parent, and hold both
    until some pass fails (at most ``hold_s`` seconds), before it runs its
    control phase. fn and tn leaves carry no lock, so for them it holds the
    parent alone.

    Every insert or delete of that key locks the leaf or its parent (in fn
    and tn, always the parent), and so does every change that could move
    the leaf away from the parent, so while they are held the other
    threads' first update of the key must fail a pass. Which thread holds,
    and when, is up to the scheduler."""
    retried = threading.Event()
    claim = threading.Lock()
    held = []
    count_retry = tree._count_retry

    def count_and_signal():
        count_retry()
        retried.set()

    def hold(key):
        _, _, pred, _, curr = tree.find(key)
        nodes = [node for node in (pred, curr) if hasattr(node, "lock")]
        taken = []
        for node in nodes:
            if not node.lock.acquire(False):
                break
            taken.append(node)
        else:
            # All reachable: nothing can unlink them while they are held.
            if tree.find(key)[2::2] == (pred, curr):
                held.append(key)
                retried.wait(hold_s)
        for node in reversed(taken):
            node.lock.release()

    def holding_first(control):
        def hooked(key, *snapshot):
            if not held and claim.acquire(False):
                try:
                    if not held:
                        hold(key)
                finally:
                    claim.release()
            return control(key, *snapshot)

        return hooked

    tree._count_retry = count_and_signal
    tree._insert = holding_first(tree._insert)
    tree._delete = holding_first(tree._delete)
    return held


@pytest.mark.parametrize("variant", ["fn", "fe", "fem", "tn"])
def test_contention_is_observed(variant, monkeypatch):
    # At key range 2 with four writers something must collide and retry.
    # Left to the scheduler, a run switches threads so seldom that it can
    # finish without one conflict, so one pass holds its key's locks until
    # another thread's pass fails on them.
    holds = []

    def new_holding_tree(v):
        tree = new_tree(v)
        holds.append(hold_one_key_until_retry(tree, JOIN_TIMEOUT_S / 3))
        return tree

    config = StressConfig(
        variant=variant,
        threads=4,
        key_range=2,
        insert_pct=50,
        delete_pct=50,
        search_pct=0,
        seed=3,
        ops_per_thread=3000,
        timeout_s=60,
        record_events=False,
    )
    with monkeypatch.context() as m:
        m.setattr(cbst.verify, "new_tree", new_holding_tree)
        _, tree = run_stress(config)
    assert holds[0], f"{variant}: no pass held its key's locks"
    assert tree.retry_count() > 0, f"{variant}, seed {config.seed}: no operation retried"
    assert leaked_locks(tree) == [], f"{variant}, seed {config.seed}"
    # One run seldom reaches every rollback site. Instrumented and repeated
    # six times without the hold, this test's runs never fired fn's insert
    # rollback after a moved link, and only sometimes fn's delete
    # validation, fe's insert re-traversal, fem's delete link re-check and
    # tn's insert stamp check. test_tree.py's TestRollbackSites forces
    # those five, and every other validation step, on stale snapshots.
    for seed in range(5):
        _, tree = run_stress(replace(config, key_range=3, seed=seed))
        assert leaked_locks(tree) == [], f"{variant}, seed {seed}"


def test_stale_operation_on_retired_nodes_retries():
    # A deleter retires a parent and leaf; a second delete that had already
    # descended to them must fail its pass, and a fresh one report absence.
    tree = new_tree("fem")
    tree.insert(5)
    snap = tree.find(5)
    plock = snap.pred.lock
    assert tree.delete(5) is True
    # The retired parent is marked, its old lock still held; the retired
    # leaf keeps its own lock, held.
    assert snap.pred.lock is _RETIRED and plock.locked()
    assert snap.curr.lock.locked() and snap.curr.lock is not _RETIRED
    assert tree._delete(5, snap.ppred, snap.pred, snap.curr) is _RETRY
    assert tree.delete(5) is False
    assert check_structure(tree).ok


def test_search_never_blocks_on_held_locks():
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


@pytest.mark.parametrize("variant", CONCURRENT)
def test_search_under_writers(variant):
    """A search that runs beside writers finds every resident key no writer
    touches and never finds a key that was never inserted.

    The keys interleave, 3i resident, 3i+1 churned by the writers and 3i+2
    never inserted, so the routers above the resident leaves are the ones the
    writers keep splicing in and out.
    """
    tree = new_tree(variant)
    resident = range(0, 300, 3)
    for k in resident:
        tree.insert(k)
    wrong = []

    def writer(seed):
        rng = random.Random(seed)
        for _ in range(2000):
            k = 3 * rng.randrange(100) + 1
            if rng.random() < 0.5:
                tree.insert(k)
            else:
                tree.delete(k)

    def reader():
        rng = random.Random(3)
        for _ in range(4000):
            k = 3 * rng.randrange(100) + rng.choice((0, 2))
            if tree.search(k) != (k % 3 == 0):
                wrong.append(k)

    _run_threads([lambda: writer(1), lambda: writer(2), reader])
    assert wrong == []
    assert check_structure(tree).ok
    assert set(resident) <= set(tree.collect_leaf_keys())


@pytest.mark.parametrize("variant", CONCURRENT)
def test_updates_conserve_contents(variant):
    """The final leaf keys are the prefill plus each key's net successful
    inserts and deletes, key by key, after 1 s of two 50/50 writers.

    This is a floor for lost or doubled updates, not a search for rare
    windows: before the fe delete took its sibling's flag for the splice, this
    test lost an fe insert in only about one run in ten.
    """
    tree = new_tree(variant)
    initial = set(random.Random(5).sample(range(64), 32))
    for k in initial:
        tree.insert(k)
    nets = [{}, {}]
    deadline = time.monotonic() + 1.0

    def worker(tid):
        rng = random.Random(10 + tid)
        net = nets[tid]
        while time.monotonic() < deadline:
            k = rng.randrange(64)
            if rng.random() < 0.5:
                if tree.insert(k):
                    net[k] = net.get(k, 0) + 1
            elif tree.delete(k):
                net[k] = net.get(k, 0) - 1

    _run_threads([lambda: worker(0), lambda: worker(1)])
    final = set(tree.collect_leaf_keys())
    assert final <= set(range(64))
    for k in range(64):
        expected = (k in initial) + nets[0].get(k, 0) + nets[1].get(k, 0)
        assert expected == (k in final), k
    assert check_structure(tree).ok


def test_coarse_serializes_but_stays_correct():
    config = StressConfig(
        variant="coarse",
        threads=4,
        key_range=8,
        insert_pct=40,
        delete_pct=30,
        search_pct=30,
        seed=13,
        ops_per_thread=2000,
    )
    history, tree = run_stress(config)
    assert tree.retry_count() == 0
    assert check_structure(tree).ok
    assert check_balance(history, tree.collect_leaf_keys()) == []
