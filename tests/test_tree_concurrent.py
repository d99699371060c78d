"""Concurrent behaviour of the lock-based variants.

These tests drive real threads. They assert outcomes that must hold for
every legal interleaving (structure, balance, linearizability, termination),
never specific schedules.
"""

import threading
from dataclasses import replace

import pytest

from cbst.tree import CONCURRENT_VARIANTS, new_tree
from cbst.verify import (
    StressConfig,
    check_balance,
    check_linearizable,
    check_structure,
    run_stress,
)

CONCURRENT = list(CONCURRENT_VARIANTS)


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


@pytest.mark.parametrize("variant", ["fn", "fe", "fem", "tn"])
def test_contention_is_observed(variant):
    # At key range 2 with four writers something must collide and retry.
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
    _, tree = run_stress(config)
    assert tree.retry_count() > 0
    assert _leaked_locks(tree) == []
    # One run seldom reaches every rollback site; these five seeds on three
    # keys together do, so a rollback that forgets a lock or a mark shows.
    for seed in range(5):
        _, tree = run_stress(replace(config, key_range=3, seed=seed))
        assert _leaked_locks(tree) == []


def _leaked_locks(tree):
    # Retired nodes keep their flags, marks or tickets but are unreachable,
    # so a reachable node that is still held or marked was leaked.
    leaked = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if node.lock.held or getattr(node.lock, "marked", False):
            leaked.append(node)
        if node.left is not None:
            stack.extend((node.left, node.right))
    return leaked


def test_stale_operation_on_retired_nodes_retries():
    # A deleter retires a parent and leaf; a second delete that had already
    # snapshotted them must fail validation and come back with false.
    tree = new_tree("fem")
    tree.insert(5)
    snap = tree.find(5)
    assert tree.delete(5) is True
    # The stale path is marked; a fresh delete of 5 must re-descend and
    # report absence rather than touching the retired pair.
    assert tree.delete(5) is False
    assert snap.pred.lock.marked and snap.curr.lock.marked
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
        if node.lock.try_acquire():
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
def test_duration_mode_terminates(variant):
    config = StressConfig(
        variant=variant,
        threads=4,
        key_range=32,
        seed=7,
        duration_ms=200,
        timeout_s=30,
        record_events=False,
    )
    _, tree = run_stress(config)
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
