"""Recorded run_stress runs catch one-line protocol mutants.

Each mutant is a tree subclass whose ``_insert`` or ``_delete`` drops one
validation or lock step of its variant's control phase. A recorded run of
4 threads x 2,000 operations over 12 keys at 40/30/30 is decided by
``check_structure`` and by ``check_linearizable`` ending at the final
contents. A run that hangs is caught too, as ``cbst check`` reports it.
Each mutant must be caught within its own fixed seed range, and the
unmutated trees must pass every seed of those ranges, which pins both
detection and the false-positive rate.

fem's delete with its sibling wait skipped is left out: about a third of
its runs hang until the timeout.
"""

import threading
from dataclasses import replace

import pytest

import cbst.tree
import cbst.verify
from cbst.tree import (
    FemTree,
    FeTree,
    FnTree,
    TnTree,
    _abort,
    _link,
    new_locked_node,
    new_marked_node,
    new_node,
    new_stamped_node,
)
from cbst.verify import (
    DeadlockSuspectedError,
    StressConfig,
    check_linearizable,
    check_structure,
    run_stress,
)

# A clean run takes about 50 ms; the timeout only bounds a hung one.
CONFIG = StressConfig(threads=4, key_range=12, insert_pct=40, delete_pct=30,
                      search_pct=30, ops_per_thread=2000, timeout_s=10)


class FnInsertWithoutLinkCheck(FnTree):
    """Commits without re-checking that pred still points at curr."""

    def _insert(self, key, pred, curr):
        plock = pred.lock
        if not plock.acquire(False):
            return _abort()
        clock = curr.lock
        if not clock.acquire(False):
            return _abort(plock)
        if key < curr.key:
            router = new_locked_node(curr.key, new_locked_node(key), curr)
        else:
            router = new_locked_node(key, curr, new_locked_node(key))
        _link(pred, key >= pred.key, router)
        clock.release()
        plock.release()
        return True


class FeInsertWithoutRetraversal(FeTree):
    """Commits under the leaf's lock without descending again."""

    def _insert(self, key, pred, curr):
        clock = curr.lock
        if not clock.acquire(False):
            return _abort()
        if key < curr.key:
            router = new_locked_node(curr.key, new_locked_node(key), curr)
        else:
            router = new_locked_node(key, curr, new_locked_node(key))
        _link(pred, key >= pred.key, router)
        clock.release()
        return True


class FeDeleteWithoutSiblingLock(FeTree):
    """Splices pred's other child into ppred without locking it."""

    def _delete(self, key, ppred, pred, curr):
        plock = pred.lock
        if not plock.acquire(False):
            return _abort()
        clock = curr.lock
        if not clock.acquire(False):
            return _abort(plock)
        fppred = None
        fpred = self.root
        fcurr = fpred.left
        while fcurr.left is not None:
            fppred = fpred
            fpred = fcurr
            fcurr = fcurr.left if key < fcurr.key else fcurr.right
        if fppred is not ppred or fpred is not pred or fcurr is not curr:
            return _abort(clock, plock)
        _link(ppred, key >= ppred.key, pred.left if key >= pred.key else pred.right)
        clock.release()
        plock.release()
        return True


class FemInsertWithoutMarkAndLinkCheck(FemTree):
    """Commits under the leaf's lock without looking at pred's mark or
    link."""

    def _insert(self, key, pred, curr):
        clock = curr.lock
        if not clock.acquire(False):
            return _abort()
        if key < curr.key:
            router = new_marked_node(curr.key, new_marked_node(key), curr)
        else:
            router = new_marked_node(key, curr, new_marked_node(key))
        _link(pred, key >= pred.key, router)
        clock.release()
        return True


class TnInsertWithoutStampCompare(TnTree):
    """Commits under pred's lock without comparing its version with the
    descent's stamp."""

    def _insert(self, key, pred, pstamp, curr):
        plock = pred.lock
        if not plock.acquire(False):
            return _abort()
        if key < curr.key:
            router = new_stamped_node(curr.key, new_node(key), curr)
        else:
            router = new_stamped_node(key, curr, new_node(key))
        _link(pred, key >= pred.key, router)
        pred.version += 1
        plock.release()
        return True


class TnInsertWithoutVersionBump(TnTree):
    """Commits without bumping pred's version, so a stale stamp still
    matches."""

    def _insert(self, key, pred, pstamp, curr):
        plock = pred.lock
        if not plock.acquire(False):
            return _abort()
        if pred.version != pstamp:
            return _abort(plock)
        if key < curr.key:
            router = new_stamped_node(curr.key, new_node(key), curr)
        else:
            router = new_stamped_node(key, curr, new_node(key))
        _link(pred, key >= pred.key, router)
        plock.release()
        return True


# Each mutant's seeds. With a CPU free for the threads waiting on the GIL
# (2 vCPUs, CPython 3.11), a run caught fn's mutant about one time in four,
# fem's and tn's about one in two and fe's nearly always. At half those
# rates, each range still misses its mutant in under one run in 8,000.
# When no CPU is free a waiter cannot ask for the GIL, threads switch only
# every few milliseconds, and catches fall to a few in a hundred runs.
MUTANTS = {
    FnInsertWithoutLinkCheck: range(60),
    FeInsertWithoutRetraversal: range(20),
    FeDeleteWithoutSiblingLock: range(20),
    FemInsertWithoutMarkAndLinkCheck: range(40),
    TnInsertWithoutStampCompare: range(40),
    TnInsertWithoutVersionBump: range(40),
}


class Halted(Exception):
    """Raised in the workers of a hung run to end them."""


def halt_workers():
    """End the workers of a run declared stuck. Every wait in tree.py is a
    call to its ``pause``, so one that raises ends each at its next wait."""

    def halt():
        raise Halted

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cbst.tree, "pause", halt)
        for worker in threading.enumerate():
            if worker.name.startswith("cbst-"):
                worker.join(10)
                assert not worker.is_alive(), f"{worker.name} did not halt"


def caught(tree_class, seed, monkeypatch):
    """Whether a recorded run of ``tree_class`` at ``seed`` hangs, or ends
    with a broken structure or a history that is not linearizable."""
    monkeypatch.setattr(cbst.verify, "new_tree", lambda variant: tree_class())
    try:
        history, tree = run_stress(replace(CONFIG, variant=tree_class.variant, seed=seed))
    except DeadlockSuspectedError:
        halt_workers()
        return True
    return not (check_structure(tree).ok
                and check_linearizable(history, tree.collect_leaf_keys()))


@pytest.mark.parametrize("mutant", list(MUTANTS), ids=lambda cls: cls.__name__)
def test_mutant_is_caught(mutant, monkeypatch):
    seeds = MUTANTS[mutant]
    assert any(caught(mutant, seed, monkeypatch) for seed in seeds), (
        f"{mutant.__name__} passed seeds {seeds.start}-{seeds.stop - 1}")


@pytest.mark.parametrize("clean", [FnTree, FeTree, FemTree, TnTree],
                         ids=lambda cls: cls.variant)
def test_clean_tree_passes_every_seed(clean, monkeypatch):
    seeds = max((s for m, s in MUTANTS.items() if issubclass(m, clean)), key=len)
    assert [seed for seed in seeds if caught(clean, seed, monkeypatch)] == []
