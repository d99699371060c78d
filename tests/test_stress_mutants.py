"""Recorded run_stress runs catch one-line protocol mutants, and the
unmutated trees pass them.

A recorded run of 4 threads x 2,000 operations over 12 keys at 40/30/30 is
decided by ``check_structure`` and by ``check_linearizable`` ending at the
final contents. A run that hangs fails too, as ``cbst check`` reports it.
Each clean tree must pass every seed of a fixed range, which pins the
checkers' false-positive rate on real threads.

Plain recorded runs caught the mutants at rates that moved with the host.
With no CPU free, a thread waiting for the GIL cannot ask for it, so the
threads switch only when the OS preempts the holder: a run of 8,000
operations switched threads 4 to 10 times, and fem's and tn's mutants
passed all of 40 seeds. So each mutant runs with yields: every update
yields on entering its control phase and before each child-pointer store.
A yield is a call to ``cbst.tree.pause``, ``os.sched_yield``, which drops
the GIL and lets the OS run a thread waiting for it, so the runs
interleave inside updates whether or not a CPU is free. The clean trees
must pass the same yielding runs. ``test_schedule.py`` decides the full
audit, on controlled schedules.
"""

import threading
from dataclasses import replace

import pytest

import cbst.tree
import cbst.verify
from cbst.tree import FemTree, FeTree, FnTree, TnTree
from cbst.verify import (
    DeadlockSuspectedError,
    StressConfig,
    check_linearizable,
    check_structure,
    run_stress,
)
from mutants import ROWS, mutant

# A clean run takes about 50 ms; the timeout only bounds a hung one.
CONFIG = StressConfig(threads=4, key_range=12, insert_pct=40, delete_pct=30,
                      search_pct=30, ops_per_thread=2000, timeout_s=10)

# The audit rows (see mutants.py) whose mutants must be caught, each within
# its seeds. With yields, each was caught at every one of the first 10 seeds
# (2 vCPUs, neither free, CPython 3.11); fem's by a hang, so its first seed
# takes the timeout.
MUTANTS = {
    mutant(*ROWS[name][:5]): seeds
    for name, seeds in [
        ("FeInsertWithoutRetraversal", range(20)),
        ("FeDeleteWithoutSiblingLock", range(20)),
        ("FemInsertWithoutMarkAndLinkCheck", range(40)),
        ("TnInsertWithoutStampCompare", range(40)),
        ("TnInsertWithoutVersionBump", range(40)),
    ]
}


class Halted(Exception):
    """Raised in the workers of a hung run to end them."""


def halt_workers():
    """End the workers of a run declared stuck. Every wait in tree.py, and
    every yield, is a call to its ``pause``, so one that raises ends each at
    its next wait."""

    def halt():
        raise Halted

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cbst.tree, "pause", halt)
        for worker in threading.enumerate():
            if worker.name.startswith("cbst-"):
                worker.join(10)
                assert not worker.is_alive(), f"{worker.name} did not halt"


def fails(variant, seed):
    """Whether a recorded run of ``variant`` at ``seed`` hangs, or ends with
    a broken structure or a history that is not linearizable."""
    try:
        history, tree = run_stress(replace(CONFIG, variant=variant, seed=seed))
    except DeadlockSuspectedError:
        halt_workers()
        return True
    return not (check_structure(tree).ok
                and check_linearizable(history, tree.collect_leaf_keys()))


_store = cbst.tree._link


def yielding_link(parent, right, child):
    """``cbst.tree._link`` after a yield."""
    cbst.tree.pause()
    _store(parent, right, child)


def yielding(tree_class):
    """A subclass of ``tree_class`` that yields on entering each control
    phase."""

    def _insert(self, *args):
        cbst.tree.pause()
        return tree_class._insert(self, *args)

    def _delete(self, *args):
        cbst.tree.pause()
        return tree_class._delete(self, *args)

    return type(tree_class.__name__, (tree_class,), {"_insert": _insert, "_delete": _delete})


def fails_yielding(tree_class, seed, monkeypatch):
    """``fails`` for a run of ``tree_class`` whose updates yield on entering
    the control phase and before each child-pointer store."""
    yielding_class = yielding(tree_class)
    monkeypatch.setattr(cbst.verify, "new_tree", lambda variant: yielding_class())
    monkeypatch.setattr(cbst.tree, "_link", yielding_link)
    return fails(tree_class.variant, seed)


@pytest.mark.parametrize("mutant", list(MUTANTS), ids=lambda cls: cls.__name__)
def test_mutant_is_caught(mutant, monkeypatch):
    seeds = MUTANTS[mutant]
    assert any(fails_yielding(mutant, seed, monkeypatch) for seed in seeds), (
        f"{mutant.__name__} passed seeds {seeds.start}-{seeds.stop - 1}")


# The seed ranges the mutant rows of each variant have, fn's from the row of
# its insert without the link re-check that this file once held.
SEEDS = {"fn": range(60), "fe": range(20), "fem": range(40), "tn": range(40)}


@pytest.mark.parametrize("variant", SEEDS)
def test_clean_tree_passes_every_seed(variant):
    assert [seed for seed in SEEDS[variant] if fails(variant, seed)] == []


# A yielding run takes about 90 ms; these are the seeds at which every
# mutant was measured caught.
@pytest.mark.parametrize("clean", [FnTree, FeTree, FemTree, TnTree], ids=lambda cls: cls.variant)
def test_clean_tree_passes_every_yielding_seed(clean, monkeypatch):
    assert [seed for seed in range(10) if fails_yielding(clean, seed, monkeypatch)] == []
