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
yields on entering its control phase and before each child-pointer store,
and a tn update also just before it reads its first lock. A yield is a
call to ``cbst.tree.pause``, ``os.sched_yield``, which drops the GIL and
lets the OS run a thread waiting for it, so the runs interleave inside
updates whether or not a CPU is free. The clean trees must pass the same
yielding runs. ``test_schedule.py`` decides the full audit, on controlled
schedules.
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
from mutants import ROWS, mutant, rebuilt

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


# tn reads pred's stamp and link on entering its control phase, and its
# stamp compare and bump guard only commits that land after that, while it
# takes its locks. With the entry yield alone its mutants without the
# compare or the bump were caught at 0 and 1 of seeds 0-9, so its control
# phases, rebuilt from their source, yield again just before the first lock
# read; then both were caught at 10 of 10.
TN_FIRST_LOCK_READS = {"_insert": "plock = pred.lock", "_delete": "glock = ppred.lock"}


def entering(control):
    """``control`` after a yield."""

    def yielding_control(self, *args):
        cbst.tree.pause()
        return control(self, *args)

    return yielding_control


def yielding(tree_class):
    """A subclass of ``tree_class`` that yields on entering each control
    phase and, for tn, again before its first lock read."""
    controls = {}
    for name in ("_insert", "_delete"):
        control = getattr(tree_class, name)
        if issubclass(tree_class, TnTree):
            snippet = TN_FIRST_LOCK_READS[name]
            control = rebuilt(f"yielding {tree_class.__name__}", control, snippet,
                              f"pause()\n    {snippet}")
        controls[name] = entering(control)
    return type(tree_class.__name__, (tree_class,), controls)


def fails_yielding(tree_class, seed, monkeypatch):
    """``fails`` for a run of ``tree_class`` whose updates yield as
    ``yielding`` makes them and before each child-pointer store."""
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
