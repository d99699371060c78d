"""Recorded run_stress runs catch one-line protocol mutants.

Each mutant is a tree subclass whose ``_insert`` or ``_delete`` is its
variant's own control phase with one validation or lock step dropped. A
recorded run of 4 threads x 2,000 operations over 12 keys at 40/30/30 is
decided by ``check_structure`` and by ``check_linearizable`` ending at the
final contents. A run that hangs is caught too, as ``cbst check`` reports
it. Each mutant must be caught within its own fixed seed range, and the
unmutated trees must pass every seed of those ranges, which pins both
detection and the false-positive rate.

fem's delete with its sibling wait skipped is left out: about a third of
its runs hang until the timeout. So is fn's insert without its link
re-check, which recorded runs seldom catch (see ``MUTANTS``).
``test_schedule.py`` catches both, and the mutants here, on controlled
schedules, where the verdict does not depend on the host's CPUs.
"""

import inspect
import textwrap
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

# A clean run takes about 50 ms; the timeout only bounds a hung one.
CONFIG = StressConfig(threads=4, key_range=12, insert_pct=40, delete_pct=30,
                      search_pct=30, ops_per_thread=2000, timeout_s=10)


def mutant(name, base, method, snippet, replacement):
    """A subclass of ``base`` named ``name`` whose ``method`` is base's own,
    rebuilt from its source with ``snippet`` replaced.

    The method is compiled with ``cbst.tree``'s module dict as its globals,
    so it sees every patch made there, as the real one does. ``snippet``
    must occur exactly once, so an edit of the method that moves it fails
    here, naming the mutant, instead of testing a different mutation.
    """
    source = textwrap.dedent(inspect.getsource(getattr(base, method)))
    found = source.count(snippet)
    assert found == 1, f"{name}: {snippet!r} occurs {found} times in {base.__name__}.{method}"
    namespace = {}
    exec(source.replace(snippet, replacement), vars(cbst.tree), namespace)
    return type(name, (base,), {method: namespace[method]})


# One row per mutant, (name, base, method, snippet, replacement, seeds): the
# mutant drops one step and must be caught within its seeds. With a CPU free
# for the threads waiting on the GIL (2 vCPUs, CPython 3.11), a run caught
# fem's and tn's mutants about one time in two and fe's nearly always. At
# half those rates, each range still misses its mutant in under one run in
# 8,000. When no CPU is free a waiter cannot ask for the GIL, threads switch
# only every few milliseconds, and catches fall to a few in a hundred runs.
#
# fn's insert without its link re-check has no row: three sweeps of seeds
# 0-59 caught it in 2, 0 and 1 runs (fn locking routers only; fn with leaf
# locks read 0 and 1 in two sweeps on the same host), and a sweep that
# catches nothing leaves no rate to size a range by. test_schedule.py
# catches it deterministically, in its 4th schedule.
MUTANTS = {
    mutant(*row): seeds
    for *row, seeds in [
        # Commits under the leaf's lock whatever the re-traversal found.
        ("FeInsertWithoutRetraversal", FeTree, "_insert",
         "fpred is not pred or fcurr is not curr", "False", range(20)),
        # Splices pred's other child into ppred without locking it.
        ("FeDeleteWithoutSiblingLock", FeTree, "_delete",
         "_link_locked_sibling(ppred, key >= ppred.key, pred, key >= pred.key)",
         "_link(ppred, key >= ppred.key, pred.left if key >= pred.key else pred.right)",
         range(20)),
        # Commits under the leaf's lock without looking at pred's mark or link.
        ("FemInsertWithoutMarkAndLinkCheck", FemTree, "_insert",
         "pred.marked or (pred.right if right else pred.left) is not curr", "False",
         range(40)),
        # Commits under pred's lock without comparing its version with the
        # descent's stamp.
        ("TnInsertWithoutStampCompare", TnTree, "_insert",
         "pred.version != pstamp", "False", range(40)),
        # Commits without bumping pred's version, so a stale stamp still matches.
        ("TnInsertWithoutVersionBump", TnTree, "_insert",
         "pred.version += 1", "pass", range(40)),
    ]
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
    # fn has no mutant row; its clean runs keep the 60 seeds that row had.
    seeds = max((s for m, s in MUTANTS.items() if issubclass(m, clean)), key=len,
                default=range(60))
    assert [seed for seed in seeds if caught(clean, seed, monkeypatch)] == []
