"""Protocol mutants are caught, and the clean trees pass, on controlled
schedules (see ``schedule.py``).

Every verdict here is deterministic: a schedule replays exactly, whatever
the host's CPUs, so a mutant caught once is caught on every run. This file
holds the full audit; ``test_stress_mutants.py`` also requires recorded
runs on real threads, made to yield inside updates, to catch five of these
mutants.
"""

import pytest

from cbst.core import OpKind
from cbst.tree import (
    _RETRY, CONCURRENT_VARIANTS, FemTree, FeTree, FnTree, SeqTree, TnTree, new_tree,
)
from mutants import mutant
from schedule import GRID_A, GRID_B, GRID_E, GRID_S, explore, run_schedule

# The necessity audit: one row per step left in a control phase of fn, fe,
# fem and tn, (name, base, method, snippet, replacement, grid). Each mutant
# drops that one step, a dropped lock becoming a fresh private one, and must
# be caught at bound 1 on its grid, the first of A, B and E that catches it.
# The delete's lock or mark check on ppred needs grid B, where a delete's
# ppred can be a router that another delete retires. The steps since
# dropped, fn's leaf locks and ppred->pred re-check, fem's leaf mark, its
# ppred->pred re-check and its mark test before pred's acquire, and tn's
# ppred stamp compare and bump, passed grids A and B at bound 2 and grid C
# at bound 1.
STEPS = [
    ("FnInsertWithoutPredLock", FnTree, "_insert", "plock = pred.lock",
     "plock = threading.Lock()", GRID_A),
    ("FnInsertWithoutLinkCheck", FnTree, "_insert",
     "(pred.right if right else pred.left) is not curr", "False", GRID_A),
    ("FnDeleteWithoutPpredLock", FnTree, "_delete", "glock = ppred.lock",
     "glock = threading.Lock()", GRID_B),
    ("FnDeleteWithoutPredLock", FnTree, "_delete", "plock = pred.lock",
     "plock = threading.Lock()", GRID_A),
    ("FnDeleteWithoutLinkCheck", FnTree, "_delete",
     "(pred.right if right else pred.left) is not curr", "False", GRID_A),
    ("FeInsertWithoutLeafLock", FeTree, "_insert", "clock = curr.lock",
     "clock = threading.Lock()", GRID_A),
    ("FeInsertWithoutRetraversal", FeTree, "_insert",
     "fpred is not pred or fcurr is not curr", "False", GRID_A),
    ("FeDeleteWithoutPredLock", FeTree, "_delete", "plock = pred.lock",
     "plock = threading.Lock()", GRID_A),
    ("FeDeleteWithoutLeafLock", FeTree, "_delete", "clock = curr.lock",
     "clock = threading.Lock()", GRID_A),
    ("FeDeleteWithoutRetraversal", FeTree, "_delete",
     "fppred is not ppred or fpred is not pred or fcurr is not curr", "False", GRID_A),
    ("FeDeleteWithoutSiblingLock", FeTree, "_delete",
     "_link_locked_sibling(ppred, key >= ppred.key, pred, key >= pred.key)",
     "_link(ppred, key >= ppred.key, pred.left if key >= pred.key else pred.right)",
     GRID_A),
    ("FemInsertWithoutLeafLock", FemTree, "_insert", "clock = curr.lock",
     "clock = threading.Lock()", GRID_A),
    ("FemInsertWithoutMarkCheck", FemTree, "_insert", "pred.marked or ", "", GRID_A),
    ("FemInsertWithoutLinkCheck", FemTree, "_insert",
     "(pred.right if right else pred.left) is not curr", "False", GRID_A),
    # Both checks at once, the drop that test_stress_mutants.py also runs.
    ("FemInsertWithoutMarkAndLinkCheck", FemTree, "_insert",
     "pred.marked or (pred.right if right else pred.left) is not curr", "False", GRID_A),
    # Its rollbacks still release pred's lock, which this pass never took,
    # and the first failing run raises there. A drop that also skips those
    # releases hangs on grid A at bound 1, in its 496th schedule.
    ("FemDeleteWithoutPredLock", FemTree, "_delete", "pred.lock.acquire(False)",
     "threading.Lock().acquire(False)", GRID_A),
    ("FemDeleteWithoutPredMark", FemTree, "_delete", "pred.marked = True", "pass", GRID_A),
    ("FemDeleteWithoutPpredMarkCheck", FemTree, "_delete", "ppred.marked or ", "", GRID_B),
    ("FemDeleteWithoutLeafLock", FemTree, "_delete", "clock = curr.lock",
     "clock = threading.Lock()", GRID_A),
    ("FemDeleteWithoutLinkCheck", FemTree, "_delete",
     "(pred.right if right else pred.left) is not curr", "False", GRID_A),
    ("FemDeleteWithoutSiblingWait", FemTree, "_delete",
     "_link_settled_sibling(ppred, key >= ppred.key, pred, right)",
     "_link(ppred, key >= ppred.key, pred.left if right else pred.right)", GRID_A),
    ("TnInsertWithoutPredLock", TnTree, "_insert", "plock = pred.lock",
     "plock = threading.Lock()", GRID_A),
    ("TnInsertWithoutStampCompare", TnTree, "_insert", "pred.version != pstamp", "False",
     GRID_A),
    ("TnInsertWithoutVersionBump", TnTree, "_insert", "pred.version += 1", "pass", GRID_A),
    ("TnDeleteWithoutPpredLock", TnTree, "_delete", "glock = ppred.lock",
     "glock = threading.Lock()", GRID_B),
    ("TnDeleteWithoutPredLock", TnTree, "_delete", "plock = pred.lock",
     "plock = threading.Lock()", GRID_A),
    ("TnDeleteWithoutStampCompare", TnTree, "_delete", "pred.version != pstamp", "False",
     GRID_A),
]

# Rollbacks that drop one release and so keep a lock of a failed pass held.
# A run that then hangs is caught.
ROLLBACKS = [
    ("FnInsertKeepsPredOnMovedLink", FnTree, "_insert", "_abort(plock)", "_abort()", GRID_E),
    ("FnDeleteKeepsPpredOnBusyPred", FnTree, "_delete", "_abort(glock)", "_abort()", GRID_A),
    ("FnDeleteKeepsPredOnMovedLink", FnTree, "_delete", "_abort(plock, glock)",
     "_abort(glock)", GRID_A),
    ("FnDeleteKeepsPpredOnMovedLink", FnTree, "_delete", "_abort(plock, glock)",
     "_abort(plock)", GRID_E),
    ("FeInsertKeepsLeafOnMovedPath", FeTree, "_insert", "_abort(clock)", "_abort()", GRID_A),
    ("FeDeleteKeepsPredOnBusyLeaf", FeTree, "_delete", "_abort(plock)", "_abort()", GRID_A),
    ("FeDeleteKeepsLeafOnMovedPath", FeTree, "_delete", "_abort(clock, plock)",
     "_abort(plock)", GRID_A),
    ("FeDeleteKeepsPredOnMovedPath", FeTree, "_delete", "_abort(clock, plock)",
     "_abort(clock)", GRID_B),
    ("FemInsertKeepsLeafOnStalePred", FemTree, "_insert", "_abort(clock)", "_abort()",
     GRID_A),
    # pred's two rollbacks call the same _unmark_abort(pred); each row keeps
    # the line before it, and drops only the release.
    ("FemDeleteKeepsPredOnMarkedPpredOrBusyLeaf", FemTree, "_delete",
     "clock.acquire(False):\n        return _unmark_abort(pred)",
     "clock.acquire(False):\n        return setattr(pred, 'marked', False) or _RETRY",
     GRID_A),
    ("FemDeleteKeepsLeafOnMovedLink", FemTree, "_delete", "clock.release()", "pass", GRID_A),
    ("FemDeleteKeepsPredOnMovedLink", FemTree, "_delete",
     "clock.release()\n        return _unmark_abort(pred)",
     "clock.release()\n        return setattr(pred, 'marked', False) or _RETRY", GRID_E),
    ("TnInsertKeepsPredOnMovedStamp", TnTree, "_insert", "_abort(plock)", "_abort()", GRID_B),
    ("TnDeleteKeepsPpredOnBusyPred", TnTree, "_delete", "_abort(glock)", "_abort()", GRID_A),
    ("TnDeleteKeepsPredOnMovedStamp", TnTree, "_delete", "_abort(plock, glock)",
     "_abort(glock)", GRID_A),
    ("TnDeleteKeepsPpredOnMovedStamp", TnTree, "_delete", "_abort(plock, glock)",
     "_abort(plock)", GRID_A),
]

AUDIT = STEPS + ROLLBACKS


@pytest.mark.parametrize("name, base, method, snippet, replacement, grid", AUDIT,
                         ids=[row[0] for row in AUDIT])
def test_mutant_is_caught(name, base, method, snippet, replacement, grid):
    dropped = mutant(name, base, method, snippet, replacement)
    result = explore(dropped, grid.prefill, grid.plans, 1, first_failure=True)
    assert result.failures, f"{name} passed grid {grid.name} at bound 1"


@pytest.mark.parametrize("variant", CONCURRENT_VARIANTS)
def test_clean_tree_passes_grid_a(variant):
    result = explore(lambda: new_tree(variant), GRID_A.prefill, GRID_A.plans, 1)
    assert result.failures == []
    # Without preemptions each plan has two schedules, one per first thread.
    assert result.schedules > 2 * len(GRID_A.plans)


@pytest.mark.parametrize("variant", ["fn", "fem", "tn"])
def test_clean_tree_passes_grid_b(variant):
    # Grid B is where a delete's ppred can be retired by another delete.
    result = explore(lambda: new_tree(variant), GRID_B.prefill, GRID_B.plans, 1)
    assert result.failures == []


@pytest.mark.parametrize("variant", CONCURRENT_VARIANTS)
def test_clean_tree_passes_grids_e_and_s(variant):
    for grid in (GRID_E, GRID_S):
        result = explore(lambda: new_tree(variant), grid.prefill, grid.plans, 1)
        assert result.failures == [], grid.name


def test_searches_run_on_schedules():
    # A search in a plan calls search and is judged with the rest: here a
    # search for 5 that runs after delete(5) must miss.
    plan = (((OpKind.DELETE, 5),), ((OpKind.SEARCH, 5),))
    assert run_schedule(FnTree, (5,), plan)[0] is None
    lying = type("Lying", (FnTree,), {"search": lambda self, key: True})
    assert run_schedule(lying, (5,), plan)[0] == "not linearizable"


def test_seq_loses_an_update():
    # The unsynchronised tree fails as soon as one preemption splits two
    # inserts of the same key.
    plan = (((OpKind.INSERT, 1),), ((OpKind.INSERT, 1),))
    assert explore(SeqTree, (2, 3), [plan], 0).failures == []
    assert explore(SeqTree, (2, 3), [plan], 1, first_failure=True).failures


def test_bound_zero_runs_each_order_of_whole_operations():
    # Only the free choices remain: which thread starts, and which goes
    # next whenever one ends, so three threads run in all 3! orders.
    plan = tuple(((OpKind.INSERT, key),) for key in (1, 4, 5))
    assert explore(FnTree, (2, 3), [plan], 0).schedules == 6


def test_a_schedule_replays_exactly():
    plan = (((OpKind.DELETE, 2), (OpKind.INSERT, 1)), ((OpKind.INSERT, 2),))
    # Thread 0 starts, then is preempted at its first visible step.
    prefix = [0, 1]
    first = run_schedule(FnTree, (2, 3), plan, prefix)
    assert first[0] is None
    assert [point.chosen for point in first[1][:2]] == prefix
    assert run_schedule(FnTree, (2, 3), plan, prefix) == first


def test_worker_exception_fails_the_run():
    class Raising(FnTree):
        def _insert(self, key, pred, curr):
            raise RuntimeError("release unlocked lock")

    why, _ = run_schedule(Raising, (2,), (((OpKind.INSERT, 1),), ((OpKind.DELETE, 2),)))
    assert why == "thread 0 raised RuntimeError('release unlocked lock')"


def test_endless_retries_are_a_hang():
    class Stuck(FnTree):
        def _insert(self, key, pred, curr):
            return _RETRY

    why, _ = run_schedule(Stuck, (2,), (((OpKind.INSERT, 1),), ((OpKind.DELETE, 2),)))
    assert why.startswith("hang")
