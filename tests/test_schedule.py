"""Protocol mutants are caught, and the clean trees pass, on controlled
schedules (see ``schedule.py``).

Every verdict here is deterministic: a schedule replays exactly, whatever
the host's CPUs, so a mutant caught once is caught on every run. fn's
insert without its link re-check is decided only here, as a row of
``FN_AUDIT``: recorded runs seldom catch it.
"""

import pytest

from cbst.core import OpKind
from cbst.tree import _RETRY, CONCURRENT_VARIANTS, FemTree, FnTree, SeqTree, new_tree
from schedule import GRID_A, GRID_B, explore, run_schedule
from test_stress_mutants import MUTANTS, mutant

# Recorded runs leave this mutant out: about a third of them hang until the
# timeout. On schedules it ends as a linearizability violation.
FEM_SIBLING_WAIT = mutant(
    "FemDeleteWithoutSiblingWait", FemTree, "_delete",
    "_link_settled_sibling(ppred, pright, pred, right)",
    "_link(ppred, pright, pred.left if right else pred.right)")

# The necessity audit of fn: one row per step left in its control phases,
# (name, method, snippet, replacement, grid). Each mutant drops that one
# step, a dropped lock becoming a fresh private one, and must be caught at
# bound 1. Delete's ppred lock needs grid B, where a delete's ppred can be
# a router that another delete retires. The steps that fn dropped, its leaf
# locks and delete's ppred->pred re-check, passed grids A and B at bound 2
# and grids C and D at bound 1 in the same audit.
FN_AUDIT = [
    ("FnInsertWithoutPredLock", "_insert", "plock = pred.lock", "plock = threading.Lock()",
     GRID_A),
    ("FnInsertWithoutLinkCheck", "_insert", "(pred.right if right else pred.left) is not curr",
     "False", GRID_A),
    ("FnDeleteWithoutPpredLock", "_delete", "glock = ppred.lock", "glock = threading.Lock()",
     GRID_B),
    ("FnDeleteWithoutPredLock", "_delete", "plock = pred.lock", "plock = threading.Lock()",
     GRID_A),
    ("FnDeleteWithoutLinkCheck", "_delete", "(pred.right if right else pred.left) is not curr",
     "False", GRID_A),
]


def failures(tree_class, grid, bound=1):
    """The first failure among ``grid``'s schedules within ``bound``, as a
    list of at most one."""
    return explore(tree_class, grid.prefill, grid.plans, bound, first_failure=True).failures


@pytest.mark.parametrize("mutant_class", [*MUTANTS, FEM_SIBLING_WAIT],
                         ids=lambda cls: cls.__name__)
def test_mutant_is_caught(mutant_class):
    assert failures(mutant_class, GRID_A), f"{mutant_class.__name__} passed grid A at bound 1"


@pytest.mark.parametrize("name, method, snippet, replacement, grid", FN_AUDIT,
                         ids=[row[0] for row in FN_AUDIT])
def test_fn_step_is_necessary(name, method, snippet, replacement, grid):
    dropped = mutant(name, FnTree, method, snippet, replacement)
    assert failures(dropped, grid), f"{name} passed grid {grid.name} at bound 1"


@pytest.mark.parametrize("variant", CONCURRENT_VARIANTS)
def test_clean_tree_passes_grid_a(variant):
    result = explore(lambda: new_tree(variant), GRID_A.prefill, GRID_A.plans, 1)
    assert result.failures == []
    # Without preemptions each plan has two schedules, one per first thread.
    assert result.schedules > 2 * len(GRID_A.plans)


def test_fn_passes_grid_b():
    assert explore(FnTree, GRID_B.prefill, GRID_B.plans, 1).failures == []


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
