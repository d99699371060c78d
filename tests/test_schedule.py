"""Protocol mutants are caught, and the clean trees pass, on controlled
schedules (see ``schedule.py``).

Every verdict here is deterministic: a schedule replays exactly, whatever
the host's CPUs, so a mutant caught once is caught on every run. This file
decides the full audit, the rows of ``mutants.py``;
``test_stress_mutants.py`` also requires recorded runs on real threads,
made to yield inside updates, to catch five of these mutants.
"""

import pytest

import cbst.tree
from cbst.core import OpKind
from cbst.tree import _RETRY, CONCURRENT_VARIANTS, FnTree, SeqTree, new_tree
from mutants import ROLLBACKS, STEPS, mutant, rebuilt
from schedule import GRID_A, GRID_B, GRID_E, GRID_S, explore, run_schedule

AUDIT = STEPS + ROLLBACKS


@pytest.mark.parametrize("name, base, method, snippet, replacement, grid", AUDIT,
                         ids=[row[0] for row in AUDIT])
def test_mutant_is_caught(name, base, method, snippet, replacement, grid, monkeypatch):
    if hasattr(base, method):
        dropped = mutant(name, base, method, snippet, replacement)
    else:
        # A function of cbst.tree, patched in for this run only.
        function = rebuilt(name, getattr(cbst.tree, method), snippet, replacement)
        monkeypatch.setattr(cbst.tree, method, function)
        dropped = base
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
