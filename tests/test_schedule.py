"""Protocol mutants are caught, and the clean trees pass, on controlled
schedules (see ``schedule.py``).

Every verdict here is deterministic: a schedule, and a random run of a
seed, replays exactly, whatever the host's CPUs, so a mutant caught once is
caught on every run. This file decides the full audit, the rows of
``mutants.py``, on bounded-preemption schedules, and pins the random
policy's replay, plans and hang rule; ``test_stress_mutants.py`` requires
five of these mutants to be caught also on random runs at ``run_stress``'s
scale. The trees' other concurrent properties (small histories,
contention without leaked locks, conserved contents and searches beside
writers) are decided here on seeded random runs too.
"""

import dis
import random
from dataclasses import replace

import pytest

import cbst.tree
import schedule
from cbst.core import OpKind, thread_rng
from cbst.tree import (_RETRY, CONCURRENT_VARIANTS, VARIANT_NAMES, CoarseTree, FemTree,
                       FeTree, FnTree, SeqTree, TnTree, TreeBase, new_leaf, new_locked_node,
                       new_node, new_stamped_node, new_tree)
from cbst.verify import History, StressConfig, check_structure, count_overlapping, run_stress
from mutants import ROLLBACKS, ROWS, STEPS, mutant, rebuilt
from schedule import (GRID_A, GRID_B, GRID_E, GRID_S, PAUSE, STEP, STEP_BUDGET, STORE, VISIBLE,
                      explore, run_schedule, stress_plan, twin)
from test_tree import leaked_locks

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
    assert run_schedule(FnTree, (5,), plan).why is None
    lying = type("Lying", (FnTree,), {"search": lambda self, key: True})
    assert run_schedule(lying, (5,), plan).why == "not linearizable"


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
    assert first.why is None
    assert first.choices[:2] == prefix
    assert run_schedule(FnTree, (2, 3), plan, prefix) == first


# A small run_stress-shaped run for the random policy.
SMALL = StressConfig(threads=3, key_range=8, insert_pct=40, delete_pct=30, search_pct=30,
                     ops_per_thread=300)


def test_stress_plan_is_run_stress_streams():
    config = replace(SMALL, variant="fn", seed=5)
    history, _ = run_stress(config)
    streams = tuple(tuple((o.op, o.key) for o in history.operations() if o.thread_id == tid)
                    for tid in range(config.threads))
    assert stress_plan(config) == streams


@pytest.mark.parametrize("tree_class", [FemTree, mutant(*ROWS["TnInsertWithoutVersionBump"][:5])],
                         ids=["clean", "mutant"])
def test_a_random_run_replays_exactly(tree_class):
    # The seed fixes every choice: a second run makes the same choices,
    # gives the same history and reaches the same verdict.
    plan = stress_plan(replace(SMALL, seed=3))
    first = run_schedule(tree_class, (), plan, seed=3)
    assert (first.why is None) == (tree_class is FemTree)
    assert run_schedule(tree_class, (), plan, seed=3) == first
    # It preempts inside operations, and another seed makes other choices.
    assert count_overlapping(History(first.operations)) > 0
    assert run_schedule(tree_class, (), plan, seed=4).choices != first.choices


def test_step_budget_counts_from_the_last_completed_operation():
    # A passing run may take many times the budget in all.
    run = run_schedule(FnTree, (), stress_plan(replace(SMALL, seed=0)), seed=0)
    assert run.why is None
    assert len(run.choices) > 3 * STEP_BUDGET


def test_worker_exception_fails_the_run():
    class Raising(FnTree):
        def _insert(self, key, pred, curr):
            raise RuntimeError("release unlocked lock")

    why = run_schedule(Raising, (2,), (((OpKind.INSERT, 1),), ((OpKind.DELETE, 2),))).why
    assert why == "thread 0 raised RuntimeError('release unlocked lock')"


def test_endless_retries_are_a_hang():
    class Stuck(FnTree):
        def _insert(self, key, pred, curr):
            return _RETRY

    # Bounded and random runs share the hang rule.
    for seed in (None, 0):
        why = run_schedule(Stuck, (2,), (((OpKind.INSERT, 1),), ((OpKind.DELETE, 2),)),
                           seed=seed).why
        assert why.startswith("hang")


# Every function of cbst.tree that an operation of seq, coarse, fn, fe, fem or
# tn reaches. CoarseTree's three operations are one closure of _serialised.
REACHED = {f.__qualname__: f for f in [
    TreeBase.search, TreeBase.insert, TreeBase.delete, SeqTree._insert, SeqTree._delete,
    FnTree._insert, FnTree._delete, FeTree._insert, FeTree._delete, FemTree._insert,
    FemTree._delete, TnTree._insert, TnTree._delete, cbst.tree._abort, cbst.tree._link,
    cbst.tree._link_settled_sibling, cbst.tree._link_locked_sibling,
]}
REACHED["CoarseTree.search"] = CoarseTree.search
# A module-function mutant, compiled from its rebuilt source.
_, _, _, _snippet, _replacement, _ = ROWS["FeDeleteKeepsSiblingLocked"]
REACHED["_link_locked_sibling[FeDeleteKeepsSiblingLocked]"] = rebuilt(
    "FeDeleteKeepsSiblingLocked", cbst.tree._link_locked_sibling, _snippet, _replacement)


def visible_instructions(code):
    """What the twin of ``code`` must yield, in code order: STEP at each
    visible load, STORE at each visible store, PAUSE at each load of
    ``pause``."""
    marks = []
    for ins in dis.get_instructions(code):
        if ins.opname in ("LOAD_ATTR", "LOAD_METHOD") and ins.argval in VISIBLE:
            marks.append(STEP)
        elif ins.opname == "STORE_ATTR" and ins.argval in VISIBLE:
            marks.append(STORE)
        elif ins.opname == "LOAD_GLOBAL" and ins.argval == "pause":
            marks.append(PAUSE)
    return marks


def yields(code):
    """The constants ``code`` yields, in code order."""
    ins = list(dis.get_instructions(code))
    return [a.argval for a, b in zip(ins, ins[1:])
            if a.opname == "LOAD_CONST" and b.opname == "YIELD_VALUE"]


@pytest.mark.parametrize("function", REACHED.values(), ids=REACHED.keys())
def test_compiled_yields_match_visible_instructions(function):
    # The executor runs the twin, not the function: each visible step of
    # the original must be one yield of the twin, in the same place.
    assert yields(twin(function).__code__) == visible_instructions(function.__code__)


def test_operations_compile_the_reached_functions_only(monkeypatch):
    # Runs with conflicts and searches on every variant compile exactly the
    # functions pinned above; a builder runs as one step and is never
    # compiled.
    monkeypatch.setattr(schedule, "TWINS", {})
    for variant in VARIANT_NAMES:
        explore(lambda: new_tree(variant), GRID_A.prefill, GRID_A.plans, 1)
        explore(lambda: new_tree(variant), GRID_S.prefill, GRID_S.plans[:6], 0)
    compiled = {function.__code__ for function in schedule.TWINS}
    assert compiled == {function.__code__ for function in REACHED.values()
                        if not hasattr(function, "rebuilt_source")}
    builders = {new_node, new_leaf, new_locked_node, new_stamped_node}
    assert compiled.isdisjoint(builder.__code__ for builder in builders)


# The protocol properties below hold for every interleaving. Real threads
# seldom interleave on a busy host, so each is decided on seeded random
# runs, which preempt inside operations and replay exactly.


def run_keeping_tree(make_tree, prefill, plan, seed):
    """``run_schedule`` at ``seed``, and the tree it ran on."""
    trees = []
    run = run_schedule(lambda: trees.append(make_tree()) or trees[0], prefill, plan, seed=seed)
    return run, trees[0]


@pytest.mark.parametrize("variant", CONCURRENT_VARIANTS)
def test_small_histories_linearizable(variant):
    config = StressConfig(threads=3, key_range=4, insert_pct=40, delete_pct=30, search_pct=30,
                          ops_per_thread=5)
    for seed in range(30):
        run = run_schedule(lambda: new_tree(variant), (), stress_plan(replace(config, seed=seed)),
                           seed=seed)
        history = History(run.operations)
        assert run.why is None, "\n".join(history.to_lines())
        assert count_overlapping(history) > 0, f"seed {seed} ran its threads in turn"


# Four writers over two or three keys: something must collide and retry.
CONTENTION = StressConfig(threads=4, insert_pct=50, delete_pct=50, search_pct=0,
                          ops_per_thread=200)


@pytest.mark.parametrize("variant", ["fn", "fe", "fem", "tn"])
def test_contention_is_observed(variant):
    # A rollback that keeps a lock held shows as a hang or a leaked lock.
    for key_range in (2, 3):
        for seed in range(5):
            config = replace(CONTENTION, key_range=key_range, seed=seed)
            run, tree = run_keeping_tree(lambda: new_tree(variant), (), stress_plan(config), seed)
            assert run.why is None, (key_range, seed, run.why)
            assert tree.retry_count() > 0, f"key range {key_range}, seed {seed}: no retry"
            assert leaked_locks(tree) == [], (key_range, seed)


# Two 50/50 writers over 64 keys, half of them prefilled.
CONSERVE = StressConfig(threads=2, key_range=64, insert_pct=50, delete_pct=50, search_pct=0,
                        ops_per_thread=2000)
CONSERVE_PREFILL = tuple(random.Random(5).sample(range(64), 32))
CONSERVE_SEEDS = range(3)
# Each clean tree conserves the contents at every seed, and each of these
# mutants, which lose or double an update, fails to at every seed.
CONSERVES = {**{type(new_tree(v)): True for v in CONCURRENT_VARIANTS},
             **{mutant(*ROWS[name][:5]): False
                for name in ("FeDeleteWithoutSiblingLock", "FemInsertWithoutMarkAndLinkCheck")}}


def unconserved(tree_class, seed):
    """The run of ``tree_class`` at ``seed``, and the keys whose presence at
    its end is not the prefill plus the writers' net successful inserts and
    deletes."""
    plan = stress_plan(replace(CONSERVE, seed=seed))
    run, tree = run_keeping_tree(tree_class, CONSERVE_PREFILL, plan, seed)
    net = dict.fromkeys(CONSERVE_PREFILL, 1)
    for o in run.operations:
        # The prefill's pseudo-inserts, thread len(plan), are counted above.
        if o.thread_id < len(plan) and o.result:
            net[o.key] = net.get(o.key, 0) + (1 if o.op is OpKind.INSERT else -1)
    final = set(tree.collect_leaf_keys())
    return run, sorted(k for k in final | set(range(64)) if net.get(k, 0) != (k in final))


@pytest.mark.parametrize("tree_class", CONSERVES,
                         ids=lambda cls: cls.__name__ if cls.__name__ in ROWS else cls.variant)
def test_updates_conserve_contents(tree_class):
    """The final leaf keys are the prefill plus each key's net successful
    inserts and deletes, key by key.

    This is a floor for lost or doubled updates: before the fe delete took
    its sibling's flag for the splice, an fe insert was lost.
    """
    for seed in CONSERVE_SEEDS:
        run, wrong = unconserved(tree_class, seed)
        if CONSERVES[tree_class]:
            assert run.why is None, (seed, run.why)
            assert wrong == [], f"seed {seed}: keys {wrong}"
        else:
            assert wrong, f"{tree_class.__name__} conserved the contents at seed {seed}"


# Keys 3i are resident, 3i+1 churned by the writers and 3i+2 never inserted.
# The resident keys are loaded in a shuffled order: in ascending order they
# build a path 100 routers deep, and each run takes five times the steps.
RESIDENT = tuple(random.Random(3).sample(range(0, 300, 3), 100))


def search_plan(seed):
    """Two writers that insert and delete keys 3i+1, 2,000 operations each,
    and a reader that searches keys 3i and 3i+2, 4,000 times."""
    plan = []
    for tid in (0, 1):
        rng = thread_rng(seed, tid)
        plan.append(tuple((OpKind.INSERT if rng.random() < 0.5 else OpKind.DELETE,
                           3 * rng.randrange(100) + 1) for _ in range(2000)))
    rng = thread_rng(seed, 2)
    plan.append(tuple((OpKind.SEARCH, 3 * rng.randrange(100) + rng.choice((0, 2)))
                      for _ in range(4000)))
    return tuple(plan)


@pytest.mark.parametrize("variant", CONCURRENT_VARIANTS)
def test_search_under_writers(variant):
    """A search that runs beside writers finds every resident key no writer
    touches and never finds a key that was never inserted.

    The keys interleave, so the routers above the resident leaves are the
    ones the writers keep splicing in and out.
    """
    run, tree = run_keeping_tree(lambda: new_tree(variant), RESIDENT, search_plan(0), 0)
    assert run.why is None, run.why
    wrong = [o.key for o in run.operations
             if o.op is OpKind.SEARCH and o.result != (o.key % 3 == 0)]
    assert wrong == []
    assert check_structure(tree).ok
    assert set(RESIDENT) <= set(tree.collect_leaf_keys())
