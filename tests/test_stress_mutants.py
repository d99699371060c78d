"""One-line protocol mutants are caught on seeded random controlled runs at
``run_stress``'s scale; the unmutated trees pass those runs and recorded
``run_stress`` runs on real threads.

A run is 4 workers x 2,000 operations over 12 keys at 40/30/30, with no
prefill. Each worker runs the stream that ``run_stress`` draws for the seed
(``stress_plan``), and ``run_schedule`` steps the workers on one thread
under its random policy, drawn from the same seed (see ``schedule.py``): at
each visible step it switches to a uniformly chosen other live worker with
probability ``SWITCH_P``, and at each ``pause`` it always switches. A run
fails when a worker raises, when it hangs (``STEP_BUDGET`` visible steps
with no operation completed), or when ``check_structure`` or
``check_linearizable`` ending at the final contents rejects it. A seed
replays exactly, whatever the host's CPUs.

Recorded runs on real threads caught these mutants at rates that moved with
the host: with no CPU free, a thread waiting for the GIL cannot ask for it,
so the threads switch only when the OS preempts the holder, a few times per
run. They stay as the check of the real-thread path: each clean tree must
pass every recorded seed of a fixed range, which pins the checkers'
false-positive rate on real threads. ``test_schedule.py`` decides the full
audit on bounded-preemption schedules.
"""

import threading
from dataclasses import replace

import pytest

import cbst.tree
from cbst.tree import FemTree, FeTree, FnTree, TnTree
from cbst.verify import (
    DeadlockSuspectedError,
    StressConfig,
    check_linearizable,
    check_structure,
    run_stress,
)
from mutants import ROWS, mutant
from schedule import run_schedule, stress_plan

# A clean recorded run takes about 50 ms; the timeout only bounds a hung one.
CONFIG = StressConfig(threads=4, key_range=12, insert_pct=40, delete_pct=30,
                      search_pct=30, ops_per_thread=2000, timeout_s=10)

# The audit rows (see mutants.py) whose mutants must be caught, each within
# its seeds. On controlled runs each was caught at every seed of its range,
# first at seed 0, in 0.06-0.2 s a run (2 vCPUs, CPython 3.11); fem's as not
# linearizable, except at 3 of its 40 seeds as a hang.
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


def fails_controlled(tree_class, seed):
    """Whether the controlled run of ``tree_class`` at ``seed`` fails."""
    plan = stress_plan(replace(CONFIG, seed=seed))
    return run_schedule(tree_class, (), plan, seed=seed).why is not None


@pytest.mark.parametrize("mutant", list(MUTANTS), ids=lambda cls: cls.__name__)
def test_mutant_is_caught(mutant):
    seeds = MUTANTS[mutant]
    assert any(fails_controlled(mutant, seed) for seed in seeds), (
        f"{mutant.__name__} passed seeds {seeds.start}-{seeds.stop - 1}")


# The seed ranges the mutant rows of each variant have, fn's from the row of
# its insert without the link re-check that this file once held.
SEEDS = {"fn": range(60), "fe": range(20), "fem": range(40), "tn": range(40)}


@pytest.mark.parametrize("variant", SEEDS)
def test_clean_tree_passes_every_seed(variant):
    assert [seed for seed in SEEDS[variant] if fails(variant, seed)] == []


# A controlled run takes about 0.1 s; these are the seeds at which every
# mutant was measured caught.
@pytest.mark.parametrize("clean", [FnTree, FeTree, FemTree, TnTree], ids=lambda cls: cls.variant)
def test_clean_tree_passes_every_controlled_seed(clean):
    assert [seed for seed in range(10) if fails_controlled(clean, seed)] == []
