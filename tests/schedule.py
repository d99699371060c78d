"""Bounded-preemption search over controlled schedules of tree operations.

A *plan* gives each worker thread its own list of operations, ``(OpKind,
key)`` pairs. :func:`run_schedule` runs one plan on a fresh tree under one
schedule. Each worker is a real thread, but only one runs at a time, and the
running thread gives way only at a *visible step*: the start of an
operation, before its invocation stamp, or an instruction of ``cbst.tree``
that reads or writes shared state, that is every LOAD_ATTR, STORE_ATTR and
LOAD_METHOD of ``left``, ``right``, ``marked``, ``version``, ``lock``,
``acquire``, ``release`` or ``locked``. Everything else there touches only
locals and keys, which never change. A ``sys.settrace`` opcode tracer in each worker
finds those instructions in every function whose globals are ``cbst.tree``'s,
so a mutant compiled into that namespace is traced too. The node builders
are left out: no other thread can see a node before its builder returns.

At a visible step the running thread goes on by default, and a switch to
another live thread costs one preemption. At the start and when a thread
ends, the next thread is a free choice, the lowest live id by default.
``cbst.tree.pause`` hands over to the next live thread in cyclic order,
which costs no preemption, so a thread waiting on another's lock lets the
holder run.

:func:`explore` visits every schedule with at most ``bound`` preemptions by
a stateless depth-first search (CHESS; Musuvathi & Qadeer, PLDI 2007). A run
follows a prefix of choices, then the defaults, and records each choice
point. Every alternative after the prefix that stays within the bound
becomes a new prefix, so each schedule runs exactly once. Stamps come from a
logical clock, and the prefilled keys enter the history as a pseudo-thread's
inserts before the first stamp. A run fails when a worker raises, when it
takes more than :data:`STEP_BUDGET` visible steps (a hang), or when
``check_structure`` or ``check_linearizable`` against the final keys rejects
it.

The grids are the plans the tests and the wide search use:

* A: 2 threads x 1 update over keys 1-4 with 2 and 3 prefilled, every
  unordered pair of the 8 updates (36 plans).
* B: the same over keys 0-8 with 1, 3, 5 and 7 prefilled (171 plans).
* C: 2 updates against 1, 300 random plans over B's keys.
* D: 3 threads x 1 update, 150 random plans over B's keys.
* E: two plans of C's shape over B's prefill, insert(6), delete(6) against
  insert(6), and delete(5), delete(3) against insert(6). A rollback that
  keeps a lock held shows only as a hang, when a later operation needs
  that lock. Here the thread with two operations may need, for its second,
  a router that a failed pass of either thread's first left locked. Three
  such rollbacks hang on these plans and on no plan of A or B.
* S: a search of each of B's keys against a delete of each prefilled key
  (36 plans). Every delete retires a router, which is on the path of some
  of the searches.

``PYTHONPATH=src python tests/schedule.py [VARIANT ...]`` runs the wide
search outside Tier-1 for the named clean variants, all by default: bound 2
on grids A, B, S and E, bound 1 on grids C and D. It prints the schedules,
failures and seconds for each variant and grid, and exits 1 if any run
failed.
"""

from __future__ import annotations

import dis
import functools
import random
import sys
import threading
import time
from itertools import combinations_with_replacement, count
from typing import NamedTuple

import cbst.tree
from cbst.core import OpKind
from cbst.tree import CONCURRENT_VARIANTS, new_tree
from cbst.verify import History, Operation, check_linearizable, check_structure

# Attribute names whose loads and stores are visible steps.
VISIBLE = frozenset(
    {"left", "right", "marked", "version", "lock", "acquire", "release", "locked"}
)
_ACCESSES = frozenset({"LOAD_ATTR", "STORE_ATTR", "LOAD_METHOD"})
_BUILDERS = frozenset({"new_node", "new_locked_node", "new_marked_node", "new_stamped_node"})
_TREE_GLOBALS = vars(cbst.tree)
# Visible steps a run may take before it counts as a hang. No passing run
# at bound 2 on grid A or bound 1 on grids C and D takes more than 126.
STEP_BUDGET = 3000
# Wall-clock seconds a single run may take before the search gives up on
# the scheduler itself; a hang of the tree is caught by STEP_BUDGET first.
RUN_TIMEOUT_S = 60


@functools.cache
def visible_offsets(code) -> frozenset[int]:
    """Byte offsets of ``code``'s visible instructions."""
    return frozenset(
        ins.offset
        for ins in dis.get_instructions(code)
        if ins.opname in _ACCESSES and ins.argval in VISIBLE
    )


class Halted(Exception):
    """Raised in a worker to end a run that has already failed."""


class Grid(NamedTuple):
    name: str
    prefill: tuple[int, ...]
    plans: list[tuple[tuple[tuple[OpKind, int], ...], ...]]


def _updates(keys) -> list[tuple[OpKind, int]]:
    return [(op, key) for key in keys for op in (OpKind.INSERT, OpKind.DELETE)]


def _pairs(keys):
    return [((u,), (v,)) for u, v in combinations_with_replacement(_updates(keys), 2)]


def _random_plans(shape, n, seed):
    """``n`` plans with ``shape[i]`` updates on thread i, drawn over grid
    B's keys."""
    rng = random.Random(seed)
    pool = _updates(range(9))
    return [tuple(tuple(rng.choice(pool) for _ in range(k)) for k in shape) for _ in range(n)]


GRID_A = Grid("A", (2, 3), _pairs(range(1, 5)))
GRID_B = Grid("B", (1, 3, 5, 7), _pairs(range(9)))
GRID_C = Grid("C", GRID_B.prefill, _random_plans((2, 1), 300, seed=1))
GRID_D = Grid("D", GRID_B.prefill, _random_plans((1, 1, 1), 150, seed=2))
GRID_E = Grid("E", GRID_B.prefill, [
    (((OpKind.INSERT, 6), (OpKind.DELETE, 6)), ((OpKind.INSERT, 6),)),
    (((OpKind.DELETE, 5), (OpKind.DELETE, 3)), ((OpKind.INSERT, 6),)),
])
GRID_S = Grid("S", GRID_B.prefill, [(((OpKind.SEARCH, s),), ((OpKind.DELETE, d),))
                                    for s in range(9) for d in GRID_B.prefill])


class Choice(NamedTuple):
    """One choice point of a run: the thread chosen, the default, the other
    live threads, the preemptions spent before it, and what a choice other
    than the default costs."""

    chosen: int
    default: int
    alternatives: tuple[int, ...]
    spent: int
    cost: int


class _Run:
    """One plan under one schedule. Only the running thread touches this
    state; each hand-over releases the next thread's gate, which orders
    the two threads' accesses."""

    def __init__(self, tree, plan, prefix, first_stamp):
        self.tree = tree
        self.plan = plan
        self.prefix = prefix
        self.points: list[Choice] = []
        self.spent = 0
        self.steps = 0
        self.live = list(range(len(plan)))
        self.running = 0
        self.gates = [threading.Lock() for _ in plan]
        for gate in self.gates:
            gate.acquire()
        self.done = threading.Lock()
        self.done.acquire()
        self.clock = count(first_stamp)
        self.ops: list[Operation] = []
        self.failure: str | None = None

    def choose(self, default, cost):
        """The next thread, by the prefix or else by ``default``."""
        alternatives = tuple(t for t in self.live if t != default)
        if not alternatives or self.failure is not None:
            return default
        i = len(self.points)
        chosen = self.prefix[i] if i < len(self.prefix) else default
        self.points.append(Choice(chosen, default, alternatives, self.spent, cost))
        if chosen != default:
            self.spent += cost
        return chosen

    def hand_over(self, nxt):
        me = self.running
        if nxt != me:
            self.running = nxt
            self.gates[nxt].release()
            self.gates[me].acquire()
        if self.failure is not None:
            raise Halted

    def step(self):
        """A visible step of the running thread."""
        if self.failure is not None:
            raise Halted
        self.steps += 1
        if self.steps > STEP_BUDGET:
            self.failure = f"hang: more than {STEP_BUDGET} visible steps"
            raise Halted
        self.hand_over(self.choose(self.running, 1))

    def pause(self):
        live = self.live
        self.hand_over(live[(live.index(self.running) + 1) % len(live)])

    def trace(self, frame, event, arg):
        """The global tracer: opcode-trace ``cbst.tree``'s functions."""
        code = frame.f_code
        if frame.f_globals is not _TREE_GLOBALS or code.co_name in _BUILDERS:
            return None
        offsets = visible_offsets(code)
        if not offsets:
            return None
        step = self.step
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True

        def local(frame, event, arg):
            if event == "opcode" and frame.f_lasti in offsets:
                step()
            return local

        return local

    def work(self, tid):
        self.gates[tid].acquire()
        tree = self.tree
        calls = {OpKind.SEARCH: tree.search, OpKind.INSERT: tree.insert,
                 OpKind.DELETE: tree.delete}
        try:
            if self.failure is not None:
                raise Halted
            sys.settrace(self.trace)
            for op, key in self.plan[tid]:
                self.step()
                invoke = next(self.clock)
                result = calls[op](key)
                self.ops.append(Operation(tid, op, key, result, invoke, next(self.clock)))
        except Halted:
            pass
        except Exception as exc:
            self.failure = f"thread {tid} raised {exc!r}"
        finally:
            sys.settrace(None)
            self.live.remove(tid)
            if self.live:
                self.running = self.choose(self.live[0], 0)
                self.gates[self.running].release()
            else:
                self.done.release()


def run_schedule(make_tree, prefill, plan, prefix=()):
    """Run ``plan`` on ``make_tree()`` loaded with ``prefill``, following the
    choices in ``prefix`` and then the defaults.

    Returns the verdict (None when the run passed, else why it failed) and
    the run's choice points.
    """
    tree = make_tree()
    if prefill:
        tree._load(list(prefill))
    pseudo = len(plan)
    ops = [Operation(pseudo, OpKind.INSERT, key, True, i, i) for i, key in enumerate(prefill)]
    run = _Run(tree, plan, list(prefix), len(prefill))
    workers = [
        threading.Thread(target=run.work, args=(tid,), daemon=True, name=f"sched-{tid}")
        for tid in range(len(plan))
    ]
    saved_pause = cbst.tree.pause
    cbst.tree.pause = run.pause
    try:
        for worker in workers:
            worker.start()
        run.running = run.choose(0, 0)
        run.gates[run.running].release()
        if not run.done.acquire(timeout=RUN_TIMEOUT_S):
            raise RuntimeError(f"schedule {prefix} of plan {plan} did not finish")
        for worker in workers:
            worker.join(RUN_TIMEOUT_S)
    finally:
        cbst.tree.pause = saved_pause
    if run.failure is not None:
        return run.failure, run.points
    report = check_structure(tree)
    if not report.ok:
        return f"structure: {report.violations[0]}", run.points
    if not check_linearizable(History(ops + run.ops), tree.collect_leaf_keys()):
        return "not linearizable", run.points
    return None, run.points


class Failure(NamedTuple):
    plan: tuple
    choices: list[int]
    why: str


class Result(NamedTuple):
    schedules: int
    failures: list[Failure]


def explore(make_tree, prefill, plans, bound, first_failure=False) -> Result:
    """Run every schedule of each plan with at most ``bound`` preemptions;
    with ``first_failure``, stop at the first failing run."""
    schedules = 0
    failures = []
    for plan in plans:
        stack = [[]]
        while stack:
            prefix = stack.pop()
            why, points = run_schedule(make_tree, prefill, plan, prefix)
            schedules += 1
            choices = [point.chosen for point in points]
            if why is not None:
                failures.append(Failure(plan, choices, why))
                if first_failure:
                    return Result(schedules, failures)
            for i in range(len(prefix), len(points)):
                point = points[i]
                if point.spent + point.cost <= bound:
                    stack.extend(choices[:i] + [t] for t in point.alternatives)
    return Result(schedules, failures)


# The wide search: (grid, bound) pairs.
WIDE = [(GRID_A, 2), (GRID_B, 2), (GRID_S, 2), (GRID_C, 1), (GRID_D, 1), (GRID_E, 2)]


def main(variants) -> int:
    failed = False
    for variant in variants:
        for grid, bound in WIDE:
            start = time.perf_counter()
            result = explore(lambda: new_tree(variant), grid.prefill, grid.plans, bound)
            seconds = time.perf_counter() - start
            print(f"{variant:6} grid {grid.name} bound {bound}: {result.schedules:7} "
                  f"schedules, {len(result.failures)} failures, {seconds:6.1f} s", flush=True)
            for failure in result.failures[:3]:
                print(f"    {failure.why}: plan {failure.plan}, choices {failure.choices}")
            failed = failed or bool(result.failures)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or CONCURRENT_VARIANTS))
