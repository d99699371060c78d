"""Bounded-preemption search over controlled schedules of tree operations.

A *plan* gives each worker its own list of operations, ``(OpKind, key)``
pairs. :func:`run_schedule` runs one plan on a fresh tree under one
schedule, on the calling thread. A control phase of ``cbst.tree`` only
tries a lock with ``acquire(False)`` and waits only through ``pause()``, so
no operation blocks, and each worker is a generator that the driver steps
(VeriSoft's stateless search: Godefroid, POPL 1997). A worker runs its
operations through :func:`twin`, which compiles each function of
``cbst.tree`` that an operation reaches into a generator of the same source.
It yields STEP at the start of each operation, before its invocation stamp,
and before each load of a name in :data:`VISIBLE`, once the object is
evaluated: a node's ``left``, ``right``, ``version`` and ``lock``, and a
lock's ``acquire``, ``release`` and ``locked`` (fem's mark is a store and a
test of ``lock``). It yields STORE before each store of one, once the value
and then the object are evaluated, and PAUSE in place of ``pause()``.
Everything else touches only locals and keys, which never change. A call of
``_abort``, ``_link``, ``_link_*_sibling``, ``self._insert``,
``self._delete`` or ``_serialised``'s ``op`` runs the callee's twin by
``yield from``. The callee is looked up where the original looks, so a
mutant patched into ``cbst.tree`` is compiled too. A twin is compiled with
``cbst.tree``'s globals, from ``rebuilt_source`` when the function has one
(a mutant's, see ``mutants.py``), and cached per function object. The node
builders, and every function defined outside ``cbst.tree``, run as one
step: no other worker can see a node before its builder returns.
``test_schedule.py`` pins each twin's yields, one for one and in order, to
the visible instructions of the original's bytecode.

At a visible step the running worker goes on by default, and a switch to
another live worker costs one preemption. At the start and when a worker
ends, the next worker is a free choice, the lowest live id by default. A
pause hands over to the next live worker in cyclic order, which costs no
preemption, so a worker waiting on another's lock lets the holder run.

Given a seed, :func:`run_schedule` draws every choice instead, by the
random policy: a free choice is a uniformly chosen live worker, a visible
step switches to a uniformly chosen other live worker with probability
:data:`SWITCH_P`, and a pause always switches to a uniformly chosen other
live worker. A naive random scheduler of this kind was found competitive
with schedule bounding (Thomson, Donaldson & Betts, PPoPP 2014). The draws
come from stream ``len(plan)`` of ``thread_rng(seed)``, the one after the
workers' own, so a seed replays exactly. :func:`stress_plan` gives the
workers the streams ``run_stress`` draws for a ``StressConfig``;
``test_stress_mutants.py`` runs them, with no prefill, at its scale.

:func:`explore` visits every schedule with at most ``bound`` preemptions by
a stateless depth-first search (CHESS; Musuvathi & Qadeer, PLDI 2007). A run
follows a prefix of choices, then the defaults, and records each choice
point. Every alternative after the prefix that stays within the bound
becomes a new prefix, so each schedule runs exactly once. Stamps come from a
logical clock, and the prefilled keys enter the history as a pseudo-worker's
inserts before the first stamp. A run, bounded or random, fails when a
worker raises, when it takes more than :data:`STEP_BUDGET` visible steps
with no operation completing (a hang), or when ``check_structure`` or
``check_linearizable`` against the final keys rejects it. Since
``check_structure`` rejects a reachable node whose lock is still held, a
rollback that keeps a lock held fails the run even when no later operation
needs that lock; a hang verdict names the reachable locked nodes too, and
so what blocks.

The grids are the plans the tests and the wide search use:

* A: 2 workers x 1 update over keys 1-4 with 2 and 3 prefilled, every
  unordered pair of the 8 updates (36 plans).
* B: the same over keys 0-8 with 1, 3, 5 and 7 prefilled (171 plans).
* C: 2 updates against 1, 300 random plans over B's keys.
* D: 3 workers x 1 update, 150 random plans over B's keys.
* S: a search of each of B's keys against a delete of each prefilled key
  (36 plans). Every delete retires a router, which is on the path of some
  of the searches.

``PYTHONPATH=src python tests/schedule.py [VARIANT ...]`` runs the wide
search outside Tier-1 for the named clean variants, all by default: bound 2
on grids A, B and S, bound 1 on grids C and D. It prints each grid's
schedules, failures and seconds, and exits 1 if any run failed.
"""

from __future__ import annotations

import ast
import inspect
import random
import sys
import textwrap
import time
from itertools import combinations_with_replacement, count
from types import MethodType
from typing import NamedTuple

import cbst.tree
from cbst.core import OpKind, draw_stream, thread_rng
from cbst.tree import CONCURRENT_VARIANTS, new_tree
from cbst.verify import History, Operation, StressConfig, check_linearizable, check_structure

# Attribute names whose loads and stores are visible steps.
VISIBLE = frozenset({"left", "right", "version", "lock", "acquire", "release", "locked"})
STEP, STORE, PAUSE = "step", "store", "pause"
# Callees run by ``yield from`` their twins, as are self._insert and _delete.
_CALLEES = frozenset({"_abort", "_link", "_link_settled_sibling", "_link_locked_sibling", "op"})
# Visible steps a run may take with no operation completing before it counts
# as a hang. No passing run of the wide search, on any grid and clean
# variant, takes more than 124 in all (fe, D/1), and no clean random run at
# test_stress_mutants.py's scale more than 152 between two completed
# operations (fe; coarse, fn, fe, fem and tn at seeds 0-19).
STEP_BUDGET = 3000
# The random policy's chance of a switch at a visible step.
SWITCH_P = 0.3
# Each compiled function of cbst.tree, by the function it was compiled from.
TWINS = {}


def _visible_load(obj, attr):
    """``(_t := obj, (yield STEP), _t.attr)[2]``."""
    load = ast.parse(f"(_t := _, (yield {STEP!r}), _t.{attr})[2]", mode="eval").body
    load.value.elts[0].value = obj
    return load


def _visible_store(obj, attr, value):
    """``_v = value; _o = obj; yield STORE; _o.attr = _v``."""
    store = ast.parse(f"_v = _\n_o = _\nyield {STORE!r}\n_o.{attr} = _v").body
    store[0].value, store[1].value = value, obj
    return store


class _Twin(ast.NodeTransformer):
    """Rewrites a function of ``cbst.tree`` into its generator twin."""

    def visit_Attribute(self, node):
        self.generic_visit(node)
        if isinstance(node.ctx, ast.Load) and node.attr in VISIBLE:
            return _visible_load(node.value, node.attr)
        return node

    def visit_Assign(self, node):
        self.generic_visit(node)
        [target] = node.targets
        if isinstance(target, ast.Attribute) and target.attr in VISIBLE:
            return _visible_store(target.value, target.attr, node.value)
        return node

    def visit_AugAssign(self, node):
        self.generic_visit(node)
        target = node.target
        if not (isinstance(target, ast.Attribute) and target.attr in VISIBLE):
            return node
        # The object is evaluated once, as in the bytecode, and held in _a.
        obj = ast.NamedExpr(ast.Name("_a", ast.Store()), target.value)
        value = ast.BinOp(_visible_load(obj, target.attr), node.op, node.value)
        return _visible_store(ast.Name("_a", ast.Load()), target.attr, value)

    def visit_Call(self, node):
        self.generic_visit(node)
        func = node.func
        if isinstance(func, ast.Name) and func.id == "pause":
            return ast.Yield(ast.Constant(PAUSE))
        if (isinstance(func, ast.Name) and func.id in _CALLEES
                or isinstance(func, ast.Attribute) and func.attr in ("_insert", "_delete")):
            node.func = ast.Call(ast.Name("_twin", ast.Load()), [func], [])
            return ast.YieldFrom(node)
        return node


def _one_step(function):
    """``function`` as a generator that runs it whole and yields nothing."""

    def whole(*args):
        return function(*args)
        yield

    return whole


def twin(function):
    """The generator twin of ``function``, a function or a bound method: it
    takes the same arguments, yields at each visible step, and returns what
    ``function`` returns."""
    if isinstance(function, MethodType):
        return MethodType(twin(function.__func__), function.__self__)
    if function in TWINS:
        return TWINS[function]
    if function.__globals__ is not vars(cbst.tree):
        return _one_step(function)
    source = (getattr(function, "rebuilt_source", None)
              or textwrap.dedent(inspect.getsource(function)))
    definition = _Twin().visit(ast.parse(source)).body[0]
    # A closure's free variables become the parameters of a maker function.
    maker = ast.parse(f"def _make(_twin, {', '.join(function.__code__.co_freevars)}): pass")
    maker.body[0].body = [definition, ast.Return(ast.Name(definition.name, ast.Load()))]
    namespace = {}
    exec(compile(ast.fix_missing_locations(maker), f"<twin of {function.__qualname__}>",
                 "exec"), vars(cbst.tree), namespace)
    cells = [cell.cell_contents for cell in function.__closure__ or ()]
    TWINS[function] = made = namespace["_make"](twin, *cells)
    return made


class Grid(NamedTuple):
    name: str
    prefill: tuple[int, ...]
    plans: list[tuple[tuple[tuple[OpKind, int], ...], ...]]


def _updates(keys) -> list[tuple[OpKind, int]]:
    return [(op, key) for key in keys for op in (OpKind.INSERT, OpKind.DELETE)]


def _pairs(keys):
    return [((u,), (v,)) for u, v in combinations_with_replacement(_updates(keys), 2)]


def _random_plans(shape, n, seed):
    """``n`` plans with ``shape[i]`` updates on worker i, over B's keys."""
    rng = random.Random(seed)
    pool = _updates(range(9))
    return [tuple(tuple(rng.choice(pool) for _ in range(k)) for k in shape) for _ in range(n)]


GRID_A = Grid("A", (2, 3), _pairs(range(1, 5)))
GRID_B = Grid("B", (1, 3, 5, 7), _pairs(range(9)))
GRID_C = Grid("C", GRID_B.prefill, _random_plans((2, 1), 300, seed=1))
GRID_D = Grid("D", GRID_B.prefill, _random_plans((1, 1, 1), 150, seed=2))
GRID_S = Grid("S", GRID_B.prefill, [(((OpKind.SEARCH, s),), ((OpKind.DELETE, d),))
                                    for s in range(9) for d in GRID_B.prefill])


class Choice(NamedTuple):
    """One choice point of a run: the default worker, the other live
    workers, the preemptions spent before it, and what a choice other than
    the default costs."""

    default: int
    alternatives: tuple[int, ...]
    spent: int
    cost: int


def _worker(tree, tid, ops, clock, done):
    """Worker ``tid``: each of ``ops`` after a step of its own, recorded in
    ``done`` once it returns."""
    calls = {OpKind.SEARCH: twin(tree.search), OpKind.INSERT: twin(tree.insert),
             OpKind.DELETE: twin(tree.delete)}
    for op, key in ops:
        yield STEP
        invoke = next(clock)
        result = yield from calls[op](key)
        done.append(Operation(tid, op, key, result, invoke, next(clock)))


class Run(NamedTuple):
    """One run: its verdict (None when it passed, else why it failed), the
    worker chosen at each choice point, the points themselves, and its
    operations in invocation order, the prefill's pseudo-inserts included.
    A random run records no points: none is ever extended, and a record per
    visible step would double its time."""

    why: str | None
    choices: list[int]
    points: list[Choice]
    operations: list[Operation]


def stress_plan(config: StressConfig):
    """The operations ``run_stress(config)`` runs, one tuple per thread of
    ``(kind, key)`` pairs: ``draw_stream`` on the thread's ``thread_rng``
    stream, the call ``run_stress`` makes."""
    return tuple(
        tuple(zip(*draw_stream(thread_rng(config.seed, tid), config.insert_pct,
                               config.delete_pct, config.key_range, config.ops_per_thread)))
        for tid in range(config.threads))


def _others(live):
    """The other live workers, by live worker."""
    return {t: tuple(u for u in live if u != t) for t in live}


def run_schedule(make_tree, prefill, plan, prefix=(), seed=None) -> Run:
    """Run ``plan`` on ``make_tree()`` loaded with ``prefill``: following the
    choices in ``prefix`` and then the defaults, or, given ``seed``, the
    random policy drawn from stream ``len(plan)`` of ``thread_rng(seed)``."""
    tree = make_tree()
    if prefill:
        tree._load(list(prefill))
    ops = [Operation(len(plan), OpKind.INSERT, key, True, i, i) for i, key in enumerate(prefill)]
    clock = count(len(prefill))
    done = []
    workers = [_worker(tree, tid, work, clock, done) for tid, work in enumerate(plan)]
    live = list(range(len(plan)))
    others = _others(live)
    choices = []
    points = []
    spent = 0
    rng = None if seed is None else thread_rng(seed, len(plan))

    def choose(default, cost):
        """The next worker: by the prefix, else ``default``, or drawn by ``rng``."""
        nonlocal spent
        alternatives = others[default]
        if not alternatives:
            return default
        if rng is None:
            i = len(choices)
            chosen = prefix[i] if i < len(prefix) else default
            points.append(Choice(default, alternatives, spent, cost))
        elif cost == 0:
            chosen = rng.choice(live)
        else:
            chosen = rng.choice(alternatives) if rng.random() < SWITCH_P else default
        choices.append(chosen)
        if chosen != default:
            spent += cost
        return chosen

    why = None
    running = choose(0, 0)
    steps = completed = 0
    while live:
        try:
            event = next(workers[running])
        except StopIteration:
            live.remove(running)
            others = _others(live)
            running = choose(live[0], 0) if live else None
            continue
        except Exception as exc:
            why = f"thread {running} raised {exc!r}"
            break
        if len(done) > completed:
            completed, steps = len(done), 0
        if event == PAUSE:
            if rng is None:
                running = live[(live.index(running) + 1) % len(live)]
            elif others[running]:
                running = rng.choice(others[running])
        elif (steps := steps + 1) > STEP_BUDGET:
            locked = [v for v in check_structure(tree).violations if v.endswith("still locked")]
            why = "; ".join([f"hang: more than {STEP_BUDGET} visible steps since an operation "
                             f"completed", *locked])
            break
        else:
            running = choose(running, 1)
    history = History(ops + done)
    if why is None:
        report = check_structure(tree)
        if not report.ok:
            why = f"structure: {report.violations[0]}"
        elif not check_linearizable(history, tree.collect_leaf_keys()):
            why = "not linearizable"
    return Run(why, choices, points, history.operations())


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
            why, choices, points, _ = run_schedule(make_tree, prefill, plan, prefix)
            schedules += 1
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
WIDE = [(GRID_A, 2), (GRID_B, 2), (GRID_S, 2), (GRID_C, 1), (GRID_D, 1)]


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
