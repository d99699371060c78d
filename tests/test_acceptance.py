"""Release gate: one test per published acceptance criterion.

Each test prints a one-line verdict with its wall time so a plain
``pytest -v -s tests/test_acceptance.py`` doubles as the acceptance report.
Stated time budgets are informational; the only semantic timeout is the 30 s
grace period inside the deadlock-freedom runs.
"""

import math
import os
import random
import statistics
import time

import pytest

from cbst.bench import MIX_LOW, MIX_MID, BenchConfig, WorkloadSpec, run_bench
from cbst.core import OpKind, SeqOracle, draw_op
from cbst.model import (
    ModelParams,
    alpha_at,
    amdahl_speedup,
    concurrent_speedup,
    fit_contention,
    validate,
)
from cbst.tree import CONCURRENT_VARIANTS, VARIANT_NAMES, new_tree
from cbst.verify import (
    History,
    Operation,
    StressConfig,
    _first_violation,
    check_linearizable,
    check_structure,
    run_stress,
)

from oracle import apply_op, brute_force_linearizable

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


class _Clock:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        return False

    def report(self, label):
        print(f"{label}: PASS in {self.elapsed:.2f}s")


def test_01_single_thread_oracle_equivalence():
    # every variant, result-for-result against the reference set,
    # 100k ops x 3 seeds, key range 1000
    with _Clock() as clock:
        for variant in VARIANT_NAMES:
            for seed in (101, 202, 303):
                tree = new_tree(variant)
                oracle = SeqOracle()
                rng = random.Random(seed)
                for i in range(100_000):
                    op, key = draw_op(rng, 40, 30, 1000)
                    got = apply_op(tree, op, key)
                    want = apply_op(oracle, op, key)
                    assert got == want, (variant, seed, i, op, key)
                assert tree.collect_leaf_keys() == oracle.contents()
                assert tree.retry_count() == 0
    clock.report("criterion 1 (oracle equivalence, 6 variants x 3 seeds x 1e5 ops)")


def test_02_randomized_histories_linearizable():
    # 10 recorded runs per concurrent variant, 3 threads x 1000 ops, key range 4
    with _Clock() as clock:
        for v_index, variant in enumerate(sorted(CONCURRENT_VARIANTS)):
            for i in range(10):
                config = StressConfig(
                    variant=variant, threads=3, key_range=4,
                    insert_pct=20, delete_pct=10, search_pct=70,
                    seed=10_000 * v_index + i, ops_per_thread=1000,
                )
                history, _ = run_stress(config)
                assert check_linearizable(history), "\n".join(history.to_lines())
    clock.report("criterion 2 (5 x 10 randomized 3,000-op histories all linearizable)")


def _random_history(rng, max_ops):
    n_threads = rng.randint(1, 3)
    n_ops = rng.randint(1, max_ops)
    owners = [rng.randrange(n_threads) for _ in range(n_ops)]
    kinds = [rng.choice((OpKind.SEARCH, OpKind.INSERT, OpKind.DELETE))
             for _ in range(n_ops)]
    keys = [rng.randrange(2) for _ in range(n_ops)]
    results = [rng.random() < 0.5 for _ in range(n_ops)]

    ops = []
    open_op = {}  # tid -> (op index, invoke tick)
    todo = list(range(n_ops))
    tick = 0
    while todo or open_op:
        closable = list(open_op)
        startable = [i for i in todo if owners[i] not in open_op]
        if closable and (not startable or rng.random() < 0.5):
            tid = rng.choice(closable)
            i, invoke = open_op.pop(tid)
            ops.append(Operation(tid, kinds[i], keys[i], results[i], invoke, tick))
        else:
            i = rng.choice(startable)
            todo.remove(i)
            open_op[owners[i]] = (i, tick)
        tick += 1
    # History takes each thread's operations together, in invocation order.
    ops.sort(key=lambda o: o.thread_id)
    return History(ops)


def test_03_checker_agrees_with_brute_force():
    # 500 random histories of at most 8 ops, plus the stored counterexample
    with _Clock() as clock:
        rng = random.Random(20_26)
        agree_true = agree_false = 0
        for _ in range(500):
            h = _random_history(rng, max_ops=8)
            fast = check_linearizable(h)
            slow = brute_force_linearizable(h)
            assert fast == slow, "\n".join(h.to_lines())
            if fast:
                agree_true += 1
            else:
                agree_false += 1
        assert agree_true > 0 and agree_false > 0

        fixture = History.load(os.path.join(FIXTURES, "non_linearizable.history"))
        assert check_linearizable(fixture) is False
        assert brute_force_linearizable(fixture) is False
    clock.report(
        f"criterion 3 (checker vs brute force on 500 histories, "
        f"{agree_true} accepted / {agree_false} rejected, fixture rejected)"
    )


def test_04_structure_and_balance_after_heavy_stress():
    # 8 threads x 56,000 ops, 20/10/70 mix, key range 10000: at least as
    # many operations as a 5 s run made (2-vCPU x86-64 VM, CPython 3.11)
    with _Clock() as clock:
        config = StressConfig(
            variant="fem", threads=8, key_range=10_000,
            insert_pct=20, delete_pct=10, search_pct=70,
            seed=4, ops_per_thread=56_000, timeout_s=30,
        )
        history, tree = run_stress(config)
        report = check_structure(tree)
        assert report.ok, report.violations
        # Every operation, searches and failed updates included, must fit
        # one witness that ends at the final contents.
        final_keys = tree.collect_leaf_keys()
        assert check_linearizable(history, final_keys), _first_violation(history, final_keys)
    clock.report(
        f"criterion 4 (structure+linearizable to the final contents after "
        f"{len(history) // 2} ops of stress)"
    )


def test_05_deadlock_freedom_under_max_contention():
    # 20 consecutive 8-thread x 94,000-op runs over 64 keys, at least as
    # many operations as the most a 2 s run made (2-vCPU x86-64 VM, CPython
    # 3.11); each must finish inside the 30 s grace period enforced by
    # run_stress itself
    with _Clock() as clock:
        for i in range(20):
            config = StressConfig(
                variant="fem", threads=8, key_range=64,
                insert_pct=20, delete_pct=10, search_pct=70,
                seed=500 + i, ops_per_thread=94_000, timeout_s=30,
                record_events=False,
            )
            _, tree = run_stress(config)  # DeadlockSuspectedError would fail here
            assert check_structure(tree).ok
    clock.report("criterion 5 (20 consecutive high-contention runs, no deadlock)")


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason=f"needs at least 4 hardware threads to measure 4-thread scaling; "
    f"this machine reports {os.cpu_count()}",
)
def test_06_relative_scaling_at_four_threads():
    # advisory, machine-dependent: FEM >= FN at 4 threads on the
    # low-contention mix, and FEM must at least double from 1 to 4 threads
    def median_throughput(variant, threads):
        samples = []
        for repeat in range(5):
            config = BenchConfig(
                variant=variant, threads=threads, duration_ms=1000,
                workload=WorkloadSpec(MIX_LOW[0], MIX_LOW[1], MIX_LOW[2], 10_000),
                seed=60 + repeat, warmup_ms=300,
            )
            samples.append(run_bench(config, repeat=repeat).throughput_ops_s)
        return statistics.median(samples)

    with _Clock() as clock:
        fem4 = median_throughput("fem", 4)
        fn4 = median_throughput("fn", 4)
        fem1 = median_throughput("fem", 1)
        assert fem4 >= fn4, (fem4, fn4)
        assert fem4 >= 2 * fem1, (fem4, fem1)
    clock.report("criterion 6 (4-thread relative scaling)")


def _region_ok(P, c, alpha, beta, wp, ws, wc, h):
    if not (P >= 1 and 0 <= c <= 1 and wp > 0 and ws > 0 and wc >= 0 and h > 1):
        return False
    if not (1.0 / ws <= beta <= 1.0):
        return False
    if not 0 <= alpha <= 1:
        return False
    if wc > 0 and alpha > ws * beta / wc:
        return False
    return True


def test_07_model_exactness():
    with _Clock() as clock:
        worked = ModelParams(processors=16, contention=0.5, alpha=0.5,
                             snapshot_work=0.25, control_work=0.25)
        assert abs(concurrent_speedup(worked) - 8.0 / 3.0) <= 1e-9

        assert abs(amdahl_speedup(0.5, 2) - 4.0 / 3.0) <= 1e-12

        rng = random.Random(777)
        for _ in range(100):
            ws = rng.uniform(1.0, 5.0)
            wc = rng.uniform(0.1, 5.0)
            beta = rng.uniform(1.0 / ws, 1.0)
            h = rng.uniform(1.01, 8.0)
            params = ModelParams(processors=4, contention=0.1,
                                 snapshot_work=ws, control_work=wc,
                                 beta=beta, hardness=h)
            assert alpha_at(0.0, params) == 0.0
            t = rng.uniform(0.0, 15.0)
            closed = (ws * beta / wc) * (1.0 - math.exp(-t * math.log(h)))
            assert abs(alpha_at(t, params) - closed) <= 1e-9

        rng = random.Random(778)
        accepted = rejected = 0
        for _ in range(1000):
            P = rng.choice([0, 1, 2, 8, 16, 32])
            c = rng.choice([-0.1, 0.0, rng.random(), 1.0, 1.2])
            alpha = rng.choice([-0.1, 0.0, rng.random(), 1.0, 1.3])
            beta = rng.choice([0.05, rng.random(), 1.0, 1.4])
            wp = rng.choice([0.0, 0.5, 1.0])
            ws = rng.choice([0.0, 0.5, 1.0, 2.0, 5.0])
            wc = rng.choice([0.0, 0.5, 1.0, 3.0])
            h = rng.choice([0.5, 1.0, 1.5, 2.0])
            params = ModelParams(processors=P, contention=c, alpha=alpha,
                                 beta=beta, parallel_work=wp, snapshot_work=ws,
                                 control_work=wc, hardness=h)
            ok = validate(params) == []
            assert ok == _region_ok(P, c, alpha, beta, wp, ws, wc, h), params
            accepted += ok
            rejected += not ok
        assert accepted > 0 and rejected > 0
    clock.report("criterion 7 (model worked values exact, 1000-vector region match)")


def test_08_model_monotonicity():
    # 10^4 random pairs differing in one coordinate each
    with _Clock() as clock:
        rng = random.Random(88)
        for i in range(10_000):
            procs = rng.randint(1, 64)
            c = rng.random()
            alpha = rng.random()
            ws = rng.uniform(0, 4)
            wc = rng.uniform(0, 4)
            base = ModelParams(processors=procs, contention=c, alpha=alpha,
                               snapshot_work=ws, control_work=wc)
            s = concurrent_speedup(base)
            axis = i % 4
            if axis == 0:
                bumped = ModelParams(processors=procs + rng.randint(1, 16),
                                     contention=c, alpha=alpha,
                                     snapshot_work=ws, control_work=wc)
                assert concurrent_speedup(bumped) >= s - 1e-12
            elif axis == 1:
                bumped = ModelParams(processors=procs,
                                     contention=min(1.0, c + rng.random() * (1 - c)),
                                     alpha=alpha, snapshot_work=ws,
                                     control_work=wc)
                assert concurrent_speedup(bumped) <= s + 1e-12
            elif axis == 2:
                bumped = ModelParams(processors=procs, contention=c,
                                     alpha=alpha,
                                     snapshot_work=ws + rng.uniform(0, 4),
                                     control_work=wc)
                assert concurrent_speedup(bumped) <= s + 1e-12
            else:
                bumped = ModelParams(processors=procs, contention=c,
                                     alpha=alpha, snapshot_work=ws,
                                     control_work=wc + rng.uniform(0, 4))
                assert concurrent_speedup(bumped) <= s + 1e-12
    clock.report("criterion 8 (speedup monotone on all four axes, 1e4 pairs)")


def test_09_workload_generator_frequencies():
    # observed op-kind percentages within 2 points of both standard mixes
    with _Clock() as clock:
        for mix in (MIX_LOW, MIX_MID):
            rng = random.Random(9_000 + mix[0])
            counts = {OpKind.INSERT: 0, OpKind.DELETE: 0, OpKind.SEARCH: 0}
            n = 100_000
            for _ in range(n):
                op, key = draw_op(rng, mix[0], mix[1], 1000)
                counts[op] += 1
                assert 0 <= key < 1000
            observed = {op: 100.0 * cnt / n for op, cnt in counts.items()}
            nominal = dict(zip((OpKind.INSERT, OpKind.DELETE, OpKind.SEARCH), mix))
            for op, pct in nominal.items():
                assert abs(observed[op] - pct) <= 2.0, (mix, op, observed[op])
    clock.report("criterion 9 (draw frequencies within 2 points on both mixes)")


def test_10_single_thread_runs_report_zero_contention():
    with _Clock() as clock:
        records = []
        for variant in ("seq", "coarse", "fem", "tn"):
            config = BenchConfig(
                variant=variant, threads=1, duration_ms=120,
                workload=WorkloadSpec(20, 10, 70, 256),
                seed=10, warmup_ms=20,
            )
            records.append(run_bench(config))
        assert all(rec.retries == 0 for rec in records)
        assert all(rec.contention_rate == 0.0 for rec in records)
        fitted = fit_contention(records)
        assert all(c == 0.0 for c in fitted.values())
    clock.report("criterion 10 (1-thread records carry zero retries, fitted c = 0)")
