import io
import json

import pytest

import cbst.bench as bench_mod
from cbst.bench import (
    CSV_HEADER,
    MIX_LOW,
    MIX_MID,
    BenchConfig,
    BenchRecord,
    WorkloadSpec,
    prefill,
    read_csv,
    read_json,
    run_bench,
    sweep,
    write_csv,
    write_json,
)
from cbst.core import thread_rng
from cbst.tree import VARIANT_NAMES, SeqTree, new_tree
from cbst.verify import check_structure


def small_config(**overrides):
    defaults = dict(variant="fem", threads=1, duration_ms=80, warmup_ms=20,
                    workload=WorkloadSpec(key_range=64, insert_pct=20,
                                          delete_pct=10, search_pct=70),
                    seed=11)
    defaults.update(overrides)
    return BenchConfig(**defaults)


class TestWorkloadSpec:
    def test_mix_must_total_100(self):
        with pytest.raises(ValueError):
            WorkloadSpec(key_range=10, insert_pct=50, delete_pct=50, search_pct=10)

    def test_negative_pct_rejected(self):
        with pytest.raises(ValueError):
            WorkloadSpec(key_range=10, insert_pct=-10, delete_pct=40, search_pct=70)

    def test_key_range_floor(self):
        with pytest.raises(ValueError):
            WorkloadSpec(key_range=1, insert_pct=20, delete_pct=10, search_pct=70)

    def test_key_range_ceiling(self):
        # Keys are drawn from [0, key_range) and must stay below the
        # positive sentinel.
        WorkloadSpec(key_range=2**63 - 1, insert_pct=20, delete_pct=10, search_pct=70)
        with pytest.raises(ValueError, match="key_range"):
            WorkloadSpec(key_range=2**63, insert_pct=20, delete_pct=10, search_pct=70)

    def test_presets_are_valid_mixes(self):
        for mix in (MIX_LOW, MIX_MID):
            spec = WorkloadSpec(key_range=100, insert_pct=mix[0],
                                delete_pct=mix[1], search_pct=mix[2])
            assert spec.insert_pct + spec.delete_pct + spec.search_pct == 100


class TestBenchConfig:
    def test_duration_positive(self):
        with pytest.raises(ValueError):
            small_config(duration_ms=0)

    def test_seq_single_thread_only(self):
        with pytest.raises(ValueError):
            small_config(variant="seq", threads=2)
        small_config(variant="seq", threads=1)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            small_config(variant="avl")


def workload(kr):
    return WorkloadSpec(key_range=kr, insert_pct=20, delete_pct=10,
                        search_pct=70)


def preorder(node):
    """The nodes under ``node``, itself included, in preorder."""
    out = []
    stack = [node]
    while stack:
        node = stack.pop()
        out.append(node)
        if node.left is not None:
            stack += (node.right, node.left)
    return out


def layout(node):
    """Each node's class, key and leafness, in preorder: the tree's shape."""
    return [(type(n), n.key, n.left is None) for n in preorder(node)]


class TestPrefill:
    def test_fills_to_half_range(self):
        for kr in (2, 10, 101):
            tree = new_tree("fem")
            prefill(tree, workload(kr), seed=3)
            assert len(tree.collect_leaf_keys()) == kr // 2

    def test_deterministic(self):
        t1, t2 = new_tree("fem"), new_tree("fem")
        prefill(t1, workload(100), seed=9)
        prefill(t2, workload(100), seed=9)
        assert t1.collect_leaf_keys() == t2.collect_leaf_keys()

    @pytest.mark.parametrize("kr", [2, 3, 10, 64, 100, 101, 1000, 20000])
    def test_builds_the_inserted_tree(self, kr):
        # The bulk load builds, for every variant, the tree that one insert
        # per key randrange gives on the prefill stream would build: the
        # same keys, shape and node class at every position, and the same
        # number of draws.
        for variant in VARIANT_NAMES:
            for seed in range(3 if kr < 20000 else 1):
                loaded = new_tree(variant)
                attempts = prefill(loaded, workload(kr), seed)
                inserted = new_tree(variant)
                rng = thread_rng(seed, bench_mod._PREFILL_STREAM)
                fresh = [inserted.insert(rng.randrange(kr)) for _ in range(attempts)]
                # The last draw is the one that filled the set.
                assert fresh[-1] and sum(fresh) == kr // 2
                assert loaded.collect_leaf_keys() == inserted.collect_leaf_keys()
                assert layout(loaded.root) == layout(inserted.root), (variant, seed)
                assert check_structure(loaded).ok
                assert loaded.retry_count() == 0

    @pytest.mark.parametrize("variant", VARIANT_NAMES)
    def test_nodes_allocated_in_preorder(self, variant):
        # Every node the load allocates, in allocation order, is the final
        # tree's preorder; the sentinel frame stays the tree's own.
        made = []
        cls = type(new_tree(variant))

        class Router(cls._router):
            __slots__ = ()

            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        class Leaf(cls._leaf):
            __slots__ = ()

            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        class Recording(cls):
            _router = Router
            _leaf = Leaf

        tree = Recording()
        frame = (tree.root, tree._neg_leaf, tree._pos_leaf)
        made.clear()
        prefill(tree, workload(1000), seed=2)
        assert (tree.root, tree._neg_leaf, tree._pos_leaf) == frame
        assert tree.root.right is tree._pos_leaf
        assert made == [n for n in preorder(tree.root.left) if n is not tree._neg_leaf]
        assert len(made) == 2 * 500

    def test_non_empty_tree_refused(self):
        tree = new_tree("fem")
        tree.insert(5)
        with pytest.raises(ValueError, match="empty"):
            prefill(tree, workload(10), seed=0)
        assert tree.collect_leaf_keys() == [5]

    def test_structure_stays_valid(self):
        tree = new_tree("fn")
        prefill(tree, workload(10000), seed=5)
        assert check_structure(tree).ok


class TestRunBench:
    def test_single_thread_record(self):
        rec = run_bench(small_config())
        assert rec.variant == "fem"
        assert rec.threads == 1
        assert rec.ops_completed > 0
        assert rec.retries == 0
        assert rec.contention_rate == 0.0
        assert rec.wall_time_ms > 0
        assert rec.seed == 11
        assert rec.repeat == 0

    def test_throughput_consistent_with_fields(self):
        rec = run_bench(small_config())
        expected = rec.ops_completed / (rec.wall_time_ms / 1000.0)
        assert rec.throughput_ops_s == pytest.approx(expected, rel=1e-9)

    def test_two_thread_run_completes(self):
        rec = run_bench(small_config(threads=2), repeat=4)
        assert rec.threads == 2
        assert rec.ops_completed > 0
        assert 0.0 <= rec.contention_rate < 1.0
        assert rec.repeat == 4

    def test_worker_error_propagates(self, monkeypatch):
        class Exploding(SeqTree):
            """A real tree for the prefill that fails the first search."""

            def search(self, key):
                raise ZeroDivisionError("boom")

            delete = search

        monkeypatch.setattr(bench_mod, "new_tree", lambda v: Exploding())
        cfg = small_config(threads=2, workload=WorkloadSpec(0, 0, 100, key_range=8))
        with pytest.raises(RuntimeError, match="boom") as err:
            run_bench(cfg)
        assert isinstance(err.value.__cause__, ZeroDivisionError)

    def test_workload_columns_echo_config(self):
        cfg = small_config()
        rec = run_bench(cfg)
        w = cfg.workload
        assert (rec.key_range, rec.insert_pct, rec.delete_pct, rec.search_pct) == (
            w.key_range, w.insert_pct, w.delete_pct, w.search_pct)
        assert rec.duration_ms == cfg.duration_ms


class TestSweep:
    def test_cardinality_and_order(self):
        base = small_config()
        recs = sweep(base, thread_list=[1, 2], variant_list=["fem", "tn"],
                     repeats=2)
        assert len(recs) == 8
        key = [(r.variant, r.threads, r.repeat) for r in recs]
        assert key == [
            ("fem", 1, 0), ("fem", 1, 1), ("fem", 2, 0), ("fem", 2, 1),
            ("tn", 1, 0), ("tn", 1, 1), ("tn", 2, 0), ("tn", 2, 1),
        ]

    def test_empty_lists_rejected(self):
        base = small_config()
        with pytest.raises(ValueError):
            sweep(base, thread_list=[], variant_list=["fem"], repeats=1)
        with pytest.raises(ValueError):
            sweep(base, thread_list=[1], variant_list=[], repeats=1)
        with pytest.raises(ValueError):
            sweep(base, thread_list=[1], variant_list=["fem"], repeats=0)

    def test_seq_with_multiple_threads_rejected(self):
        base = small_config()
        with pytest.raises(ValueError):
            sweep(base, thread_list=[1, 2], variant_list=["seq"], repeats=1)

    def test_seq_single_thread_allowed(self):
        base = small_config()
        recs = sweep(base, thread_list=[1], variant_list=["seq"], repeats=1)
        assert len(recs) == 1 and recs[0].variant == "seq"


def sample_records():
    return [
        BenchRecord(variant="fem", threads=2, key_range=64, insert_pct=20,
                    delete_pct=10, search_pct=70, duration_ms=100,
                    ops_completed=1234, throughput_ops_s=12340.5,
                    retries=7, contention_rate=0.005642,
                    wall_time_ms=100.02, seed=42, repeat=0),
        BenchRecord(variant="tn", threads=1, key_range=64, insert_pct=9,
                    delete_pct=1, search_pct=90, duration_ms=100,
                    ops_completed=999, throughput_ops_s=9990.0,
                    retries=0, contention_rate=0.0,
                    wall_time_ms=100.0, seed=42, repeat=2),
    ]


class TestSerialization:
    def test_csv_header_literal(self):
        assert CSV_HEADER == ("variant,threads,key_range,insert_pct,delete_pct,"
                              "search_pct,duration_ms,ops_completed,"
                              "throughput_ops_s,retries,contention_rate,"
                              "wall_time_ms,seed,repeat")

    def test_csv_round_trip(self):
        recs = sample_records()
        buf = io.StringIO()
        write_csv(recs, buf)
        text = buf.getvalue()
        assert text.splitlines()[0] == CSV_HEADER
        assert read_csv(io.StringIO(text)) == recs

    def test_csv_file_path(self, tmp_path):
        recs = sample_records()
        path = tmp_path / "out.csv"
        write_csv(recs, path)
        assert read_csv(path) == recs

    def test_json_round_trip(self, tmp_path):
        recs = sample_records()
        path = tmp_path / "out.json"
        write_json(recs, path)
        assert read_json(path) == recs
        payload = json.loads(path.read_text())
        assert isinstance(payload, list) and payload[0]["variant"] == "fem"

    def test_real_record_round_trips(self):
        rec = run_bench(small_config())
        buf = io.StringIO()
        write_csv([rec], buf)
        assert read_csv(io.StringIO(buf.getvalue())) == [rec]
