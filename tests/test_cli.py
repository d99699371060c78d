import io
import re
import shlex
from dataclasses import replace
from pathlib import Path

import pytest

import cbst.verify as verify_mod
from cbst import cli
from cbst.bench import CSV_HEADER, read_csv, read_json, write_csv
from cbst.cli import main
from cbst.model import COMPARISON_HEADER
from cbst.tree import VARIANT_NAMES, new_tree
from cbst.verify import History

from test_bench import sample_records

FIXTURES = Path(__file__).parent / "fixtures"


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestModelEval:
    def test_perfect_scaling(self, capsys):
        rc, out, err = run(capsys, "model", "--eval", "--P", "32", "--c", "0",
                           "--alpha", "1", "--ws-ratio", "0", "--wc-ratio", "0")
        assert rc == 0
        assert out.strip() == "32"

    def test_worked_example(self, capsys):
        rc, out, _ = run(capsys, "model", "--eval", "--P", "16", "--c", "0.5",
                         "--alpha", "0.5", "--ws-ratio", "0.25",
                         "--wc-ratio", "0.25")
        assert rc == 0
        assert out.strip() == "2.66667"

    def test_contention_out_of_range(self, capsys):
        rc, out, err = run(capsys, "model", "--eval", "--P", "16", "--c", "1.5")
        assert rc == 1
        assert "c out of range" in err
        assert "0 <= c <= 1" in err

    @pytest.mark.parametrize("flag", ["--ws-ratio", "--wc-ratio"])
    def test_nan_work_ratio_fails(self, capsys, flag):
        rc, out, err = run(capsys, "model", "--eval", "--P", "2", "--c", "0",
                           flag, "nan")
        assert rc == 1
        assert out == ""
        assert len(err.splitlines()) == 1 and "nan" in err

    def test_eval_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "speedup.txt"
        rc, out, _ = run(capsys, "model", "--eval", "--P", "16", "--c", "0.5",
                         "--alpha", "0.5", "--ws-ratio", "0.25",
                         "--wc-ratio", "0.25", "--out", str(out_path))
        assert rc == 0
        assert out == ""
        assert out_path.read_text() == "2.66667\n"

    def test_missing_input_is_reported_by_the_model_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["model", "--eval", "--c", "0"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: cbst model ")
        assert "cbst model: error: --eval requires --P and --c" in err

    def test_zero_processors_fails(self, capsys):
        # --P 0 is checked as given, not replaced by a default.
        rc, out, err = run(capsys, "model", "--eval", "--P", "0", "--c", "0")
        assert rc == 1
        assert out == ""
        assert err == "error: P out of range: violates P >= 1 (P = 0)\n"

    def test_unopenable_out_is_an_error(self, capsys, tmp_path):
        bad = tmp_path / "missing" / "speedup.txt"
        rc, out, err = run(capsys, "model", "--eval", "--P", "2", "--c", "0",
                           "--out", str(bad))
        assert rc == 1
        assert out == ""
        assert err.startswith("error: ") and str(bad) in err
        assert len(err.splitlines()) == 1

    def test_eval_requires_p_and_c(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["model", "--eval", "--P", "4"])
        assert exc.value.code == 2

    def test_action_flags_mutually_exclusive(self):
        with pytest.raises(SystemExit) as exc:
            main(["model", "--eval", "--curve-alpha"])
        assert exc.value.code == 2

    def test_beta_is_not_a_flag(self, capsys):
        # No model action reads beta, so there is no flag to set it.
        with pytest.raises(SystemExit) as exc:
            main(["model", "--eval", "--P", "4", "--c", "0", "--beta", "0.5"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --beta 0.5" in capsys.readouterr().err


class TestModelCurve:
    def test_default_grid(self, capsys):
        rc, out, _ = run(capsys, "model", "--curve-alpha", "--h", "2",
                         "--asymptote", "0.8", "--t-max", "5", "--step", "0.5")
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,alpha"
        assert len(lines) == 12
        assert lines[1] == "0,0"
        t, alpha = lines[-1].split(",")
        assert float(t) == 5.0
        assert float(alpha) == pytest.approx(0.8 * (1 - 2 ** -5.0))

    def test_curve_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "curve.csv"
        rc, _, _ = run(capsys, "model", "--curve-alpha", "--h", "4",
                       "--asymptote", "1", "--t-max", "2", "--step", "1",
                       "--out", str(out_path))
        assert rc == 0
        assert out_path.read_text().splitlines() == [
            "t,alpha", "0,0", "1,0.75", "2,0.9375"]

    def test_requires_h_and_asymptote(self):
        with pytest.raises(SystemExit) as exc:
            main(["model", "--curve-alpha", "--h", "2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag,value", [
        ("--t-max", "inf"), ("--step", "inf"), ("--step", "nan"),
        ("--t-max", "nan"), ("--asymptote", "nan"), ("--h", "nan"),
    ])
    def test_non_finite_grid_fails(self, capsys, flag, value):
        argv = {"--h": "2", "--asymptote": "0.8", "--t-max": "5", "--step": "0.5",
                flag: value}
        rc, out, err = run(capsys, "model", "--curve-alpha",
                           *(word for item in argv.items() for word in item))
        assert rc == 1
        assert out == ""
        assert len(err.splitlines()) == 1 and value in err

    @pytest.mark.parametrize("t_max,step", [("1e300", "1e-10"), ("1e12", "1")])
    def test_oversized_grid_fails(self, capsys, t_max, step):
        # The first overflows t_max / step; neither grid is built.
        rc, out, err = run(capsys, "model", "--curve-alpha", "--h", "2", "--asymptote", "1",
                           "--t-max", t_max, "--step", step)
        assert rc == 1
        assert out == ""
        assert err.startswith("error: t_max / step out of range") and len(err.splitlines()) == 1

    def test_bad_hardness(self, capsys):
        rc, _, err = run(capsys, "model", "--curve-alpha", "--h", "1",
                         "--asymptote", "0.5")
        assert rc == 1
        assert "h > 1" in err


class TestModelCompare:
    def _records_file(self, tmp_path):
        path = tmp_path / "records.csv"
        write_csv(sample_records_with_baseline(), path)
        return path

    def test_compare_to_stdout(self, capsys, tmp_path):
        rc, out, _ = run(capsys, "model", "--compare", "--records",
                         str(self._records_file(tmp_path)))
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == COMPARISON_HEADER
        assert len(lines) == 3
        one_thread = [l for l in lines[1:] if l.split(",")[1] == "1"][0]
        assert float(one_thread.split(",")[2]) == 1.0

    def test_compare_to_file_prints_table(self, capsys, tmp_path):
        out_path = tmp_path / "cmp.csv"
        rc, out, _ = run(capsys, "model", "--compare", "--records",
                         str(self._records_file(tmp_path)),
                         "--out", str(out_path))
        assert rc == 0
        assert out_path.read_text().splitlines()[0] == COMPARISON_HEADER
        assert "measured" in out and "fem" in out

    def test_missing_baseline(self, capsys, tmp_path):
        recs = [r for r in sample_records_with_baseline() if r.threads != 1]
        path = tmp_path / "nobase.csv"
        write_csv(recs, path)
        rc, _, err = run(capsys, "model", "--compare", "--records", str(path))
        assert rc == 1
        assert "baseline" in err and "fem" in err

    def test_missing_records_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["model", "--compare"])
        assert exc.value.code == 2

    # Records files that cannot be loaded, by name; None means no file.
    BAD_RECORDS = {
        "absent.csv": None,
        "short-row.csv": CSV_HEADER + "\nfem,1\n",
        "not-array.json": '{"a": 1}',
        "not-object.json": '["x"]',
        "missing-fields.json": '[{"variant": "fem"}]',
        "null-field.json": '[{"variant": "fem", "threads": null}]',
    }

    @pytest.mark.parametrize("name", list(BAD_RECORDS))
    def test_unreadable_records(self, capsys, tmp_path, name):
        path = tmp_path / name
        if self.BAD_RECORDS[name] is not None:
            path.write_text(self.BAD_RECORDS[name])
        rc, _, err = run(capsys, "model", "--compare", "--records", str(path))
        assert rc == 1
        assert "cannot load records" in err


def sample_records_with_baseline():
    base, other = sample_records()
    return [
        replace(base, threads=1, retries=0, contention_rate=0.0, repeat=0),
        replace(base, threads=2, repeat=0),
    ]


class TestBenchCommand:
    def test_stdout_csv(self, capsys):
        rc, out, _ = run(capsys, "bench", "--variant", "fem",
                         "--threads", "1,2", "--duration-ms", "60",
                         "--warmup-ms", "10", "--key-range", "64",
                         "--repeats", "1")
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3
        assert read_csv(io.StringIO(out))[0].variant == "fem"

    def test_json_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "bench.json"
        rc, out, _ = run(capsys, "bench", "--variant", "tn", "--threads", "1",
                         "--duration-ms", "50", "--warmup-ms", "10",
                         "--key-range", "32", "--repeats", "2",
                         "--format", "json", "--out", str(out_path))
        assert rc == 0
        recs = read_json(out_path)
        assert len(recs) == 2
        assert all(r.variant == "tn" for r in recs)
        assert "2 records written" in out
        assert "median ops/s" in out

    def test_seq_defaults_to_one_thread(self, capsys):
        rc, out, _ = run(capsys, "bench", "--variant", "seq",
                         "--duration-ms", "50", "--warmup-ms", "10",
                         "--key-range", "32", "--repeats", "1")
        assert rc == 0
        recs = read_csv(io.StringIO(out))
        assert [(r.variant, r.threads) for r in recs] == [("seq", 1)]

    def test_seq_with_multi_threads_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--variant", "seq", "--threads", "4"])
        assert exc.value.code == 2

    def test_malformed_mix_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--mix", "10,90"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("mix", ["50,50,10", "nan,50,50"])
    def test_invalid_mix_is_usage_error(self, mix):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--mix", mix])
        assert exc.value.code == 2

    def test_unknown_variant_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--variant", "avl"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag,value", [
        ("--threads", "1,0"), ("--duration-ms", "0"), ("--key-range", "1"),
        ("--key-range", str(2**63)), ("--repeats", "0"), ("--warmup-ms", "-1"),
        ("--duration-ms", "20000000000000"), ("--warmup-ms", "20000000000000"),
    ])
    def test_bad_count_is_usage_error(self, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--variant", "fem", flag, value])
        assert exc.value.code == 2

    def test_config_error_is_reported_by_the_bench_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--duration-ms", "0"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: cbst bench ")
        assert "cbst bench: error: duration_ms must be positive" in err

    def test_key_range_error_names_the_cli_range(self, capsys):
        # WorkloadSpec would take any range up to POS_SENTINEL; the CLI's
        # cap is 1000000, so the error names that range instead.
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--key-range", "1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "at least 2" in err and "at most 1000000" in err
        assert str(2**63 - 1) not in err

    def test_unopenable_out_fails_before_the_sweep(self, capsys, monkeypatch, tmp_path):
        runs = []
        monkeypatch.setattr(cli.bench_mod, "run_bench", lambda *args, **kwargs: runs.append(args))
        bad = tmp_path / "missing" / "bench.csv"
        rc, out, err = run(capsys, "bench", "--variant", "fem", "--out", str(bad))
        assert rc == 1
        assert out == ""
        assert err.startswith("error: ") and str(bad) in err
        assert runs == []

    def test_preset_runs_the_paper_grid_in_order(self, capsys, monkeypatch):
        # Per bucket, each concurrent variant at every thread count, then
        # seq at 1 thread; each point three times in a row.
        points = []

        def fake_run(config, repeat):
            points.append((config.variant, config.threads, config.workload.key_range, repeat))
            return replace(sample_records()[0], variant=config.variant, threads=config.threads,
                           key_range=config.workload.key_range, repeat=repeat)

        monkeypatch.setattr(cli.bench_mod, "run_bench", fake_run)
        rc, out, _ = run(capsys, "bench", "--preset", "paper-mid")
        assert rc == 0
        threads = [1, 2, 4, 8, 16, 32]
        grid = [("coarse", threads), ("fn", threads), ("fe", threads), ("fem", threads),
                ("tn", threads), ("seq", [1])]
        assert points == [
            (variant, n, key_range, repeat)
            for key_range in (10000, 100000)
            for variant, counts in grid
            for n in counts
            for repeat in range(3)
        ]
        assert len(points) == 2 * (5 * 6 + 1) * 3
        assert len(read_csv(io.StringIO(out))) == len(points)

    def test_key_range_past_cap_refused_before_prefill(self, capsys, monkeypatch):
        # Ten times the largest preset bucket; prefill would insert half.
        prefilled = []
        monkeypatch.setattr(cli.bench_mod, "prefill", lambda *args: prefilled.append(args))
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--variant", "fem", "--key-range", "1000001"])
        assert exc.value.code == 2
        assert "must be at most 1000000" in capsys.readouterr().err
        assert prefilled == []


class TestCheckReplay:
    def test_stored_fixture_rejected(self, capsys):
        rc, out, _ = run(capsys, "check", "--history",
                         str(FIXTURES / "non_linearizable.history"))
        assert rc == 1
        assert "linearizable: VIOLATED" in out

    def test_legal_history_accepted(self, capsys, tmp_path):
        path = tmp_path / "ok.history"
        path.write_text("0 INSERT 5 true 100 200\n1 SEARCH 5 true 300 400\n")
        rc, out, _ = run(capsys, "check", "--history", str(path))
        assert rc == 0
        # The two threads took turns, so no operation overlaps another's.
        assert out.splitlines() == [
            "linearizable: ok",
            "overlap: 0 of 2 operations (0.0%) overlap another thread's"]

    def test_overlap_share_printed(self, capsys, tmp_path):
        # Thread 1's first search overlaps thread 0's first, its second
        # touches thread 0's second at stamp 30, and the last of each
        # overlaps nothing.
        lines = []
        for tid, spans in ((0, [(0, 10), (20, 30), (40, 50)]),
                           (1, [(5, 15), (30, 35), (60, 70)])):
            for invoke, respond in spans:
                lines.append(f"{tid} SEARCH 1 false {invoke} {respond}")
        path = tmp_path / "two.history"
        path.write_text("\n".join(lines) + "\n")
        rc, out, _ = run(capsys, "check", "--history", str(path))
        assert rc == 0
        assert out.splitlines() == [
            "linearizable: ok",
            "overlap: 4 of 6 operations (66.7%) overlap another thread's"]

    def test_out_file_lists_the_verdict(self, capsys, tmp_path):
        # A replay reports its one verdict as a stress check does, --out
        # table included.
        out_path = tmp_path / "checks.csv"
        rc, out, _ = run(capsys, "check", "--history",
                         str(FIXTURES / "non_linearizable.history"), "--out", str(out_path))
        assert rc == 1
        assert out == ("linearizable: VIOLATED\n"
                       "overlap: 0 of 2 operations (0.0%) overlap another thread's\n")
        assert out_path.read_text().splitlines() == ["check,ok", "linearizable,false"]
        path = tmp_path / "ok.history"
        path.write_text("0 INSERT 5 true 100 200\n")
        rc, out, _ = run(capsys, "check", "--history", str(path), "--out", str(out_path))
        assert rc == 0
        assert out == ("linearizable: ok\n"
                       "overlap: 0 of 1 operations (0.0%) overlap another thread's\n")
        assert out_path.read_text().splitlines() == ["check,ok", "linearizable,true"]

    def test_overlapping_history_decided_not_refused(self, capsys, tmp_path):
        # 10,000 sequential operations replay, and so do 21 mutually
        # overlapping searches on one key, one reading true; the verdict
        # names the key and the blocked search.
        lines = []
        for i in range(5000):
            lines.append(f"0 INSERT {i} true {20 * i} {20 * i + 5}")
            lines.append(f"0 SEARCH {i} true {20 * i + 10} {20 * i + 15}")
        path = tmp_path / "long.history"
        path.write_text("\n".join(lines) + "\n")
        rc, out, _ = run(capsys, "check", "--history", str(path))
        assert rc == 0
        assert "linearizable: ok" in out

        lines = []
        for t in range(21):
            lines.append(f"{t} SEARCH 7 {'true' if t == 10 else 'false'} {t} {100 + t}")
        path = tmp_path / "big.history"
        path.write_text("\n".join(lines) + "\n")
        rc, out, err = run(capsys, "check", "--history", str(path))
        assert rc == 1
        assert out == ("linearizable: VIOLATED\n"
                       "overlap: 21 of 21 operations (100.0%) overlap another thread's\n")
        assert err == ("first violation: key 7: no operation can take effect next "
                       "with the key absent: thread 10 SEARCH true [10, 110]\n")

    def test_overlapping_operations_of_one_thread_are_a_load_error(self, capsys, tmp_path):
        path = tmp_path / "overlap.history"
        path.write_text("0 INSERT 5 true 100 300\n0 SEARCH 5 true 200 400\n")
        rc, out, err = run(capsys, "check", "--history", str(path))
        assert rc == 1
        assert out == ""
        assert err == ("cannot load history: thread 0: operation invoked at 200, "
                       "before its previous one responded at 300\n")

    @pytest.mark.parametrize("line, reason", [
        ("0 INSERT 5 true 100", "expected 6 fields, got 5"),
        ("0 UPSERT 5 true 100 200", "'UPSERT' is not a valid OpKind"),
        ("0 INSERT 5 yes 100 200", "result must be true or false, got 'yes'"),
        ("0 INSERT 5 true 1e2 200", "invalid literal for int() with base 10: '1e2'"),
        ("0 INSERT 5 true 200 100", "response stamped before its invocation"),
        ("0 1 RESPOND INSERT 5 true 200", "expected 6 fields, got 7"),
    ], ids=["fields", "op", "result", "integer", "stamps", "event-format"])
    def test_malformed_line_is_a_load_error(self, capsys, tmp_path, line, reason):
        path = tmp_path / "bad.history"
        path.write_text(f"1 SEARCH 5 false 10 20\n{line}\n")
        rc, out, err = run(capsys, "check", "--history", str(path))
        assert rc == 1
        assert out == ""
        assert err == f"cannot load history: line 2: {reason}\n"

    def test_non_ascii_byte_is_a_load_error(self, capsys, tmp_path):
        path = tmp_path / "bad.history"
        path.write_bytes(b"1 SEARCH 5 false 10 20\n\n0 INSERT 5 true \xff 200\n")
        rc, out, err = run(capsys, "check", "--history", str(path))
        assert rc == 1
        assert out == ""
        assert err == "cannot load history: line 3: not ASCII text\n"

    def test_missing_file(self, capsys, tmp_path):
        rc, _, err = run(capsys, "check", "--history", str(tmp_path / "ghost.history"))
        assert rc == 1
        assert "cannot load history" in err

    def test_garbage_file(self, capsys, tmp_path):
        path = tmp_path / "junk.history"
        path.write_text("this is not a history\n")
        rc, _, err = run(capsys, "check", "--history", str(path))
        assert rc == 1
        assert "cannot load history" in err

    def test_replay_requires_history_flag(self):
        # --history names the file to replay; without a path it is a usage error.
        with pytest.raises(SystemExit) as exc:
            main(["check", "--history"])
        assert exc.value.code == 2


CHECK_LINES = ["structure: ok", "linearizable: ok"]


def assert_check_output(out, n_ops):
    """The verdicts of a passing stress check, then its overlap line over
    ``n_ops`` operations."""
    *verdicts, overlap = out.splitlines()
    assert verdicts == CHECK_LINES
    match = re.fullmatch(r"overlap: (\d+) of (\d+) operations \(\d+\.\d%\) "
                         r"overlap another thread's", overlap)
    assert match, overlap
    assert int(match[2]) == n_ops and int(match[1]) <= n_ops


class TestCheckInvariants:
    def test_passes_on_healthy_tree(self, capsys):
        # The defaults: 4 threads (seq: 1) x 1,000 ops over 64 keys.
        for variant in VARIANT_NAMES:
            rc, out, err = run(capsys, "check", "--variant", variant)
            assert rc == 0, (variant, err)
            assert_check_output(out, 1000 if variant == "seq" else 4000)
            assert err == ""

    @pytest.mark.parametrize("argv,n_ops", [
        pytest.param(("--ops", "0"), 0, id="argv0"),
        pytest.param(("--threads", "1", "--ops", "5", "--key-range", str(2**63 - 1)), 5,
                     id="argv1"),
    ])
    def test_edge_runs_pass(self, capsys, argv, n_ops):
        rc, out, err = run(capsys, "check", *argv)
        assert rc == 0, err
        assert_check_output(out, n_ops)
        assert err == ""

    def test_out_file_lists_checks(self, capsys, tmp_path):
        out_path = tmp_path / "checks.csv"
        rc, _, _ = run(capsys, "check", "--variant", "tn", "--threads", "2",
                       "--ops", "200", "--key-range", "16",
                       "--out", str(out_path))
        assert rc == 0
        assert out_path.read_text().splitlines() == [
            "check,ok", "structure,true", "linearizable,true"]

    def test_unopenable_out_fails_before_the_run(self, capsys, monkeypatch, tmp_path):
        runs = []
        monkeypatch.setattr(cli, "run_stress", runs.append)
        bad = tmp_path / "missing" / "checks.csv"
        rc, out, err = run(capsys, "check", "--out", str(bad))
        assert rc == 1
        assert out == ""
        assert err.startswith("error: ") and str(bad) in err
        assert runs == []

    def test_violation_exits_1_with_history(self, capsys, monkeypatch):
        # A recorded run whose history is not linearizable: the stored
        # fixture, with a final tree that holds its one inserted key.
        history = History.load(FIXTURES / "non_linearizable.history")
        tree = new_tree("fem")
        tree.insert(5)
        monkeypatch.setattr(cli, "run_stress", lambda config: (history, tree))
        rc, out, err = run(capsys, "check")
        assert rc == 1
        assert out.splitlines() == [
            "structure: ok", "linearizable: VIOLATED",
            "overlap: 0 of 2 operations (0.0%) overlap another thread's"]
        first, *replay = err.splitlines()
        assert first == ("first violation: key 5: no operation can take effect next "
                         "with the key present: thread 1 SEARCH false [3000, 4000]")
        assert History.from_lines(replay).to_lines() == history.to_lines()

    def test_dumped_history_replays_to_the_same_verdict(self, capsys, monkeypatch, tmp_path):
        # A tree whose searches always miss fails a real recorded run; the
        # history dumped to stderr replays through --history to the same
        # first violation.
        def forgetful(variant):
            tree = new_tree(variant)
            tree.search = lambda key: False
            return tree

        monkeypatch.setattr(verify_mod, "new_tree", forgetful)
        rc, out, err = run(capsys, "check", "--threads", "2", "--ops", "200",
                           "--key-range", "4", "--mix", "40,10,50")
        assert rc == 1
        assert "linearizable: VIOLATED" in out
        first, *dump = err.splitlines()
        assert first.startswith("first violation: key ")
        path = tmp_path / "dump.history"
        path.write_text("\n".join(dump) + "\n")
        rc, out, err = run(capsys, "check", "--history", str(path))
        assert rc == 1
        assert out.startswith("linearizable: VIOLATED\noverlap: ")
        assert err == first + "\n"


class TestCheckLinearizability:
    ARGS = ("check", "--variant", "fem", "--ops", "4", "--threads", "2",
            "--key-range", "4", "--seed", "3")

    def test_invalid_mix_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([*self.ARGS, "--mix", "50,60,10"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag,value", [
        ("--threads", "0"), ("--ops", "-1"), ("--key-range", "0"),
        ("--key-range", str(2**63)), ("--timeout-s", "0"), ("--timeout-s", "-1"),
        ("--timeout-s", "nan"), ("--timeout-s", "inf"), ("--timeout-s", "soon"),
        ("--timeout-s", "1e10"),
    ])
    def test_bad_count_is_usage_error(self, flag, value):
        with pytest.raises(SystemExit) as exc:
            main([*self.ARGS, flag, value])
        assert exc.value.code == 2

    def test_seq_with_multi_threads_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--variant", "seq", "--threads", "2"])
        assert exc.value.code == 2

    def test_config_error_is_reported_by_the_check_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--threads", "0"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: cbst check ")
        assert "cbst check: error: threads must be at least 1" in err

    def test_small_batch_passes(self, capsys):
        rc, out, err = run(capsys, *self.ARGS)
        assert rc == 0
        assert_check_output(out, 8)
        assert err == ""

    def test_out_file_deterministic_across_runs(self, capsys, tmp_path):
        texts = []
        for name in ("a.csv", "b.csv"):
            out_path = tmp_path / name
            rc, _, _ = run(capsys, *self.ARGS, "--out", str(out_path))
            assert rc == 0
            texts.append(out_path.read_text())
        assert texts[0] == texts[1]
        assert texts[0].splitlines() == [
            "check,ok", "structure,true", "linearizable,true"]


class TestParser:
    def test_subcommand_required(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_readme_examples_parse(self):
        # Every `cbst ...` line of the README's command-line block, with
        # backslash continuations joined, is accepted by the parser.
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
        commands = [line for line in block.replace("\\\n", " ").splitlines()
                    if line.startswith("cbst ")]
        assert len(commands) >= 6
        parser = cli._build_parser()
        for line in commands:
            try:
                parser.parse_args(shlex.split(line, comments=True)[1:])
            except SystemExit:
                pytest.fail(f"README example rejected: {line}")
