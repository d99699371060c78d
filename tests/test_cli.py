import io
import shlex
from pathlib import Path

import pytest

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

    def test_eval_requires_p_and_c(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["model", "--eval", "--P", "4"])
        assert exc.value.code == 2

    def test_action_flags_mutually_exclusive(self):
        with pytest.raises(SystemExit) as exc:
            main(["model", "--eval", "--curve-alpha"])
        assert exc.value.code == 2


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
    from dataclasses import replace
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
    ])
    def test_bad_count_is_usage_error(self, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--variant", "fem", flag, value])
        assert exc.value.code == 2


class TestCheckReplay:
    def test_stored_fixture_rejected(self, capsys):
        rc, out, _ = run(capsys, "check", "--history",
                         str(FIXTURES / "non_linearizable.history"))
        assert rc == 1
        assert "linearizable: false" in out

    def test_legal_history_accepted(self, capsys, tmp_path):
        path = tmp_path / "ok.history"
        path.write_text(
            "0 0 INVOKE INSERT 5 100\n"
            "0 1 RESPOND INSERT 5 true 200\n"
            "1 0 INVOKE SEARCH 5 300\n"
            "1 1 RESPOND SEARCH 5 true 400\n"
        )
        rc, out, _ = run(capsys, "check", "--history", str(path))
        assert rc == 0
        assert "linearizable: true" in out

    def test_oversized_history_refused(self, capsys, tmp_path):
        # 10,000 sequential operations replay; 21 mutually overlapping
        # searches on one key, one reading true, reach the state bound.
        lines = []
        for i in range(5000):
            lines.append(f"0 {4 * i} INVOKE INSERT {i} {20 * i}")
            lines.append(f"0 {4 * i + 1} RESPOND INSERT {i} true {20 * i + 5}")
            lines.append(f"0 {4 * i + 2} INVOKE SEARCH {i} {20 * i + 10}")
            lines.append(f"0 {4 * i + 3} RESPOND SEARCH {i} true {20 * i + 15}")
        path = tmp_path / "long.history"
        path.write_text("\n".join(lines) + "\n")
        rc, out, _ = run(capsys, "check", "--history", str(path))
        assert rc == 0
        assert "linearizable: true" in out

        lines = []
        for t in range(21):
            lines.append(f"{t} 0 INVOKE SEARCH 7 {t}")
            lines.append(f"{t} 1 RESPOND SEARCH 7 {'true' if t == 10 else 'false'} {100 + t}")
        path = tmp_path / "big.history"
        path.write_text("\n".join(lines) + "\n")
        rc, _, err = run(capsys, "check", "--history", str(path))
        assert rc == 2
        assert "refusing replay" in err

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


CHECK_LINES = ["structure: ok", "linearizable: ok", "balance: ok"]


class TestCheckInvariants:
    def test_passes_on_healthy_tree(self, capsys):
        # The defaults: 4 threads (seq: 1) x 1,000 ops over 64 keys.
        for variant in VARIANT_NAMES:
            rc, out, err = run(capsys, "check", "--variant", variant)
            assert rc == 0, (variant, err)
            assert out.splitlines() == CHECK_LINES
            assert err == ""

    @pytest.mark.parametrize("argv", [
        ("--ops", "0"),
        ("--threads", "1", "--ops", "5", "--key-range", str(2**63 - 1)),
    ])
    def test_edge_runs_pass(self, capsys, argv):
        rc, out, err = run(capsys, "check", *argv)
        assert rc == 0, err
        assert out.splitlines() == CHECK_LINES
        assert err == ""

    def test_out_file_lists_checks(self, capsys, tmp_path):
        out_path = tmp_path / "checks.csv"
        rc, _, _ = run(capsys, "check", "--variant", "tn", "--threads", "2",
                       "--ops", "200", "--key-range", "16",
                       "--out", str(out_path))
        assert rc == 0
        assert out_path.read_text().splitlines() == [
            "check,ok", "structure,true", "linearizable,true", "balance,true"]

    def test_violation_exits_1_with_history(self, capsys, monkeypatch):
        # A recorded run whose history is not linearizable: the stored
        # fixture, with a final tree that holds its one inserted key.
        history = History.load(FIXTURES / "non_linearizable.history")
        tree = new_tree("fem")
        tree.insert(5)
        monkeypatch.setattr(cli, "run_stress", lambda config: (history, tree))
        rc, out, err = run(capsys, "check")
        assert rc == 1
        assert out.splitlines() == ["structure: ok", "linearizable: VIOLATED",
                                    "balance: ok"]
        first, *replay = err.splitlines()
        assert first == "first violation: the history is not linearizable"
        assert History.from_lines(replay).to_lines() == history.to_lines()


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
    ])
    def test_bad_count_is_usage_error(self, flag, value):
        with pytest.raises(SystemExit) as exc:
            main([*self.ARGS, flag, value])
        assert exc.value.code == 2

    def test_seq_with_multi_threads_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--variant", "seq", "--threads", "2"])
        assert exc.value.code == 2

    def test_small_batch_passes(self, capsys):
        rc, out, err = run(capsys, *self.ARGS)
        assert rc == 0
        assert out.splitlines() == CHECK_LINES
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
            "check,ok", "structure,true", "linearizable,true", "balance,true"]


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
