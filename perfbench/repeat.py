"""Run one workload once per seed and summarise each metric across the runs.

    python3 perfbench/repeat.py --workload update-small-2t --seeds 1-5
    python3 perfbench/repeat.py --all --seeds 1-10 --out perfbench/baseline.json

Runs ``perfbench/run.py --trace 0`` one seed at a time, in sequence, from the
repository root, for BENCHMARK.json's ``run_seconds``. For every metric it
prints the median, the quartiles as ``statistics.quantiles(values, n=4)``
gives them, the run count, and the quartile spread as a share of the median
next to the metric's bound in BENCHMARK.json. A spread at or above a third of
its bound is flagged. ``--out`` writes the summary, with every run's values,
seed and reference-tree rate, as JSON. ``--against`` compares each
median with the same metric's median in an earlier summary and flags a change
for the worse by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import median_quartiles

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["report"] = json.loads(lines[-2])["report"]
    return result


def summarise(workload: str, runs: list[dict], bounds: dict) -> dict:
    summary = {}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        med, q1, q3, _ = median_quartiles(values)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        summary[name] = {"unit": first["unit"], "median": med, "q1": q1, "q3": q3,
                         "n": len(values), "spread": spread, "bound": bound, "values": values}
        flag = ""
        if bound is not None and spread >= bound / 3:
            flag = "  <-- spread >= bound/3"
        print(f"{workload:20s} {name:40s} {first['unit']:10s} median {med:14.6g}  "
              f"q1 {q1:14.6g}  q3 {q3:14.6g}  n {len(values)}  spread {spread:.4f}"
              + (f"  bound {bound}" if bound is not None else "") + flag)
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload")
    which.add_argument("--all", action="store_true", help="every workload in BENCHMARK.json")
    parser.add_argument("--seeds", required=True, help="a range such as 1-10, or a list 3,5,8")
    parser.add_argument("--out", default=None)
    parser.add_argument("--against", default=None, metavar="SUMMARY",
                        help="an earlier --out file to compare medians with")
    args = parser.parse_args(argv)

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fp:
        bench = json.load(fp)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]] if args.all else [args.workload]
    seeds = _seeds(args.seeds)

    out = {"seeds": seeds, "seconds": seconds, "workloads": {}}
    for name in names:
        runs = []
        for seed in seeds:
            runs.append(run_once(name, seed, seconds))
            rep = runs[-1]["report"]["reference_tree"]
            print(f"{name} seed {seed}: correct {runs[-1]['correct']}, "
                  f"reference tree {rep['ops_s_median']:.4g} ops/s"
                  + (" (noisy)" if rep["noisy"] else ""), flush=True)
        refs = [r["report"]["reference_tree"]["ops_s_median"] for r in runs]
        out["workloads"][name] = {
            "metrics": summarise(name, runs, bounds),
            "reference_tree_ops_s": refs,
            "noisy_runs": sum(r["report"]["reference_tree"]["noisy"] for r in runs),
        }
        if len(refs) > 1:
            med, q1, q3, _ = median_quartiles(refs)
            print(f"{name:20s} reference tree: median {med:.4g} ops/s, "
                  f"spread {(q3 - q1) / med:.4f} across runs, "
                  f"{out['workloads'][name]['noisy_runs']} of {len(runs)} runs noisy")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fp:
            json.dump(out, fp, indent=1)
            fp.write("\n")
    if args.against:
        with open(args.against, encoding="utf-8") as fp:
            compare(json.load(fp), out, bench)
    return 0


def compare(first: dict, second: dict, bench: dict) -> None:
    """Print each metric's median change from ``first`` to ``second``."""
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for name, summary in second["workloads"].items():
        for metric, s in summary["metrics"].items():
            before = first["workloads"][name]["metrics"][metric]["median"]
            change = s["median"] / before - 1
            worse = -change if better[metric] == "higher" else change
            flag = "  <-- worse by more than its bound" if worse > bounds[metric] else ""
            print(f"{name:20s} {metric:40s} {before:14.6g} -> {s['median']:14.6g}  "
                  f"change {change:+.4f}  bound {bounds[metric]}{flag}")


if __name__ == "__main__":
    sys.exit(main())
