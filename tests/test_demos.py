"""Every demo runs to completion as a script, so a change to the public API
cannot break one unseen."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from cbst.tree import VARIANT_NAMES

ROOT = Path(__file__).resolve().parent.parent
# Each demo with its arguments. The walkthrough draws fem's tree by default
# and each other variant's when named, so every node class it meets must
# answer is_leaf().
DEMOS = [
    ["benchmark_sweep"],
    ["speedup_model"],
    ["tree_walkthrough"],
    *(["tree_walkthrough", v] for v in VARIANT_NAMES if v != "fem"),
    ["verification_demo"],
]


@pytest.mark.parametrize("command", DEMOS, ids="-".join)
def test_demo_exits_cleanly(command, tmp_path):
    name, *args = command
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    # cwd is a fresh directory, so a demo's output files land there.
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{name}.py"), *args],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
