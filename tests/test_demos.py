"""Smoke test: the demos run to completion against the current API.

Each demo runs as its own process in a temporary directory, because
demo 05 writes ``sweep.csv`` and ``sweep.svg`` into its working
directory. Demo 04 is left out: it only calls ``run_seeds`` and
``summarize``, which the harness and acceptance tests cover, and it
takes about half a minute.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ("01_gradient_tape", "02_mixup_basics", "03_adversarial_lambda", "05_lambda_sweep")


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_zero(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{demo}.py")],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
