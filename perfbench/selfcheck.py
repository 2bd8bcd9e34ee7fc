"""Show that the benchmark's checks bite and its exact counts repeat.

Usage: ``python3 perfbench/selfcheck.py``

1. A run with ``autodiff.matmul``'s adjoint sign-flipped from outside
   fails: exit 1, ``correct`` false, no metrics.
2. A run against a reference whose sampled value is moved by ten times
   the tolerance fails the same way.
3. A run against a reference whose sha256 alone is altered passes with
   ``trace_bitwise`` false: drift within the tolerance is reported, not
   failed.
4. For each workload, two traced runs report the same exact counts.

Exits 1 if any of these does not hold.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import REFERENCE, RTOL  # noqa: E402
from tracer import METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

EXACT = [name for name, unit, _ in METRICS if unit in ("count", "bytes", "count/step", "ratio")
         and not name.startswith("trace.")]


def bench(*args, stdin=None):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seed", "0", *args],
        cwd=HERE.parent, input=stdin, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, [json.loads(line) for line in lines[-2:]]


def main() -> int:
    ok = True

    def report(passed: bool, what: str) -> None:
        nonlocal ok
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'}  {what}", flush=True)

    def refused(code, lines) -> bool:
        result = lines[-1]
        return code == 1 and not result["correct"] and result["failed"] >= 1 and not result["metrics"]

    quick = ("--workload", "mlp-word", "--seconds", "1", "--trace", "0")
    code, lines = bench(*quick, "--corrupt", "matmul")
    report(refused(code, lines), f"sign-flipped matmul adjoint is refused (exit {code})")

    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    entry = reference["workloads"]["mlp-word"]["0"]["train/none"]
    step, value = entry["sample"][-1]
    entry["sample"][-1] = [step, value * (1.0 + 10 * RTOL)]
    code, lines = bench(*quick, "--reference", "-", stdin=json.dumps(reference))
    report(refused(code, lines), f"reference moved by 10 x RTOL at step {step} is refused (exit {code})")

    entry["sample"][-1] = [step, value]
    entry["sha256"] = "0" * 64
    code, lines = bench(*quick, "--reference", "-", stdin=json.dumps(reference))
    flags = lines[0]["detail"]["traces"]["train/none"] if code == 0 else {}
    report(code == 0 and flags.get("trace_bitwise") is False,
           f"digest-only change passes with trace_bitwise false (exit {code})")

    for name in WORKLOADS:
        counts = []
        for _ in range(2):
            code, lines = bench("--workload", name, "--seconds", "1", "--trace", "1")
            metrics = lines[-1]["metrics"]
            counts.append({k: metrics[k]["value"] for k in EXACT} if code == 0 else None)
        report(counts[0] is not None and counts[0] == counts[1],
               f"{name}: {len(EXACT)} exact counts repeat across two traced runs")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
