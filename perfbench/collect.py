"""Run the benchmark on several seeds and summarise each metric.

Usage::

    python3 perfbench/collect.py --workloads mlp-word,cnn-sent --seeds 0-6,8-10 \\
        [--seconds S] [--trace 0] [--label TEXT] [--out FILE]

Runs ``run.py`` once per (workload, seed), one run at a time. For each
metric, and for each ungated timing on the detail line, it prints the
median, the quartiles (``statistics.quantiles(n=4)``) and the spread
(quartile distance over median). For end-to-end metrics it also prints
the share of the ``BENCHMARK.json`` bound that the spread uses. ``--out``
also writes the summary as JSON, with the machine facts.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list:
    seeds = []
    for piece in text.split(","):
        lo, _, hi = piece.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: float, trace: int):
    """The run's detail line and result line, parsed."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def summarise(workload: str, values: dict, bounds: dict) -> dict:
    rows = {}
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med,) * 3
        spread = (q3 - q1) / med if med else 0.0
        rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "runs": len(vals)}
        share = f"{spread / bounds[name]:6.2f} of bound" if name in bounds else "ungated"
        print(f"{workload:9s} {name:40s} {med:14.6g} spread {spread:7.4f} {share}")
    return rows


def machine() -> dict:
    import numpy

    sys.path.insert(0, str(HERE))
    from run import NPROC

    return {"nproc": NPROC, "blas_threads": NPROC, "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label", default="")
    parser.add_argument("--out")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = seed_list(args.seeds)
    summary = {}
    for workload in args.workloads.split(","):
        values: dict = {}
        ungated: dict = {}
        for seed in seeds:
            detail, result = run_once(workload, seed, seconds, args.trace)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            for name, value in detail["ungated"]["median"].items():
                ungated.setdefault(name, []).append(value)
            print(f"{workload} seed {seed}: attempted {result['attempted']}", file=sys.stderr)
        summary[workload] = {
            "metrics": summarise(workload, values, bounds),
            "ungated": summarise(workload, ungated, {}),
        }
    if args.out:
        out = {"label": args.label, "seeds": seeds, "seconds": seconds, "trace": args.trace,
               "machine": machine(), "workloads": summary}
        Path(args.out).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
