"""admix benchmark: one workload, run as a closed loop in one process.

Usage::

    python3 perfbench/run.py --workload mlp-word --seed 0 --seconds 40 --trace 0

The measuring window is a loop of cycles. Each cycle calls
``harness.train`` for ``none``, ``mixup`` and ``amp`` in turn (see
``workloads.py``), then ``probe.py`` sets the workload up in a fresh
process. Each call starts when the previous one has returned. Cycles
repeat until ``--seconds`` have passed. The tail then runs
``harness.lambda_sweep`` of the last amp- and mixup-trained models, and
``harness.run_seeds``.

Every operation is checked. An operation is one train, run_seeds or
lambda_sweep call. The checks are: finite objectives, test error in
[0, 1], the step_objective trace against the reference recorded at the
seed commit (``reference.json``), and the sweep's symmetry and
endpoints. An operation that raises or fails a check counts as failed.
The run then stops, prints no metrics and exits 1.

``--trace 0`` prints the end-to-end metrics: the median set-up time, the
90th percentile of the time between steps per policy, and peak memory.
The line before the result holds the ungated timings: step medians, and
the wall time of each call. The 2-core development machine switches
between two speeds about 1.6x apart, every few seconds. A median over
one run lands on either speed, so it does not repeat from run to run;
the 90th percentile does (see README.md).

``--trace 1`` runs one unit (a cycle and the tail) untraced, then at
least two under ``tracer.Tracer``, and prints per-layer totals per unit.
It fails if the exact counts differ between traced units, or if any
trace differs bitwise from the untraced unit.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The line before
it also holds each trace's sha256 digest and ``trace_bitwise`` flag.
"""

from __future__ import annotations

import os

# Cap BLAS threads at the CPUs this process may use, before numpy loads.
NPROC = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

try:
    import numpy as np

    from admix import harness as hz
    from tracer import METRICS as LAYER_METRICS
    from tracer import Tracer, sign_flip
    from workloads import GRID, POLICIES, WORKLOADS, plan
except ImportError as exc:
    sys.exit(f"perfbench: cannot import the program from {HERE.parent / 'src'}: {exc}")

# Set-up is timed once per cycle, so that its samples span the window
# the way the step samples do, and at least this often per run.
SETUP_PROBES = 5
# Step intervals per policy a run collects at least, so that at least ten
# lie beyond the 90th percentile.
MIN_INTERVALS = 100
REFERENCE = HERE / "reference.json"
# A trace that is not bitwise equal to its reference still passes when
# every sampled value is within RTOL * |ref| + ATOL of it. Reordered
# float64 sums move whole runs by far less: the matmul-form conv backward
# (about 1e-14 per call) left 300-step text-cnn traces within 1.4e-16 of
# the reference, and a reordered mean-pool sum left 1500-step embed-mlp
# traces within 4.3e-16. Any change to what is computed moves them by more.
RTOL = 1e-9
ATOL = 1e-12
SWEEP_SYMMETRY = 1e-9

END_TO_END = (
    [("setup_s", "s")]
    + [(f"step_ms.{p}.p90", "ms") for p in POLICIES]
    + [("peak_rss_mb", "MB")]
)


def digest(values: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype=np.float64).tobytes()).hexdigest()


def reference_entry(values: np.ndarray) -> dict:
    """What reference.json keeps of a trace: its digest and a sample."""
    n = values.size
    picks = sorted(set(range(min(n, 4))) | set(range(0, n, max(n // 8, 1))) | {n - 1})
    return {"sha256": digest(values), "size": n, "sample": [[i, float(values[i])] for i in picks]}


def interval_hook(sink: list, steps_per_epoch: int):
    """A step_hook that appends the time between consecutive steps.

    ``train`` checks the dev error after the last step of each epoch,
    between two hook calls; the intervals ending at a step that starts an
    epoch time that evaluation as well and are left out, as is the time
    before step 0.
    """
    last = 0.0

    def hook(step, bundle):
        nonlocal last
        now = time.perf_counter()
        if step % steps_per_epoch:
            sink.append(now - last)
        last = now

    return hook


class Session:
    """The operations of one workload run, their timings and their checks.

    With ``reference=None`` the traces are recorded into ``recorded``
    instead of being compared (see ``record_reference.py``).
    """

    def __init__(self, p, reference: dict | None):
        self.plan = p
        self.reference = reference
        self.recorded: dict = {}
        self.attempted = 0
        self.failed = 0
        self.step_s = {policy: [] for policy in POLICIES}
        self.wall = {name: [] for name in [f"train_s.{q}" for q in POLICIES] + ["sweep_s", "lowres_s"]}
        self.traces: dict = {}  # key -> {"sha256", "trace_bitwise", "max_rel_dev"}
        self.models: dict = {}  # policy -> model of the latest cycle
        train, _, self.sweep_data, self.sweep_vocab = hz.prepare_task(p.config, p.run_seed)
        self.steps_per_epoch = math.ceil(len(train) / p.config.batch_size)

    # -- checks --------------------------------------------------------------

    def compare(self, key: str, values: np.ndarray) -> list:
        """Check a trace against its reference and against earlier cycles."""
        if self.reference is None:
            self.recorded.setdefault(key, reference_entry(values))
            return []
        sha = digest(values)
        seen = self.traces.get(key)
        if seen is not None:
            return [] if sha == seen["sha256"] else [f"{key}: differs from the first cycle"]
        entry = self.reference.get(key)
        if entry is None:
            return [f"{key}: no reference trace"]
        if values.size != entry["size"]:
            return [f"{key}: {values.size} values, reference has {entry['size']}"]
        worst = 0.0
        problems = []
        for i, ref in entry["sample"]:
            dev = abs(float(values[i]) - ref)
            worst = max(worst, dev / max(abs(ref), 1e-300))
            if not dev <= RTOL * abs(ref) + ATOL:
                problems.append(f"{key}[{i}] = {values[i]!r}, reference {ref!r}")
        self.traces[key] = {"sha256": sha, "trace_bitwise": sha == entry["sha256"], "max_rel_dev": worst}
        return problems[:3]

    def check_report(self, key: str, report, cfg) -> list:
        trace = np.asarray(report.step_objective, dtype=np.float64)
        problems = []
        if trace.size != cfg.max_steps:
            problems.append(f"{key}: {trace.size} steps, expected {cfg.max_steps}")
        if not np.isfinite(trace).all():
            problems.append(f"{key}: non-finite step_objective")
        if not 0.0 <= report.test_error <= 1.0:
            problems.append(f"{key}: test_error {report.test_error} outside [0, 1]")
        return problems + self.compare(key, trace)

    def check_sweep(self, rows, model_a, model_b) -> list:
        table = np.asarray(rows, dtype=np.float64)
        if table.shape != (GRID, 3) or not np.isfinite(table).all():
            return [f"sweep: expected {GRID} finite rows"]
        problems = []
        cols = table[:, 1:]
        symmetry = float(np.abs(cols - cols[::-1]).max())
        if not symmetry <= SWEEP_SYMMETRY:
            problems.append(f"sweep: symmetry {symmetry:.2e} > {SWEEP_SYMMETRY}")
        cfg = self.plan.config
        if cfg.layer == "sent":
            # At the word layer the mix pools over the longer of the two
            # sequences, so the endpoints are not the plain loss there.
            for col, model in ((0, model_a), (1, model_b)):
                plain = hz.plain_mean_loss(model, self.sweep_data, self.sweep_vocab, cfg.max_len)
                if cols[-1, col] != plain or not abs(cols[0, col] - plain) <= SWEEP_SYMMETRY:
                    problems.append(f"sweep: endpoints of column {col} do not match plain loss {plain!r}")
        return problems + self.compare("sweep", table.ravel())

    def check_lowres(self, results) -> list:
        cfg = self.plan.lowres
        problems = []
        for policy in POLICIES:
            reports = results.get(policy, [])
            if [r.seed for r in reports] != list(cfg.seeds):
                problems.append(f"lowres/{policy}: seeds {[r.seed for r in reports]}")
                continue
            for report in reports:
                problems += self.check_report(f"lowres/{policy}/{report.seed}", report, cfg)
        return problems

    # -- operations ----------------------------------------------------------

    def operation(self, label: str, call, check):
        """Run and time one call; return (result, seconds) or None if it failed."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = call()
            seconds = time.perf_counter() - start
            problems = check(out)
        except Exception:
            traceback.print_exc()
            problems = [f"{label}: raised"]
        if problems:
            self.failed += 1
            print(f"FAILED {label}: " + "; ".join(problems), file=sys.stderr)
            return None
        return out, seconds

    def cycle(self) -> bool:
        """Train each policy in turn. False if an operation failed."""
        p = self.plan
        for policy in POLICIES:
            cfg = dataclasses.replace(p.config, policy=policy)
            hook = interval_hook(self.step_s[policy], self.steps_per_epoch)
            done = self.operation(
                f"train {policy}",
                lambda: hz.train(cfg, p.run_seed, step_hook=hook),
                lambda out: self.check_report(f"train/{policy}", out[1], cfg),
            )
            if done is None:
                return False
            (self.models[policy], _), seconds = done
            self.wall[f"train_s.{policy}"].append(seconds)
        return True

    def tail(self) -> bool:
        """Sweep the latest amp and mixup models, then run_seeds. False on failure."""
        p = self.plan
        amp, mixup = self.models["amp"], self.models["mixup"]
        done = self.operation(
            "lambda_sweep",
            lambda: hz.lambda_sweep(
                amp, mixup, self.sweep_data, self.sweep_vocab, p.config.max_len,
                grid_points=GRID, layer=p.config.layer, pairing_seed=p.run_seed,
            ),
            lambda rows: self.check_sweep(rows, amp, mixup),
        )
        if done is None:
            return False
        self.wall["sweep_s"].append(done[1])
        done = self.operation("run_seeds", lambda: hz.run_seeds(p.lowres), self.check_lowres)
        if done is None:
            return False
        self.wall["lowres_s"].append(done[1])
        return True

    def unit(self) -> bool:
        """A cycle and the tail: the work a traced run repeats."""
        return self.cycle() and self.tail()


def setup_seconds(workload: str, seed: int) -> float:
    """Time a fresh process from its start until it is ready to train."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(HERE / "probe.py"), workload, str(seed)],
        stdout=subprocess.PIPE, text=True,
    ) as proc:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - start
        proc.stdout.read()
        if proc.wait(timeout=60) != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe exited with {proc.returncode}")
    return seconds


def step_ms(session: Session, q: float) -> dict:
    return {f"step_ms.{policy}.p{q}": float(np.percentile(np.asarray(s) * 1e3, q))
            for policy, s in session.step_s.items()}


def end_to_end(session: Session, setup: list) -> dict:
    values = {"setup_s": statistics.median(setup), **step_ms(session, 90)}
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def ungated(session: Session) -> dict:
    """Medians of step time and of call wall time, with the samples."""
    values = step_ms(session, 50) if all(session.step_s.values()) else {}
    values.update({name: statistics.median(s) for name, s in session.wall.items() if s})
    return {"median": values, "samples_s": session.wall}


def per_layer(session: Session, seconds: float) -> dict:
    """An untraced unit, then traced units; per-layer totals per unit."""
    start = time.perf_counter()
    if not session.unit():
        return {}
    untraced = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    walls, layers, counts = [], [], []
    try:
        while len(walls) < 2 or time.perf_counter() - start < seconds:
            tracer.reset()
            t0 = time.perf_counter()
            if not session.unit():
                return {}
            walls.append(time.perf_counter() - t0)
            layers.append(tracer.metrics())
            counts.append(tracer.exact_counts())
    finally:
        tracer.uninstall()
    if any(c != counts[0] for c in counts):
        session.failed += 1
        print("FAILED trace: exact counts differ between traced units", file=sys.stderr)
        return {}
    values = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    values["trace.untraced_s"] = untraced
    values["trace.traced_s"] = statistics.median(walls)
    values["trace.overhead_frac"] = values["trace.traced_s"] / untraced - 1.0
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in LAYER_METRICS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", default=str(REFERENCE),
                        help="reference traces; '-' reads them from stdin")
    parser.add_argument("--corrupt", metavar="OP",
                        help="sign-flip the adjoint of autodiff.OP, to show the checks fail")
    args = parser.parse_args(argv)

    if args.reference == "-":
        reference = json.load(sys.stdin)
    else:
        with open(args.reference, encoding="utf-8") as fh:
            reference = json.load(fh)
    p = plan(args.workload, args.seed)
    session = Session(p, reference["workloads"][args.workload][str(p.index)])
    restore = sign_flip(args.corrupt) if args.corrupt else None
    metrics = {}
    try:
        if args.trace:
            metrics = per_layer(session, args.seconds)
        else:
            setup = []
            start = time.perf_counter()
            while session.cycle():
                setup.append(setup_seconds(args.workload, args.seed))
                if (time.perf_counter() - start >= args.seconds
                        and min(map(len, session.step_s.values())) >= MIN_INTERVALS):
                    break
            while session.failed == 0 and len(setup) < SETUP_PROBES:
                setup.append(setup_seconds(args.workload, args.seed))
            if session.failed == 0 and session.tail():
                metrics = end_to_end(session, setup)
    finally:
        if restore is not None:
            restore()
    correct = session.failed == 0
    print(json.dumps({"detail": {"workload": args.workload, "seed": args.seed, "input_set": p.index,
                                 "ungated": ungated(session), "traces": session.traces}}))
    print(json.dumps({"correct": correct, "attempted": session.attempted,
                      "failed": session.failed, "metrics": metrics if correct else {}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
