"""Set up one workload run in a fresh process and say when it is ready.

Usage: ``python3 perfbench/probe.py WORKLOAD SEED``. Imports admix, loads
the config, prepares the task, encodes train/dev/test and builds the
model, i.e. everything ``harness.train`` does before its first step,
then prints ``ready``. The caller times the process from its start to
that line; that interval is the benchmark's ``setup_s``.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

from admix import data as dt  # noqa: E402
from admix import harness as hz  # noqa: E402
from workloads import plan  # noqa: E402


def main(name: str, seed: int) -> None:
    p = plan(name, seed)
    cfg = p.config
    train, dev, test, vocab = hz.prepare_task(cfg, p.run_seed)
    for split in (train, dev, test):
        dt.encode_batch(split.examples, vocab, cfg.max_len, train.num_classes)
    hz.build_model(cfg, vocab, train.num_classes, np.random.default_rng(p.run_seed))
    print("ready", flush=True)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
