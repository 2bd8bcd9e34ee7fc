"""What each benchmark workload runs, derived from the workload seed.

A run of a workload has two parts. Its measuring window is a closed loop
of cycles, and each cycle trains ``none``, ``mixup`` and ``amp`` in turn
(what ``admix train`` does). After the window comes the tail of the
user's session: the amp- and mixup-trained models are swept over a
101-point lambda grid (``admix sweep``), and a multi-seed comparison runs
at a quarter of the training set (``admix lowres``). The two
configurations put the bulk of the time in different layers:

- ``mlp-word``: ``configs/acceptance.cfg``. A step takes 0.5 to 2 ms. Per-op
  Python overhead dominates it, along with the embedding and
  ``gather_rows`` scatters and the word-grid mix. No conv code runs. Its
  sweep is tape-free over the 3000x24x16 word grid.
- ``cnn-sent``: text-cnn at ``layer=sent`` with dropout 0.5. The conv
  backward dominates and runs twice per ``amp`` step. The mix is tiny.

Runs are shorter than the configured 1500 steps, so that a cycle takes a
few seconds. The machine's speed drifts over seconds, and short cycles
let every policy sample the whole window (see README.md). A step costs
the same early and late in training.

Reference traces exist for ``POOL`` input sets, so a workload seed
selects one of them: seed ``s`` trains with run seed ``s % POOL``.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

from admix import harness as hz

ROOT = Path(__file__).resolve().parent.parent
CONFIG = ROOT / "configs" / "acceptance.cfg"
POOL = 8
POLICIES = ("none", "mixup", "amp")
GRID = 101
LOWRES_RATIO = 0.25


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    overrides: dict  # applied to acceptance.cfg
    lowres_seeds: int  # seeds of the run_seeds call
    lowres_steps: int  # step budget of each run inside run_seeds


WORKLOADS = {
    w.name: w
    for w in (
        Workload("mlp-word", {"max_steps": 200}, lowres_seeds=4, lowres_steps=100),
        Workload(
            "cnn-sent",
            {"backbone": "text-cnn", "dropout": 0.5, "layer": "sent", "max_steps": 100},
            lowres_seeds=2,
            lowres_steps=50,
        ),
    )
}


@dataclasses.dataclass(frozen=True)
class Plan:
    """The inputs one workload seed selects."""

    workload: Workload
    index: int  # which of the POOL reference input sets
    config: hz.ExperimentConfig  # per-policy runs; policy is set per run
    run_seed: int  # seed of the per-policy runs and of the sweep pairing
    lowres: hz.ExperimentConfig  # the run_seeds call


def plan(name: str, seed: int) -> Plan:
    workload = WORKLOADS[name]
    index = seed % POOL
    config = dataclasses.replace(hz.load_config(CONFIG), **workload.overrides)
    first = POOL + index * workload.lowres_seeds
    lowres = dataclasses.replace(
        config,
        subsample_ratio=LOWRES_RATIO,
        max_steps=workload.lowres_steps,
        seeds=tuple(range(first, first + workload.lowres_seeds)),
    )
    return Plan(workload, index, config, index, lowres)
