"""Golden traces: 40 training steps per (backbone, layer, policy).

Each of the 12 runs trains on ``configs/acceptance.cfg`` with seed 0
(text-cnn with dropout 0.5) and is compared against the traces stored in
``golden_traces.json``. A refactor that leaves the arithmetic alone
reproduces the stored sha256 digests bitwise; the test itself allows the
float64 tolerance perfbench uses, so that another machine's BLAS
summation order does not fail it. ``test_error`` is compared exactly.

Rewrite the file with ``PYTHONPATH=src python tests/test_golden.py``,
only for a change that is meant to move the traces, and state the drift.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from admix import harness as hz

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("golden_traces.json")
STEPS = 40
RTOL = 1e-9
ATOL = 1e-12
TRACES = ("step_objective", "step_grad_lambda")
COMBOS = [
    f"{backbone}/{layer}/{policy}"
    for backbone in ("embed-mlp", "text-cnn")
    for layer in ("sent", "word")
    for policy in ("none", "mixup", "amp")
]


def record(combo: str) -> dict:
    backbone, layer, policy = combo.split("/")
    config = hz.load_config(ROOT / "configs" / "acceptance.cfg")
    dropout = 0.5 if backbone == "text-cnn" else config.dropout
    config = dataclasses.replace(
        config, backbone=backbone, layer=layer, policy=policy, max_steps=STEPS, dropout=dropout
    )
    _, report = hz.train(config, seed=0)
    entry = {"test_error": report.test_error}
    for name in TRACES:
        values = np.asarray(getattr(report, name), dtype=np.float64)
        entry[name] = values.tolist()
        entry[f"{name}_sha256"] = hashlib.sha256(values.tobytes()).hexdigest()
    return entry


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("combo", COMBOS)
def test_trace_matches_golden(combo, golden):
    expected = golden[combo]
    got = record(combo)
    assert got["test_error"] == expected["test_error"]
    for name in TRACES:
        np.testing.assert_allclose(
            got[name], expected[name], rtol=RTOL, atol=ATOL, err_msg=f"{combo} {name}"
        )


if __name__ == "__main__":
    traces = {combo: record(combo) for combo in COMBOS}
    GOLDEN.write_text(json.dumps(traces, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
