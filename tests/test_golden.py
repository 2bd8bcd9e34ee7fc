"""Golden traces: 40 training steps per (backbone, layer, policy).

Each of the 12 runs trains on ``configs/acceptance.cfg`` with seed 0
(text-cnn with dropout 0.5) and is compared against the traces stored in
``golden_traces.json``. For each (backbone, layer), the amp- and
mixup-trained models of those runs are also swept over an 11-point lambda
grid on the test set, once over the full pairing and once over a single
pair. Each training run also stores ``params``, a few entries sampled
from its trained parameters flattened in ``model.params`` order, and
``params_sha256``, the digest of all of them, so a last-bit change to the
weights shows even where every loss rounds to the same value. ``train``
returns the best-dev parameters, and every text-cnn run's best step is
early, so each entry also stores ``final_params_sha256``, the digest of
the trainable parameters after the last step: a change to a step after
the best one shows in a parameter digest too, not only in the losses.
A refactor that leaves the arithmetic alone reproduces the stored sha256
digests bitwise; the test itself allows the float64 tolerance perfbench
uses, so that another machine's BLAS summation order does not fail it.
``test_error`` is compared exactly.

``PYTHONPATH=src python tests/test_golden.py --check`` prints, for every
trace or parameter digest whose sha256 would change, its max abs and max
rel drift against the file (for ``final_params_sha256``, which stores no
values, only that it changed), writes nothing, and exits 1 when anything
drifted. Without ``--check`` the script prints the same report and
rewrites the file: do that only for a change that is meant to move the
traces, and state the drift. The file's ``written_under`` entry records
the numpy version, the OpenBLAS version and the OpenBLAS core it was
written with. Either way the script first prints the core numpy runs on
(``unknown`` when its library does not say) beside that one, since a
digest is only reproducible under the same kernel: ``--check`` says "no
change" only under the file's kernel, and labels drift under another
kernel "other kernel". ``test_the_comparisons_hold_under_a_second_kernel``
runs the other tests of this file again in a subprocess with
``OPENBLAS_CORETYPE`` set to a second kernel, where they must pass within
the same tolerance.
"""

import ctypes
import dataclasses
import functools
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from admix import harness as hz

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("golden_traces.json")
HEADER = "written_under"
STEPS = 40
RTOL = 1e-9
ATOL = 1e-12
TRACES = ("step_objective", "step_grad_lambda")
PARAM_SAMPLES = 8
COMBOS = [
    f"{backbone}/{layer}/{policy}"
    for backbone in ("embed-mlp", "text-cnn")
    for layer in ("sent", "word")
    for policy in ("none", "mixup", "amp")
]
SWEEP_GRID = 11
SWEEP_PAIR = (2, 5)
SWEEPS = {"full": None, "pair": SWEEP_PAIR}
SWEEP_COMBOS = [
    f"{backbone}/{layer}/sweep"
    for backbone in ("embed-mlp", "text-cnn")
    for layer in ("sent", "word")
]


def _config(backbone: str, layer: str, policy: str):
    config = hz.load_config(ROOT / "configs" / "acceptance.cfg")
    dropout = 0.5 if backbone == "text-cnn" else config.dropout
    return dataclasses.replace(
        config, backbone=backbone, layer=layer, policy=policy, max_steps=STEPS, dropout=dropout
    )


@functools.lru_cache(maxsize=None)
def _train(combo: str):
    """(model, report, final_params_sha256) of one golden run; the sweeps
    reuse its model. The digest is taken after every ``adam_update``, so
    the one kept is that of the parameters after the last step."""
    adam_update = hz.adam_update
    final = {}

    def update_and_digest(params, grads, state):
        adam_update(params, grads, state)
        final["sha256"] = _digest(np.concatenate([p.data.ravel() for p in params.values()]))

    with mock.patch.object(hz, "adam_update", update_and_digest):
        model, report = hz.train(_config(*combo.split("/")), seed=0)
    return model, report, final["sha256"]


def _digest(values) -> str:
    return hashlib.sha256(np.asarray(values, dtype=np.float64).tobytes()).hexdigest()


def record(combo: str) -> dict:
    model, report, final_params_sha256 = _train(combo)
    entry = {"test_error": report.test_error}
    for name in TRACES:
        values = getattr(report, name)
        entry[name] = np.asarray(values, dtype=np.float64).tolist()
        entry[f"{name}_sha256"] = _digest(values)
    flat = np.concatenate([p.data.ravel() for p in model.params.values()])
    picks = np.linspace(0, flat.size - 1, PARAM_SAMPLES).round().astype(np.intp)
    entry["params"] = flat[picks].tolist()
    entry["params_sha256"] = _digest(flat)
    entry["final_params_sha256"] = final_params_sha256
    return entry


def record_sweep(combo: str) -> dict:
    backbone, layer, _ = combo.split("/")
    model_amp, _, _ = _train(f"{backbone}/{layer}/amp")
    model_mix, _, _ = _train(f"{backbone}/{layer}/mixup")
    config = _config(backbone, layer, "amp")
    _, _, test_ds, vocab = hz.prepare_task(config, seed=0)
    entry = {}
    for name, pair in SWEEPS.items():
        rows = hz.lambda_sweep(
            model_amp, model_mix, test_ds, vocab, config.max_len,
            grid_points=SWEEP_GRID, layer=layer, pair=pair,
        )
        entry[name] = np.asarray(rows, dtype=np.float64).tolist()
        entry[f"{name}_sha256"] = _digest(rows)
    return entry


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("combo", COMBOS)
def test_trace_matches_golden(combo, golden):
    expected = golden[combo]
    got = record(combo)
    assert got["test_error"] == expected["test_error"]
    for name in (*TRACES, "params"):
        np.testing.assert_allclose(
            got[name], expected[name], rtol=RTOL, atol=ATOL, err_msg=f"{combo} {name}"
        )


@pytest.mark.parametrize("combo", SWEEP_COMBOS)
def test_sweep_matches_golden(combo, golden):
    expected = golden[combo]
    got = record_sweep(combo)
    for name in SWEEPS:
        np.testing.assert_allclose(
            got[name], expected[name], rtol=RTOL, atol=ATOL, err_msg=f"{combo} {name}"
        )


def _openblas(name: str) -> str:
    """``scipy_openblas_<name>64_()`` of the library bundled in ``numpy.libs``,
    or ``unknown``."""
    for lib in sorted((Path(np.__file__).resolve().parents[1] / "numpy.libs").glob("*openblas*")):
        try:
            func = getattr(ctypes.CDLL(str(lib)), f"scipy_openblas_{name}64_")
        except (OSError, AttributeError):
            continue
        func.argtypes, func.restype = [], ctypes.c_char_p
        return func().decode()
    return "unknown"


def blas_core() -> str:
    """The OpenBLAS core numpy runs on, or ``unknown``."""
    return _openblas("get_corename")


def written_under() -> dict:
    """The numpy and OpenBLAS versions and the OpenBLAS core running now."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "openblas": blas.get("version"), "blas_core": blas_core()}


def verdict(drifted: int, file_core: str, core: str) -> str:
    """The last line of ``--check``: "no change" only under the file's kernel."""
    if file_core != core:
        return f"{drifted} digests differ from {GOLDEN.name} (other kernel)"
    return f"{drifted} digests differ from {GOLDEN.name}" if drifted else "no change"


def test_the_file_names_the_kernel_it_was_written_under(golden):
    assert set(golden[HEADER]) == {"numpy", "openblas", "blas_core"}
    assert verdict(0, golden[HEADER]["blas_core"], golden[HEADER]["blas_core"]) == "no change"
    # drift, or none, under another kernel is never "no change"
    for drifted in (0, 15):
        assert verdict(drifted, "SkylakeX", "Haswell").endswith(" (other kernel)")
    assert verdict(2, "Haswell", "Haswell") == "2 digests differ from golden_traces.json"


def test_the_comparisons_hold_under_a_second_kernel():
    # the digests are bitwise under one kernel only, but the comparisons'
    # tolerance must hold under another. A build without DYNAMIC_ARCH
    # ignores OPENBLAS_CORETYPE and runs its one kernel.
    kernel = "Sandybridge" if blas_core() == "Haswell" else "Haswell"
    env = {**os.environ, "OPENBLAS_CORETYPE": kernel}
    here = str(Path(__file__).parent)
    probe = (
        f"import sys; sys.path.insert(0, {here!r}); "
        "import test_golden; print(test_golden.blas_core())"
    )
    core = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout.strip()
    if "DYNAMIC_ARCH" in _openblas("get_config").split():
        assert core == kernel
    others = [sys.executable, "-m", "pytest", __file__, "-q", "-p", "no:cacheprovider"]
    run = subprocess.run(
        [*others, "-k", "not second_kernel"], env=env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stdout[-4000:]


def drift_lines(old: dict, new: dict) -> list:
    """One line per trace of ``new`` whose sha256 differs from ``old``'s,
    with the max abs and max rel drift between the two value lists, or
    only the change for a digest stored without its values."""
    lines = []
    for combo, entry in new.items():
        for key, digest in entry.items():
            name = key.removesuffix("_sha256")
            if name == key or old.get(combo, {}).get(key) == digest:
                continue
            if name not in entry:
                lines.append(f"{combo} {name}: sha256 differs (only the digest is stored)")
                continue
            before = np.asarray(old.get(combo, {}).get(name, []), dtype=np.float64)
            after = np.asarray(entry[name], dtype=np.float64)
            if before.shape != after.shape:
                lines.append(f"{combo} {name}: no old values of shape {after.shape}")
                continue
            diff = np.abs(after - before)
            with np.errstate(divide="ignore", invalid="ignore"):
                rel = np.where(diff == 0.0, 0.0, diff / np.abs(before))
            lines.append(f"{combo} {name}: max abs {diff.max():.3g}, max rel {rel.max():.3g}")
    return lines


if __name__ == "__main__":
    check = sys.argv[1:] == ["--check"]
    if sys.argv[1:] and not check:
        sys.exit(f"usage: {sys.argv[0]} [--check]")
    previous = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    here = written_under()
    file_core = previous.get(HEADER, {}).get("blas_core", "unknown")
    print(f"OpenBLAS core: {here['blas_core']}; {GOLDEN.name} was written under {file_core}")
    traces = {combo: record(combo) for combo in COMBOS}
    traces.update({combo: record_sweep(combo) for combo in SWEEP_COMBOS})
    drift = drift_lines(previous, traces)
    for line in drift:
        print(line)
    if check:
        print(verdict(len(drift), file_core, here["blas_core"]))
        sys.exit(1 if drift else 0)
    GOLDEN.write_text(json.dumps({HEADER: here, **traces}, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
