"""The benchmark's layer tracer still finds and restores every attribute it wraps.

``perfbench/tracer.py`` times the package from outside by swapping module
attributes (``am.recompute_loss``, ``mx.rand_op``, ``hz.train``, ...) for
timing wrappers. A refactor that renames or inlines one of them breaks
``Tracer.install``; this test catches that without running the benchmark.
It reads ``perfbench/`` and changes nothing there.

The tracer also wraps each recorded node's ``backward_fn``, and
``sign_flip`` wraps it again to corrupt one op, both assuming the call
``backward_fn(g)`` returns one adjoint per input. The step tests below
run a real backward walk through those wrappers, so a change to that
convention fails here rather than only in ``run.py --trace 1`` or
``selfcheck.py``.

The benchmark scripts also call the package directly (``hz.plain_mean_loss``,
``hz.prepare_task``, ``dt.encode_batch``, ...). The last test reads every
``perfbench/*.py`` with ``ast`` and checks that each package attribute it
reads exists and takes every keyword passed to it there.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from admix import amp as am
from admix import autodiff as ad
from admix import data as dt
from admix import harness as hz
from admix import mixup as mx
from admix import models as md

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
MODULES = (am, ad, dt, hz, mx, md)


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_wraps_and_uninstall_restores_every_attribute():
    before = [dict(vars(module)) for module in MODULES]
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        patched = {
            (module.__name__, name)
            for module, saved in zip(MODULES, before)
            for name, value in vars(module).items()
            if saved.get(name) is not value
        }
    finally:
        tracer.uninstall()
    assert {
        ("admix.amp", "grad_lambda"),
        ("admix.amp", "recompute_loss"),
        ("admix.amp", "compute_mask"),
        ("admix.mixup", "rand_op"),
        ("admix.harness", "train"),
        ("admix.autodiff", "backward"),
    } <= patched
    for module, saved in zip(MODULES, before):
        after = vars(module)
        assert after.keys() == saved.keys()
        assert all(after[name] is value for name, value in saved.items()), module.__name__


ROWS, MAX_LEN, EMBED_DIM = 6, 7, 5


def recorded_step(policy: str, backbone: str = "embed-mlp"):
    """Loss and parameter gradients of one step at ``word``."""
    rng = np.random.default_rng(3)
    if backbone == "embed-mlp":
        model = md.init_embed_mlp(25, EMBED_DIM, 6, 3, rng, dropout=0.3)
    else:
        model = md.init_text_cnn(25, EMBED_DIM, (2, 3), 4, 3, rng, dropout=0.3)
    label_ids = rng.integers(0, 3, size=ROWS)
    batch = md.Batch(
        rng.integers(0, 25, size=(ROWS, MAX_LEN)),
        rng.integers(1, MAX_LEN + 1, size=ROWS),
        label_ids,
    )
    config = mx.MixConfig(policy=policy, layer="word", epsilon=0.3)
    params = list(model.trainable_params().values())
    with ad.Tape() as tape:
        total, _ = hz.policy_step(
            model, batch, config, np.random.default_rng(4), np.random.default_rng(5)
        )
        return [total.data, *ad.backward(tape, total, params)]


def traced_step(policy: str, backbone: str):
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        return recorded_step(policy, backbone), tracer.exact_counts()
    finally:
        tracer.uninstall()


@pytest.mark.parametrize("policy", ["none", "mixup", "amp"])
def test_traced_backward_runs_the_wrapped_adjoints_bitwise(policy):
    for backbone in ("embed-mlp", "text-cnn"):
        traced, counts = traced_step(policy, backbone)
        for a, b in zip(recorded_step(policy, backbone), traced):
            np.testing.assert_array_equal(a, b)
    # each scatter op's wrapped backward_fn saw its incoming gradient: the
    # text-cnn lookup's [n, len, d] grid, plus the partner grid of a mixed
    # pairing (amp's ascent stops at lambda, so only its final walk reaches
    # the gather)
    grids = 1 if policy == "none" else 2
    assert counts["autodiff.scatter_bytes"] == 8 * grids * ROWS * MAX_LEN * EMBED_DIM


def test_sign_flip_negates_one_op_adjoint():
    # every parameter gradient of a plain step flows through the loss op,
    # so negating its adjoint negates them all, bit for bit
    clean = recorded_step("none")
    restore = load_tracer().sign_flip("softmax_cross_entropy")
    try:
        flipped = recorded_step("none")
    finally:
        restore()
    np.testing.assert_array_equal(flipped[0], clean[0])
    for a, b in zip(clean[1:], flipped[1:]):
        assert np.any(a != 0)
        np.testing.assert_array_equal(b, -a)


def package_uses():
    """``(script, module, attribute, keywords)`` for every ``alias.attribute``
    a perfbench script reads, where ``from admix import module as alias``
    binds the alias; ``keywords`` are those of a call made through it."""
    for path in sorted(TRACER.parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases = {
            alias.asname or alias.name: importlib.import_module(f"admix.{alias.name}")
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "admix"
            for alias in node.names
        }
        calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in aliases:
                call = calls.get(id(node))
                keywords = [k.arg for k in call.keywords if k.arg] if call else []
                yield path.name, aliases[node.value.id], node.attr, keywords


def test_perfbench_reads_only_what_the_package_has():
    uses = list(package_uses())
    seen = {(script, module.__name__, attr) for script, module, attr, _ in uses}
    assert {
        ("run.py", "admix.harness", "plain_mean_loss"),
        ("run.py", "admix.harness", "lambda_sweep"),
        ("probe.py", "admix.harness", "prepare_task"),
        ("probe.py", "admix.harness", "build_model"),
        ("probe.py", "admix.data", "encode_batch"),
    } <= seen
    passed = {k for *_, keywords in uses for k in keywords}
    assert {"step_hook", "grid_points", "pairing_seed"} <= passed
    for script, module, attr, keywords in uses:
        where = f"perfbench/{script}: {module.__name__}.{attr}"
        assert hasattr(module, attr), f"{where} does not exist"
        if keywords:
            params = inspect.signature(getattr(module, attr)).parameters
            missing = [k for k in keywords if k not in params]
            assert not missing, f"{where} takes no keyword {missing}"
