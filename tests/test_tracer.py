"""The benchmark's layer tracer still finds and restores every attribute it wraps.

``perfbench/tracer.py`` times the package from outside by swapping module
attributes (``am.recompute_loss``, ``mx.rand_op``, ``hz.train``, ...) for
timing wrappers. A refactor that renames or inlines one of them breaks
``Tracer.install``; this test catches that without running the benchmark.
It reads ``perfbench/`` and changes nothing there.
"""

import importlib.util
from pathlib import Path

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
