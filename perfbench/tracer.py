"""Outside-in layer trace of admix: spans around its public functions.

``Tracer.install`` swaps module attributes such as ``autodiff.matmul``
for timing wrappers; the package's modules call each other through
module attributes (``ad.matmul``, ``mx.rand_op``, ``hz.train``), so they
pick the wrappers up at call time. Each node an op records on the active
tape gets its ``backward_fn`` wrapped the way ``harness._corrupting``
wraps it, which attributes backward time per op. Nothing in ``src/`` is
edited and ``uninstall`` restores every attribute. The wrappers only
pass values through, so traced runs stay bitwise equal to untraced ones.

Spans (name, start, end, parent) are kept in memory and reduced by
``metrics``. Calls are nested and single-threaded, so a span's self time
is its duration minus the durations of its direct children. Counts that
must repeat exactly (op calls, tape nodes, nodes visited by backward,
scatter bytes computed from gradient shapes, rows encoded) are kept
beside the spans.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter

import numpy as np

from admix import amp as am
from admix import autodiff as ad
from admix import data as dt
from admix import harness as hz
from admix import mixup as mx
from admix import models as md

# Tape ops the backbones and policies record; relu and the single-sample
# forms are not reached from training.
OPS = (
    "conv1d_maxpool_batch",
    "embedding_lookup",
    "gather_rows",
    "mul",
    "mean_pool_batch",
    "matmul",
    "tanh",
    "add",
    "scale",
    "reshape",
    "concat",
    "reduce_sum",
    "softmax_cross_entropy",
)
# Ops whose backward scatter-adds the incoming gradient with np.add.at.
SCATTER_OPS = ("embedding_lookup", "gather_rows")

# Per-layer metrics the traced run reports: (name, unit, better).
METRICS = (
    [
        (f"autodiff.{op}.{kind}", unit, "lower")
        for op in OPS
        for kind, unit in (("fwd_s", "s"), ("bwd_s", "s"), ("calls", "count"))
    ]
    + [
        ("autodiff.tapefree.fwd_s", "s", "lower"),
        ("autodiff.backward.self_s", "s", "lower"),
        ("autodiff.backward.nodes_visited", "count", "lower"),
        ("autodiff.scatter_bytes", "bytes", "lower"),
        ("autodiff.tape.nodes_per_step", "count/step", "lower"),
        ("amp.random_s", "s", "lower"),
        ("amp.ascent_s", "s", "lower"),
        ("amp.ascent_nodes_visited", "count", "lower"),
        ("amp.rescore_s", "s", "lower"),
        ("amp.select_s", "s", "lower"),
        ("amp.final_backward_s", "s", "lower"),
        ("amp.mask_rate", "ratio", "higher"),
        ("mixup.rand_op_s", "s", "lower"),
        ("mixup.sample_lambda_s", "s", "lower"),
        ("mixup.pair_batch_s", "s", "lower"),
        ("models.forward_to_layer_s", "s", "lower"),
        ("models.forward_from_layer_s", "s", "lower"),
        ("harness.adam_update_s", "s", "lower"),
        ("harness.eval_s", "s", "lower"),
        ("harness.train_s", "s", "lower"),
        ("harness.run_seeds_s", "s", "lower"),
        ("harness.run_seeds.self_s", "s", "lower"),
        ("harness.lambda_sweep_s", "s", "lower"),
        ("data.prepare_task_s", "s", "lower"),
        ("data.generate_synthetic_corpus_s", "s", "lower"),
        ("data.generate_synthetic_corpus_calls", "count", "lower"),
        ("data.encode_batch_s", "s", "lower"),
        ("data.encode_batch_rows", "count", "lower"),
        ("trace.untraced_s", "s", "lower"),
        ("trace.traced_s", "s", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
    ]
)


def sign_flip(op: str):
    """Make ``autodiff.<op>`` record nodes whose adjoint is negated.

    The same wrapping ``harness._corrupting`` uses, applied from outside.
    Returns a callable that restores the op.
    """
    original = getattr(ad, op)

    def wrapper(*args, **kwargs):
        out = original(*args, **kwargs)
        tape = ad.active_tape()
        if tape is not None and tape.nodes and tape.nodes[-1].output is out:
            node = tape.nodes[-1]
            clean = node.backward_fn
            node.backward_fn = lambda g: tuple(None if p is None else -p for p in clean(g))
        return out

    setattr(ad, op, wrapper)
    return lambda: setattr(ad, op, original)


class Tracer:
    def __init__(self):
        self._ids: dict[str, int] = {}
        self._names: list[str] = []
        self._saved: list = []
        self.reset()

    def reset(self) -> None:
        """Drop the spans and counts recorded so far."""
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self._names)
            self._names.append(name)
        idx = len(self.end)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def _current(self) -> str | None:
        return self._names[self.name_id[self.stack[-1]]] if self.stack else None

    # -- wrappers ------------------------------------------------------------

    def _timed(self, name_of, fn, after=None):
        def wrapper(*args, **kwargs):
            idx = self._open(name_of(*args, **kwargs))
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(out, *args, **kwargs)
            return out

        return wrapper

    def _op(self, op: str, fn):
        fwd, fwd_free, bwd = f"autodiff.{op}.fwd", f"autodiff.{op}.fwd.tapefree", f"autodiff.{op}.bwd"
        calls = f"autodiff.{op}.calls"
        scatter = op in SCATTER_OPS

        def backward_fn(clean):
            def timed(g):
                if scatter:
                    self.counts["autodiff.scatter_bytes"] += g.nbytes
                idx = self._open(bwd)
                try:
                    return clean(g)
                finally:
                    self._close(idx)

            return timed

        def wrapper(*args, **kwargs):
            tape = ad.active_tape()
            idx = self._open(fwd if tape is not None else fwd_free)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            self.counts[calls] += 1
            if tape is not None and tape.nodes and tape.nodes[-1].output is out:
                node = tape.nodes[-1]
                node.backward_fn = backward_fn(node.backward_fn)
                self.counts["autodiff.tape.nodes"] += 1
            return out

        return wrapper

    def _backward(self, fn):
        def wrapper(tape, root, *args, **kwargs):
            ascent = self._current() == "amp.ascent"
            idx = self._open("autodiff.backward")
            try:
                return fn(tape, root, *args, **kwargs)
            finally:
                self._close(idx)
                self.counts["autodiff.backward.nodes_visited"] += tape.last_visit_count
                if ascent:
                    self.counts["amp.ascent_nodes_visited"] += tape.last_visit_count

        return wrapper

    def _count(self, key, amount):
        def after(out, *args, **kwargs):
            self.counts[key] += amount(out, *args, **kwargs)

        return after

    def _kept(self, mask, *args, **kwargs):
        self.counts["amp.mask_kept"] += int(np.count_nonzero(mask))
        self.counts["amp.mask_total"] += mask.size

    def install(self) -> None:
        def fixed(name):
            return lambda *args, **kwargs: name

        def train_name(config, *args, **kwargs):
            return f"harness.train.{config.policy}"

        def forward_name(*args, **kwargs):
            return "models.forward" if ad.active_tape() is not None else "models.forward.eval"

        def one(*args, **kwargs):
            return 1

        def rows(out, examples, *args, **kwargs):
            return len(examples)

        patches = [(ad, op, lambda fn, op=op: self._op(op, fn)) for op in OPS]
        patches.append((ad, "backward", self._backward))
        for module, attr, name_of, after in (
            (am, "amp_step", fixed("amp.step"), None),
            (am, "grad_lambda", fixed("amp.ascent"), None),
            (am, "recompute_loss", fixed("amp.rescore"), None),
            (am, "compute_mask", fixed("amp.select"), self._kept),
            (am, "final_loss", fixed("amp.select"), None),
            (mx, "rand_op", fixed("mixup.rand_op"), None),
            (mx, "sample_lambda", fixed("mixup.sample_lambda"), None),
            (mx, "pair_batch", fixed("mixup.pair_batch"), None),
            (md, "forward", forward_name, None),
            (md, "forward_to_layer", fixed("models.forward_to_layer"), None),
            (md, "forward_from_layer", fixed("models.forward_from_layer"), None),
            (hz, "train", train_name, None),
            (hz, "run_seeds", fixed("harness.run_seeds"), None),
            (hz, "lambda_sweep", fixed("harness.lambda_sweep"), None),
            (hz, "adam_update", fixed("harness.adam_update"), self._count("harness.steps", one)),
            (hz, "prepare_task", fixed("data.prepare_task"), None),
            (
                dt,
                "generate_synthetic_corpus",
                fixed("data.generate_synthetic_corpus"),
                self._count("data.generate_synthetic_corpus_calls", one),
            ),
            (dt, "encode_batch", fixed("data.encode_batch"), self._count("data.encode_batch_rows", rows)),
        ):
            patches.append(
                (module, attr, lambda fn, n=name_of, a=after: self._timed(n, fn, a))
            )
        for module, attr, make in patches:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, make(original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- reduction -----------------------------------------------------------

    def exact_counts(self) -> dict:
        """The counts that must repeat exactly when the same work repeats."""
        return dict(sorted(self.counts.items()))

    def metrics(self) -> dict:
        """Per-layer totals over everything recorded since ``reset``."""
        names = np.array(self.name_id, dtype=np.int64)
        parents = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end) - np.array(self.start)
        nested = parents >= 0
        child = np.bincount(parents[nested], weights=dur[nested], minlength=dur.size)
        own = dur - child
        parent_name = np.full(dur.size, -1)
        parent_name[nested] = names[parents[nested]]

        def ids(*wanted):
            return [self._ids[w] for w in wanted if w in self._ids]

        def total(*wanted, under=None, values=dur):
            pick = np.isin(names, ids(*wanted))
            if under is not None:
                pick &= np.isin(parent_name, ids(under))
            return float(values[pick].sum())

        c = self.counts
        m = {}
        for op in OPS:
            m[f"autodiff.{op}.fwd_s"] = total(f"autodiff.{op}.fwd", f"autodiff.{op}.fwd.tapefree")
            m[f"autodiff.{op}.bwd_s"] = total(f"autodiff.{op}.bwd")
            m[f"autodiff.{op}.calls"] = c[f"autodiff.{op}.calls"]
        m["autodiff.tapefree.fwd_s"] = total(*[f"autodiff.{op}.fwd.tapefree" for op in OPS])
        m["autodiff.backward.self_s"] = total("autodiff.backward", values=own)
        m["autodiff.backward.nodes_visited"] = c["autodiff.backward.nodes_visited"]
        m["autodiff.scatter_bytes"] = c["autodiff.scatter_bytes"]
        m["autodiff.tape.nodes_per_step"] = c["autodiff.tape.nodes"] / max(c["harness.steps"], 1)
        m["amp.random_s"] = total("mixup.rand_op", under="amp.step")
        m["amp.ascent_s"] = total("amp.ascent")
        m["amp.ascent_nodes_visited"] = c["amp.ascent_nodes_visited"]
        m["amp.rescore_s"] = total("amp.rescore")
        m["amp.select_s"] = total("amp.select")
        m["amp.final_backward_s"] = total("autodiff.backward", under="harness.train.amp")
        m["amp.mask_rate"] = c["amp.mask_kept"] / max(c["amp.mask_total"], 1)
        m["mixup.rand_op_s"] = total("mixup.rand_op")
        m["mixup.sample_lambda_s"] = total("mixup.sample_lambda")
        m["mixup.pair_batch_s"] = total("mixup.pair_batch")
        m["models.forward_to_layer_s"] = total("models.forward_to_layer")
        m["models.forward_from_layer_s"] = total("models.forward_from_layer")
        m["harness.adam_update_s"] = total("harness.adam_update")
        m["harness.eval_s"] = total("models.forward.eval")
        m["harness.train_s"] = total(*[f"harness.train.{p}" for p in ("none", "mixup", "amp")])
        m["harness.run_seeds_s"] = total("harness.run_seeds")
        m["harness.run_seeds.self_s"] = total("harness.run_seeds", values=own)
        m["harness.lambda_sweep_s"] = total("harness.lambda_sweep")
        m["data.prepare_task_s"] = total("data.prepare_task")
        m["data.generate_synthetic_corpus_s"] = total("data.generate_synthetic_corpus")
        m["data.generate_synthetic_corpus_calls"] = c["data.generate_synthetic_corpus_calls"]
        m["data.encode_batch_s"] = total("data.encode_batch")
        m["data.encode_batch_rows"] = c["data.encode_batch_rows"]
        return m
