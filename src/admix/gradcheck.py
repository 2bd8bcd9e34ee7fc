"""Gradient audit: every tape op, both backbones and the coefficient
gradient dL/dlam that ``amp`` ascends, checked against central
differences (dL/dlam also against a closed form). ``gradcheck`` runs each
row of ``_CHECKS`` on its own seeded stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import amp as am
from . import autodiff as ad
from . import mixup as mx
from . import models as md

FD_STEP = 1e-5  # central-difference step of every op and model row
FD_TOL = 1e-4


def finite_diff_check(f, x: ad.Tensor, h=FD_STEP, denominator="coordinate") -> float:
    """Max relative error between tape gradient of ``f`` and central differences.

    ``f`` maps a Tensor to a scalar Tensor. With the default
    ``coordinate`` denominator the relative error at coordinate i is
    |fd_i - g_i| / (|g_i| + 1e-8); the max over coordinates is
    returned. The ``scale`` denominator divides by max|g| + 1e-8
    instead, for functions whose true partials span many orders of
    magnitude (saturated softmax regions), where a near-zero partial
    would otherwise be compared against pure rounding noise in the
    difference quotient. A function that ignores ``x`` checks out at
    error 0.
    """
    if denominator not in ("coordinate", "scale"):
        raise ValueError(f"denominator must be 'coordinate' or 'scale', got {denominator!r}")
    with ad.Tape() as tape:
        y = f(x)
    (grad,) = ad.backward(tape, y, [x])
    analytic = np.zeros_like(x.data) if grad is None else grad
    flat = x.data.reshape(-1)
    fd = np.zeros_like(flat)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        hi = float(f(ad.Tensor(x.data)).data)
        flat[i] = keep - h
        lo = float(f(ad.Tensor(x.data)).data)
        flat[i] = keep
        fd[i] = (hi - lo) / (2.0 * h)
    fd = fd.reshape(x.shape)
    if denominator == "scale":
        rel = np.abs(fd - analytic) / (np.abs(analytic).max(initial=0.0) + 1e-8)
    else:
        rel = np.abs(fd - analytic) / (np.abs(analytic) + 1e-8)
    return float(rel.max()) if rel.size else 0.0


@dataclass
class GradcheckReport:
    rows: list  # (name, max_rel_err, tolerance)

    @property
    def passed(self) -> bool:
        return all(err <= tol for _, err, tol in self.rows)

    def failures(self) -> list:
        return [name for name, err, tol in self.rows if not err <= tol]  # NaN fails

    def format(self) -> str:
        lines = []
        for name, err, tol in self.rows:
            verdict = "pass" if err <= tol else "FAIL"
            lines.append(f"{name:<26s} max_rel_err={err:.3e}  tol={tol:.0e}  {verdict}")
        return "\n".join(lines)


def _conv_margins_ok(x, filters, margin) -> bool:
    """True when every conv response of ``x`` under the filter bank sits
    at least ``margin`` from the relu kink and every channel's max beats
    its runner-up by more than ``margin``, so a small input shift cannot
    flip a gate. An all-clipped channel pools to exactly 0, which is
    smooth, and so are the zeros past a narrow filter's last window."""
    bank, widths = ad._stack_filters(filters)
    pre = ad._conv_pre(x, bank, widths)
    valid = np.arange(pre.shape[1])[:, None] <= x.shape[1] - widths
    if np.abs(pre[:, valid]).min() < margin:
        return False
    if pre.shape[1] == 1:  # one window: no runner-up to tie with
        return True
    top2 = np.sort(np.maximum(pre, 0.0), axis=1)[:, -2:, :]
    gap = top2[:, 1, :] - top2[:, 0, :]
    return bool(np.all((gap > margin) | (top2[:, 1, :] == 0.0)))


def _conv_safe_instance(rng, n, length, depth, shapes, margin=1e-3):
    """Inputs whose conv responses sit away from relu kinks and argmax ties.

    ``shapes`` lists each filter's (width, channels); returns x and the
    list of filters.
    """
    shapes = list(shapes)
    for _ in range(200):
        x = rng.standard_normal((n, length, depth))
        filters = [rng.standard_normal((w, depth, c)) for w, c in shapes]
        if _conv_margins_ok(x, filters, margin):
            return x, filters
    raise AssertionError("no margin-safe conv instance found")


def _random_batch(rng, n, max_len, vocab_size, num_classes):
    ids = rng.integers(0, vocab_size, size=(n, max_len))
    vls = rng.integers(1, max_len + 1, size=n)
    return md.Batch(ids, vls, rng.integers(0, num_classes, size=n))


def _scalarized(op_output, weights):
    return ad.reduce_sum(ad.mul(op_output, ad.Tensor(weights)))


def _gen_matmul(rng):
    b = ad.Tensor(rng.standard_normal((4, 3)))
    w = rng.standard_normal((3, 3))
    x = ad.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    return lambda t: _scalarized(ad.matmul(t, b), w), x


def _gen_embedding(rng):
    ids = rng.integers(0, 6, size=(2, 4))
    w = rng.standard_normal((2, 4, 3))
    x = ad.Tensor(rng.standard_normal((6, 3)), requires_grad=True)
    return lambda t: _scalarized(ad.embedding_lookup(t, ids), w), x


def _gen_gather(rng):
    idx = rng.integers(0, 5, size=7)
    w = rng.standard_normal((7, 2))
    x = ad.Tensor(rng.standard_normal((5, 2)), requires_grad=True)
    return lambda t: _scalarized(ad.gather_rows(t, idx), w), x


def _gen_mean_pool_batch(rng):
    vls = rng.integers(1, 7, size=4)
    w = rng.standard_normal((4, 2))
    x = ad.Tensor(rng.standard_normal((4, 6, 2)), requires_grad=True)
    return lambda t: _scalarized(ad.mean_pool_batch(t, vls), w), x


def _gen_embedding_mean(rng):
    # 4-5 valid positions over 3 ids repeat an id in every row and share
    # one across rows; every row has padding, and rows 3-4 of the table
    # are never read
    ids = rng.integers(0, 3, size=(3, 6))
    vls = rng.integers(4, 6, size=3)
    w = rng.standard_normal((3, 2))
    x = ad.Tensor(rng.standard_normal((5, 2)), requires_grad=True)
    return lambda t: _scalarized(ad.embedding_mean(t, ids, vls), w), x


def _gen_conv_batch_filters(rng):
    x_data, (f_data,) = _conv_safe_instance(rng, 2, 7, 2, [(3, 3)])
    w = rng.standard_normal((2, 3))
    x_const = ad.Tensor(x_data)
    f = ad.Tensor(f_data, requires_grad=True)
    return lambda t: _scalarized(ad.conv1d_maxpool_batch(x_const, t), w), f


def _gen_conv_batch_input(rng):
    x_data, (f_data,) = _conv_safe_instance(rng, 2, 7, 2, [(3, 3)])
    w = rng.standard_normal((2, 3))
    f_const = ad.Tensor(f_data)
    x = ad.Tensor(x_data, requires_grad=True)
    return lambda t: _scalarized(ad.conv1d_maxpool_batch(t, f_const), w), x


def _gen_tanh(rng):
    w = rng.standard_normal(8)
    x = ad.Tensor(rng.standard_normal(8), requires_grad=True)
    return lambda t: _scalarized(ad.tanh(t), w), x


def _gen_add(rng):
    other = ad.Tensor(rng.standard_normal((5, 3)))
    w = rng.standard_normal((5, 3))
    x = ad.Tensor(rng.standard_normal(3), requires_grad=True)
    return lambda t: _scalarized(ad.add(other, t), w), x


def _gen_mul(rng):
    other = rng.standard_normal((5, 3))
    w = rng.standard_normal((5, 3))
    x = ad.Tensor(rng.standard_normal((5, 1)), requires_grad=True)
    # the weights fold into the constant: a second recorded mul would
    # cancel a sign-flipped adjoint in the first
    weighted = ad.Tensor(other * w)
    return lambda t: ad.reduce_sum(ad.mul(weighted, t)), x


def _gen_scale(rng):
    c = float(rng.standard_normal())
    w = rng.standard_normal(6)
    x = ad.Tensor(rng.standard_normal(6), requires_grad=True)
    return lambda t: _scalarized(ad.scale(t, c), w), x


def _gen_reshape(rng):
    w = rng.standard_normal((2, 6))
    x = ad.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    return lambda t: _scalarized(ad.reshape(t, (2, 6)), w), x


def _gen_concat(rng):
    other = ad.Tensor(rng.standard_normal((3, 2)))
    w = rng.standard_normal((3, 6))
    x = ad.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    return lambda t: _scalarized(ad.concat([t, other], axis=1), w), x


def _gen_softmax_ce(rng):
    targets = rng.integers(0, 5, 4)
    w = rng.standard_normal(4)
    x = ad.Tensor(rng.standard_normal((4, 5)), requires_grad=True)
    return lambda t: _scalarized(ad.softmax_cross_entropy(t, targets), w), x


def _gen_lerp(rng):
    g_i = ad.Tensor(rng.standard_normal((4, 5)))
    g_j = ad.Tensor(rng.standard_normal((4, 5)))
    w = rng.standard_normal((4, 5))
    lam = ad.Tensor(rng.uniform(0.05, 0.95, 4), requires_grad=True)
    return lambda t: _scalarized(ad.lerp(g_i, g_j, t), w), lam


def _gen_pair_cross_entropy(rng):
    # identical label pairs make the loss exactly coefficient-independent,
    # leaving the difference quotient nothing but rounding noise; distinct
    # pairs keep every partial visible
    logits = ad.Tensor(rng.standard_normal((4, 3)))
    i_cls = rng.integers(0, 3, 4)
    j_cls = (i_cls + 1 + rng.integers(0, 2, 4)) % 3
    lam = ad.Tensor(rng.uniform(0.05, 0.95, 4), requires_grad=True)
    return lambda t: ad.reduce_sum(ad.pair_cross_entropy(logits, i_cls, j_cls, t)), lam


def _param_loss(model, batch, rng):
    """Summed cross entropy as a function of one randomly picked parameter."""
    names = sorted(model.params)
    name = names[int(rng.integers(0, len(names)))]

    def loss_fn(t):
        saved = model.params[name]
        model.params[name] = t
        logits = md.forward(model, batch)
        out = ad.reduce_sum(ad.softmax_cross_entropy(logits, batch.label_ids))
        model.params[name] = saved
        return out

    return loss_fn, ad.Tensor(model.params[name].data.copy(), requires_grad=True)


def _gen_model_embed_mlp(rng):
    model = md.init_embed_mlp(12, 4, 5, 3, rng)
    return _param_loss(model, _random_batch(rng, 4, 6, 12, 3), rng)


def _gen_model_text_cnn(rng):
    # margin 1e-4 vs fd shifts of ~3e-6 keeps relu and argmax gates fixed;
    # init-scale parameters keep the softmax unsaturated, so no parameter's
    # whole gradient cancels down to rounding dust
    for _ in range(200):
        model = md.init_text_cnn(12, 3, (2, 3), 3, 3, rng, dropout=0.0)
        batch = _random_batch(rng, 3, 6, 12, 3)
        grid = model.params["embed"].data[batch.token_ids]
        if _conv_margins_ok(grid, [f.data for f in md.filter_bank(model)], 1e-4):
            return _param_loss(model, batch, rng)
    raise AssertionError("no margin-safe conv instance found")


def _lambda_instance(rng):
    """Random (backbone, layer, batch, lambda) scene for coefficient grads.

    Pairings are resampled until no sample partners with itself: a
    self-pair makes the loss exactly coefficient-independent, which the
    analytic check verifies as a true zero, while finite differences on
    it would only measure rounding noise in the loss evaluations.
    """
    pick = int(rng.integers(0, 4))
    layer = ("sent", "word")[pick % 2]
    batch = _random_batch(rng, 4, 6, 15, 3)
    j_index = mx.pair_batch(len(batch), rng)
    while np.any(j_index == np.arange(len(batch))):
        j_index = mx.pair_batch(len(batch), rng)
    lam = rng.uniform(0.05, 0.95, len(batch))
    if pick < 2:
        return md.init_embed_mlp(15, 4, 6, 3, rng), batch, layer, j_index, lam
    for _ in range(200):
        model = md.init_text_cnn(15, 3, (2, 3), 3, 3, rng, dropout=0.0)
        if layer == "sent":
            return model, batch, layer, j_index, lam
        # the mixed word grid must keep its conv gates fixed under a
        # tiny lambda wiggle
        grid = model.params["embed"].data[batch.token_ids]
        col = lam.reshape(-1, 1, 1)
        mixed = grid * col + grid[j_index] * (1.0 - col)
        if _conv_margins_ok(mixed, [f.data for f in md.filter_bank(model)], 1e-4):
            return model, batch, layer, j_index, lam
    raise AssertionError("no margin-safe conv instance found")


def _lambda_grad_fd_error(rng) -> float:
    model, batch, layer, j_index, lam = _lambda_instance(rng)
    pairs = mx.pair_up(model, batch, layer, j_index)
    return finite_diff_check(
        lambda t: ad.reduce_sum(mx.score(model, pairs, t, t)),
        ad.Tensor(lam, requires_grad=True),
        h=1e-6,
        denominator="scale",
    )


def analytic_grad_lambda(model: md.Model, pairs: mx.MixBatch, lam: np.ndarray) -> np.ndarray:
    """Closed-form coefficient gradient from a suffix-only graph.

    Computed as (ce_i - ce_j) + dL/d(mixed hidden) . (g_i - g_j), with
    the mixed hidden state recomputed in numpy and entering as a fresh
    leaf, which makes this independent of the backward pass it is
    checked against.
    """
    g_i, g_j = pairs.hidden_i.data, pairs.hidden_j.data
    col = np.reshape(lam, (-1,) + (1,) * (g_i.ndim - 1))
    leaf = ad.Tensor(g_i * col + g_j * (1.0 - col), requires_grad=True)
    with ad.Tape() as tape:
        logits = md.forward_from_layer(model, pairs.layer, leaf, dropout_mask=pairs.dropout_mask)
        total = ad.reduce_sum(ad.pair_cross_entropy(logits, pairs.y_i, pairs.y_j, lam))
    (grad,) = ad.backward(tape, total, [leaf])
    ce_i = ad.softmax_cross_entropy(logits, pairs.y_i).data
    ce_j = ad.softmax_cross_entropy(logits, pairs.y_j).data
    axes = tuple(range(1, g_i.ndim))
    return (ce_i - ce_j) + (grad * (g_i - g_j)).sum(axis=axes)


def _lambda_grad_analytic_error(rng) -> float:
    model, batch, layer, j_index, lam = _lambda_instance(rng)
    lam_leaf = ad.Tensor(lam, requires_grad=True)
    with ad.Tape() as tape:
        pairs = mx.pair_up(model, batch, layer, j_index)
        loss = mx.score(model, pairs, lam_leaf, lam_leaf)
        tape_grad = am.grad_lambda(tape, ad.reduce_sum(loss), lam_leaf)
    reference = analytic_grad_lambda(model, pairs, lam)
    return float(np.max(np.abs(tape_grad - reference) / (np.abs(reference) + 1e-8)))


def _fd(generator, denominator="coordinate"):
    """Error function of rng: one finite-difference check on a fresh instance."""
    return lambda rng: finite_diff_check(*generator(rng), denominator=denominator)


# (name, stream key, error function of rng, tolerance); the model rows use
# the "scale" denominator (see finite_diff_check)
_CHECKS = (
    ("matmul", 0, _fd(_gen_matmul), FD_TOL),
    ("embedding_lookup", 1, _fd(_gen_embedding), FD_TOL),
    ("gather_rows", 2, _fd(_gen_gather), FD_TOL),
    ("mean_pool_batch", 3, _fd(_gen_mean_pool_batch), FD_TOL),
    ("conv1d_maxpool_batch", 4, _fd(_gen_conv_batch_filters), FD_TOL),
    ("tanh", 5, _fd(_gen_tanh), FD_TOL),
    ("add", 6, _fd(_gen_add), FD_TOL),
    ("mul", 7, _fd(_gen_mul), FD_TOL),
    ("scale", 8, _fd(_gen_scale), FD_TOL),
    ("reshape", 9, _fd(_gen_reshape), FD_TOL),
    ("concat", 10, _fd(_gen_concat), FD_TOL),
    ("softmax_cross_entropy", 11, _fd(_gen_softmax_ce), FD_TOL),
    ("lerp", 12, _fd(_gen_lerp), FD_TOL),
    ("pair_cross_entropy", 13, _fd(_gen_pair_cross_entropy), FD_TOL),
    ("model_embed_mlp", 14, _fd(_gen_model_embed_mlp, "scale"), FD_TOL),
    ("model_text_cnn", 15, _fd(_gen_model_text_cnn, "scale"), FD_TOL),
    ("conv1d_maxpool_batch_input", 16, _fd(_gen_conv_batch_input), FD_TOL),
    ("embedding_mean", 17, _fd(_gen_embedding_mean), FD_TOL),
    ("grad_lambda_fd", 991, _lambda_grad_fd_error, FD_TOL),
    ("grad_lambda_analytic", 992, _lambda_grad_analytic_error, 1e-6),
)


def _negated(backward_fn):
    """``backward_fn`` with every adjoint it returns sign-flipped."""
    return lambda g: tuple(None if piece is None else -piece for piece in backward_fn(g))


def gradcheck(corrupt: str | None = None, instances: int = 100, seed: int = 0) -> GradcheckReport:
    """Finite-difference sweep over every op plus the coefficient gradient.

    Each row reports the max relative error over ``instances`` random
    cases. ``corrupt`` names a tape op in ``ad.OPS`` whose recorded
    adjoint is sign-flipped through ``ad.Tape.wrap``, to verify that the
    checker fails on wrong gradients; that replaces any wrap already set
    until the sweep returns or raises.
    """
    if instances < 1:
        raise ValueError(f"instances must be >= 1, got {instances}")
    previous = ad.Tape.wrap
    if corrupt is not None:
        if corrupt not in ad.OPS:
            raise ValueError(f"cannot corrupt unknown op {corrupt!r}")
        ad.Tape.wrap = lambda op, fn: _negated(fn) if op == corrupt else fn
    try:
        rows = []
        for name, key, error, tol in _CHECKS:
            rng = np.random.default_rng(np.random.SeedSequence([seed, key]))
            # np.max, unlike max, keeps a NaN error, which then fails the row
            worst = float(np.max([error(rng) for _ in range(instances)]))
            rows.append((name, worst, tol))
        return GradcheckReport(rows)
    finally:
        ad.Tape.wrap = previous
