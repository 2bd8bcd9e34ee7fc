"""Tape-based reverse-mode differentiation over dense float64 arrays.

A forward pass runs inside a recording ``Tape``. Every differentiable
operation appends one node (inputs, output, backward closure) to the
tape in creation order, which is a valid topological order because an
op can only consume tensors that already exist. ``backward`` first
marks, in one forward sweep, the nodes downstream of the leaves it is
asked for (the activity analysis of Griewank & Walther, *Evaluating
Derivatives*), then walks only those nodes in reverse, so its cost is
linear in the number of recorded ops and no node that cannot reach a
requested leaf runs its backward. It also clears, for the walk only,
the ``requires_grad`` of those nodes' inputs that no leaf reaches, so
no adjoint that a leaf cannot read is formed. It returns the gradients
of those leaves; no gradient is stored on a tensor.

``Tape.wrap``, None by default, is the one hook on a node's adjoint, as
PyTorch's autograd node hooks are: set to ``wrap(op, backward_fn) ->
backward_fn``, it replaces the closure of every node any tape records,
on the tapes training opens too. ``gradcheck --corrupt`` uses it.

This module is only the tape, ``backward`` and the 16 ops named in
``OPS``, and it depends on numpy alone. The finite-difference audit of
those ops is ``admix.gradcheck``.

All values are stored as float64. Mixing-coefficient perturbations used
elsewhere in this package are on the order of 1e-3, which is too close
to single-precision rounding noise to train reliably in float32.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# Names of the ops that record a node on the active tape.
OPS = (
    "matmul",
    "embedding_lookup",
    "gather_rows",
    "mean_pool_batch",
    "embedding_mean",
    "conv1d_maxpool_batch",
    "tanh",
    "add",
    "mul",
    "scale",
    "reshape",
    "concat",
    "reduce_sum",
    "softmax_cross_entropy",
    "lerp",
    "pair_cross_entropy",
)

__all__ = ["Tensor", "Tape", "active_tape", "backward", *OPS]
_FLOAT64 = np.dtype(np.float64)


class Tensor:
    """A float64 array, flagged when gradients should flow into it."""

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        # np.asarray would return a base float64 array as is, so skip the call
        if type(data) is not np.ndarray or data.dtype is not _FLOAT64:
            data = np.asarray(data, dtype=np.float64)
        self.data = data
        self.requires_grad = requires_grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"


class _Node:
    __slots__ = ("op", "inputs", "output", "backward_fn")

    def __init__(self, op, inputs, output, backward_fn):
        self.op = op
        self.inputs = inputs
        self.output = output
        self.backward_fn = backward_fn


_TAPE_STACK: list["Tape"] = []


class Tape:
    """Records ops while active as a context manager.

    Tapes nest; ops record onto the innermost active tape. A tape is
    rebuilt for every forward pass (define-by-run), so control flow in
    the recorded program needs no special handling.
    """

    wrap = None  # the adjoint hook (module docstring); read from the class, so it stays unbound

    def __init__(self):
        self.nodes: list[_Node] = []
        # Number of nodes visited by the most recent backward() call: the
        # nodes downstream of its leaves, each once. Exposed so tests can
        # assert the pruned walk.
        self.last_visit_count = 0

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _TAPE_STACK.pop()
        if popped is not self:
            raise RuntimeError("tape stack corrupted: exited a tape that is not innermost")

    def __len__(self) -> int:
        return len(self.nodes)


def active_tape() -> Tape | None:
    """The innermost recording tape, or None outside any ``with Tape()``."""
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def _record(op, inputs, output, backward_fn) -> None:
    if _TAPE_STACK and output.requires_grad:
        if Tape.wrap is not None:
            backward_fn = Tape.wrap(op, backward_fn)
        _TAPE_STACK[-1].nodes.append(_Node(op, inputs, output, backward_fn))


def _needs_grad(*tensors: Tensor) -> bool:
    for t in tensors:
        if t.requires_grad:
            return True
    return False


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting (``grad`` itself if it fits)."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# primitive ops


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"matmul expects 2-d operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul inner dimensions differ: {a.shape} x {b.shape}")
    out = Tensor(a.data @ b.data, requires_grad=_needs_grad(a, b))

    def backward_fn(g):
        ga = g @ b.data.T if a.requires_grad else None
        gb = a.data.T @ g if b.requires_grad else None
        return ga, gb

    _record("matmul", (a, b), out, backward_fn)
    return out


def _scatter_rows(shape: tuple[int, ...], idx: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Zeros of ``shape`` with each row ``g[i]`` added at row ``idx[i]``.

    ``g`` has shape ``idx.shape + shape[1:]``. One ``np.bincount`` over the
    flattened ``row * width + k`` positions adds the weights in input order
    into zeros, the order ``np.add.at`` uses, so the sums are bitwise equal.
    """
    width = math.prod(shape[1:])
    # intp first: uint64 ids times the int64 offsets would promote to float64
    flat = idx.astype(np.intp, copy=False).reshape(-1, 1) * width + np.arange(width)
    summed = np.bincount(flat.ravel(), weights=g.ravel(), minlength=shape[0] * width)
    # shaped in place, not by a view, so ``backward`` need not copy the result
    summed.shape = shape
    return summed


def _checked_ids(table: Tensor, ids) -> np.ndarray:
    """``ids`` as an integer array of rows of the 2-d ``table``."""
    if table.ndim != 2:
        raise ValueError(f"embedding table must be 2-d, got shape {table.shape}")
    idx = np.asarray(ids)
    if idx.dtype.kind not in "iu":
        raise ValueError("ids must be integers")
    vocab = table.shape[0]
    if idx.size:
        lo = int(idx.min())
        hi = int(idx.max())
        if lo < 0 or hi >= vocab:
            bad = lo if lo < 0 else hi
            raise IndexError(f"id {bad} out of range for vocabulary of size {vocab}")
    return idx


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Gather rows of ``table`` by integer id; ids may have any shape.

    Output shape is ``ids.shape + (embed_dim,)``. The backward pass
    scatter-adds into the table with ``_scatter_rows``, so repeated ids
    accumulate in the order ``np.add.at`` would add them.
    """
    idx = _checked_ids(table, ids)
    out = Tensor(table.data.take(idx, axis=0), requires_grad=table.requires_grad)

    def backward_fn(g):
        return (_scatter_rows(table.shape, idx, g),)

    _record("embedding_lookup", (table,), out, backward_fn)
    return out


def gather_rows(x: Tensor, index) -> Tensor:
    """Select rows along axis 0.

    The backward pass scatter-adds to the source with ``_scatter_rows``,
    in the order ``np.add.at`` would add repeated rows.
    """
    idx = np.asarray(index)
    if idx.ndim != 1 or idx.dtype.kind not in "iu":
        raise ValueError("gather_rows index must be a 1-d integer array")
    n = x.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise IndexError(f"row index out of range for axis of size {n}")
    out = Tensor(x.data[idx], requires_grad=x.requires_grad)

    def backward_fn(g):
        return (_scatter_rows(x.shape, idx, g),)

    _record("gather_rows", (x,), out, backward_fn)
    return out


def _pool_weights(valid_lens, n: int, length: int) -> np.ndarray:
    """The [n, length] mean-pool weights, 1/vl_s for t < vl_s, else 0,
    of ``valid_lens`` checked as [n] integers in [1, length]."""
    vls = np.asarray(valid_lens)
    if vls.dtype.kind not in "iu":
        raise ValueError(f"valid_lens must be integers, got {vls.dtype}")
    if vls.shape != (n,):
        raise ValueError(f"valid_lens must have shape ({n},), got {vls.shape}")
    if vls.size and (vls.min() < 1 or vls.max() > length):
        raise ValueError(f"valid lengths must be in [1, {length}]")
    return (np.arange(length)[None, :] < vls[:, None]) / vls[:, None]


def mean_pool_batch(x: Tensor, valid_lens) -> Tensor:
    """Average the first ``valid_lens[s]`` rows of each sample: [n, len, d] -> [n, d]."""
    if x.ndim != 3:
        raise ValueError(f"mean_pool_batch expects [n, len, d], got shape {x.shape}")
    n, length, _ = x.shape
    weights = _pool_weights(valid_lens, n, length)
    out = Tensor(np.einsum("sl,sld->sd", weights, x.data), requires_grad=x.requires_grad)

    # weights[:, :, None] * g[:, None, :], but einsum adds into zeros: -0.0 comes out +0.0
    def backward_fn(g):
        return (np.einsum("sl,sd->sld", weights, g),)

    _record("mean_pool_batch", (x,), out, backward_fn)
    return out


def embedding_mean(table: Tensor, ids, valid_lens) -> Tensor:
    """Mean of the table rows named by the first ``valid_lens[s]`` ids of
    each row: [n, len] ids -> [n, d], a bag of embeddings.

    The value is ``mean_pool_batch(embedding_lookup(table, ids),
    valid_lens)`` bitwise, from the same ``take`` and einsum, but taken
    ``CONV_BLOCK_ROWS`` rows at a time, so no [n, len, d] grid is built.
    The backward forms the table's adjoint from the batch's distinct ids
    only: an O(tokens) compaction numbers them, one [distinct, n] @ [n, d]
    product weighs each id's share of each row by the incoming gradient,
    and the rows land in a zeroed [vocab, d] array; no [n, vocab] matrix
    is built. Its sums run in another order than the lookup's scatter, so
    the two agree to rounding (bitwise on dyadic data). On a 32-row
    acceptance-task batch (740 valid tokens; uniform ids at the larger
    sizes), 2-core machine, 2 OpenBLAS threads, it took a median
    22 / 40 / 112 us at vocabulary 502 / 5 000 / 20 000, against
    34 / 44 / 106 us for the lookup, pool and scatter walk; zeroing the
    result is most of the cost at 20 000.
    """
    idx = _checked_ids(table, ids)
    if idx.ndim != 2:
        raise ValueError(f"embedding_mean expects [n, len] ids, got shape {idx.shape}")
    n, length = idx.shape
    weights = _pool_weights(valid_lens, n, length)
    out_data = np.empty((n, table.shape[1]))
    for rows in _row_blocks(n):  # each block's rows are freed before the next is taken
        grid = table.data.take(idx[rows], axis=0)
        np.einsum("sl,sld->sd", weights[rows], grid, out=out_data[rows])
        del grid
    out = Tensor(out_data, requires_grad=table.requires_grad)

    def backward_fn(g):
        # one position wins each distinct id's slot; the winners then
        # number the distinct ids in the slots (padding ids too: they
        # carry weight 0)
        tokens = idx.ravel()
        positions = np.arange(tokens.size)
        slot = np.empty(table.shape[0], dtype=np.intp)
        slot[tokens] = positions
        distinct = tokens[slot[tokens] == positions]
        size = distinct.size
        slot[distinct] = np.arange(size)
        # share[s, k]: the weight row s puts on distinct id k
        cells = slot[idx] + np.arange(0, n * size, size)[:, None]
        share = np.bincount(cells.ravel(), weights.ravel(), n * size).reshape(n, size)
        grad = np.zeros(table.shape)
        grad[distinct] = share.T @ g
        return (grad,)

    _record("embedding_mean", (table,), out, backward_fn)
    return out


# Rows per block of the conv's im2col and of embedding_mean's gather. A
# block's columns are [rows, d * w_max, t] and its gathered rows
# [rows, len, d], so neither op's working memory grows with the batch.
CONV_BLOCK_ROWS = 64


def _row_blocks(n: int):
    for start in range(0, n, CONV_BLOCK_ROWS):
        yield slice(start, min(start + CONV_BLOCK_ROWS, n))


def _stack_filters(filters):
    """The filter bank as one [d * w_max, sum(c)] matrix, plus each column's width.

    Filter k fills its own column block, zero past its width, and row
    ``i * w_max + u`` weighs input feature i at window offset u, the row
    order of ``_columns``.
    """
    widths = [f.shape[0] for f in filters]
    channels = [f.shape[2] for f in filters]
    bank = np.zeros((filters[0].shape[1], max(widths), sum(channels)))
    lo = 0
    for f, c in zip(filters, channels):
        bank[:, : f.shape[0], lo : lo + c] = f.transpose(1, 0, 2)
        lo += c
    return bank.reshape(-1, bank.shape[2]), np.repeat(widths, channels)


def _columns(x: np.ndarray, width: int, t_out: int) -> np.ndarray:
    """im2col, feature-major: [n, len, d] -> [n, d * width, t_out].

    Row i * width + u holds feature i at positions u .. u + t_out - 1, zero
    past the end of x, so column t is the window that starts at t.
    """
    n, length, d = x.shape
    padded = np.zeros((n, d, t_out + width - 1))
    padded[:, :, :length] = x.transpose(0, 2, 1)
    # entry (s, i, u, t) of the view is padded[s, i, u + t]
    s_stride, i_stride, step = padded.strides
    windows = np.lib.stride_tricks.as_strided(
        padded, (n, d, width, t_out), (s_stride, i_stride, step, step)
    )
    return windows.reshape(n, d * width, t_out)


def _conv_pre(x: np.ndarray, bank: np.ndarray, widths: np.ndarray, kept=None) -> np.ndarray:
    """Preactivations [n, t, sum(c)] of x under the stacked bank, t = len - min(widths) + 1.

    One small matrix product per row, so no row sees another and BLAS
    spawns no threads. A column is 0 at positions past its filter's last
    full window. When ``kept`` is a list, the im2col columns are appended
    to it for the backward; otherwise they are freed once the product is
    taken.
    """
    length = x.shape[1]
    t_out = length - int(widths.min()) + 1
    cols = _columns(x, int(widths.max()), t_out)
    if kept is not None:
        kept.append(cols)
    pre = cols.transpose(0, 2, 1) @ bank
    del cols
    pre[:, np.arange(t_out)[:, None] > length - widths] = 0.0
    return pre


@functools.lru_cache(maxsize=32)
def _fold(length: int, width: int, t_out: int) -> np.ndarray:
    """The read-only 0/1 [length, t_out * width] matrix that sends window t,
    offset u to position t + u, built once per shape."""
    offsets = np.arange(t_out)[:, None] + np.arange(width)
    fold = (np.arange(length)[:, None] == offsets.reshape(1, -1)).astype(np.float64)
    fold.flags.writeable = False
    return fold


def _conv_backward(g, x, bank, widths, argmax, out, cols, need_x, need_f):
    """Adjoints of x and of the stacked bank, one row block at a time.

    ``cols`` holds each block's im2col columns from the forward, which
    this only reads. The relu-gated gradient goes into a dense
    [rows, t, sum(c)] grid at each column's argmax. The bank's adjoint is
    the block's columns times the grid, summed over rows. The input's is
    the grid times the bank, each window's adjoint, folded back onto x by
    one product with the cached 0/1 matrix that sends window t, offset u
    to t + u (``_fold``).
    """
    length, d = x.shape[1:]
    width = int(widths.max())
    t_out = length - int(widths.min()) + 1
    routed = g * (out > 0.0)
    gx = np.empty_like(x) if need_x else None
    gbank = np.zeros_like(bank) if need_f else None
    # the bank's rows offset-major, to match the fold's (t, u) pairs
    bank_t = bank.reshape(d, width, -1).transpose(2, 1, 0).reshape(-1, width * d)
    fold = _fold(length, width, t_out)
    for rows, block_cols in zip(_row_blocks(x.shape[0]), cols):
        grid = np.zeros((rows.stop - rows.start, t_out, bank.shape[1]))
        np.put_along_axis(grid, argmax[rows, None, :], routed[rows, None, :], axis=1)
        if need_f:
            gbank += (block_cols @ grid).sum(axis=0)
        if need_x:
            gx[rows] = fold @ (grid @ bank_t).reshape(-1, t_out * width, d)
    return gx, gbank


def conv1d_maxpool_batch(x: Tensor, *filters: Tensor) -> Tensor:
    """Convolve with a filter bank, relu, then max over time: [n, len, d] -> [n, sum(c)].

    Each filter has shape [w_k, d, c_k] with w_k <= len, and the op has no
    bias term. The result concatenates the filters' pooled features in
    argument order, as one tape node. Ties in the max take the earliest
    position.

    Rows run in blocks of ``CONV_BLOCK_ROWS``. The forward unfolds each
    block's windows of the widest filter (im2col) and multiplies them by
    the stacked bank, one small product per row; a narrower filter's
    columns are zeroed past its last full window. A recorded node keeps
    every block's columns for its backward (``_conv_backward``), which
    then unfolds nothing: rows x d * w_max x t floats, about 450 KB for a
    32-row batch of the acceptance text-cnn. A tape-free forward frees
    each block's columns as soon as its product is taken. BLAS sums each
    window in its own order, so the result agrees with a per-window loop
    to rounding, not bitwise; but a row's result never depends on the
    other rows.
    """
    if x.ndim != 3:
        raise ValueError(f"conv1d_maxpool_batch expects [n, len, d], got {x.shape}")
    if not filters:
        raise ValueError("conv1d_maxpool_batch needs at least one filter")
    n, length, d = x.shape
    for k, f in enumerate(filters):
        if f.ndim != 3 or f.shape[0] < 1:
            raise ValueError(f"filter {k} must be [w, d, c] with w >= 1, got {f.shape}")
        if f.shape[1] != d:
            raise ValueError(f"filter {k} depth {f.shape[1]} does not match input depth {d}")
        if f.shape[0] > length:
            raise ValueError(f"input length {length} is shorter than filter {k} width {f.shape[0]}")
    bank, widths = _stack_filters([f.data for f in filters])
    requires_grad = _needs_grad(x, *filters)
    # only a recorded node needs the argmax and each block's columns
    argmax = cols = None
    if requires_grad and active_tape() is not None:
        argmax = np.empty((n, bank.shape[1]), dtype=np.intp)
        cols = []
    out_data = np.empty((n, bank.shape[1]))
    for rows in _row_blocks(n):
        pre = _conv_pre(x.data[rows], bank, widths, cols)
        top = pre.max(axis=1)
        out_data[rows] = np.maximum(top, 0.0)
        if argmax is not None:  # the earliest max; where it is <= 0 no gradient flows
            argmax[rows] = np.argmax(pre == top[:, None, :], axis=1)
    out = Tensor(out_data, requires_grad=requires_grad)

    def backward_fn(g):
        gx, gbank = _conv_backward(
            g, x.data, bank, widths, argmax, out_data, cols, x.requires_grad,
            _needs_grad(*filters),
        )
        grads = [gx]
        lo = 0
        for f in filters:
            w, _, c = f.shape
            if f.requires_grad:  # rows i * w_max + u of the bank, back to [w, d, c]
                per_offset = gbank.reshape(d, -1, gbank.shape[1])
                grads.append(per_offset[:, :w, lo : lo + c].swapaxes(0, 1))
            else:
                grads.append(None)
            lo += c
        return tuple(grads)

    _record("conv1d_maxpool_batch", (x, *filters), out, backward_fn)
    return out


def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.data)
    out = Tensor(y, requires_grad=x.requires_grad)

    def backward_fn(g):
        return (g * (1.0 - y * y),)

    _record("tanh", (x,), out, backward_fn)
    return out


def _as_constant(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def add(a: Tensor, b) -> Tensor:
    """Elementwise sum with numpy broadcasting; ``b`` may be a scalar."""
    b = _as_constant(b)
    out = Tensor(a.data + b.data, requires_grad=_needs_grad(a, b))

    def backward_fn(g):
        ga = _unbroadcast(g, a.shape) if a.requires_grad else None
        gb = _unbroadcast(g, b.shape) if b.requires_grad else None
        return ga, gb

    _record("add", (a, b), out, backward_fn)
    return out


def mul(a: Tensor, b) -> Tensor:
    """Elementwise product with numpy broadcasting; ``b`` may be a scalar."""
    b = _as_constant(b)
    out = Tensor(a.data * b.data, requires_grad=_needs_grad(a, b))

    def backward_fn(g):
        ga = _unbroadcast(g * b.data, a.shape) if a.requires_grad else None
        gb = _unbroadcast(g * a.data, b.shape) if b.requires_grad else None
        return ga, gb

    _record("mul", (a, b), out, backward_fn)
    return out


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)
    out = Tensor(x.data * c, requires_grad=x.requires_grad)

    def backward_fn(g):
        return (g * c,)

    _record("scale", (x,), out, backward_fn)
    return out


def reshape(x: Tensor, shape) -> Tensor:
    out = Tensor(x.data.reshape(shape), requires_grad=x.requires_grad)

    def backward_fn(g):
        return (g.reshape(x.shape),)

    _record("reshape", (x,), out, backward_fn)
    return out


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise ValueError("concat needs at least one tensor")
    out = Tensor(
        np.concatenate([t.data for t in tensors], axis=axis),
        requires_grad=_needs_grad(*tensors),
    )
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward_fn(g):
        pieces = np.split(g, splits, axis=axis)
        return tuple(p if t.requires_grad else None for p, t in zip(pieces, tensors))

    _record("concat", tuple(tensors), out, backward_fn)
    return out


def reduce_sum(x: Tensor) -> Tensor:
    """Sum of all entries, as a scalar tensor."""
    out = Tensor(x.data.sum(), requires_grad=x.requires_grad)

    def backward_fn(g):
        return (np.full_like(x.data, float(g)),)

    _record("reduce_sum", (x,), out, backward_fn)
    return out


def _class_entries(logits: Tensor, labels) -> np.ndarray:
    """Flat positions in the [n, C] ``logits`` of each row's class id in ``labels``."""
    y = np.asarray(labels)
    if logits.ndim != 2 or logits.shape[1] < 2:
        raise ValueError(f"logits must be [n, C] with C >= 2, got shape {logits.shape}")
    n, c = logits.shape
    if y.shape != (n,) or y.dtype.kind not in "iu":
        raise ValueError(f"labels must be {n} integer class ids, got {y.dtype} of shape {y.shape}")
    # an id outside [0, C) would read an entry of another row, not fail
    if n and not (y.min() >= 0 and y.max() < c):
        raise ValueError(f"class ids must lie in [0, {c}), got {y.min()}..{y.max()}")
    # intp first: uint64 ids plus the int64 row offsets would promote to float64
    return np.arange(0, n * c, c) + y.astype(np.intp, copy=False)


def _log_softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _cross_entropy_adjoint(softmax: np.ndarray, at: np.ndarray, g: np.ndarray) -> np.ndarray:
    """(softmax - the one-hot rows with a 1 at the flat positions ``at``) * g, row by row."""
    d = softmax.copy()
    d.ravel()[at] -= 1.0
    return d * g[:, None]


def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Per-sample cross entropy of [n, C] ``logits`` against [n] class ids.

    ``labels`` is a plain integer array and is never differentiated. Uses
    max subtraction, so huge logits stay finite.
    """
    at = _class_entries(logits, labels)
    log_probs = _log_softmax(logits.data)
    out = Tensor(-log_probs.take(at), requires_grad=logits.requires_grad)

    def backward_fn(g):
        return (_cross_entropy_adjoint(np.exp(log_probs), at, g),)

    _record("softmax_cross_entropy", (logits,), out, backward_fn)
    return out


# ---------------------------------------------------------------------------
# fused mixing ops
#
# Each evaluates the float64 expressions of the composite of ``mul``,
# ``add``, ``scale`` and ``reshape`` (and two class-id cross entropies) it
# replaces, with 1 - w written as w * -1.0 + 1.0, and returns each
# input's adjoint as the same sum that composite's walk builds, so the
# two agree bitwise. A weight's adjoint is formed only when a requested
# leaf is the weight or upstream of it (``backward`` clears its flag).


def _weights(w, n: int) -> Tensor:
    w = _as_constant(w)
    if w.shape != (n,):
        raise ValueError(f"weights must have shape ({n},), got {w.shape}")
    return w


def lerp(a: Tensor, b: Tensor, w) -> Tensor:
    """w * a + (1 - w) * b, the [n] weights broadcast over the trailing axes.

    ``w`` may be a tensor (a leaf gets dL/dw) or a plain [n] array.
    """
    if a.shape != b.shape:
        raise ValueError(f"lerp shapes differ: {a.shape} vs {b.shape}")
    if a.ndim == 0:
        raise ValueError("lerp needs a leading sample axis, got a scalar")
    n = a.shape[0]
    w = _weights(w, n)
    col = w.data.reshape((n,) + (1,) * (a.ndim - 1))
    one_minus = col * -1.0 + 1.0
    out = Tensor(a.data * col + b.data * one_minus, requires_grad=_needs_grad(a, b, w))

    def backward_fn(g):
        ga = g * col if a.requires_grad else None
        gb = g * one_minus if b.requires_grad else None
        gw = None
        if w.requires_grad:
            gw = _unbroadcast(g * a.data, col.shape) + _unbroadcast(g * b.data, col.shape) * -1.0
            gw = gw.reshape(n)
        return ga, gb, gw

    _record("lerp", (a, b, w), out, backward_fn)
    return out


def pair_cross_entropy(logits: Tensor, y_i, y_j, w) -> Tensor:
    """Per-sample w * ce(logits, y_i) + (1 - w) * ce(logits, y_j), from one log-softmax.

    ``y_i`` and ``y_j`` are [n] class ids as in ``softmax_cross_entropy``;
    ``w`` may be a tensor (a leaf gets dL/dw) or a plain [n] array. Cross
    entropy is linear in the target row, so this equals the cross entropy
    against the w-interpolated one-hot rows of ``y_i`` and ``y_j``.
    """
    at_i, at_j = _class_entries(logits, y_i), _class_entries(logits, y_j)
    w = _weights(w, logits.shape[0])
    log_probs = _log_softmax(logits.data)
    ce_i = -log_probs.take(at_i)
    ce_j = -log_probs.take(at_j)
    one_minus = w.data * -1.0 + 1.0
    out = Tensor(w.data * ce_i + one_minus * ce_j, requires_grad=_needs_grad(logits, w))

    def backward_fn(g):
        gz = gw = None
        if logits.requires_grad:
            softmax = np.exp(log_probs)
            dz_j = _cross_entropy_adjoint(softmax, at_j, g * one_minus)
            gz = dz_j + _cross_entropy_adjoint(softmax, at_i, g * w.data)
        if w.requires_grad:
            gw = g * ce_i + (g * ce_j) * -1.0
        return gz, gw

    _record("pair_cross_entropy", (logits, w), out, backward_fn)
    return out


# ---------------------------------------------------------------------------
# reverse pass


def backward(tape: Tape, root: Tensor, leaves) -> list:
    """Gradients of ``root`` with respect to each of ``leaves``, in order.

    ``root`` must be scalar, and ``leaves`` are tensors that no node on
    ``tape`` produced. Only the nodes downstream of ``leaves`` are
    visited, each exactly once, in reverse creation order, with the
    ``requires_grad`` of their unreached inputs cleared until this returns
    (or raises). No leaf is upstream of a pruned node or a masked input,
    so neither changes a result's bits. Visited nodes whose output
    received no gradient are skipped.
    Every result is an array nothing else holds, or None for a leaf that
    ``root`` does not reach: a result is copied only when it is a view
    (its ``base`` is set) or the same object as an earlier leaf's result,
    since every ``backward_fn`` returns a new array, its incoming gradient
    or a view of either. Nothing is stored on the tensors, so repeated calls
    return equal, independent gradients.
    """
    if root.data.size != 1:
        raise ValueError(f"backward root must be scalar, got shape {root.shape}")
    leaves = list(leaves)
    # forward sweep: a node is active when one of its inputs is a leaf or
    # an active node's output; no other node, and no unreached input, reaches a leaf
    reached = {id(leaf) for leaf in leaves}
    active, masked = [], {}
    for node in tape.nodes:
        for tensor in node.inputs:
            if id(tensor) in reached:
                reached.add(id(node.output))
                active.append(node)
                if len(node.inputs) > 1:  # a lone input is reached
                    for other in node.inputs:
                        if id(other) not in reached and other.requires_grad:
                            masked[id(other)] = other
                break

    def set_masked(flag: bool) -> None:
        for tensor in masked.values():
            tensor.requires_grad = flag

    if masked:
        set_masked(False)
    try:
        pending: dict[int, np.ndarray] = {id(root): np.ones(root.shape)}
        for node in reversed(active):
            out_grad = pending.pop(id(node.output), None)
            if out_grad is None:
                continue
            in_grads = node.backward_fn(out_grad)
            for tensor, grad in zip(node.inputs, in_grads):
                if grad is None or not tensor.requires_grad:
                    continue
                key = id(tensor)
                earlier = pending.get(key)
                pending[key] = grad if earlier is None else earlier + grad
    finally:
        if masked:
            set_masked(True)
    tape.last_visit_count = len(active)
    grads, handed_out = [], set()
    for leaf in leaves:
        grad = pending.get(id(leaf))
        if grad is not None and (grad.base is not None or id(grad) in handed_out):
            grad = grad.copy()
        handed_out.add(id(grad))
        grads.append(grad)
    return grads

