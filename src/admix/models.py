"""Small text-classification backbones with a split forward pass.

A cut point is a ``(cut, tensor)`` pair. ``forward_to_layer`` runs the
prefix up to one of the two configurable layers and returns the pair;
``forward_from_layer`` runs the suffix from it, and composing them
reproduces the plain forward pass bitwise. The layers:

- ``word``: the embedded tokens. text-cnn stops at the grid, shape
  [n, max_len, embed_dim], cut ``word``. embed-mlp's suffix opens with
  a mean pool, so it stops after it, at ``POOLED``: the [n, embed_dim]
  mean of each row's word vectors, pooled straight from the embedding
  table (``ad.embedding_mean``) without building the grid
- ``sent``: the final hidden vector feeding the classifier

Each backbone resumes from exactly two cuts: embed-mlp from ``POOLED``
and ``sent``, text-cnn from ``word`` and ``sent``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import read_lines

LAYER_NAMES = ("word", "sent")
# embed-mlp's cut point right after the mean pool; not a configurable layer
POOLED = "pooled"


@dataclass
class Batch:
    """Encoded minibatch: padded token ids, lengths, class ids."""

    token_ids: np.ndarray  # [n, max_len] int64
    valid_lens: np.ndarray  # [n] int64, >= 1
    label_ids: np.ndarray  # [n] int64, in [0, num_classes)

    def __len__(self) -> int:
        return self.token_ids.shape[0]


@dataclass
class Model:
    kind: str  # "embed-mlp" or "text-cnn"
    params: dict[str, ad.Tensor]
    sent_dim: int
    num_classes: int
    dropout: float = 0.0
    filter_widths: tuple[int, ...] = ()

    def trainable_params(self) -> dict[str, ad.Tensor]:
        return {k: p for k, p in self.params.items() if p.requires_grad}

    def state(self) -> dict[str, np.ndarray]:
        return {k: p.data.copy() for k, p in self.params.items()}

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        for k, p in self.params.items():
            p.data = state[k].copy()


def _uniform(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.uniform(-0.1, 0.1, size=shape)


def init_embed_mlp(
    vocab_size: int,
    embed_dim: int,
    hidden_dim: int,
    num_classes: int,
    rng: np.random.Generator,
    dropout: float = 0.0,
) -> Model:
    """Embedding, mean pooling over valid tokens, one tanh layer, classifier.

    Weights draw from uniform(-0.1, 0.1) in a fixed order (embedding,
    first dense, output dense) so a given rng state yields identical
    parameters; biases start at zero.
    """
    if min(vocab_size, embed_dim, hidden_dim) < 1 or num_classes < 2:
        raise ValueError("all dimensions must be positive and num_classes >= 2")
    params = {
        "embed": ad.Tensor(_uniform(rng, (vocab_size, embed_dim)), requires_grad=True),
        "w_hidden": ad.Tensor(_uniform(rng, (embed_dim, hidden_dim)), requires_grad=True),
        "b_hidden": ad.Tensor(np.zeros(hidden_dim), requires_grad=True),
        "w_out": ad.Tensor(_uniform(rng, (hidden_dim, num_classes)), requires_grad=True),
        "b_out": ad.Tensor(np.zeros(num_classes), requires_grad=True),
    }
    return Model(
        kind="embed-mlp",
        params=params,
        sent_dim=hidden_dim,
        num_classes=num_classes,
        dropout=float(dropout),
    )


def init_text_cnn(
    vocab_size: int,
    embed_dim: int,
    filter_widths,
    feature_maps: int,
    num_classes: int,
    rng: np.random.Generator,
    dropout: float = 0.5,
    max_len: int | None = None,
) -> Model:
    """A bank of width-w convolutions with relu and global max pooling.

    Each width has its own ``conv{w}`` filters. The forward runs the whole
    bank as one ``conv1d_maxpool_batch`` node, whose pooled features,
    concatenated in ``filter_widths`` order, are the sent layer
    (len(filter_widths) * feature_maps wide); it feeds a dropout mask and
    a dense classifier. Filters have no bias.
    """
    widths = tuple(int(w) for w in filter_widths)
    if not widths or min(widths) < 1:
        raise ValueError("filter_widths must be positive integers")
    for w in widths:
        # each width names one conv parameter, so a repeat would share it
        if widths.count(w) > 1:
            raise ValueError(f"filter_widths repeats width {w}")
    if max_len is not None and max(widths) > max_len:
        raise ValueError(
            f"filter width {max(widths)} exceeds sequence length {max_len}"
        )
    if feature_maps < 1 or num_classes < 2:
        raise ValueError("feature_maps must be positive and num_classes >= 2")
    sent_dim = len(widths) * feature_maps
    params: dict[str, ad.Tensor] = {
        "embed": ad.Tensor(_uniform(rng, (vocab_size, embed_dim)), requires_grad=True)
    }
    for w in widths:
        params[f"conv{w}"] = ad.Tensor(
            _uniform(rng, (w, embed_dim, feature_maps)), requires_grad=True
        )
    params["w_out"] = ad.Tensor(_uniform(rng, (sent_dim, num_classes)), requires_grad=True)
    params["b_out"] = ad.Tensor(np.zeros(num_classes), requires_grad=True)
    return Model(
        kind="text-cnn",
        params=params,
        sent_dim=sent_dim,
        num_classes=num_classes,
        dropout=float(dropout),
        filter_widths=widths,
    )


def freeze_embeddings(model: Model) -> None:
    model.params["embed"].requires_grad = False


def _check_layer(layer: str) -> None:
    if layer not in LAYER_NAMES:
        raise ValueError(f"unknown layer {layer!r}, expected one of {LAYER_NAMES}")


def forward_to_layer(model: Model, batch: Batch, layer: str) -> tuple[str, ad.Tensor]:
    """Run the network prefix up to ``layer``; returns ``(cut, tensor)``.

    At ``word`` embed-mlp stops at ``POOLED``, each row's word vectors
    pooled straight from the table, and text-cnn at the word grid.
    """
    _check_layer(layer)
    table = model.params["embed"]
    if model.kind == "embed-mlp":
        cut = POOLED, ad.embedding_mean(table, batch.token_ids, batch.valid_lens)
    else:
        cut = "word", ad.embedding_lookup(table, batch.token_ids)
    return cut if layer == "word" else ("sent", _to_sent(model, *cut))


def _to_sent(model: Model, cut: str, tensor: ad.Tensor) -> ad.Tensor:
    """The sent layer from a cut the backbone resumes from: a tanh layer
    over embed-mlp's pooled rows, or text-cnn's filter bank over its word
    grid in one conv node."""
    if cut == "sent":
        return tensor
    if cut == POOLED and model.kind == "embed-mlp":
        pre = ad.add(ad.matmul(tensor, model.params["w_hidden"]), model.params["b_hidden"])
        return ad.tanh(pre)
    if cut == "word" and model.kind == "text-cnn":
        return ad.conv1d_maxpool_batch(tensor, *filter_bank(model))
    raise ValueError(f"{model.kind} cannot resume from cut {cut!r}")


def filter_bank(model: Model) -> list[ad.Tensor]:
    """The ``conv{w}`` filters in ``filter_widths`` order, the order of the
    sent layer's feature blocks."""
    return [model.params[f"conv{w}"] for w in model.filter_widths]


def forward_from_layer(
    model: Model, cut: str, tensor: ad.Tensor, dropout_mask: np.ndarray | None = None
) -> ad.Tensor:
    """Run the network suffix from ``tensor`` at ``cut`` down to logits.

    embed-mlp resumes from ``POOLED`` or ``sent``, text-cnn from ``word``
    or ``sent``. ``dropout_mask`` is a precomputed inverted-dropout mask
    for the sent layer (entries 0 or 1/keep). Passing the same mask to
    two calls makes them share the dropped units; None means evaluation
    mode.
    """
    sent = _to_sent(model, cut, tensor)
    if dropout_mask is not None:
        if dropout_mask.shape != sent.shape:
            raise ValueError(
                f"dropout mask shape {dropout_mask.shape} does not match sent layer {sent.shape}"
            )
        sent = ad.mul(sent, ad.Tensor(dropout_mask))
    return ad.add(ad.matmul(sent, model.params["w_out"]), model.params["b_out"])


def forward(model: Model, batch: Batch, dropout_mask: np.ndarray | None = None) -> ad.Tensor:
    """Full forward pass, logits [n, num_classes]."""
    return forward_from_layer(model, *forward_to_layer(model, batch, "word"), dropout_mask)


def make_dropout_mask(
    model: Model, n: int, rng: np.random.Generator | None
) -> np.ndarray | None:
    """Sample an inverted-dropout mask for the sent layer, or None if off."""
    if model.dropout <= 0.0 or rng is None:
        return None
    keep = 1.0 - model.dropout
    return (rng.random((n, model.sent_dim)) < keep) / keep


def load_pretrained_embeddings(path, vocab, dim: int, rng: np.random.Generator) -> ad.Tensor | None:
    """Build an embedding table from a whitespace-separated vectors file.

    Each line is ``token v1 .. vd``, and every line's width ``d`` must be
    ``dim``, the config's ``embed_dim``. Tokens of ``vocab`` (a
    ``data.Vocab``) take their file vector, every other row keeps a
    uniform(-0.1, 0.1) draw from ``rng``. The file is read in one pass:
    the table is drawn at the first data line, and each line is checked and
    filled as it is read, so only the table is held. A file with no data
    lines warns and returns None so the caller keeps its own init; a
    malformed line or a ``nan``/``inf`` component raises.
    """
    table, filled = None, 0
    for lineno, raw in read_lines(path):
        parts = raw.split()
        if not parts:
            continue
        token, comps = parts[0], parts[1:]
        where = f"{path}: line {lineno}"
        if len(comps) != dim:
            raise ValueError(f"{where}: expected {dim} components (embed_dim), got {len(comps)}")
        if table is None:
            table = _uniform(rng, (len(vocab), dim))
        try:
            vec = np.array([float(c) for c in comps])
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        if not np.isfinite(vec).all():  # a nan logit would score as class 0
            raise ValueError(f"{where}: non-finite component in the vector of {token!r}")
        idx = vocab.token_to_id.get(token)
        if idx is not None:
            table[idx] = vec
            filled += 1
    if table is None:
        warnings.warn(f"no usable vectors in {path}; keeping random init")
        return None
    if filled == 0:
        warnings.warn(f"no tokens from {path} matched the vocabulary")
    return ad.Tensor(table, requires_grad=True)
