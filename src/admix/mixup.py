"""Beta-distributed interpolation of hidden states and of label losses.

A training step under this policy pairs each example with a partner
from the same minibatch, draws a mixing coefficient lambda from
Beta(alpha, alpha), interpolates hidden states at one of the named
backbone layers, and scores the result against both endpoints' class
ids, their cross entropies weighted by lambda and (1 - lambda).

``pair_up`` takes the batch and the layer and runs the prefix through
``models.forward_to_layer``; ``score`` resumes the suffix from the mix
through ``models.forward_from_layer``. This module never looks inside a
backbone.

At ``word`` each endpoint runs the prefix over its own token ids, both
over the pair's longer valid length. embed-mlp's word layer is the
mean pool, which is linear in each row, so mixing the two pooled rows
is the wordMixup of Guo et al. (2019), the grid blend followed by the
pool, up to rounding, and no [n, max_len, embed_dim] grid is built.
text-cnn's word layer is the grid itself, padding included, so its
grids mix as they are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import models as md

POLICIES = ("none", "mixup", "amp")
# amp's step that always keeps the perturbed branch: the ablation's +MaxOp
# variant, which runs alongside POLICIES but is not one of the compared ones
MAXOP = "maxop"


@dataclass
class MixConfig:
    """The mixing settings every policy shares; ``harness.ExperimentConfig`` extends it."""

    policy: str = "mixup"
    alpha: float = 1.0
    epsilon: float = 0.002
    layer: str = "sent"

    def validate(self) -> None:
        if self.policy not in (*POLICIES, MAXOP):
            raise ValueError(f"policy must be one of {(*POLICIES, MAXOP)}, got {self.policy!r}")
        # chained comparisons are False for NaN, so NaN fails these too
        if not 0.0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if not 0.0 <= self.epsilon < math.inf:
            raise ValueError(f"epsilon must be nonnegative and finite, got {self.epsilon}")
        if self.layer not in md.LAYER_NAMES:
            raise ValueError(f"layer must be one of {md.LAYER_NAMES}, got {self.layer!r}")


@dataclass
class MixBatch:
    """One pairing of hidden states, ready to be scored at any coefficient."""

    layer: str  # the layer the mixed rows resume from
    hidden_i: ad.Tensor
    hidden_j: ad.Tensor  # row s: the partner of hidden_i row s
    y_i: np.ndarray  # [n] class ids of the hidden_i rows
    y_j: np.ndarray  # [n] class ids of the hidden_j rows
    dropout_mask: np.ndarray | None


def _gamma_boosted(shape: float, rng: np.random.Generator) -> float:
    """Marsaglia-Tsang gamma draw; shapes below 1 use the power boost."""
    if shape < 1.0:
        # Gamma(a) = Gamma(a + 1) * U^(1/a)
        return _gamma_core(shape + 1.0, rng) * rng.random() ** (1.0 / shape)
    return _gamma_core(shape, rng)


def _gamma_core(shape: float, rng: np.random.Generator) -> float:
    d = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    while True:
        x = rng.standard_normal()
        v = 1.0 + c * x
        if v <= 0.0:
            continue
        v = v * v * v
        u = rng.random()
        # cheap squeeze first, log test only on the rare rejects
        if u < 1.0 - 0.0331 * x * x * x * x:
            return d * v
        if u > 0.0 and math.log(u) < 0.5 * x * x + d * (1.0 - v + math.log(v)):
            return d * v


def sample_lambda(alpha: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n coefficients from Beta(alpha, alpha) as a gamma ratio."""
    # chained comparisons are False for NaN, so NaN fails this too
    if not 0.0 < alpha < math.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    if n < 1:
        raise ValueError(f"need at least one draw, got n={n}")
    out = np.empty(n)
    for i in range(n):
        g1 = _gamma_boosted(alpha, rng)
        g2 = _gamma_boosted(alpha, rng)
        total = g1 + g2
        # both draws can underflow to 0 for tiny alpha; split the tie
        out[i] = 0.5 if total == 0.0 else g1 / total
    return out


def pair_batch(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform random permutation (Fisher-Yates) assigning each row a partner.

    The swap targets come from one vectorized draw, ``j`` in ``[0, i]`` for
    ``i = n - 1, ..., 1``. It consumes the generator exactly as one scalar
    ``rng.integers(0, i + 1)`` per swap would, so the permutation and the
    generator's state afterwards match that loop.
    """
    if n < 1:
        raise ValueError(f"batch must be nonempty, got n={n}")
    perm = list(range(n))
    js = rng.integers(0, np.arange(n, 1, -1)).tolist()
    for i, j in zip(range(n - 1, 0, -1), js):
        perm[i], perm[j] = perm[j], perm[i]
    return np.array(perm)


def pair_up(
    model: md.Model,
    batch: md.Batch,
    layer: str,
    j_index: np.ndarray,
    dropout_mask: np.ndarray | None = None,
) -> MixBatch:
    """Pair row s of ``batch`` at ``layer`` with row ``j_index[s]``.

    ``j_index`` must be a permutation of ``range(n)``, so each row is the
    partner in exactly one pair. Both endpoints are recorded on the
    active tape, so gradients reach them. At ``sent`` the partner rows
    of ``forward_to_layer``'s tensor are gathered. At ``word`` row s runs
    the prefix from ``token_ids[s]`` and its partner from
    ``token_ids[j_index[s]]``, each over the longer of the pair's two
    valid lengths.
    """
    n = len(batch)
    j_index = np.asarray(j_index)
    integer = np.issubdtype(j_index.dtype, np.integer)
    if not integer or not np.array_equal(np.sort(j_index), np.arange(n)):
        raise ValueError(f"j_index must be a permutation of range({n})")
    y_i, y_j = batch.label_ids, batch.label_ids[j_index]
    if layer == "word":
        ids, lens = batch.token_ids, np.maximum(batch.valid_lens, batch.valid_lens[j_index])
        hidden_i = md.forward_to_layer(model, md.Batch(ids, lens, y_i), layer)
        hidden_j = md.forward_to_layer(model, md.Batch(ids[j_index], lens, y_j), layer)
    else:
        hidden_i = md.forward_to_layer(model, batch, layer)
        hidden_j = ad.gather_rows(hidden_i, j_index)
    return MixBatch(layer, hidden_i, hidden_j, y_i, y_j, dropout_mask)


def score(model: md.Model, pairs: MixBatch, lam_mix, lam_label) -> ad.Tensor:
    """Per-sample loss of ``pairs`` mixed at ``lam_mix``, labels weighted by ``lam_label``.

    Either coefficient may be a leaf tensor or an [n] array. The suffix
    runs under the pairing's saved dropout mask, so two scores of one
    pairing differ only through the coefficients.
    """
    mixed = ad.lerp(pairs.hidden_i, pairs.hidden_j, lam_mix)
    logits = md.forward_from_layer(model, pairs.layer, mixed, dropout_mask=pairs.dropout_mask)
    return ad.pair_cross_entropy(logits, pairs.y_i, pairs.y_j, lam_label)


def rand_op(
    model: md.Model,
    batch: md.Batch,
    config: MixConfig,
    rng: np.random.Generator,
    dropout_rng: np.random.Generator | None = None,
):
    """One random-interpolation pass: pair, draw lambda, mix, score.

    Returns ``(pairs, lam_leaf, per_sample_loss)``. The loss depends on
    the leaf through both the mixed hidden state and the label weights.
    Draw order is fixed (partner permutation, then lambda, then dropout
    mask) so policies sharing a seed see identical randomness. The caller
    checks ``config`` once; ``sample_lambda`` and ``pair_up`` still
    reject a bad alpha or layer.
    """
    n = len(batch)
    j_index = pair_batch(n, rng)
    lam_leaf = ad.Tensor(sample_lambda(config.alpha, n, rng), requires_grad=True)
    dropout_mask = md.make_dropout_mask(model, n, dropout_rng)
    pairs = pair_up(model, batch, config.layer, j_index, dropout_mask)
    return pairs, lam_leaf, score(model, pairs, lam_leaf, lam_leaf)
