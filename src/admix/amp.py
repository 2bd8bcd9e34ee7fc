"""Adversarial perturbation of the mixing coefficient.

One training step runs three stages on a single tape:

1. random stage: a plain interpolation pass (pairing, lambda draw,
   mixed forward) producing per-sample losses L;
2. ascent stage: backprop of sum(L) over only the tape nodes downstream
   of the lambda leaf, forming no parameter adjoint (``ad.backward``
   masks the rest), yields dL/dlambda, which is clipped to [-1, 1] and
   applied as lambda' = lambda + epsilon * grad, clamped to [0, 1].
   ``mixup.score`` re-mixes the same pairing at lambda' while the label
   weights keep the original lambda, and reruns the suffix under the
   same dropout mask, giving L';
3. selection stage: per sample, the step keeps whichever loss is
   larger, via mask = 1 when L' - L > 0, so the optimized objective is
   mean(max(L, L')). The ``maxop`` policy skips the selection and keeps
   L' for every sample (mask = 1), the ablation's +MaxOp variant.

With epsilon = 0 the perturbed pass recomputes the same values and the
step reduces to the plain interpolation policy, reproducing it bitwise.

``LossBundle`` records the per-sample arrays the stages compute, as they
are; L' - L and the selected loss are derived from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import mixup as mx
from . import models as md
from .errors import DivergenceError


@dataclass
class LossBundle:
    """Per-sample record of one step under any policy. The arrays are the
    step's own, not copies, and readers do not write to them."""

    loss: np.ndarray  # L, before perturbation
    loss_prime: np.ndarray  # L' after perturbation (L itself when unused)
    mask: np.ndarray  # 1.0 where the perturbed branch was kept
    lam: np.ndarray
    grad_lambda: np.ndarray  # clipped dL/dlambda (zeros when unused)
    lambda_prime: np.ndarray

    @property
    def delta(self) -> np.ndarray:
        """L' - L."""
        return self.loss_prime - self.loss

    @property
    def loss_final(self) -> np.ndarray:
        """The selected loss, by ``ad.lerp``'s own expression, so bitwise
        what ``final_loss`` records: max(L, L') under ``compute_mask``."""
        return self.loss_prime * self.mask + self.loss * (self.mask * -1.0 + 1.0)

    @classmethod
    def unperturbed(cls, loss: np.ndarray, lam: np.ndarray) -> "LossBundle":
        """Bundle of a step that leaves lambda alone: L' is ``loss``, lambda' is ``lam``."""
        zeros = np.zeros(loss.shape[0])
        return cls(loss, loss, zeros, lam, zeros, lam)


def grad_lambda(tape: ad.Tape, loss_sum: ad.Tensor, lam_leaf: ad.Tensor) -> np.ndarray:
    """Backprop ``loss_sum`` and return the gradient on the lambda leaf.

    Only the nodes downstream of ``lam_leaf`` run their backward, and
    they form no parameter adjoint: ``ad.backward`` masks those inputs.
    """
    (grad,) = ad.backward(tape, loss_sum, [lam_leaf])
    if grad is None:
        raise ValueError("lambda leaf does not require grad or is not reachable from the loss")
    return grad


def clip_grad(grad: np.ndarray) -> np.ndarray:
    """Clamp the raw coefficient gradient into [-1, 1]; NaN and inf raise."""
    grad = np.asarray(grad, dtype=np.float64)
    if not np.isfinite(grad).all():
        kind = "NaN" if np.isnan(grad).any() else "infinity"
        raise DivergenceError(f"{kind} in the mixing-coefficient gradient")
    return np.clip(grad, -1.0, 1.0)


def perturb_lambda(lam: np.ndarray, grad: np.ndarray, epsilon: float) -> np.ndarray:
    """lambda' = clamp(lambda + epsilon * grad, 0, 1)."""
    # chained comparisons are False for NaN, so NaN fails this too
    if not 0.0 <= epsilon < math.inf:
        raise ValueError(f"epsilon must be nonnegative and finite, got {epsilon}")
    grad = np.asarray(grad)
    if np.abs(grad).max(initial=0.0) > 1.0:
        raise ValueError("gradient must be clipped to [-1, 1] before perturbing")
    return np.clip(lam + epsilon * grad, 0.0, 1.0)


def recompute_loss(
    model: md.Model, pairs: mx.MixBatch, lam_leaf: ad.Tensor, lambda_prime: np.ndarray
) -> ad.Tensor:
    """Re-mix the saved pairing at lambda' and rescore.

    The perturbed coefficient enters as a constant (no gradient flows
    back into the ascent step), the label weights stay at the original
    lambda leaf, and the suffix reuses the saved dropout mask, so the
    two passes differ only through the interpolation point.
    """
    return mx.score(model, pairs, lambda_prime, lam_leaf)


def compute_mask(loss: np.ndarray, loss_prime: np.ndarray) -> np.ndarray:
    """1.0 where the perturbation increased the loss, else 0.0."""
    return (np.asarray(loss_prime) - np.asarray(loss) > 0.0).astype(np.float64)


def final_loss(loss: ad.Tensor, loss_prime: ad.Tensor, mask: np.ndarray) -> ad.Tensor:
    """Per-sample mask * loss' + (1 - mask) * loss, one ``ad.lerp`` node.

    Under ``compute_mask`` this equals max(loss, loss').
    """
    return ad.lerp(loss_prime, loss, mask)


def amp_step(
    model: md.Model,
    batch: md.Batch,
    config: mx.MixConfig,
    rng: np.random.Generator,
    dropout_rng: np.random.Generator | None = None,
):
    """Run the full three-stage step on the ambient tape.

    Returns ``(total, bundle)`` where ``total`` is the scalar
    mean(max(L, L')) ready for a backward pass, and ``bundle`` records
    the per-sample quantities.
    """
    tape = ad.active_tape()
    if tape is None:
        raise RuntimeError("amp_step needs a recording tape")
    pairs, lam_leaf, loss = mx.rand_op(model, batch, config, rng, dropout_rng)
    n = len(batch)

    g_lam = clip_grad(grad_lambda(tape, ad.reduce_sum(loss), lam_leaf))
    lam_prime = perturb_lambda(lam_leaf.data, g_lam, config.epsilon)
    loss_prime = recompute_loss(model, pairs, lam_leaf, lam_prime)

    if config.policy == mx.MAXOP:
        mask = np.ones(n)
    else:
        mask = compute_mask(loss.data, loss_prime.data)
    loss_final = final_loss(loss, loss_prime, mask)
    total = ad.scale(ad.reduce_sum(loss_final), 1.0 / n)

    return total, LossBundle(loss.data, loss_prime.data, mask, lam_leaf.data, g_lam, lam_prime)
