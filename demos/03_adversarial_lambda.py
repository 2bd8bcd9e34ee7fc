"""One adversarial step over the mixing coefficient, annotated.

The step runs in three stages: interpolate at a random coefficient,
push the coefficient a small distance up the loss gradient (features
only — label weights stay put), then keep whichever branch is worse
per sample. Every quantity below comes from the returned bundle;
notice the rows where the first-order ascent overshoots and the
original branch is kept.
"""

import dataclasses
from pathlib import Path

import numpy as np

from admix import amp
from admix import autodiff as ad
from admix import data as dt
from admix import harness as hz

CONFIG_FILE = Path(__file__).resolve().parents[1] / "configs" / "acceptance.cfg"
CONFIG = hz.load_config(CONFIG_FILE)


def cross_class_batch(train_split, vocab, max_len):
    labels = [example[1] for example in train_split.examples]
    picks = [labels.index(c) for c in range(train_split.num_classes)]
    picks += [labels.index(0) + 1, labels.index(1) + 1]
    examples = [train_split.examples[i] for i in picks]
    return dt.encode_batch(examples, vocab, max_len, train_split.num_classes)


def main() -> None:
    model, _ = hz.train(dataclasses.replace(CONFIG, policy="none"), seed=0)
    train_split, _, _, vocab = hz.prepare_task(CONFIG, seed=0)
    batch = cross_class_batch(train_split, vocab, CONFIG.max_len)

    with ad.Tape() as tape:
        total, bundle = amp.amp_step(model, batch, CONFIG, np.random.default_rng(3))
        grads = ad.backward(tape, total, model.params.values())

    print(f"coefficient step size eps = {CONFIG.epsilon}, gradient clipped to [-1, 1]\n")
    print(f"{'lam':>6} {'grad':>7} {'lam_prime':>9} {'L':>7} {'L_prime':>8} {'kept':>5}")
    for s in range(len(batch)):
        kept = "L'" if bundle.mask[s] else "L"
        print(
            f"{bundle.lam[s]:6.3f} {bundle.grad_lambda[s]:7.3f} "
            f"{bundle.lambda_prime[s]:9.3f} {bundle.loss[s]:7.4f} "
            f"{bundle.loss_prime[s]:8.4f} {kept:>5}"
        )

    assert np.array_equal(bundle.loss_final, np.maximum(bundle.loss, bundle.loss_prime))
    print(
        f"\nmean selected loss {bundle.loss_final.mean():.4f} "
        f">= mean unperturbed loss {bundle.loss.mean():.4f}"
    )
    nonzero = sum(1 for g in grads if g is not None and np.any(g))
    print(f"parameter tensors with nonzero gradient after backward: {nonzero}/{len(model.params)}")


if __name__ == "__main__":
    main()
