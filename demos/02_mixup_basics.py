"""Pair a batch, draw mixing coefficients, and score the blend.

Shows the three moving parts of random interpolation: the coefficient
distribution (symmetric beta), the partner permutation, and the mixed
loss that weights both endpoints' labels. A plainly trained model
scores near-endpoint blends well and even blends poorly — the gap the
mixing objective exists to close.
"""

import dataclasses
from pathlib import Path

import numpy as np

from admix import data as dt
from admix import harness as hz
from admix import mixup as mx

CONFIG_FILE = Path(__file__).resolve().parents[1] / "configs" / "acceptance.cfg"
CONFIG = dataclasses.replace(hz.load_config(CONFIG_FILE), policy="none")


def cross_class_batch(train_split, vocab, max_len):
    """First example of every class, plus two repeats to fill the batch."""
    labels = [example[1] for example in train_split.examples]
    picks = [labels.index(c) for c in range(train_split.num_classes)]
    picks += [labels.index(0) + 1, labels.index(1) + 1]
    examples = [train_split.examples[i] for i in picks]
    return dt.encode_batch(examples, vocab, max_len, train_split.num_classes)


def main() -> None:
    for alpha in (0.2, 1.0, 2.0):
        draws = mx.sample_lambda(alpha, 20_000, np.random.default_rng(7))
        print(
            f"alpha={alpha}: mean {draws.mean():.3f}, var {draws.var():.3f}, "
            f"share beyond 0.9 or 0.1: {np.mean((draws > 0.9) | (draws < 0.1)):.2f}"
        )

    model, report = hz.train(CONFIG, seed=0)
    train_split, _, _, vocab = hz.prepare_task(CONFIG, seed=0)
    batch = cross_class_batch(train_split, vocab, CONFIG.max_len)
    print(f"\nplainly trained model, test error {report.test_error:.3f}")

    rng = np.random.default_rng(0)
    partners = mx.pair_batch(len(batch), rng)
    print("partner permutation:", partners)

    # The same pairing, swept from the identity toward an even blend.
    pairs = mx.pair_up(model, batch, "sent", partners)
    for lam_value in (1.0, 0.95, 0.75, 0.5):
        lam = np.full(len(batch), lam_value)
        loss = mx.score(model, pairs, lam, lam)
        print(
            f"lam={lam_value:.2f}: mean mixed loss {loss.data.mean():.4f} "
            f"(labels weighted {lam_value:.2f}/{1 - lam_value:.2f})"
        )


if __name__ == "__main__":
    main()
