"""Corpus handling: loading, vocabulary, encoding, subsampling, synthesis.

Every operation that touches randomness takes an explicit generator, so
a fixed seed reproduces the exact same splits, subsamples, and
synthetic corpora.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import read_lines
from .models import Batch

PAD_ID = 0
UNK_ID = 1
PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"


@dataclass
class Dataset:
    examples: list  # (text, label_id) pairs
    num_classes: int
    name: str = ""
    label_names: dict = field(default_factory=dict)  # original label -> id

    def __len__(self) -> int:
        return len(self.examples)

    def replaced(self, examples: list) -> "Dataset":
        return Dataset(examples, self.num_classes, self.name, dict(self.label_names))


@dataclass
class Vocab:
    token_to_id: dict  # ids 0, 1, 2, ... in insertion order

    def __len__(self) -> int:
        return len(self.token_to_id)


def tokenize(text: str) -> list:
    """Lowercased whitespace tokens."""
    return text.lower().split()


# A class id is read from at most this many significant digits, far more
# than the class-count bound in ``load_corpus`` lets through. A longer digit
# label reads as ``_TOO_LARGE_ID`` and never reaches ``int``, which refuses
# strings of over 4300 digits.
_ID_DIGITS = 18
_TOO_LARGE_ID = 10**_ID_DIGITS


def _as_class_id(label: str) -> int | None:
    """``label`` as a class id when it is written in ASCII digits only, else None.

    ``int`` alone would also read ``+1``, `` 0``, ``1_000`` and non-ASCII
    digits as ids. Over ``_ID_DIGITS`` significant digits read as ``_TOO_LARGE_ID``.
    """
    if not (label.isascii() and label.isdigit()):
        return None
    digits = label.lstrip("0")
    return int(digits or "0") if len(digits) <= _ID_DIGITS else _TOO_LARGE_ID


def _shown(label: str) -> str:
    """``label`` as an error message prints it, cut after 20 characters."""
    return label if len(label) <= 20 else f"{label[:20]}... ({len(label)} characters)"


def load_corpus(path, label_names: dict | None = None) -> Dataset:
    """Read tab-separated ``label<TAB>text`` lines.

    One map turns labels into class ids. A given ``label_names`` is used as
    is (so a test file keeps its training file's ids); otherwise the map is
    built from this file. When all its labels are written in ASCII digits,
    each is its own id (classes = max id + 1; the map keeps ``01`` as
    written), and the class count they imply may be at most twice the
    number of distinct ids, so one stray large id cannot size the model;
    otherwise labels are names, mapped to ids in first-appearance order.
    Every line then goes through the map. When every label of the map is
    its own id, any other class id below the class count is a class too.
    Malformed lines fail with their line number.
    """
    rows = []
    for lineno, raw in read_lines(path):
        line = raw.rstrip("\n")
        if "\t" not in line:
            raise ValueError(f"{path}: line {lineno}: expected 'label<TAB>text'")
        label, text = line.split("\t", 1)
        if not label:
            raise ValueError(f"{path}: line {lineno}: empty label")
        rows.append((label, text))
    if not rows:
        raise ValueError(f"{path}: corpus is empty")

    if label_names is None:
        ids = [_as_class_id(label) for label, _ in rows]
        if None in ids:
            names = dict.fromkeys(label for label, _ in rows)
            label_names = {label: value for value, label in enumerate(names)}
        else:
            top, distinct = max(ids), len(set(ids))
            if top >= 2 * distinct:
                lineno = ids.index(top) + 1
                implied = top + 1 if top < _TOO_LARGE_ID else f"over {_TOO_LARGE_ID}"
                raise ValueError(
                    f"{path}: line {lineno}: class id {_shown(rows[lineno - 1][0])} implies "
                    f"{implied} classes, more than twice the {distinct} distinct ids in the file"
                )
            written = sorted({(value, label) for (label, _), value in zip(rows, ids)})
            label_names = {label: value for value, label in written}
    num_classes = max(label_names.values()) + 1
    if num_classes < 2:
        raise ValueError(f"{path}: need at least 2 classes, found {num_classes}")
    ids_are_labels = all(_as_class_id(label) == value for label, value in label_names.items())
    examples = []
    for lineno, (label, text) in enumerate(rows, start=1):
        value = label_names.get(label, _as_class_id(label) if ids_are_labels else None)
        if value is None or value >= num_classes:
            raise ValueError(f"{path}: line {lineno}: unknown label {_shown(label)!r}")
        examples.append((text, value))
    return Dataset(examples, num_classes, str(path), dict(label_names))


def build_vocab(dataset: Dataset, min_freq: int = 1) -> Vocab:
    """Count tokens and keep those appearing at least ``min_freq`` times.

    Ids 0 and 1 are reserved for padding and unknowns; kept tokens are
    numbered in first-appearance order, so the mapping is independent
    of hash ordering.
    """
    if min_freq < 1:
        raise ValueError(f"min_freq must be >= 1, got {min_freq}")
    counts: dict = {}
    for text, _ in dataset.examples:
        for token in tokenize(text):
            counts[token] = counts.get(token, 0) + 1
    token_to_id = {PAD_TOKEN: PAD_ID, UNK_TOKEN: UNK_ID}
    for token, count in counts.items():
        if count >= min_freq:
            token_to_id[token] = len(token_to_id)
    return Vocab(token_to_id)


def check_labels(examples, num_classes: int) -> None:
    """Raise on the first (text, label) pair whose label is not a class id."""
    for _, label in examples:
        if not 0 <= label < num_classes:
            raise ValueError(f"label {label} out of range for {num_classes} classes")


def encode_batch(examples, vocab: Vocab, max_len: int, num_classes: int) -> Batch:
    """Encode (text, label) pairs into a padded id matrix plus class ids.

    Sequences truncate at ``max_len``; an example with no tokens encodes
    as a single unknown so valid lengths stay positive.
    """
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    check_labels(examples, num_classes)
    n = len(examples)
    lookup = vocab.token_to_id.get
    lens = []

    def token_ids():
        # one row's list at a time, so the batch's rows are never all held
        for text, _ in examples:
            row = [lookup(t, UNK_ID) for t in tokenize(text)[:max_len]] or [UNK_ID]
            lens.append(len(row))
            yield from row

    flat = np.fromiter(token_ids(), dtype=np.int64)
    valid = np.array(lens, dtype=np.int64)
    ids = np.full((n, max_len), PAD_ID, dtype=np.int64)
    # a boolean mask fills in row-major order, so the rows go in one write
    ids[np.arange(max_len) < valid[:, None]] = flat
    label_ids = np.fromiter((label for _, label in examples), dtype=np.int64, count=n)
    return Batch(ids, valid, label_ids)


def _indices_by_class(dataset: Dataset) -> list:
    buckets = [[] for _ in range(dataset.num_classes)]
    for idx, (_, label) in enumerate(dataset.examples):
        buckets[label].append(idx)
    return buckets


def subsample_per_class(dataset: Dataset, ratio: float, rng: np.random.Generator) -> Dataset:
    """Keep a random ``ratio`` of each class, at least one example per
    nonempty class; original example order is preserved."""
    if not 0.0 < ratio <= 1.0:
        raise ValueError(f"ratio must be in (0, 1], got {ratio}")
    keep: list = []
    for bucket in _indices_by_class(dataset):
        if not bucket:
            continue
        k = max(1, int(np.floor(ratio * len(bucket))))
        chosen = rng.choice(len(bucket), size=k, replace=False)
        keep.extend(bucket[i] for i in chosen)
    keep.sort()
    return dataset.replaced([dataset.examples[i] for i in keep])


def split_dev(dataset: Dataset, fraction: float, rng: np.random.Generator):
    """Class-stratified split into (train, dev).

    Each class contributes ceil(fraction * count) examples to dev but
    always keeps at least one for training; single-example classes stay
    in training with a warning. Order within each side is preserved.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"dev fraction must be in (0, 1), got {fraction}")
    dev_idx: set = set()
    for label, bucket in enumerate(_indices_by_class(dataset)):
        if not bucket:
            continue
        if len(bucket) < 2:
            warnings.warn(f"class {label} has a single example; keeping it in training")
            continue
        k = min(int(np.ceil(fraction * len(bucket))), len(bucket) - 1)
        chosen = rng.choice(len(bucket), size=k, replace=False)
        dev_idx.update(bucket[i] for i in chosen)
    train = [ex for i, ex in enumerate(dataset.examples) if i not in dev_idx]
    dev = [ex for i, ex in enumerate(dataset.examples) if i in dev_idx]
    return dataset.replaced(train), dataset.replaced(dev)


def generate_synthetic_corpus(
    num_classes: int,
    per_class: int,
    vocab_size: int,
    signal_tokens_per_class: int,
    noise_len: int,
    rng: np.random.Generator,
    label_noise: float = 0.1,
) -> Dataset:
    """Build a separable token-classification task.

    Each class owns a disjoint block of signal token types; the rest of
    the token inventory is shared noise. An example mixes 2 to 4 draws
    from its class block with ``noise_len`` noise draws in shuffled
    order. A ``label_noise`` fraction of examples has one signal token
    replaced by a draw from a different class's block, putting a floor
    under the achievable error.
    """
    if num_classes < 2:
        raise ValueError(f"need at least 2 classes, got {num_classes}")
    if per_class < 1 or signal_tokens_per_class < 1:
        raise ValueError("per_class and signal_tokens_per_class must be positive")
    reserved = num_classes * signal_tokens_per_class
    if vocab_size <= reserved:
        raise ValueError(
            f"vocab_size {vocab_size} must exceed {reserved} class-signal tokens"
        )
    if not 0.0 <= label_noise <= 1.0:
        raise ValueError(f"label_noise must be in [0, 1], got {label_noise}")

    names = [f"w{k}" for k in range(vocab_size)]
    examples = []
    for label in range(num_classes):
        block_lo = label * signal_tokens_per_class
        for _ in range(per_class):
            n_signal = int(rng.integers(2, 5))
            signal = rng.integers(block_lo, block_lo + signal_tokens_per_class, n_signal).tolist()
            noise = rng.integers(reserved, vocab_size, noise_len).tolist()
            if label_noise > 0.0 and rng.random() < label_noise:
                pos = int(rng.integers(0, n_signal))
                other = int((label + 1 + rng.integers(0, num_classes - 1)) % num_classes)
                lo = other * signal_tokens_per_class
                signal[pos] = int(rng.integers(lo, lo + signal_tokens_per_class))
            combined = signal + noise
            order = rng.permutation(len(combined)).tolist()
            text = " ".join([names[combined[i]] for i in order])
            examples.append((text, label))
    label_names = {str(c): c for c in range(num_classes)}
    return Dataset(examples, num_classes, "synthetic", label_names)


def dataset_hash(dataset: Dataset) -> str:
    """Stable content hash over label<TAB>text lines."""
    digest = hashlib.sha256()
    for text, label in dataset.examples:
        digest.update(f"{label}\t{text}\n".encode("utf-8"))
    return digest.hexdigest()


def write_manifest(path, dataset: Dataset, seeds, subsample_ratio: float, extra: dict | None = None):
    """Record what a run saw: dataset hash, label map, seeds, subsampling."""
    manifest = {
        "dataset": dataset.name,
        "dataset_hash": dataset_hash(dataset),
        "num_examples": len(dataset),
        "num_classes": dataset.num_classes,
        "label_map": dataset.label_names,
        "seeds": [int(s) for s in seeds],
        "subsample_ratio": float(subsample_ratio),
    }
    if extra:
        manifest.update(extra)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest
