"""Adam, config, training loop, multi-seed experiments, ablations, sweeps.

Randomness is organized as named substreams of one master seed (init,
data, shuffle, mix, dropout), so switching the mixing policy never
perturbs the data order or the parameter init. A fixed ``data_seed``
independent of the run seed freezes the synthetic corpus itself across
seeds; per-seed streams then control subsampling and the dev split.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import amp as am
from . import autodiff as ad
from . import data as dt
from . import mixup as mx
from . import models as md
from .errors import DivergenceError, read_lines

_STREAMS = {"init": 0, "data": 1, "shuffle": 2, "mix": 3, "dropout": 4}


def _check_seed(seed: int, key: str) -> None:
    """Reject a negative seed by its config key; ``SeedSequence`` needs >= 0."""
    if seed < 0:
        raise ValueError(f"{key} must be nonnegative, got {seed}")


def _stream(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), _STREAMS[name]]))


# ---------------------------------------------------------------------------
# optimizer


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class OptimState:
    """Adam step count, moments and scratch.

    ``m`` and ``v`` are each one flat vector over every parameter, laid
    out in the iteration order of the ``params`` dict. The first
    ``adam_update`` allocates them together with ``work_a`` and
    ``work_b``, two scratch vectors of the same size that every step
    overwrites, so a step allocates no full-length temporaries beyond
    the concatenated gradient.
    """

    lr: float = 2e-4
    t: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    work_a: np.ndarray | None = field(default=None, repr=False, compare=False)
    work_b: np.ndarray | None = field(default=None, repr=False, compare=False)


def adam_update(params: dict, grads: dict, state: OptimState) -> None:
    """One in-place Adam step with bias correction.

    A missing gradient counts as zero. The update runs once over the
    concatenated gradients, with the same elementwise expressions in the
    same order as a per-parameter loop, so the result is bitwise equal to
    it; each intermediate goes into the state's scratch vectors. Every
    check runs before any parameter, moment or scratch changes.
    """
    flat = []
    for name, param in params.items():
        grad = grads.get(name)
        if grad is None:
            grad = np.zeros_like(param.data)
        elif grad.shape != param.data.shape:
            raise ValueError(f"gradient shape {grad.shape} differs from {name!r} {param.shape}")
        flat.append(grad.ravel())
    grad = np.concatenate(flat)
    if state.m is not None and state.m.size != grad.size:
        raise ValueError(
            f"optimizer state holds {state.m.size} moments, parameters have {grad.size} entries"
        )
    if not np.all(np.isfinite(grad)):
        bad = next(name for name, g in zip(params, flat) if not np.all(np.isfinite(g)))
        raise DivergenceError(f"non-finite gradient for {bad!r} at step {state.t + 1}")
    if state.m is None:
        state.m, state.v = np.zeros_like(grad), np.zeros_like(grad)
        state.work_a, state.work_b = np.empty_like(grad), np.empty_like(grad)
    state.t += 1
    m, v, a, b = state.m, state.v, state.work_a, state.work_b
    m *= ADAM_BETA1
    m += np.multiply(1.0 - ADAM_BETA1, grad, out=a)
    v *= ADAM_BETA2
    np.multiply(1.0 - ADAM_BETA2, grad, out=a)
    v += np.multiply(a, grad, out=a)
    np.divide(m, 1.0 - ADAM_BETA1**state.t, out=a)  # m_hat
    np.divide(v, 1.0 - ADAM_BETA2**state.t, out=b)  # v_hat
    np.multiply(state.lr, a, out=a)
    np.sqrt(b, out=b)
    b += ADAM_EPS
    step = np.divide(a, b, out=a)  # lr * m_hat / (sqrt(v_hat) + eps)
    offset = 0
    for param in params.values():
        size = param.data.size
        param.data -= step[offset : offset + size].reshape(param.data.shape)
        offset += size


# ---------------------------------------------------------------------------
# configuration


@dataclass
class ExperimentConfig(mx.MixConfig):
    """Every run setting: the inherited mixing settings first, then these."""

    # backbone
    backbone: str = "embed-mlp"
    embed_dim: int = 16
    hidden_dim: int = 32
    filter_widths: tuple = (3, 4, 5)
    feature_maps: int = 16
    dropout: float = 0.0
    embed_path: str = ""
    embed_frozen: bool = False
    # optimization
    batch_size: int = 50
    lr: float = 2e-4
    max_steps: int = 1500
    seeds: tuple = (0, 1, 2, 3, 4, 5, 6, 7, 8, 9)
    # data handling
    dev_fraction: float = 0.1
    max_len: int = 24
    min_freq: int = 1
    subsample_ratio: float = 1.0
    train_path: str = ""  # with test_path: a file corpus instead of the synthetic one
    test_path: str = ""
    # synthetic task shape
    num_classes: int = 6
    per_class: int = 100
    test_per_class: int = 0  # 0 means same as per_class
    vocab_size: int = 500
    signal_tokens_per_class: int = 5
    noise_len: int = 20
    label_noise: float = 0.1
    data_seed: int = 1234

    def validate(self) -> None:
        super().validate()
        if self.backbone not in ("embed-mlp", "text-cnn"):
            raise ValueError(f"unknown backbone {self.backbone!r}")
        for key in ("embed_dim", "hidden_dim"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1, got {getattr(self, key)}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps}")
        if not self.seeds:
            raise ValueError("seeds must be nonempty")
        for seed in self.seeds:
            _check_seed(seed, "seeds")
        if len(set(self.seeds)) != len(self.seeds):
            # a repeated seed would count one run twice in every summary
            raise ValueError(f"seeds must be distinct, got {self.seeds}")
        _check_seed(self.data_seed, "data_seed")
        if bool(self.train_path) != bool(self.test_path):
            given = "train_path" if self.train_path else "test_path"
            raise ValueError(f"train_path and test_path must be set together, got only {given}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if not 0.0 <= self.dev_fraction < 1.0:
            raise ValueError(f"dev_fraction must be in [0, 1), got {self.dev_fraction}")
        if not 0.0 < self.subsample_ratio <= 1.0:
            raise ValueError(f"subsample_ratio must be in (0, 1], got {self.subsample_ratio}")
        if self.max_len < 1:
            raise ValueError(f"max_len must be >= 1, got {self.max_len}")
        if self.min_freq < 1:
            raise ValueError(f"min_freq must be >= 1, got {self.min_freq}")
        if not 0.0 < self.lr < math.inf:
            raise ValueError(f"lr must be positive and finite, got {self.lr}")
        if self.test_per_class < 0:
            raise ValueError(
                f"test_per_class must be >= 0 (0 means per_class), got {self.test_per_class}"
            )
        if self.noise_len < 0:
            raise ValueError(f"noise_len must be >= 0, got {self.noise_len}")


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_int_tuple(text: str) -> tuple:
    items = [piece.strip() for piece in text.split(",") if piece.strip()]
    if not items:
        raise ValueError("expected a comma-separated integer list")
    return tuple(int(piece) for piece in items)


# field annotations are strings under postponed evaluation
_PARSERS_BY_TYPE = {
    "str": str, "int": int, "float": float, "bool": _parse_bool, "tuple": _parse_int_tuple
}
_FIELD_PARSERS = {f.name: _PARSERS_BY_TYPE[f.type] for f in dataclasses.fields(ExperimentConfig)}


def load_config(path) -> ExperimentConfig:
    """The config in file ``path``, read in one pass over ``read_lines``:
    flat ``key = value`` lines, blank lines and ``#`` comments skipped. An
    error in a line (its form, an unknown or repeated key, a value that
    does not parse) reads ``{path}: line N: ...``, and the first bad line
    wins; a value out of range fails ``validate``, whose errors name the key."""
    values = {}
    for lineno, line in read_lines(path):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        where = f"{path}: line {lineno}"
        if "=" not in line:
            raise ValueError(f"{where}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        parser = _FIELD_PARSERS.get(key)
        if parser is None:
            raise ValueError(f"{where}: unknown config key {key!r}")
        if key in values:
            raise ValueError(f"{where}: duplicate key {key!r}")
        try:
            values[key] = parser(raw)
        except ValueError as exc:
            raise ValueError(f"{where}: config key {key!r}: {exc}") from None
    config = ExperimentConfig(**values)
    config.validate()
    return config


# ---------------------------------------------------------------------------
# task assembly


@functools.lru_cache(maxsize=4)
def _synthetic_corpus(data_seed: int, part: int, **shape) -> dt.Dataset:
    """Corpus ``part`` (0 train, 1 test) of ``data_seed``, generated once per
    process: it is a pure function of the seed and the shape fields. The
    cached ``Dataset`` is shared, so callers copy it before handing it on."""
    rng = np.random.default_rng(np.random.SeedSequence([data_seed, part]))
    return dt.generate_synthetic_corpus(rng=rng, **shape)


def prepare_task(config: ExperimentConfig, seed: int):
    """Deterministically build (train, dev, test, vocab) for one run seed.

    The corpus itself depends only on ``data_seed`` and the shape fields
    (or the input files); the per-seed data stream drives subsampling and
    the dev split, so different seeds see different subsets of a fixed
    task. Every call returns datasets with their own example lists.
    """
    data_rng = _stream(seed, "data")
    if not config.train_path:
        shape = dict(
            num_classes=config.num_classes,
            per_class=config.per_class,
            vocab_size=config.vocab_size,
            signal_tokens_per_class=config.signal_tokens_per_class,
            noise_len=config.noise_len,
            label_noise=config.label_noise,
        )
        train_full = _synthetic_corpus(config.data_seed, 0, **shape)
        if config.test_per_class > 0:
            shape["per_class"] = config.test_per_class
        test_ds = _synthetic_corpus(config.data_seed, 1, **shape)
        train_full, test_ds = (ds.replaced(list(ds.examples)) for ds in (train_full, test_ds))
    else:
        train_full = dt.load_corpus(config.train_path)
        test_ds = dt.load_corpus(config.test_path, label_names=train_full.label_names)
    train_sub = dt.subsample_per_class(train_full, config.subsample_ratio, data_rng)
    if config.dev_fraction > 0.0:
        train_split, dev_split = dt.split_dev(train_sub, config.dev_fraction, data_rng)
    else:
        train_split, dev_split = train_sub, train_sub.replaced([])
    vocab = dt.build_vocab(train_split, config.min_freq)
    return train_split, dev_split, test_ds, vocab


def build_model(config: ExperimentConfig, vocab: dt.Vocab, num_classes: int, rng) -> md.Model:
    if config.backbone == "embed-mlp":
        model = md.init_embed_mlp(
            len(vocab), config.embed_dim, config.hidden_dim, num_classes, rng,
            dropout=config.dropout,
        )
    else:
        model = md.init_text_cnn(
            len(vocab), config.embed_dim, config.filter_widths, config.feature_maps,
            num_classes, rng, dropout=config.dropout, max_len=config.max_len,
        )
    if config.embed_path:
        table = md.load_pretrained_embeddings(config.embed_path, vocab, config.embed_dim, rng)
        if table is not None:
            model.params["embed"] = table
    if config.embed_frozen:
        md.freeze_embeddings(model)
    return model


# ---------------------------------------------------------------------------
# training


@dataclass
class TrainReport:
    seed: int
    policy: str
    step_loss: list = field(default_factory=list)  # mean L
    step_mask_rate: list = field(default_factory=list)
    step_grad_lambda: list = field(default_factory=list)  # mean |clipped dL/dlam|
    step_objective: list = field(default_factory=list)  # scalar actually minimized
    dev_errors: list = field(default_factory=list)
    best_dev_error: float = math.inf
    best_step: int = -1
    test_error: float = math.nan
    wall_time: float = 0.0


def policy_step(model, batch, config, mix_rng, dropout_rng):
    """Build one optimization step's forward graph by policy.

    Returns ``(total, bundle)``. ``none`` and ``mixup`` minimize the mean
    per-sample loss and leave lambda unperturbed (``none`` reports it as 1).
    """
    if config.policy in ("amp", mx.MAXOP):
        return am.amp_step(model, batch, config, mix_rng, dropout_rng)
    n = len(batch)
    if config.policy == "none":
        mask = md.make_dropout_mask(model, n, dropout_rng)
        logits = md.forward(model, batch, dropout_mask=mask)
        loss = ad.softmax_cross_entropy(logits, batch.label_ids)
        lam = np.ones(n)
    else:
        _, lam_leaf, loss = mx.rand_op(model, batch, config, mix_rng, dropout_rng)
        lam = lam_leaf.data
    total = ad.scale(ad.reduce_sum(loss), 1.0 / n)
    return total, am.LossBundle.unperturbed(loss.data, lam)


def _slice_batch(enc: md.Batch, idx) -> md.Batch:
    """Rows ``idx`` of every field: a gather for an index array, views for a slice."""
    return md.Batch(enc.token_ids[idx], enc.valid_lens[idx], enc.label_ids[idx])


# rows per forward pass when evaluating or sweeping; bounds their memory
ROW_CHUNK = 512


def _chunks(examples, vocab: dt.Vocab, max_len: int, num_classes: int, index_chunks=None):
    """Yield the examples as encoded batches, each encoded only when it is reached.

    ``index_chunks`` lists the example indices of each batch; by default
    the batches are consecutive runs of ``ROW_CHUNK`` examples.
    """
    if index_chunks is None:
        pieces = (examples[a : a + ROW_CHUNK] for a in range(0, len(examples), ROW_CHUNK))
    else:
        pieces = ([examples[k] for k in rows] for rows in index_chunks)
    for piece in pieces:
        yield dt.encode_batch(piece, vocab, max_len, num_classes)


def _exact_terms(values: list) -> list:
    """A few floats whose exact sum is the exact sum of ``values``.

    Each term is the correctly rounded sum (``math.fsum``) of what the
    terms before it leave over, and the list ends once that is zero, so
    ``math.fsum`` of the terms is the exact total rounded once. A mean
    kept as terms, chunk by chunk, therefore does not depend on the
    chunking or on the order of the rows (Shewchuk 1997; Demmel and
    Nguyen 2013). A non-finite total ends the list as its last term.
    ``values`` is consumed.
    """
    terms = []
    while (total := math.fsum(values)) != 0.0:
        terms.append(total)
        if not math.isfinite(total):
            break
        values.append(-total)
    return terms


def _error_rate(model: md.Model, batches) -> float:
    """Fraction of argmax-logit mismatches over ``batches``, dropout off;
    ties take the lowest class id."""
    wrong = rows = 0
    for batch in batches:
        logits = md.forward(model, batch)
        wrong += int((np.argmax(logits.data, axis=1) != batch.label_ids).sum())
        rows += len(batch)
    return wrong / rows


def train(config: ExperimentConfig, seed: int, step_hook=None):
    """One full training run; returns (model, report).

    The model comes back at the parameters with the best dev error,
    which is checked at every epoch boundary and once more after the
    final step if it lands mid-epoch. ``step_hook(step, bundle)`` runs
    after each optimization step.
    """
    config.validate()
    _check_seed(seed, "seed")
    start = time.perf_counter()
    init_rng = _stream(seed, "init")
    shuffle_rng = _stream(seed, "shuffle")
    mix_rng = _stream(seed, "mix")
    dropout_rng = _stream(seed, "dropout")

    train_split, dev_split, test_ds, vocab = prepare_task(config, seed)
    num_classes = train_split.num_classes
    model = build_model(config, vocab, num_classes, init_rng)

    enc_train = dt.encode_batch(train_split.examples, vocab, config.max_len, num_classes)
    # the dev split is scored at every epoch boundary, so it stays encoded;
    # the test split is scored once, a chunk at a time, so only its labels
    # are checked now, to fail before the first step
    dev_chunks = list(_chunks(dev_split.examples, vocab, config.max_len, num_classes))
    if not dev_chunks:
        warnings.warn("empty dev split; final parameters are used as-is")
    dt.check_labels(test_ds.examples, num_classes)

    report = TrainReport(seed=seed, policy=config.policy)
    optim = OptimState(lr=config.lr)
    best_state = None

    def dev_checkpoint(step: int) -> None:
        nonlocal best_state
        if not dev_chunks:
            return
        err = _error_rate(model, dev_chunks)
        report.dev_errors.append(err)
        if err < report.best_dev_error:
            report.best_dev_error = err
            report.best_step = step
            best_state = model.state()

    n = len(enc_train)
    # the training set gathered once per epoch in its shuffle order; a
    # batch, order[pos : pos + batch_size], is then a slice of views
    epoch = _slice_batch(enc_train, shuffle_rng.permutation(n))
    pos = 0
    params = model.trainable_params()
    for step in range(config.max_steps):
        batch = _slice_batch(epoch, slice(pos, pos + config.batch_size))
        pos += config.batch_size

        with ad.Tape() as tape:
            total, bundle = policy_step(model, batch, config, mix_rng, dropout_rng)
            grads = dict(zip(params, ad.backward(tape, total, params.values())))
        # the tape holds every intermediate of the step, the conv's im2col
        # columns among them; free it before the update and the dev check
        del tape
        if not np.isfinite(total.data):
            raise DivergenceError(f"non-finite loss at step {step}")
        adam_update(params, grads, optim)

        # x.sum() / x.size is bitwise x.mean(), without its dispatch
        rows = bundle.loss.size
        report.step_loss.append(float(bundle.loss.sum() / rows))
        report.step_mask_rate.append(float(bundle.mask.sum() / rows))
        report.step_grad_lambda.append(float(np.abs(bundle.grad_lambda).sum() / rows))
        report.step_objective.append(float(total.data))
        if step_hook is not None:
            step_hook(step, bundle)

        if pos >= n:
            dev_checkpoint(step)
            epoch = _slice_batch(enc_train, shuffle_rng.permutation(n))
            pos = 0
    if pos != 0:
        dev_checkpoint(config.max_steps - 1)

    if best_state is not None:
        model.load_state(best_state)
    report.test_error = _error_rate(
        model, _chunks(test_ds.examples, vocab, config.max_len, num_classes)
    )
    report.wall_time = time.perf_counter() - start
    return model, report


# ---------------------------------------------------------------------------
# experiment runners


def run_seeds(config: ExperimentConfig, policies=mx.POLICIES):
    """Train every (policy, seed) pair; results join in seed order."""
    config.validate()
    if len(config.seeds) < 2:
        raise ValueError("need at least 2 seeds for a mean/std summary")
    results: dict = {}
    for policy in policies:
        reports = []
        for seed in config.seeds:
            run_cfg = dataclasses.replace(config, policy=policy)
            try:
                _, report = train(run_cfg, seed)
            except DivergenceError as exc:
                raise DivergenceError(f"policy {policy!r} seed {seed}: {exc}") from exc
            reports.append(report)
        results[policy] = reports
    return results


def rp_percent(base_error: float, new_error: float) -> float:
    """Relative improvement (base - new) / base * 100."""
    if base_error == 0.0:
        return 0.0 if new_error == 0.0 else math.nan
    return (base_error - new_error) / base_error * 100.0


def summarize(results: dict):
    """Rows of (name, mean, std, rp_percent vs the previous row).

    ``results`` maps a name to either TrainReports or raw error rates.
    The first row's rp is None; later rows compare against the row
    directly above, mirroring how stacked method tables report gains.
    """
    rows = []
    previous_mean = None
    for name, entries in results.items():
        errors = np.array(
            [e.test_error if isinstance(e, TrainReport) else float(e) for e in entries]
        )
        if errors.size < 2:
            raise ValueError(f"{name!r} needs at least 2 runs for a std")
        mean = float(errors.mean())
        std = float(errors.std(ddof=1))
        rp = None if previous_mean is None else rp_percent(previous_mean, mean)
        rows.append((name, mean, std, rp))
        previous_mean = mean
    return rows


ABLATION_VARIANTS = {"baseline": "none", "+randop": "mixup", "+maxop": mx.MAXOP, "amp": "amp"}


def ablate(config: ExperimentConfig):
    """Four-variant comparison: no mixing, random mixing, always-perturbed,
    and the full selective step. Returns (summary_rows, results)."""
    by_policy = run_seeds(config, policies=ABLATION_VARIANTS.values())
    results = {variant: by_policy[policy] for variant, policy in ABLATION_VARIANTS.items()}
    return summarize(results), results


# ---------------------------------------------------------------------------
# loss-landscape sweep


def _mirrored_chunks(order: np.ndarray):
    """Split a shuffle into index chunks closed under position k <-> n-1-k.

    Each chunk takes positions ``[a, b)`` from the front and their
    mirrors from the back, at most ``ROW_CHUNK`` rows in all, so reversing
    a chunk pairs every row with its partner; an odd shuffle's middle
    position is its own mirror and appears once.
    """
    n = len(order)
    half = (n + 1) // 2
    step = ROW_CHUNK // 2
    for a in range(0, half, step):
        b = min(a + step, half)
        yield np.concatenate([order[a:b], order[max(n - b, b) : n - a]])


def lambda_sweep(
    model_a: md.Model,
    model_b: md.Model,
    dataset: dt.Dataset,
    vocab: dt.Vocab,
    max_len: int,
    grid_points: int = 101,
    layer: str = "sent",
    pair: tuple | None = None,
    pairing_seed: int = 0,
):
    """Mean interpolation loss of two models over a lambda grid.

    Pairing reverses a frozen shuffle of the dataset, an involution, so
    the mean row at lambda mirrors the row at 1 - lambda. The shuffle is
    scored in chunks of mirrored positions (``_mirrored_chunks``), each
    holding every row's partner; a chunk is encoded only when it is
    scored, and both models score it before the next one. Each mean is
    the exact sum of its row losses rounded once, divided by the row
    count (``_exact_terms``), so it does not depend on the chunking or on
    the shuffle: the lambda = 1 means equal ``plain_mean_loss`` bit for
    bit wherever the per-row losses do. Memory is O(``ROW_CHUNK`` +
    ``grid_points``), whatever the dataset size. Single-pair mode encodes
    only the ordered pair (i, j), scores it as one mirrored chunk of two
    rows and keeps row i's loss. Every label is checked before anything
    is scored. Returns rows of (lambda, mean_loss_a, mean_loss_b).
    """
    if grid_points < 2:
        raise ValueError(f"grid_points must be >= 2, got {grid_points}")
    if len(dataset) == 0:
        raise ValueError("cannot sweep over an empty dataset")
    for tag, model in (("a", model_a), ("b", model_b)):
        if model.params["embed"].shape[0] != len(vocab):
            raise ValueError(
                f"model_{tag} embedding rows {model.params['embed'].shape[0]} "
                f"do not match vocabulary size {len(vocab)}"
            )
    if model_a.num_classes != model_b.num_classes:
        raise ValueError("models disagree on the number of classes")
    num_classes = model_a.num_classes
    n = len(dataset)
    if pair is not None:
        i, j = int(pair[0]), int(pair[1])
        if not (0 <= i < n and 0 <= j < n):
            raise IndexError(f"pair indices {pair} out of range for {n} examples")
        index_chunks, kept = [(i, j)], 1
    else:
        index_chunks = _mirrored_chunks(np.random.default_rng(pairing_seed).permutation(n))
        kept = n
    dt.check_labels(dataset.examples, num_classes)

    grid = np.linspace(0.0, 1.0, grid_points)
    models = (model_a, model_b)
    sums = [[[] for _ in grid] for _ in models]  # exact-sum terms per model and grid point
    for piece in _chunks(dataset.examples, vocab, max_len, num_classes, index_chunks):
        rows = len(piece)
        for model, model_sums in zip(models, sums):
            pairs = mx.pair_up(model, piece, layer, np.arange(rows)[::-1])
            for k, lam in enumerate(grid):
                lam_row = np.full(rows, lam)
                losses = mx.score(model, pairs, lam_row, lam_row).data[:kept]
                model_sums[k] = _exact_terms(model_sums[k] + losses.tolist())
    means_a, means_b = ([math.fsum(terms) / kept for terms in model_sums] for model_sums in sums)
    return [(float(lam), a, b) for lam, a, b in zip(grid, means_a, means_b)]


def plain_mean_loss(model: md.Model, dataset: dt.Dataset, vocab: dt.Vocab, max_len: int) -> float:
    """Mean unmixed cross entropy over a dataset, eval mode.

    The dataset is encoded and scored ``ROW_CHUNK`` rows at a time, and the
    mean is the exact sum of the row losses rounded once, divided by the
    row count (``_exact_terms``), so memory is O(``ROW_CHUNK``) and the mean
    does not depend on the chunking or on the order of the rows.
    """
    if len(dataset) == 0:
        raise ValueError("cannot take the mean loss of an empty dataset")
    terms = []
    for batch in _chunks(dataset.examples, vocab, max_len, model.num_classes):
        losses = ad.softmax_cross_entropy(md.forward(model, batch), batch.label_ids).data
        terms = _exact_terms(terms + losses.tolist())
    return math.fsum(terms) / len(dataset)
