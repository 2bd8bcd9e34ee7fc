"""Training loop, multi-seed experiments, ablations, sweeps, diagnostics.

Randomness is organized as named substreams of one master seed (init,
data, shuffle, mix, dropout), so switching the mixing policy never
perturbs the data order or the parameter init. A fixed ``data_seed``
independent of the run seed freezes the synthetic corpus itself across
seeds; per-seed streams then control subsampling and the dev split.
"""

from __future__ import annotations

import dataclasses
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
from .errors import DivergenceError

_STREAMS = {"init": 0, "data": 1, "shuffle": 2, "mix": 3, "dropout": 4}


def _stream(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), _STREAMS[name]]))


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class OptimState:
    """Adam moments plus step count; moments allocate lazily per parameter."""

    lr: float = 2e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_update(params: dict, grads: dict, state: OptimState) -> None:
    """One in-place Adam step with bias correction."""
    state.t += 1
    for name, param in params.items():
        grad = grads.get(name)
        if grad is None:
            grad = np.zeros_like(param.data)
        if not np.all(np.isfinite(grad)):
            raise DivergenceError(f"non-finite gradient for {name!r} at step {state.t}")
        if grad.shape != param.data.shape:
            raise ValueError(f"gradient shape {grad.shape} differs from {name!r} {param.shape}")
        m = state.m.setdefault(name, np.zeros_like(param.data))
        v = state.v.setdefault(name, np.zeros_like(param.data))
        m *= state.beta1
        m += (1.0 - state.beta1) * grad
        v *= state.beta2
        v += (1.0 - state.beta2) * grad * grad
        m_hat = m / (1.0 - state.beta1**state.t)
        v_hat = v / (1.0 - state.beta2**state.t)
        param.data -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)


# ---------------------------------------------------------------------------
# configuration


@dataclass
class ExperimentConfig:
    # mixing policy
    policy: str = "mixup"
    alpha: float = 1.0
    epsilon: float = 0.002
    layer: str = "sent"
    per_pair_lambda: bool = True
    force_mask_ones: bool = False
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
    dataset: str = "synthetic"
    train_path: str = ""
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

    def mix_config(self) -> mx.MixConfig:
        return mx.MixConfig(
            **{f.name: getattr(self, f.name) for f in dataclasses.fields(mx.MixConfig)}
        )

    def validate(self) -> None:
        self.mix_config().validate()
        if self.backbone not in ("embed-mlp", "text-cnn"):
            raise ValueError(f"unknown backbone {self.backbone!r}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps}")
        if not self.seeds:
            raise ValueError("seeds must be nonempty")
        if self.dataset not in ("synthetic", "file"):
            raise ValueError(f"dataset must be 'synthetic' or 'file', got {self.dataset!r}")
        if self.dataset == "file" and not (self.train_path and self.test_path):
            raise ValueError("file dataset needs train_path and test_path")
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
        if self.lr <= 0.0:
            raise ValueError(f"lr must be positive, got {self.lr}")


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


def config_from_items(items: dict) -> ExperimentConfig:
    """Build a config from string key/value pairs; unknown keys are errors."""
    kwargs = {}
    for key, raw in items.items():
        parser = _FIELD_PARSERS.get(key)
        if parser is None:
            raise ValueError(f"unknown config key {key!r}")
        try:
            kwargs[key] = parser(raw)
        except ValueError as exc:
            raise ValueError(f"config key {key!r}: {exc}") from None
    config = ExperimentConfig(**kwargs)
    config.validate()
    return config


def parse_config_text(text: str) -> dict:
    """Flat ``key = value`` lines; blank lines and ``#`` comments skipped."""
    items: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in items:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        items[key] = value.strip()
    return items


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_items(parse_config_text(fh.read()))


# ---------------------------------------------------------------------------
# task assembly


def prepare_task(config: ExperimentConfig, seed: int):
    """Deterministically build (train, dev, test, vocab) for one run seed.

    The corpus itself depends only on ``data_seed`` (or the input
    files); the per-seed data stream drives subsampling and the dev
    split, so different seeds see different subsets of a fixed task.
    """
    data_rng = _stream(seed, "data")
    if config.dataset == "synthetic":
        shape = dict(
            num_classes=config.num_classes,
            per_class=config.per_class,
            vocab_size=config.vocab_size,
            signal_tokens_per_class=config.signal_tokens_per_class,
            noise_len=config.noise_len,
            label_noise=config.label_noise,
        )
        train_full = dt.generate_synthetic_corpus(
            rng=np.random.default_rng(np.random.SeedSequence([config.data_seed, 0])), **shape
        )
        if config.test_per_class > 0:
            shape["per_class"] = config.test_per_class
        test_ds = dt.generate_synthetic_corpus(
            rng=np.random.default_rng(np.random.SeedSequence([config.data_seed, 1])), **shape
        )
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
        table = md.load_pretrained_embeddings(config.embed_path, vocab, rng)
        if table is not None:
            if table.shape != model.params["embed"].shape:
                raise ValueError(
                    f"pretrained table {table.shape} does not match embedding "
                    f"{model.params['embed'].shape}"
                )
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
    step_loss_prime: list = field(default_factory=list)  # mean L'
    step_mask_rate: list = field(default_factory=list)
    step_grad_lambda: list = field(default_factory=list)  # mean |clipped dL/dlam|
    step_objective: list = field(default_factory=list)  # scalar actually minimized
    dev_errors: list = field(default_factory=list)
    best_dev_error: float = math.inf
    best_step: int = -1
    test_error: float = math.nan
    wall_time: float = 0.0


def policy_step(model, batch, mix_cfg, mix_rng, dropout_rng):
    """Build one optimization step's forward graph by policy.

    Returns ``(total, bundle)``. ``none`` and ``mixup`` minimize the mean
    per-sample loss and leave lambda unperturbed (``none`` reports it as 1).
    """
    if mix_cfg.policy == "amp":
        return am.amp_step(model, batch, mix_cfg, mix_rng, dropout_rng)
    n = len(batch)
    if mix_cfg.policy == "none":
        mask = md.make_dropout_mask(model, n, dropout_rng)
        logits = md.forward(model, batch, dropout_mask=mask)
        loss = ad.softmax_cross_entropy(logits, batch.label_rows)
        lam = np.ones(n)
    else:
        mix_batch, _, loss = mx.rand_op(model, batch, mix_cfg, mix_rng, dropout_rng)
        lam = mix_batch.lam
    total = ad.scale(ad.reduce_sum(loss), 1.0 / n)
    return total, am.LossBundle.unperturbed(loss.data, lam)


def _slice_batch(enc: md.Batch, idx: np.ndarray) -> md.Batch:
    return md.Batch(
        enc.token_ids[idx], enc.valid_lens[idx], enc.label_rows[idx], enc.label_ids[idx]
    )


def _error_rate(model: md.Model, enc: md.Batch, chunk: int = 1024) -> float:
    wrong = 0
    n = len(enc)
    for start in range(0, n, chunk):
        piece = _slice_batch(enc, np.arange(start, min(start + chunk, n)))
        logits = md.forward(model, piece)
        pred = np.argmax(logits.data, axis=1)  # ties take the lowest class id
        wrong += int((pred != piece.label_ids).sum())
    return wrong / n


def evaluate(model: md.Model, dataset: dt.Dataset, vocab: dt.Vocab, max_len: int) -> float:
    """Fraction of argmax-logit mismatches, dropout off."""
    if len(dataset) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    enc = dt.encode_batch(dataset.examples, vocab, max_len, model.num_classes)
    return _error_rate(model, enc)


def train(config: ExperimentConfig, seed: int, step_hook=None):
    """One full training run; returns (model, report).

    The model comes back at the parameters with the best dev error,
    which is checked at every epoch boundary and once more after the
    final step if it lands mid-epoch. ``step_hook(step, bundle)`` runs
    after each optimization step.
    """
    config.validate()
    start = time.perf_counter()
    init_rng = _stream(seed, "init")
    shuffle_rng = _stream(seed, "shuffle")
    mix_rng = _stream(seed, "mix")
    dropout_rng = _stream(seed, "dropout")

    train_split, dev_split, test_ds, vocab = prepare_task(config, seed)
    num_classes = train_split.num_classes
    model = build_model(config, vocab, num_classes, init_rng)
    mix_cfg = config.mix_config()

    enc_train = dt.encode_batch(train_split.examples, vocab, config.max_len, num_classes)
    enc_dev = (
        dt.encode_batch(dev_split.examples, vocab, config.max_len, num_classes)
        if len(dev_split)
        else None
    )
    if enc_dev is None:
        warnings.warn("empty dev split; final parameters are used as-is")
    enc_test = dt.encode_batch(test_ds.examples, vocab, config.max_len, num_classes)

    report = TrainReport(seed=seed, policy=mix_cfg.policy)
    optim = OptimState(lr=config.lr)
    best_state = None

    def dev_checkpoint(step: int) -> None:
        nonlocal best_state
        if enc_dev is None:
            return
        err = _error_rate(model, enc_dev)
        report.dev_errors.append(err)
        if err < report.best_dev_error:
            report.best_dev_error = err
            report.best_step = step
            best_state = model.state()

    n = len(enc_train)
    order = shuffle_rng.permutation(n)
    pos = 0
    for step in range(config.max_steps):
        idx = order[pos : pos + config.batch_size]
        pos += config.batch_size
        batch = _slice_batch(enc_train, idx)

        params = model.trainable_params()
        with ad.Tape() as tape:
            total, bundle = policy_step(model, batch, mix_cfg, mix_rng, dropout_rng)
            grads = dict(zip(params, ad.backward(tape, total, params.values())))
        if not np.isfinite(total.data):
            raise DivergenceError(f"non-finite loss at step {step}")
        adam_update(params, grads, optim)

        report.step_loss.append(float(np.mean(bundle.loss)))
        report.step_loss_prime.append(float(np.mean(bundle.loss_prime)))
        report.step_mask_rate.append(float(np.mean(bundle.mask)))
        report.step_grad_lambda.append(float(np.mean(np.abs(bundle.grad_lambda))))
        report.step_objective.append(float(total.data))
        if step_hook is not None:
            step_hook(step, bundle)

        if pos >= n:
            dev_checkpoint(step)
            order = shuffle_rng.permutation(n)
            pos = 0
    if pos != 0:
        dev_checkpoint(config.max_steps - 1)

    if best_state is not None:
        model.load_state(best_state)
    report.test_error = _error_rate(model, enc_test)
    report.wall_time = time.perf_counter() - start
    return model, report


# ---------------------------------------------------------------------------
# experiment runners


def run_seeds(config: ExperimentConfig, policies=("none", "mixup", "amp")):
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


ABLATION_VARIANTS = (
    ("baseline", "none", False),
    ("+randop", "mixup", False),
    ("+maxop", "amp", True),
    ("amp", "amp", False),
)


def ablate(config: ExperimentConfig):
    """Four-variant comparison: no mixing, random mixing, always-perturbed,
    and the full selective step. Returns (summary_rows, results)."""
    results: dict = {}
    for variant, policy, force_ones in ABLATION_VARIANTS:
        run_cfg = dataclasses.replace(config, policy=policy, force_mask_ones=force_ones)
        per_seed = run_seeds(run_cfg, policies=(policy,))[policy]
        results[variant] = per_seed
    return summarize(results), results


# ---------------------------------------------------------------------------
# loss-landscape sweep


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
    the mean row at lambda mirrors the row at 1 - lambda. Single-pair
    mode sweeps one ordered example pair instead. Returns rows of
    (lambda, mean_loss_a, mean_loss_b).
    """
    if grid_points < 2:
        raise ValueError(f"grid_points must be >= 2, got {grid_points}")
    for tag, model in (("a", model_a), ("b", model_b)):
        if model.params["embed"].shape[0] != len(vocab):
            raise ValueError(
                f"model_{tag} embedding rows {model.params['embed'].shape[0]} "
                f"do not match vocabulary size {len(vocab)}"
            )
    if model_a.num_classes != model_b.num_classes:
        raise ValueError("models disagree on the number of classes")
    enc = dt.encode_batch(dataset.examples, vocab, max_len, model_a.num_classes)
    n = len(enc)
    if pair is not None:
        i, j = int(pair[0]), int(pair[1])
        if not (0 <= i < n and 0 <= j < n):
            raise IndexError(f"pair indices {pair} out of range for {n} examples")
        keep = np.array([i])
        partner = np.array([j])
    else:
        order = np.random.default_rng(pairing_seed).permutation(n)
        partner = np.empty(n, dtype=np.int64)
        partner[order] = order[::-1]
        keep = np.arange(n)

    grid = np.linspace(0.0, 1.0, grid_points)
    per_model = []
    for model in (model_a, model_b):
        hidden = md.forward_to_layer(model, enc, layer)
        h = hidden.tensor.data
        h_i = h[keep]
        h_j = h[partner]
        vls = None
        if hidden.valid_lens is not None:
            vls = np.maximum(hidden.valid_lens[keep], hidden.valid_lens[partner])
        y_i = enc.label_rows[keep]
        y_j = enc.label_rows[partner]
        means = []
        for lam in grid:
            mixed = h_i * lam + h_j * (1.0 - lam)
            logits = md.forward_from_layer(model, md.Hidden(layer, ad.Tensor(mixed), vls))
            losses = mx.mixup_loss(logits, y_i, y_j, np.full(len(keep), lam))
            means.append(float(np.mean(losses.data)))
        per_model.append(means)
    return [(float(grid[k]), per_model[0][k], per_model[1][k]) for k in range(grid_points)]


def plain_mean_loss(model: md.Model, dataset: dt.Dataset, vocab: dt.Vocab, max_len: int) -> float:
    """Mean unmixed cross entropy over a dataset, eval mode."""
    enc = dt.encode_batch(dataset.examples, vocab, max_len, model.num_classes)
    logits = md.forward(model, enc)
    losses = ad.softmax_cross_entropy(logits, enc.label_rows)
    return float(np.mean(losses.data))


# ---------------------------------------------------------------------------
# gradient checking


@dataclass
class GradcheckReport:
    rows: list  # (name, max_rel_err, tolerance)

    @property
    def passed(self) -> bool:
        return all(err <= tol for _, err, tol in self.rows)

    def failures(self) -> list:
        return [name for name, err, tol in self.rows if err > tol]

    def format(self) -> str:
        lines = []
        for name, err, tol in self.rows:
            verdict = "pass" if err <= tol else "FAIL"
            lines.append(f"{name:<26s} max_rel_err={err:.3e}  tol={tol:.0e}  {verdict}")
        return "\n".join(lines)


def _conv_margins_ok(x, f, margin) -> bool:
    """True when every conv response of ``x`` under filters ``f`` sits at
    least ``margin`` from the relu kink and every channel's max beats its
    runner-up by more than ``margin``, so a small input shift cannot flip
    a gate. An all-clipped channel pools to exactly 0, which is smooth."""
    pre, _, _ = ad._conv_forward(x, f)
    if np.abs(pre).min() < margin:
        return False
    if pre.shape[1] == 1:  # one window: no runner-up to tie with
        return True
    top2 = np.sort(np.maximum(pre, 0.0), axis=1)[:, -2:, :]
    gap = top2[:, 1, :] - top2[:, 0, :]
    return bool(np.all((gap > margin) | (top2[:, 1, :] == 0.0)))


def _conv_safe_instance(rng, n, length, depth, width, channels, margin=1e-3):
    """Inputs whose conv responses sit away from relu kinks and argmax ties."""
    for _ in range(200):
        x = rng.standard_normal((n, length, depth))
        f = rng.standard_normal((width, depth, channels))
        if _conv_margins_ok(x, f, margin):
            return x, f
    raise AssertionError("no margin-safe conv instance found")


def _random_batch(rng, n, max_len, vocab_size, num_classes):
    ids = rng.integers(0, vocab_size, size=(n, max_len))
    vls = rng.integers(1, max_len + 1, size=n)
    labels = rng.integers(0, num_classes, size=n)
    return md.Batch(ids, vls, np.eye(num_classes)[labels], labels)


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


def _gen_conv_batch_filters(rng):
    x_data, f_data = _conv_safe_instance(rng, 2, 7, 2, 3, 3)
    w = rng.standard_normal((2, 3))
    x_const = ad.Tensor(x_data)
    f = ad.Tensor(f_data, requires_grad=True)
    return lambda t: _scalarized(ad.conv1d_maxpool_batch(x_const, t), w), f


def _gen_conv_batch_input(rng):
    x_data, f_data = _conv_safe_instance(rng, 2, 7, 2, 3, 3)
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
    targets = rng.random((4, 5))
    targets /= targets.sum(axis=1, keepdims=True)
    w = rng.standard_normal(4)
    x = ad.Tensor(rng.standard_normal((4, 5)), requires_grad=True)
    return lambda t: _scalarized(ad.softmax_cross_entropy(t, targets), w), x


def _gen_mix_hidden(rng):
    g_i = ad.Tensor(rng.standard_normal((4, 5)))
    g_j = ad.Tensor(rng.standard_normal((4, 5)))
    w = rng.standard_normal((4, 5))
    lam = ad.Tensor(rng.uniform(0.05, 0.95, 4), requires_grad=True)
    return lambda t: _scalarized(mx.mix_hidden(g_i, g_j, t), w), lam


def _gen_mixup_loss(rng):
    # identical label pairs make the loss exactly coefficient-independent,
    # leaving the difference quotient nothing but rounding noise; distinct
    # pairs keep every partial visible
    logits = ad.Tensor(rng.standard_normal((4, 3)))
    i_cls = rng.integers(0, 3, 4)
    j_cls = (i_cls + 1 + rng.integers(0, 2, 4)) % 3
    y_i = np.eye(3)[i_cls]
    y_j = np.eye(3)[j_cls]
    lam = ad.Tensor(rng.uniform(0.05, 0.95, 4), requires_grad=True)
    return lambda t: ad.reduce_sum(mx.mixup_loss(logits, y_i, y_j, t)), lam


def _param_loss(model, batch, rng):
    """Summed cross entropy as a function of one randomly picked parameter."""
    names = sorted(model.params)
    name = names[int(rng.integers(0, len(names)))]

    def loss_fn(t):
        saved = model.params[name]
        model.params[name] = t
        t.requires_grad = True
        logits = md.forward(model, batch)
        out = ad.reduce_sum(ad.softmax_cross_entropy(logits, batch.label_rows))
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
        if all(_conv_margins_ok(grid, model.params[f"conv{w}"].data, 1e-4)
               for w in model.filter_widths):
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
        if all(_conv_margins_ok(mixed, model.params[f"conv{w}"].data, 1e-4)
               for w in model.filter_widths):
            return model, batch, layer, j_index, lam
    raise AssertionError("no margin-safe conv instance found")


def _lambda_grad_fd_error(rng) -> float:
    model, batch, layer, j_index, lam = _lambda_instance(rng)
    hidden = md.forward_to_layer(model, batch, layer)
    h_data = hidden.tensor.data
    vls = None
    if hidden.valid_lens is not None:
        vls = np.maximum(hidden.valid_lens, hidden.valid_lens[j_index])
    y_i = batch.label_rows
    y_j = batch.label_rows[j_index]

    def loss_at(lam_t):
        mixed = mx.mix_hidden(ad.Tensor(h_data), ad.Tensor(h_data[j_index]), lam_t)
        logits = md.forward_from_layer(model, md.Hidden(layer, mixed, vls))
        return ad.reduce_sum(mx.mixup_loss(logits, y_i, y_j, lam_t))

    return ad.finite_diff_check(
        loss_at, ad.Tensor(lam, requires_grad=True), h=1e-6, denominator="scale"
    )


def analytic_grad_lambda(model: md.Model, mix_batch: mx.MixBatch) -> np.ndarray:
    """Closed-form coefficient gradient from a suffix-only graph.

    Computed as (ce_i - ce_j) + dL/d(mixed hidden) . (g_i - g_j), with
    the mixed hidden state entering as a fresh leaf, which makes this
    independent of the backward pass it is checked against.
    """
    leaf = ad.Tensor(mix_batch.mixed_hidden.tensor.data.copy(), requires_grad=True)
    with ad.Tape() as tape:
        logits = md.forward_from_layer(
            model,
            md.Hidden(mix_batch.layer, leaf, mix_batch.mixed_valid_lens),
            dropout_mask=mix_batch.dropout_mask,
        )
        loss = mx.mixup_loss(logits, mix_batch.y_i, mix_batch.y_j, ad.Tensor(mix_batch.lam))
        total = ad.reduce_sum(loss)
    (grad,) = ad.backward(tape, total, [leaf])
    ce_i = ad.softmax_cross_entropy(logits, mix_batch.y_i).data
    ce_j = ad.softmax_cross_entropy(logits, mix_batch.y_j).data
    diff = mix_batch.hidden_i.data - mix_batch.hidden_j.data
    axes = tuple(range(1, diff.ndim))
    return (ce_i - ce_j) + (grad * diff).sum(axis=axes)


def _lambda_grad_analytic_error(rng) -> float:
    model, batch, layer, j_index, lam = _lambda_instance(rng)
    cfg = mx.MixConfig(policy="amp", layer=layer)
    with ad.Tape() as tape:
        mix_batch, _, loss = mx.rand_op(
            model, batch, cfg, rng, lam_override=lam, j_override=j_index
        )
        tape_grad = am.grad_lambda(tape, ad.reduce_sum(loss), mix_batch.lam_leaf)
    reference = analytic_grad_lambda(model, mix_batch)
    return float(np.max(np.abs(tape_grad - reference) / (np.abs(reference) + 1e-8)))


# (name, instance generator, fd step, error denominator); the model-level
# rows compare against the gradient scale because saturated softmax rows
# produce true partials far below the difference-quotient noise floor.
_PRIMITIVE_CHECKS = (
    ("matmul", _gen_matmul, 1e-5, "coordinate"),
    ("embedding_lookup", _gen_embedding, 1e-5, "coordinate"),
    ("gather_rows", _gen_gather, 1e-5, "coordinate"),
    ("mean_pool_batch", _gen_mean_pool_batch, 1e-5, "coordinate"),
    ("conv1d_maxpool_batch", _gen_conv_batch_filters, 1e-5, "coordinate"),
    ("tanh", _gen_tanh, 1e-5, "coordinate"),
    ("add", _gen_add, 1e-5, "coordinate"),
    ("mul", _gen_mul, 1e-5, "coordinate"),
    ("scale", _gen_scale, 1e-5, "coordinate"),
    ("reshape", _gen_reshape, 1e-5, "coordinate"),
    ("concat", _gen_concat, 1e-5, "coordinate"),
    ("softmax_cross_entropy", _gen_softmax_ce, 1e-5, "coordinate"),
    ("mix_hidden", _gen_mix_hidden, 1e-5, "coordinate"),
    ("mixup_loss", _gen_mixup_loss, 1e-5, "coordinate"),
    ("model_embed_mlp", _gen_model_embed_mlp, 1e-5, "scale"),
    ("model_text_cnn", _gen_model_text_cnn, 1e-5, "scale"),
    ("conv1d_maxpool_batch_input", _gen_conv_batch_input, 1e-5, "coordinate"),
)


def _corrupting(original_op):
    """Wrap an op so the node it records returns sign-flipped gradients."""

    def wrapper(*args, **kwargs):
        out = original_op(*args, **kwargs)
        tape = ad.active_tape()
        if tape is not None and tape.nodes and tape.nodes[-1].output is out:
            node = tape.nodes[-1]
            clean = node.backward_fn
            node.backward_fn = lambda g: tuple(
                None if piece is None else -piece for piece in clean(g)
            )
        return out

    return wrapper


def gradcheck(corrupt: str | None = None, instances: int = 100, seed: int = 0) -> GradcheckReport:
    """Finite-difference sweep over every op plus the coefficient gradient.

    Each row reports the max relative error over ``instances`` random
    cases. ``corrupt`` names a tape op in ``ad.OPS`` whose recorded
    gradient is sign-flipped for the duration, a hook for verifying the
    checker actually fails on wrong gradients.
    """
    if instances < 1:
        raise ValueError(f"instances must be >= 1, got {instances}")
    restore = None
    if corrupt is not None:
        if corrupt not in ad.OPS:
            raise ValueError(f"cannot corrupt unknown op {corrupt!r}")
        restore = getattr(ad, corrupt)
        setattr(ad, corrupt, _corrupting(restore))
    try:
        rows = []
        tol_fd = 1e-4
        for index, (name, generator, h, mode) in enumerate(_PRIMITIVE_CHECKS):
            rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
            worst = 0.0
            for _ in range(instances):
                f, x = generator(rng)
                worst = max(worst, ad.finite_diff_check(f, x, h=h, denominator=mode))
            rows.append((name, worst, tol_fd))
        rng = np.random.default_rng(np.random.SeedSequence([seed, 991]))
        worst = 0.0
        for _ in range(instances):
            worst = max(worst, _lambda_grad_fd_error(rng))
        rows.append(("grad_lambda_fd", worst, tol_fd))
        rng = np.random.default_rng(np.random.SeedSequence([seed, 992]))
        worst = 0.0
        for _ in range(instances):
            worst = max(worst, _lambda_grad_analytic_error(rng))
        rows.append(("grad_lambda_analytic", worst, 1e-6))
        return GradcheckReport(rows)
    finally:
        if restore is not None:
            setattr(ad, corrupt, restore)
