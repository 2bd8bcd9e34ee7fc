"""Training loop, config parsing, experiment runners, sweep, gradcheck."""

import dataclasses
import functools
import gc
import math
import tracemalloc
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import admix.autodiff as ad
import admix.data as dt
import admix.gradcheck as gk
import admix.harness as hz
import admix.mixup as mx
import admix.models as md
from admix.errors import DivergenceError

ROOT = Path(__file__).resolve().parents[1]


def tiny_config(**overrides):
    base = dict(
        policy="mixup",
        max_steps=30,
        batch_size=16,
        per_class=20,
        num_classes=3,
        vocab_size=120,
        noise_len=8,
        max_len=14,
        seeds=(0, 1),
        lr=1e-3,
        epsilon=0.01,
    )
    base.update(overrides)
    return hz.ExperimentConfig(**base)


class TestAdam:
    def test_zero_gradient_leaves_parameters_unchanged(self):
        p = ad.Tensor(np.array([1.0, -2.0]), requires_grad=True)
        state = hz.OptimState(lr=0.1)
        hz.adam_update({"p": p}, {"p": np.zeros(2)}, state)
        assert np.array_equal(p.data, [1.0, -2.0])
        assert state.t == 1

    def test_first_step_with_unit_gradient(self):
        # m_hat = v_hat = 1 after bias correction, so the step is
        # lr * 1 / (1 + eps)
        p = ad.Tensor(np.array([0.0]), requires_grad=True)
        state = hz.OptimState(lr=0.5)
        hz.adam_update({"p": p}, {"p": np.ones(1)}, state)
        assert p.data[0] == pytest.approx(-0.5 / (1.0 + 1e-8), rel=1e-12)

    def test_missing_gradient_treated_as_zero(self):
        p = ad.Tensor(np.array([3.0]), requires_grad=True)
        hz.adam_update({"p": p}, {}, hz.OptimState(lr=0.1))
        assert p.data[0] == 3.0

    def test_nonfinite_gradient_raises(self):
        p = ad.Tensor(np.array([0.0]), requires_grad=True)
        with pytest.raises(DivergenceError, match="p"):
            hz.adam_update({"p": p}, {"p": np.array([np.nan])}, hz.OptimState())

    def test_bad_input_raises_before_anything_changes(self):
        rng = np.random.default_rng(0)
        params = {k: ad.Tensor(rng.standard_normal(3), requires_grad=True) for k in "abc"}
        state = hz.OptimState(lr=0.1)
        hz.adam_update(params, {k: np.ones(3) for k in params}, state)
        other = {**params, "d": ad.Tensor(np.zeros(3), requires_grad=True)}
        before = {k: p.data.copy() for k, p in other.items()}
        held = (state.m, state.v, state.work_a, state.work_b)
        copies = [a.copy() for a in held]
        cases = [
            (DivergenceError, "'c'", params, {"a": np.ones(3), "c": np.array([1.0, np.inf, 0.0])}),
            (ValueError, "'b'", params, {"b": np.ones(4)}),
            # a state built for three parameters never steps a set of two or four
            (ValueError, "holds 9 moments", {k: params[k] for k in "ab"}, {}),
            (ValueError, "holds 9 moments", other, {k: np.ones(3) for k in other}),
        ]
        for error, match, ps, grads in cases:
            with pytest.raises(error, match=match):
                hz.adam_update(ps, grads, state)
            assert state.t == 1
            for array, copy in zip(held, copies):  # moments and scratch alike
                assert array.tobytes() == copy.tobytes()
            for k, p in other.items():
                assert np.array_equal(p.data, before[k])
        # the scratch is neither shown nor compared
        assert "work_a" not in repr(state)
        assert state == hz.OptimState(lr=0.1, t=1, m=state.m, v=state.v)

    @pytest.mark.parametrize("backbone", ["embed-mlp", "text-cnn"])
    def test_flat_update_matches_per_parameter_loop_bitwise(self, backbone):
        def per_parameter(params, grads, st):
            st["t"] += 1
            for name, param in params.items():
                grad = grads.get(name)
                if grad is None:
                    grad = np.zeros_like(param.data)
                m = st["m"].setdefault(name, np.zeros_like(param.data))
                v = st["v"].setdefault(name, np.zeros_like(param.data))
                m *= hz.ADAM_BETA1
                m += (1.0 - hz.ADAM_BETA1) * grad
                v *= hz.ADAM_BETA2
                v += (1.0 - hz.ADAM_BETA2) * grad * grad
                m_hat = m / (1.0 - hz.ADAM_BETA1 ** st["t"])
                v_hat = v / (1.0 - hz.ADAM_BETA2 ** st["t"])
                param.data -= st["lr"] * m_hat / (np.sqrt(v_hat) + hz.ADAM_EPS)

        init = md.init_embed_mlp if backbone == "embed-mlp" else md.init_text_cnn
        args = (32,) if backbone == "embed-mlp" else ((3, 4, 5), 16)
        model = init(502, 16, *args, 6, np.random.default_rng(1))
        params = model.trainable_params()
        ref = {k: ad.Tensor(p.data.copy(), requires_grad=True) for k, p in params.items()}
        state, ref_state = hz.OptimState(lr=1e-2), {"t": 0, "m": {}, "v": {}, "lr": 1e-2}
        rng = np.random.default_rng(2)
        for _ in range(120):
            # some gradients missing, magnitudes spread over 1e-6..1e2
            grads = {
                k: rng.standard_normal(p.shape) * 10.0 ** rng.integers(-6, 3)
                for k, p in params.items()
                if rng.random() > 0.2
            }
            hz.adam_update(params, grads, state)
            per_parameter(ref, grads, ref_state)
        for k, p in params.items():
            assert p.data.tobytes() == ref[k].data.tobytes(), k

    def test_bias_correction_across_steps(self):
        # two steps of constant gradient 1: both moments stay exactly 1
        # after correction, so each step subtracts lr/(1 + eps)
        p = ad.Tensor(np.array([0.0]), requires_grad=True)
        state = hz.OptimState(lr=0.2)
        hz.adam_update({"p": p}, {"p": np.ones(1)}, state)
        hz.adam_update({"p": p}, {"p": np.ones(1)}, state)
        assert p.data[0] == pytest.approx(-2 * 0.2 / (1.0 + 1e-8), rel=1e-10)


class TestConfig:
    def test_round_trip_through_text(self):
        text = """
        # experiment shape
        policy = maxop
        alpha = 0.5
        epsilon = 0.004
        seeds = 0, 1, 2
        filter_widths = 3,4
        max_steps = 10
        """
        cfg = hz.config_from_items(hz.parse_config_text(text))
        assert cfg.policy == "maxop"
        assert cfg.alpha == 0.5
        assert cfg.epsilon == 0.004
        assert cfg.seeds == (0, 1, 2)
        assert cfg.filter_widths == (3, 4)

    def test_unknown_key_rejected(self):
        # the retired ablation switch must fail, not be silently ignored
        for key in ("leraning_rate", "force_mask_ones"):
            with pytest.raises(ValueError, match=f"unknown config key '{key}'"):
                hz.config_from_items({key: "true"})

    def test_bad_value_names_the_key(self):
        with pytest.raises(ValueError, match="max_steps"):
            hz.config_from_items({"max_steps": "fifty"})

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValueError, match="duplicate key"):
            hz.parse_config_text("lr = 0.1\nlr = 0.2")

    def test_line_without_equals_rejected(self):
        with pytest.raises(ValueError, match="line 2"):
            hz.parse_config_text("lr = 0.1\nbogus line")

    def test_validation_catches_bad_fields(self):
        for field, value in [
            ("policy", "blend"),
            ("backbone", "transformer"),
            ("batch_size", 0),
            ("dropout", 1.0),
            ("subsample_ratio", 0.0),
            ("lr", -1.0),
        ]:
            cfg = tiny_config()
            setattr(cfg, field, value)
            with pytest.raises(ValueError):
                cfg.validate()

    @pytest.mark.parametrize(
        "key, raw, message",
        [
            ("alpha", "nan", "alpha must be positive and finite, got nan"),
            ("alpha", "inf", "alpha must be positive and finite, got inf"),
            ("epsilon", "nan", "epsilon must be nonnegative and finite, got nan"),
            ("epsilon", "inf", "epsilon must be nonnegative and finite, got inf"),
            ("lr", "nan", "lr must be positive and finite, got nan"),
            ("lr", "inf", "lr must be positive and finite, got inf"),
            ("seeds", "0,-1", "seeds must be nonnegative, got -1"),
            ("seeds", "0,0", "seeds must be distinct, got (0, 0)"),
            ("data_seed", "-1", "data_seed must be nonnegative, got -1"),
            ("test_per_class", "-5", "test_per_class must be >= 0"),
            ("noise_len", "-3", "noise_len must be >= 0, got -3"),
            ("embed_dim", "0", "embed_dim must be >= 1, got 0"),
            ("embed_dim", "-2", "embed_dim must be >= 1, got -2"),
            ("hidden_dim", "0", "hidden_dim must be >= 1, got 0"),
        ],
    )
    def test_nonfinite_and_out_of_range_values_rejected(self, key, raw, message):
        # each of these used to pass validation and fail later, inside
        # training or numpy, with a message that named no key
        with pytest.raises(ValueError) as info:
            hz.config_from_items({key: raw})
        assert message in str(info.value)

    def test_negative_run_seed_rejected_before_any_work(self, monkeypatch):
        def no_task(*args, **kwargs):
            raise AssertionError("built the task before checking the seed")

        monkeypatch.setattr(hz, "prepare_task", no_task)
        with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
            hz.train(tiny_config(), -1)

    def test_min_freq_below_one_rejected(self):
        with pytest.raises(ValueError, match="min_freq"):
            hz.config_from_items({"min_freq": "0"})

    def test_file_dataset_requires_paths(self):
        # one path alone used to validate and then train on the synthetic corpus
        for key in ("train_path", "test_path"):
            with pytest.raises(ValueError) as info:
                hz.config_from_items({key: "/nonexistent.tsv"})
            message = str(info.value)
            assert "train_path" in message and "test_path" in message

    def test_load_config_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("policy = none\nmax_steps = 5\n")
        cfg = hz.load_config(path)
        assert cfg.policy == "none"
        assert cfg.max_steps == 5


class TestPrepareTask:
    def test_same_seed_same_task(self):
        cfg = tiny_config()
        t1 = hz.prepare_task(cfg, seed=0)
        t2 = hz.prepare_task(cfg, seed=0)
        assert t1[0].examples == t2[0].examples
        assert t1[1].examples == t2[1].examples
        assert t1[3].token_to_id == t2[3].token_to_id

    def test_corpus_fixed_across_seeds(self):
        # the underlying task is pinned by data_seed; run seeds only
        # re-deal the subsample and the dev split
        cfg = tiny_config()
        a = hz.prepare_task(cfg, seed=0)
        b = hz.prepare_task(cfg, seed=1)
        union_a = sorted(a[0].examples + a[1].examples)
        union_b = sorted(b[0].examples + b[1].examples)
        assert union_a == union_b
        assert a[0].examples != b[0].examples

    def test_subsample_shrinks_train_only(self):
        cfg = tiny_config()
        full_train, full_dev, full_test, _ = hz.prepare_task(cfg, seed=0)
        sub_train, sub_dev, sub_test, _ = hz.prepare_task(
            dataclasses.replace(cfg, subsample_ratio=0.25), seed=0
        )
        assert len(sub_train) + len(sub_dev) == round(0.25 * (len(full_train) + len(full_dev)))
        assert len(sub_test) == len(full_test)

    def test_file_dataset_shares_label_map(self, tmp_path):
        train = tmp_path / "train.tsv"
        test = tmp_path / "test.tsv"
        train.write_text("pos\tgood fine\nneg\tbad awful\npos\tnice\nneg\tpoor\n")
        test.write_text("neg\tawful\npos\tfine\n")
        cfg = tiny_config(train_path=str(train), test_path=str(test), dev_fraction=0.0)
        train_split, _, test_ds, _ = hz.prepare_task(cfg, seed=0)
        assert train_split.label_names == test_ds.label_names
        assert test_ds.examples[0][1] == train_split.label_names["neg"]

    def test_synthetic_corpora_are_generated_once_and_handed_out_as_copies(self, monkeypatch):
        generated = []
        generate = dt.generate_synthetic_corpus

        def counting(**kwargs):
            generated.append(kwargs["per_class"])
            return generate(**kwargs)

        monkeypatch.setattr(dt, "generate_synthetic_corpus", counting)
        hz._synthetic_corpus.cache_clear()
        cfg = tiny_config(test_per_class=7)
        first = hz.prepare_task(cfg, seed=0)
        hashes = [dt.dataset_hash(ds) for ds in first[:3]]
        for ds in first[:3]:
            ds.examples[0] = ("mutated", 0)
            ds.examples.append(("appended", 0))
        again = hz.prepare_task(cfg, seed=0)
        hz.prepare_task(dataclasses.replace(cfg, subsample_ratio=0.5), seed=1)
        # one train and one test corpus, however many tasks are dealt from them
        assert generated == [cfg.per_class, 7]
        assert [dt.dataset_hash(ds) for ds in again[:3]] == hashes
        hz.prepare_task(dataclasses.replace(cfg, data_seed=cfg.data_seed + 1), seed=0)
        assert generated == [cfg.per_class, 7, cfg.per_class, 7]


class TestTrain:
    def test_deterministic_given_seed(self):
        cfg = tiny_config()
        m1, r1 = hz.train(cfg, seed=0)
        m2, r2 = hz.train(cfg, seed=0)
        assert r1.step_loss == r2.step_loss
        assert r1.dev_errors == r2.dev_errors
        assert r1.test_error == r2.test_error
        for name in m1.params:
            assert np.array_equal(m1.params[name].data, m2.params[name].data)

    def test_word_layer_step_makes_no_add_at_call(self, monkeypatch):
        real_add = np.add
        calls = []

        class CountingAdd:
            def __call__(self, *args, **kwargs):
                return real_add(*args, **kwargs)

            def __getattr__(self, name):
                return getattr(real_add, name)

            def at(self, *args, **kwargs):
                calls.append(args)
                return real_add.at(*args, **kwargs)

        monkeypatch.setattr(np, "add", CountingAdd())
        np.add.at(np.zeros(2), [0], 1.0)
        assert len(calls) == 1  # the counter sees autodiff's np.add.at
        cfg = tiny_config(backbone="embed-mlp", layer="word", policy="amp", max_steps=1)
        hz.train(cfg, seed=0)
        assert len(calls) == 1

    def test_batches_are_gathers_of_the_shuffle_order(self, monkeypatch):
        # 54 training rows in batches of 16: every epoch ends on a short batch
        cfg = tiny_config(policy="none", max_steps=9)
        seen = []
        policy_step = hz.policy_step

        def capture(model, batch, *args):
            seen.append(batch)
            return policy_step(model, batch, *args)

        monkeypatch.setattr(hz, "policy_step", capture)
        hz.train(cfg, seed=0)
        train_split, _, _, vocab = hz.prepare_task(cfg, seed=0)
        enc = dt.encode_batch(train_split.examples, vocab, cfg.max_len, cfg.num_classes)
        shuffle = hz._stream(0, "shuffle")
        expected = []
        while len(expected) < cfg.max_steps:
            order = shuffle.permutation(len(enc))
            expected += [order[pos : pos + 16] for pos in range(0, len(enc), 16)]
        expected = expected[: cfg.max_steps]
        assert [len(idx) for idx in expected] == [16, 16, 16, 6] * 2 + [16]
        assert len(seen) == cfg.max_steps
        for batch, idx in zip(seen, expected):
            want = hz._slice_batch(enc, idx)
            for field in dataclasses.fields(md.Batch):
                got_rows, want_rows = getattr(batch, field.name), getattr(want, field.name)
                assert got_rows.tobytes() == want_rows.tobytes(), field.name

    def test_step_tape_is_freed_before_the_update(self, monkeypatch):
        # a live tape holds the step's intermediates, the conv's columns
        # among them, through the update and the dev evaluation
        tapes = []

        class TrackedTape(ad.Tape):
            def __enter__(self):
                tapes.append(weakref.ref(self))
                return super().__enter__()

        adam_update = hz.adam_update

        def checking(*args):
            assert tapes and all(ref() is None for ref in tapes)
            return adam_update(*args)

        monkeypatch.setattr(ad, "Tape", TrackedTape)
        monkeypatch.setattr(hz, "adam_update", checking)
        hz.train(tiny_config(backbone="text-cnn", policy="amp", max_steps=3), seed=0)
        assert len(tapes) == 3

    @pytest.mark.parametrize("backbone", ["embed-mlp", "text-cnn"])
    def test_a_set_wrap_wraps_every_node_training_records(self, monkeypatch, backbone):
        # one class attribute reaches the tapes train opens itself
        made = {}  # tape -> [(op, wrapped backward_fn)] in recording order

        def wrap(op, backward_fn):
            def wrapped(g):
                return backward_fn(g)

            made.setdefault(ad.active_tape(), []).append((op, wrapped))
            return wrapped

        monkeypatch.setattr(ad.Tape, "wrap", wrap)
        hz.train(tiny_config(backbone=backbone, policy="amp", max_steps=3), seed=0)
        assert len(made) == 3
        for tape, wrapped in made.items():
            assert wrapped == [(node.op, node.backward_fn) for node in tape.nodes]
        ops = {op for wrapped in made.values() for op, _ in wrapped}
        assert {"matmul", "lerp", "pair_cross_entropy"} <= ops <= set(ad.OPS)

    def test_policies_share_data_and_init_randomness(self):
        # same seed, different policy: identical init and batch order, so
        # the very first per-sample losses differ only through mixing
        cfg = tiny_config(max_steps=1, dropout=0.0)
        _, r_none = hz.train(dataclasses.replace(cfg, policy="none"), seed=0)
        _, r_mix = hz.train(dataclasses.replace(cfg, policy="mixup"), seed=0)
        assert r_none.step_loss[0] != r_mix.step_loss[0]

    def test_amp_at_zero_epsilon_is_bitwise_mixup(self):
        cfg = tiny_config(max_steps=25)
        m_amp, r_amp = hz.train(dataclasses.replace(cfg, policy="amp", epsilon=0.0), seed=3)
        m_mix, r_mix = hz.train(dataclasses.replace(cfg, policy="mixup"), seed=3)
        assert r_amp.step_objective == r_mix.step_objective
        assert r_amp.step_loss == r_mix.step_loss
        assert r_amp.test_error == r_mix.test_error
        for name in m_amp.params:
            assert np.array_equal(m_amp.params[name].data, m_mix.params[name].data)

    def test_report_records_every_step(self):
        cfg = tiny_config(policy="amp", max_steps=12)
        _, report = hz.train(cfg, seed=0)
        assert len(report.step_loss) == 12
        assert len(report.step_objective) == 12
        assert len(report.step_mask_rate) == 12
        assert report.policy == "amp"
        assert 0.0 <= report.test_error <= 1.0

    @pytest.mark.parametrize("policy", mx.POLICIES)
    def test_report_step_means_are_bundle_means_bitwise(self, policy):
        cfg = tiny_config(policy=policy, max_steps=12)
        seen = []
        _, report = hz.train(cfg, seed=0, step_hook=lambda step, b: seen.append(b))
        assert len({b.loss.size for b in seen}) == 2  # a short batch ends each epoch

        def bits(values):
            return np.array(values, dtype=np.float64).tobytes()

        assert bits(report.step_loss) == bits([float(b.loss.mean()) for b in seen])
        assert bits(report.step_mask_rate) == bits([float(b.mask.mean()) for b in seen])
        assert bits(report.step_grad_lambda) == bits(
            [float(np.abs(b.grad_lambda).mean()) for b in seen]
        )

    def test_plain_policy_bundle_is_inert(self):
        cfg = tiny_config(policy="none", max_steps=3)
        seen = []
        hz.train(cfg, seed=0, step_hook=lambda step, b: seen.append(b))
        for bundle in seen:
            assert np.array_equal(bundle.loss, bundle.loss_final)
            assert not bundle.mask.any()
            assert not bundle.grad_lambda.any()
            assert np.array_equal(bundle.lam, np.ones(len(bundle.lam)))

    def test_amp_bundle_invariants_each_step(self):
        cfg = tiny_config(policy="amp", max_steps=10)
        seen = []
        hz.train(cfg, seed=0, step_hook=lambda step, b: seen.append(b))
        for b in seen:
            assert np.array_equal(b.loss_final, np.maximum(b.loss, b.loss_prime))
            assert np.array_equal(b.mask, (b.delta > 0.0).astype(float))
            assert np.all(np.abs(b.lambda_prime - b.lam) <= cfg.epsilon + 1e-15)
            assert np.all((b.lambda_prime >= 0.0) & (b.lambda_prime <= 1.0))
            assert np.all(np.abs(b.grad_lambda) <= 1.0)

    def test_best_dev_snapshot_restored(self):
        cfg = tiny_config(max_steps=40)
        model, report = hz.train(cfg, seed=0)
        assert report.best_dev_error == min(report.dev_errors)
        assert report.best_step >= 0

    def test_dev_evaluated_each_epoch_and_at_end(self):
        # one dev evaluation per epoch boundary, plus one more when the
        # final step lands mid-epoch
        cfg = tiny_config(max_steps=7)
        _, report = hz.train(cfg, seed=0)
        n_train = len(hz.prepare_task(cfg, seed=0)[0])
        boundaries = 0
        pos = 0
        for _ in range(cfg.max_steps):
            pos += cfg.batch_size
            if pos >= n_train:
                boundaries += 1
                pos = 0
        expected = boundaries + (1 if pos else 0)
        assert len(report.dev_errors) == expected

    def test_divergence_raises(self):
        # a huge step size overflows the relu conv products into inf,
        # then the loss goes NaN; the loop must fail loudly, not train on
        cfg = tiny_config(backbone="text-cnn", filter_widths=(3,), lr=1e160, max_steps=30)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError):
                hz.train(cfg, seed=0)

    @pytest.mark.parametrize("split", [1, 2])  # dev, test
    def test_bad_evaluation_label_fails_before_the_first_step(self, monkeypatch, split):
        # the test split is encoded only when it is scored, after training
        cfg = tiny_config(max_steps=3)
        task = list(hz.prepare_task(cfg, seed=0))
        examples = list(task[split].examples)
        examples[-1] = (examples[-1][0], cfg.num_classes)
        task[split] = task[split].replaced(examples)
        monkeypatch.setattr(hz, "prepare_task", lambda config, seed: tuple(task))
        steps = []
        with pytest.raises(ValueError, match=f"label {cfg.num_classes} out of range"):
            hz.train(cfg, seed=0, step_hook=lambda step, bundle: steps.append(step))
        assert steps == []

    def test_dropout_consumed_identically_across_policies(self):
        # dropout draws come from a dedicated stream: turning it on must
        # not change which batches or lambdas the policies see
        cfg = tiny_config(dropout=0.4, max_steps=8)
        lam_mix, lam_amp = [], []
        hz.train(
            dataclasses.replace(cfg, policy="mixup"),
            seed=2,
            step_hook=lambda s, b: lam_mix.append(b.lam.copy()),
        )
        hz.train(
            dataclasses.replace(cfg, policy="amp"),
            seed=2,
            step_hook=lambda s, b: lam_amp.append(b.lam.copy()),
        )
        for a, b in zip(lam_mix, lam_amp):
            assert np.array_equal(a, b)


class TestEvaluate:
    def _constant_model(self, logits_row):
        rng = np.random.default_rng(0)
        model = md.init_embed_mlp(8, 3, 4, len(logits_row), rng)
        model.params["w_out"].data[:] = 0.0
        model.params["b_out"].data[:] = np.asarray(logits_row, dtype=float)
        return model

    def _error_rate(self, model, ds, vocab, max_len):
        return hz._error_rate(model, hz._chunks(ds.examples, vocab, max_len, model.num_classes))

    def test_counts_mismatches(self):
        model = self._constant_model([0.0, 1.0, 0.0])  # always predicts class 1
        ds = dt.Dataset([("a b", 1), ("c", 1), ("d", 0), ("e f", 2)], 3)
        vocab = dt.build_vocab(ds)
        assert self._error_rate(model, ds, vocab, max_len=4) == 0.5

    def test_tie_goes_to_lowest_class_id(self):
        model = self._constant_model([0.5, 0.5, 0.5])
        ds = dt.Dataset([("a", 0), ("b", 2)], 3)
        vocab = dt.build_vocab(ds)
        assert self._error_rate(model, ds, vocab, max_len=4) == 0.5

    def test_order_invariant(self):
        cfg = tiny_config(max_steps=5)
        model, _ = hz.train(cfg, seed=0)
        _, _, test_ds, vocab = hz.prepare_task(cfg, seed=0)
        shuffled = test_ds.replaced(
            [test_ds.examples[i] for i in np.random.default_rng(1).permutation(len(test_ds))]
        )
        assert self._error_rate(model, test_ds, vocab, 14) == self._error_rate(
            model, shuffled, vocab, 14
        )


class TestRunSeedsAndSummaries:
    def test_requires_two_seeds(self):
        cfg = tiny_config(seeds=(0,))
        with pytest.raises(ValueError, match="2 seeds"):
            hz.run_seeds(cfg)

    def test_runs_every_policy_and_seed(self):
        cfg = tiny_config(max_steps=6, seeds=(0, 1))
        results = hz.run_seeds(cfg, policies=("none", "mixup"))
        assert sorted(results) == ["mixup", "none"]
        assert [r.seed for r in results["none"]] == [0, 1]
        assert all(r.policy == "none" for r in results["none"])

    def test_divergence_names_policy_and_seed(self):
        cfg = tiny_config(
            backbone="text-cnn", filter_widths=(3,), lr=1e160, max_steps=30, seeds=(0, 1)
        )
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match="policy 'none' seed 0"):
                hz.run_seeds(cfg, policies=("none",))

    def test_rp_percent_examples(self):
        assert round(hz.rp_percent(51.0, 42.1), 1) == 17.5
        assert hz.rp_percent(10.0, 10.0) == 0.0
        assert hz.rp_percent(0.0, 0.0) == 0.0
        assert np.isnan(hz.rp_percent(0.0, 1.0))
        assert hz.rp_percent(20.0, 30.0) == -50.0

    def test_summarize_rows_and_chained_rp(self):
        rows = hz.summarize(
            {"none": [0.30, 0.32, 0.28], "mixup": [0.25, 0.27, 0.23], "amp": [0.20, 0.22, 0.18]}
        )
        names = [r[0] for r in rows]
        assert names == ["none", "mixup", "amp"]
        assert rows[0][3] is None
        assert rows[0][1] == pytest.approx(0.30)
        assert rows[0][2] == pytest.approx(np.std([0.30, 0.32, 0.28], ddof=1))
        # each rp compares against the row directly above
        assert rows[1][3] == pytest.approx((0.30 - 0.25) / 0.30 * 100)
        assert rows[2][3] == pytest.approx((0.25 - 0.20) / 0.25 * 100)

    def test_summarize_accepts_reports(self):
        r = hz.TrainReport(seed=0, policy="none")
        r.test_error = 0.4
        s = hz.TrainReport(seed=1, policy="none")
        s.test_error = 0.2
        rows = hz.summarize({"none": [r, s]})
        assert rows[0][1] == pytest.approx(0.3)

    def test_summarize_needs_two_runs(self):
        with pytest.raises(ValueError, match="at least 2"):
            hz.summarize({"none": [0.3]})


class TestAblate:
    def test_variant_structure(self):
        cfg = tiny_config(max_steps=6, seeds=(0, 1))
        rows, results = hz.ablate(cfg)
        assert [r[0] for r in rows] == ["baseline", "+randop", "+maxop", "amp"]
        assert rows[0][3] is None
        for name in ("baseline", "+randop", "+maxop", "amp"):
            assert len(results[name]) == 2
        assert [results[name][0].policy for name in results] == ["none", "mixup", "maxop", "amp"]

    def test_maxop_variant_always_takes_perturbed_branch(self):
        cfg = tiny_config(policy="maxop", max_steps=6)
        seen = []
        _, report = hz.train(cfg, seed=0, step_hook=lambda s, b: seen.append(b.mask.copy()))
        assert all(np.all(m == 1.0) for m in seen)
        assert report.policy == "maxop"

    def test_maxop_and_amp_see_identical_randomness(self):
        # forcing the mask changes only branch selection, never the
        # pairing or the coefficients
        cfg = tiny_config(policy="amp", max_steps=5)
        lam_a, lam_b = [], []
        hz.train(
            dataclasses.replace(cfg, policy="maxop"),
            seed=1,
            step_hook=lambda s, b: lam_a.append(b.lam.copy()),
        )
        hz.train(cfg, seed=1, step_hook=lambda s, b: lam_b.append(b.lam.copy()))
        for a, b in zip(lam_a, lam_b):
            assert np.array_equal(a, b)


@pytest.fixture(scope="module")
def sweep_setup():
    cfg = tiny_config(max_steps=20)
    model_a, _ = hz.train(dataclasses.replace(cfg, policy="amp"), seed=0)
    model_b, _ = hz.train(cfg, seed=0)
    _, _, test_ds, vocab = hz.prepare_task(cfg, seed=0)
    return cfg, model_a, model_b, test_ds, vocab


class TestLambdaSweep:
    def test_grid_and_symmetry(self, sweep_setup):
        cfg, model_a, model_b, test_ds, vocab = sweep_setup
        rows = hz.lambda_sweep(model_a, model_b, test_ds, vocab, cfg.max_len, grid_points=41)
        assert len(rows) == 41
        lams = np.array([r[0] for r in rows])
        assert lams[0] == 0.0 and lams[-1] == 1.0
        for col in (1, 2):
            vals = np.array([r[col] for r in rows])
            assert np.max(np.abs(vals - vals[::-1])) < 1e-9

    def test_endpoint_matches_plain_loss_exactly(self, sweep_setup):
        cfg, model_a, model_b, test_ds, vocab = sweep_setup
        rows = hz.lambda_sweep(model_a, model_b, test_ds, vocab, cfg.max_len, grid_points=5)
        assert rows[-1][1] == hz.plain_mean_loss(model_a, test_ds, vocab, cfg.max_len)
        assert rows[-1][2] == hz.plain_mean_loss(model_b, test_ds, vocab, cfg.max_len)

    def test_single_pair_mode(self, sweep_setup):
        cfg, model_a, model_b, test_ds, vocab = sweep_setup
        rows = hz.lambda_sweep(
            model_a, model_b, test_ds, vocab, cfg.max_len, grid_points=3, pair=(2, 5)
        )
        assert len(rows) == 3
        with pytest.raises(IndexError):
            hz.lambda_sweep(
                model_a, model_b, test_ds, vocab, cfg.max_len, grid_points=3, pair=(0, 10**6)
            )

    @pytest.mark.parametrize("backbone", ["embed-mlp", "text-cnn"])
    def test_single_pair_endpoints_are_the_pair_losses(self, acceptance_task, backbone):
        # at lambda = 1 the pair's row is example i's own loss in the same
        # two-row encoding; at lambda = 0 the rows swap places in the batch
        cfg, test_ds, vocab = acceptance_task
        cfg = dataclasses.replace(cfg, backbone=backbone)
        models = [
            hz.build_model(cfg, vocab, cfg.num_classes, np.random.default_rng(s)) for s in (0, 1)
        ]
        for i, j in [(2, 5), (7, 7), (100, 3)]:
            rows = hz.lambda_sweep(
                *models, test_ds, vocab, cfg.max_len, grid_points=3, layer="sent", pair=(i, j)
            )
            examples = [test_ds.examples[i], test_ds.examples[j]]
            enc = dt.encode_batch(examples, vocab, cfg.max_len, cfg.num_classes)
            for col, model in enumerate(models, start=1):
                ce = ad.softmax_cross_entropy(md.forward(model, enc), enc.label_ids).data
                assert rows[-1][col] == ce[0], (i, j, col)
                assert rows[0][col] == pytest.approx(ce[1], rel=0, abs=1e-12), (i, j, col)

    def test_single_pair_encodes_only_the_pair(self, sweep_setup, monkeypatch):
        cfg, model_a, model_b, test_ds, vocab = sweep_setup
        encoded = []
        encode = dt.encode_batch

        def counting(examples, *args):
            encoded.append(len(examples))
            return encode(examples, *args)

        monkeypatch.setattr(dt, "encode_batch", counting)
        hz.lambda_sweep(model_a, model_b, test_ds, vocab, cfg.max_len, grid_points=3, pair=(2, 5))
        assert encoded == [2]

    def test_single_pair_still_checks_every_label(self, sweep_setup):
        cfg, model_a, model_b, test_ds, vocab = sweep_setup
        examples = list(test_ds.examples)
        examples[-1] = (examples[-1][0], cfg.num_classes)
        with pytest.raises(ValueError, match=f"label {cfg.num_classes} out of range"):
            hz.lambda_sweep(
                model_a, model_b, test_ds.replaced(examples), vocab, cfg.max_len,
                grid_points=3, pair=(2, 5),
            )

    @pytest.mark.parametrize("pair", [None, (0, 0)])
    def test_empty_dataset_rejected(self, sweep_setup, pair):
        cfg, model_a, model_b, test_ds, vocab = sweep_setup
        with pytest.raises(ValueError, match="empty dataset"):
            hz.lambda_sweep(model_a, model_b, test_ds.replaced([]), vocab, cfg.max_len, pair=pair)

    def test_plain_mean_loss_empty_dataset_rejected(self, sweep_setup):
        cfg, model_a, _, test_ds, vocab = sweep_setup
        with pytest.raises(ValueError, match="empty dataset"):
            hz.plain_mean_loss(model_a, test_ds.replaced([]), vocab, cfg.max_len)

    @pytest.mark.parametrize("backbone", ["embed-mlp", "text-cnn"])
    def test_row_chunk_does_not_change_results(self, backbone, monkeypatch):
        # an odd dataset: the middle shuffle position is its own partner, and
        # at ROW_CHUNK 2 it is scored alone in the last, short chunk
        cfg = tiny_config(backbone=backbone)
        _, _, test_ds, vocab = hz.prepare_task(cfg, seed=0)
        odd = test_ds.replaced(test_ds.examples[: len(test_ds) - 1 + len(test_ds) % 2])
        assert len(odd) % 2 == 1
        model_a = hz.build_model(cfg, vocab, cfg.num_classes, np.random.default_rng(0))
        model_b = hz.build_model(cfg, vocab, cfg.num_classes, np.random.default_rng(1))
        results = []
        for chunk in (2, 7, len(odd) + 1):
            monkeypatch.setattr(hz, "ROW_CHUNK", chunk)
            sweeps = [
                hz.lambda_sweep(
                    model_a, model_b, odd, vocab, cfg.max_len, grid_points=5, layer=layer
                )
                for layer in ("sent", "word")
            ]
            plain = hz.plain_mean_loss(model_a, odd, vocab, cfg.max_len)
            chunks = hz._chunks(odd.examples, vocab, cfg.max_len, cfg.num_classes)
            results.append((sweeps, plain, hz._error_rate(model_a, chunks)))
        assert results[0] == results[1] == results[2]

    def test_vocab_mismatch_rejected(self, sweep_setup):
        cfg, model_a, model_b, test_ds, vocab = sweep_setup
        small = dt.Vocab({"<pad>": 0, "<unk>": 1})
        with pytest.raises(ValueError, match="vocabulary"):
            hz.lambda_sweep(model_a, model_b, test_ds, small, cfg.max_len)

    def test_grid_too_small_rejected(self, sweep_setup):
        cfg, model_a, model_b, test_ds, vocab = sweep_setup
        with pytest.raises(ValueError, match="grid_points"):
            hz.lambda_sweep(model_a, model_b, test_ds, vocab, cfg.max_len, grid_points=1)


@pytest.fixture(scope="module")
def acceptance_task():
    cfg = hz.load_config(ROOT / "configs" / "acceptance.cfg")
    _, _, test_ds, vocab = hz.prepare_task(cfg, seed=0)
    return cfg, test_ds, vocab


@pytest.mark.parametrize("layer", ["sent", "word"])
@pytest.mark.parametrize("backbone", ["embed-mlp", "text-cnn"])
def test_full_sweep_memory_is_bounded_by_the_row_chunk(acceptance_task, backbone, layer):
    # 3000 test rows; scored all at once, the peak was 13-52 MiB, and a
    # [grid_points, n] loss matrix made it grow by 2.3-4.3 MB from 3 to 101
    # grid points
    cfg, test_ds, vocab = acceptance_task
    cfg = dataclasses.replace(cfg, backbone=backbone)
    model = hz.build_model(cfg, vocab, cfg.num_classes, np.random.default_rng(0))
    assert len(test_ds) == 3000
    peaks = {}
    for grid_points in (3, 101):
        sweep = functools.partial(
            hz.lambda_sweep,
            model, model, test_ds, vocab, cfg.max_len, grid_points=grid_points, layer=layer,
        )
        # an untraced sweep first: a process-wide table that the sweep grows
        # (a 1.9 MB block outlived one traced sweep) grows then, so the
        # traced peak does not depend on which tests ran earlier
        sweep()
        tracemalloc.start()
        try:
            sweep()
            _, peaks[grid_points] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peaks[3] < 16 * 2**20
    assert abs(peaks[101] - peaks[3]) < 256 * 2**10, peaks


def test_exact_terms_sum_exactly_in_any_chunking():
    rng = np.random.default_rng(0)
    values = (rng.standard_normal(1000) * 10.0 ** rng.integers(-20, 20, 1000)).tolist()
    exact = sum(Fraction(v) for v in values)
    for size in (1, 7, 512, 1000):
        terms = []
        for a in range(0, len(values), size):
            terms = hz._exact_terms(terms + values[a : a + size])
        assert sum(Fraction(t) for t in terms) == exact
        assert math.fsum(terms) == float(exact)
    assert hz._exact_terms([1e16, 1.0, -1e16]) == [1.0]
    assert hz._exact_terms([0.0, -0.0]) == []
    # a non-finite total ends the terms instead of peeling forever
    assert hz._exact_terms([1.0, math.inf]) == [math.inf]
    assert math.isnan(hz._exact_terms([1.0, math.nan])[-1])


@pytest.mark.parametrize("layer", ["sent", "word"])
@pytest.mark.parametrize("backbone", ["embed-mlp", "text-cnn"])
def test_full_sweep_endpoints_are_exact_means(acceptance_task, backbone, layer):
    # at lambda = 0 every row scores its partner's lambda = 1 loss, so the two
    # means sum the same values in another order; np.mean of the two rows
    # put them an ulp apart
    cfg, test_ds, vocab = acceptance_task
    cfg = dataclasses.replace(cfg, backbone=backbone)
    models = [
        hz.build_model(cfg, vocab, cfg.num_classes, np.random.default_rng(s)) for s in (0, 1)
    ]
    rows = hz.lambda_sweep(*models, test_ds, vocab, cfg.max_len, grid_points=2, layer=layer)
    assert rows[0][1:] == rows[-1][1:]


def test_text_cnn_sent_rows_do_not_depend_on_the_batch(acceptance_task):
    # each row's conv features must be bitwise the same however the rows are
    # batched: the sweep's lambda = 1 endpoint is compared with plain_mean_loss
    # exactly, and the two batch the test set differently
    cfg, test_ds, vocab = acceptance_task
    cfg = dataclasses.replace(cfg, backbone="text-cnn")
    model_a = hz.build_model(cfg, vocab, cfg.num_classes, np.random.default_rng(0))
    model_b = hz.build_model(cfg, vocab, cfg.num_classes, np.random.default_rng(1))
    enc = dt.encode_batch(test_ds.examples[:700], vocab, cfg.max_len, cfg.num_classes)

    def sent(rows):
        cut, tensor = md.forward_to_layer(model_a, hz._slice_batch(enc, rows), "sent")
        assert cut == "sent"
        return tensor.data

    whole = sent(np.arange(700)).tobytes()
    block = ad.CONV_BLOCK_ROWS
    for size in (1, 2, block - 1, block, block + 1, 512):
        pieces = [sent(np.arange(a, min(a + size, 700))) for a in range(0, 700, size)]
        assert np.concatenate(pieces).tobytes() == whole, size
    order = np.random.default_rng(2).permutation(700)
    shuffled = np.empty((700, model_a.sent_dim))
    shuffled[order] = sent(order)
    assert shuffled.tobytes() == whole

    assert len(test_ds) == 3000
    rows = hz.lambda_sweep(model_a, model_b, test_ds, vocab, cfg.max_len, grid_points=2)
    assert rows[-1][1] == hz.plain_mean_loss(model_a, test_ds, vocab, cfg.max_len)
    assert rows[-1][2] == hz.plain_mean_loss(model_b, test_ds, vocab, cfg.max_len)


def test_text_cnn_sent_forward_memory_is_bounded_by_the_conv_block(acceptance_task):
    # a 512-row forward unfolds its windows CONV_BLOCK_ROWS rows at a time;
    # the per-width convs it replaced peaked at 5.69 MiB here
    cfg, test_ds, vocab = acceptance_task
    cfg = dataclasses.replace(cfg, backbone="text-cnn")
    model = hz.build_model(cfg, vocab, cfg.num_classes, np.random.default_rng(0))
    enc = dt.encode_batch(test_ds.examples[:512], vocab, cfg.max_len, cfg.num_classes)
    tracemalloc.start()
    try:
        md.forward_to_layer(model, enc, "sent")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5.69 * 2**20


def test_embed_mlp_forward_memory_is_bounded_by_the_row_block(acceptance_task):
    # a 512-row forward pools CONV_BLOCK_ROWS rows of the table at a time;
    # gathering the whole word grid first peaked at 1.88 MiB here
    cfg, test_ds, vocab = acceptance_task
    assert cfg.backbone == "embed-mlp"
    model = hz.build_model(cfg, vocab, cfg.num_classes, np.random.default_rng(0))
    enc = dt.encode_batch(test_ds.examples[:512], vocab, cfg.max_len, cfg.num_classes)
    tracemalloc.start()
    try:
        md.forward(model, enc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * 2**20


@pytest.mark.parametrize("policy, nodes", [("none", 9), ("mixup", 11), ("amp", 20)])
def test_step_graph_size_and_unread_lambda_adjoints(acceptance_task, monkeypatch, policy, nodes):
    # the parameter walk forms no dL/dlambda, the step leaves lambda's flag
    # set, and the parameter gradients equal those of a walk that also
    # asks for lambda
    cfg, test_ds, vocab = acceptance_task
    cfg = dataclasses.replace(cfg, policy=policy)
    model = hz.build_model(cfg, vocab, cfg.num_classes, np.random.default_rng(0))
    batch = dt.encode_batch(test_ds.examples[: cfg.batch_size], vocab, cfg.max_len, cfg.num_classes)
    leaves, formed = [], []  # formed: for each fused-op backward, whether it formed dL/dw
    rand_op = mx.rand_op

    def capture(*args, **kwargs):
        out = rand_op(*args, **kwargs)
        leaves.append(out[1])
        return out

    def counted(op, clean):
        if op not in ("lerp", "pair_cross_entropy"):
            return clean

        def backward_fn(g):
            grads = clean(g)
            formed.append(grads[-1] is not None)
            return grads

        return backward_fn

    monkeypatch.setattr(mx, "rand_op", capture)
    monkeypatch.setattr(ad.Tape, "wrap", counted)

    def step(with_lambda):
        leaves.clear()
        params = list(model.trainable_params().values())
        with ad.Tape() as tape:
            total, _ = hz.policy_step(
                model, batch, cfg, np.random.default_rng(1), np.random.default_rng(2)
            )
            formed.clear()
            grads = ad.backward(tape, total, params + (leaves if with_lambda else []))
        assert [leaf.requires_grad for leaf in leaves] == ([] if policy == "none" else [True])
        return tape, grads[: len(params)], list(formed)

    tape, without, formed_without = step(False)
    assert (len(tape), tape.last_visit_count) == (nodes, nodes)
    assert not any(formed_without)
    _, with_lambda, formed_with = step(True)
    assert any(formed_with) == (policy != "none")
    assert len(formed_with) == len(formed_without)
    for got, want in zip(without, with_lambda):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("policy, nodes", [("none", 9), ("mixup", 11), ("amp", 20)])
def test_an_unset_wrap_leaves_each_node_its_op_closure(acceptance_task, monkeypatch, policy, nodes):
    # with Tape.wrap None each node keeps the closure its op made, as
    # before the hook existed: the node count is unchanged, and the
    # gradients are those of a pass-through wrap, byte for byte
    cfg, test_ds, vocab = acceptance_task
    cfg = dataclasses.replace(cfg, policy=policy)
    batch = dt.encode_batch(test_ds.examples[: cfg.batch_size], vocab, cfg.max_len, cfg.num_classes)

    def step():
        model = hz.build_model(cfg, vocab, cfg.num_classes, np.random.default_rng(0))
        params = list(model.trainable_params().values())
        with ad.Tape() as tape:
            total, _ = hz.policy_step(
                model, batch, cfg, np.random.default_rng(1), np.random.default_rng(2)
            )
        return tape, ad.backward(tape, total, params)

    assert ad.Tape.wrap is None
    tape, plain = step()
    assert len(tape) == nodes
    for node in tape.nodes:
        assert node.backward_fn.__qualname__ == f"{node.op}.<locals>.backward_fn"
    made = []

    def pass_through(op, backward_fn):
        made.append(lambda g: backward_fn(g))
        return made[-1]

    monkeypatch.setattr(ad.Tape, "wrap", pass_through)
    tape, passed = step()
    assert [node.backward_fn for node in tape.nodes] == made
    assert len(made) == nodes
    assert [g.tobytes() for g in passed] == [g.tobytes() for g in plain]


def test_training_records_every_op_but_three(monkeypatch):
    # only their own gradcheck rows and tests call these three; an op that
    # training stops recording fails here until it is deleted as well
    unreached = {"concat", "mean_pool_batch", "reshape"}
    recorded = set()

    def recorder(op, backward_fn):
        recorded.add(op)
        return backward_fn

    monkeypatch.setattr(ad.Tape, "wrap", recorder)
    for backbone in ("embed-mlp", "text-cnn"):
        for layer in ("sent", "word"):
            for policy in (*mx.POLICIES, mx.MAXOP):
                cfg = tiny_config(
                    backbone=backbone, layer=layer, policy=policy, max_steps=2, dropout=0.3
                )
                hz.train(cfg, seed=0)
    assert recorded == set(ad.OPS) - unreached


@pytest.mark.parametrize("policy", [*mx.POLICIES, mx.MAXOP])
@pytest.mark.parametrize("layer", ["sent", "word"])
@pytest.mark.parametrize("backbone", ["embed-mlp", "text-cnn"])
def test_a_training_run_leaves_nothing_for_the_cyclic_gc(backbone, layer, policy):
    # train frees each step's tape, the conv's columns among them, by
    # dropping its last reference; that holds only while no tape node is
    # in a reference cycle, which only the cyclic collector would free
    cfg = hz.load_config(ROOT / "configs" / "acceptance.cfg")
    cfg = dataclasses.replace(cfg, backbone=backbone, layer=layer, policy=policy, max_steps=8)
    gc.collect()
    gc.disable()
    try:
        hz.train(cfg, seed=0)
        assert gc.collect() == 0
    finally:
        gc.enable()


class TestPretrainedTable:
    """``embed_path`` and ``embed_frozen`` through the config: Guo et al.'s
    static (frozen) and tuned pretrained embeddings."""

    @staticmethod
    def write_vectors(path, vocab, dim):
        # a vector for every vocabulary entry, so the file alone fixes the table
        table = np.random.default_rng(9).uniform(-1.0, 1.0, (len(vocab), dim))
        with open(path, "w", encoding="utf-8") as fh:
            for token, row in zip(vocab.token_to_id, table):
                fh.write(" ".join([token, *(repr(float(x)) for x in row)]) + "\n")
        return table

    @pytest.mark.parametrize("policy", ["mixup", "amp"])
    @pytest.mark.parametrize("layer", ["sent", "word"])
    @pytest.mark.parametrize("backbone", ["embed-mlp", "text-cnn"])
    def test_frozen_table_stays_bitwise_while_the_rest_trains(
        self, tmp_path, monkeypatch, backbone, layer, policy
    ):
        cfg = hz.load_config(ROOT / "configs" / "acceptance.cfg")
        _, _, _, vocab = hz.prepare_task(cfg, seed=0)
        path = tmp_path / "vectors.txt"
        table = self.write_vectors(path, vocab, cfg.embed_dim)
        cfg = dataclasses.replace(
            cfg, backbone=backbone, layer=layer, policy=policy, max_steps=20,
            embed_path=str(path), embed_frozen=True,
        )
        built = []
        build_model = hz.build_model

        def recording(*args, **kwargs):
            model = build_model(*args, **kwargs)
            built.append(model.state())
            return model

        monkeypatch.setattr(hz, "build_model", recording)
        model, _ = hz.train(cfg, seed=0)
        (init,) = built
        assert "embed" not in model.trainable_params()
        assert model.params["embed"].data.tobytes() == table.tobytes() == init["embed"].tobytes()
        for name, p in model.params.items():
            if name != "embed":
                assert not np.array_equal(p.data, init[name]), name


class TestGradcheck:
    ROW_NAMES = [
        "matmul",
        "embedding_lookup",
        "gather_rows",
        "mean_pool_batch",
        "conv1d_maxpool_batch",
        "tanh",
        "add",
        "mul",
        "scale",
        "reshape",
        "concat",
        "softmax_cross_entropy",
        "lerp",
        "pair_cross_entropy",
        "model_embed_mlp",
        "model_text_cnn",
        "conv1d_maxpool_batch_input",
        "embedding_mean",
        "grad_lambda_fd",
        "grad_lambda_analytic",
    ]

    def test_row_names_in_order(self):
        # each row draws from the stream keyed in its table entry; pinning
        # the order catches a row that is dropped, added or reordered
        report = gk.gradcheck(instances=1)
        assert [name for name, _, _ in report.rows] == self.ROW_NAMES
        assert [key for _, key, _, _ in gk._CHECKS] == [*range(18), 991, 992]

    def test_nan_error_fails_its_row(self, monkeypatch):
        # a NaN relative error must fail, not vanish in a running max
        errors = iter([0.0, np.nan, 0.0])
        monkeypatch.setattr(gk, "_CHECKS", (("row", 0, lambda rng: next(errors), 1e-4),))
        report = gk.gradcheck(instances=3)
        assert not report.passed
        assert report.failures() == ["row"]
        assert "FAIL" in report.format()

    def test_full_sweep_passes(self):
        report = gk.gradcheck(instances=20)
        assert report.passed, report.format()
        names = [name for name, _, _ in report.rows]
        assert "conv1d_maxpool_batch" in names
        assert "softmax_cross_entropy" in names
        assert "grad_lambda_fd" in names
        assert "grad_lambda_analytic" in names

    def test_deterministic(self):
        a = gk.gradcheck(instances=5)
        b = gk.gradcheck(instances=5)
        assert a.rows == b.rows

    def test_corrupted_op_is_caught_and_named(self):
        report = gk.gradcheck(corrupt="tanh", instances=3)
        assert not report.passed
        assert "tanh" in report.failures()
        assert "FAIL" in report.format()

    def test_corruption_is_undone(self, monkeypatch):
        gk.gradcheck(corrupt="matmul", instances=2)
        assert ad.Tape.wrap is None
        assert gk.gradcheck(instances=2).passed

        # a wrap set before the call is back in place when a row raises
        def previous(op, backward_fn):
            return backward_fn

        def failing(rng):
            assert ad.Tape.wrap is not previous
            raise RuntimeError("row failed")

        monkeypatch.setattr(ad.Tape, "wrap", previous)
        monkeypatch.setattr(gk, "_CHECKS", (("row", 0, failing, 1e-4),))
        with pytest.raises(RuntimeError, match="row failed"):
            gk.gradcheck(corrupt="matmul", instances=2)
        assert ad.Tape.wrap is previous

    @pytest.mark.parametrize("instances", [0, -3])
    def test_no_instances_rejected(self, instances):
        # zero instances would check nothing and still report a pass
        with pytest.raises(ValueError, match="instances must be >= 1"):
            gk.gradcheck(instances=instances)

    @pytest.mark.parametrize(
        "target", ["made_up_op", "backward", "active_tape", "_conv_forward", "Tensor", "np"]
    )
    def test_unknown_corrupt_target_rejected(self, target):
        with pytest.raises(ValueError, match="unknown op"):
            gk.gradcheck(corrupt=target)

    @pytest.mark.parametrize("op", ad.OPS)
    def test_every_exported_op_is_audited(self, op):
        report = gk.gradcheck(corrupt=op, instances=2)
        assert not report.passed
        if op == "reduce_sum":
            # every primitive row scalarizes through reduce_sum, so its
            # corruption fails all of them rather than a row of its own
            rows = {name for name in self.ROW_NAMES if not name.startswith("grad_lambda_")}
            assert rows <= set(report.failures())
        else:
            assert op in report.failures()

    def test_analytic_decomposition_matches_tape(self):
        rng = np.random.default_rng(5)
        model = md.init_embed_mlp(20, 4, 6, 3, rng)
        batch = gk._random_batch(rng, 6, 8, 20, 3)
        cfg = mx.MixConfig(policy="amp", layer="sent")
        with ad.Tape() as tape:
            pairs, lam_leaf, loss = mx.rand_op(model, batch, cfg, rng)
            (tape_grad,) = ad.backward(tape, ad.reduce_sum(loss), [lam_leaf])
        reference = gk.analytic_grad_lambda(model, pairs, lam_leaf.data)
        assert np.allclose(tape_grad, reference, rtol=1e-9, atol=1e-12)
