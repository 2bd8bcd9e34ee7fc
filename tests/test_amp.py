"""Coefficient perturbation, branch selection, and the full three-stage step."""

import dataclasses

import numpy as np
import pytest

from admix import DivergenceError
from admix import autodiff as ad
from admix import amp
from admix import harness as hz
from admix import mixup as mx
from admix import models


def make_batch(rng, n=6, max_len=7, vocab=25, num_classes=3):
    ids = rng.integers(0, vocab, size=(n, max_len))
    vls = rng.integers(1, max_len + 1, size=n)
    return models.Batch(ids, vls, rng.integers(0, num_classes, size=n))


def make_model(rng, dropout=0.0, backbone="embed-mlp"):
    if backbone == "text-cnn":
        return models.init_text_cnn(25, 5, (2, 3), 4, 3, rng, dropout=dropout)
    return models.init_embed_mlp(25, 5, 6, 3, rng, dropout=dropout)


class TestClipGrad:
    def test_values_clamped_to_unit_interval(self):
        out = amp.clip_grad(np.array([-3.0, -1.0, -0.2, 0.0, 0.7, 1.0, 5.0]))
        np.testing.assert_array_equal(out, [-1.0, -1.0, -0.2, 0.0, 0.7, 1.0, 1.0])

    def test_infinities_raise_divergence(self):
        for value in (-np.inf, np.inf):
            with pytest.raises(DivergenceError, match="infinity"):
                amp.clip_grad(np.array([0.1, value]))

    def test_nan_raises_divergence(self):
        with pytest.raises(DivergenceError, match="NaN"):
            amp.clip_grad(np.array([0.1, np.nan]))


class TestPerturbLambda:
    def test_exact_arithmetic(self):
        out = amp.perturb_lambda(np.array([0.5]), np.array([0.3]), 0.002)
        np.testing.assert_allclose(out, [0.5006], rtol=0, atol=1e-16)

    def test_zero_epsilon_is_identity_bitwise(self):
        lam = np.array([0.0, 0.25, 1.0, 0.7431])
        out = amp.perturb_lambda(lam, np.array([1.0, -1.0, 0.5, -0.2]), 0.0)
        np.testing.assert_array_equal(out, lam)

    def test_clamped_into_unit_interval(self):
        out = amp.perturb_lambda(np.array([0.9995, 0.0004]), np.array([1.0, -1.0]), 0.002)
        np.testing.assert_array_equal(out, [1.0, 0.0])

    def test_step_bounded_by_epsilon(self):
        rng = np.random.default_rng(0)
        lam = rng.random(100)
        grad = rng.uniform(-1, 1, 100)
        out = amp.perturb_lambda(lam, grad, 0.002)
        assert np.abs(out - lam).max() <= 0.002 + 1e-15

    def test_rejects_unclipped_gradient_and_bad_epsilon(self):
        with pytest.raises(ValueError, match="clipped"):
            amp.perturb_lambda(np.array([0.5]), np.array([1.5]), 0.002)
        for epsilon in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="epsilon"):
                amp.perturb_lambda(np.array([0.5]), np.array([0.5]), epsilon)


class TestMaskAndFinalLoss:
    def test_mask_is_strict_improvement_indicator(self):
        loss = np.array([1.0, 1.0, 1.0])
        prime = np.array([1.5, 1.0, 0.5])
        np.testing.assert_array_equal(amp.compute_mask(loss, prime), [1.0, 0.0, 0.0])

    def test_final_loss_selects_per_sample(self):
        loss = ad.Tensor([1.0, 2.0, 3.0])
        prime = ad.Tensor([4.0, 1.0, 5.0])
        mask = np.array([1.0, 0.0, 1.0])
        out = amp.final_loss(loss, prime, mask)
        np.testing.assert_array_equal(out.data, [4.0, 2.0, 5.0])

    def test_final_loss_equals_elementwise_max_under_computed_mask(self):
        rng = np.random.default_rng(1)
        loss = rng.random(50)
        prime = rng.random(50)
        mask = amp.compute_mask(loss, prime)
        out = amp.final_loss(ad.Tensor(loss), ad.Tensor(prime), mask)
        np.testing.assert_array_equal(out.data, np.maximum(loss, prime))

    def test_gradient_flows_only_to_selected_branch(self):
        loss = ad.Tensor([1.0, 2.0], requires_grad=True)
        prime = ad.Tensor([3.0, 1.0], requires_grad=True)
        mask = np.array([1.0, 0.0])
        with ad.Tape() as tape:
            y = ad.reduce_sum(amp.final_loss(loss, prime, mask))
        g_loss, g_prime = ad.backward(tape, y, [loss, prime])
        np.testing.assert_array_equal(g_loss, [0.0, 1.0])
        np.testing.assert_array_equal(g_prime, [1.0, 0.0])


class TestGradLambda:
    def test_requires_reachable_leaf(self):
        model = make_model(np.random.default_rng(2))
        batch = make_batch(np.random.default_rng(3))
        lam_leaf = ad.Tensor(np.full(len(batch), 0.5), requires_grad=True)
        with ad.Tape() as tape:
            logits = models.forward(model, batch)
            loss = ad.reduce_sum(ad.softmax_cross_entropy(logits, batch.label_ids))
        with pytest.raises(ValueError, match="not reachable"):
            amp.grad_lambda(tape, loss, lam_leaf)

    def test_rejects_non_grad_leaf(self):
        lam = ad.Tensor(np.ones(3))
        with pytest.raises(ValueError, match="require"):
            amp.grad_lambda(ad.Tape(), ad.Tensor(0.0), lam)

    def test_self_pairing_gives_exactly_zero(self):
        model = make_model(np.random.default_rng(4))
        batch = make_batch(np.random.default_rng(5))
        lam_leaf = ad.Tensor(
            mx.sample_lambda(1.0, len(batch), np.random.default_rng(6)), requires_grad=True
        )
        with ad.Tape() as tape:
            pairs = mx.pair_up(model, batch, "sent", np.arange(len(batch)))
            loss = mx.score(model, pairs, lam_leaf, lam_leaf)
            g = amp.grad_lambda(tape, ad.reduce_sum(loss), lam_leaf)
        np.testing.assert_array_equal(g, np.zeros(len(batch)))

    def test_matches_value_from_full_step(self):
        model = make_model(np.random.default_rng(7))
        batch = make_batch(np.random.default_rng(8))
        cfg = mx.MixConfig(policy="amp", epsilon=0.002)
        with ad.Tape():
            total, bundle = amp.amp_step(model, batch, cfg, np.random.default_rng(9))
        assert np.abs(bundle.grad_lambda).max() <= 1.0
        assert bundle.lambda_prime.shape == bundle.lam.shape


class TestPrunedAscent:
    """The ascent walks only the nodes downstream of the lambda leaf."""

    @pytest.mark.parametrize("layer", ["sent", "word"])
    @pytest.mark.parametrize("backbone", ["embed-mlp", "text-cnn"])
    def test_lambda_gradient_bitwise_equal_to_full_walk(self, backbone, layer):
        model = make_model(np.random.default_rng(70), dropout=0.3, backbone=backbone)
        batch = make_batch(np.random.default_rng(71))
        cfg = mx.MixConfig(policy="amp", layer=layer)
        params = list(model.trainable_params().values())
        with ad.Tape() as tape:
            _, lam_leaf, loss = mx.rand_op(
                model, batch, cfg, np.random.default_rng(72), np.random.default_rng(73)
            )
            total = ad.reduce_sum(loss)
        (pruned,) = ad.backward(tape, total, [lam_leaf])
        pruned_visits = tape.last_visit_count
        full = ad.backward(tape, total, [lam_leaf, *params])[0]
        assert np.array_equal(pruned, full)
        assert pruned_visits < tape.last_visit_count == len(tape)

    def run_ascent(self, monkeypatch, backbone, layer):
        """(op name, input adjoints) of each backward run during grad_lambda
        of one amp step."""
        ran = []
        original = amp.grad_lambda

        def traced_grad_lambda(tape, loss_sum, lam_leaf):
            for node in tape.nodes:
                def fn(g, node=node, clean=node.backward_fn):
                    grads = clean(g)
                    ran.append((node.op, grads))
                    return grads
                node.backward_fn = fn
            return original(tape, loss_sum, lam_leaf)

        monkeypatch.setattr(amp, "grad_lambda", traced_grad_lambda)
        model = make_model(np.random.default_rng(74), dropout=0.3, backbone=backbone)
        batch = make_batch(np.random.default_rng(75))
        cfg = mx.MixConfig(policy="amp", layer=layer)
        with ad.Tape() as tape:
            total, _ = amp.amp_step(
                model, batch, cfg, np.random.default_rng(76), np.random.default_rng(77)
            )
        return model, tape, total, ran

    def test_text_cnn_sent_ascent_runs_no_conv_backward(self, monkeypatch):
        calls = []
        conv_backward = ad._conv_backward

        def counting(*args):
            calls.append(1)
            return conv_backward(*args)

        monkeypatch.setattr(ad, "_conv_backward", counting)
        model, tape, total, _ = self.run_ascent(monkeypatch, "text-cnn", "sent")
        assert calls == []
        # the final backward still differentiates the filters, the whole
        # bank in one node
        ad.backward(tape, total, model.trainable_params().values())
        assert len(calls) == 1

    def test_embed_mlp_word_ascent_runs_no_scatter(self, monkeypatch):
        # both endpoints are pooled from the table before the mix, so the
        # ascent starts at the pooled rows and never reaches the table
        _, _, _, ran = self.run_ascent(monkeypatch, "embed-mlp", "word")
        assert ran
        scatters = {"embedding_lookup", "embedding_mean", "gather_rows", "mean_pool_batch"}
        assert not scatters & {op for op, _ in ran}

    def test_text_cnn_word_ascent_forms_no_filter_adjoint(self, monkeypatch):
        # the ascent asks only for lambda, so the conv forms the adjoint of
        # its mixed input but not the bank's; the final walk forms both
        needs, stage = [], ["final"]
        conv_backward, grad_lambda = ad._conv_backward, amp.grad_lambda

        def recording(*args):
            needs.append((stage[0], args[-2:]))  # (need_x, need_f)
            return conv_backward(*args)

        def ascent(*args):
            stage[0] = "ascent"
            try:
                return grad_lambda(*args)
            finally:
                stage[0] = "final"

        monkeypatch.setattr(ad, "_conv_backward", recording)
        monkeypatch.setattr(amp, "grad_lambda", ascent)
        model, tape, total, _ = self.run_ascent(monkeypatch, "text-cnn", "word")
        assert needs == [("ascent", (True, False))]
        ad.backward(tape, total, model.trainable_params().values())
        # the random and the re-scored pass each record one conv node
        assert needs[1:] == [("final", (True, True))] * 2

    def test_embed_mlp_sent_ascent_forms_no_weight_adjoint(self, monkeypatch):
        _, _, _, ran = self.run_ascent(monkeypatch, "embed-mlp", "sent")
        matmuls = [grads for op, grads in ran if op == "matmul"]
        assert matmuls
        assert all(ga is not None and gb is None for ga, gb in matmuls)


class TestRecomputeLoss:
    def test_unchanged_lambda_reproduces_loss_bitwise(self):
        model = make_model(np.random.default_rng(10), dropout=0.3)
        batch = make_batch(np.random.default_rng(11))
        cfg = mx.MixConfig(policy="amp")
        with ad.Tape():
            pairs, lam_leaf, loss = mx.rand_op(
                model, batch, cfg, np.random.default_rng(12), np.random.default_rng(13)
            )
            again = amp.recompute_loss(model, pairs, lam_leaf, lam_leaf.data)
        np.testing.assert_array_equal(again.data, loss.data)

    def test_identical_endpoints_make_perturbation_inert(self):
        model = make_model(np.random.default_rng(14))
        batch = make_batch(np.random.default_rng(15))
        # pair every row with itself, so g_i == g_j and y_i == y_j
        lam_leaf = ad.Tensor(
            mx.sample_lambda(1.0, len(batch), np.random.default_rng(16)), requires_grad=True
        )
        with ad.Tape():
            pairs = mx.pair_up(model, batch, "sent", np.arange(len(batch)))
            loss = mx.score(model, pairs, lam_leaf, lam_leaf)
            moved = amp.recompute_loss(model, pairs, lam_leaf, np.clip(lam_leaf.data + 0.3, 0, 1))
        np.testing.assert_allclose(moved.data, loss.data, rtol=1e-12)


class TestAmpStep:
    def run_step(self, seed=20, epsilon=0.002, dropout=0.0, policy="amp", **cfg_kwargs):
        model = make_model(np.random.default_rng(seed), dropout=dropout)
        batch = make_batch(np.random.default_rng(seed + 1))
        cfg = mx.MixConfig(policy=policy, epsilon=epsilon, **cfg_kwargs)
        with ad.Tape() as tape:
            total, bundle = amp.amp_step(
                model, batch, cfg, np.random.default_rng(seed + 2),
                np.random.default_rng(seed + 3),
            )
        return model, tape, total, bundle

    def test_final_loss_is_elementwise_max(self):
        _, _, total, bundle = self.run_step()
        np.testing.assert_array_equal(bundle.loss_final, np.maximum(bundle.loss, bundle.loss_prime))
        np.testing.assert_array_equal(bundle.mask, (bundle.delta > 0.0).astype(float))
        assert total.data == pytest.approx(bundle.loss_final.mean(), rel=1e-15)

    def test_perturbation_contract(self):
        _, _, _, bundle = self.run_step()
        assert np.abs(bundle.grad_lambda).max() <= 1.0
        assert np.abs(bundle.lambda_prime - bundle.lam).max() <= 0.002 + 1e-15
        assert bundle.lambda_prime.min() >= 0.0
        assert bundle.lambda_prime.max() <= 1.0

    def test_zero_epsilon_collapses_to_plain_interpolation(self):
        _, _, total, bundle = self.run_step(epsilon=0.0, dropout=0.4)
        np.testing.assert_array_equal(bundle.loss_prime, bundle.loss)
        np.testing.assert_array_equal(bundle.mask, np.zeros_like(bundle.mask))
        np.testing.assert_array_equal(bundle.loss_final, bundle.loss)
        # bitwise-identical to the expression the plain policy uses
        assert float(total.data) == bundle.loss.sum() * (1.0 / bundle.loss.size)

    def test_maxop_keeps_perturbed_branch(self):
        _, _, _, bundle = self.run_step(policy="maxop")
        np.testing.assert_array_equal(bundle.mask, np.ones_like(bundle.mask))
        np.testing.assert_array_equal(bundle.loss_final, bundle.loss_prime)

    def test_mean_final_loss_never_below_mean_loss(self):
        for seed in range(30, 40):
            _, _, total, bundle = self.run_step(seed=seed)
            assert float(total.data) >= bundle.loss.mean() - 1e-15

    def test_needs_active_tape(self):
        model = make_model(np.random.default_rng(40))
        batch = make_batch(np.random.default_rng(41))
        with pytest.raises(RuntimeError, match="tape"):
            amp.amp_step(model, batch, mx.MixConfig(policy="amp"), np.random.default_rng(42))

    @pytest.mark.parametrize(
        "field, value", [("alpha", float("nan")), ("layer", "char"), ("epsilon", float("nan"))]
    )
    def test_direct_caller_gets_bad_setting_rejected(self, field, value):
        # the step does not validate its config; the function that uses
        # each setting rejects a bad value on its own
        with pytest.raises(ValueError, match=field):
            self.run_step(**{field: value})

    def test_backward_reaches_every_trainable_param(self):
        model, tape, total, _ = self.run_step()
        params = model.trainable_params()
        for (name, p), grad in zip(params.items(), ad.backward(tape, total, params.values())):
            assert grad is not None and grad.shape == p.shape and np.isfinite(grad).all(), name

    def test_ascent_direction_raises_loss_on_average(self):
        # the perturbed coefficient should not sit below the original loss:
        # across many steps the mean of L' - L stays positive; lambda is
        # drawn from a uniform on [0.05, 0.95], so no step starts clamped
        deltas = []
        rng_pool = np.random.default_rng(50)
        for _ in range(200):
            seeds = rng_pool.integers(0, 2**31, size=4)
            model = make_model(np.random.default_rng(seeds[0]))
            batch = make_batch(np.random.default_rng(seeds[1]))
            lam = np.random.default_rng(seeds[2]).uniform(0.05, 0.95, len(batch))
            lam_leaf = ad.Tensor(lam, requires_grad=True)
            with ad.Tape() as tape:
                j = mx.pair_batch(len(batch), np.random.default_rng(seeds[3]))
                pairs = mx.pair_up(model, batch, "sent", j)
                loss = mx.score(model, pairs, lam_leaf, lam_leaf)
                g_lam = amp.clip_grad(amp.grad_lambda(tape, ad.reduce_sum(loss), lam_leaf))
                lam_prime = amp.perturb_lambda(lam, g_lam, 0.01)
                loss_prime = amp.recompute_loss(model, pairs, lam_leaf, lam_prime)
            deltas.append(np.mean(loss_prime.data - loss.data))
        assert np.mean(deltas) > 0.0

    def test_label_weights_keep_original_lambda(self):
        # move lambda' far from lambda by hand; if label weights followed
        # lambda', the losses at both interpolants of a label-flipped pair
        # would swap rather than shift
        model = make_model(np.random.default_rng(60))
        batch = make_batch(np.random.default_rng(61))
        cfg = mx.MixConfig(policy="amp")
        with ad.Tape():
            pairs, lam_leaf, _ = mx.rand_op(model, batch, cfg, np.random.default_rng(62))
            flipped = 1.0 - lam_leaf.data
            swapped = amp.recompute_loss(model, pairs, lam_leaf, flipped)
            relabeled = mx.score(model, pairs, flipped, flipped)
        # same features, different label weights: the two must disagree
        # whenever the pair's labels differ
        differs = pairs.y_i != pairs.y_j
        assert np.abs(swapped.data - relabeled.data)[differs].max() > 1e-6


class TestExperimentConfigAsMixConfig:
    """The harness passes its whole config to the step; only the mixing fields count."""

    @pytest.mark.parametrize("layer", ["sent", "word"])
    def test_step_bitwise_equal_under_either_config(self, layer):
        full = hz.ExperimentConfig(
            policy="amp", alpha=0.5, epsilon=0.3, layer=layer, backbone="text-cnn", max_steps=7
        )
        mix = mx.MixConfig(
            **{f.name: getattr(full, f.name) for f in dataclasses.fields(mx.MixConfig)}
        )
        model = make_model(np.random.default_rng(80), dropout=0.3, backbone="text-cnn")
        batch = make_batch(np.random.default_rng(81))
        runs = []
        for cfg in (full, mix):
            rng, dropout_rng = np.random.default_rng(82), np.random.default_rng(83)
            with ad.Tape():
                total, bundle = amp.amp_step(model, batch, cfg, rng, dropout_rng)
            with ad.Tape():
                _, lam_leaf, loss = mx.rand_op(model, batch, cfg, rng, dropout_rng)
            values = [total.data, lam_leaf.data, loss.data]
            values += [getattr(bundle, f.name) for f in dataclasses.fields(amp.LossBundle)]
            values += [bundle.delta, bundle.loss_final]
            states = (rng.bit_generator.state, dropout_rng.bit_generator.state)
            runs.append(([np.asarray(v).tobytes() for v in values], states))
        assert runs[0] == runs[1]


class TestLossBundle:
    @pytest.mark.parametrize("policy", ["none", "mixup", "amp", "maxop"])
    def test_derived_fields_match_the_tape_bitwise(self, policy):
        # the objective is scale(reduce_sum(selected)); the selected loss is
        # final_loss's output under amp and maxop, L under none and mixup
        model = make_model(np.random.default_rng(90), dropout=0.3)
        batch = make_batch(np.random.default_rng(91), n=16)
        cfg = hz.ExperimentConfig(policy=policy, epsilon=0.3)
        with ad.Tape() as tape:
            total, bundle = hz.policy_step(
                model, batch, cfg, np.random.default_rng(92), np.random.default_rng(93)
            )
        (summed,) = tape.nodes[-1].inputs
        assert tape.nodes[-1].output is total and tape.nodes[-2].output is summed
        (selected,) = tape.nodes[-2].inputs
        assert bundle.loss_final.tobytes() == selected.data.tobytes()
        assert bundle.delta.tobytes() == (bundle.loss_prime - bundle.loss).tobytes()
        if policy in ("amp", "maxop"):
            assert tape.nodes[-3].op == "lerp" and tape.nodes[-3].output is selected
        else:
            assert selected.data is bundle.loss
        assert len(dataclasses.fields(amp.LossBundle)) == 6
