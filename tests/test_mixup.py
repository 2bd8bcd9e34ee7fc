"""Sampler, pairing, interpolation, and loss-weighting behavior."""

import numpy as np
import pytest

from admix import amp
from admix import autodiff as ad
from admix import gradcheck as gk
from admix import harness as hz
from admix import mixup as mx
from admix import models


def make_batch(rng, n=6, max_len=7, vocab=25, num_classes=3):
    ids = rng.integers(0, vocab, size=(n, max_len))
    vls = rng.integers(1, max_len + 1, size=n)
    return models.Batch(ids, vls, rng.integers(0, num_classes, size=n))


def make_model(rng, dropout=0.0):
    return models.init_embed_mlp(25, 5, 6, 3, rng, dropout=dropout)


class TestSampleLambda:
    def test_draws_live_in_unit_interval(self):
        rng = np.random.default_rng(0)
        for alpha in (0.2, 0.5, 1.0, 1.5):
            draws = mx.sample_lambda(alpha, 2000, rng)
            assert draws.min() >= 0.0 and draws.max() <= 1.0

    def test_symmetric_mean_near_half(self):
        rng = np.random.default_rng(1)
        draws = mx.sample_lambda(1.0, 10_000, rng)
        assert 0.48 <= draws.mean() <= 0.52

    def test_variance_tracks_concentration(self):
        # Beta(a, a) variance is 1 / (4 * (2a + 1))
        rng = np.random.default_rng(2)
        for alpha in (0.2, 1.0, 1.5):
            draws = mx.sample_lambda(alpha, 20_000, rng)
            expected = 1.0 / (4.0 * (2.0 * alpha + 1.0))
            assert abs(draws.var() - expected) <= 0.15 * expected
        wide = mx.sample_lambda(0.2, 10_000, np.random.default_rng(3)).var()
        tight = mx.sample_lambda(1.5, 10_000, np.random.default_rng(3)).var()
        assert wide > tight

    def test_deterministic_under_seed(self):
        a = mx.sample_lambda(0.7, 50, np.random.default_rng(9))
        b = mx.sample_lambda(0.7, 50, np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)

    def test_bad_arguments(self):
        rng = np.random.default_rng(0)
        for alpha in (0.0, -1.0, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="alpha"):
                mx.sample_lambda(alpha, 5, rng)
        with pytest.raises(ValueError):
            mx.sample_lambda(1.0, 0, rng)


class TestPairBatch:
    def test_is_permutation(self):
        rng = np.random.default_rng(4)
        for n in (1, 2, 3, 17, 64):
            perm = mx.pair_batch(n, rng)
            np.testing.assert_array_equal(np.sort(perm), np.arange(n))

    def test_single_row_pairs_with_itself(self):
        np.testing.assert_array_equal(mx.pair_batch(1, np.random.default_rng(0)), [0])

    def test_permutations_roughly_uniform(self):
        rng = np.random.default_rng(5)
        counts = {}
        trials = 3000
        for _ in range(trials):
            key = tuple(mx.pair_batch(3, rng))
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 6
        for key, count in counts.items():
            assert 0.12 <= count / trials <= 0.21, (key, count)

    def test_matches_scalar_draw_loop_and_generator_state(self):
        def scalar_draws(n, rng):
            perm = np.arange(n)
            for i in range(n - 1, 0, -1):
                j = int(rng.integers(0, i + 1))
                perm[i], perm[j] = perm[j], perm[i]
            return perm

        for n in [*range(1, 40), 64, 257, 1000]:
            for seed in range(5):
                # a prior small draw leaves PCG64 holding a cached uint32 half
                for warm in (False, True):
                    fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
                    if warm:
                        fast.integers(0, 5)
                        slow.integers(0, 5)
                    perm = mx.pair_batch(n, fast)
                    np.testing.assert_array_equal(perm, scalar_draws(n, slow))
                    assert perm.dtype == np.arange(n).dtype
                    assert fast.bit_generator.state == slow.bit_generator.state, (n, seed, warm)

    def test_deterministic_under_seed(self):
        a = mx.pair_batch(10, np.random.default_rng(7))
        b = mx.pair_batch(10, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)


class TestLerp:
    """``ad.lerp``, the op that mixes a pairing's hidden states."""

    def test_endpoints_reproduce_inputs_bitwise(self):
        rng = np.random.default_rng(10)
        g_i = ad.Tensor(rng.standard_normal((4, 5)))
        g_j = ad.Tensor(rng.standard_normal((4, 5)))
        at_one = ad.lerp(g_i, g_j, ad.Tensor(np.ones(4)))
        np.testing.assert_array_equal(at_one.data, g_i.data)
        at_zero = ad.lerp(g_i, g_j, ad.Tensor(np.zeros(4)))
        np.testing.assert_array_equal(at_zero.data, g_j.data)

    def test_midpoint_is_average(self):
        g_i = ad.Tensor([[2.0, 4.0]])
        g_j = ad.Tensor([[0.0, 0.0]])
        out = ad.lerp(g_i, g_j, ad.Tensor([0.5]))
        np.testing.assert_array_equal(out.data, [[1.0, 2.0]])

    def test_broadcasts_over_word_grid(self):
        rng = np.random.default_rng(11)
        g_i = ad.Tensor(rng.standard_normal((3, 6, 4)))
        g_j = ad.Tensor(rng.standard_normal((3, 6, 4)))
        lam = np.array([0.25, 0.5, 0.75])
        out = ad.lerp(g_i, g_j, ad.Tensor(lam))
        expected = lam[:, None, None] * g_i.data + (1 - lam)[:, None, None] * g_j.data
        np.testing.assert_allclose(out.data, expected, rtol=1e-15)

    def test_gradient_in_lambda_is_feature_difference(self):
        rng = np.random.default_rng(12)
        g_i = ad.Tensor(rng.standard_normal((4, 5)))
        g_j = ad.Tensor(rng.standard_normal((4, 5)))
        w = rng.standard_normal((4, 5))
        lam = ad.Tensor(rng.random(4), requires_grad=True)
        with ad.Tape() as tape:
            y = ad.reduce_sum(ad.mul(ad.lerp(g_i, g_j, lam), ad.Tensor(w)))
        (grad,) = ad.backward(tape, y, [lam])
        np.testing.assert_allclose(grad, (w * (g_i.data - g_j.data)).sum(axis=1), rtol=1e-12)
        err = gk.finite_diff_check(
            lambda t: ad.reduce_sum(ad.mul(ad.lerp(g_i, g_j, t), ad.Tensor(w))),
            ad.Tensor(rng.random(4), requires_grad=True),
            h=1e-6,
        )
        assert err <= 1e-6

    def test_shape_mismatches_rejected(self):
        g_i = ad.Tensor(np.zeros((4, 5)))
        with pytest.raises(ValueError, match="differ"):
            ad.lerp(g_i, ad.Tensor(np.zeros((4, 6))), ad.Tensor(np.ones(4)))
        with pytest.raises(ValueError, match="shape"):
            ad.lerp(g_i, ad.Tensor(np.zeros((4, 5))), ad.Tensor(np.ones(3)))


class TestPairCrossEntropy:
    """``ad.pair_cross_entropy``, the loss of a mixed pairing."""

    def test_equals_cross_entropy_against_mixed_rows(self):
        rng = np.random.default_rng(15)
        logits = ad.Tensor(rng.standard_normal((6, 4)))
        y_i, y_j = rng.integers(0, 4, 6), rng.integers(0, 4, 6)
        lam = rng.random(6)
        weighted = ad.pair_cross_entropy(logits, y_i, y_j, lam).data
        mixed_rows = np.eye(4)[y_i] * lam[:, None] + np.eye(4)[y_j] * (1.0 - lam[:, None])
        shifted = logits.data - logits.data.max(axis=1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        direct = -(mixed_rows * log_probs).sum(axis=1)
        np.testing.assert_allclose(weighted, direct, rtol=1e-12, atol=1e-12)

    def test_lambda_one_recovers_plain_loss_bitwise(self):
        rng = np.random.default_rng(16)
        logits = ad.Tensor(rng.standard_normal((5, 3)))
        y_i, y_j = rng.integers(0, 3, 5), rng.integers(0, 3, 5)
        loss = ad.pair_cross_entropy(logits, y_i, y_j, np.ones(5)).data
        plain = ad.softmax_cross_entropy(logits, y_i).data
        np.testing.assert_array_equal(loss, plain)

    def test_swap_symmetry(self):
        rng = np.random.default_rng(17)
        logits = ad.Tensor(rng.standard_normal((5, 3)))
        y_i, y_j = rng.integers(0, 3, 5), rng.integers(0, 3, 5)
        lam = rng.random(5)
        a = ad.pair_cross_entropy(logits, y_i, y_j, lam).data
        b = ad.pair_cross_entropy(logits, y_j, y_i, 1.0 - lam).data
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)

    def test_lambda_gradient_through_label_weights(self):
        # with fixed logits, d loss / d lambda reduces to ce_i - ce_j
        rng = np.random.default_rng(18)
        logits = ad.Tensor(rng.standard_normal((5, 3)))
        y_i, y_j = rng.integers(0, 3, 5), rng.integers(0, 3, 5)
        lam = ad.Tensor(rng.random(5), requires_grad=True)
        with ad.Tape() as tape:
            y = ad.reduce_sum(ad.pair_cross_entropy(logits, y_i, y_j, lam))
        (grad,) = ad.backward(tape, y, [lam])
        ce_i = ad.softmax_cross_entropy(logits, y_i).data
        ce_j = ad.softmax_cross_entropy(logits, y_j).data
        np.testing.assert_allclose(grad, ce_i - ce_j, rtol=1e-12)


class TestRandOp:
    def test_lambda_one_matches_unmixed_forward(self):
        model = make_model(np.random.default_rng(20))
        batch = make_batch(np.random.default_rng(21))
        j = mx.pair_batch(len(batch), np.random.default_rng(22))
        pairs = mx.pair_up(model, batch, "sent", j)
        ones = np.ones(len(batch))
        loss = mx.score(model, pairs, ones, ones)
        plain_loss = ad.softmax_cross_entropy(models.forward(model, batch), batch.label_ids)
        np.testing.assert_array_equal(loss.data, plain_loss.data)

    def test_deterministic_under_seed(self):
        model = make_model(np.random.default_rng(20))
        batch = make_batch(np.random.default_rng(21))
        cfg = mx.MixConfig()
        p1, lam1, l1 = mx.rand_op(model, batch, cfg, np.random.default_rng(5))
        p2, lam2, l2 = mx.rand_op(model, batch, cfg, np.random.default_rng(5))
        np.testing.assert_array_equal(p1.y_j, p2.y_j)
        np.testing.assert_array_equal(p1.hidden_j.data, p2.hidden_j.data)
        np.testing.assert_array_equal(lam1.data, lam2.data)
        np.testing.assert_array_equal(l1.data, l2.data)

    def test_word_layer_takes_longer_valid_length(self):
        # embed-mlp pools both endpoints over the longer of the pair's lengths
        model = make_model(np.random.default_rng(20))
        batch = make_batch(np.random.default_rng(21))
        j = mx.pair_batch(len(batch), np.random.default_rng(6))
        pairs = mx.pair_up(model, batch, "word", j)
        lens = np.maximum(batch.valid_lens, batch.valid_lens[j])
        assert np.any(lens != batch.valid_lens) and np.any(lens != batch.valid_lens[j])
        grid = ad.embedding_lookup(model.params["embed"], batch.token_ids)
        for s, (i_row, j_row) in enumerate(zip(pairs.hidden_i.data, pairs.hidden_j.data)):
            np.testing.assert_allclose(i_row, grid.data[s, : lens[s]].mean(axis=0), rtol=1e-12)
            np.testing.assert_allclose(j_row, grid.data[j[s], : lens[s]].mean(axis=0), rtol=1e-12)
        # pooling from the table is bitwise the pool of the (gathered) grid
        gathered = ad.mean_pool_batch(ad.gather_rows(grid, j), lens)
        np.testing.assert_array_equal(pairs.hidden_j.data, gathered.data)
        np.testing.assert_array_equal(pairs.hidden_i.data, ad.mean_pool_batch(grid, lens).data)
        np.testing.assert_array_equal(pairs.y_j, batch.label_ids[j])
        assert pairs.layer == "word" and pairs.hidden_i.shape == (len(batch), 5)

    @pytest.mark.parametrize("layer", ["sent", "word"])
    @pytest.mark.parametrize("j", [[0, 2, 2, 3, 4, 5], [0, 1, 2, 3, 4, 6]], ids=["repeat", "range"])
    def test_rejects_a_pairing_that_is_not_a_permutation(self, j, layer):
        # the check runs before the prefix, so nothing is recorded
        model = make_model(np.random.default_rng(20))
        batch = make_batch(np.random.default_rng(21))
        with ad.Tape() as tape:
            with pytest.raises(ValueError, match="j_index must be a permutation"):
                mx.pair_up(model, batch, layer, np.array(j))
            assert tape.nodes == []

    def test_text_cnn_word_grid_is_paired_as_is(self):
        model = models.init_text_cnn(25, 5, (2, 3), 4, 3, np.random.default_rng(20))
        batch = make_batch(np.random.default_rng(21))
        j = mx.pair_batch(len(batch), np.random.default_rng(6))
        pairs = mx.pair_up(model, batch, "word", j)
        grid = models.forward_to_layer(model, batch, "word")
        np.testing.assert_array_equal(pairs.hidden_i.data, grid.data)
        np.testing.assert_array_equal(pairs.hidden_j.data, grid.data[j])
        assert pairs.layer == "word"

    def test_lambda_gradient_matches_finite_differences(self):
        model = make_model(np.random.default_rng(23))
        batch = make_batch(np.random.default_rng(24), n=4)
        sent = models.forward_to_layer(model, batch, "sent")
        j = np.array([2, 3, 0, 1])
        g_i_data = sent.data

        def loss_at(lam_t):
            g_i = ad.Tensor(g_i_data)
            g_j = ad.Tensor(g_i_data[j])
            mixed = ad.lerp(g_i, g_j, lam_t)
            logits = models.forward_from_layer(model, "sent", mixed)
            loss = ad.pair_cross_entropy(logits, batch.label_ids, batch.label_ids[j], lam_t)
            return ad.reduce_sum(loss)

        lam = ad.Tensor(np.array([0.3, 0.5, 0.62, 0.81]), requires_grad=True)
        err = gk.finite_diff_check(loss_at, lam, h=1e-6)
        assert err <= 1e-4

    @pytest.mark.parametrize("layer", ["sent", "word"])
    @pytest.mark.parametrize("backbone", ["embed-mlp", "text-cnn"])
    def test_ascent_lambda_gradient_matches_composite_bitwise(self, backbone, layer):
        # the unfused graph of one score, from mul/add/scale/reshape and
        # softmax_cross_entropy, as amp's ascent walks it; an embed-mlp
        # word pairing holds pooled rows, so the composite mixes those
        def composite_score(model, pairs, lam):
            n = lam.shape[0]
            col = ad.reshape(lam, (n,) + (1,) * (pairs.hidden_i.ndim - 1))
            mixed = ad.add(ad.mul(pairs.hidden_i, col),
                           ad.mul(pairs.hidden_j, ad.add(ad.scale(col, -1.0), 1.0)))
            logits = models.forward_from_layer(
                model, pairs.layer, mixed, dropout_mask=pairs.dropout_mask
            )
            ce_i = ad.softmax_cross_entropy(logits, pairs.y_i)
            ce_j = ad.softmax_cross_entropy(logits, pairs.y_j)
            return ad.add(ad.mul(lam, ce_i), ad.mul(ad.add(ad.scale(lam, -1.0), 1.0), ce_j))

        rng = np.random.default_rng(27)
        if backbone == "embed-mlp":
            model = make_model(rng, dropout=0.5)
        else:
            model = models.init_text_cnn(25, 5, (2, 3), 4, 3, rng, dropout=0.5)
        batch = make_batch(np.random.default_rng(28), n=7)
        j = mx.pair_batch(len(batch), np.random.default_rng(29))
        mask = models.make_dropout_mask(model, len(batch), np.random.default_rng(30))
        lam = np.random.default_rng(31).random(len(batch))
        results = []
        for score in (lambda m, p, lam: mx.score(m, p, lam, lam), composite_score):
            lam_leaf = ad.Tensor(lam, requires_grad=True)
            with ad.Tape() as tape:
                pairs = mx.pair_up(model, batch, layer, j, mask)
                loss = score(model, pairs, lam_leaf)
                results.append((loss.data, amp.grad_lambda(tape, ad.reduce_sum(loss), lam_leaf)))
        for fused, composite in zip(*results):
            np.testing.assert_array_equal(fused, composite)

    def test_lambda_gradient_matches_analytic_decomposition(self):
        # dL_s/dlam_s = (ce_i - ce_j)_s + dL/dg_hat_s . (g_i - g_j)_s
        cases = []
        for layer in ("sent", "word"):
            model = make_model(np.random.default_rng(25))
            batch = make_batch(np.random.default_rng(26), n=5)
            cases.append((layer, model, batch, np.random.default_rng(8)))
        for layer, model, batch, mix_rng in cases:
            cfg = mx.MixConfig(policy="amp", layer=layer)
            with ad.Tape() as tape:
                pairs, lam_leaf, loss = mx.rand_op(model, batch, cfg, mix_rng)
                (tape_grad,) = ad.backward(tape, ad.reduce_sum(loss), [lam_leaf])
            analytic = gk.analytic_grad_lambda(model, pairs, lam_leaf.data)
            np.testing.assert_allclose(tape_grad, analytic, rtol=1e-9, atol=1e-12)


class TestPooledWordMixing:
    """embed-mlp at ``word`` mixes pooled rows; the grid blend it replaces
    (lerp on the [n, len, d] grid, then a pool over the pair's longer
    length) is the same function up to rounding."""

    @staticmethod
    def grid_score(model, batch, j, lam, mask):
        grid = ad.embedding_lookup(model.params["embed"], batch.token_ids)
        mixed = ad.lerp(grid, ad.gather_rows(grid, j), lam)
        lens = np.maximum(batch.valid_lens, batch.valid_lens[j])
        pooled = ad.mean_pool_batch(mixed, lens)
        logits = models.forward_from_layer(model, "word", pooled, dropout_mask=mask)
        return ad.pair_cross_entropy(logits, batch.label_ids, batch.label_ids[j], lam)

    @staticmethod
    def pooled_score(model, batch, j, lam, mask):
        return mx.score(model, mx.pair_up(model, batch, "word", j, mask), lam, lam)

    @pytest.mark.parametrize("lam_kind", ["zero", "one", "beta"])
    def test_loss_and_every_gradient_match_the_grid_blend(self, lam_kind):
        model = make_model(np.random.default_rng(40), dropout=0.3)
        batch = make_batch(np.random.default_rng(41), n=7, max_len=9)
        batch.valid_lens = np.array([1, 9, 4, 6, 2, 7, 3])
        # row 0 pairs with itself; every other pair has two lengths, and the
        # two 3-cycles make a row's partner pair differ from the pair it
        # takes, so pooling the partner over the wrong pair's length shows
        j = np.array([0, 2, 3, 1, 5, 6, 4])
        assert np.all(batch.valid_lens[1:] != batch.valid_lens[j][1:])
        lens = np.maximum(batch.valid_lens, batch.valid_lens[j])
        assert not np.array_equal(lens[np.argsort(j)], lens[j])
        mask = models.make_dropout_mask(model, len(batch), np.random.default_rng(42))
        lam = {
            "zero": np.zeros(len(batch)),
            "one": np.ones(len(batch)),
            "beta": mx.sample_lambda(0.4, len(batch), np.random.default_rng(43)),
        }[lam_kind]
        params = list(model.trainable_params().values())
        results = []
        for score in (self.grid_score, self.pooled_score):
            lam_leaf = ad.Tensor(lam, requires_grad=True)
            with ad.Tape() as tape:
                loss = score(model, batch, j, lam_leaf, mask)
                grads = ad.backward(tape, ad.reduce_sum(loss), [lam_leaf, *params])
            results.append([loss.data, *grads])
        # relative to each array's largest entry: the embedding gradient
        # has exact zeros and tiny sums that rounding moves by more
        for grid, pooled in zip(*results):
            assert np.abs(pooled - grid).max() <= 1e-13 * np.abs(grid).max()

    @staticmethod
    def gathered_grid_pair_up(model, batch, layer, j_index, dropout_mask=None):
        """The pairing as it was before pooling moved into the table: look
        up the word grid, gather the partner's whole grid, then pool both
        endpoints."""
        assert layer == "word"
        grid = ad.embedding_lookup(model.params["embed"], batch.token_ids)
        lens = np.maximum(batch.valid_lens, batch.valid_lens[j_index])
        return mx.MixBatch(
            layer="word",
            hidden_i=ad.mean_pool_batch(grid, lens),
            hidden_j=ad.mean_pool_batch(ad.gather_rows(grid, j_index), lens),
            y_i=batch.label_ids,
            y_j=batch.label_ids[j_index],
            dropout_mask=dropout_mask,
        )

    @pytest.mark.parametrize("policy", ["mixup", "amp"])
    def test_step_gradients_match_the_gathered_grid_pairing_bitwise(self, policy, monkeypatch):
        model = make_model(np.random.default_rng(44), dropout=0.3)
        batch = make_batch(np.random.default_rng(45), n=7, max_len=9)
        batch.valid_lens = np.array([1, 9, 4, 4, 2, 7, 3])
        config = mx.MixConfig(policy=policy, layer="word", epsilon=0.3)
        names = list(model.trainable_params())
        params = list(model.trainable_params().values())

        def step():
            with ad.Tape() as tape:
                total, bundle = hz.policy_step(
                    model, batch, config, np.random.default_rng(46), np.random.default_rng(47)
                )
                return [total.data, bundle.loss, *ad.backward(tape, total, params)]

        pooled = step()
        monkeypatch.setattr(mx, "pair_up", self.gathered_grid_pair_up)
        gathered = step()
        for name, a, b in zip(["total", "loss", *names], pooled, gathered):
            if name == "embed":
                # the table adjoint sums over the distinct ids, in another
                # order than the scatter of the grid's adjoint
                assert np.abs(a - b).max() <= 1e-13 * np.abs(b).max()
            else:
                np.testing.assert_array_equal(a, b, err_msg=name)

    def test_pairing_records_no_word_grid(self):
        model = make_model(np.random.default_rng(40))
        batch = make_batch(np.random.default_rng(41), n=7, max_len=9)
        j = mx.pair_batch(len(batch), np.random.default_rng(6))
        with ad.Tape() as tape:
            mx.pair_up(model, batch, "word", j)
        assert [node.op for node in tape.nodes] == ["embedding_mean", "embedding_mean"]
        for node in tape.nodes:
            assert node.output.shape == (len(batch), model.params["embed"].shape[1])


class TestScore:
    @pytest.mark.parametrize("layer", ["sent", "word"])
    @pytest.mark.parametrize("backbone", ["embed-mlp", "text-cnn"])
    def test_rescoring_the_pairing_repeats_rand_op(self, backbone, layer):
        # the random pass is pair_up + score; scoring its pairing again at
        # the same leaf records the same ops from the mix on and the same
        # loss, bit for bit
        rng = np.random.default_rng(30)
        if backbone == "text-cnn":
            model = models.init_text_cnn(25, 5, (2, 3), 4, 3, rng, dropout=0.3)
        else:
            model = models.init_embed_mlp(25, 5, 6, 3, rng, dropout=0.3)
        batch = make_batch(np.random.default_rng(31))
        cfg = mx.MixConfig(layer=layer)
        with ad.Tape() as tape:
            pairs, lam_leaf, loss = mx.rand_op(
                model, batch, cfg, np.random.default_rng(32), np.random.default_rng(33)
            )
            ops = [node.op for node in tape.nodes]
            again = mx.score(model, pairs, lam_leaf, lam_leaf)
        assert pairs.dropout_mask is not None
        # a word pair's partner runs the prefix from its own token ids
        assert ops.count("gather_rows") == (0 if layer == "word" else 1)
        assert [node.op for node in tape.nodes][len(ops):] == ops[ops.index("lerp"):]
        np.testing.assert_array_equal(again.data, loss.data)


class TestMixConfig:
    def test_validation(self):
        mx.MixConfig().validate()
        mx.MixConfig(policy="maxop").validate()
        assert "maxop" not in mx.POLICIES
        with pytest.raises(ValueError, match="policy"):
            mx.MixConfig(policy="cutout").validate()
        with pytest.raises(ValueError, match="alpha"):
            mx.MixConfig(alpha=0.0).validate()
        with pytest.raises(ValueError, match="epsilon"):
            mx.MixConfig(epsilon=-0.1).validate()
        with pytest.raises(ValueError, match="layer"):
            mx.MixConfig(layer="char").validate()
