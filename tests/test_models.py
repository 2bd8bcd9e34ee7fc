"""Backbone construction, split-forward consistency, embedding file parsing."""

import re

import numpy as np
import pytest

from admix import autodiff as ad
from admix import data as dt
from admix import gradcheck as gk
from admix import models


def make_batch(rng, n=4, max_len=8, vocab=20, num_classes=3):
    ids = rng.integers(0, vocab, size=(n, max_len))
    vls = rng.integers(1, max_len + 1, size=n)
    return models.Batch(ids, vls, rng.integers(0, num_classes, size=n))


class TestInit:
    def test_embed_mlp_param_count(self):
        rng = np.random.default_rng(0)
        m = models.init_embed_mlp(10, 4, 8, 2, rng)
        # embedding 10*4, hidden dense 4*8+8, output dense 8*2+2
        assert sum(p.data.size for p in m.params.values()) == 10 * 4 + (4 * 8 + 8) + (8 * 2 + 2) == 98
        assert m.sent_dim == 8
        assert set(m.params) == {"embed", "w_hidden", "b_hidden", "w_out", "b_out"}
        np.testing.assert_array_equal(m.params["b_hidden"].data, np.zeros(8))
        assert np.abs(m.params["embed"].data).max() <= 0.1

    def test_text_cnn_dimensions(self):
        rng = np.random.default_rng(0)
        m = models.init_text_cnn(30, 6, (3, 4, 5), 16, 4, rng)
        assert m.sent_dim == 3 * 16 == 48
        expected = 30 * 6 + sum(w * 6 * 16 for w in (3, 4, 5)) + 48 * 4 + 4
        assert sum(p.data.size for p in m.params.values()) == expected
        assert m.dropout == 0.5

    def test_same_seed_same_params(self):
        a = models.init_text_cnn(30, 6, (2, 3), 5, 3, np.random.default_rng(9))
        b = models.init_text_cnn(30, 6, (2, 3), 5, 3, np.random.default_rng(9))
        for k in a.params:
            np.testing.assert_array_equal(a.params[k].data, b.params[k].data)

    def test_invalid_configs_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            models.init_embed_mlp(10, 4, 8, 1, rng)
        with pytest.raises(ValueError, match="filter width"):
            models.init_text_cnn(10, 4, (3, 9), 2, 3, rng, max_len=8)
        with pytest.raises(ValueError):
            models.init_text_cnn(10, 4, (), 2, 3, rng)

    @pytest.mark.parametrize("widths", [(3, 3), (2, 4, 2), (5, 3, 5, 5)])
    def test_repeated_filter_width_rejected(self, widths):
        # one conv parameter per width: a repeat would feed the same
        # filters to two feature blocks and double sent_dim
        repeated = next(w for w in widths if widths.count(w) > 1)
        with pytest.raises(ValueError, match=f"repeats width {repeated}"):
            models.init_text_cnn(10, 4, widths, 2, 3, np.random.default_rng(0))

    def test_freeze_embeddings_removes_from_trainable(self):
        m = models.init_embed_mlp(10, 4, 8, 2, np.random.default_rng(0))
        assert "embed" in m.trainable_params()
        models.freeze_embeddings(m)
        assert "embed" not in m.trainable_params()
        assert not m.params["embed"].requires_grad


class TestSplitForward:
    @pytest.mark.parametrize("kind", ["embed-mlp", "text-cnn"])
    @pytest.mark.parametrize("layer", ["word", "sent"])
    def test_split_equals_full_forward_bitwise(self, kind, layer):
        rng = np.random.default_rng(3)
        if kind == "embed-mlp":
            m = models.init_embed_mlp(20, 5, 7, 3, rng, dropout=0.5)
        else:
            m = models.init_text_cnn(20, 5, (2, 3), 4, 3, rng)
        batch = make_batch(np.random.default_rng(4), max_len=6)
        mask = models.make_dropout_mask(m, len(batch), np.random.default_rng(5))
        full = models.forward(m, batch, dropout_mask=mask)
        cut, tensor = models.forward_to_layer(m, batch, layer)
        split = models.forward_from_layer(m, cut, tensor, dropout_mask=mask)
        np.testing.assert_array_equal(full.data, split.data)

    def test_word_hidden_shape_and_lengths(self):
        # embed-mlp's word cut is the pooled cut: each row's word vectors
        # averaged over its valid length; text-cnn's is the word grid
        rng = np.random.default_rng(3)
        mlp = models.init_embed_mlp(20, 5, 7, 3, rng)
        cnn = models.init_text_cnn(20, 5, (2, 3), 4, 3, rng)
        batch = make_batch(np.random.default_rng(4), n=3, max_len=6)
        batch.valid_lens = np.array([1, 6, 4])
        cut, pooled = models.forward_to_layer(mlp, batch, "word")
        assert cut == models.POOLED and pooled.shape == (3, 5)
        grid = mlp.params["embed"].data[batch.token_ids]
        for s, n_valid in enumerate(batch.valid_lens):
            np.testing.assert_allclose(pooled.data[s], grid[s, :n_valid].mean(axis=0), rtol=1e-12)
        table_pool = ad.mean_pool_batch(ad.Tensor(grid), batch.valid_lens)
        np.testing.assert_array_equal(pooled.data, table_pool.data)
        cut, tensor = models.forward_to_layer(cnn, batch, "word")
        assert cut == "word" and tensor.shape == (3, 6, 5)
        np.testing.assert_array_equal(tensor.data, cnn.params["embed"].data[batch.token_ids])

    def test_sent_hidden_has_no_lengths(self):
        # a cut point is a (cut, tensor) pair and nothing more
        m = models.init_embed_mlp(20, 5, 7, 3, np.random.default_rng(3))
        batch = make_batch(np.random.default_rng(4))
        cut, tensor = models.forward_to_layer(m, batch, "sent")
        assert cut == "sent"
        assert tensor.shape == (len(batch), 7)

    def test_zero_sent_hidden_gives_bias_logits(self):
        m = models.init_embed_mlp(20, 5, 7, 3, np.random.default_rng(3))
        m.params["b_out"].data = np.array([0.5, -1.0, 2.0])
        logits = models.forward_from_layer(m, "sent", ad.Tensor(np.zeros((4, 7))))
        np.testing.assert_array_equal(logits.data, np.tile([0.5, -1.0, 2.0], (4, 1)))

    def test_unknown_layer_rejected(self):
        m = models.init_embed_mlp(20, 5, 7, 3, np.random.default_rng(3))
        batch = make_batch(np.random.default_rng(4))
        with pytest.raises(ValueError, match="unknown layer"):
            models.forward_to_layer(m, batch, "pixel")

    @pytest.mark.parametrize(
        "kind, cut",
        [("embed-mlp", "word"), ("embed-mlp", "pixel"), ("text-cnn", models.POOLED), ("text-cnn", "pixel")],
    )
    def test_a_cut_the_backbone_cannot_resume_from_is_named(self, kind, cut):
        # each backbone with the other backbone's cut, and with an unknown one
        rng = np.random.default_rng(3)
        if kind == "embed-mlp":
            m = models.init_embed_mlp(20, 5, 7, 3, rng)
            tensor = ad.Tensor(rng.random((4, 8, 5)))
        else:
            m = models.init_text_cnn(20, 5, (2, 3), 4, 3, rng)
            tensor = ad.Tensor(rng.random((4, 5)))
        with pytest.raises(ValueError, match=f"^{kind} cannot resume from cut '{cut}'$"):
            models.forward_from_layer(m, cut, tensor)

    def test_dropout_mask_shape_checked(self):
        m = models.init_embed_mlp(20, 5, 7, 3, np.random.default_rng(3))
        batch = make_batch(np.random.default_rng(4))
        with pytest.raises(ValueError, match="dropout mask"):
            models.forward(m, batch, dropout_mask=np.ones((len(batch), 9)))

    def test_cnn_rejects_sequences_shorter_than_widest_filter(self):
        m = models.init_text_cnn(20, 5, (4,), 3, 3, np.random.default_rng(3))
        batch = make_batch(np.random.default_rng(4), max_len=3)
        with pytest.raises(ValueError, match="shorter"):
            models.forward(m, batch)


class TestGradients:
    def test_embed_mlp_param_gradients_match_finite_differences(self):
        rng = np.random.default_rng(12)
        m = models.init_embed_mlp(15, 4, 6, 3, rng)
        batch = make_batch(np.random.default_rng(13), n=5, max_len=6, vocab=15)

        for name in m.params:
            param = m.params[name]

            def loss_fn(t):
                saved = m.params[name]
                m.params[name] = t
                t.requires_grad = True
                logits = models.forward(m, batch)
                out = ad.scale(
                    ad.reduce_sum(ad.softmax_cross_entropy(logits, batch.label_ids)),
                    1.0 / len(batch),
                )
                m.params[name] = saved
                return out

            err = gk.finite_diff_check(loss_fn, ad.Tensor(param.data, requires_grad=True))
            assert err <= 1e-4, f"{name}: {err}"

    def test_text_cnn_param_gradients_match_finite_differences(self):
        # Uniform(-0.1, 0.1) init keeps conv preactivations near the relu
        # kink, so scale the parameters up and verify the margins that make
        # central differences valid.
        rng = np.random.default_rng(14)
        m = models.init_text_cnn(15, 4, (2, 3), 3, 3, rng, dropout=0.0)
        for p in m.params.values():
            p.data = p.data * 30.0
        batch = make_batch(np.random.default_rng(18), n=3, max_len=6, vocab=15)
        grid = m.params["embed"].data[batch.token_ids]
        for w in m.filter_widths:
            f = m.params[f"conv{w}"].data
            t_out = grid.shape[1] - w + 1
            pre = np.zeros((grid.shape[0], t_out, f.shape[2]))
            for u in range(w):
                pre += grid[:, u : u + t_out, :] @ f[u]
            assert np.abs(pre).min() > 1e-3
            act = np.maximum(pre, 0.0)
            top2 = np.sort(act, axis=1)[:, -2:, :]
            gap = top2[:, 1, :] - top2[:, 0, :]
            # an all-clipped channel pools to exactly 0, which is smooth
            assert np.all((gap > 1e-3) | (top2[:, 1, :] == 0.0))

        for name in m.params:
            param = m.params[name]

            def loss_fn(t):
                saved = m.params[name]
                m.params[name] = t
                t.requires_grad = True
                logits = models.forward(m, batch)
                out = ad.scale(
                    ad.reduce_sum(ad.softmax_cross_entropy(logits, batch.label_ids)),
                    1.0 / len(batch),
                )
                m.params[name] = saved
                return out

            err = gk.finite_diff_check(loss_fn, ad.Tensor(param.data, requires_grad=True))
            assert err <= 1e-4, f"{name}: {err}"


class TestDropoutMask:
    def test_disabled_when_rate_zero_or_eval(self):
        m = models.init_embed_mlp(10, 4, 8, 2, np.random.default_rng(0))
        assert models.make_dropout_mask(m, 5, np.random.default_rng(1)) is None
        m.dropout = 0.5
        assert models.make_dropout_mask(m, 5, None) is None

    def test_mask_values_and_determinism(self):
        m = models.init_embed_mlp(10, 4, 8, 2, np.random.default_rng(0), dropout=0.4)
        mask = models.make_dropout_mask(m, 50, np.random.default_rng(7))
        assert mask.shape == (50, 8)
        keep = 1.0 - 0.4
        assert set(np.round(np.unique(mask), 12)) <= {0.0, round(1.0 / keep, 12)}
        again = models.make_dropout_mask(m, 50, np.random.default_rng(7))
        np.testing.assert_array_equal(mask, again)


class TestPretrainedEmbeddings:
    def load(self, path, dim, seed=0):
        tokens = ["<pad>", "<unk>", "cat", "dog"]
        vocab = dt.Vocab({t: i for i, t in enumerate(tokens)})
        return models.load_pretrained_embeddings(path, vocab, dim, np.random.default_rng(seed))

    def test_matching_tokens_take_file_vectors(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("cat 1.0 2.0 3.0\ndog 4.0 5.0 6.0\nzebra 7.0 8.0 9.0\n")
        table = self.load(path, 3, seed=2)
        assert table.shape == (4, 3)
        np.testing.assert_array_equal(table.data[2], [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(table.data[3], [4.0, 5.0, 6.0])
        # absent tokens keep random init inside the usual range
        assert np.abs(table.data[0]).max() <= 0.1
        assert np.abs(table.data[1]).max() <= 0.1

    def test_dimension_mismatch_names_line(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("cat 1.0 2.0 3.0\ndog 4.0 5.0\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: line 2: expected 3 components")):
            self.load(path, 3)

    def test_non_numeric_component_names_line(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("cat 1.0 2.0 3.0\ndog 4.0 x 6.0\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: line 2: could not convert")):
            self.load(path, 3)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN", "1e999"])
    def test_non_finite_component_names_line(self, tmp_path, bad):
        # zebra is not in the vocabulary: a bad line is rejected all the same
        path = tmp_path / "vecs.txt"
        path.write_text(f"cat 1.0 2.0 3.0\nzebra 4.0 {bad} 6.0\n")
        message = f"{path}: line 2: non-finite component in the vector of 'zebra'"
        with pytest.raises(ValueError, match=re.escape(message)):
            self.load(path, 3)

    def test_token_without_components_names_file(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("\ncat\n")
        message = f"{path}: line 2: expected 3 components (embed_dim), got 0"
        with pytest.raises(ValueError, match=re.escape(message)):
            self.load(path, 3)

    def test_empty_file_warns_and_returns_none(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("\n\n")
        with pytest.warns(UserWarning, match="random init"):
            assert self.load(path, 3) is None

    def test_duplicate_token_last_occurrence_wins(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("cat 1.0 1.0\ncat 9.0 9.0\n")
        table = self.load(path, 2)
        np.testing.assert_array_equal(table.data[2], [9.0, 9.0])

    def test_deterministic_given_rng(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("cat 1.0 2.0\n")
        t1 = self.load(path, 2, seed=5)
        t2 = self.load(path, 2, seed=5)
        np.testing.assert_array_equal(t1.data, t2.data)
