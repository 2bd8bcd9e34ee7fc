"""Gradient and contract tests for the tape engine.

Every analytic gradient is checked against an independent oracle:
central finite differences for smooth paths, and hand-computed
scatter/selector algebra where the answer is exact.
"""

import tracemalloc
import weakref

import numpy as np
import pytest

from admix import autodiff as ad
from admix import gradcheck as gk


def rand(rng, *shape):
    return rng.standard_normal(shape)


def weighted_sum(t: ad.Tensor, weights: np.ndarray) -> ad.Tensor:
    """Scalarize a tensor with fixed random weights so gradients stay generic."""
    return ad.reduce_sum(ad.mul(t, ad.Tensor(weights)))


class TestTensorAndTape:
    def test_data_is_float64(self):
        """A base float64 ndarray is kept as is; anything else is converted."""
        data = np.arange(6.0).reshape(2, 3)
        assert ad.Tensor(data).data is data
        column = data[:, 1]
        assert ad.Tensor(column).data is column  # a view is kept as well

        class Sub(np.ndarray):
            pass

        others = [
            [1, 2, 3],
            7,
            2.5,
            np.arange(4, dtype=np.float32),
            np.arange(4, dtype=np.int64),
            np.arange(4.0).astype(">f8"),
            np.arange(4.0).view(Sub),
            np.ma.masked_array(np.arange(4.0)),
        ]
        for value in others:
            t = ad.Tensor(value)
            assert type(t.data) is np.ndarray, type(value)
            assert t.data.dtype == np.float64 and t.data.dtype.isnative
            np.testing.assert_array_equal(t.data, np.asarray(value, dtype=np.float64))

    def test_no_tape_means_no_recording(self):
        x = ad.Tensor([1.0, 2.0], requires_grad=True)
        y = ad.tanh(x)
        assert ad.active_tape() is None
        assert y.shape == (2,)

    def test_ops_record_only_for_grad_paths(self):
        a = ad.Tensor([1.0, 2.0])
        b = ad.Tensor([3.0, 4.0], requires_grad=True)
        with ad.Tape() as tape:
            ad.mul(a, ad.Tensor([5.0, 6.0]))  # no grads anywhere
            ad.mul(a, b)
        assert len(tape) == 1

    def test_nested_tapes_record_to_innermost(self):
        x = ad.Tensor([1.0], requires_grad=True)
        with ad.Tape() as outer:
            ad.scale(x, 2.0)
            with ad.Tape() as inner:
                ad.scale(x, 3.0)
            ad.scale(x, 4.0)
        assert len(outer) == 2
        assert len(inner) == 1
        assert ad.active_tape() is None

    def test_a_set_wrap_wraps_every_recorded_node(self, monkeypatch):
        # each node of every tape, nested ones too, stores what the wrap made
        # for it under its OPS name; an op outside any tape calls no wrap
        made = []

        def wrap(op, backward_fn):
            def wrapped(g):
                return backward_fn(g)

            made.append((op, wrapped))
            return wrapped

        x = ad.Tensor(np.linspace(-1.0, 1.0, 6).reshape(2, 3), requires_grad=True)

        def run():
            with ad.Tape() as outer:
                h = ad.tanh(x)
                with ad.Tape() as inner:
                    y = ad.reduce_sum(ad.scale(h, 2.0))
                z = ad.reduce_sum(ad.mul(h, y))
            ad.tanh(x)
            return outer, inner, ad.backward(outer, z, [x])

        _, _, (plain,) = run()
        monkeypatch.setattr(ad.Tape, "wrap", wrap)
        outer, inner, (wrapped,) = run()
        nodes = [outer.nodes[0], *inner.nodes, *outer.nodes[1:]]  # in recording order
        assert made == [(node.op, node.backward_fn) for node in nodes]
        assert [op for op, _ in made] == ["tanh", "scale", "reduce_sum", "mul", "reduce_sum"]
        assert wrapped.tobytes() == plain.tobytes()


class TestMatmul:
    def test_shape_errors_name_both_shapes(self):
        a = ad.Tensor(np.zeros((3, 4)))
        b = ad.Tensor(np.zeros((5, 2)))
        with pytest.raises(ValueError, match=r"\(3, 4\).*\(5, 2\)"):
            ad.matmul(a, b)
        with pytest.raises(ValueError, match="2-d"):
            ad.matmul(ad.Tensor(np.zeros(3)), b)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(7)
        b_data = rand(rng, 4, 2)
        w = rand(rng, 3, 2)
        a = ad.Tensor(rand(rng, 3, 4), requires_grad=True)
        err_a = gk.finite_diff_check(
            lambda t: weighted_sum(ad.matmul(t, ad.Tensor(b_data)), w), a
        )
        assert err_a <= 1e-6
        a_data = rand(rng, 3, 4)
        b = ad.Tensor(b_data, requires_grad=True)
        err_b = gk.finite_diff_check(
            lambda t: weighted_sum(ad.matmul(ad.Tensor(a_data), t), w), b
        )
        assert err_b <= 1e-6

    def test_closed_form_gradients(self):
        rng = np.random.default_rng(8)
        a = ad.Tensor(rand(rng, 3, 4), requires_grad=True)
        b = ad.Tensor(rand(rng, 4, 2), requires_grad=True)
        w = rand(rng, 3, 2)
        with ad.Tape() as tape:
            y = weighted_sum(ad.matmul(a, b), w)
        ga, gb = ad.backward(tape, y, [a, b])
        np.testing.assert_allclose(ga, w @ b.data.T, rtol=1e-12)
        np.testing.assert_allclose(gb, a.data.T @ w, rtol=1e-12)


class TestEmbeddingLookup:
    def test_repeated_ids_accumulate(self):
        table = ad.Tensor(np.arange(15.0).reshape(5, 3), requires_grad=True)
        with ad.Tape() as tape:
            y = ad.reduce_sum(ad.embedding_lookup(table, [0, 0]))
        (grad,) = ad.backward(tape, y, [table])
        expected = np.zeros((5, 3))
        expected[0] = 2.0
        np.testing.assert_array_equal(grad, expected)

    def test_scatter_matches_hand_count(self):
        rng = np.random.default_rng(11)
        table = ad.Tensor(rand(rng, 6, 4), requires_grad=True)
        ids = np.array([[5, 0, 5], [2, 2, 5]])
        w = rand(rng, 2, 3, 4)
        with ad.Tape() as tape:
            y = weighted_sum(ad.embedding_lookup(table, ids), w)
        (grad,) = ad.backward(tape, y, [table])
        expected = np.zeros((6, 4))
        for pos in np.ndindex(ids.shape):
            expected[ids[pos]] += w[pos]
        np.testing.assert_allclose(grad, expected, rtol=1e-12)

    def test_output_shape_follows_ids_shape(self):
        table = ad.Tensor(np.zeros((9, 5)))
        out = ad.embedding_lookup(table, np.zeros((2, 7), dtype=np.int64))
        assert out.shape == (2, 7, 5)

    def test_out_of_range_id_is_named(self):
        table = ad.Tensor(np.zeros((4, 2)))
        with pytest.raises(IndexError, match="7"):
            ad.embedding_lookup(table, [1, 7])
        with pytest.raises(IndexError, match="-1"):
            ad.embedding_lookup(table, [-1])

    def test_non_integer_ids_rejected(self):
        table = ad.Tensor(np.zeros((4, 2)))
        for ids in ([1.0, 2.0], np.array([True, False]), np.array(["3", "1"]), [None]):
            with pytest.raises(ValueError, match="ids must be integers"):
                ad.embedding_lookup(table, ids)

    def test_unsigned_ids_give_the_int64_gradient_bitwise(self):
        rng = np.random.default_rng(13)
        ids = np.array([[4, 0, 4], [2, 4, 1]])
        g = rand(rng, 2, 3, 3)
        grads = []
        for dtype in (np.int64, np.uint8, np.uint64):
            table = ad.Tensor(rand(np.random.default_rng(14), 5, 3), requires_grad=True)
            with ad.Tape() as tape:
                ad.embedding_lookup(table, ids.astype(dtype))
            (grad,) = tape.nodes[-1].backward_fn(g)
            grads.append(grad.tobytes())
        assert grads[1] == grads[0] and grads[2] == grads[0]

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        ids = np.array([3, 1, 3, 0])
        w = rand(rng, 4, 3)
        table = ad.Tensor(rand(rng, 5, 3), requires_grad=True)
        err = gk.finite_diff_check(
            lambda t: weighted_sum(ad.embedding_lookup(t, ids), w), table
        )
        assert err <= 1e-6


class TestGatherRows:
    def test_scatter_accumulates(self):
        x = ad.Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        with ad.Tape() as tape:
            y = ad.reduce_sum(ad.gather_rows(x, np.array([1, 1, 0])))
        (grad,) = ad.backward(tape, y, [x])
        np.testing.assert_array_equal(grad, [[1.0, 1.0], [2.0, 2.0], [0.0, 0.0]])

    def test_bad_index_raises(self):
        x = ad.Tensor(np.zeros((3, 2)))
        with pytest.raises(IndexError):
            ad.gather_rows(x, np.array([3]))


class TestMeanPool:
    def test_gradient_is_uniform_over_valid_rows(self):
        x = ad.Tensor(np.arange(24.0).reshape(2, 4, 3), requires_grad=True)
        with ad.Tape() as tape:
            y = ad.reduce_sum(ad.mean_pool_batch(x, [2, 3]))
        (grad,) = ad.backward(tape, y, [x])
        expected = np.zeros((2, 4, 3))
        expected[0, :2] = 1.0 / 2.0
        expected[1, :3] = 1.0 / 3.0
        np.testing.assert_array_equal(grad, expected)

    def test_valid_len_bounds(self):
        x = ad.Tensor(np.zeros((2, 4, 3)))
        with pytest.raises(ValueError, match=r"valid lengths must be in \[1, 4\]"):
            ad.mean_pool_batch(x, [0, 2])
        with pytest.raises(ValueError, match=r"valid lengths must be in \[1, 4\]"):
            ad.mean_pool_batch(x, [1, 5])
        with pytest.raises(ValueError, match="valid_lens must have shape"):
            ad.mean_pool_batch(x, [1, 2, 3])

    def test_batch_matches_per_sample_loop(self):
        rng = np.random.default_rng(21)
        x_data = rand(rng, 5, 6, 3)
        vls = np.array([1, 6, 3, 2, 5])
        w = rand(rng, 5, 3)
        xb = ad.Tensor(x_data, requires_grad=True)
        with ad.Tape() as tape:
            out = ad.mean_pool_batch(xb, vls)
            y = weighted_sum(out, w)
        (grad,) = ad.backward(tape, y, [xb])
        for s in range(5):
            vl = int(vls[s])
            np.testing.assert_allclose(out.data[s], x_data[s, :vl].mean(axis=0), rtol=1e-12)
            expected = np.zeros((6, 3))
            expected[:vl] = w[s] / vl
            np.testing.assert_allclose(grad[s], expected, rtol=1e-12)

    def test_adjoint_equals_the_broadcast_products(self):
        """The einsum adjoint holds the values of ``weights[:, :, None] *
        g[:, None, :]``. It adds each product to zeros, so a -0.0 product
        comes out +0.0; the scatter into the table adds into zeros too, so
        the table's gradient matches the broadcast form's byte for byte."""
        st = pytest.importorskip("hypothesis.strategies")

        def check(data):
            n, length, d = data.draw(dims(min_dims=3, max_dims=3))
            vls = np.array(data.draw(st.lists(st.integers(1, length), min_size=n, max_size=n)))
            dtype = data.draw(st.sampled_from([np.int64, np.uint8, np.uint64]))
            rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
            ids = rng.integers(0, 3, (n, length)).astype(dtype)  # 3 ids: repeats
            g = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-8, 9, (n, d))
            g[rng.random(g.shape) < 0.2] = 0.0
            g[rng.random(g.shape) < 0.2] = -0.0
            table = ad.Tensor(rng.standard_normal((3, d)), requires_grad=True)
            with ad.Tape() as tape:
                ad.mean_pool_batch(ad.embedding_lookup(table, ids), vls)
            lookup, pool = tape.nodes
            weights = (np.arange(length)[None, :] < vls[:, None]) / vls[:, None]
            broadcast = weights[:, :, None] * g[:, None, :]
            (adjoint,) = pool.backward_fn(g)
            np.testing.assert_array_equal(adjoint, broadcast)
            assert not adjoint[np.arange(length)[None, :] >= vls[:, None]].any()
            expected = np.zeros(table.shape)
            np.add.at(expected, ids, broadcast)
            for grad in (lookup.backward_fn(adjoint)[0], lookup.backward_fn(broadcast)[0]):
                assert grad.tobytes() == expected.tobytes()

        shape_property(check)

    @pytest.mark.parametrize("op", ["mean_pool_batch", "embedding_mean"])
    @pytest.mark.parametrize("vls", [[2.7, 1], [True, True], [2.0, 1]], ids=["float", "bool", "whole"])
    def test_non_integer_lengths_rejected(self, op, vls):
        # they used to be truncated: [2.7] pooled 2 rows and [True] pooled 1
        table = ad.Tensor(np.ones((4, 3)))
        ids = np.array([[0, 1, 2], [3, 0, 1]])
        with pytest.raises(ValueError, match="valid_lens must be integers"):
            if op == "mean_pool_batch":
                ad.mean_pool_batch(ad.embedding_lookup(table, ids), vls)
            else:
                ad.embedding_mean(table, ids, vls)

    def test_batch_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(22)
        vls = np.array([2, 4, 1])
        w = rand(rng, 3, 2)
        x = ad.Tensor(rand(rng, 3, 4, 2), requires_grad=True)
        err = gk.finite_diff_check(lambda t: weighted_sum(ad.mean_pool_batch(t, vls), w), x)
        assert err <= 1e-6


class TestEmbeddingMean:
    @staticmethod
    def lookup_then_pool(table, ids, vls, g):
        """The grid walk the op replaces: its output and table adjoint."""
        with ad.Tape() as tape:
            out = ad.mean_pool_batch(ad.embedding_lookup(table, ids), vls)
        lookup, pool = tape.nodes
        (grid_adjoint,) = pool.backward_fn(g)
        return out.data, lookup.backward_fn(grid_adjoint)[0]

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 513])
    def test_forward_equals_lookup_then_pool_bitwise(self, n):
        # 64 = CONV_BLOCK_ROWS: one row short of, at and past a block
        rng = np.random.default_rng(n)
        table = ad.Tensor(rand(rng, 50, 6), requires_grad=True)
        ids = rng.integers(0, 50, (n, 9))
        vls = rng.integers(1, 10, n)
        out = ad.embedding_mean(table, ids, vls)
        expected, _ = self.lookup_then_pool(table, ids, vls, np.zeros((n, 6)))
        assert out.shape == (n, 6)
        assert out.data.tobytes() == expected.tobytes()

    def test_dyadic_adjoint_equals_the_scatter_walk_bitwise(self):
        # lengths 1, 2, 4, 8 and small integers make every product and sum
        # exact, so the two summation orders must agree to the bit
        rng = np.random.default_rng(31)
        table = ad.Tensor(rng.integers(-4, 5, (9, 3)).astype(float), requires_grad=True)
        ids = rng.integers(0, 5, (12, 8))  # 5 of 9 ids: repeats in and across rows
        vls = np.tile([1, 2, 4, 8], 3)
        g = rng.integers(-4, 5, (12, 3)).astype(float)
        assert len(np.unique(ids[0, :8])) < 8 and len(np.unique(ids)) == 5
        with ad.Tape() as tape:
            out = ad.embedding_mean(table, ids, vls)
            y = ad.reduce_sum(ad.mul(out, ad.Tensor(g)))
        (adjoint,) = tape.nodes[0].backward_fn(g)
        pooled, expected = self.lookup_then_pool(table, ids, vls, g)
        assert out.data.tobytes() == pooled.tobytes()
        assert adjoint.tobytes() == expected.tobytes()
        assert adjoint.base is None and not adjoint[5:].any()
        (grad,) = ad.backward(tape, y, [table])
        assert grad.tobytes() == expected.tobytes() and grad.base is None

    def test_adjoint_matches_the_scatter_walk_to_rounding(self):
        rng = np.random.default_rng(32)
        table = ad.Tensor(rand(rng, 30, 4), requires_grad=True)
        ids = rng.integers(0, 30, (40, 11)).astype(np.uint16)
        vls = rng.integers(1, 12, 40)
        g = rand(rng, 40, 4)
        with ad.Tape() as tape:
            ad.embedding_mean(table, ids, vls)
        (adjoint,) = tape.nodes[0].backward_fn(g)
        _, expected = self.lookup_then_pool(table, ids, vls, g)
        np.testing.assert_allclose(adjoint, expected, rtol=1e-13, atol=1e-15)

    def test_backward_builds_no_rows_by_vocabulary_buffer(self):
        # the adjoint is [vocab, d]; an [n, vocab] count matrix, even of
        # bools, would be larger still
        n, vocab = 64, 100_000
        rng = np.random.default_rng(33)
        table = ad.Tensor(np.zeros((vocab, 2)), requires_grad=True)
        ids = rng.integers(0, vocab, (n, 10))
        with ad.Tape() as tape:
            ad.embedding_mean(table, ids, np.full(n, 10))
        g = rand(rng, n, 2)
        tracemalloc.start()
        try:
            tape.nodes[0].backward_fn(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * vocab

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(34)
        ids = np.array([[3, 1, 3, 0], [1, 1, 4, 2]])
        vls = np.array([3, 2])
        w = rand(rng, 2, 3)
        table = ad.Tensor(rand(rng, 5, 3), requires_grad=True)
        err = gk.finite_diff_check(lambda t: weighted_sum(ad.embedding_mean(t, ids, vls), w), table)
        assert err <= 1e-6

    def test_contract_errors(self):
        table = ad.Tensor(np.zeros((4, 2)))
        with pytest.raises(ValueError, match=r"expects \[n, len\] ids"):
            ad.embedding_mean(table, np.array([0, 1]), [1])
        with pytest.raises(ValueError, match="embedding table must be 2-d"):
            ad.embedding_mean(ad.Tensor(np.zeros(4)), np.array([[0]]), [1])
        with pytest.raises(IndexError, match="7"):
            ad.embedding_mean(table, np.array([[1, 7]]), [1])
        with pytest.raises(ValueError, match="ids must be integers"):
            ad.embedding_mean(table, np.array([[1.0]]), [1])
        with pytest.raises(ValueError, match=r"valid lengths must be in \[1, 2\]"):
            ad.embedding_mean(table, np.array([[1, 2]]), [3])
        with pytest.raises(ValueError, match="valid_lens must have shape"):
            ad.embedding_mean(table, np.array([[1, 2]]), [1, 1])


def conv_maxpool_reference(x, f, g):
    """Explicit window loop: pooled features of [n, len, d] inputs under
    [w, d, c] filters, and the gradients of sum(g * features)."""
    n, length, _ = x.shape
    width, _, channels = f.shape
    out = np.zeros((n, channels))
    gx = np.zeros_like(x)
    gf = np.zeros_like(f)
    for s in range(n):
        for ch in range(channels):
            pre = [np.sum(x[s, t : t + width] * f[:, :, ch]) for t in range(length - width + 1)]
            t_star = int(np.argmax(pre))  # earliest position on ties
            if pre[t_star] > 0.0:
                out[s, ch] = pre[t_star]
                gx[s, t_star : t_star + width] += g[s, ch] * f[:, :, ch]
                gf[:, :, ch] += g[s, ch] * x[s, t_star : t_star + width]
    return out, gx, gf


class TestConvMaxpool:
    def test_zero_input_gives_zero_features(self):
        x = ad.Tensor(np.zeros((2, 6, 3)))
        f = ad.Tensor(np.ones((2, 3, 4)))
        out = ad.conv1d_maxpool_batch(x, f)
        np.testing.assert_array_equal(out.data, np.zeros((2, 4)))

    def test_zero_preactivations_pass_no_gradient(self):
        x = ad.Tensor(np.zeros((2, 6, 3)), requires_grad=True)
        f = ad.Tensor(np.ones((2, 3, 4)), requires_grad=True)
        with ad.Tape() as tape:
            y = ad.reduce_sum(ad.conv1d_maxpool_batch(x, f))
        gx, gf = ad.backward(tape, y, [x, f])
        np.testing.assert_array_equal(gx, np.zeros((2, 6, 3)))
        np.testing.assert_array_equal(gf, np.zeros((2, 3, 4)))

    def test_tie_routes_to_earliest_position(self):
        # width-1 identity filter; both positions produce the same value
        x = ad.Tensor(np.array([[[1.0], [1.0]]]), requires_grad=True)
        f = ad.Tensor(np.ones((1, 1, 1)))
        with ad.Tape() as tape:
            y = ad.reduce_sum(ad.conv1d_maxpool_batch(x, f))
        (grad,) = ad.backward(tape, y, [x])
        np.testing.assert_array_equal(grad, [[[1.0], [0.0]]])

    def test_too_short_input_raises(self):
        with pytest.raises(ValueError, match="shorter"):
            ad.conv1d_maxpool_batch(ad.Tensor(np.zeros((1, 2, 3))), ad.Tensor(np.zeros((4, 3, 1))))
        with pytest.raises(ValueError, match="depth"):
            ad.conv1d_maxpool_batch(ad.Tensor(np.zeros((1, 5, 3))), ad.Tensor(np.zeros((2, 4, 1))))
        x = ad.Tensor(np.zeros((1, 5, 3)))
        good = ad.Tensor(np.zeros((2, 3, 1)))
        with pytest.raises(ValueError, match="at least one filter"):
            ad.conv1d_maxpool_batch(x)
        with pytest.raises(ValueError, match="filter 1 depth 4 does not match input depth 3"):
            ad.conv1d_maxpool_batch(x, good, ad.Tensor(np.zeros((3, 4, 2))))
        with pytest.raises(ValueError, match="length 5 is shorter than filter 2 width 6"):
            ad.conv1d_maxpool_batch(x, good, good, ad.Tensor(np.zeros((6, 3, 1))))

    @staticmethod
    def counted_columns(monkeypatch):
        """Replace ``ad._columns`` by a wrapper; returns a weak reference to
        every column array it hands out, in call order."""
        made = []
        columns = ad._columns

        def tracking(*args):
            cols = columns(*args)
            made.append(weakref.ref(cols))
            return cols

        monkeypatch.setattr(ad, "_columns", tracking)
        return made

    def test_recorded_node_unfolds_each_block_once(self, monkeypatch):
        monkeypatch.setattr(ad, "CONV_BLOCK_ROWS", 2)
        made = self.counted_columns(monkeypatch)
        rng = np.random.default_rng(40)
        x = ad.Tensor(rand(rng, 5, 7, 3), requires_grad=True)
        fs = [ad.Tensor(rand(rng, w, 3, 2), requires_grad=True) for w in (2, 4)]
        with ad.Tape() as tape:
            y = weighted_sum(ad.conv1d_maxpool_batch(x, *fs), rand(rng, 5, 4))
        assert len(made) == 3  # one unfold per row block
        first = ad.backward(tape, y, [x, *fs])
        assert len(made) == 3  # the backward reads the kept columns
        # a second walk of the same tape sees the columns unwritten
        second = ad.backward(tape, y, [x, *fs])
        for a, b in zip(first, second):
            assert a.tobytes() == b.tobytes()

    def test_tape_free_forward_frees_each_blocks_columns(self, monkeypatch):
        monkeypatch.setattr(ad, "CONV_BLOCK_ROWS", 2)
        made = self.counted_columns(monkeypatch)
        alive = []
        conv_pre = ad._conv_pre

        def checking(*args):
            pre = conv_pre(*args)
            alive.append(made[-1]() is not None)
            return pre

        monkeypatch.setattr(ad, "_conv_pre", checking)
        rng = np.random.default_rng(41)
        x_data, f_data = rand(rng, 5, 7, 3), rand(rng, 3, 3, 2)
        ad.conv1d_maxpool_batch(ad.Tensor(x_data), ad.Tensor(f_data, requires_grad=True))
        assert alive == [False] * 3
        with ad.Tape():  # a recorded node keeps them for its backward
            ad.conv1d_maxpool_batch(ad.Tensor(x_data), ad.Tensor(f_data, requires_grad=True))
        assert alive == [False] * 3 + [True] * 3

    def test_backward_builds_the_fold_matrix_once_per_shape(self):
        rng = np.random.default_rng(42)
        ad._fold.cache_clear()
        x = ad.Tensor(rand(rng, 2, 6, 3), requires_grad=True)
        f = ad.Tensor(rand(rng, 3, 3, 2), requires_grad=True)
        for _ in range(2):
            with ad.Tape() as tape:
                y = ad.reduce_sum(ad.conv1d_maxpool_batch(x, f))
            ad.backward(tape, y, [x, f])
        info = ad._fold.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        fold = ad._fold(6, 3, 4)
        assert not fold.flags.writeable
        # window t, offset u lands on position t + u
        assert fold.sum() == 4 * 3 and fold[5, 3 * 3 + 2] == 1.0

    def test_batch_matches_per_sample_loop(self):
        hypothesis = pytest.importorskip("hypothesis")
        from hypothesis import strategies as st

        # a bank of 1-3 distinct widths <= length, each with 1-4 channels;
        # width == length, so t_out = 1, is drawn too
        def bank_of(length):
            widths = st.lists(st.integers(1, length), min_size=1, max_size=3, unique=True)
            return widths.flatmap(
                lambda ws: st.tuples(
                    st.just(length),
                    st.just(ws),
                    st.lists(st.integers(1, 4), min_size=len(ws), max_size=len(ws)),
                )
            )

        @hypothesis.settings(max_examples=80, deadline=None)
        @hypothesis.given(
            n=st.integers(1, 3),
            sizes=st.integers(1, 8).flatmap(bank_of),
            d=st.integers(1, 3),
            integer=st.booleans(),
            leaves=st.sampled_from(["x", "filters", "both", "last"]),
            seed=st.integers(0, 2**32 - 1),
        )
        @hypothesis.example(
            n=2, sizes=(7, [3], [4]), d=3, integer=False, leaves="both", seed=31
        )
        @hypothesis.example(
            n=3, sizes=(7, [3, 5, 2], [4, 2, 3]), d=2, integer=True, leaves="both", seed=7
        )
        def check(n, sizes, d, integer, leaves, seed):
            length, widths, channels = sizes
            rng = np.random.default_rng(seed)
            if integer:
                # small integers force argmax ties and all-nonpositive channels
                x_data = rng.integers(-2, 3, (n, length, d)).astype(np.float64)
                f_data = [
                    rng.integers(-1, 2, (w, d, c)).astype(np.float64)
                    for w, c in zip(widths, channels)
                ]
            else:
                x_data, f_data = gk._conv_safe_instance(rng, n, length, d, zip(widths, channels))
            w = rand(rng, n, sum(channels))
            # the bank's features are each filter's, concatenated
            bounds = np.cumsum([0, *channels])
            refs = [
                conv_maxpool_reference(x_data, f, w[:, lo:hi])
                for f, lo, hi in zip(f_data, bounds[:-1], bounds[1:])
            ]
            xb = ad.Tensor(x_data, requires_grad=leaves in ("x", "both"))
            fbs = [ad.Tensor(f, requires_grad=leaves in ("filters", "both")) for f in f_data]
            if leaves == "last":
                fbs[-1].requires_grad = True
            pairs = [(xb, sum(gx for _, gx, _ in refs))]
            pairs += [(fb, gf) for fb, (_, _, gf) in zip(fbs, refs)]
            pairs = [(t, ref) for t, ref in pairs if t.requires_grad]
            with ad.Tape() as tape:
                out = ad.conv1d_maxpool_batch(xb, *fbs)
                y = weighted_sum(out, w)
            grads = ad.backward(tape, y, [t for t, _ in pairs])
            ref_out = np.concatenate([out for out, _, _ in refs], axis=1)
            np.testing.assert_allclose(out.data, ref_out, rtol=1e-12)
            for grad, (_, ref) in zip(grads, pairs):
                np.testing.assert_allclose(grad, ref, rtol=1e-12, atol=1e-12)

        check()

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(32)
        x_data, (f_data,) = gk._conv_safe_instance(rng, 2, 7, 3, [(3, 4)])
        w = rand(rng, 2, 4)
        x = ad.Tensor(x_data, requires_grad=True)
        err_x = gk.finite_diff_check(
            lambda t: weighted_sum(ad.conv1d_maxpool_batch(t, ad.Tensor(f_data)), w), x
        )
        assert err_x <= 1e-6
        f = ad.Tensor(f_data, requires_grad=True)
        err_f = gk.finite_diff_check(
            lambda t: weighted_sum(ad.conv1d_maxpool_batch(ad.Tensor(x_data), t), w), f
        )
        assert err_f <= 1e-6


class TestElementwise:
    def test_tanh_gradient(self):
        rng = np.random.default_rng(41)
        w = rand(rng, 6)
        x = ad.Tensor(rand(rng, 6), requires_grad=True)
        err = gk.finite_diff_check(lambda t: weighted_sum(ad.tanh(t), w), x)
        assert err <= 1e-6

    def test_add_broadcast_unbroadcasts_gradient(self):
        rng = np.random.default_rng(42)
        w = rand(rng, 4, 3)
        bias = ad.Tensor(rand(rng, 3), requires_grad=True)
        x_data = rand(rng, 4, 3)
        with ad.Tape() as tape:
            y = weighted_sum(ad.add(ad.Tensor(x_data), bias), w)
        (grad,) = ad.backward(tape, y, [bias])
        assert grad.shape == (3,)
        np.testing.assert_allclose(grad, w.sum(axis=0), rtol=1e-12)
        err = gk.finite_diff_check(lambda t: weighted_sum(ad.add(ad.Tensor(x_data), t), w), bias)
        assert err <= 1e-6

    def test_mul_broadcast_gradients(self):
        rng = np.random.default_rng(43)
        w = rand(rng, 5, 2)
        lam = ad.Tensor(rand(rng, 5, 1), requires_grad=True)
        other = rand(rng, 5, 2)
        with ad.Tape() as tape:
            y = weighted_sum(ad.mul(lam, ad.Tensor(other)), w)
        (grad,) = ad.backward(tape, y, [lam])
        np.testing.assert_allclose(grad, (w * other).sum(axis=1, keepdims=True), rtol=1e-12)
        err = gk.finite_diff_check(lambda t: weighted_sum(ad.mul(t, ad.Tensor(other)), w), lam)
        assert err <= 1e-6

    @pytest.mark.parametrize("op", ["add", "mul"])
    def test_broadcast_gradients_match_scatter_oracle(self, op):
        hypothesis = pytest.importorskip("hypothesis")
        from hypothesis import strategies as st
        from hypothesis.extra.numpy import mutually_broadcastable_shapes

        def scatter(shape, out_shape, weights):
            # each output element adds its weight to the input element it was
            # broadcast from; independent of autodiff._unbroadcast
            size = int(np.prod(shape))
            owner = np.broadcast_to(np.arange(size).reshape(shape), out_shape)
            return np.bincount(owner.ravel(), weights.ravel(), minlength=size).reshape(shape)

        @hypothesis.settings(max_examples=60, deadline=None)
        @hypothesis.given(
            shapes=mutually_broadcastable_shapes(
                num_shapes=2, min_dims=0, max_dims=3, min_side=1, max_side=3
            ),
            seed=st.integers(0, 2**32 - 1),
        )
        def check(shapes, seed):
            (a_shape, b_shape), out_shape = shapes
            rng = np.random.default_rng(seed)
            a = ad.Tensor(rng.standard_normal(a_shape), requires_grad=True)
            b = ad.Tensor(rng.standard_normal(b_shape), requires_grad=True)
            w = rng.standard_normal(out_shape)
            with ad.Tape() as tape:
                y = weighted_sum(getattr(ad, op)(a, b), w)
            ga, gb = ad.backward(tape, y, [a, b])
            wa = w * b.data if op == "mul" else w
            wb = w * a.data if op == "mul" else w
            np.testing.assert_allclose(ga, scatter(a_shape, out_shape, wa), rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(gb, scatter(b_shape, out_shape, wb), rtol=1e-12, atol=1e-12)

        check()

    def test_scalar_constants(self):
        x = ad.Tensor([1.0, 2.0], requires_grad=True)
        with ad.Tape() as tape:
            y = ad.reduce_sum(ad.add(ad.scale(x, 3.0), 1.0))
        (grad,) = ad.backward(tape, y, [x])
        np.testing.assert_array_equal(grad, [3.0, 3.0])

    def test_concat_splits_gradient(self):
        a = ad.Tensor(np.ones((2, 2)), requires_grad=True)
        b = ad.Tensor(np.ones((2, 3)), requires_grad=True)
        w = np.arange(10.0).reshape(2, 5)
        with ad.Tape() as tape:
            y = weighted_sum(ad.concat([a, b], axis=1), w)
        ga, gb = ad.backward(tape, y, [a, b])
        np.testing.assert_array_equal(ga, w[:, :2])
        np.testing.assert_array_equal(gb, w[:, 2:])

    def test_reshape_round_trip(self):
        x = ad.Tensor(np.arange(6.0), requires_grad=True)
        w = np.arange(6.0).reshape(2, 3)
        with ad.Tape() as tape:
            y = weighted_sum(ad.reshape(x, (2, 3)), w)
        (grad,) = ad.backward(tape, y, [x])
        np.testing.assert_array_equal(grad, w.reshape(6))


def shape_property(check):
    """Run ``check(data)`` as a Hypothesis property; skipped without Hypothesis."""
    hypothesis = pytest.importorskip("hypothesis")
    from hypothesis import strategies as st

    hypothesis.settings(max_examples=60, deadline=None)(
        hypothesis.given(data=st.data())(check)
    )()


def dims(min_dims=1, max_dims=3, min_side=1, max_side=4):
    """Hypothesis strategy for a shape tuple."""
    from hypothesis import strategies as st

    return st.lists(st.integers(min_side, max_side), min_size=min_dims, max_size=max_dims).map(
        tuple
    )


class TestShapeRules:
    """Output shapes follow numpy, gradients come back in the input's
    shape, and bad shapes or indices raise."""

    def test_concat(self):
        st = pytest.importorskip("hypothesis.strategies")

        def check(data):
            shape = data.draw(dims())
            axis = data.draw(st.integers(-len(shape), len(shape) - 1))
            sizes = data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
            rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
            shapes = []
            for size in sizes:
                piece = list(shape)
                piece[axis] = size
                shapes.append(tuple(piece))
            xs = [ad.Tensor(rng.standard_normal(sh), requires_grad=True) for sh in shapes]
            expected = np.concatenate([x.data for x in xs], axis=axis)
            with ad.Tape() as tape:
                out = ad.concat(xs, axis=axis)
                w = rng.standard_normal(out.shape)
                y = weighted_sum(out, w)
            assert out.shape == expected.shape
            np.testing.assert_array_equal(out.data, expected)
            start = 0
            for x, grad in zip(xs, ad.backward(tape, y, xs)):
                assert grad.shape == x.shape
                stop = start + x.shape[axis]
                np.testing.assert_array_equal(grad, np.take(w, range(start, stop), axis=axis))
                start = stop
            if len(shape) > 1:
                other = (axis + 1) % len(shape)
                bad = list(shapes[0])
                bad[other] += 1
                with pytest.raises(ValueError):
                    ad.concat([xs[0], ad.Tensor(np.zeros(bad))], axis=axis)
            with pytest.raises(ValueError):
                ad.concat(xs, axis=len(shape))

        shape_property(check)
        with pytest.raises(ValueError, match="at least one"):
            ad.concat([])

    def test_reshape(self):
        st = pytest.importorskip("hypothesis.strategies")

        def check(data):
            shape = data.draw(dims(min_dims=0))
            size = int(np.prod(shape))
            # same size: permute the sides, maybe merge two, add a 1, infer one
            target = list(data.draw(st.permutations(shape)))
            if len(target) > 1 and data.draw(st.booleans()):
                target[:2] = [target[0] * target[1]]
            if data.draw(st.booleans()):
                target.append(1)
            if target and data.draw(st.booleans()):
                target[0] = -1
            target = tuple(target)
            rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
            x = ad.Tensor(rng.standard_normal(shape), requires_grad=True)
            expected = np.reshape(x.data, target)
            with ad.Tape() as tape:
                out = ad.reshape(x, target)
                w = rng.standard_normal(out.shape)
                y = weighted_sum(out, w)
            assert out.shape == expected.shape
            (grad,) = ad.backward(tape, y, [x])
            assert grad.shape == x.shape
            np.testing.assert_array_equal(grad, w.reshape(x.shape))
            with pytest.raises(ValueError):
                ad.reshape(x, (size + 1,))

        shape_property(check)

    def test_gather_rows(self):
        st = pytest.importorskip("hypothesis.strategies")

        def check(data):
            shape = data.draw(dims())
            n = shape[0]
            idx = np.array(data.draw(st.lists(st.integers(0, n - 1), max_size=6)), dtype=np.int64)
            rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
            x = ad.Tensor(rng.standard_normal(shape), requires_grad=True)
            with ad.Tape() as tape:
                out = ad.gather_rows(x, idx)
                w = rng.standard_normal(out.shape)
                y = weighted_sum(out, w)
            assert out.shape == x.data[idx].shape == (idx.size, *shape[1:])
            (grad,) = ad.backward(tape, y, [x])
            assert grad.shape == x.shape
            expected = np.zeros(shape)
            for k, row in enumerate(idx):
                expected[row] += w[k]
            np.testing.assert_allclose(grad, expected, rtol=1e-12, atol=1e-12)
            bad_row = data.draw(st.sampled_from([-1, n, n + 3]))
            with pytest.raises(IndexError, match="out of range"):
                ad.gather_rows(x, np.append(idx, bad_row))
            with pytest.raises(ValueError, match="1-d integer"):
                ad.gather_rows(x, idx.astype(np.float64))
            with pytest.raises(ValueError, match="1-d integer"):
                ad.gather_rows(x, idx.reshape(1, -1))

        shape_property(check)

    def test_scatter_backward_matches_add_at_bitwise(self):
        """Both scatter backwards equal an ``np.add.at`` oracle byte for byte."""
        st = pytest.importorskip("hypothesis.strategies")

        def check(data):
            shape = data.draw(dims(max_side=5))
            n = shape[0]
            idx = np.array(data.draw(st.lists(st.integers(0, n - 1), max_size=12)), dtype=np.int64)
            rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
            idx = idx.astype(data.draw(st.sampled_from([np.int64, np.uint8, np.uint64])))
            g_shape = (idx.size, *shape[1:])
            # magnitudes 1e-8..1e8 make any other summation order show in the bits
            g = rng.standard_normal(g_shape) * 10.0 ** rng.integers(-8, 9, g_shape)
            g[rng.random(g.shape) < 0.2] = 0.0
            g[rng.random(g.shape) < 0.2] = -0.0
            expected = np.zeros(shape)
            np.add.at(expected, idx, g)
            x = ad.Tensor(np.zeros(shape), requires_grad=True)
            with ad.Tape() as tape:
                ad.gather_rows(x, idx)
                if len(shape) == 2:
                    ids = idx.reshape(data.draw(st.sampled_from([(-1,), (1, -1), (-1, 1)])))
                    ad.embedding_lookup(x, ids)
            for node in tape.nodes:
                (grad,) = node.backward_fn(g.reshape(node.output.shape))
                assert grad.shape == expected.shape
                assert grad.tobytes() == expected.tobytes(), node.op

        shape_property(check)

    def test_mean_pool_batch(self):
        st = pytest.importorskip("hypothesis.strategies")

        def check(data):
            n, length, d = data.draw(dims(min_dims=3, max_dims=3))
            vls = np.array(data.draw(st.lists(st.integers(1, length), min_size=n, max_size=n)))
            rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
            x = ad.Tensor(rng.standard_normal((n, length, d)), requires_grad=True)
            w = rng.standard_normal((n, d))
            with ad.Tape() as tape:
                out = ad.mean_pool_batch(x, vls)
                y = weighted_sum(out, w)
            assert out.shape == (n, d)
            (grad,) = ad.backward(tape, y, [x])
            assert grad.shape == x.shape
            for s, vl in enumerate(vls):
                np.testing.assert_allclose(out.data[s], x.data[s, :vl].mean(axis=0), rtol=1e-12)
                np.testing.assert_allclose(grad[s, :vl], np.broadcast_to(w[s] / vl, (vl, d)))
                assert not grad[s, vl:].any()
            row = data.draw(st.integers(0, n - 1))
            for bad in (0, length + 1):
                broken = vls.copy()
                broken[row] = bad
                with pytest.raises(ValueError, match="valid lengths"):
                    ad.mean_pool_batch(x, broken)
            with pytest.raises(ValueError, match="valid_lens must have shape"):
                ad.mean_pool_batch(x, np.append(vls, 1))
            with pytest.raises(ValueError, match="expects"):
                ad.mean_pool_batch(ad.Tensor(x.data[0]), vls[:1])

        shape_property(check)


def numpy_cross_entropy(z, rows):
    """Cross entropy of logits ``z`` against target rows, in plain numpy."""
    shifted = z - z.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return -(rows * log_probs).sum(axis=1)


class TestSoftmaxCrossEntropy:
    def test_saturated_logits_stay_finite(self):
        logits = ad.Tensor([[1000.0, 0.0]])
        loss = ad.softmax_cross_entropy(logits, np.array([0]))
        assert np.isfinite(loss.data).all()
        assert loss.data[0] <= 1e-12
        wrong = ad.softmax_cross_entropy(logits, np.array([1]))
        np.testing.assert_allclose(wrong.data[0], 1000.0, rtol=1e-12)

    def test_uniform_logits_give_log_num_classes(self):
        logits = ad.Tensor(np.zeros((3, 5)))
        loss = ad.softmax_cross_entropy(logits, np.arange(3))
        np.testing.assert_allclose(loss.data, np.log(5.0), rtol=1e-12)

    def test_linear_in_target_rows(self):
        # the pair loss is the cross entropy against the interpolated rows
        rng = np.random.default_rng(51)
        z = rand(rng, 4, 6)
        y0, y1 = rng.integers(0, 6, 4), rng.integers(0, 6, 4)
        lam = rng.random(4)
        mixed = lam[:, None] * np.eye(6)[y0] + (1.0 - lam[:, None]) * np.eye(6)[y1]
        pair = ad.pair_cross_entropy(ad.Tensor(z), y0, y1, lam).data
        np.testing.assert_allclose(pair, numpy_cross_entropy(z, mixed), rtol=1e-12, atol=1e-12)
        l0 = ad.softmax_cross_entropy(ad.Tensor(z), y0).data
        l1 = ad.softmax_cross_entropy(ad.Tensor(z), y1).data
        np.testing.assert_allclose(pair, lam * l0 + (1.0 - lam) * l1, rtol=1e-12, atol=1e-12)

    def test_gradient_is_softmax_minus_target(self):
        rng = np.random.default_rng(52)
        z_data = rand(rng, 3, 4)
        labels = np.array([1, 0, 3])
        z = ad.Tensor(z_data, requires_grad=True)
        with ad.Tape() as tape:
            y = ad.reduce_sum(ad.softmax_cross_entropy(z, labels))
        (grad,) = ad.backward(tape, y, [z])
        e = np.exp(z_data - z_data.max(axis=1, keepdims=True))
        softmax = e / e.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(grad, softmax - np.eye(4)[labels], rtol=1e-10)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(53)
        labels = np.array([1, 2])
        w = rand(rng, 2)
        z = ad.Tensor(rand(rng, 2, 3), requires_grad=True)
        err = gk.finite_diff_check(
            lambda t: weighted_sum(ad.softmax_cross_entropy(t, labels), w), z
        )
        assert err <= 1e-6

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint64, np.int32])
    def test_any_integer_dtype_gives_the_int64_result(self, dtype):
        rng = np.random.default_rng(54)
        z = ad.Tensor(rand(rng, 4, 3))
        y0, y1, lam = rng.integers(0, 3, 4), rng.integers(0, 3, 4), rng.random(4)
        want = ad.softmax_cross_entropy(z, y0).data
        np.testing.assert_array_equal(ad.softmax_cross_entropy(z, y0.astype(dtype)).data, want)
        np.testing.assert_array_equal(
            ad.pair_cross_entropy(z, y0.astype(dtype), y1.astype(dtype), lam).data,
            ad.pair_cross_entropy(z, y0, y1, lam).data,
        )

    @pytest.mark.parametrize(
        "logits_shape, labels, match",
        [
            ((2, 3), np.array([0.0, 1.0]), "labels must be 2 integer class ids, got float64"),
            ((2, 3), np.array([0, -1]), r"class ids must lie in \[0, 3\), got -1\.\.0"),
            ((2, 3), np.array([3, 0]), r"class ids must lie in \[0, 3\), got 0\.\.3"),
            ((2, 3), np.array([[0], [1]]), r"2 integer class ids, got int64 of shape \(2, 1\)"),
            ((2, 1), np.array([0, 0]), r"logits must be \[n, C\] with C >= 2, got shape \(2, 1\)"),
        ],
        ids=["float", "negative", "too-large", "shape", "one-column-logits"],
    )
    @pytest.mark.parametrize("op", ["softmax_cross_entropy", "pair_y_i", "pair_y_j"])
    def test_class_id_errors(self, op, logits_shape, labels, match):
        logits = ad.Tensor(np.zeros(logits_shape))
        good, w = np.zeros(2, dtype=np.int64), np.ones(2)
        calls = {
            "softmax_cross_entropy": lambda: ad.softmax_cross_entropy(logits, labels),
            "pair_y_i": lambda: ad.pair_cross_entropy(logits, labels, good, w),
            "pair_y_j": lambda: ad.pair_cross_entropy(logits, good, labels, w),
        }
        with pytest.raises(ValueError, match=match):
            calls[op]()


IDS = np.arange(3)  # one class id per row of a [3, C] logits array


def composite_lerp(a, b, w):
    """The ``mul``/``add``/``scale``/``reshape`` graph ``ad.lerp`` fuses."""
    col = ad.reshape(w, (a.shape[0],) + (1,) * (a.ndim - 1))
    one_minus = ad.add(ad.scale(col, -1.0), 1.0)
    return ad.add(ad.mul(a, col), ad.mul(b, one_minus))


def composite_pair_cross_entropy(logits, y_i, y_j, w):
    """The two ``softmax_cross_entropy`` nodes and their weighting that
    ``ad.pair_cross_entropy`` fuses."""
    ce_i = ad.softmax_cross_entropy(logits, y_i)
    ce_j = ad.softmax_cross_entropy(logits, y_j)
    one_minus = ad.add(ad.scale(w, -1.0), 1.0)
    return ad.add(ad.mul(w, ce_i), ad.mul(one_minus, ce_j))


def value_and_grads(op, args, weights):
    """Forward value of ``op(*args)`` and the adjoint of each leaf in ``args``."""
    leaves = [t for t in args if isinstance(t, ad.Tensor) and t.requires_grad]
    with ad.Tape() as tape:
        out = op(*args)
        y = weighted_sum(out, weights)
    return out.data, ad.backward(tape, y, leaves)


class TestFusedMixingOps:
    """``lerp`` and ``pair_cross_entropy`` equal, bitwise, the composites they fuse."""

    @pytest.mark.parametrize("shape", [(6, 24, 16), (6, 48), (1, 24, 16), (1, 48)])
    @pytest.mark.parametrize("w_leaf", [True, False])
    def test_lerp_matches_composite_bitwise(self, shape, w_leaf):
        rng = np.random.default_rng(60)
        a = ad.Tensor(rand(rng, *shape), requires_grad=True)
        b = ad.Tensor(rand(rng, *shape), requires_grad=True)
        w = ad.Tensor(rng.random(shape[0]), requires_grad=w_leaf)
        weights = rand(rng, *shape)
        # constant weights reach the fused op as a plain array
        fused = value_and_grads(ad.lerp, (a, b, w if w_leaf else w.data), weights)
        composite = value_and_grads(composite_lerp, (a, b, w), weights)
        np.testing.assert_array_equal(fused[0], composite[0])
        assert len(fused[1]) == (3 if w_leaf else 2)
        for got, want in zip(fused[1], composite[1]):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("n", [6, 1])
    @pytest.mark.parametrize("w_leaf", [True, False])
    def test_pair_cross_entropy_matches_composite_bitwise(self, n, w_leaf):
        rng = np.random.default_rng(61)
        logits = ad.Tensor(3.0 * rand(rng, n, 4), requires_grad=True)
        y_i, y_j = rng.integers(0, 4, n), rng.integers(0, 4, n)
        w = ad.Tensor(rng.random(n), requires_grad=w_leaf)
        weights = rand(rng, n)
        fused = value_and_grads(
            ad.pair_cross_entropy, (logits, y_i, y_j, w if w_leaf else w.data), weights
        )
        composite = value_and_grads(composite_pair_cross_entropy, (logits, y_i, y_j, w), weights)
        np.testing.assert_array_equal(fused[0], composite[0])
        assert len(fused[1]) == (2 if w_leaf else 1)
        for got, want in zip(fused[1], composite[1]):
            np.testing.assert_array_equal(got, want)

    def test_weight_adjoint_skipped_once_the_leaf_stops_requiring_grad(self):
        rng = np.random.default_rng(63)
        a = ad.Tensor(rand(rng, 4, 3), requires_grad=True)
        b = ad.Tensor(rand(rng, 4, 3))
        w = ad.Tensor(rng.random(4), requires_grad=True)
        with ad.Tape() as tape:
            out = ad.pair_cross_entropy(ad.lerp(a, b, w), np.array([0, 1, 2, 0]),
                                        np.array([1, 2, 0, 0]), w)
        # the closures read the flag when the walk runs them
        w.requires_grad = False
        for node in tape.nodes:
            assert node.backward_fn(np.ones_like(node.output.data))[-1] is None
        (grad_a,) = ad.backward(tape, ad.reduce_sum(out), [a])
        w.requires_grad = True
        np.testing.assert_array_equal(grad_a, ad.backward(tape, ad.reduce_sum(out), [a])[0])

    @pytest.mark.parametrize(
        "a_shape, b_shape, w_shape, match",
        [
            ((4, 5), (4, 6), (4,), "lerp shapes differ"),
            ((4, 5), (4, 5), (3,), r"weights must have shape \(4,\)"),
            ((4, 5), (4, 5), (4, 1), r"weights must have shape \(4,\)"),
            ((), (), (), "leading sample axis"),
        ],
        ids=["a-b-mismatch", "w-length", "w-column", "scalar"],
    )
    def test_lerp_input_errors(self, a_shape, b_shape, w_shape, match):
        with pytest.raises(ValueError, match=match):
            ad.lerp(ad.Tensor(np.zeros(a_shape)), ad.Tensor(np.zeros(b_shape)), np.ones(w_shape))

    @pytest.mark.parametrize(
        "logits_shape, y_i, y_j, w_shape, match",
        [
            ((3,), IDS, IDS, (3,), r"logits must be \[n, C\]"),
            ((3, 1), IDS * 0, IDS * 0, (3,), r"logits must be \[n, C\] with C >= 2"),
            ((3, 3), np.arange(4), IDS, (3,), "labels must be 3 integer class ids"),
            ((3, 3), IDS, np.arange(4), (3,), "labels must be 3 integer class ids"),
            ((3, 3), -IDS, IDS, (3,), r"class ids must lie in \[0, 3\)"),
            ((3, 3), IDS, -IDS, (3,), r"class ids must lie in \[0, 3\)"),
            ((3, 3), IDS, IDS, (2,), r"weights must have shape \(3,\)"),
        ],
        ids=["1d-logits", "one-class", "y_i-shape", "y_j-shape", "y_i-negative",
             "y_j-negative", "w-length"],
    )
    def test_pair_cross_entropy_input_errors(self, logits_shape, y_i, y_j, w_shape, match):
        with pytest.raises(ValueError, match=match):
            ad.pair_cross_entropy(ad.Tensor(np.zeros(logits_shape)), y_i, y_j, np.ones(w_shape))


def leaf(rng, *shape):
    return ad.Tensor(rng.standard_normal(shape), requires_grad=True)


def graph_add_shared(rng):
    """``add`` hands one array to both leaves."""
    a, b = leaf(rng, 3, 2), leaf(rng, 3, 2)
    with ad.Tape() as tape:
        y = ad.reduce_sum(ad.add(a, b))
    return tape, y, [a, b]


def graph_unbroadcast_early_return(rng):
    """``add`` hands its incoming gradient to ``x`` as is; ``x`` is listed twice."""
    x, b = leaf(rng, 3, 2), leaf(rng, 2)
    with ad.Tape() as tape:
        y = weighted_sum(ad.add(x, b), rand(rng, 3, 2))
    return tape, y, [x, b, x]


def graph_reshape(rng):
    """``c`` gets the gradient array, ``x`` a reshaped view of it."""
    x, c = leaf(rng, 6), leaf(rng, 2, 3)
    with ad.Tape() as tape:
        y = weighted_sum(ad.add(ad.reshape(x, (2, 3)), c), rand(rng, 2, 3))
    return tape, y, [c, x]


def graph_concat(rng):
    """Each leaf gets a slice of the one gradient array."""
    a, b = leaf(rng, 2, 1), leaf(rng, 2, 3)
    with ad.Tape() as tape:
        y = weighted_sum(ad.concat([a, b], axis=1), rand(rng, 2, 4))
    return tape, y, [a, b]


def graph_scatters(rng):
    """``bincount(...).reshape`` views from both scatter ops."""
    table, x = leaf(rng, 5, 3), leaf(rng, 4, 3, 3)
    with ad.Tape() as tape:
        words = ad.embedding_lookup(table, np.array([[1, 1, 4], [0, 1, 2]], dtype=np.uint8))
        rows = ad.gather_rows(x, np.array([3, 3]))
        y = weighted_sum(ad.add(words, rows), rand(rng, 2, 3, 3))
    return tape, y, [table, x]


class TestBackward:
    @pytest.mark.parametrize(
        "graph",
        [graph_add_shared, graph_unbroadcast_early_return, graph_reshape, graph_concat,
         graph_scatters],
        ids=["add-shared", "unbroadcast-early-return", "reshape", "concat", "scatters"],
    )
    def test_results_stay_independent_whether_or_not_copied(self, graph):
        """Writing into one result changes no other result and no later walk."""
        tape, y, leaves = graph(np.random.default_rng(62))
        expected = [grad.copy() for grad in ad.backward(tape, y, leaves)]
        for k in range(len(leaves)):
            grads = ad.backward(tape, y, leaves)
            grads[k][...] = np.nan
            for j, grad in enumerate(grads):
                if j != k:
                    np.testing.assert_array_equal(grad, expected[j])
            for grad, want in zip(ad.backward(tape, y, leaves), expected):
                np.testing.assert_array_equal(grad, want)
            # no result is a view or handed out twice
            assert all(grad.base is None for grad in grads)
            assert len({id(grad) for grad in grads}) == len(grads)

    @pytest.mark.parametrize("op", [ad.embedding_lookup, ad.gather_rows])
    def test_scatter_adjoint_owns_its_memory(self, op):
        # a view of the summed counts made `backward` copy it on every walk
        table = ad.Tensor(np.zeros((5, 3)), requires_grad=True)
        with ad.Tape() as tape:
            op(table, np.array([4, 0, 4]))
        (grad,) = tape.nodes[-1].backward_fn(np.ones((3, 3)))
        assert grad.base is None and grad.shape == (5, 3)

    def test_repeated_calls_return_equal_independent_arrays(self):
        a = ad.Tensor([1.0, 2.0], requires_grad=True)
        b = ad.Tensor([3.0, 4.0], requires_grad=True)
        with ad.Tape() as tape:
            y = ad.reduce_sum(ad.add(a, b))  # add hands one array to both inputs
        first = ad.backward(tape, y, [a, b])
        ga, gb = ad.backward(tape, y, [a, b])
        ga += 1.0
        np.testing.assert_array_equal(gb, [1.0, 1.0])
        for grad in first:
            np.testing.assert_array_equal(grad, [1.0, 1.0])

    def test_each_node_visited_once(self):
        x = ad.Tensor([1.0, 2.0], requires_grad=True)
        with ad.Tape() as tape:
            a = ad.scale(x, 2.0)
            b = ad.tanh(a)
            c = ad.add(a, b)  # diamond: `a` feeds two consumers
            y = ad.reduce_sum(c)
        ad.backward(tape, y, [x])
        assert tape.last_visit_count == len(tape) == 4

    def test_walk_skips_nodes_the_leaf_does_not_reach(self):
        x = ad.Tensor([1.0, 2.0], requires_grad=True)
        w = ad.Tensor([0.5, -0.5], requires_grad=True)
        with ad.Tape() as tape:
            side = ad.tanh(ad.scale(w, 2.0))  # side branch: x does not reach it
            y = ad.reduce_sum(ad.mul(x, side))
        (gx,) = ad.backward(tape, y, [x])
        assert tape.last_visit_count == 2 < len(tape) == 4  # mul, reduce_sum
        np.testing.assert_array_equal(gx, side.data)
        gx_full, _ = ad.backward(tape, y, [x, w])
        assert tape.last_visit_count == len(tape)
        np.testing.assert_array_equal(gx, gx_full)

    def test_shared_leaf_accumulates_across_branches(self):
        rng = np.random.default_rng(61)
        a = rand(rng, 5)
        b = rand(rng, 5)
        x = ad.Tensor(rand(rng, 5), requires_grad=True)
        with ad.Tape() as tape:
            y = ad.add(
                ad.reduce_sum(ad.mul(x, ad.Tensor(a))), ad.reduce_sum(ad.mul(x, ad.Tensor(b)))
            )
        (grad,) = ad.backward(tape, y, [x])
        np.testing.assert_allclose(grad, a + b, rtol=1e-12)

    def test_non_scalar_root_rejected(self):
        x = ad.Tensor([1.0, 2.0], requires_grad=True)
        with ad.Tape() as tape:
            y = ad.mul(x, x)
        with pytest.raises(ValueError, match="scalar"):
            ad.backward(tape, y, [x])

    def test_unreached_leaf_keeps_none_grad(self):
        x = ad.Tensor([1.0], requires_grad=True)
        z = ad.Tensor([1.0], requires_grad=True)
        with ad.Tape() as tape:
            y = ad.reduce_sum(ad.mul(x, x))
        gx, gz = ad.backward(tape, y, [x, z])
        np.testing.assert_array_equal(gx, [2.0])
        assert gz is None


def graph_with_unrequested_inputs(rng):
    """Only ``x`` is asked for; ``w``, ``b`` and ``lam`` require grad but
    are unreached inputs of walked nodes, and ``c`` is a constant."""
    x, w, b, lam = leaf(rng, 3, 4), leaf(rng, 4, 2), leaf(rng, 2), leaf(rng, 3)
    with ad.Tape() as tape:
        h = ad.add(ad.matmul(x, w), b)
        mixed = ad.lerp(h, ad.tanh(h), lam)
        y = ad.reduce_sum(ad.mul(mixed, ad.Tensor(rand(rng, 3, 2))))
    return tape, y, x, [w, b, lam]


def tape_flags(tape):
    tensors = {id(t): t for node in tape.nodes for t in (*node.inputs, node.output)}
    return {key: t.requires_grad for key, t in tensors.items()}


class TestMaskedInputs:
    """``backward`` clears the flags of unreached inputs for its walk only."""

    def test_walk_forms_no_adjoint_for_unrequested_inputs(self):
        tape, y, x, unrequested = graph_with_unrequested_inputs(np.random.default_rng(64))
        formed = []
        for node in tape.nodes:

            def spy(g, clean=node.backward_fn, inputs=node.inputs):
                grads = clean(g)
                formed.extend(t for t, grad in zip(inputs, grads) if grad is not None)
                return grads

            node.backward_fn = spy
        (gx,) = ad.backward(tape, y, [x])
        assert not {id(t) for t in formed} & {id(t) for t in unrequested}
        full = ad.backward(tape, y, [x, *unrequested])
        assert all(grad is not None for grad in full)
        np.testing.assert_array_equal(gx, full[0])

    def test_flags_are_restored_after_the_walk(self):
        tape, y, x, unrequested = graph_with_unrequested_inputs(np.random.default_rng(65))
        before = tape_flags(tape)
        seen = []
        matmul = tape.nodes[0]
        clean = matmul.backward_fn

        def spy(g):
            seen.append([t.requires_grad for t in unrequested])
            return clean(g)

        matmul.backward_fn = spy
        ad.backward(tape, y, [x])
        assert seen == [[False, False, False]]
        assert tape_flags(tape) == before
        assert all(t.requires_grad for t in unrequested)

    def test_flags_are_restored_when_a_backward_fn_raises(self):
        tape, y, x, unrequested = graph_with_unrequested_inputs(np.random.default_rng(66))
        before = tape_flags(tape)

        def boom(g):
            raise RuntimeError("boom")

        tape.nodes[1].backward_fn = boom  # the add, after the walk has masked
        with pytest.raises(RuntimeError, match="boom"):
            ad.backward(tape, y, [x])
        assert tape_flags(tape) == before
        assert all(t.requires_grad for t in unrequested)


class TestFiniteDiffCheck:
    def test_quadratic_checks_out(self):
        x = ad.Tensor([1.0, -2.0, 3.0], requires_grad=True)
        err = gk.finite_diff_check(lambda t: ad.reduce_sum(ad.mul(t, t)), x)
        assert err <= 1e-8

    def test_function_constant_in_x_reports_zero(self):
        x = ad.Tensor([1.0, 2.0], requires_grad=True)
        err = gk.finite_diff_check(lambda t: ad.reduce_sum(ad.Tensor([5.0])), x)
        assert err == 0.0
