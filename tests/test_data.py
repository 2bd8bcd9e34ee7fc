"""Corpus loading, vocabulary, encoding, splitting, and the synthetic task."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from admix import data
from admix import harness as hz
from admix import models

ROOT = Path(__file__).resolve().parents[1]


def class_counts(ds):
    return np.bincount([label for _, label in ds.examples], minlength=ds.num_classes)


def write_corpus(tmp_path, lines, name="corpus.tsv"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return path


class TestLoadCorpus:
    def test_named_labels_map_in_first_appearance_order(self, tmp_path):
        path = write_corpus(
            tmp_path,
            ["LOC\twhere is tokyo", "NUM\thow many moons", "LOC\twhere is oslo"],
        )
        ds = data.load_corpus(path)
        assert ds.num_classes == 2
        assert ds.label_names == {"LOC": 0, "NUM": 1}
        assert ds.examples == [
            ("where is tokyo", 0),
            ("how many moons", 1),
            ("where is oslo", 0),
        ]

    def test_integer_labels_used_directly(self, tmp_path):
        path = write_corpus(tmp_path, ["0\talpha", "2\tbeta", "1\tgamma"])
        ds = data.load_corpus(path)
        assert ds.num_classes == 3
        assert [label for _, label in ds.examples] == [0, 2, 1]

    def test_integer_labels_keep_their_written_form(self, tmp_path):
        # zero-padded ids key the map as written, so the test file of the
        # pair finds them; plain ids keep the map {"0": 0, "1": 1, ...}
        train = write_corpus(tmp_path, ["01\talpha", "00\tbeta", "01\tgamma"], "train.tsv")
        test = write_corpus(tmp_path, ["00\tdelta", "01\tepsilon"], "test.tsv")
        ds = data.load_corpus(train)
        assert ds.label_names == {"00": 0, "01": 1}
        assert data.load_corpus(test, label_names=ds.label_names).examples == [
            ("delta", 0),
            ("epsilon", 1),
        ]
        plain = data.load_corpus(write_corpus(tmp_path, ["2\ta", "0\tb", "2\tc"], "plain.tsv"))
        assert list(plain.label_names.items()) == [("0", 0), ("2", 2)]
        both = data.load_corpus(write_corpus(tmp_path, ["1\ta", "0\tb", "01\tc"], "both.tsv"))
        assert both.label_names == {"0": 0, "01": 1, "1": 1}
        assert [label for _, label in both.examples] == [1, 0, 1]

    def test_test_file_takes_a_class_id_the_training_file_lacks(self, tmp_path):
        # training ids 0 and 2 make 3 classes, so id 1 is a class too
        ds = data.load_corpus(write_corpus(tmp_path, ["0\ta", "2\tb"], "train.tsv"))
        assert (ds.num_classes, ds.label_names) == (3, {"0": 0, "2": 2})
        test = write_corpus(tmp_path, ["1\tc", "2\td", "0\te"], "test.tsv")
        assert data.load_corpus(test, label_names=ds.label_names).examples == [
            ("c", 1),
            ("d", 2),
            ("e", 0),
        ]
        for bad in ("3", "-1", "x"):
            path = write_corpus(tmp_path, ["0\tf", f"{bad}\tg"], "bad.tsv")
            with pytest.raises(ValueError, match=f"{path}: line 2: unknown label '{bad}'"):
                data.load_corpus(path, label_names=ds.label_names)
        # a name map keeps its exact lookup, ids included
        names = data.load_corpus(write_corpus(tmp_path, ["LOC\ta", "0\tb"], "names.tsv"))
        assert names.label_names == {"LOC": 0, "0": 1}
        path = write_corpus(tmp_path, ["1\tc"], "names_test.tsv")
        with pytest.raises(ValueError, match="line 1: unknown label '1'"):
            data.load_corpus(path, label_names=names.label_names)

    @pytest.mark.parametrize("label", ["+1", " 0", "\u0661", "1_000"])
    def test_only_ascii_digits_are_class_ids(self, tmp_path, label):
        # int() reads each of these as an id; as one they would be 1, 0, 1, 1000
        ds = data.load_corpus(write_corpus(tmp_path, ["0\ta", f"{label}\tb"]))
        assert ds.label_names == {"0": 0, label: 1}
        path = write_corpus(tmp_path, [f"{label}\tc"], "test.tsv")
        plain = data.load_corpus(write_corpus(tmp_path, ["0\ta", "1\tb"], "plain.tsv"))
        with pytest.raises(ValueError, match="line 1: unknown label"):
            data.load_corpus(path, label_names=plain.label_names)

    def test_implied_class_count_is_bounded(self, tmp_path):
        # 4 classes from ids {0, 3} is the most two distinct ids may imply
        ds = data.load_corpus(write_corpus(tmp_path, ["3\ta", "0\tb"]))
        assert ds.num_classes == 4
        for big in ("4", "3000000", "1000000000"):
            path = write_corpus(tmp_path, ["0\ta", f"{big}\tb", "0\tc"], "big.tsv")
            message = (
                f"{path}: line 2: class id {big} implies {int(big) + 1} classes, "
                "more than twice the 2 distinct ids in the file"
            )
            with pytest.raises(ValueError, match=message):
                data.load_corpus(path)

    def test_zero_padding_past_the_int_digit_limit_is_read(self, tmp_path):
        # only the significant digits go to int(), which refuses over 4300
        padded = "0" * 5000 + "1"
        ds = data.load_corpus(write_corpus(tmp_path, ["0\ta", f"{padded}\tb"]))
        assert (ds.num_classes, ds.label_names) == (2, {"0": 0, padded: 1})

    def test_mixed_labels_fall_back_to_names(self, tmp_path):
        path = write_corpus(tmp_path, ["1\talpha", "x\tbeta"])
        ds = data.load_corpus(path)
        assert ds.label_names == {"1": 0, "x": 1}

    def test_missing_tab_names_line(self, tmp_path):
        path = write_corpus(tmp_path, ["LOC\tfine", "broken line", "NUM\talso fine"])
        with pytest.raises(ValueError, match="line 2"):
            data.load_corpus(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            data.load_corpus(path)

    def test_empty_label_rejected(self, tmp_path):
        path = write_corpus(tmp_path, ["\ttext without label"])
        with pytest.raises(ValueError, match="line 1"):
            data.load_corpus(path)

    def test_empty_text_is_allowed(self, tmp_path):
        path = write_corpus(tmp_path, ["A\t", "B\tsomething"])
        ds = data.load_corpus(path)
        assert ds.examples[0] == ("", 0)

    def test_single_class_rejected(self, tmp_path):
        path = write_corpus(tmp_path, ["A\tone", "A\ttwo"])
        with pytest.raises(ValueError, match="2 classes"):
            data.load_corpus(path)


class TestVocab:
    def test_reserved_ids_and_first_appearance_order(self):
        ds = data.Dataset([("the cat sat", 0), ("the dog ran", 1)], 2)
        vocab = data.build_vocab(ds)
        assert list(vocab.token_to_id)[:2] == [data.PAD_TOKEN, data.UNK_TOKEN]
        assert vocab.token_to_id["the"] == 2
        assert vocab.token_to_id["cat"] == 3
        assert len(vocab) == 2 + 5  # reserved ids plus unique tokens

    def test_min_freq_filters_rare_tokens(self):
        ds = data.Dataset([("a a b", 0), ("a c", 1)], 2)
        vocab = data.build_vocab(ds, min_freq=2)
        assert "a" in vocab.token_to_id
        assert "b" not in vocab.token_to_id
        batch = data.encode_batch([("a b", 0)], vocab, max_len=2, num_classes=2)
        np.testing.assert_array_equal(batch.token_ids[0], [vocab.token_to_id["a"], data.UNK_ID])

    def test_tokenization_lowercases(self):
        ds = data.Dataset([("The THE the", 0), ("x y", 1)], 2)
        vocab = data.build_vocab(ds)
        assert "the" in vocab.token_to_id
        assert "The" not in vocab.token_to_id

    def test_bad_min_freq(self):
        with pytest.raises(ValueError, match="min_freq"):
            data.build_vocab(data.Dataset([("a", 0)], 2), min_freq=0)


class TestEncodeBatch:
    def setup_method(self):
        ds = data.Dataset([("the cat sat on the mat", 0), ("dogs run", 1)], 2)
        self.vocab = data.build_vocab(ds)

    def test_padding_and_valid_lengths(self):
        batch = data.encode_batch(
            [("the cat", 0), ("dogs run far away", 1)], self.vocab, max_len=5, num_classes=2
        )
        assert batch.token_ids.shape == (2, 5)
        np.testing.assert_array_equal(batch.valid_lens, [2, 4])
        assert (batch.token_ids[0, 2:] == data.PAD_ID).all()
        np.testing.assert_array_equal(batch.label_ids, [0, 1])

    def test_truncates_at_max_len(self):
        batch = data.encode_batch(
            [("the cat sat on the mat", 0)], self.vocab, max_len=3, num_classes=2
        )
        np.testing.assert_array_equal(batch.valid_lens, [3])

    def test_unknown_tokens_map_to_unk(self):
        batch = data.encode_batch([("zebra cat", 0)], self.vocab, max_len=4, num_classes=2)
        assert batch.token_ids[0, 0] == data.UNK_ID
        assert batch.token_ids[0, 1] == self.vocab.token_to_id["cat"]

    def test_empty_text_becomes_single_unk(self):
        batch = data.encode_batch([("", 1)], self.vocab, max_len=4, num_classes=2)
        np.testing.assert_array_equal(batch.valid_lens, [1])
        assert batch.token_ids[0, 0] == data.UNK_ID

    def test_round_trip_through_decode(self):
        text = "the cat sat"
        batch = data.encode_batch([(text, 0)], self.vocab, max_len=8, num_classes=2)
        vl = batch.valid_lens[0]
        tokens = list(self.vocab.token_to_id)
        assert [tokens[i] for i in batch.token_ids[0, :vl]] == text.split()

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="label"):
            data.encode_batch([("the cat", 5)], self.vocab, max_len=4, num_classes=2)

    @staticmethod
    def per_row_reference(examples, vocab, max_len, num_classes):
        """Look up every token, then truncate, one row write at a time."""
        n = len(examples)
        ids = np.full((n, max_len), data.PAD_ID, dtype=np.int64)
        valid = np.empty(n, dtype=np.int64)
        label_ids = np.empty(n, dtype=np.int64)
        for row, (text, label) in enumerate(examples):
            lookup = vocab.token_to_id.get
            token_ids = [lookup(t, data.UNK_ID) for t in data.tokenize(text)][:max_len]
            if not token_ids:
                token_ids = [data.UNK_ID]
            ids[row, : len(token_ids)] = token_ids
            valid[row] = len(token_ids)
            label_ids[row] = label
        return models.Batch(ids, valid, label_ids)

    @pytest.mark.parametrize("max_len", [1, 3, 6])
    def test_matches_per_row_reference(self, max_len):
        examples = [
            ("", 1),
            ("the cat sat on the mat and the dogs run far", 0),
            ("zebra THE   okapi cat", 1),
            ("   ", 0),
            ("dogs", 1),
            ("mat mat mat mat mat mat mat", 0),
        ]
        for subset in (examples, examples[:1], []):
            got = data.encode_batch(subset, self.vocab, max_len, num_classes=2)
            want = self.per_row_reference(subset, self.vocab, max_len, 2)
            for field in dataclasses.fields(models.Batch):
                a, b = getattr(got, field.name), getattr(want, field.name)
                assert a.dtype == b.dtype and a.shape == b.shape, field.name
                np.testing.assert_array_equal(a, b, err_msg=field.name)


def balanced_dataset(per_class=10, num_classes=3):
    examples = [
        (f"tok{c}_{i}", c) for c in range(num_classes) for i in range(per_class)
    ]
    return data.Dataset(examples, num_classes)


class TestSubsample:
    def test_ratio_one_keeps_everything_in_order(self):
        ds = balanced_dataset()
        out = data.subsample_per_class(ds, 1.0, np.random.default_rng(0))
        assert out.examples == ds.examples

    def test_floor_with_minimum_of_one(self):
        ds = balanced_dataset(per_class=10)
        out = data.subsample_per_class(ds, 0.25, np.random.default_rng(1))
        np.testing.assert_array_equal(class_counts(out), [2, 2, 2])
        tiny = data.subsample_per_class(ds, 0.05, np.random.default_rng(1))
        np.testing.assert_array_equal(class_counts(tiny), [1, 1, 1])

    def test_deterministic_and_seed_sensitive(self):
        ds = balanced_dataset(per_class=30)
        a = data.subsample_per_class(ds, 0.3, np.random.default_rng(5))
        b = data.subsample_per_class(ds, 0.3, np.random.default_rng(5))
        c = data.subsample_per_class(ds, 0.3, np.random.default_rng(6))
        assert a.examples == b.examples
        assert a.examples != c.examples

    def test_bad_ratio(self):
        ds = balanced_dataset()
        for ratio in (0.0, -0.5, 1.2):
            with pytest.raises(ValueError, match="ratio"):
                data.subsample_per_class(ds, ratio, np.random.default_rng(0))


class TestSplitDev:
    def test_stratified_fraction(self):
        ds = balanced_dataset(per_class=100)
        train, dev = data.split_dev(ds, 0.1, np.random.default_rng(2))
        np.testing.assert_array_equal(class_counts(dev), [10, 10, 10])
        np.testing.assert_array_equal(class_counts(train), [90, 90, 90])

    def test_partition_is_disjoint_and_complete(self):
        ds = balanced_dataset(per_class=7)
        train, dev = data.split_dev(ds, 0.3, np.random.default_rng(3))
        assert len(train) + len(dev) == len(ds)
        assert set(train.examples).isdisjoint(dev.examples)
        assert sorted(train.examples + dev.examples) == sorted(ds.examples)

    def test_every_class_keeps_a_training_example(self):
        ds = balanced_dataset(per_class=2)
        train, dev = data.split_dev(ds, 0.9, np.random.default_rng(4))
        assert (class_counts(train) >= 1).all()
        np.testing.assert_array_equal(class_counts(dev), [1, 1, 1])

    def test_single_example_class_warns_and_stays(self):
        ds = data.Dataset([("only one", 0), ("a", 1), ("b", 1), ("c", 1)], 2)
        with pytest.warns(UserWarning, match="single example"):
            train, dev = data.split_dev(ds, 0.5, np.random.default_rng(5))
        assert class_counts(train)[0] == 1

    def test_bad_fraction(self):
        ds = balanced_dataset()
        for fraction in (0.0, 1.0, -0.1):
            with pytest.raises(ValueError, match="fraction"):
                data.split_dev(ds, fraction, np.random.default_rng(0))


class TestSyntheticCorpus:
    def generate(self, rng_seed=0, **kwargs):
        args = dict(
            num_classes=4,
            per_class=50,
            vocab_size=120,
            signal_tokens_per_class=5,
            noise_len=8,
            rng=np.random.default_rng(rng_seed),
        )
        args.update(kwargs)
        return data.generate_synthetic_corpus(**args)

    def token_ids(self, text):
        return [int(tok[1:]) for tok in text.split()]

    def test_size_and_balance(self):
        ds = self.generate()
        assert len(ds) == 200
        np.testing.assert_array_equal(class_counts(ds), [50, 50, 50, 50])
        assert ds.num_classes == 4

    def test_tokens_stay_in_inventory(self):
        ds = self.generate()
        for text, _ in ds.examples:
            for k in self.token_ids(text):
                assert 0 <= k < 120

    def test_signal_tokens_come_from_own_block_without_label_noise(self):
        ds = self.generate(label_noise=0.0)
        for text, label in ds.examples:
            lo = label * 5
            signal = [k for k in self.token_ids(text) if k < 4 * 5]
            assert 2 <= len(signal) <= 4
            assert all(lo <= k < lo + 5 for k in signal)

    def test_label_noise_rate_is_about_ten_percent(self):
        ds = self.generate(per_class=150, label_noise=0.1)
        corrupted = 0
        for text, label in ds.examples:
            lo = label * 5
            off_block = [k for k in self.token_ids(text) if k < 20 and not lo <= k < lo + 5]
            assert len(off_block) <= 1
            corrupted += bool(off_block)
        # 600 draws at p = 0.1: stay within 5 standard deviations
        assert 23 <= corrupted <= 97

    def test_zero_noise_len_gives_pure_signal(self):
        ds = self.generate(noise_len=0, label_noise=0.0)
        for text, label in ds.examples:
            lo = label * 5
            assert all(lo <= k < lo + 5 for k in self.token_ids(text))

    def test_example_length_bounds(self):
        ds = self.generate(noise_len=8, label_noise=0.0)
        lengths = {len(text.split()) for text, _ in ds.examples}
        assert lengths <= {10, 11, 12}

    def test_deterministic_under_seed(self):
        a = self.generate(rng_seed=7)
        b = self.generate(rng_seed=7)
        c = self.generate(rng_seed=8)
        assert a.examples == b.examples
        assert a.examples != c.examples

    # the two acceptance.cfg corpora, content hash and generator state after
    # each call; any change to the draws or their order moves these
    ACCEPTANCE_PINS = {
        0: (
            "7dbd59b8f15b7772ea823697528de20b8daa93a31d1f9e738a60d2955f0ca494",
            {
                "bit_generator": "PCG64",
                "state": {
                    "state": 91657100165326723745071830117289121765,
                    "inc": 107381791681050441119675421997145146149,
                },
                "has_uint32": 0,
                "uinteger": 1036481276,
            },
        ),
        1: (
            "463634fb09148b4d7a390141fd35f9be1da1df2746f32c98de51f6628a33e3a9",
            {
                "bit_generator": "PCG64",
                "state": {
                    "state": 254457210706161695294130012854457354330,
                    "inc": 96711883913559494403953442744134601843,
                },
                "has_uint32": 0,
                "uinteger": 1471147159,
            },
        ),
    }

    def test_acceptance_corpora_and_generator_state_pinned(self):
        cfg = hz.load_config(ROOT / "configs" / "acceptance.cfg")
        for key, per_class in ((0, cfg.per_class), (1, cfg.test_per_class)):
            rng = np.random.default_rng(np.random.SeedSequence([cfg.data_seed, key]))
            ds = data.generate_synthetic_corpus(
                num_classes=cfg.num_classes,
                per_class=per_class,
                vocab_size=cfg.vocab_size,
                signal_tokens_per_class=cfg.signal_tokens_per_class,
                noise_len=cfg.noise_len,
                rng=rng,
                label_noise=cfg.label_noise,
            )
            digest, state = self.ACCEPTANCE_PINS[key]
            assert data.dataset_hash(ds) == digest
            assert rng.bit_generator.state == state

    def test_vocab_must_exceed_signal_blocks(self):
        with pytest.raises(ValueError, match="vocab_size"):
            self.generate(vocab_size=20)

    def test_bad_shape_parameters(self):
        with pytest.raises(ValueError):
            self.generate(num_classes=1)
        with pytest.raises(ValueError):
            self.generate(per_class=0)
        with pytest.raises(ValueError):
            self.generate(label_noise=1.5)


class TestManifest:
    def test_hash_tracks_content(self):
        ds_a = balanced_dataset()
        ds_b = balanced_dataset()
        assert data.dataset_hash(ds_a) == data.dataset_hash(ds_b)
        ds_b.examples[0] = ("changed", 0)
        assert data.dataset_hash(ds_a) != data.dataset_hash(ds_b)

    def test_manifest_contents(self, tmp_path):
        ds = balanced_dataset()
        ds.label_names = {"A": 0, "B": 1, "C": 2}
        path = tmp_path / "manifest.json"
        data.write_manifest(path, ds, seeds=[0, 1, 2], subsample_ratio=0.25, extra={"policy": "amp"})
        loaded = json.loads(path.read_text())
        assert loaded["dataset_hash"] == data.dataset_hash(ds)
        assert loaded["seeds"] == [0, 1, 2]
        assert loaded["subsample_ratio"] == 0.25
        assert loaded["label_map"] == {"A": 0, "B": 1, "C": 2}
        assert loaded["num_examples"] == 30
        assert loaded["policy"] == "amp"
