"""Subcommand behavior, CSV formats, exit codes."""

import csv
from pathlib import Path

import numpy as np
import pytest

from admix import harness as hz
from admix.cli import main, render_sweep_svg

ACCEPTANCE = Path(__file__).resolve().parents[1] / "configs" / "acceptance.cfg"

TINY = """
policy = mixup
max_steps = 20
batch_size = 16
per_class = 15
num_classes = 3
vocab_size = 100
noise_len = 8
max_len = 14
seeds = 0, 1
lr = 0.001
epsilon = 0.01
"""


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY)
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def assert_usage_error(capsys, prog, message):
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"usage: {prog} ")
    assert f"{prog}: error: {message}" in err


class TestExitCodes:
    def test_missing_subcommand_is_usage_error(self, capsys):
        assert main([]) == 1
        assert_usage_error(capsys, "admix", "the following arguments are required: command")

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["gradcheck", "--bogus"]) == 1
        assert_usage_error(capsys, "admix", "unrecognized arguments: --bogus")

    def test_missing_config_file_is_config_error(self, capsys):
        assert main(["train", "--config", "/nonexistent/path.cfg"]) == 1

    def test_bad_config_key_is_config_error(self, tmp_path, capsys):
        # the retired ablation switch must fail, not be silently ignored
        for key in ("not_a_key", "force_mask_ones"):
            path = tmp_path / "bad.cfg"
            path.write_text(f"{key} = 1\n")
            assert main(["train", "--config", str(path)]) == 1
            assert key in capsys.readouterr().err

    def test_min_freq_below_one_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(TINY + "min_freq = 0\n")
        assert main(["train", "--config", str(path)]) == 1
        assert "min_freq" in capsys.readouterr().err

    def test_wrong_width_pretrained_table_is_config_error(self, tmp_path, capsys):
        # the acceptance task has 502 vocabulary entries and 16-wide embeddings
        _, _, _, vocab = hz.prepare_task(hz.load_config(ACCEPTANCE), seed=0)
        vectors = tmp_path / "vectors.txt"
        vectors.write_text("".join(f"{token}{' 0.5' * 8}\n" for token in vocab.token_to_id))
        path = tmp_path / "pretrained.cfg"
        path.write_text(ACCEPTANCE.read_text() + f"embed_path = {vectors}\n")
        assert main(["train", "--config", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {vectors}: line 1: expected 16 components (embed_dim), got 8\n"

    def test_non_finite_pretrained_vector_is_config_error(self, tmp_path, capsys):
        # an all-nan <unk> row trained and scored its test rows' nan logits
        # as class 0, with exit 0
        _, _, _, vocab = hz.prepare_task(hz.load_config(ACCEPTANCE), seed=0)
        vectors = tmp_path / "vectors.txt"
        vectors.write_text(
            "".join(
                f"{token}{(' nan' if token == '<unk>' else ' 0.5') * 16}\n"
                for token in vocab.token_to_id
            )
        )
        path = tmp_path / "pretrained.cfg"
        path.write_text(ACCEPTANCE.read_text() + f"embed_path = {vectors}\n")
        assert main(["train", "--config", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        line = list(vocab.token_to_id).index("<unk>") + 1
        message = f"line {line}: non-finite component in the vector of '<unk>'"
        assert err == f"error: {vectors}: {message}\n"

    @pytest.mark.parametrize("label", ["3000000", "1000000000"])
    def test_large_class_id_is_config_error(self, tmp_path, capsys, label):
        # the first trained a 3 000 001-class model on two labels, exit 0;
        # the second let a MemoryError escape main
        train = tmp_path / "train.tsv"
        train.write_text(f"0\ta b\n{label}\tc d\n0\te\n")
        test = tmp_path / "test.tsv"
        test.write_text("0\ta\n")
        path = tmp_path / "files.cfg"
        path.write_text(TINY + f"train_path = {train}\ntest_path = {test}\n")
        assert main(["train", "--config", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            f"error: {train}: line 2: class id {label} implies {int(label) + 1} classes, "
            "more than twice the 2 distinct ids in the file\n"
        )

    @pytest.mark.parametrize("where", ["train", "test"])
    def test_class_id_past_the_int_digit_limit_is_config_error(self, tmp_path, capsys, where):
        # int() refuses over 4300 digits, and its error named no file or line
        big = "1" * 5000
        lines = {"train": ["0\ta b", "1\tc d", "0\te"], "test": ["0\ta", "1\tb"]}
        lines[where][1] = f"{big}\tc d"
        paths = {}
        for name, rows in lines.items():
            paths[name] = tmp_path / f"{name}.tsv"
            paths[name].write_text("\n".join(rows) + "\n")
        path = tmp_path / "files.cfg"
        path.write_text(TINY + f"train_path = {paths['train']}\ntest_path = {paths['test']}\n")
        assert main(["train", "--config", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        shown = "11111111111111111111... (5000 characters)"
        if where == "train":
            message = (
                f"class id {shown} implies over 1000000000000000000 classes, "
                "more than twice the 2 distinct ids in the file"
            )
        else:
            message = f"unknown label '{shown}'"
        assert err == f"error: {paths[where]}: line 2: {message}\n"

    @pytest.mark.parametrize("kind", ["train.tsv", "vectors.txt", "files.cfg"])
    def test_undecodable_byte_names_the_file_and_line(self, tmp_path, capsys, kind):
        # the decoder's own error named neither: "'utf-8' codec can't decode byte 0xff ..."
        paths = {name: tmp_path / name for name in ("train.tsv", "test.tsv", "vectors.txt")}
        paths["files.cfg"] = tmp_path / "files.cfg"
        files = {
            "train.tsv": "0\ta b\n1\tc d\n0\te\n1\tf\n",
            "test.tsv": "0\ta\n1\tb\n",
            "vectors.txt": "a 0.5 0.5\nb 0.5 0.5\n",
            "files.cfg": TINY.lstrip() + "embed_dim = 2\n"
            f"train_path = {paths['train.tsv']}\ntest_path = {paths['test.tsv']}\n"
            f"embed_path = {paths['vectors.txt']}\n",
        }
        for name, text in files.items():
            lines = text.encode().split(b"\n")
            if name == kind:
                lines[1] += b"\xff"
            paths[name].write_bytes(b"\n".join(lines))
        assert main(["train", "--config", str(paths["files.cfg"])]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {paths[kind]}: line 2: byte 0xff is not UTF-8\n"

    @pytest.mark.parametrize(
        "line, message",
        [
            ("bogus line", "line {n}: expected 'key = value', got 'bogus line'"),
            ("nosuch = 1", "unknown config key 'nosuch'"),
            ("lr = 0.1", "line {n}: duplicate key 'lr'"),
            ("dropout = half", "config key 'dropout': could not convert string to float"),
        ],
    )
    def test_config_text_error_names_the_config_file(self, tmp_path, capsys, line, message):
        path = tmp_path / "bad.cfg"
        path.write_text(TINY + line + "\n")
        assert main(["train", "--config", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        n = TINY.count("\n") + 1
        assert err.startswith(f"error: {path}: {message.format(n=n)}")

    @pytest.mark.parametrize(
        "end", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
    )
    def test_config_error_names_the_line_read_lines_counts(self, tmp_path, capsys, end):
        # str.splitlines also breaks at these characters, universal newlines
        # do not: the bogus line was reported as line 3
        path = tmp_path / "bad.cfg"
        path.write_text(f"max_steps = 20{end}\nbogus line\n{TINY}", encoding="utf-8")
        assert main(["train", "--config", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {path}: line 2: expected 'key = value', got 'bogus line'\n"

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_divergence_exits_two(self, tmp_path, capsys):
        path = tmp_path / "diverge.cfg"
        text = TINY.replace("lr = 0.001", "lr = 1e160").replace("max_steps = 20", "max_steps = 30")
        path.write_text(text + "backbone = text-cnn\nfilter_widths = 3\n")
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["train", "--config", str(path)]) == 2


class TestTrain:
    def test_prints_report(self, config_file, capsys):
        assert main(["train", "--config", config_file]) == 0
        out = capsys.readouterr().out
        assert "policy=mixup seed=0" in out
        assert "test_error=" in out

    def test_seed_override(self, config_file, capsys):
        assert main(["train", "--config", config_file, "--seed", "7"]) == 0
        assert "seed=7" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("alpha", "nan", "alpha must be positive and finite"),
            ("lr", "inf", "lr must be positive and finite"),
            ("seeds", "0, 0", "seeds must be distinct"),
            ("noise_len", "-3", "noise_len must be >= 0"),
            # embed-mlp's internal pooled cut point is not a layer to mix at
            ("layer", "pool", "layer must be one of"),
            ("layer", "pooled", "layer must be one of"),
        ],
    )
    def test_bad_value_is_config_error_before_training(
        self, tmp_path, monkeypatch, capsys, key, value, message
    ):
        def no_training(*args, **kwargs):
            raise AssertionError("trained before validating the config")

        monkeypatch.setattr(hz, "train", no_training)
        lines = [line for line in TINY.splitlines() if not line.startswith(f"{key} =")]
        path = tmp_path / "bad.cfg"
        path.write_text("\n".join([*lines, f"{key} = {value}"]) + "\n")
        assert main(["train", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize(
        "key, value", [("embed_dim", "0"), ("embed_dim", "-2"), ("hidden_dim", "0")]
    )
    def test_nonpositive_width_is_config_error_before_task(
        self, tmp_path, monkeypatch, capsys, key, value
    ):
        # text-cnn with embed_dim = 0 used to build the task and the model,
        # then die in the first conv backward with a numpy reshape error
        def no_task(*args, **kwargs):
            raise AssertionError("built the task before validating the config")

        monkeypatch.setattr(hz, "prepare_task", no_task)
        path = tmp_path / "bad.cfg"
        path.write_text(TINY + f"backbone = text-cnn\n{key} = {value}\n")
        assert main(["train", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {key} must be >= 1, got {value}")

    def test_negative_seed_is_config_error(self, config_file, monkeypatch, capsys):
        def no_task(*args, **kwargs):
            raise AssertionError("built the task before checking the seed")

        monkeypatch.setattr(hz, "prepare_task", no_task)
        assert main(["train", "--config", config_file, "--seed", "-1"]) == 1
        assert capsys.readouterr().err.startswith("error: seed must be nonnegative")


class TestSweep:
    def test_csv_format_and_symmetry(self, config_file, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", config_file, "--grid", "11",
                     "--out", str(out)]) == 0
        rows = read_csv(out)
        assert rows[0] == ["lambda", "loss_model_a", "loss_model_b"]
        assert len(rows) == 12
        lams = [float(r[0]) for r in rows[1:]]
        assert lams[0] == 0.0 and lams[-1] == 1.0
        for col in (1, 2):
            vals = np.array([float(r[col]) for r in rows[1:]])
            assert np.max(np.abs(vals - vals[::-1])) < 1e-9

    def test_single_pair_and_svg(self, config_file, tmp_path):
        out = tmp_path / "pair.csv"
        svg = tmp_path / "pair.svg"
        assert main(["sweep", "--config", config_file, "--grid", "5",
                     "--out", str(out), "--pair", "1", "4", "--svg", str(svg)]) == 0
        assert len(read_csv(out)) == 6
        text = svg.read_text()
        assert text.startswith("<svg") and "polyline" in text and "</svg>" in text

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--grid", "1"], "--grid must be >= 2, got 1"),
            (["--pair", "0", "99999"], "out of range for 45 test examples"),
            (["--pair", "-1", "0"], "out of range"),
        ],
    )
    def test_bad_input_rejected_before_training(
        self, config_file, tmp_path, monkeypatch, capsys, flags, message
    ):
        def no_training(*args, **kwargs):
            raise AssertionError("trained before checking the sweep arguments")

        monkeypatch.setattr(hz, "train", no_training)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", config_file, "--out", str(out), *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out.exists()


class TestLowres:
    def test_writes_experiments_summary_manifest(self, tmp_path, capsys):
        path = tmp_path / "fast.cfg"
        path.write_text(TINY.replace("max_steps = 20", "max_steps = 6"))
        assert main(["lowres", "--config", str(path), "--ratios", "0.5,1.0",
                     "--outdir", str(tmp_path)]) == 0
        for tag in ("0.5", "1"):
            exp = read_csv(tmp_path / f"experiments_r{tag}.csv")
            assert exp[0] == ["policy", "seed", "test_error"]
            assert len(exp) == 1 + 3 * 2  # three policies, two seeds
            assert {r[0] for r in exp[1:]} == {"none", "mixup", "amp"}
            summary = read_csv(tmp_path / f"summary_r{tag}.csv")
            assert summary[0] == ["policy", "mean", "std", "rp_percent"]
            assert [r[0] for r in summary[1:]] == ["none", "mixup", "amp"]
            assert summary[1][3] == ""  # first row has no comparison point
            assert (tmp_path / f"manifest_r{tag}.json").exists()

    def test_rp_column_matches_means_at_one_decimal(self, tmp_path):
        path = tmp_path / "fast.cfg"
        path.write_text(TINY.replace("max_steps = 20", "max_steps = 6"))
        assert main(["lowres", "--config", str(path), "--ratios", "1.0",
                     "--outdir", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "summary_r1.csv")[1:]
        for prev, cur in zip(rows, rows[1:]):
            base, ours = float(prev[1]), float(cur[1])
            expected = 0.0 if base == 0.0 else (base - ours) / base * 100.0
            assert cur[3] == f"{expected:.1f}"

    def test_empty_ratios_rejected(self, config_file, capsys):
        assert main(["lowres", "--config", config_file, "--ratios", ","]) == 1

    @pytest.mark.parametrize(
        "ratios, message",
        [
            ("1.0,0", "subsample_ratio must be in (0, 1], got 0.0"),
            ("0.5,1.5", "subsample_ratio must be in (0, 1], got 1.5"),
            ("0.5,nan", "subsample_ratio must be in (0, 1], got nan"),
            ("0.5,0.50", "--ratios 0.5 and 0.50 both write files tagged r0.5"),
            ("0.1234567,0.1234568", "both write files tagged r0.123457"),
        ],
    )
    def test_bad_ratios_rejected_before_training(
        self, config_file, tmp_path, monkeypatch, capsys, ratios, message
    ):
        def no_training(*args, **kwargs):
            raise AssertionError("trained before checking --ratios")

        monkeypatch.setattr(hz, "run_seeds", no_training)
        outdir = tmp_path / "out"
        code = main(["lowres", "--config", config_file, "--ratios", ratios,
                     "--outdir", str(outdir)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not outdir.exists()

    def test_creates_missing_outdir(self, tmp_path):
        path = tmp_path / "fast.cfg"
        path.write_text(TINY.replace("max_steps = 20", "max_steps = 6"))
        outdir = tmp_path / "results" / "nested"
        assert main(["lowres", "--config", str(path), "--ratios", "1.0",
                     "--outdir", str(outdir)]) == 0
        assert (outdir / "experiments_r1.csv").exists()


class TestAblate:
    def test_prints_and_writes_variant_rows(self, tmp_path, capsys):
        path = tmp_path / "fast.cfg"
        path.write_text(TINY.replace("max_steps = 20", "max_steps = 5"))
        out = tmp_path / "ablate.csv"
        assert main(["ablate", "--config", str(path), "--out", str(out)]) == 0
        rows = read_csv(out)
        assert rows[0] == ["policy", "mean", "std", "rp_percent"]
        assert [r[0] for r in rows[1:]] == ["baseline", "+randop", "+maxop", "amp"]
        printed = capsys.readouterr().out
        assert "+maxop" in printed


class TestGradcheck:
    def test_passes_and_prints_rows(self, capsys):
        assert main(["gradcheck", "--instances", "3"]) == 0
        out = capsys.readouterr().out
        assert "matmul" in out
        assert "max_rel_err" in out
        assert "all gradient checks passed" in out

    def test_corrupted_op_exits_two_and_names_it(self, capsys):
        assert main(["gradcheck", "--instances", "2", "--corrupt", "tanh"]) == 2
        captured = capsys.readouterr()
        assert "tanh" in captured.err

    @pytest.mark.parametrize("instances", ["0", "-3"])
    def test_no_instances_is_config_error(self, instances, capsys):
        assert main(["gradcheck", "--instances", instances]) == 1
        captured = capsys.readouterr()
        assert "instances must be >= 1" in captured.err
        assert "passed" not in captured.out

    @pytest.mark.parametrize("target", ["no_such_op", "backward", "Tensor"])
    def test_unknown_corrupt_target_is_config_error(self, target, capsys):
        assert main(["gradcheck", "--corrupt", target]) == 1
        assert "unknown op" in capsys.readouterr().err


class TestSvgRenderer:
    def test_flat_series_does_not_divide_by_zero(self, tmp_path):
        rows = [(0.0, 1.0, 1.0), (0.5, 1.0, 1.0), (1.0, 1.0, 1.0)]
        path = tmp_path / "flat.svg"
        render_sweep_svg(rows, str(path))
        assert "<svg" in path.read_text()
