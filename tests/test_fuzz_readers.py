"""Mutation fuzzing of the three input readers through ``admix train``.

Valid corpus, vectors and config files are mutated (bytes flipped, lines
duplicated or cut, labels and vector components replaced by edge values,
CRLF line ends) and trained on for two steps in-process. Whatever the
input, ``main`` returns 0, 1 or 2 and raises nothing, and an exit 1 prints
an ``error:`` line that names an input file or a config key.

The config's numbers are never fuzzed upward: its bytes flip only to
non-digits other than ``#``, and its lines are never cut, so no key falls
back to a larger default. Huge values go only into labels, which the
class-id bound caps, and into vector components.
"""

import dataclasses
import itertools
import re
import warnings

import pytest

from admix import harness as hz
from admix.cli import main
from admix.errors import read_lines

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import strategies as st  # noqa: E402

SETTINGS = """policy = amp
layer = word
max_steps = 2
batch_size = 4
embed_dim = 3
hidden_dim = 4
max_len = 6
seeds = 0
lr = 0.01
dev_fraction = 0.25
"""
TEXTS = ["a b c", "d e", "f g h", "a d", "b e f", "c g", "h a b", "e", "c d e", "g h", "f a", "b"]
FILES = {
    "train": "".join(f"{k % 3}\t{text}\n" for k, text in enumerate(TEXTS)).encode(),
    "test": "".join(f"{k % 3}\t{text}\n" for k, text in enumerate(TEXTS[::-2])).encode(),
    "vectors": "".join(
        f"{token} {0.1 * k:.1f} -0.2 0.3\n" for k, token in enumerate(["<unk>", *"abcdefgh"])
    ).encode(),
    "config": SETTINGS.encode(),
}
KEYS = [field.name for field in dataclasses.fields(hz.ExperimentConfig)]

EDGE_LABELS = ["1" * 5000, "99999999999999999999", "3000000", "-1", "١", "nan", "", "+1",
               " 0", "01", "5", "1\r", "0\r\n"]
EDGE_COMPONENTS = ["1e999", "-1e308", "1e308", "nan", "-inf", "", "1" * 5000, "١", "1_0",
                   "0x1", "-0", "\r\n"]
# no digit and no '#', so a flip cannot raise a number or comment out a key;
# str.splitlines breaks lines at \v, \f and \x1c-\x1e, universal newlines do not
CONFIG_BYTES = list(b"\xff\x00\t\r\n =x,\xc3\v\f\x1c\x1d\x1e")


def ops(flip_bytes, edge_values, cut=True):
    """A strategy for one to three mutations of one file."""
    position = st.integers(0, 10**4)
    choices = [
        st.tuples(st.just("flip"), position, st.sampled_from(flip_bytes)),
        st.tuples(st.just("dup"), position),
        st.tuples(st.just("crlf")),
    ]
    if cut:
        choices.append(st.tuples(st.just("cut"), position))
    if edge_values:
        choices.append(st.tuples(st.just("edge"), position, st.sampled_from(edge_values)))
    return st.lists(st.one_of(choices), min_size=1, max_size=3)


CASES = st.one_of(
    st.tuples(st.sampled_from(["train", "test"]), ops(range(256), EDGE_LABELS)),
    st.tuples(st.just("vectors"), ops(range(256), EDGE_COMPONENTS)),
    st.tuples(st.just("config"), ops(CONFIG_BYTES, [], cut=False)),
)


def mutate(kind: str, content: bytes, mutations) -> bytes:
    for op, *args in mutations:
        lines = content.split(b"\n")
        if op == "crlf":
            content = content.replace(b"\n", b"\r\n")
        elif op == "flip" and content:
            at = args[0] % len(content)
            content = content[:at] + bytes([args[1]]) + content[at + 1:]
        elif op == "dup":
            at = args[0] % len(lines)
            content = b"\n".join(lines[:at + 1] + lines[at:])
        elif op == "cut":
            at = args[0] % len(lines)
            content = b"\n".join(lines[:at] + lines[at + 1:])
        elif op == "edge":
            at, value = args[0] % len(lines), args[1].encode()
            if kind == "vectors":  # one of the line's three components
                parts = lines[at].split(b" ")
                parts[min(1 + args[0] % 3, len(parts) - 1)] = value
                lines[at] = b" ".join(parts)
            else:
                lines[at] = value + b"\t" + lines[at].partition(b"\t")[2]
            content = b"\n".join(lines)
    return content


@hypothesis.settings(
    max_examples=200,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[hypothesis.HealthCheck.function_scoped_fixture],
)
@hypothesis.given(case=CASES)
# a 5000-digit class id reached int()'s digit limit, whose error named no file
@hypothesis.example(case=("train", [("edge", 1, "1" * 5000)]))
# an undecodable byte printed the decoder's error, naming no file
@hypothesis.example(case=("train", [("flip", 4, 0xFF)]))
# a config error named neither its file nor a key: "unknown config key 'max_xteps'"
@hypothesis.example(case=("config", [("flip", SETTINGS.index("max_steps") + 4, ord("x"))]))
# a form feed ended a config line: the duplicate key on read_lines' line 11
# was reported as line 12
@hypothesis.example(case=("config", [("flip", len(SETTINGS) - 1, ord("\f")), ("dup", 9)]))
def test_a_mutated_input_file_fails_by_contract(tmp_path, capsys, case):
    kind, mutations = case
    paths = {name: tmp_path / name for name in FILES}
    for name, content in FILES.items():
        paths[name].write_bytes(mutate(kind, content, mutations) if name == kind else content)
    with open(paths["config"], "a", encoding="utf-8") as fh:
        fh.write(f"\ntrain_path = {paths['train']}\ntest_path = {paths['test']}\n")
        fh.write(f"embed_path = {paths['vectors']}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(["train", "--config", str(paths["config"])])
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    if code == 1:
        assert err.startswith("error: ")
        named_file = any(str(path) in err for path in paths.values())
        named_key = any(re.search(rf"\b{key}\b", err) for key in KEYS)
        assert named_file or named_key, err
    # a config text error's line N is the line read_lines yields as N: the
    # lines before it give no line error, and with it they give the same one
    where = re.match(rf"error: {re.escape(str(paths['config']))}: (line (\d+): (?!byte ).*)", err)
    if where:
        message, n = where[1], int(where[2])
        lines = [line for _, line in itertools.islice(read_lines(paths["config"]), n)]
        prefix = tmp_path / "prefix.cfg"

        def load_error(count: int) -> str:
            prefix.write_text("".join(lines[:count]), encoding="utf-8")
            try:
                hz.load_config(prefix)
            except ValueError as exc:
                return str(exc)
            return ""

        assert not load_error(n - 1).startswith(f"{prefix}: line ")
        assert load_error(n) == f"{prefix}: {message}"
