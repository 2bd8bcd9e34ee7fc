"""Import layering of the package, read from the source with ``ast``.

``autodiff`` is the bottom layer and depends on numpy alone; training
code does not reach into the gradient audit; nothing imports the
command-line front end; no module rebinds another's attribute, but for
the audit setting the tape's adjoint hook; and only ``errors.read_lines``
opens a file to read it.
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "admix"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


def imports(module: str) -> tuple[set, set]:
    """(package modules, outside top-level modules) that ``module`` imports."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    inside, outside = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top, _, rest = alias.name.partition(".")
                if top == "admix":
                    inside.add(rest.partition(".")[0])
                else:
                    outside.add(top)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and not node.module.startswith("admix"):
                outside.add(node.module.partition(".")[0])
            elif node.module in (None, "admix"):  # from . import x
                inside.update(alias.name for alias in node.names)
            else:
                inside.add(node.module.removeprefix("admix.").partition(".")[0])
    return inside, outside


def test_reader_sees_package_imports():
    inside, outside = imports("cli")
    assert {"data", "gradcheck", "harness", "errors"} <= inside
    assert {"argparse", "sys"} <= outside


def test_autodiff_needs_only_numpy_and_the_stdlib():
    inside, outside = imports("autodiff")
    assert inside == set()
    assert outside <= {"numpy"} | set(sys.stdlib_module_names)


def test_training_does_not_import_the_audit():
    inside, _ = imports("harness")
    assert "gradcheck" not in inside


@pytest.mark.parametrize("module", ["mixup", "amp"])
def test_mixing_does_not_import_the_harness(module):
    # the harness config extends mixup.MixConfig, not the other way round
    inside, _ = imports(module)
    assert "harness" not in inside


@pytest.mark.parametrize("module", MODULES)
def test_nothing_imports_the_cli(module):
    inside, _ = imports(module)
    assert "cli" not in inside


def scopes(tree: ast.Module) -> list:
    """(name, node) of each top-level statement, and of each class body's statement."""
    found = []
    for top in tree.body:
        if isinstance(top, ast.ClassDef):
            found += [(f"{top.name}.{getattr(item, 'name', '')}", item) for item in top.body]
        else:
            found.append((getattr(top, "name", "<module>"), top))
    return found


def requires_grad_writers(module: str) -> set:
    """Top-level functions and methods of ``module`` that set a ``requires_grad``
    attribute, by assignment or ``setattr``."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    writers = set()
    for name, scope in scopes(tree):
        for node in ast.walk(scope):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                if node.attr == "requires_grad":
                    writers.add(name)
            elif (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "setattr"
                and any(getattr(arg, "value", None) == "requires_grad" for arg in node.args)
            ):
                writers.add(name)
    return {(module, name) for name in writers}


def test_only_the_walk_and_two_setups_set_requires_grad():
    # which adjoints a walk forms is decided in autodiff.backward alone; a
    # flag toggled mid-step elsewhere would decide it a second time. The two
    # setups are the Tensor constructor and freezing the embedding table
    found = set().union(*(requires_grad_writers(module) for module in MODULES))
    assert found == {
        ("autodiff", "Tensor.__init__"),
        ("autodiff", "backward"),
        ("models", "freeze_embeddings"),
    }


def dotted(node) -> tuple[str, str | None]:
    """``node`` as dotted text, and the name its chain of attributes starts from."""
    if isinstance(node, ast.Attribute):
        text, root = dotted(node.value)
        return f"{text}.{node.attr}", root
    if isinstance(node, ast.Name):
        return node.id, node.id
    return ast.unparse(node), None


def package_attribute_writes(tree: ast.Module) -> set:
    """(scope, target) for each attribute that ``tree`` sets or deletes on a
    name it imports from the package, by assignment, ``setattr`` or ``delattr``."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("admix")):
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.partition(".")[0] == "admix":
                    imported.add(alias.asname or "admix")
    writes = set()
    for name, scope in scopes(tree):
        for node in ast.walk(scope):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del)):
                target, root = dotted(node)
            elif (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", None) in ("setattr", "delattr")
                and node.args
            ):
                target, root = dotted(node.args[0])
                target = f"{node.func.id}({target}, ...)"
            else:
                continue
            if root in imported:
                writes.add((name, target))
    return writes


def test_the_attribute_guard_sees_every_form_of_write():
    tree = ast.parse(
        "from . import autodiff as ad, models\n"
        "from .autodiff import Tape\n"
        "def f(fn):\n"
        "    ad.matmul = fn\n"
        "    setattr(models, 'forward', fn)\n"
        "    Tape.wrap = fn\n"
        "    del ad.OPS\n"
        "    local = object()\n"
        "    local.attr = fn\n"
    )
    assert package_attribute_writes(tree) == {
        ("f", "ad.matmul"), ("f", "setattr(models, ...)"), ("f", "Tape.wrap"), ("f", "ad.OPS"),
    }


def backbone_reads(tree: ast.Module) -> set:
    """Each ``.kind`` or ``.params`` attribute that ``tree`` reads, and
    each ``embedding_*`` op it names, as dotted text."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and (
            node.attr in ("kind", "params") or node.attr.startswith("embedding_")
        ):
            found.add(dotted(node)[0])
    return found


def test_the_backbone_guard_sees_every_form_of_read():
    tree = ast.parse(
        "def f(model, batch):\n"
        "    if model.kind == 'embed-mlp':\n"
        "        return ad.embedding_mean(model.params['embed'], batch.token_ids, None)\n"
        "    return batch.token_ids\n"
    )
    assert backbone_reads(tree) == {"model.kind", "model.params", "ad.embedding_mean"}


@pytest.mark.parametrize("module", ["mixup", "amp"])
def test_mixing_reaches_a_backbone_only_through_models(module):
    # how a backbone embeds its words, and what its parameters are called,
    # is decided in models alone; mixing reaches a layer through its split
    # forward
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    assert backbone_reads(tree) == set()


def test_only_the_audit_rebinds_a_package_attribute():
    # a module that swaps another's attribute changes it for every caller;
    # the one such write is the audit's corruption, through the tape's hook
    found = set()
    for module in MODULES:
        tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
        found |= {(module, *write) for write in package_attribute_writes(tree)}
    assert found == {("gradcheck", "gradcheck", "ad.Tape.wrap")}


def open_modes(tree: ast.Module) -> list:
    """The mode of each ``open(...)`` call in ``tree``, as source text."""
    modes = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open":
            mode = node.args[1] if len(node.args) > 1 else next(
                (kw.value for kw in node.keywords if kw.arg == "mode"), ast.Constant("r")
            )
            modes.append(ast.unparse(mode))
    return modes


def test_the_open_guard_sees_every_form_of_mode():
    tree = ast.parse("open(a)\nopen(b, 'w')\nopen(c, mode='rb')\nopen(d, encoding='utf-8')\n")
    assert open_modes(tree) == ["'r'", "'w'", "'rb'", "'r'"]


def test_only_read_lines_reads_a_file():
    # how a line ends, which bytes are UTF-8 and whether a byte-order mark
    # is text are decided in errors.read_lines alone; a second reader, or a
    # splitter over text in memory, would decide them again
    for module in MODULES:
        tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
        if module != "errors":
            assert set(open_modes(tree)) <= {"'w'"}, module
        assert "io" not in imports(module)[1], module
