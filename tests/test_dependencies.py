"""numpy is synthloc's only runtime dependency: every module imports only
numpy, the standard library and its own package, and uses every name it
imports."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "synthloc"
ALLOWED = {"numpy"} | set(sys.stdlib_module_names)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_are_numpy_stdlib_or_relative(path):
    imported = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            imported.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.append(node.module)
    assert [name for name in imported if name.split(".")[0] not in ALLOWED] == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    """A name a module imports is read somewhere in it, so that deleting the
    code that used an import deletes the import too."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


BENCH = SRC.parents[1] / "bench"
# the acceptance oracles of criteria 3, 7 and 5, which only tests call
ORACLES = {"consistency_score", "asmk_score", "recall_at_k"}


def _names_read(node) -> set[str]:
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def _defined(node) -> set[str]:
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return {node.name}
    targets = node.targets if isinstance(node, ast.Assign) else []
    return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}


def _methods(node) -> set[tuple[str, str]]:
    """(class, name) for each public method (properties included) of a
    top-level class."""
    if not isinstance(node, ast.ClassDef):
        return set()
    return {
        (node.name, item.name)
        for item in node.body
        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
    }


def _method_reads(tree, classes: set[str]) -> set[tuple[str | None, str]]:
    """The methods a module may read: (class, name) for an attribute read
    off one of `classes` by its name, as `DenseSignatures.stack` or
    `variants.VariantStore.from_mapping`; (None, name) for one read off any
    other value, which may be of any class; nothing for one read off a
    module. A module is a name bound by a plain `import`, or an attribute of
    it (all of `np.linalg.norm`), or a name bound to a synthloc module, which
    has no submodules (`VariantStore` above)."""
    packages, modules = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            packages.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module in (None, "synthloc"):
            modules.update(
                alias.asname or alias.name for alias in node.names if (SRC / f"{alias.name}.py").exists()
            )

    def root(node):
        while isinstance(node, ast.Attribute):
            node = node.value
        return node.id if isinstance(node, ast.Name) else None

    def receiver(value):
        if isinstance(value, ast.Name):
            return value.id if value.id in classes else None
        if isinstance(value, ast.Attribute) and isinstance(value.value, ast.Name) and value.value.id in modules:
            return value.attr if value.attr in classes else None
        return None

    return {
        (receiver(n.value), n.attr)
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute)
        and root(n) not in packages
        and not (isinstance(n.value, ast.Name) and n.value.id in modules)
    }


def test_every_public_name_has_a_caller_outside_tests():
    """Every public top-level name of `src/synthloc` is read by another
    top-level statement of `src` or named in `bench`, and every public
    method is read as an attribute in `src` or `bench`, so that helpers only
    the tests call live in the tests and the package's surface is what the
    pipeline uses. A method read off its class by name keeps that method
    alone (`DenseSignatures.stack`), one read off any other value keeps
    every method of its name (`x.stack`), and an attribute of a module keeps
    none (`np.stack`)."""
    defined: set[str] = set()
    methods: set[tuple[str, str]] = set()
    read: set[str] = set()
    src = [ast.parse(path.read_text(), filename=str(path)) for path in SRC.glob("*.py")]
    bench = [ast.parse(path.read_text(), filename=str(path)) for path in BENCH.glob("*.py")]
    for node in (node for tree in src for node in tree.body):
        own = _defined(node)
        defined |= {name for name in own if not name.startswith("_")}
        methods |= _methods(node)
        read |= _names_read(node) - own
    for tree in bench:
        read |= _names_read(tree)
    classes = {node.name for tree in src for node in tree.body if isinstance(node, ast.ClassDef)}
    reads = set().union(*(_method_reads(tree, classes) for tree in src + bench))
    assert ORACLES <= defined
    assert {("CameraPose", "matrix"), ("PromptSet", "names")} <= methods
    assert sorted(defined - read - ORACLES) == []
    assert sorted(m for m in methods if m not in reads and (None, m[1]) not in reads) == []
