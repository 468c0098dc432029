"""Source hygiene of the package: every module other than ``__init__.py``
uses each name it imports, and every private name a module defines at its
top level is read somewhere in the package.  A name imported and never
read, or a private helper nothing calls, is left over from code that moved
or went away."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "coarsekit"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")
ALL_MODULES = sorted(p.name for p in SRC.glob("*.py"))


def unused_imports(source: str) -> list:
    """The names bound by import statements that nothing else reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


def test_unused_import_is_found():
    source = "import os\nfrom a import b, c as d\nprint(os.sep, d)\n"
    assert unused_imports(source) == ["b"]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    assert unused_imports((SRC / module).read_text()) == []


def private_definitions(source: str) -> list:
    """The names with one leading underscore that a module binds at its top
    level, by def, class or assignment."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        names += [name for name in bound if name.startswith("_") and not name.startswith("__")]
    return names


def names_read(source: str) -> set:
    """The names a module reads, bare or as an attribute."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def test_unread_private_name_is_found():
    source = "_A = 1\n_b, c = 2, 3\ndef _f():\n    return _A\nclass _K:\n    pass\n"
    assert private_definitions(source) == ["_A", "_b", "_f", "_K"]
    assert [n for n in private_definitions(source) if n not in names_read(source)] == ["_b", "_f", "_K"]


@pytest.mark.parametrize("module", ALL_MODULES)
def test_module_private_names_are_read(module):
    read = set().union(*(names_read((SRC / m).read_text()) for m in ALL_MODULES))
    defined = private_definitions((SRC / module).read_text())
    assert [name for name in defined if name not in read] == []
