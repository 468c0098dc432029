"""Source hygiene of the package: every module other than ``__init__.py``
uses each name it imports, every private name a module defines at its top
level is read somewhere in the package, so is every public function,
class and constant not listed as library API, and every parameter with a
default is set by some call in the package or the benchmark.  A name
imported and never read, a helper nothing calls, or a setting every caller
leaves at one value is left over from code that moved or went away.
``__init__.py`` imports the modules only to load them, and binds no other
name than ``__version__``.  Only ``Action.covers`` and ``MapWindow.__init__``
build a ``Preimages`` index, so no check grows a second index for a set its
action already indexes."""

import ast
import pathlib

import pytest

from coarsekit.cli import SUBCOMMANDS

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "coarsekit"
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


def top_level_names(source: str) -> list:
    """The names a module binds at its top level, by def, class or
    assignment."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return names


def private_definitions(source: str) -> list:
    """The names with one leading underscore that a module binds at its top
    level, by def, class or assignment."""
    return [name for name in top_level_names(source) if name.startswith("_") and not name.startswith("__")]


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


# public functions, classes and constants that no module of src/ reads
UNREAD_PUBLIC = {
    "table_action": "library API: a validated action by generator permutations of a finite space",
    "strictly_growing_suffix": "the strictly growing trace a counterexample needs (ROADMAP item 1)",
    "side_witness": "library API: left/right witness sets (README, coarse-core)",
    "family_to_controlled": "library API: families as controlled sets (README, coarse-core)",
    "controlled_to_family": "library API: controlled sets as families (README, coarse-core)",
    "compose_controlled": "library API: composition of controlled sets (README, coarse-core)",
    "selection_map": "library API: the coarse inverse of an equivalence (README, coarse-maps)",
    "pullback_structure_equality": "perfbench trace target; README, coarse-maps",
    "compute_transfer_sets": "perfbench trace target",
    "star_family": "library API (README coarse-core); perfbench span target",
    "refines": "library API (README coarse-core); perfbench span target",
    # src/ calls spec.mul, spec.inv and spec.length; groups.sort_key, rewired
    # the same way, is still read here as the name of the spaces' method
    "multiply": "perfbench trace target (perfbench/tracer.py)",
    "invert": "perfbench trace target (perfbench/tracer.py)",
    "word_length": "perfbench trace target (perfbench/tracer.py)",
}


def public_definitions(source: str) -> list:
    """The names without a leading underscore that a module binds at its top
    level, by def, class or assignment."""
    return [name for name in top_level_names(source) if not name.startswith("_")]


def test_unread_public_name_is_found():
    source = (
        "def f():\n    return g()\ndef g():\n    pass\nclass K:\n    pass\ndef _h():\n    pass\n"
        "X = 1\nY: int = X\nA, (B, C) = 2, (3, 4)\n_Z = B\n"
    )
    assert public_definitions(source) == ["f", "g", "K", "X", "Y", "A", "B", "C"]
    assert [n for n in public_definitions(source) if n not in names_read(source)] == ["f", "K", "Y", "A", "C"]


def test_public_names_are_read_or_listed():
    read = set().union(*(names_read((SRC / m).read_text()) for m in ALL_MODULES))
    read |= {"cmd_" + name.replace("-", "_") for name in SUBCOMMANDS}  # cli.main looks these up
    defined = [name for m in ALL_MODULES for name in public_definitions((SRC / m).read_text())]
    assert sorted(name for name in defined if name not in read) == sorted(UNREAD_PUBLIC)


# parameters with a default that no call in src/ or perfbench/ sets
UNSET_DEFAULTS: dict = {}


def optional_parameters(source: str) -> list:
    """(label, callee, position, name) for every parameter with a default on
    a function or method at the top of the module.  A method's callee is its
    name, a constructor's its class; the position counts the arguments a
    call passes, so self is not counted, and it is None for keyword-only
    parameters."""
    out = []
    tree = ast.parse(source)
    scopes = [(None, node) for node in tree.body]
    scopes += [(c.name, node) for c in tree.body if isinstance(c, ast.ClassDef) for node in c.body]
    for cls, node in scopes:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        label = f"{cls}.{node.name}" if cls else node.name
        callee = cls if node.name == "__init__" else node.name
        offset = 1 if cls else 0
        out += [(label, callee, i - offset, positional[i].arg) for i in range(first, len(positional))]
        out += [(label, callee, None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def calls(source: str) -> list:
    """(callee, positional arguments before any *, keywords, *?, **?) of every
    call, the callee being the name or attribute called."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        starred = [isinstance(a, ast.Starred) for a in node.args]
        n_pos = starred.index(True) if any(starred) else len(node.args)
        keywords = {k.arg for k in node.keywords}
        out.append((callee, n_pos, keywords, any(starred), None in keywords))
    return out


def unset_defaults(defining: list, calling: list) -> list:
    """``label(name)`` of the parameters with a default in the ``defining``
    sources that no call in the ``calling`` sources sets."""
    made = [c for source in calling for c in calls(source)]
    unset = []
    for source in defining:
        for label, callee, pos, name in optional_parameters(source):
            if not any(
                c == callee and (name in kw or spread or (pos is not None and (pos < n or star)))
                for c, n, kw, star, spread in made
            ):
                unset.append(f"{label}({name})")
    return sorted(unset)


def test_unset_default_is_found():
    source = (
        "def f(a, b=1, c=2, *, d=3):\n    pass\n"
        "def g(a=1, b=2):\n    pass\n"
        "class K:\n"
        "    def __init__(self, x=0):\n        pass\n"
        "    def m(self, y=0, z=0):\n        pass\n"
        "f(0, 5)\nf(0, d=4)\ng(**opts)\nK(1)\nK().m(1)\n"
    )
    assert unset_defaults([source], [source]) == ["K.m(z)", "f(c)"]
    assert unset_defaults([source], [source, "f(0, *rest)\nK().m(0, z=1)\n"]) == []


def test_every_default_is_set_by_some_call():
    package = [(SRC / m).read_text() for m in ALL_MODULES]
    bench = [p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py"))]
    assert unset_defaults(package, package + bench) == sorted(UNSET_DEFAULTS)


def test_package_binds_only_its_modules_and_version():
    bound = set()
    for node in ast.parse((SRC / "__init__.py").read_text()).body:
        if isinstance(node, ast.ImportFrom):
            assert node.level == 1 and node.module is None
            bound.update(f"{alias.name}.py" for alias in node.names)
        elif isinstance(node, ast.Assign):
            bound.update(n.id for n in node.targets)
        else:
            assert isinstance(node, ast.Expr)  # the docstring
    assert bound == {"__version__"} | set(MODULES) - {"cli.py"}


def preimage_builders(source: str) -> list:
    """The dotted names of the functions, in their classes, that call
    ``Preimages(...)``, once per call."""
    found = []

    def walk(node, scope: tuple):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if getattr(func, "id", getattr(func, "attr", None)) == "Preimages":
                    found.append(".".join(scope))
            walk(child, scope)

    walk(ast.parse(source), ())
    return found


def test_preimage_builder_is_found():
    source = (
        "class A:\n    def covers(self, U):\n        return Preimages(S, lambda h: U)\n"
        "def check(a):\n    return [spaces.Preimages(S, k) for k in a]\nPreimages\n"
    )
    assert preimage_builders(source) == ["A.covers", "check"]


def test_cover_indexes_are_built_in_one_place():
    built = [f"{m[:-3]}.{f}" for m in ALL_MODULES for f in preimage_builders((SRC / m).read_text())]
    assert sorted(built) == ["actions.Action.covers", "maps.MapWindow.__init__"]
