"""The package's import graph, read from the source with ``ast``, and its
public names.

The checker and the host rules it judges by must not depend on the
constructions they judge, so ``checker`` and ``hosts`` import none of the
building modules.  The package works on vertex ids and each vertex's text
only: no module defines, imports or exports an arc, cycle, factor or host
object class.  No module imports a sibling inside a function: an import
that has to be hidden there marks an import cycle.  The package
``__init__`` imports everything, so ``sys.modules`` cannot show either.
"""

import ast
import re
from collections import Counter
from itertools import chain
from pathlib import Path

import pytest

import oberwolfach

PACKAGE = Path(oberwolfach.__file__).resolve().parent
BUILDERS = {"caps", "hstar", "solver", "tables"}


def _package_imports(tree):
    """(node, names of the package's modules it imports) for every import
    of the package in ``tree``, relative (``from .caps import x``,
    ``from . import tables``) or absolute (``from oberwolfach.caps ...``)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 1:
                parts = module.split(".")
            elif module.startswith("oberwolfach"):
                parts = module.split(".")[1:]
            else:
                continue
            yield node, {parts[0]} if parts[0] else {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            names = [a.name.split(".") for a in node.names]
            names = {n[1] if len(n) > 1 else n[0] for n in names if n[0] == "oberwolfach"}
            if names:
                yield node, names


def _tree(name):
    return ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", ["checker", "hosts"])
def test_checker_and_hosts_import_no_builder(name):
    imported = set().union(*(names for _, names in _package_imports(_tree(name))))
    assert not imported & BUILDERS, sorted(imported & BUILDERS)


def test_only_solver_imports_the_factorization_check():
    """Each solve checks its output once, in ``solver``: no other builder
    imports ``verify_id_factorization``, and ``hstar`` builds from ``core``
    alone."""
    importers = {
        name
        for name in BUILDERS
        for node, _ in _package_imports(_tree(name))
        if "verify_id_factorization" in {a.name for a in node.names}
    }
    assert importers == {"solver"}
    hstar = set().union(*(names for _, names in _package_imports(_tree("hstar"))))
    assert hstar == {"core"}


OBJECT_CLASSES = {"Arc", "Digraph", "DirectedCycle", "TwoRegularDigraph"}
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_id_modules_import_no_object_class(name):
    """The package runs on vertex ids: no module, ``__init__`` included,
    imports an object class from anywhere, so none can build one."""
    imported = {
        alias.asname or alias.name
        for node in ast.walk(_tree(name))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert not imported & OBJECT_CLASSES, sorted(imported & OBJECT_CLASSES)


@pytest.mark.parametrize("name", MODULES)
def test_no_module_defines_an_object_class(name):
    """No module defines a class, function or global named as an object
    class."""
    defined = set()
    for node in ast.walk(_tree(name)):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            defined.update(t.id for t in node.targets if isinstance(t, ast.Name))
    assert not defined & OBJECT_CLASSES, sorted(defined & OBJECT_CLASSES)


def test_all_names_no_object_class():
    assert not set(oberwolfach.__all__) & OBJECT_CLASSES
    assert "verify_id_factorization" in oberwolfach.__all__
    assert not hasattr(oberwolfach, "verify_factorization")


def test_no_module_imports_a_sibling_inside_a_function():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        top = set(map(id, tree.body))
        for node, names in _package_imports(tree):
            if id(node) not in top:
                found.append(f"{path.name}:{node.lineno} {sorted(names)}")
    assert not found, found


@pytest.mark.parametrize("name", [m for m in MODULES if m != "__init__"])
def test_every_top_level_import_is_used(name):
    """Each name a module imports at its top level is read somewhere in it
    (``__future__`` aside); the package ``__init__`` imports to export."""
    tree = _tree(name)
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert imported <= read, sorted(imported - read)


def test_all_is_what_the_readme_documents():
    """The README's "Library" section names exactly ``__all__``."""
    readme = (PACKAGE.parent.parent / "README.md").read_text(encoding="utf-8")
    library = readme.split("## Library", 1)[1].split("\n## ", 1)[0]
    listed = library.split("exports exactly these names", 1)[1].split("Module map", 1)[0]
    named = set(re.findall(r"`([A-Za-z_]+)(?:\(|`)", listed))
    assert named == set(oberwolfach.__all__)


def _private_definitions(tree):
    """(statement, name) for each private name (leading ``_``) a module
    defines at its top level: a function, a class or an assigned constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield node, name


def _referenced(node):
    """Every name read, attribute taken or name imported under ``node``."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.ImportFrom):
            yield from (a.name for a in n.names)


def test_every_private_top_level_name_is_used():
    """Each private function, class or constant a module defines at its top
    level is referenced somewhere in the package outside its own
    definition, so a helper that a change left without callers is found."""
    trees = [_tree(name) for name in MODULES]
    everywhere = Counter(chain.from_iterable(map(_referenced, trees)))
    orphans = [
        private
        for tree in trees
        for node, private in _private_definitions(tree)
        if everywhere[private] == list(_referenced(node)).count(private)
    ]
    assert not orphans, orphans
