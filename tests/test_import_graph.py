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


def test_all_is_what_the_readme_documents():
    """The README's "Library" section names exactly ``__all__``."""
    readme = (PACKAGE.parent.parent / "README.md").read_text(encoding="utf-8")
    library = readme.split("## Library", 1)[1].split("\n## ", 1)[0]
    listed = library.split("exports exactly these names", 1)[1].split("Module map", 1)[0]
    named = set(re.findall(r"`([A-Za-z_]+)(?:\(|`)", listed))
    assert named == set(oberwolfach.__all__)
