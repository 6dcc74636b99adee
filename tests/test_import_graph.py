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
import sys
from collections import Counter
from itertools import chain
from pathlib import Path

import pytest

import oberwolfach
from oberwolfach import caps, checker, tables
from oberwolfach.core import parse_cycle_type

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


# each check a builder could run -> the builders that import it: a result
# is checked once, where it is handed out, and the constant tables by the
# ``tables --check`` audit, never by a builder at run time
CHECK_IMPORTERS = {
    "verify_id_factorization": {"solver"},
    "verify_admissible_decomposition": {"caps"},
    "verify_cap_complementarity": set(),
    "admissible_ids": set(),
}


@pytest.mark.parametrize("check", sorted(CHECK_IMPORTERS))
def test_each_check_is_imported_where_a_result_is_handed_out(check):
    importers = {
        name
        for name in BUILDERS
        for node, _ in _package_imports(_tree(name))
        if check in {a.name for a in node.names}
    }
    assert importers == CHECK_IMPORTERS[check]


def test_the_table_loaders_import_nothing_from_the_checker():
    loaders = set().union(*(names for _, names in _package_imports(_tree("tables"))))
    assert "checker" not in loaders


def test_the_tables_import_only_strip_id_from_hosts():
    """The tables are data: the checker computes the patterns its audit
    compares, so ``tables`` takes no boundary or rule from ``hosts``."""
    taken = {
        alias.name
        for node, names in _package_imports(_tree("tables"))
        if "hosts" in names
        for alias in node.names
    }
    assert taken == {"strip_id"}


@pytest.mark.parametrize(
    "spec", ["[8]", "[2,4^2]", "[2^3,4]", "[2,4,6,8,10]", "[26,4]"]
)
def test_j_decompose_checks_its_result_once(monkeypatch, spec):
    """``j_decompose`` makes exactly one checker call, with its pieces
    loaded and assembled in the call.  Every package module but the checker
    that binds one of the checks above is patched, so a builder that
    checked a piece or a splice on its own would be counted."""
    calls = []
    for name in CHECK_IMPORTERS:
        real = getattr(checker, name)

        def counting(*args, name=name, real=real):
            calls.append(name)
            return real(*args)

        for module in list(sys.modules.values()):
            ours = getattr(module, "__name__", "").startswith("oberwolfach")
            if ours and module is not checker and vars(module).get(name) is real:
                monkeypatch.setattr(module, name, counting)
    # uncached, so each call loads the tables and assembles the cap pieces
    monkeypatch.setattr(caps, "general_factor", caps.general_factor.__wrapped__)
    load = tables.small_decomposition.__wrapped__
    monkeypatch.setattr(tables, "small_decomposition", load)
    for _ in range(2):
        caps.j_decompose(parse_cycle_type(spec))
    assert calls == ["verify_admissible_decomposition"] * 2


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
