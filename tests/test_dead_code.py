"""No unused imports, no unreferenced private functions or methods, and no
reads of another module's private names in the package.

There is no linter in the toolchain, so this walks each module's syntax tree.
"""

import ast
from pathlib import Path

import ttsupport

SRC = Path(ttsupport.__file__).parent


def _trees():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _reads(node):
    """Every name read below node, as a bare name or as an attribute."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def _unused_imports(name, tree):
    read = _reads(tree)
    for stmt in tree.body:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                bound = (alias.asname or alias.name).split(".")[0]
                if bound not in read:
                    yield name, bound


def _is_private(name):
    return name.startswith("_") and not name.startswith("__")


def _private(stmt):
    """Whether stmt defines an undecorated private function or method."""
    return (
        isinstance(stmt, ast.FunctionDef)
        and _is_private(stmt.name)
        and not stmt.decorator_list
    )


def _unreferenced_private_functions(name, tree, reads):
    for stmt in tree.body:
        if _private(stmt) and not any(stmt.name in read for top, read in reads if top is not stmt):
            yield name, stmt.name


def _unreferenced_private_methods(name, tree, reads):
    """Private methods that nothing reads outside their own body: neither
    another top-level statement nor another statement of the class."""
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            inside = [(stmt, _reads(stmt)) for stmt in cls.body]
            for stmt in cls.body:
                if _private(stmt) and not any(
                    stmt.name in read
                    for top, read in reads + inside
                    if top is not stmt and top is not cls
                ):
                    yield name, "%s.%s" % (cls.name, stmt.name)


def _dead(trees):
    # what each top-level statement of src/ reads, the package's __init__ too
    reads = [(top, _reads(top)) for tree in trees.values() for top in tree.body]
    found = set()
    for name, tree in trees.items():
        if name != "__init__":
            found.update(_unused_imports(name, tree))
            found.update(_unreferenced_private_functions(name, tree, reads))
            found.update(_unreferenced_private_methods(name, tree, reads))
    return found


def _private_reads_across_modules(trees):
    """(reader, module, name) for each private name of a package module that
    another package module reads, as module._name after ``from . import
    module`` or through ``from .module import _name``."""
    found = set()
    for name, tree in trees.items():
        aliases = {}  # local name -> package module it is bound to
        for sub in ast.walk(tree):
            if isinstance(sub, ast.ImportFrom) and sub.level == 1:
                for alias in sub.names:
                    if sub.module is None and alias.name in trees:
                        aliases[alias.asname or alias.name] = alias.name
                    elif sub.module in trees and _is_private(alias.name):
                        found.add((name, sub.module, alias.name))
        for sub in ast.walk(tree):
            if (
                isinstance(sub, ast.Attribute)
                and isinstance(sub.value, ast.Name)
                and sub.value.id in aliases
                and _is_private(sub.attr)
            ):
                found.add((name, aliases[sub.value.id], sub.attr))
    return found


def test_no_unused_imports_and_no_unreferenced_private_functions():
    assert sorted(_dead(_trees())) == []


def test_homalg_takes_no_lattice_quotient():
    # integer cohomology is read off the Smith diagonals of the free model;
    # the lattice route (kernel, span coordinates, quotient) lives on only as
    # the reference in the tests.  The free model's bases and lifts are each
    # module's relation form and coordinates in it, not a second basis and
    # solve
    reads = _reads(_trees()["homalg"])
    assert not {"quotient_invariants", "lattice_basis", "solve_int"} & reads


def test_an_unreferenced_private_method_is_flagged():
    tree = ast.parse(
        "class A:\n"
        "    def _used(self):\n"
        "        return self._used_elsewhere()\n"
        "    def _used_elsewhere(self):\n"
        "        return 1\n"
        "    def _recursive(self):\n"
        "        return self._recursive()\n"
        "    def __len__(self):\n"
        "        return 0\n"
        "def f(a):\n"
        "    return a._used()\n"
    )
    assert _dead({"m": tree}) == {("m", "A._recursive")}


def test_no_module_reads_another_modules_private_names():
    assert sorted(_private_reads_across_modules(_trees())) == []


def test_a_private_read_across_modules_is_flagged():
    trees = {
        "a": ast.parse("def _own():\n    return 1\n"),
        "b": ast.parse(
            "from . import a as alias\n"
            "from .a import _imported, public\n"
            "def f(a):\n"
            "    return alias._through_module(), alias.public, a._attribute_of_a_local\n"
        ),
    }
    assert _private_reads_across_modules(trees) == {
        ("b", "a", "_imported"),
        ("b", "a", "_through_module"),
    }
