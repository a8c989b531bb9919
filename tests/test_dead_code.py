"""No unused imports and no unreferenced private functions or methods in the
package.

There is no linter in the toolchain, so this walks each module's syntax tree.
"""

import ast
from pathlib import Path

import ttsupport

SRC = Path(ttsupport.__file__).parent

# homalg imports lattice_basis and solve_int without reading them:
# bench/test_bench.py traces both as homalg bindings, so the names have to
# stay bound there
ALLOWED = {("homalg", "lattice_basis"), ("homalg", "solve_int")}


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


def _private(stmt):
    """Whether stmt defines an undecorated private function or method."""
    return (
        isinstance(stmt, ast.FunctionDef)
        and stmt.name.startswith("_")
        and not stmt.name.startswith("__")
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


def test_no_unused_imports_and_no_unreferenced_private_functions():
    assert sorted(_dead(_trees()) - ALLOWED) == []


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
