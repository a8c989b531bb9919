"""No unused imports and no unreferenced private functions in the package.

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


def _unreferenced_private_functions(name, tree, reads):
    for stmt in tree.body:
        if (
            isinstance(stmt, ast.FunctionDef)
            and stmt.name.startswith("_")
            and not stmt.name.startswith("__")
            and not stmt.decorator_list
            and not any(stmt.name in read for top, read in reads if top is not stmt)
        ):
            yield name, stmt.name


def test_no_unused_imports_and_no_unreferenced_private_functions():
    trees = _trees()
    # what each top-level statement of src/ reads, the package's __init__ too
    reads = [(top, _reads(top)) for tree in trees.values() for top in tree.body]
    found = set()
    for name, tree in trees.items():
        if name != "__init__":
            found.update(_unused_imports(name, tree))
            found.update(_unreferenced_private_functions(name, tree, reads))
    assert sorted(found - ALLOWED) == []
