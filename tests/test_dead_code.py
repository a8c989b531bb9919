"""No unused imports, no unreferenced private functions or methods, no
reads of another module's private names in the package, and no optional
parameter that no call sets.

There is no linter in the toolchain, so this walks each module's syntax tree.
"""

import ast
from pathlib import Path

import ttsupport

SRC = Path(ttsupport.__file__).parent
# the code that calls the package: its tests and its benchmark
CALLERS = (Path(__file__).parent, Path(__file__).parent.parent / "bench")


def _trees():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _caller_trees():
    return [ast.parse(path.read_text()) for d in CALLERS for path in sorted(d.glob("*.py"))]


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


def _functions(trees):
    """(module, qualified name, node, whether it takes self or cls) for each
    function and method."""
    for name, tree in trees.items():
        for stmt in tree.body:
            if isinstance(stmt, ast.ClassDef):
                for sub in stmt.body:
                    if isinstance(sub, ast.FunctionDef):
                        static = any(
                            isinstance(d, ast.Name) and d.id == "staticmethod"
                            for d in sub.decorator_list
                        )
                        yield name, "%s.%s" % (stmt.name, sub.name), sub, not static
            elif isinstance(stmt, ast.FunctionDef):
                yield name, stmt.name, stmt, False


def _parameters(fn, bound):
    """The positional parameters of fn, self or cls left out when bound, and
    its optional ones."""
    args = fn.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    optional = positional[len(positional) - len(args.defaults) :]
    optional += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return positional[bound:], optional


def _called_name(call):
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _never_set(trees, callers):
    """(module, function, parameter) for each optional parameter of the
    package that no call in the package or in callers sets, by keyword or by
    position.  Calls are matched by name, so a call to any function of that
    name counts, and a class's call counts for its __init__.  A call with
    *args or **kwargs sets everything; one that passes on an optional
    parameter of the function it sits in sets only what that one is set to
    by some call."""
    params, inside = {}, {}
    for module, qualified, fn, bound in _functions(trees):
        params[module, qualified] = _parameters(fn, bound)
        for sub in ast.walk(fn):
            inside[id(sub)] = (module, qualified)
    # called name -> [(what a call sets: a position, a keyword, or None for
    # everything; the option whose value it passes on, or None)]
    settings = {}
    for tree in list(trees.values()) + callers:
        for call in ast.walk(tree):
            name = isinstance(call, ast.Call) and _called_name(call)
            if not name:
                continue
            out = settings.setdefault(name, [])
            if any(isinstance(a, ast.Starred) for a in call.args) or any(
                k.arg is None for k in call.keywords
            ):
                out.append((None, None))
                continue
            where = inside.get(id(call))
            own = params[where][1] if where else ()
            for key, value in list(enumerate(call.args)) + [(k.arg, k.value) for k in call.keywords]:
                passed = isinstance(value, ast.Name) and value.id in own
                out.append((key, where + (value.id,) if passed else None))
    options = {(m, q, p) for (m, q), (_pos, optional) in params.items() for p in optional}
    set_somewhere = set()
    grew = True
    while grew:
        grew = False
        for option in options - set_somewhere:
            module, qualified, param = option
            positional = params[module, qualified][0]
            keys = {None, param} | ({positional.index(param)} if param in positional else set())
            cls, _dot, method = qualified.rpartition(".")
            calls = settings.get(method, []) + (settings.get(cls, []) if method == "__init__" else [])
            if any(key in keys and (via is None or via in set_somewhere) for key, via in calls):
                set_somewhere.add(option)
                grew = True
    return options - set_somewhere


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


def test_every_optional_parameter_is_set_by_some_call():
    assert sorted(_never_set(_trees(), _caller_trees())) == []


def test_an_optional_parameter_no_call_sets_is_flagged():
    trees = {
        "m": ast.parse(
            "def f(a, by_position=1, by_keyword=2, never=3, *, only_keyword=4):\n"
            "    pass\n"
            "def spread(a=1):\n"
            "    pass\n"
            "def double_star(a=1):\n"
            "    pass\n"
            "class C:\n"
            "    def __init__(self, x=0, unset=1):\n"
            "        pass\n"
            "    def method(self, y=0, z=0):\n"
            "        pass\n"
            "    @staticmethod\n"
            "    def static(y=0, z=0):\n"
            "        pass\n"
            "def passes_on(b=1):\n"
            "    return target(b=b)\n"
            "def target(b=1):\n"
            "    pass\n"
            "def passes_on_a_set_one(c=1):\n"
            "    return other_target(c)\n"
            "def other_target(c=1):\n"
            "    pass\n"
        )
    }
    callers = [
        ast.parse(
            "f(0, 1, by_keyword=2)\n"
            "spread(*args)\n"
            "double_star(**kwargs)\n"
            "C(5)\n"
            "obj.method(1)\n"
            "C.static(1)\n"
            "passes_on_a_set_one(c=2)\n"
        )
    ]
    assert _never_set(trees, callers) == {
        ("m", "f", "never"),
        ("m", "f", "only_keyword"),
        ("m", "C.__init__", "unset"),
        ("m", "C.method", "z"),
        ("m", "C.static", "z"),
        ("m", "passes_on", "b"),
        ("m", "target", "b"),
    }
