"""No unused imports, no unreferenced private functions or methods, no
public function or class that is neither exported nor read, no reads of
another module's private names in the package, no assignment to a private
attribute that no class of the assigning module defines, no optional
parameter that no call sets, no class but values.Immutable with a
``_cached`` of its own, and no class but an exception that assigns an
attribute of self: every other object the package hands out takes its
fields once, through Immutable._freeze.

There is no linter in the toolchain, so this walks each module's syntax tree.
"""

import ast
import builtins
from pathlib import Path

import ttsupport

SRC = Path(ttsupport.__file__).parent
# the code that calls the package: its tests and its benchmark
BENCH = Path(__file__).parent.parent / "bench"
CALLERS = (Path(__file__).parent, BENCH)


def _trees():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _caller_trees(dirs=CALLERS):
    return [ast.parse(path.read_text()) for d in dirs for path in sorted(d.glob("*.py"))]


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


def _unread_public_definitions(trees, exported, callers):
    """(module, name) for each public top-level function or class of a
    package module that is not exported and that no other top-level
    statement of the package and no caller reads."""
    reads = [(top, _reads(top)) for tree in trees.values() for top in tree.body]
    read_by_callers = set().union(*map(_reads, callers))
    found = set()
    for name, tree in trees.items():
        for stmt in tree.body:
            if (
                isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                and not stmt.name.startswith("_")
                and stmt.name not in exported
                and stmt.name not in read_by_callers
                and not any(stmt.name in read for top, read in reads if top is not stmt)
            ):
                found.add((name, stmt.name))
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


def _defined_attributes(tree):
    """The attributes the module's classes define: their __slots__, the
    names their bodies assign and the names their methods assign on self."""
    out = set()
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for stmt in cls.body:
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            else:
                targets = [getattr(stmt, "target", None)]
            for target in targets:
                if isinstance(target, ast.Name):
                    out.add(target.id)
                    if target.id == "__slots__":
                        out.update(ast.literal_eval(stmt.value))
        for sub in ast.walk(cls):
            if (
                isinstance(sub, ast.Attribute)
                and isinstance(sub.ctx, ast.Store)
                and isinstance(sub.value, ast.Name)
                and sub.value.id == "self"
            ):
                out.add(sub.attr)
    return out


def _private_assignments_from_outside(trees):
    """(module, name) for each private attribute a module assigns that no
    class of that module defines: it writes another module's state."""
    found = set()
    for name, tree in trees.items():
        defined = _defined_attributes(tree)
        for sub in ast.walk(tree):
            if (
                isinstance(sub, ast.Attribute)
                and isinstance(sub.ctx, ast.Store)
                and _is_private(sub.attr)
                and sub.attr not in defined
            ):
                found.add((name, sub.attr))
    return found


def _second_cache_rules(trees):
    """(module, class) for each class of the package other than
    values.Immutable that defines _cached: a second way to keep a derived
    fact beside the one rule that the immutable values share."""
    return {
        (name, cls.name)
        for name, tree in trees.items()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        and (name, cls.name) != ("values", "Immutable")
        and any(isinstance(stmt, ast.FunctionDef) and stmt.name == "_cached" for stmt in cls.body)
    }


def _self_assignments(trees):
    """(module, class, attribute) for each attribute of self that a method
    of a package class assigns (an Assign, AugAssign or AnnAssign target, or
    any other store), unless the class derives from an exception."""
    exceptions = {
        name for name, value in vars(builtins).items()
        if isinstance(value, type) and issubclass(value, BaseException)
    }
    classes = [
        (name, cls)
        for name, tree in trees.items()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
    ]
    grew = True
    while grew:
        grew = False
        for _name, cls in classes:
            bases = {getattr(b, "id", getattr(b, "attr", None)) for b in cls.bases}
            if cls.name not in exceptions and bases & exceptions:
                exceptions.add(cls.name)
                grew = True
    found = set()
    for name, cls in classes:
        if cls.name in exceptions:
            continue
        for method in cls.body:
            if not isinstance(method, ast.FunctionDef):
                continue
            for sub in ast.walk(method):
                if (
                    isinstance(sub, ast.Attribute)
                    and isinstance(sub.ctx, ast.Store)
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id == "self"
                ):
                    found.add((name, cls.name, sub.attr))
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


def test_every_public_definition_is_exported_or_read_by_the_package_or_its_benchmark():
    found = _unread_public_definitions(_trees(), set(ttsupport.__all__), _caller_trees([BENCH]))
    assert sorted(found) == []


def test_an_unread_public_definition_outside_the_exports_is_flagged():
    trees = {
        "a": ast.parse(
            "def exported():\n"
            "    return read_inside()\n"
            "def read_inside():\n"
            "    pass\n"
            "def read_across():\n"
            "    pass\n"
            "def read_by_a_caller():\n"
            "    pass\n"
            "def recursive():\n"
            "    return recursive()\n"
            "class Unread:\n"
            "    pass\n"
            "def _private():\n"
            "    pass\n"
        ),
        "b": ast.parse("from . import a\nTABLE = {'f': a.read_across}\n"),
    }
    callers = [ast.parse("run(module.read_by_a_caller)\n")]
    assert _unread_public_definitions(trees, {"exported"}, callers) == {
        ("a", "recursive"),
        ("a", "Unread"),
    }


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


def test_no_module_assigns_a_private_attribute_it_does_not_define():
    assert sorted(_private_assignments_from_outside(_trees())) == []


def test_a_private_assignment_no_class_of_the_module_defines_is_flagged():
    trees = {
        "m": ast.parse(
            "class A:\n"
            "    __slots__ = ('_slot',)\n"
            "    _class_level = 0\n"
            "    _annotated: int = 0\n"
            "    def __init__(self):\n"
            "        self._own = 1\n"
            "def f(a, b):\n"
            "    a._slot = a._own = a._annotated = 2\n"
            "    a._class_level += 1\n"
            "    b._foreign = 3\n"
            "    b._foreign_too, b.public = 4, 5\n"
            "    b.__dunder__ = 6\n"
        )
    }
    assert _private_assignments_from_outside(trees) == {("m", "_foreign"), ("m", "_foreign_too")}


def test_no_class_but_values_immutable_defines_cached():
    assert sorted(_second_cache_rules(_trees())) == []


def test_a_second_cache_rule_is_flagged():
    trees = {
        "values": ast.parse("class Immutable:\n    def _cached(self, key, compute):\n        pass\n"),
        "m": ast.parse(
            "class Own:\n"
            "    def _cached(self, key, compute):\n"
            "        pass\n"
            "class Derived(Immutable):\n"
            "    def read(self):\n"
            "        return self._cached('key', list)\n"
            "def _cached(obj):\n"
            "    pass\n"
            "def f():\n"
            "    class Nested:\n"
            "        def _cached(self):\n"
            "            pass\n"
        ),
        "n": ast.parse("class Immutable:\n    def _cached(self, key, compute):\n        pass\n"),
    }
    assert _second_cache_rules(trees) == {("m", "Own"), ("m", "Nested"), ("n", "Immutable")}


def test_no_class_but_an_exception_assigns_an_attribute_of_self():
    assert sorted(_self_assignments(_trees())) == []


def test_an_assignment_to_an_attribute_of_self_is_flagged():
    trees = {
        "errors": ast.parse(
            "class Failure(ValueError):\n"
            "    def __init__(self, bound):\n"
            "        self.bound = bound\n"
        ),
        "m": ast.parse(
            "from . import errors\n"
            "class Record:\n"
            "    def __init__(self, a, b):\n"
            "        self.plain = a\n"
            "        self.first, (self.second, other) = b, (a, b)\n"
            "        self.count += 1\n"
            "        self.annotated: int = 0\n"
            "        self.table[a] = b\n"
            "        object.__setattr__(self, 'frozen', a)\n"
            "        other.attribute = a\n"
            "    def later(self):\n"
            "        def inner():\n"
            "            self.nested = 1\n"
            "        return inner\n"
            "class Refusal(errors.Failure):\n"
            "    def __init__(self, limit):\n"
            "        self.limit = limit\n"
            "class Value:\n"
            "    pass\n"
        ),
    }
    assert _self_assignments(trees) == {
        ("m", "Record", name)
        for name in ("plain", "first", "second", "count", "annotated", "nested")
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
