"""Checks on the package source itself."""

import ast
from pathlib import Path

import knotconcord

TESTS = Path(__file__).parent


def test_no_assert_statements():
    # `python -O` strips asserts, so validation must raise instead
    sources = sorted(Path(knotconcord.__file__).parent.glob("*.py"))
    assert len(sources) >= 10
    found = []
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


_FLOAT_MATH = {"cos", "sin", "pi", "tau", "sqrt", "exp"}


def _float_uses(source, name="<source>"):
    """Float literals, float(...) calls and math.cos/sin/pi/tau/sqrt/exp/log*
    attributes in a module's source, as name:line strings."""
    found = []
    for node in ast.walk(ast.parse(source, filename=name)):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(node)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            found.append(node)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "math"
              and (node.attr in _FLOAT_MATH or node.attr.startswith("log"))):
            found.append(node)
    return ["%s:%d" % (name, node.lineno) for node in found]


def test_no_floating_point():
    # no floating-point value may decide a sign, a signature or a verdict
    sources = sorted(Path(knotconcord.__file__).parent.glob("*.py"))
    assert len(sources) >= 10
    found = []
    for path in sources:
        found += _float_uses(path.read_text(), path.name)
    assert found == []


def test_float_guard_catches_planted_uses():
    assert _float_uses("import math\ns = math.cos(x)\n") == ["<source>:2"]
    assert _float_uses("y = math.log2(n)\nz = math.floor(n)\n") == ["<source>:1"]
    assert _float_uses("a = 0.5\nb = float(c)\nd = 1e3j\ne = 3\n") == [
        "<source>:1", "<source>:2", "<source>:3"]


def _square_loops(source, name="<source>"):
    """The `while x * x <= y` loops of a module's source, as (name, line,
    function) triples, the function being the innermost one around the
    loop ("<module>" at top level)."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            test = child.test if isinstance(child, ast.While) else None
            if (isinstance(test, ast.Compare) and len(test.ops) == 1
                    and isinstance(test.ops[0], ast.LtE)
                    and isinstance(test.left, ast.BinOp)
                    and isinstance(test.left.op, ast.Mult)
                    and ast.dump(test.left.left) == ast.dump(test.left.right)):
                found.append((name, child.lineno, function))
            visit(child, child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function)

    visit(ast.parse(source, filename=name), "<module>")
    return found


def test_one_trial_division_loop():
    # integers are factored in one place, cyclo.factor
    found = []
    for path in sorted(Path(knotconcord.__file__).parent.glob("*.py")):
        found += _square_loops(path.read_text(), path.name)
    assert [(name, function) for name, _, function in found] == [
        ("cyclo.py", "factor")], found


def test_square_loop_guard_catches_planted_loops():
    src = ("def f(n):\n    while d * d <= n:\n        d += 1\n"
           "    while d * e <= n:\n        d += 1\n"
           "def g():\n    def h():\n"
           "        while n.k * n.k <= m:\n            pass\n"
           "while i * i < n:\n    pass\n"
           "while i * i <= n:\n    pass\n")
    assert _square_loops(src) == [("<source>", 2, "f"), ("<source>", 8, "h"),
                                  ("<source>", 12, "<module>")]


def _module_dicts(source, name="<source>"):
    """The module-level assignments of an empty `{}` or `dict()` in a
    module's source, as (name, line, target) triples."""
    found = []
    for node in ast.parse(source, filename=name).body:
        value = node.value if isinstance(node, (ast.Assign,
                                                ast.AnnAssign)) else None
        empty = ((isinstance(value, ast.Dict) and not value.keys)
                 or (isinstance(value, ast.Call)
                     and isinstance(value.func, ast.Name)
                     and value.func.id == "dict"
                     and not value.args and not value.keywords))
        if empty:
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target]
            found += [(name, node.lineno, ast.unparse(t)) for t in targets]
    return found


def test_one_module_level_dict_memo():
    # a per-process result is a functools.cache on a hashable key, so no
    # module keeps a dict memo
    found = []
    for path in sorted(Path(knotconcord.__file__).parent.glob("*.py")):
        found += _module_dicts(path.read_text(), path.name)
    assert found == []


def test_module_dict_guard_catches_planted_memos():
    src = ("_a = {}\n_b = dict()\n_c: dict = {}\n_d = {1: 2}\n"
           "_e = dict(x=1)\n_f = _g = {}\n"
           "def f():\n    memo = {}\n    return memo\n"
           "class C:\n    table = {}\n")
    assert _module_dicts(src) == [
        ("<source>", 1, "_a"), ("<source>", 2, "_b"), ("<source>", 3, "_c"),
        ("<source>", 6, "_f"), ("<source>", 6, "_g")]


def _unreferenced(definitions, references):
    """Names of the functions, classes and methods defined in the
    `definitions` sources that no name, attribute or import alias in the
    `references` sources mentions; dunders are skipped.  An import alias
    counts only when the name it binds is used in its own module, so an
    unused import keeps nothing alive."""
    defined = {}
    for name, source in definitions.items():
        for node in ast.walk(ast.parse(source, filename=name)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.setdefault(node.name, "%s:%d" % (name, node.lineno))
    used = set()
    for name, source in references.items():
        nodes = list(ast.walk(ast.parse(source, filename=name)))
        names = {node.id for node in nodes if isinstance(node, ast.Name)}
        used |= names
        for node in nodes:
            if isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif (isinstance(node, ast.alias)
                  and (node.asname or node.name.split(".")[0]) in names):
                used.update(node.name.split("."))
    return sorted(loc + " " + name for name, loc in defined.items()
                  if name not in used)


def test_every_definition_is_referenced():
    # dead code: a definition nothing in the package or its tests names
    package = {path.name: path.read_text() for path in
               sorted(Path(knotconcord.__file__).parent.glob("*.py"))}
    tests = {path.name: path.read_text() for path in sorted(TESTS.glob("*.py"))}
    assert len(package) >= 10 and len(tests) >= 10
    assert _unreferenced(package, {**package, **tests}) == []


def test_reference_guard_catches_planted_definitions():
    src = ("class Used:\n    def to_json(self):\n        return {}\n"
           "    def spare(self):\n        return 1\n"
           "def dead():\n    return Used().to_json()\n"
           "def __getattr__(name):\n    raise AttributeError(name)\n")
    assert _unreferenced({"m.py": src}, {"m.py": src}) == [
        "m.py:4 spare", "m.py:6 dead"]
    # an attribute, a bare name or a used import alias elsewhere counts
    assert _unreferenced({"m.py": src}, {
        "m.py": src, "t.py": "from m import dead as d\nd().spare()\n"}) == []
    # an import that its module never uses does not
    assert _unreferenced({"m.py": src}, {
        "m.py": src, "t.py": "from m import dead\nUsed().spare()\n"}) == [
        "m.py:6 dead"]


# the package definitions that only the tests reach, each with the reason it
# stays.  There are none: a reader, a constructor, a reference
# implementation (an oracle) or a statement of the paper that only tests
# use lives in the tests that use it
_TEST_ONLY = {}


def _unlisted(package, table):
    """Definitions that nothing in the `package` sources references but
    that `table` does not list, as module:line name strings, followed by
    the table entries that the package itself reaches or no longer
    defines, as "stale module.name"."""
    only = {}
    for entry in _unreferenced(package, package):
        loc, name = entry.split()
        only[loc.split(".py:")[0] + "." + name] = entry
    return ([entry for key, entry in sorted(only.items()) if key not in table]
            + ["stale " + key for key in sorted(table) if key not in only])


def test_test_only_definitions_are_listed():
    # a definition that only tests reach stays only for a listed reason
    package = {path.name: path.read_text() for path in
               sorted(Path(knotconcord.__file__).parent.glob("*.py"))}
    assert _unlisted(package, _TEST_ONLY) == []
    assert set(_TEST_ONLY.values()) <= {"paper"}


def test_test_only_guard_catches_planted_definitions():
    src = ("def run():\n    return helper()\n"
           "def helper():\n    return 1\n"
           "def probe():\n    return 2\n")
    assert _unlisted({"m.py": src}, {"m.run": "paper"}) == ["m.py:5 probe"]
    assert _unlisted({"m.py": src},
                     {"m.run": "paper", "m.probe": "oracle"}) == []
    # an entry the package reaches, or no longer defines, is stale
    assert _unlisted({"m.py": src}, {"m.run": "paper", "m.probe": "oracle",
                                     "m.helper": "oracle", "m.gone": "paper"}
                     ) == ["stale m.gone", "stale m.helper"]
