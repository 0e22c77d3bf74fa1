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
# stays: "oracle", a reference implementation a faster path is held to;
# "paper", a statement of the paper that a test checks; "test-reader", a
# reader or constructor many tests share
_TEST_ONLY = {
    "linalg.invert_rational": "oracle",
    "seifert._interpolate_integer_poly": "oracle",
    "su2.rep_arcs": "oracle",
    "su2._count_arcs": "oracle",
    "metabolizers.check_diagonal_lemma": "paper",
    "metabolizers.project_metabolizer": "paper",
    "cassongordon.orbit_exponents": "paper",
    "cassongordon.mixed_exponents": "paper",
    "cover.char_space": "paper",
    "seifert.signature_profile": "paper",
    "cyclo.pack": "test-reader",
    "cyclo.from_rational": "test-reader",
    "cover.evaluate": "test-reader",
    "cassongordon.shift_multiset": "test-reader",
}


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
    assert set(_TEST_ONLY.values()) <= {"oracle", "paper", "test-reader"}


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
