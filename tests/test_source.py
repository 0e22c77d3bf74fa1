"""Checks on the package source itself."""

import ast
from pathlib import Path

import knotconcord


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
