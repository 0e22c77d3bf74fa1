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
