"""No assert statement in the library: python -O would strip the check."""

import ast
from pathlib import Path

import coxkit

SRC = Path(coxkit.__file__).resolve().parent


def test_no_assert_statements_in_coxkit():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
