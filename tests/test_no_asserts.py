"""Correctness checks in the package must survive python -O.

`python -O` strips every `assert` statement, so a check written as one
silently vanishes there.  The package raises InternalCheckError (or an input
error) instead; this test keeps it that way.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "liecoh"


def test_package_has_no_assert_statements():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert len(list(PACKAGE.glob("*.py"))) > 5
    assert found == []
