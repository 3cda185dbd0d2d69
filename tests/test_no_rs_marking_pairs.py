"""No function of the package takes a root system beside a marking.

A ParabolicMarking is built from its root system and carries it as
`marking.rs`, checked once.  A function that takes both `rs` and `marking`
can be handed a marking of another root system, and brings back the pair
that the marking replaced; this test keeps them out.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "liecoh"


def pairs(source):
    """(line, name) of every function or lambda in `source` with both an
    `rs` and a `marking` parameter."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            names = {p.arg for p in [*a.posonlyargs, *a.args, *a.kwonlyargs]}
            if {"rs", "marking"} <= names:
                found.append((node.lineno, getattr(node, "name", "<lambda>")))
    return found


def test_scan_finds_a_pair():
    source = ("def f(rs, marking):\n    return 0\n\n"
              "def g(marking, weight):\n    return 1\n\n"
              "class C:\n"
              "    def m(self, rs, *, marking=None):\n        return lambda rs, marking: 2\n")
    assert pairs(source) == [(1, "f"), (8, "m"), (9, "<lambda>")]


def test_package_takes_no_rs_beside_a_marking():
    paths = sorted(PACKAGE.glob("*.py"))
    assert len(paths) > 5
    found = [f"{path.name}:{line}: {name}" for path in paths
             for line, name in pairs(path.read_text())]
    assert found == []
