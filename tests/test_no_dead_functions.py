"""Every top-level function and class of the package is named somewhere else.

A definition that no module, test or demo names, apart from its own body, is
dead code: it is kept, documented and read, yet nothing runs it.  A name
counts wherever it is read, imported, reached as an attribute, or given as a
string (`getattr` and `monkeypatch.setattr` take one).
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "liecoh"
SCANNED = [ROOT / "src", ROOT / "tests", ROOT / "demos"]


def _names(node):
    """Every name that `node` and its children read, import or spell as a string."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rsplit(".", 1)[-1])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                and sub.value.isidentifier():
            out.add(sub.value)
    return out


def definitions(source):
    """(line, name) of each top-level function and class in `source`."""
    return [(node.lineno, node.name) for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]


def uses(source):
    """Names used in `source`; a top-level definition's use of itself is left out."""
    out = set()
    for node in ast.parse(source).body:
        found = _names(node)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.discard(node.name)
        out |= found
    return out


def dead(defining, sources):
    """(line, name) of the definitions in `defining` that no source uses."""
    used = set().union(*map(uses, sources))
    return [(line, name) for line, name in definitions(defining) if name not in used]


def test_scan_finds_a_dead_function():
    module = ("def f(n):\n    return f(n - 1) if n else 0\n\n"
              "def g():\n    return 1\n\n"
              "class C:\n    pass\n\n"
              "def h():\n    return 2\n")
    caller = "import m\nfrom m import C\nprint(m.g(), getattr(m, 'h'))\n"
    assert dead(module, [module, caller]) == [(1, "f")]


def test_package_has_no_dead_functions():
    sources = [p.read_text() for d in SCANNED for p in sorted(d.rglob("*.py"))]
    paths = sorted(PACKAGE.glob("*.py"))
    assert len(paths) > 5
    found = [f"{path.name}:{line}: {name}" for path in paths
             for line, name in dead(path.read_text(), sources)]
    assert found == []
