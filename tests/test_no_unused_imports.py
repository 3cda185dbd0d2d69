"""Every name a module of the package imports is read in that module.

An import nothing reads is dead code: it still runs at import time and it
misstates what the module depends on.  `__init__.py` is skipped, since its
imports are the package's public re-exports.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "liecoh"


def unused_imports(source):
    """Names bound by an import statement in `source` that no Name node reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_scan_finds_an_unused_import():
    source = "import os\nimport os.path as osp\nfrom math import gcd, lcm\nprint(gcd, osp)\n"
    assert unused_imports(source) == [(1, "os"), (3, "lcm")]


def test_package_has_no_unused_imports():
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    assert len(paths) > 5
    found = [f"{path.name}:{line}: {name}" for path in paths
             for line, name in unused_imports(path.read_text())]
    assert found == []
