"""Only rootsys reads the invariant form matrix.

The form (`form`, over `form_den`) is a rank x rank matrix, so a pairing
through it costs rank^2 products.  Every pairing with a root is one integer
per simple root (`RootSystem.half_norms`, see rootsys), and a pairing of
two weights is `RootSystem.scaled_inner`; this test keeps the matrix out of
every other module, and so out of their per-root loops.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "liecoh"


def form_reads(source):
    """Line numbers at which `source` reads a `form` or `form_den` attribute."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr in ("form", "form_den"))


def test_scan_finds_a_form_read():
    source = ("x = rs.form[0][1]\nform = 2\ny = marking.rs.form_den\n"
              "z = 'rs.form in a string'\nw = getattr(rs, 'formal')\n")
    assert form_reads(source) == [1, 3]


def test_only_rootsys_reads_the_form():
    paths = sorted(PACKAGE.glob("*.py"))
    assert len(paths) > 5
    found = [f"{path.name}:{line}" for path in paths if path.name != "rootsys.py"
             for line in form_reads(path.read_text())]
    assert found == []
    assert form_reads((PACKAGE / "rootsys.py").read_text())
