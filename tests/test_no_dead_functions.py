"""Every top-level function, class, constant and method of the package is named somewhere else.

A definition that no module, test or demo names, apart from its own body, is
dead code: it is kept, documented and read, yet nothing runs it.  A
top-level function, class or constant counts wherever its name is read,
imported, reached as an attribute, or given as a string (`getattr` and
`monkeypatch.setattr` take one); a constant's own assignment is not a use.
A method is only ever reached through an object, so it counts only where
its name is reached as an attribute or given as a string outside its own
body: a local variable of the same name does not use it.  Dunder names
are called by Python itself and are not scanned.

Every module is held to more: each of its definitions must be named by the
program itself, that is by a module of the package, a demo or the benchmark
(bench/ without its own tests).  Re-exports from __init__.py do not count,
and nor do the tests: a name that only tests reach is kept for them alone
and belongs with them.  The exceptions are listed in TEST_ONLY, so adding
or removing a test-only name means editing that list on purpose.  It holds
tableau_to_json alone, because ROADMAP item 1 will give it its program
caller: the program will write the tableaux it builds.

linalg is held to more still: each of its public functions must be named by
another module of the package.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "liecoh"
SCANNED = [ROOT / "src", ROOT / "tests", ROOT / "demos"]
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
# the definitions that only tests name, as "module.py: name"
TEST_ONLY = ["tableau.py: tableau_to_json"]


def _names(node):
    """Names `node` and its children read, import or spell as a string, and
    the subset of them reached as an attribute or spelled as a string."""
    names, attributes = set(), set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
            attributes.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name.rsplit(".", 1)[-1])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                and sub.value.isidentifier():
            names.add(sub.value)
            attributes.add(sub.value)
    return names, attributes


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def _own_names(node):
    """Names a top-level statement defines: its function, class or constants."""
    if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else \
        [node.target] if isinstance(node, ast.AnnAssign) else []
    return [t.id for t in targets if isinstance(t, ast.Name) and not _dunder(t.id)]


def definitions(source):
    """(line, name) of each top-level definition and each method in `source`.

    A method is named `Class.method`.
    """
    out = []
    for node in ast.parse(source).body:
        out += [(node.lineno, name) for name in _own_names(node)]
        if isinstance(node, ast.ClassDef):
            out += [(sub.lineno, f"{node.name}.{sub.name}") for sub in node.body
                    if isinstance(sub, FUNCTIONS) and not _dunder(sub.name)]
    return out


def uses(source):
    """(names, attributes) used in `source`.

    A top-level statement's use of the names it defines is left out, and so
    is a method's use of its own name.
    """
    names, attributes = set(), set()
    for node in ast.parse(source).body:
        parts = [node]
        if isinstance(node, ast.ClassDef):
            parts = [*node.decorator_list, *node.bases, *node.keywords, *node.body]
        found = set()
        for part in parts:
            part_names, part_attributes = _names(part)
            if isinstance(part, FUNCTIONS) and part is not node:
                part_attributes.discard(part.name)
            found |= part_names
            attributes |= part_attributes
        names |= found.difference(_own_names(node))
    return names, attributes


def dead(defining, sources):
    """(line, name) of the definitions in `defining` that no source uses."""
    names, attributes = set(), set()
    for n, a in map(uses, sources):
        names |= n
        attributes |= a
    return [(line, name) for line, name in definitions(defining)
            if (name.partition(".")[2] not in attributes if "." in name
                else name not in names)]


def uncalled(defining, callers):
    """(line, name) of the public top-level functions in `defining` that no
    source in `callers` uses."""
    public = {node.name for node in ast.parse(defining).body
              if isinstance(node, FUNCTIONS) and not node.name.startswith("_")}
    return [(line, name) for line, name in dead(defining, callers) if name in public]


def unused_by_program(root):
    """"module.py: name" of each definition of the package under `root` that
    neither the package (its __init__.py left out), the demos nor bench/
    (its test_bench.py left out) names."""
    package = sorted((root / "src" / "liecoh").glob("*.py"))
    modules = [p for p in package if p.name != "__init__.py"]
    bench = [p for p in sorted((root / "bench").glob("*.py")) if p.name != "test_bench.py"]
    sources = [p.read_text() for p in modules + sorted((root / "demos").glob("*.py")) + bench]
    return [f"{p.name}: {name}" for p in modules for _, name in dead(p.read_text(), sources)]


def test_scan_finds_a_dead_function():
    module = ("def f(n):\n    return f(n - 1) if n else 0\n\n"
              "def g():\n    return 1\n\n"
              "class C:\n"
              "    def __init__(self):\n        self.k = 0\n\n"
              "    def used(self):\n        return self.local()\n\n"
              "    def local(self):\n        return 0\n\n"
              "    def named(self):\n        return 1\n\n"
              "    def recursive(self, n):\n        return self.recursive(n - 1)\n\n"
              "def h():\n    return 2\n\n"
              "LIMIT = 3\n"
              "UNUSED = LIMIT + 1\n"
              "__all__ = ['g']\n")
    caller = ("import m\nfrom m import C\n"
              "used = local = recursive = 0\n"
              "print(m.g(), getattr(m, 'h'), C().used(), getattr(C(), 'named'))\n")
    assert dead(module, [module, caller]) == [
        (1, "f"), (20, "C.recursive"), (27, "UNUSED")]


def test_package_has_no_dead_functions():
    sources = [p.read_text() for d in SCANNED for p in sorted(d.rglob("*.py"))]
    paths = sorted(PACKAGE.glob("*.py"))
    assert len(paths) > 5
    found = [f"{path.name}:{line}: {name}" for path in paths
             for line, name in dead(path.read_text(), sources)]
    assert found == []


def test_scan_finds_a_function_only_tests_call():
    module = ("def used():\n    return _helper()\n\n"
              "def tested():\n    return used()\n\n"
              "def _helper():\n    return 0\n\n"
              "LIMIT = 3\n")
    caller = "from . import m\nprint(m.used())\n"
    test = "import m\nassert m.tested() == 0 and m.LIMIT\n"
    assert dead(module, [module, caller, test]) == []
    assert uncalled(module, [caller]) == [(4, "tested")]


def test_linalg_functions_have_callers_in_the_package():
    linalg = PACKAGE / "linalg.py"
    callers = [p.read_text() for p in sorted(PACKAGE.glob("*.py")) if p != linalg]
    found = [f"linalg.py:{line}: {name}"
             for line, name in uncalled(linalg.read_text(), callers)]
    assert found == []


def test_scan_finds_a_name_only_tests_or_reexports_use(tmp_path):
    files = {
        "src/liecoh/__init__.py": "from .m import exported\n",
        "src/liecoh/m.py": ("def benched():\n    return 0\n\n"
                            "def tested():\n    return 1\n\n"
                            "def exported():\n    return 2\n\n"
                            "def used():\n    return 3\n"),
        "src/liecoh/n.py": "from .m import used\n",
        "bench/cases.py": "import liecoh.m\nprint(liecoh.m.benched())\n",
        "bench/test_bench.py": "from liecoh.m import tested\n",
        "demos/01_demo.py": "import liecoh\nprint(liecoh)\n",
        "tests/test_m.py": "from liecoh.m import exported, tested\n",
    }
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    assert unused_by_program(tmp_path) == ["m.py: tested", "m.py: exported"]


def test_only_the_listed_names_are_used_by_tests_alone():
    assert unused_by_program(ROOT) == TEST_ONLY
