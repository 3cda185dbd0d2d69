"""Every attribute the package stores on `self` is read by the program.

test_no_dead_functions scans definitions.  An attribute stored as
`self.x = ...` in a method is not one, so a datum that the package builds
and keeps, yet never reads, passes that scan.  This one lists each
attribute that a module of the package stores on `self` (in a plain,
annotated, augmented or tuple assignment), and each field that a
`@dataclass` declares by an annotation in its class body (not an InitVar
or a ClassVar, which are no fields of the instance), and fails on one that
the program never reads.  The program is the same as in test_no_dead_functions:
the package without __init__.py, the demos, and bench/ without
test_bench.py.  A read is the attribute loaded anywhere in the program, on
any object, or its name given as a string (`getattr` takes one).  A store
is not a read, so `self.x += 1` alone keeps nothing alive.  Tests do not
count: an attribute only tests read is kept for them alone.

The exceptions are listed in READ_ELSEWHERE.  It holds
cli._Parser._negative_number_matcher alone, which argparse.ArgumentParser
reads inside the standard library.
"""

import ast
import re

from test_no_dead_functions import ROOT, program_modules, program_sources

# "module.py: attribute" stored on self and read only outside the program
READ_ELSEWHERE = ["cli.py: _negative_number_matcher"]


def _is_dataclass(node):
    """Whether the class `node` is decorated with dataclass, called or not."""
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if (target.attr if isinstance(target, ast.Attribute) else
                getattr(target, "id", None)) == "dataclass":
            return True
    return False


def _is_field(node):
    """Whether the class-body statement `node` declares an instance field."""
    if not (isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)):
        return False
    # the annotation's text, so that a string annotation counts as well
    return not re.search(r"\b(InitVar|ClassVar)\b", ast.unparse(node.annotation))


def stored(source):
    """(line, name) of the first store of each attribute `source` puts on
    self, and of each field its dataclasses declare."""
    out = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and _is_dataclass(node):
            for field in filter(_is_field, node.body):
                out.setdefault(field.target.id, field.lineno)
        targets = node.targets if isinstance(node, ast.Assign) else \
            [node.target] if isinstance(node, (ast.AnnAssign, ast.AugAssign)) else []
        for target in targets:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store) \
                        and isinstance(sub.value, ast.Name) and sub.value.id == "self":
                    out.setdefault(sub.attr, sub.lineno)
    return sorted((line, name) for name, line in out.items())


def reads(source):
    """Attribute names `source` loads, or spells as an identifier string."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            out.add(node.value)
    return out


def unread(defining, sources):
    """(line, name) of the attributes `defining` stores on self that no source reads."""
    read = set().union(*map(reads, sources))
    return [(line, name) for line, name in stored(defining) if name not in read]


def unread_by_program(root):
    """"module.py: attribute" of each attribute the package under `root`
    stores on self and the program does not read."""
    sources = program_sources(root)
    return [f"{p.name}: {name}" for p in program_modules(root)
            for _, name in unread(p.read_text(), sources)]


def test_scan_finds_an_unread_attribute():
    module = ("class C:\n"
              "    def __init__(self, other):\n"
              "        self.used = 1\n"
              "        self.unused = 2\n"
              "        self.pair, self.half = 3, 4\n"
              "        self.typed: int = 5\n"
              "        self.counted = 0\n"
              "        other.elsewhere = 6\n"
              "        self.table = {}\n\n"
              "    def bump(self):\n"
              "        self.counted += 1\n"
              "        self.table[0] = self.used\n")
    caller = "c = C(None)\nprint(getattr(c, 'pair'), c.typed)\n"
    assert stored(module) == [(3, "used"), (4, "unused"), (5, "half"), (5, "pair"),
                              (6, "typed"), (7, "counted"), (9, "table")]
    assert unread(module, [module, caller]) == [(4, "unused"), (5, "half"), (7, "counted")]


def test_scan_finds_an_unread_dataclass_field():
    module = ("import dataclasses\n"
              "from dataclasses import InitVar, dataclass\n"
              "from typing import ClassVar\n\n"
              "@dataclass(frozen=True)\n"
              "class P:\n"
              "    used: int\n"
              "    unused: int = 0\n"
              "    seed: InitVar[int] = 0\n"
              "    count: ClassVar[int] = 0\n"
              "    shared: 'typing.ClassVar[int]' = 0\n"
              "    plain = 1\n\n"
              "@dataclasses.dataclass\n"
              "class Q:\n"
              "    named: str\n\n"
              "class R:\n"
              "    hint: int\n")
    caller = "print(P(1).used, getattr(Q('x'), 'named'))\n"
    assert stored(module) == [(7, "used"), (8, "unused"), (16, "named")]
    assert unread(module, [module, caller]) == [(8, "unused")]


def test_scan_counts_the_program_alone(tmp_path):
    files = {
        "src/liecoh/__init__.py": "from .m import C\nprint(C().exported)\n",
        "src/liecoh/m.py": ("class C:\n    def __init__(self):\n"
                            "        self.benched = self.tested = self.exported = 0\n"
                            "        self.shown = self.used = 0\n"),
        "src/liecoh/n.py": "from .m import C\nprint(C().used)\n",
        "bench/cases.py": "import liecoh.m\nprint(liecoh.m.C().benched)\n",
        "bench/test_bench.py": "import liecoh.m\nprint(liecoh.m.C().tested)\n",
        "demos/01_demo.py": "import liecoh.m\nprint(liecoh.m.C().shown)\n",
        "tests/test_m.py": "from liecoh.m import C\nprint(C().exported, C().tested)\n",
    }
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    assert unread_by_program(tmp_path) == ["m.py: exported", "m.py: tested"]


def test_package_stores_no_attribute_the_program_leaves_unread():
    assert unread_by_program(ROOT) == READ_ELSEWHERE
