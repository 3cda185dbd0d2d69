"""Outside-in tracing of liecoh: wrap public functions, record spans.

The tracer replaces each target function by a wrapper in *every* namespace
that binds it -- the defining module, every liecoh module that imported it
with ``from .x import name``, and any liecoh class that holds it as an
attribute -- so calls made inside the program are seen no matter which name
they go through.  A span is recorded per call (target, start, end, parent
span, case id) in memory; nothing is written while the program runs.

A target that the program no longer defines is reported as absent, so a
later change that deletes or renames a function does not break tracing.
"""

import functools
import sys
import time
from dataclasses import dataclass, field

PACKAGE = "liecoh"


def _cells(rows):
    """Sum of rows * cols of a matrix given as a list of rows."""
    return len(rows) * len(rows[0]) if rows else 0


def _cochain_dim(cx):
    """dim C^0 + dim C^1 + dim C^2 of a GradedComplex."""
    n, m = sum(cx.slices.values()), len(cx.depths)
    return n * (1 + m + m * (m - 1) // 2)


@dataclass(frozen=True)
class Target:
    module: str            # liecoh submodule, e.g. "linalg"
    qualname: str          # function, or Class.method
    # counter name -> f(args, kwargs, result) -> number, summed over calls
    counters: dict = field(default_factory=dict)

    @property
    def name(self):
        return f"{self.module}.{self.qualname}"


TARGETS = (
    Target("linalg", "rank", {"cells": lambda a, k, r: _cells(a[0])}),
    Target("linalg", "kernel_basis", {"cells": lambda a, k, r: _cells(a[0])}),
    Target("linalg", "solve_in_span"),
    Target("linalg", "independent_subset"),
    Target("linalg", "intersect"),
    Target("linalg", "matmul"),
    Target("repthy", "construct_rep", {"dim": lambda a, k, r: r.dimension}),
    Target("repthy", "commutator"),
    Target("repthy", "root_vector_matrices"),
    Target("repthy", "structure_constants"),
    Target("repthy", "weight_multiplicities", {"weights": lambda a, k, r: len(r)}),
    Target("repthy", "tensor_decompose"),
    Target("repthy", "gperp_decompose"),
    Target("rootsys", "build"),
    Target("rootsys", "RootSystem.weyl_dim"),
    Target("grading", "grade_module"),
    Target("cohomology", "kostant_h1"),
    Target("cohomology", "gperp_complex"),
    Target("cohomology", "graded_h1", {"cochain_dim": lambda a, k, r: _cochain_dim(a[0])}),
    Target("cohomology", "h1_report"),
    Target("tableau", "prolong"),
    Target("tableau", "cartan_characters"),
    Target("tableau", "stabilizer_and_tableau"),
    Target("tableau", "reduced_prolongation"),
    Target("driver", "verdict_json_text"),
    Target("cli", "main"),
)


@dataclass(slots=True)
class Span:
    target: int     # index into Tracer.targets; -1 for a case root span
    start: float
    end: float
    parent: int     # index into Tracer.spans; -1 at top level
    case: str


def _resolve(target):
    """The live object a target names, or None when the program lacks it."""
    mod = sys.modules.get(f"{PACKAGE}.{target.module}")
    obj = mod
    for part in target.qualname.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj if callable(obj) else None


def _namespaces():
    """Every liecoh module dict and liecoh class dict, as (owner, dict) pairs."""
    mods = [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
    seen = set()
    for m in mods:
        yield m, vars(m)
        for v in list(vars(m).values()):
            if isinstance(v, type) and v.__module__.startswith(PACKAGE) \
                    and id(v) not in seen:
                seen.add(id(v))
                yield v, vars(v)


class Tracer:
    """Patches the targets into every liecoh namespace; remove() undoes it."""

    def __init__(self, targets=TARGETS, clock=time.perf_counter):
        self.targets = list(targets)
        self.clock = clock          # seconds; the worker passes one without probe time
        self.spans = []
        self.counts = [dict.fromkeys(t.counters, 0) for t in self.targets]
        self.absent = []            # target names the program does not define
        self.broken_counters = set()  # "target.counter" that raised
        self.case = ""
        self._stack = []
        self._patches = []          # (owner, attr, original)

    # ---- installation ----

    def install(self):
        originals = {}
        for i, t in enumerate(self.targets):
            obj = _resolve(t)
            if obj is None:
                self.absent.append(t.name)
            else:
                originals[id(obj)] = (obj, self._wrap(i, obj))
        for owner, ns in _namespaces():
            for attr, val in list(ns.items()):
                hit = originals.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(owner, attr, hit[1])
                    self._patches.append((owner, attr, val))
        return self

    def remove(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.remove()

    # ---- recording ----

    def begin_case(self, case_id):
        """Start a root span for one benchmark case; returns its index."""
        self.case = case_id
        self._stack = []
        self.spans.append(Span(-1, self.clock(), 0.0, -1, case_id))
        self._stack.append(len(self.spans) - 1)
        return self._stack[0]

    def end_case(self, root):
        self.spans[root].end = self.clock()
        self._stack = []

    def _wrap(self, index, fn):
        tracer = self
        counters = list(self.targets[index].counters.items())
        counts = self.counts[index]
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            span = Span(index, 0.0, 0.0, stack[-1] if stack else -1, tracer.case)
            tracer.spans.append(span)
            stack.append(len(tracer.spans) - 1)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                if stack:
                    stack.pop()
            for cname, measure in counters:
                try:
                    counts[cname] += measure(args, kwargs, result)
                except Exception:
                    tracer.broken_counters.add(f"{tracer.targets[index].name}.{cname}")
            return result

        traced._bench_traced = True
        return traced

    # ---- reduction ----

    def layer_metrics(self):
        """{f"{target}.self_s": s, f"{target}.calls": n, f"{target}.<counter>": c}."""
        selfs = self_times(self.spans)
        out = {}
        for i, t in enumerate(self.targets):
            out[f"{t.name}.self_s"] = 0.0
            out[f"{t.name}.calls"] = 0
            for cname, total in self.counts[i].items():
                out[f"{t.name}.{cname}"] = total
        for span, s in zip(self.spans, selfs):
            if span.target >= 0:
                name = self.targets[span.target].name
                out[f"{name}.self_s"] += s
                out[f"{name}.calls"] += 1
        return out

    def span_records(self):
        """Spans as JSON-ready dicts, with self time."""
        names = [t.name for t in self.targets]
        return [{"id": k, "name": names[s.target] if s.target >= 0 else "case",
                 "start": s.start, "end": s.end, "parent": s.parent,
                 "case": s.case, "self_s": st}
                for k, (s, st) in enumerate(zip(self.spans, self_times(self.spans)))]


def self_times(spans):
    """Duration of each span minus the part of it its child spans cover.

    Children are clipped to the parent interval and merged, so overlapping
    or out-of-range children are never subtracted twice.
    """
    children = {}
    for k, s in enumerate(spans):
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for k, s in enumerate(spans):
        covered = 0.0
        lo = s.start
        for a, b in sorted(children.get(k, ())):
            a, b = max(a, lo), min(b, s.end)
            if b > a:
                covered += b - a
                lo = b
        out.append(s.end - s.start - covered)
    return out
