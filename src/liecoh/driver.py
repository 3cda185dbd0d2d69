"""End-to-end rigidity scenarios: grading -> g-perp -> H^1 -> verdict.

A scenario pins a semisimple algebra, a parabolic marking, the embedding
weight, the system index p >= -1, and whether to cross-check the
combinatorial cohomology against the direct matrix oracle.  Runs are pure
and deterministic: the same spec always serializes to the same report.
"""

import json
from dataclasses import dataclass
from fractions import Fraction

from .cohomology import CohomologyReport, h1_report
from .grading import ParabolicMarking
from .repthy import DEFAULT_ORACLE_BOUND
from .rootsys import SimpleFactor, as_factors, build, parse_factor


def _integer(x, what):
    """x when it is an int (a bool is not); ValueError otherwise."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return x


@dataclass(frozen=True)
class ScenarioSpec:
    algebra: tuple        # of SimpleFactor
    marked: frozenset     # 1-based global node indices
    highest_weight: tuple
    p: int
    oracle: bool = False

    def __post_init__(self):
        if _integer(self.p, "p") < -1:
            raise ValueError("p must be >= -1")
        if not isinstance(self.oracle, bool):
            raise ValueError(f"oracle must be true or false, got {self.oracle!r}")
        object.__setattr__(self, "algebra", as_factors(self.algebra))
        object.__setattr__(self, "marked", frozenset(
            _integer(i, "a marked node") for i in self.marked))
        object.__setattr__(self, "highest_weight", tuple(
            _integer(c, "a weight coordinate") for c in self.highest_weight))


@dataclass
class RigidityVerdict:
    verdict: str
    report: CohomologyReport


def run_scenario(spec, bound=DEFAULT_ORACLE_BOUND):
    report = h1_report(ParabolicMarking(build(spec.algebra), spec.marked),
                       spec.highest_weight, spec.p, oracle=spec.oracle, bound=bound)
    return RigidityVerdict(report.verdict, report)


def adjoint_scenario(factor, oracle=False):
    """Scenario for the adjoint variety of a simple factor at p = -1.

    The highest weight is the highest root; marked nodes are its support in
    fundamental coordinates.  A1 is refused: its adjoint variety is the
    plane conic, whose rigidity is a fifth-order phenomenon (p = 2), so the
    p = -1 pipeline does not apply.
    """
    if not isinstance(factor, SimpleFactor):
        factor = SimpleFactor(*factor)
    if factor.family == "A" and factor.rank == 1:
        raise ValueError(
            "A1 rejected: the adjoint variety of A1 is the plane conic, "
            "rigid only at order five; run the veronese weight (2,) with p = 2")
    rs = build([factor])
    theta = rs.adjoint_weight(0)
    marked = frozenset(i + 1 for i, c in enumerate(theta) if c)
    return ScenarioSpec((factor,), marked, theta, -1, oracle)


# ---------- serialization ----------

def rational_str(x):
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def scenario_from_json(doc):
    """ScenarioSpec from {"algebra", "marked", "weight", "p"[, "oracle"]}.

    Raises ValueError on a document that lacks a key, has a key not named
    here or has the wrong shape or type.
    """
    if isinstance(doc, str):
        doc = json.loads(doc)
    if not isinstance(doc, dict):
        raise ValueError("a scenario must be a JSON object")
    for key in ("algebra", "marked", "weight", "p"):
        if key not in doc:
            raise ValueError(f"scenario has no {key!r}")
    for key in doc:
        if key not in ("algebra", "marked", "weight", "p", "oracle"):
            raise ValueError(f"scenario has an unknown key {key!r}")
    for key in ("algebra", "marked", "weight"):
        if not isinstance(doc[key], list):
            raise ValueError(f"scenario {key!r} must be a list")
    return ScenarioSpec(
        tuple(parse_factor(name) for name in doc["algebra"]),
        doc["marked"],
        doc["weight"],
        doc["p"],
        doc.get("oracle", False),
    )


def scenario_to_json(spec):
    return {
        "algebra": [str(f) for f in spec.algebra],
        "marked": sorted(spec.marked),
        "weight": list(spec.highest_weight),
        "p": spec.p,
        "oracle": spec.oracle,
    }


def piece_json(piece):
    """The JSON object of one H1Piece."""
    return {
        "levi_highest_weight": list(piece.levi_highest_weight),
        "degree": degree_json(piece.degree),
        "dimension": piece.dimension,
        "source_reflection": piece.source_reflection,
    }


def _component_piece_json(component, mult, piece):
    return {"component": list(component), "component_multiplicity": mult,
            **piece_json(piece)}


def degree_json(d):
    return d if isinstance(d, int) else rational_str(d)


def verdict_to_json(v):
    rep = v.report
    return {
        "algebra": rep.algebra,
        "marked": rep.marked,
        "weight": list(rep.weight),
        "p": rep.p,
        "threshold": rep.threshold,
        "verdict": v.verdict,
        "gperp": [{"weight": list(c.highest_weight), "multiplicity": c.multiplicity}
                  for c in rep.gperp],
        "h1_pieces": [_component_piece_json(hw, m, pc) for hw, m, pc in rep.pieces],
        "h1_by_degree": {str(degree_json(d)): n for d, n in rep.aggregate.items()},
        "offending": [_component_piece_json(hw, m, pc) for hw, m, pc in rep.offending],
        "gradings": {
            "algebra": {str(d): n for d, n in rep.algebra_grading.items()},
            "module": {str(d): n for d, n in rep.module_grading.items()},
        },
        "oracle": {
            "requested": rep.oracle_requested,
            "ran": rep.oracle_ran,
            "note": rep.oracle_note,
        },
    }


def verdict_json_text(v):
    return json.dumps(verdict_to_json(v), indent=2, sort_keys=True)


def verdict_table(v):
    rep = v.report
    lines = []
    head = "x".join(rep.algebra)
    lines.append(f"algebra {head}  marked {rep.marked}  weight {list(rep.weight)}  p = {rep.p}")
    lines.append(f"algebra grading: {rep.algebra_grading}")
    lines.append(f"module grading (top = 0): {rep.module_grading}")
    lines.append("g-perp components:")
    for c in rep.gperp:
        lines.append(f"  {list(c.highest_weight)}  x{c.multiplicity}")
    lines.append("H^1 pieces (degree, dim, component, levi weight):")
    for hw, m, pc in rep.pieces:
        mult = f" x{m}" if m > 1 else ""
        lines.append(f"  d = {pc.degree}  dim {pc.dimension}{mult}  from {list(hw)}"
                     f"  levi {list(pc.levi_highest_weight)}  (node {pc.source_reflection})")
    lines.append(f"H^1 by degree: { {str(k): n for k, n in rep.aggregate.items()} }")
    if rep.oracle_requested:
        lines.append(f"oracle: {rep.oracle_note}")
    lines.append(f"threshold: degrees >= {rep.threshold} obstruct")
    lines.append(f"verdict: {v.verdict}")
    return "\n".join(lines)
