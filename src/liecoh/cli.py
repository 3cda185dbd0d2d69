"""Command-line surface.

Subcommands: vogel, grading, gperp, cohomology, rigidity, tableau, adjoint.
Weight coordinates are comma-separated integers in Bourbaki fundamental-
weight order, concatenated across factors; node indices are 1-based.
All rationals serialize as "p/q" strings; nothing is ever printed in
floating point.

`main` is the one place that maps an exception to an exit code: 0 success,
2 for a ValueError (rejected input, with its message after "error:"), 1 for
an InternalCheckError (a failed exact consistency check).  Any other
exception is a bug and keeps its traceback.
"""

import argparse
import importlib.resources
import json
import os
import re
import sys
from dataclasses import asdict, replace
from functools import cache

from . import cohomology, repthy, tableau, vogel
from .driver import (ScenarioSpec, adjoint_scenario, piece_json, rational_str,
                     run_scenario, scenario_from_json, scenario_to_json,
                     verdict_json_text, verdict_table)
from .errors import InternalCheckError
from .grading import ParabolicMarking, algebra_depth, grade_algebra, grade_module
from .repthy import DEFAULT_ORACLE_BOUND
from .rootsys import parse_type


def _weight(text, rank=None):
    try:
        w = tuple(int(c) for c in text.split(","))
    except ValueError as e:
        raise ValueError(f"malformed weight {text!r}: coordinates must be integers") from e
    if rank is not None and len(w) != rank:
        raise ValueError(f"weight {text!r} has {len(w)} coordinates, expected {rank}")
    return w


def _nodes(text):
    """The node numbers of a --marked value; ParabolicMarking checks them."""
    try:
        return [int(c) for c in text.split(",")]
    except ValueError as e:
        raise ValueError(f"malformed --marked {text!r}: expected comma-separated integer "
                         "node numbers, such as 1,3") from e


def oracle_bound():
    raw = os.environ.get("ORACLE_DIM_MAX")
    if raw is None:
        return DEFAULT_ORACLE_BOUND
    try:
        bound = int(raw)
    except ValueError as e:
        raise ValueError(f"ORACLE_DIM_MAX = {raw!r} is not an integer") from e
    if bound < 0:
        raise ValueError(f"ORACLE_DIM_MAX = {raw!r} is negative")
    return bound


def _emit(args, payload, table_lines):
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print("\n".join(table_lines))


# ---------- subcommands ----------

def cmd_vogel(args):
    chosen = [name for name, on in (("--y2", args.y2), ("--y3", args.y3),
                                    ("--k", args.k is not None)) if on]
    if len(chosen) > 1:
        raise ValueError(f"{' and '.join(chosen)} exclude each other: give at most one")
    params = [tableau.parse_rational(x) for x in args.params.split(",")]
    if len(params) != 3:
        raise ValueError(f"--params needs three values alpha,beta,gamma, got {len(params)}")
    a, b, g = params
    p = vogel.VogelParams(a, b, g)
    try:
        if args.y2:
            value, label = vogel.dim_y2(p), "dim Y2"
        elif args.y3:
            value, label = vogel.dim_y3(p), "dim Y3"
        elif args.k is not None:
            value, label = vogel.dim_yk(p, args.k), f"dim Y_{args.k}"
        else:
            value, label = vogel.dim_g(p), "dim g"
    except vogel.DegenerateParameters as e:
        raise ValueError(f"degenerate parameter point: {e}") from e
    if args.format == "json":
        print(json.dumps({"params": [rational_str(x) for x in (a, b, g)],
                          "t": rational_str(p.t), "label": label,
                          "value": rational_str(value)}, sort_keys=True))
    else:
        print(rational_str(value))
    return 0


def cmd_grading(args):
    rs = parse_type(args.type)
    marking = ParabolicMarking(rs, _nodes(args.marked))
    alg = grade_algebra(marking)
    depth = algebra_depth(marking)
    payload = {"type": str(rs), "marked": sorted(marking.marked),
               "algebra": {str(d): n for d, n in alg.items()},
               "depth": depth}
    lines = [f"algebra grading of {rs}, marked {sorted(marking.marked)}:",
             f"  {alg}  (depth {depth})"]
    if args.weight is not None:
        w = _weight(args.weight, rs.rank)
        mod = grade_module(marking, w)
        payload["weight"] = list(w)
        payload["module"] = {str(d): n for d, n in mod.items()}
        lines.append(f"module grading of V_{list(w)} (top = 0):")
        lines.append(f"  {mod}")
    _emit(args, payload, lines)
    return 0


def cmd_gperp(args):
    rs = parse_type(args.type)
    w = _weight(args.weight, rs.rank)
    comps = repthy.gperp_decompose(rs, w)
    dims = [(list(c.highest_weight), c.multiplicity,
             rs.weyl_dim(c.highest_weight)) for c in comps]
    payload = {"type": str(rs), "weight": list(w),
               "components": [{"weight": hw, "multiplicity": m, "dim": d}
                              for hw, m, d in dims],
               "total_dim": sum(m * d for _, m, d in dims)}
    lines = [f"g-perp of {rs} acting on V_{list(w)} (inside sl(U)):"]
    lines += [f"  {hw}  x{m}  dim {d}" for hw, m, d in dims]
    lines.append(f"  total {payload['total_dim']}")
    _emit(args, payload, lines)
    return 0


def cmd_cohomology(args):
    rs = parse_type(args.type)
    marking = ParabolicMarking(rs, _nodes(args.marked))
    gamma = _weight(args.gamma, rs.rank)
    pieces = cohomology.kostant_h1(marking, repthy.IrrComponent(gamma))
    payload = {"type": str(rs), "marked": sorted(marking.marked),
               "gamma": list(gamma),
               "pieces": [piece_json(p) for p in pieces]}
    lines = [f"H^1(g_-, V_{list(gamma)}) for {rs} marked {sorted(marking.marked)}:"]
    lines += [f"  degree {p.degree}  dim {p.dimension}  levi {list(p.levi_highest_weight)}"
              f"  (node {p.source_reflection})" for p in pieces]
    if args.oracle:
        cx = cohomology.module_complex(marking, gamma, bound=oracle_bound())
        dims = cohomology.check_oracle(cx, [(1, p) for p in pieces])
        payload["oracle"] = {str(d): n for d, n in dims.items()}
        lines.append(f"oracle agreed: { {str(k): v for k, v in dims.items()} }")
    _emit(args, payload, lines)
    return 0


# the bundled scenario files, found through this package's own name, so a
# second copy of the package imported under another name reads its own
FIXTURES = importlib.resources.files(__package__) / "fixtures"


def fixtures():
    """Names of the bundled scenario files."""
    return sorted(p.name[:-5] for p in FIXTURES.iterdir() if p.name.endswith(".json"))


def load_fixture(name):
    path = FIXTURES / f"{name}.json"
    if not path.is_file():
        raise ValueError(f"unknown fixture {name!r}; available: {', '.join(fixtures())}")
    return scenario_from_json(path.read_text())


def cmd_rigidity(args):
    chosen = [name for name, on in (("--list-fixtures", args.list_fixtures),
                                    ("--fixture", args.fixture is not None),
                                    ("--scenario", args.scenario is not None),
                                    ("--type", args.type is not None)) if on]
    if len(chosen) > 1:
        raise ValueError(f"{' and '.join(chosen)} exclude each other: give at most one")
    for name, value in (("--marked", args.marked), ("--weight", args.weight)):
        if value is not None and args.type is None:
            raise ValueError(f"{name} goes only with --type")
    if args.list_fixtures and (args.p is not None or args.oracle):
        raise ValueError("--p and --oracle do not go with --list-fixtures")
    if args.list_fixtures:
        for name in fixtures():
            print(name)
        return 0
    if args.fixture is not None:
        spec = load_fixture(args.fixture)
    elif args.scenario is not None:
        try:
            with open(args.scenario) as fh:
                spec = scenario_from_json(json.load(fh))
        except (OSError, ValueError) as e:  # JSONDecodeError is a ValueError
            raise ValueError(f"cannot read scenario {args.scenario!r}: {e}") from e
    elif args.type is not None:
        if args.marked is None or args.weight is None or args.p is None:
            raise ValueError("--type needs --marked, --weight and --p")
        rs = parse_type(args.type)
        marked = _nodes(args.marked)
        weight = _weight(args.weight, rs.rank)
        spec = ScenarioSpec(tuple(rs.factors), marked, weight, args.p, args.oracle)
    else:
        raise ValueError("need --fixture, --scenario, or --type/--marked/--weight")
    # the --p and --oracle overrides; __post_init__ checks them again
    if args.p is not None:
        spec = replace(spec, p=args.p)
    if args.oracle:
        spec = replace(spec, oracle=True)
    verdict = run_scenario(spec, bound=oracle_bound())
    print(verdict_json_text(verdict) if args.format == "json" else verdict_table(verdict))
    return 0


def cmd_adjoint(args):
    rs = parse_type(args.type)
    if len(rs.factors) != 1:
        raise ValueError("adjoint scenarios are defined for a single simple factor")
    spec = adjoint_scenario(rs.factors[0], oracle=args.oracle)
    if args.run:
        verdict = run_scenario(spec, bound=oracle_bound())
        print(verdict_json_text(verdict) if args.format == "json" else verdict_table(verdict))
    else:
        print(json.dumps(scenario_to_json(spec), indent=2, sort_keys=True))
    return 0


def cmd_tableau(args):
    try:
        with open(args.input) as fh:
            t = tableau.tableau_from_json(fh.read())
    except (OSError, ValueError) as e:  # JSONDecodeError is a ValueError
        raise ValueError(f"cannot read tableau {args.input!r}: {e}") from e
    seed = args.flag_seed
    if args.op in ("involutive", "all"):
        rep = tableau.is_involutive(t, seed)
        payload = asdict(rep)
        lines = [f"dim A = {rep.dim_A}", f"A_j dims = {rep.characters}",
                 f"dim A^(1) = {rep.dim_prolongation}  bound = {rep.bound}",
                 f"involutive: {rep.involutive}"]
        if rep.character_of_generality is not None:
            lines.append(f"solutions depend on {rep.generality_dim} functions of "
                         f"{rep.character_of_generality} variables")
    elif args.op == "prolong":
        dim = tableau.prolongation_dim(t)
        payload = {"dim_prolongation": dim}
        lines = [f"dim A^(1) = {dim}"]
    elif args.op == "characters":
        chars = tableau.cartan_characters(t, seed)
        payload = {"characters": chars}
        lines = [f"A_j dims = {chars}"]
    elif args.op == "torsion":
        dim = tableau.torsion_quotient_dim(t)
        payload = {"torsion_quotient_dim": dim}
        lines = [f"dim W (x) Lambda^2 V* / delta(A (x) V*) = {dim}"]
    else:
        raise ValueError(f"unknown tableau op {args.op!r}")
    _emit(args, payload, lines)
    return 0


# ---------- dispatch ----------

class _Parser(argparse.ArgumentParser):
    # let values like -2,12,20 (vogel parameter lists) pass as arguments
    def __init__(self, *a, **kw):
        super().__init__(*a, **kw)
        self._negative_number_matcher = re.compile(r"^-\d")


# built once per process and shared by every main call, which only reads it;
# most of a build is argparse's gettext lookups
@cache
def build_parser():
    ap = _Parser(
        prog="liecoh",
        description="Exact computational Lie theory: gradings, g-perp cohomology, "
                    "rigidity verdicts, Cartan's involutivity test, and universal "
                    "dimension formulas.")
    ap.add_argument("--format", choices=("json", "table"), default="table")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("vogel", help="universal dimension formulas")
    p.add_argument("--params", required=True, help="alpha,beta,gamma (rationals)")
    p.add_argument("--k", type=int, default=None, help="Cartan power index")
    p.add_argument("--y2", action="store_true")
    p.add_argument("--y3", action="store_true")
    p.set_defaults(func=cmd_vogel)

    p = sub.add_parser("grading", help="Z-gradings of g and of a module")
    p.add_argument("--type", required=True)
    p.add_argument("--marked", required=True)
    p.add_argument("--weight", default=None)
    p.set_defaults(func=cmd_grading)

    p = sub.add_parser("gperp", help="decompose sl(U) minus g")
    p.add_argument("--type", required=True)
    p.add_argument("--weight", required=True)
    p.set_defaults(func=cmd_gperp)

    p = sub.add_parser("cohomology", help="H^1(g_-, V_gamma) pieces")
    p.add_argument("--type", required=True)
    p.add_argument("--marked", required=True)
    p.add_argument("--gamma", required=True)
    p.add_argument("--oracle", action="store_true")
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("rigidity", help="full rigidity verdict")
    p.add_argument("--scenario", default=None, help="scenario JSON file")
    p.add_argument("--fixture", default=None, help="bundled fixture name")
    p.add_argument("--list-fixtures", action="store_true")
    p.add_argument("--type", default=None)
    p.add_argument("--marked", default=None)
    p.add_argument("--weight", default=None)
    p.add_argument("--p", type=int, default=None,
                   help="system index p >= -1: rigidity at order p + 3, "
                        "RIGID iff H^1_d = 0 for every d >= p + 2")
    p.add_argument("--oracle", action="store_true")
    p.set_defaults(func=cmd_rigidity)

    p = sub.add_parser("adjoint", help="emit or run the adjoint-variety scenario")
    p.add_argument("--type", required=True)
    p.add_argument("--run", action="store_true")
    p.add_argument("--oracle", action="store_true")
    p.set_defaults(func=cmd_adjoint)

    p = sub.add_parser("tableau", help="tableau operations on a JSON input")
    p.add_argument("--input", required=True)
    p.add_argument("--op", default="all",
                   choices=("all", "involutive", "prolong", "characters", "torsion"))
    p.add_argument("--flag-seed", type=int, default=tableau.FLAG_SEED)
    p.set_defaults(func=cmd_tableau)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except InternalCheckError as e:
        print(f"internal consistency failure: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
