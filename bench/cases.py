"""The benchmark's workloads: seeded inputs, the calls into liecoh, the checks.

Inputs are plain data made from the seed here; each case then calls only
public liecoh functions on them and returns a small JSON-ready output that
is compared with ``reference.json``.  Nothing in this module depends on
liecoh at import time: the program is passed in as a namespace of modules.
"""

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")

WORKLOADS = ("oracle-ladder", "kostant-ladder", "cartan-tableaux")

FIXTURES = ("adjoint-a2", "adjoint-c2", "adjoint-g2", "grassmannian-a3-p2",
            "segre-1-1", "segre-2-2", "veronese-a1")

# (type, highest weight, marked nodes); all at p = -1 with the oracle on
ORACLE_LADDER = (
    ("G2", (1, 0), (1,)),
    ("B3", (0, 0, 1), (3,)),
    ("D4", (1, 0, 0, 0), (1,)),
    ("A4", (0, 1, 0, 0), (2,)),
    ("A2", (2, 1), (1, 2)),
    ("C2", (1, 1), (1, 2)),
)

KOSTANT_ADJOINT = ("A3", "A5", "B3", "C3", "D4", "D5", "F4", "E6", "E7", "E8")

# (type, node i): V(omega_i) marked at i, at p = -1 with the oracle off
KOSTANT_FUNDAMENTAL = (("E6", 1), ("E7", 7), ("D6", 6), ("A7", 4), ("C4", 4),
                       ("F4", 4), ("E7", 1))


@dataclass
class Case:
    id: str
    kind: str       # "fixture", "scenario", "tableau"
    data: dict      # plain inputs made from the seed


# ---------- second fundamental forms ----------

def _sym(n, entries):
    M = [[0] * n for _ in range(n)]
    for i, j in entries:
        M[i][j] = M[j][i] = 1
    return M


def quadric_f2(n):
    """Sum x_i^2 on T = C^n, N = C^1."""
    return [_sym(n, [(i, i) for i in range(n)])], n, 1


def segre_f2(a, b):
    """Seg(P^a x P^b): T = C^a + C^b, N = C^a (x) C^b, F2 = x_i y_j."""
    n = a + b
    return [_sym(n, [(i, a + j)]) for i in range(a) for j in range(b)], n, a * b


def veronese_f2(n):
    """v2(P^n): T = C^n, N = S^2 C^n, F2 = x_i x_j."""
    return [_sym(n, [(i, j)]) for i in range(n) for j in range(i, n)], n, n * (n + 1) // 2


SFF_CASES = {
    "quadric-3": quadric_f2(3),
    "quadric-4": quadric_f2(4),
    "quadric-5": quadric_f2(5),
    "segre-1x2": segre_f2(1, 2),
    "segre-2x2": segre_f2(2, 2),
    "veronese-p2": veronese_f2(2),
}


def _matmul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def unimodular(rng, n):
    """Random L*U with unit-triangular factors and off-diagonal entries in {-1,0,1}.

    The determinant is 1, so the change of basis is always invertible, and
    the product has small dense integer entries.
    """
    L = [[1 if i == j else rng.randint(-1, 1) if i > j else 0 for j in range(n)]
         for i in range(n)]
    U = [[1 if i == j else rng.randint(-1, 1) if i < j else 0 for j in range(n)]
         for i in range(n)]
    return _matmul(L, U)


def change_basis(f2, n, a, dense_rng, sign_rng):
    """F2'[mu] = sum_nu Q[mu][nu] P^T F2[nu] P with P = D_T S_T and Q = S_N D_N.

    D_T and D_N are unimodular matrices drawn from ``dense_rng``; S_T and S_N
    are diagonal matrices of signs drawn from ``sign_rng``.  The stabilizer
    dimension, tableau characters, prolongation, involutivity and torsion
    are invariant under this change of basis of T and N.  Flipping signs of
    basis vectors flips signs of the numbers exact elimination meets but not
    their sizes, so every choice of signs costs the same work.
    """
    P, Q = unimodular(dense_rng, n), unimodular(dense_rng, a)
    s_t = [sign_rng.choice((-1, 1)) for _ in range(n)]
    s_n = [sign_rng.choice((-1, 1)) for _ in range(a)]
    P = [[x * s for x, s in zip(row, s_t)] for row in P]
    Q = [[s * x for x in row] for s, row in zip(s_n, Q)]
    PT = [list(col) for col in zip(*P)]
    conj = [_matmul(_matmul(PT, M), P) for M in f2]
    return [[[sum(Q[mu][nu] * conj[nu][i][j] for nu in range(a)) for j in range(n)]
             for i in range(n)] for mu in range(a)]


def _fractions(f2):
    return [[[Fraction(x) for x in row] for row in M] for M in f2]


# ---------- case lists ----------

def make_cases(workload, seed):
    """The workload's cases for a seed; the seed fixes inputs and order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "oracle-ladder":
        cases = [Case(f"fixture:{name}", "fixture", {"name": name}) for name in FIXTURES]
        cases += [Case(f"oracle:{t}:{','.join(map(str, w))}:{','.join(map(str, m))}",
                       "scenario", {"type": t, "weight": w, "marked": m, "oracle": True})
                  for t, w, m in ORACLE_LADDER]
    elif workload == "kostant-ladder":
        cases = [Case(f"adjoint:{t}", "scenario", {"type": t, "adjoint": True})
                 for t in KOSTANT_ADJOINT]
        for t, i in KOSTANT_FUNDAMENTAL:
            rank = int(t[1:])
            w = tuple(int(j == i - 1) for j in range(rank))
            cases.append(Case(f"kostant:{t}:w{i}", "scenario",
                              {"type": t, "weight": w, "marked": (i,), "oracle": False}))
    elif workload == "cartan-tableaux":
        cases = [Case("tableau:cauchy-riemann", "tableau", {"builtin": "cauchy-riemann"}),
                 Case("tableau:full-5x3", "tableau", {"builtin": "full-5x3"}),
                 Case("tableau:non-involutive-2x2", "tableau", {"builtin": "non-involutive"})]
        for name, (f2, n, a) in SFF_CASES.items():
            # a dense basis fixed per case, signs from the seed: a basis drawn
            # whole from the seed made the work of one case vary by 14 % with it
            f2 = change_basis(f2, n, a, random.Random(f"basis:{name}"),
                              random.Random(f"{seed}:{name}"))
            cases.append(Case(f"sff:{name}", "tableau",
                              {"f2": _fractions(f2), "n": n, "a": a}))
        f2, n, a = SFF_CASES["segre-2x2"]
        # adapted coordinates: on a seeded basis reduced_prolongation has a known cliff
        cases.append(Case("sff:segre-2x2:reduced", "tableau",
                          {"f2": _fractions(f2), "n": n, "a": a, "reduced": True}))
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng.shuffle(cases)
    return cases


# ---------- running one case ----------

def run_case(lc, case):
    """Run one case through liecoh's public functions; returns its output.

    ``lc`` is the imported liecoh package with its ``cli`` module loaded.
    """
    if case.kind == "fixture":
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = lc.cli.main(["--format", "json", "rigidity", "--fixture",
                                case.data["name"]])
        return {"exit": code, "sha256": hashlib.sha256(buf.getvalue().encode()).hexdigest()}
    if case.kind == "scenario":
        return _run_scenario(lc, case.data)
    return _run_tableau(lc, case.data)


def _run_scenario(lc, d):
    t = d["type"]
    factor = lc.rootsys.SimpleFactor(t[0], int(t[1:]))
    if d.get("adjoint"):
        spec = lc.driver.adjoint_scenario(factor)
    else:
        spec = lc.driver.ScenarioSpec((factor,), frozenset(d["marked"]), d["weight"],
                                      -1, d["oracle"])
    v = lc.driver.run_scenario(spec)
    return {"verdict": v.verdict, "oracle_ran": v.report.oracle_ran,
            "h1_by_degree": {str(k): n for k, n in v.report.aggregate.items()}}


def _builtin_tableau(tb, name):
    if name == "cauchy-riemann":
        return tb.cauchy_riemann_tableau()
    if name == "full-5x3":
        return tb.full_tableau(5, 3)
    return tb.Tableau(2, 2, [[[Fraction(1), Fraction(0)], [Fraction(0), Fraction(2)]]])


def _run_tableau(lc, d):
    tb = lc.tableau
    out = {}
    if "builtin" in d:
        t = _builtin_tableau(tb, d["builtin"])
    else:
        pair = tb.stabilizer_and_tableau(d["f2"], d["n"], d["a"])
        t = pair.tableau_r_perp
        out["dim_r"] = pair.dim_r
    rep = tb.is_involutive(t)
    out.update(dim_A=t.dim, characters=rep.characters,
               dim_A1=tb.prolongation_dim(t), involutive=rep.involutive,
               torsion=tb.torsion_quotient_dim(t))
    if d.get("reduced"):
        prol = tb.prolong(t)
        n, w = t.dim_V, t.dim_W
        image = []
        for coeffs in prol[:len(prol) // 2]:
            B = tb.prolongation_bilinear(t, coeffs)
            image.append([B[k][i][j] for k in range(w) for i in range(n) for j in range(n)])
        out["reduced"] = list(tb.reduced_prolongation(t, image))
    return out


def load_reference():
    with open(REFERENCE) as fh:
        return json.load(fh)


def check(reference, case_id, output):
    """None when the output matches the reference, else a one-line reason."""
    want = reference.get(case_id)
    if want is None:
        return f"no reference output for {case_id}"
    if output != want:
        return f"expected {json.dumps(want, sort_keys=True)}, got {json.dumps(output, sort_keys=True)}"
    return None
