"""The integer Weyl-character core against a rational reference.

The reference below is the rational arithmetic that the integer core
replaced: coroot pairings divide by (alpha, alpha) every time, the invariant
form is a Fraction double sum, and Freudenthal walks the weight system with
root coordinates read through the rational inverse Cartan matrix, which a
Gauss-Jordan inverse below builds.  It shares only the root data (Cartan
matrix, d_i, positive roots) with the library.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from liecoh.cohomology import InternalCheckError, h1_report, levi_weyl_dim
from liecoh.grading import ParabolicMarking
from liecoh.repthy import weight_multiplicities, weight_system
from liecoh.rootsys import RootSystem, parse_type

TYPES = ("A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "B5", "C3", "C4", "C5",
         "D4", "D5", "G2", "F4", "A1,A1", "A1,A2", "A1,B2")


# ---------- rational reference ----------

@cache
def gauss_jordan_inverse(matrix):
    n = len(matrix)
    rows = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(matrix)]
    for c in range(n):
        p = next(r for r in range(c, n) if rows[r][c])
        rows[c], rows[p] = rows[p], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for r in range(n):
            if r != c and (f := rows[r][c]):
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return tuple(tuple(row[n:]) for row in rows)


def ref_inverse_cartan(rs):
    return gauss_jordan_inverse(tuple(map(tuple, rs.cartan)))


def raw_norm2(rs, c):
    return sum(c[i] * c[j] * rs.d[i] * rs.cartan[i][j]
               for i in range(rs.rank) for j in range(rs.rank))


def pair_coroot(rs, weight, c):
    return Fraction(2 * sum(weight[j] * c[j] * rs.d[j] for j in range(rs.rank)),
                    raw_norm2(rs, c))


def ref_dim(rs, weight, roots):
    rho = (1,) * rs.rank
    shifted = tuple(a + b for a, b in zip(weight, rho))
    dim = Fraction(1)
    for r in roots:
        dim *= pair_coroot(rs, shifted, r.coords) / pair_coroot(rs, rho, r.coords)
    return dim


def ref_inner(rs, w1, w2):
    inverse = ref_inverse_cartan(rs)
    scale = [None] * rs.rank
    for s, f in enumerate(rs.factors):
        for i in range(f.rank):
            scale[rs.offsets[s] + i] = Fraction(2) / raw_norm2(rs, rs.highest_root_per_factor[s])
    return sum(Fraction(w1[i] * w2[j]) * inverse[j][i] * rs.d[j] * scale[j]
               for i in range(rs.rank) for j in range(rs.rank))


def ref_dominant(rs, w):
    while True:
        for i in range(rs.rank):
            if w[i] < 0:
                w = tuple(w[j] - w[i] * rs.cartan[j][i] for j in range(rs.rank))
                break
        else:
            return w


def ref_depth(rs, lam, nu):
    diff = [a - b for a, b in zip(lam, nu)]
    inverse = ref_inverse_cartan(rs)
    coords = [sum(inverse[i][j] * diff[j] for j in range(rs.rank))
              for i in range(rs.rank)]
    if any(Fraction(c).denominator != 1 or c < 0 for c in coords):
        return None
    return int(sum(coords))


def ref_multiplicities(rs, lam):
    alphas = [tuple(rs.cartan[j][i] for j in range(rs.rank)) for i in range(rs.rank)]
    weights, frontier = {lam}, [lam]
    while frontier:
        nxt = []
        for w in frontier:
            for a in alphas:
                c = tuple(x - y for x, y in zip(w, a))
                if c not in weights and ref_depth(rs, lam, ref_dominant(rs, c)) is not None:
                    weights.add(c)
                    nxt.append(c)
        frontier = nxt
    dominants = sorted((w for w in weights if min(w) >= 0),
                       key=lambda w: (ref_depth(rs, lam, w), w))
    # C . c from the Cartan matrix, not the root walk's root_weights
    pos = [tuple(sum(rs.cartan[i][j] * r.coords[j] for j in range(rs.rank))
                 for i in range(rs.rank)) for r in rs.positive_roots]
    rho = (1,) * rs.rank
    lam_rho = tuple(a + 1 for a in lam)
    mult = {lam: 1}
    for mu in dominants[1:]:
        total = Fraction(0)
        for a in pos:
            k = 1
            while (nu := tuple(x + k * y for x, y in zip(mu, a))) in weights:
                total += 2 * mult[ref_dominant(rs, nu)] * ref_inner(rs, nu, a)
                k += 1
        mu_rho = tuple(x + y for x, y in zip(mu, rho))
        mult[mu] = total / (ref_inner(rs, lam_rho, lam_rho) - ref_inner(rs, mu_rho, mu_rho))
    return {w: mult[ref_dominant(rs, w)] for w in weights}


# ---------- the integer core equals the reference ----------

@st.composite
def type_and_weight(draw):
    rs = parse_type(draw(st.sampled_from(TYPES)))
    lam = tuple(draw(st.lists(st.integers(0, 2), min_size=rs.rank, max_size=rs.rank)))
    assume(sum(lam) <= 3 and ref_dim(rs, lam, rs.positive_roots) <= 400)
    return rs, lam


@settings(max_examples=40, deadline=None)
@given(type_and_weight(), st.data())
def test_integer_core_equals_rational_reference(case, data):
    rs, lam = case
    assert rs.weyl_dim(lam) == ref_dim(rs, lam, rs.positive_roots)
    ws = weight_multiplicities(rs, lam)
    assert ws == ref_multiplicities(rs, lam)
    # V(lam*) has the negated weights of V(lam), with the same multiplicities
    assert weight_multiplicities(rs, rs.dual_weight(lam)) == {
        tuple(-x for x in w): m for w, m in ws.items()}
    # the Levi dimension of a Levi-dominant weight, and Z on it
    marked = data.draw(st.sets(st.integers(1, rs.rank), min_size=1))
    marking = ParabolicMarking(rs, marked)
    mu = tuple(data.draw(st.integers(-3, 3)) if j + 1 in marked
               else data.draw(st.integers(0, 2)) for j in range(rs.rank))
    levi = [r for r in rs.positive_roots if not any(r.coords[i - 1] for i in marked)]
    assert levi_weyl_dim(marking, mu) == ref_dim(rs, mu, levi)
    assert marking.z(mu) == sum(ref_inverse_cartan(rs)[i - 1][j] * mu[j]
                                for i in marked for j in range(rs.rank))


@pytest.mark.parametrize("name,lam", [("E6", (1, 0, 0, 0, 0, 0)),
                                      ("E7", (0, 0, 0, 0, 0, 0, 1)),
                                      ("E8", (0, 0, 0, 0, 0, 0, 0, 1))],
                         ids=["E6-w1", "E7-w7", "E8-adjoint"])
def test_integer_core_equals_rational_reference_on_e_types(name, lam):
    # the hypothesis test above draws no E type; the last case is the E8 adjoint
    rs = parse_type(name)
    assert weight_multiplicities(rs, lam) == ref_multiplicities(rs, lam)


@pytest.mark.parametrize("name", ["E6", "E7", "E8"])
def test_weyl_dims_equal_the_rational_reference_on_e_types(name):
    # the Weyl and Levi dimensions of the hypothesis test above, on seeded draws
    rs = parse_type(name)
    rng = random.Random(name)
    for _ in range(6):
        lam = tuple(rng.randrange(3) for _ in range(rs.rank))
        assert rs.weyl_dim(lam) == ref_dim(rs, lam, rs.positive_roots)
        marked = set(rng.sample(range(1, rs.rank + 1), rng.randrange(1, 4)))
        mu = tuple(rng.randrange(-3, 4) if j + 1 in marked else rng.randrange(3)
                   for j in range(rs.rank))
        levi = [r for r in rs.positive_roots if not any(r.coords[i - 1] for i in marked)]
        assert levi_weyl_dim(ParabolicMarking(rs, marked), mu) == ref_dim(rs, mu, levi)


@pytest.mark.parametrize("name,lam", [("A1,G2", (1, 1, 0)), ("A1,G2", (2, 0, 1)),
                                      ("B3,C3", (1, 0, 0, 0, 0, 1)),
                                      ("B3,C3", (0, 0, 1, 1, 0, 0))],
                         ids=["A1xG2-1,1,0", "A1xG2-2,0,1", "B3xC3-1,0,0,0,0,1",
                              "B3xC3-0,0,1,1,0,0"])
def test_products_of_factors_with_different_long_roots(name, lam):
    # the reference gives every highest root squared length 2, and d pairs
    # each factor at d_long times that: A1 at 1 and G2 at 3, B3 and C3 at 2;
    # the hypothesis draw above reaches a mixed product (A1xB2) by chance only
    rs = parse_type(name)
    assert rs.weyl_dim(lam) == ref_dim(rs, lam, rs.positive_roots)
    assert weight_multiplicities(rs, lam) == ref_multiplicities(rs, lam)


@pytest.mark.parametrize("name,lam", [("G2", (2, 1)), ("B3", (1, 1, 1)),
                                      ("A1,A2", (1, 1, 1))],
                         ids=["G2-2,1", "B3-1,1,1", "A1xA2-1,1,1"])
def test_weight_order_is_level_then_tuple(name, lam):
    # the documented order: top down by level below lam, ties by increasing tuple
    rs = parse_type(name)
    ws = weight_multiplicities(rs, lam)
    keys = [(ref_depth(rs, lam, w), w) for w in ws]
    assert all(level is not None for level, _ in keys)
    assert keys == sorted(keys)
    assert ws == ref_multiplicities(rs, lam)


def test_each_weyl_product_once_per_report(monkeypatch):
    # a work count, not a timing, on the E8 adjoint verdict
    calls = []
    real = RootSystem.weyl_product

    def counted(self, weight, roots):
        calls.append((tuple(weight), roots))
        return real(self, weight, roots)

    monkeypatch.setattr(RootSystem, "weyl_product", counted)
    rs = RootSystem([("E", 8)])  # private: the shared E8 may hold Weyl dimensions
    h1_report(ParabolicMarking(rs, {8}), rs.adjoint_weight(), -1)
    products = [(weight, tuple(roots)) for weight, roots in calls]
    assert len(products) == len(set(products))
    # every Levi product reads the one list of Levi roots built for the marking
    levi = [roots for _, roots in calls if len(roots) < len(rs.positive_roots)]
    assert levi and all(roots is levi[0] for roots in levi)


# ---------- corrupted integer data is caught ----------

# each corrupts a private RootSystem: parse_type's is shared by every test

def test_corrupted_half_norm_is_caught():
    rs = RootSystem([("A", 2)])
    rs.d[0] = 2  # d_i = (alpha_i, alpha_i) / 2: alpha_1 with twice its squared length
    # the Weyl product of (1, 0) is now 4 * 1 * 5 / (2 * 1 * 3) ...
    with pytest.raises(InternalCheckError, match="not a positive integer"):
        rs.weyl_dim((1, 0))
    # ... and that of (2, 0) the integer 7, which Freudenthal contradicts
    with pytest.raises(InternalCheckError, match="not the Weyl dimension"):
        weight_multiplicities(rs, (2, 0))


def test_corruption_is_caught_under_optimize():
    # the checks are raises, not asserts, so python -O keeps them
    script = """
from liecoh.cohomology import InternalCheckError
from liecoh.repthy import weight_multiplicities
from liecoh.rootsys import RootSystem
for lam in ((1, 0), (2, 0)):
    rs = RootSystem([("A", 2)])
    rs.d[0] = 2
    try:
        weight_multiplicities(rs, lam)
        print("passed silently")
    except InternalCheckError as e:
        print(e)
"""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    out = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src}, check=True)
    first, second = out.stdout.splitlines()
    assert "not a positive integer" in first and "not the Weyl dimension" in second


def test_weight_system_memo_is_read_only():
    rs = parse_type("A2")
    ws = weight_system(rs, (1, 1))
    assert ws == weight_multiplicities(rs, (1, 1))
    with pytest.raises(TypeError):
        ws[(0, 0)] = 5
    with pytest.raises(TypeError):
        del ws[(1, 1)]
    assert weight_system(rs, (1, 1)) is ws and ws[(0, 0)] == 2
    # a caller that edits the public weight system edits its own copy
    mine = weight_multiplicities(rs, (1, 1))
    mine[(0, 0)] = 5
    assert weight_system(rs, [1, 1])[(0, 0)] == 2


def test_one_weight_system_per_report(monkeypatch):
    from liecoh import repthy
    calls = []
    real = repthy.weight_multiplicities

    def counted(root_system, lam):
        if root_system is rs:  # not the companion modules of structure_constants
            calls.append(tuple(lam))
        return real(root_system, lam)

    monkeypatch.setattr(repthy, "weight_multiplicities", counted)
    rs = RootSystem([("A", 2)])  # private: the shared A2 may hold V(1,1) already
    report = h1_report(ParabolicMarking(rs, {1, 2}), (1, 1), -1, oracle=True)
    assert report.oracle_ran
    # Brauer-Klimyk, the module grading and construct_rep share one walk
    assert calls == [(1, 1)]
