import itertools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from liecoh import linalg
from liecoh.errors import InternalCheckError
from liecoh.tableau import (DELTA_SIDE_MAX, FLAG_SEED, RANDOM_FLAG_COUNT, Tableau,
                            _delta_matrix, cartan_characters, cauchy_riemann_tableau,
                            full_tableau, is_involutive, prolong,
                            prolongation_bilinear, prolongation_dim,
                            reduced_prolongation,
                            stabilizer_and_tableau, tableau_from_json,
                            tableau_to_json, torsion_quotient_dim,
                            zero_tableau)


def test_full_tableau():
    t = full_tableau(3, 2)
    assert prolongation_dim(t) == 2 * 6  # w n(n+1)/2
    rep = is_involutive(t)
    assert rep.involutive
    assert rep.characters == [6, 4, 2]
    assert rep.character_of_generality == 3 and rep.generality_dim == 2
    assert torsion_quotient_dim(t) == 0


def test_zero_tableau_frobenius():
    t = zero_tableau(3, 2)
    assert prolong(t) == []
    rep = is_involutive(t)
    assert rep.involutive
    assert rep.characters == [0, 0, 0]
    assert rep.character_of_generality is None
    assert torsion_quotient_dim(t) == 2 * 3  # w n(n-1)/2, nothing absorbed


def test_cauchy_riemann():
    t = cauchy_riemann_tableau()
    assert prolongation_dim(t) == 2
    assert cartan_characters(t) == [2, 0]
    rep = is_involutive(t)
    assert rep.involutive and rep.bound == 2
    assert torsion_quotient_dim(t) == 2 * 1 - (2 * 2 - 2)


def test_prolongation_elements_are_symmetric_with_slices_in_a():
    t = cauchy_riemann_tableau()
    flat_a = [t.flatten(M) for M in t.basis]
    for coeffs in prolong(t):
        B = prolongation_bilinear(t, coeffs)  # asserts symmetry internally
        for j in range(t.dim_V):
            slice_j = [B[w][i][j] for w in range(t.dim_W) for i in range(t.dim_V)]
            assert linalg.rank(flat_a + [slice_j]) == len(flat_a)


def test_dependent_basis_rejected():
    with pytest.raises(ValueError):
        Tableau(2, 1, [[[Fraction(1), Fraction(0)]], [[Fraction(2), Fraction(0)]]])


def random_tableau(rng):
    n = rng.randint(1, 5)
    w = rng.randint(1, 5)
    target = rng.randint(0, min(12, n * w))
    mats = []
    guard = 0
    while len(mats) < target and guard < 60:
        guard += 1
        M = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(w)]
        try:
            Tableau(n, w, mats + [M])
        except ValueError:
            continue
        mats.append(M)
    return Tableau(n, w, mats)


def test_random_tableau_properties():
    rng = random.Random(20240)
    for _ in range(200):
        t = random_tableau(rng)
        dim_p = prolongation_dim(t)
        chars = cartan_characters(t)
        # Cartan's inequality
        assert dim_p <= sum(chars)
        # flag monotonicity
        assert all(chars[i] >= chars[i + 1] for i in range(len(chars) - 1))
        # rank-nullity of delta restricted to A (x) V*
        assert (t.dim_V * t.dim - dim_p) + dim_p == t.dim_V * t.dim


def test_character_flag_determinism():
    t = cauchy_riemann_tableau()
    assert cartan_characters(t, seed=1) == cartan_characters(t, seed=99)


def test_stabilizer_segre_quadric():
    # F2 = xy on a 2-dim T with 1-dim N
    f2 = [[[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]]
    pair = stabilizer_and_tableau(f2, 2, 1)
    assert pair.dim_r + pair.tableau_r_perp.dim == 1 + 4 + 1
    assert pair.dim_r == 3
    assert pair.tableau_r_perp.dim_V == 2
    assert pair.tableau_r_perp.dim_W == 1 + 2


def test_stabilizer_rank_one_quadric():
    # F2 = x^2 with T 1-dim: one linear condition on the 3-dim block space
    f2 = [[[Fraction(1)]]]
    pair = stabilizer_and_tableau(f2, 1, 1)
    assert pair.dim_r == 2


def test_stabilizer_zero_form():
    f2 = [[[Fraction(0)] * 2 for _ in range(2)]]
    pair = stabilizer_and_tableau(f2, 2, 1)
    assert pair.dim_r == 6
    assert pair.tableau_r_perp.dim == 0


def test_stabilizer_annihilates_exactly():
    f2 = [[[Fraction(1), Fraction(0)], [Fraction(0), Fraction(-1)]],
          [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]]
    pair = stabilizer_and_tableau(f2, 2, 2)
    assert pair.dim_r + pair.tableau_r_perp.dim == 1 + 4 + 4


def test_stabilizer_checks_the_kernel_it_is_given(monkeypatch):
    # r is the first integer_kernel; a vector outside the stabilizer, or a
    # repeated one, added to it must trip the exact checks
    f2, n, a = segre_1x2()
    real = linalg.integer_kernel
    x_l = {0: 1}  # scales F2

    def r_kernel_with(extra):
        calls = []

        def patched(rows, ncols):
            out = real(rows, ncols)
            calls.append(out)
            return out + extra(out) if len(calls) == 1 else out
        return patched
    for extra, message in ((lambda r: [x_l], "does not annihilate"),
                           (lambda r: r[:1], "do not span")):
        with monkeypatch.context() as m:
            m.setattr(linalg, "integer_kernel", r_kernel_with(extra))
            with pytest.raises(InternalCheckError, match=message):
                stabilizer_and_tableau(f2, n, a)


def test_stabilizer_reports_a_dependent_complement_as_an_internal_error(monkeypatch):
    # the complement's images are not eliminated for independence, so a
    # dependent complement (the last vector replaced by the first, which keeps
    # the count) from the second integer_kernel must trip the check that
    # each complement vector is alone at its last column
    f2, n, a = segre_1x2()
    real = linalg.integer_kernel
    calls = []

    def patched(rows, ncols):
        out = real(rows, ncols)
        calls.append(out)
        return out[:-1] + out[:1] if len(calls) == 2 else out
    monkeypatch.setattr(linalg, "integer_kernel", patched)
    with pytest.raises(InternalCheckError, match="does not act injectively"):
        stabilizer_and_tableau(f2, n, a)


def test_stabilizer_reports_a_complement_off_r_perp_as_an_internal_error(monkeypatch):
    # a complement vector plus a vector of r has the same image and keeps the
    # count and the last columns, but the independence proof needs perp in
    # r^perp: the orthogonality check must trip
    f2, n, a = segre_1x2()
    real = linalg.integer_kernel
    calls = []

    def patched(rows, ncols):
        out = real(rows, ncols)
        calls.append(out)
        if len(calls) == 2:
            r = calls[0][0]
            moved = {c: out[0].get(c, 0) + r.get(c, 0) for c in out[0].keys() | r.keys()}
            last = {max(v) for v in out}
            assert max(moved) == max(out[0]) and not (moved.keys() & last) - {max(moved)}
            return [moved] + out[1:]
        return out
    monkeypatch.setattr(linalg, "integer_kernel", patched)
    with pytest.raises(InternalCheckError, match="not orthogonal"):
        stabilizer_and_tableau(f2, n, a)


def test_stabilizer_reports_a_dependent_kernel_as_an_internal_error(monkeypatch):
    # r with its last vector replaced by its first, and the complement's first
    # vector dropped to keep the count: every other check passes, but r no
    # longer spans ker phi and the images of the complement are dependent,
    # so r's last columns must show that r is
    f2, n, a = segre_1x2()
    real = linalg.integer_kernel
    calls = []

    def patched(rows, ncols):
        calls.append(None)
        if len(calls) == 1:
            out = real(rows, ncols)
            return out[:-1] + out[:1]
        return real(rows, ncols)[1:]
    monkeypatch.setattr(linalg, "integer_kernel", patched)
    with pytest.raises(InternalCheckError, match="stabilizer basis is linearly dependent"):
        stabilizer_and_tableau(f2, n, a)


def test_stabilizer_echelon_is_the_echelon_of_its_basis():
    # the echelon is read off the unit images; it must be the one the basis gives
    for f2, n, a in (segre_1x2(), segre_2x2(), quadric_5(), veronese_2(3)):
        for rng in (None, random.Random(1)):
            form = f2 if rng is None else dense_basis(f2, n, a, rng)
            t = stabilizer_and_tableau(form, n, a).tableau_r_perp
            assert t.echelon == linalg.echelon_rows(map(t.sparse, t.basis))


def test_stabilizer_eliminates_three_times(monkeypatch):
    # a work count: the kernel r, its complement and the tableau's echelon
    # basis, read off the unit images; picking an independent subset of the
    # images made it 4
    calls = []
    real = linalg._echelon

    def counted(rows):
        calls.append(len(rows))
        return real(rows)
    monkeypatch.setattr(linalg, "_echelon", counted)
    stabilizer_and_tableau(*segre_1x2())
    assert len(calls) == 3


def test_stabilizer_elimination_work_on_dense_segre(monkeypatch):
    # a work count, not a timing: the pivot entries the row step touches on
    # the seeded dense Seg(P2 x P2), 11,289 when the tableau's echelon was
    # eliminated from the dense images of the complement, 3,914 off the
    # sparse unit images
    touched = []
    real = linalg._eliminate

    def counted(row, piv, c):
        touched.append(len(piv))
        return real(row, piv, c)
    f2, n, a = segre_2x2()
    form = dense_basis(f2, n, a, random.Random(0))
    monkeypatch.setattr(linalg, "_eliminate", counted)
    stabilizer_and_tableau(form, n, a)
    assert sum(touched) <= 6_000


def test_stabilizer_bad_input():
    with pytest.raises(ValueError):
        stabilizer_and_tableau([[[Fraction(1)]]], 2, 1)
    with pytest.raises(ValueError):
        stabilizer_and_tableau(
            [[[Fraction(0), Fraction(1)], [Fraction(0), Fraction(0)]]], 2, 1)
    # a float, a string and a bool are refused, not read as a number
    for entry in (0.5, "1", True):
        with pytest.raises(ValueError, match="ints or Fractions"):
            stabilizer_and_tableau([[[entry, Fraction(1)], [Fraction(1), Fraction(0)]]], 2, 1)


def flat_bilinear(t, coeffs):
    B = prolongation_bilinear(t, coeffs)
    return [B[w][i][j] for w in range(t.dim_W)
            for i in range(t.dim_V) for j in range(t.dim_V)]


def test_reduced_prolongation_empty_image():
    t = cauchy_riemann_tableau()
    assert reduced_prolongation(t, [])[0] == prolongation_dim(t)


def test_reduced_prolongation_full_image():
    t = cauchy_riemann_tableau()
    flats = [flat_bilinear(t, c) for c in prolong(t)]
    dim, discarded = reduced_prolongation(t, flats)
    assert dim == 0 and discarded == 0


def test_reduced_prolongation_rank_one():
    t = full_tableau(2, 1)
    flats = [flat_bilinear(t, prolong(t)[0])]
    assert reduced_prolongation(t, flats)[0] == prolongation_dim(t) - 1


def test_reduced_prolongation_discarded_rank():
    # an image vector inside A (x) V* but outside ker delta
    t = full_tableau(2, 1)
    v = [Fraction(0)] * 4
    v[1] = Fraction(1)  # e_1 (x) v_2^*, not symmetric
    dim, discarded = reduced_prolongation(t, [v])
    assert discarded == 1
    assert dim == prolongation_dim(t)


def test_reduced_prolongation_outside_a():
    t = cauchy_riemann_tableau()
    bad = [Fraction(1)] + [Fraction(0)] * 7  # e_11 (x) v_1^*, not in A (x) V*
    with pytest.raises(ValueError, match="outside"):
        reduced_prolongation(t, [bad])
    with pytest.raises(ValueError, match="length"):
        reduced_prolongation(t, [[Fraction(0)] * 7])


# ---------- rank-nullity and the block-diagonal A (x) V* against references ----------

def greedy_coordinates(vectors):
    """(chosen, coords): a greedy maximal independent subset, and coordinates in it.

    Read off linalg.echelon_rows of the matrix whose k-th column is
    vectors[k], as repthy.construct_rep reads them: vector k is chosen iff
    column k is a pivot, and coords[k][i] is row i's entry at k over its
    pivot entry, so sum_i coords[k][i] vectors[chosen[i]] = vectors[k].
    """
    matrix = {}
    for k, v in enumerate(vectors):
        for r, x in (v.items() if isinstance(v, dict) else enumerate(v)):
            if x:
                matrix.setdefault(r, {})[k] = x
    reduced = [(min(row), row) for row in linalg.echelon_rows(matrix.values())]
    return ([c for c, _ in reduced],
            [[Fraction(row.get(k, 0), row[c]) for c, row in reduced] for k in range(len(vectors))])


@st.composite
def tableaux(draw):
    n = draw(st.integers(1, 4))
    w = draw(st.integers(1, 3))
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    mats = draw(st.lists(st.lists(st.lists(entry, min_size=n, max_size=n),
                                  min_size=w, max_size=w), max_size=5))
    keep = greedy_coordinates([[x for row in M for x in row] for M in mats])[0]
    return Tableau(n, w, [mats[i] for i in keep])


@settings(max_examples=60, deadline=None)
@given(tableaux())
def test_dimensions_by_rank_nullity_match_the_prolongation_basis(t):
    n, w = t.dim_V, t.dim_W
    dim_p = len(prolong(t))
    assert t.delta_rank == a_major_delta_rank(t)
    assert prolongation_dim(t) == dim_p
    assert torsion_quotient_dim(t) == w * n * (n - 1) // 2 - (n * t.dim - dim_p)


@settings(max_examples=60, deadline=None)
@given(tableaux())
def test_echelon_rows_are_a_primitive_echelon_basis_of_a(t):
    rows = t.echelon
    assert len(rows) == t.dim
    leads = [min(row) for row in rows]
    assert all(a < b for a, b in zip(leads, leads[1:]))
    for row in rows:
        assert all(type(x) is int and x for x in row.values())
        assert max(row) < t.dim_W * t.dim_V
        assert math.gcd(*row.values()) == 1
        assert row[min(row)] > 0
    # reduced: each row is zero at every other row's pivot
    for k, row in enumerate(rows):
        assert all(lead not in row for m, lead in enumerate(leads) if m != k)
    # the rows are independent (distinct leads), so they span A iff adding the
    # flattened basis leaves the rank at dim A
    assert linalg.rank(rows + [t.flatten(M) for M in t.basis]) == t.dim


def avstar_basis(t):
    """The (a, j0) basis of A (x) V* in flat (w, i, j) coordinates, a-major."""
    n, w = t.dim_V, t.dim_W
    out = []
    for M in t.basis:
        for j0 in range(n):
            vec = [Fraction(0)] * (w * n * n)
            for wi in range(w):
                for i in range(n):
                    vec[(wi * n + i) * n + j0] = M[wi][i]
            out.append(vec)
    return out


def reduced_prolongation_reference(t, image):
    """Coordinates over the whole A (x) V* system, then prolong and intersect.

    The intersection of span(prol) and span(coords) has dimension
    rank(prol) + rank(coords) - rank(prol + coords).
    """
    avstar = avstar_basis(t)
    chosen, coords = greedy_coordinates(avstar + image)
    if chosen != list(range(len(avstar))):
        raise ValueError("outside A (x) V*")
    coords = coords[len(avstar):]
    prol = prolong(t)
    inside = linalg.rank(prol) + linalg.rank(coords) - linalg.rank(prol + coords)
    return len(prol) - inside, linalg.rank(coords) - inside


@settings(max_examples=60, deadline=None)
@given(tableaux(), st.data())
def test_reduced_prolongation_matches_whole_system(t, data):
    n, w = t.dim_V, t.dim_W
    pool = [flat_bilinear(t, c) for c in prolong(t)] + avstar_basis(t)
    small = st.integers(-2, 2)
    image = []
    for _ in range(data.draw(st.integers(0, 3))):
        coeffs = data.draw(st.lists(small, min_size=len(pool), max_size=len(pool)))
        image.append([sum(c * v[k] for c, v in zip(coeffs, pool)) for k in range(w * n * n)])
    if data.draw(st.booleans()):
        # usually outside A (x) V*
        image.append(data.draw(st.lists(small, min_size=w * n * n, max_size=w * n * n)))
    try:
        want = reduced_prolongation_reference(t, image)
    except ValueError:
        with pytest.raises(ValueError, match="outside"):
            reduced_prolongation(t, image)
        return
    assert reduced_prolongation(t, image) == want


# ---------- a dense basis changes no invariant ----------

def mat_mul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def lu_unimodular(rng, n):
    """L U with unit-triangular L, U and off-diagonal entries in {-1, 0, 1}: det 1."""
    L = [[Fraction(1 if i == j else rng.randint(-1, 1) if i > j else 0) for j in range(n)]
         for i in range(n)]
    U = [[Fraction(1 if i == j else rng.randint(-1, 1) if i < j else 0) for j in range(n)]
         for i in range(n)]
    return mat_mul(L, U)


def dense_basis(f2, n, a, rng):
    """F2'[mu] = sum_nu Q[mu][nu] P^T F2[nu] P for unimodular P (on T) and Q (on N)."""
    P, Q = lu_unimodular(rng, n), lu_unimodular(rng, a)
    P_t = [list(col) for col in zip(*P)]
    conj = [mat_mul(mat_mul(P_t, M), P) for M in f2]
    return [[[sum(Q[mu][nu] * conj[nu][i][j] for nu in range(a)) for j in range(n)]
             for i in range(n)] for mu in range(a)]


def quadric_4():
    return [[[Fraction(int(i == j)) for j in range(4)] for i in range(4)]], 4, 1


def segre(p, q):
    """x_i y_j on T = C^p + C^q, N = C^p (x) C^q, in adapted coordinates: Seg(Pp x Pq)."""
    n = p + q
    return [[[Fraction(int({i, j} == {x, p + y})) for j in range(n)] for i in range(n)]
            for x in range(p) for y in range(q)], n, p * q


def segre_1x2():
    return segre(1, 2)


def tableau_invariants(f2, n, a):
    t = stabilizer_and_tableau(f2, n, a).tableau_r_perp
    prol = prolong(t)
    # the first half of the prolongation basis, and one element of A (x) V*
    # outside ker delta
    image = [flat_bilinear(t, c) for c in prol[:len(prol) // 2]] + avstar_basis(t)[:1]
    return (cartan_characters(t), prolongation_dim(t), torsion_quotient_dim(t),
            reduced_prolongation(t, image))


@pytest.mark.parametrize("case", [quadric_4, segre_1x2], ids=lambda c: c.__name__)
def test_dense_basis_keeps_tableau_invariants(case):
    f2, n, a = case()
    want = tableau_invariants(f2, n, a)
    for seed in range(3):
        rng = random.Random(seed)
        assert tableau_invariants(dense_basis(f2, n, a, rng), n, a) == want


def quadric_5():
    return [[[Fraction(int(i == j)) for j in range(5)] for i in range(5)]], 5, 1


@pytest.mark.parametrize("case", [quadric_4, quadric_5, segre_1x2], ids=lambda c: c.__name__)
def test_delta_rank_matches_a_major_delta_and_prolongation(case):
    f2, n, a = case()
    for seed in range(2):
        t = stabilizer_and_tableau(dense_basis(f2, n, a, random.Random(seed)), n, a).tableau_r_perp
        assert t.delta_rank == a_major_delta_rank(t)
        assert t.delta_rank == n * t.dim - len(prolong(t))


def a_major_delta_rank(t):
    """rank delta with _delta_matrix's own a-major columns, on the caller's basis."""
    user = [{k: x for k, x in enumerate(t.flatten(M)) if x} for M in t.basis]
    return linalg.rank(_delta_matrix(user, t.dim_V, t.dim_W))


@pytest.mark.parametrize("name", ["small", "quadric_5_dense", "segre_2x2_dense"])
def test_delta_rank_matches_a_major_delta_on_the_json_tableaux(name):
    with open(os.path.join(os.path.dirname(__file__), f"tableau_{name}.json")) as fh:
        t = tableau_from_json(fh.read())
    assert t.delta_rank == a_major_delta_rank(t)


def recombined(t, rng):
    """t rebuilt on a random unimodular recombination of its basis: the same A."""
    U = lu_unimodular(rng, t.dim)
    return Tableau(t.dim_V, t.dim_W,
                   [[[sum(u * M[w][i] for u, M in zip(row, t.basis)) for i in range(t.dim_V)]
                     for w in range(t.dim_W)] for row in U])


def span_invariants(t):
    return (cartan_characters(t), t.delta_rank, prolongation_dim(t), torsion_quotient_dim(t))


def test_invariants_depend_only_on_the_span():
    rng = random.Random(31)
    cases = [random_tableau(rng) for _ in range(20)]
    f2, n, a = segre_2x2()
    cases.append(stabilizer_and_tableau(dense_basis(f2, n, a, random.Random(0)), n, a)
                 .tableau_r_perp)
    for t in cases:
        want = span_invariants(t)
        for _ in range(2):
            other = recombined(t, rng)
            assert other.echelon == t.echelon
            assert span_invariants(other) == want


# ---------- the flag sweep against the full lexicographic-minimum sweep ----------

# the flag family Cartan's test once swept: the first 24 coordinate flags
# (permutations of the standard basis), then the seeded random flags
OLD_COORDINATE_FLAGS = 24


def candidate_flags(n, seed):
    """The old family: coordinate flags up to 24, then the seeded invertible random flags."""
    flags = [[[int(i == j) for i in range(n)] for j in perm]
             for perm in itertools.islice(itertools.permutations(range(n)),
                                          OLD_COORDINATE_FLAGS)]
    rng = random.Random(seed)
    for _ in range(RANDOM_FLAG_COUNT):
        flag = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        if linalg.rank(flag) == n:
            flags.append(flag)
    return flags


def flag_dims(t, flags):
    """For each flag, dim A_j = dim A - rank of M -> (M f_1, ..., M f_j), j = 1..n-1.

    The rank of the first j column blocks is the number of pivots in them.
    Each basis matrix is scaled to integers first, which keeps its line.
    """
    n, w = t.dim_V, t.dim_W
    ints = []
    for M in t.basis:
        den = math.lcm(*(x.denominator for row in M for x in row))
        ints.append([[x.numerator * (den // x.denominator) for x in row] for row in M])
    out = []
    for flag in flags:
        pivots = linalg.pivot_columns([[sum(M[r][i] * f[i] for i in range(n))
                                        for f in flag[:-1] for r in range(w)]
                                       for M in ints])
        out.append([t.dim - sum(1 for c in pivots if c < j * w) for j in range(1, n)])
    return out


def full_sweep_characters(t, seed):
    """Every candidate flag evaluated from scratch; the lexicographic minimum wins."""
    return [t.dim] + min(flag_dims(t, candidate_flags(t.dim_V, seed)))


@settings(max_examples=60, deadline=None)
@given(tableaux())
def test_sweep_matches_the_full_sweep(t):
    for seed in (FLAG_SEED, 1):
        assert cartan_characters(t, seed) == full_sweep_characters(t, seed)


def test_sweep_matches_the_full_sweep_on_both_kinds():
    kinds = set()
    for seed in (FLAG_SEED, 1):
        rng = random.Random(seed)
        for _ in range(40):
            t = random_tableau(rng)
            chars = cartan_characters(t, seed)
            assert chars == full_sweep_characters(t, seed)
            kinds.add(prolongation_dim(t) == sum(chars))
    assert kinds == {True, False}


def veronese_2(m):
    """x_i x_j on T = C^m, N = S^2 C^m, in adapted coordinates: v2(Pm)."""
    pairs = [(p, q) for p in range(m) for q in range(p, m)]
    return [[[Fraction(int({i, j} == {p, q})) for j in range(m)] for i in range(m)]
            for p, q in pairs], m, len(pairs)


@pytest.mark.parametrize("case", [(segre, 1, 3), (segre, 2, 3), (veronese_2, 3)],
                         ids=["segre_1x3", "segre_2x3", "veronese_2_3"])
def test_sweep_matches_the_full_sweep_on_adapted_coordinates(case):
    # second fundamental forms in adapted coordinates, where coordinate flags
    # are the natural candidates: the standard flag and the random flags
    # find what the old family found
    f2, n, a = case[0](*case[1:])
    t = stabilizer_and_tableau(f2, n, a).tableau_r_perp
    for seed in (FLAG_SEED, 1):
        assert cartan_characters(t, seed) == full_sweep_characters(t, seed)


def segre_2x2():
    """Seg(P2 x P2): x_i y_j on T = C^2 + C^2, N = C^2 (x) C^2."""
    return segre(2, 2)


def test_segre_2x2_needs_the_random_flags():
    t = stabilizer_and_tableau(*segre_2x2()).tableau_r_perp
    dims = flag_dims(t, candidate_flags(4, FLAG_SEED))
    assert min(dims[:OLD_COORDINATE_FLAGS]) == [12, 4, 0]
    assert cartan_characters(t) == [24] + min(dims) == [24, 9, 1, 0]
    # not involutive, so the sweep runs to the end
    assert prolongation_dim(t) < 24 + 9 + 1


def dense_tableau(name):
    path = os.path.join(os.path.dirname(__file__), f"tableau_{name}_dense.json")
    with open(path) as fh:
        return tableau_from_json(fh.read())


def eliminations(t, monkeypatch):
    """is_involutive(t), and (map rows?, nonzeros) for each matrix it eliminates."""
    calls = []
    real = linalg.pivot_columns

    def counted(rows):
        calls.append((all(isinstance(row, dict) for row in rows),
                      sum(1 for row in rows
                          for x in (row.values() if isinstance(row, dict) else row) if x)))
        return real(rows)
    with monkeypatch.context() as m:
        m.setattr(linalg, "pivot_columns", counted)
        report = is_involutive(t)
    return report, calls


def test_flag_search_work_on_dense_segre(monkeypatch):
    # a work count, not a timing: the nonzeros of every matrix Cartan's test
    # hands to the elimination core on the seeded dense Seg(P2 x P2), which
    # were 27,277 when the flags and delta ran on the dense basis, 20,482 on
    # a plain echelon basis, 9,053 on the reduced echelon basis with 24
    # coordinate flags before the random ones, and 7,631 with the standard flag
    f2, n, a = segre_2x2()
    t = stabilizer_and_tableau(dense_basis(f2, n, a, random.Random(0)), n, a).tableau_r_perp
    report, calls = eliminations(t, monkeypatch)
    assert not report.involutive
    # delta once, each random draw (all invertible) ranked once as a dense
    # flag, and the standard flag and each random flag eliminated once
    assert [sparse for sparse, _ in calls].count(False) == RANDOM_FLAG_COUNT
    assert len(calls) == 1 + RANDOM_FLAG_COUNT + 1 + RANDOM_FLAG_COUNT
    assert sum(nonzeros for _, nonzeros in calls) <= 8_000


def test_involutive_sweep_stops_at_the_standard_flag(monkeypatch):
    # the standard flag attains Cartan's equality: delta and that flag are
    # eliminated, and no random flag is drawn
    t = dense_tableau("quadric_5")
    report, calls = eliminations(t, monkeypatch)
    assert report.involutive
    assert [sparse for sparse, _ in calls] == [True, True]
    assert report.characters == full_sweep_characters(t, FLAG_SEED)


def test_tableau_from_json_budget_is_on_both_sides_of_delta():
    # delta has dim W C(dim V, 2) rows and dim A dim V columns
    assert tableau_from_json({"dim_V": 5, "dim_W": 1000, "basis": []}).dim == 0
    with pytest.raises(ValueError, match="DELTA_SIDE_MAX"):
        tableau_from_json({"dim_V": 5, "dim_W": 1001, "basis": []})
    # dim A = DELTA_SIDE_MAX passes the budget, then fails the independence check
    with pytest.raises(ValueError, match="dependent"):
        tableau_from_json({"dim_V": 1, "dim_W": 1, "basis": [["1"]] * DELTA_SIDE_MAX})
    with pytest.raises(ValueError, match="DELTA_SIDE_MAX"):
        tableau_from_json({"dim_V": 1, "dim_W": 1, "basis": [["1"]] * (DELTA_SIDE_MAX + 1)})


def test_json_round_trip():
    t = cauchy_riemann_tableau()
    doc = tableau_to_json(t)
    t2 = tableau_from_json(json.dumps(doc))
    assert t2.dim_V == t.dim_V and t2.dim_W == t.dim_W
    assert [t2.flatten(M) for M in t2.basis] == [t.flatten(M) for M in t.basis]


@pytest.mark.parametrize("entry", [True, False])
def test_tableau_from_json_rejects_booleans(entry):
    with pytest.raises(ValueError, match="malformed rational"):
        tableau_from_json({"dim_V": 2, "dim_W": 1, "basis": [[entry, "0"]]})


@pytest.mark.parametrize("key", ["dim_V", "dim_W", "basis"])
def test_tableau_from_json_names_a_missing_key(key):
    doc = tableau_to_json(cauchy_riemann_tableau())
    del doc[key]
    with pytest.raises(ValueError, match=f"no '{key}'"):
        tableau_from_json(doc)


def test_cartan_inequality_check_survives_optimize():
    # dim A^(1) above the sum of the characters must raise even under
    # python -O, which strips asserts
    script = """
from liecoh import tableau
from liecoh.errors import InternalCheckError
tableau.prolongation_dim = lambda t: 100
try:
    print(tableau.is_involutive(tableau.full_tableau(3, 2)))
except InternalCheckError:
    print("InternalCheckError")
"""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    out = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src}, check=True)
    assert out.stdout.strip() == "InternalCheckError"
