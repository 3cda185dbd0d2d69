import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from liecoh import linalg
from liecoh.tableau import (Tableau, cartan_characters, cauchy_riemann_tableau,
                            full_tableau, is_involutive, prolong,
                            prolongation_bilinear, prolongation_dim,
                            reduced_prolongation, reduced_prolongation_dim,
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
            assert linalg.solve_in_span(flat_a, slice_j) is not None


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


def test_stabilizer_bad_input():
    with pytest.raises(ValueError):
        stabilizer_and_tableau([[[Fraction(1)]]], 2, 1)
    with pytest.raises(ValueError):
        stabilizer_and_tableau(
            [[[Fraction(0), Fraction(1)], [Fraction(0), Fraction(0)]]], 2, 1)


def flat_bilinear(t, coeffs):
    B = prolongation_bilinear(t, coeffs)
    return [B[w][i][j] for w in range(t.dim_W)
            for i in range(t.dim_V) for j in range(t.dim_V)]


def test_reduced_prolongation_empty_image():
    t = cauchy_riemann_tableau()
    assert reduced_prolongation_dim(t, []) == prolongation_dim(t)


def test_reduced_prolongation_full_image():
    t = cauchy_riemann_tableau()
    flats = [flat_bilinear(t, c) for c in prolong(t)]
    dim, discarded = reduced_prolongation(t, flats)
    assert dim == 0 and discarded == 0


def test_reduced_prolongation_rank_one():
    t = full_tableau(2, 1)
    flats = [flat_bilinear(t, prolong(t)[0])]
    assert reduced_prolongation_dim(t, flats) == prolongation_dim(t) - 1


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
    with pytest.raises(ValueError):
        reduced_prolongation_dim(t, [bad])


def test_json_round_trip():
    t = cauchy_riemann_tableau()
    doc = tableau_to_json(t)
    t2 = tableau_from_json(json.dumps(doc))
    assert t2.dim_V == t.dim_V and t2.dim_W == t.dim_W
    assert [t2.flatten(M) for M in t2.basis] == [t.flatten(M) for M in t.basis]


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
