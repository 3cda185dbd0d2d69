import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liecoh import linalg
from liecoh.repthy import (IrrComponent, commutator, construct_rep,
                           gperp_decompose, root_vector_matrices,
                           structure_constants, tensor_decompose,
                           weight_multiplicities)
from liecoh.rootsys import parse_type


def test_sl2_string():
    rs = parse_type("A1")
    ws = weight_multiplicities(rs, (3,))
    assert ws == {(3,): 1, (1,): 1, (-1,): 1, (-3,): 1}


def test_trivial_weight_system():
    rs = parse_type("A2")
    assert weight_multiplicities(rs, (0, 0)) == {(0, 0): 1}


def test_a2_adjoint_weights():
    rs = parse_type("A2")
    ws = weight_multiplicities(rs, (1, 1))
    assert ws[(0, 0)] == 2
    assert sum(ws.values()) == 8
    assert sum(1 for m in ws.values() if m == 1) == 6


def test_weight_system_weyl_symmetry():
    rs = parse_type("C2")
    ws = weight_multiplicities(rs, (1, 1))
    for w, m in ws.items():
        for i in range(rs.rank):
            assert ws[rs.reflect(i, w)] == m


def test_clebsch_gordan():
    rs = parse_type("A1")
    comps = tensor_decompose(rs, (1,), (1,))
    assert {(c.highest_weight, c.multiplicity) for c in comps} == \
        {((2,), 1), ((0,), 1)}


def test_tensor_with_trivial():
    rs = parse_type("G2")
    comps = tensor_decompose(rs, (1, 0), (0, 0))
    assert comps == [IrrComponent((1, 0), 1)]


def test_a2_adjoint_square():
    rs = parse_type("A2")
    comps = tensor_decompose(rs, (1, 1), (1, 1))
    got = {(c.highest_weight, c.multiplicity) for c in comps}
    assert got == {((2, 2), 1), ((3, 0), 1), ((0, 3), 1), ((1, 1), 2), ((0, 0), 1)}
    assert sum(c.multiplicity * rs.weyl_dim(c.highest_weight) for c in comps) == 64


def test_gperp_defining_sl2():
    rs = parse_type("A1")
    assert gperp_decompose(rs, (1,)) == []


def test_gperp_veronese():
    rs = parse_type("A1")
    comps = gperp_decompose(rs, (2,))
    assert comps == [IrrComponent((4,), 1)]


def test_gperp_a2_adjoint():
    rs = parse_type("A2")
    comps = gperp_decompose(rs, (1, 1))
    got = {(c.highest_weight, c.multiplicity) for c in comps}
    assert got == {((2, 2), 1), ((3, 0), 1), ((0, 3), 1), ((1, 1), 1)}
    total = sum(c.multiplicity * rs.weyl_dim(c.highest_weight) for c in comps)
    assert total == 8 * 8 - 1 - 8


def test_gperp_dimension_bookkeeping():
    cases = [("A1", (4,)), ("A2", (1, 0)), ("A1,A1", (1, 1)), ("C2", (0, 1)),
             ("A3", (0, 1, 0))]
    for name, lam in cases:
        rs = parse_type(name)
        comps = gperp_decompose(rs, lam)
        n = rs.weyl_dim(lam)
        total = sum(c.multiplicity * rs.weyl_dim(c.highest_weight) for c in comps)
        assert total == n * n - 1 - rs.dim_g()


def test_gperp_rejects_unfaithful_product_weight():
    rs = parse_type("A1,A1")
    with pytest.raises(ValueError):
        gperp_decompose(rs, (1, 0))  # second factor acts trivially


def test_construct_rep_bound():
    rs = parse_type("A2")
    with pytest.raises(ValueError):
        construct_rep(rs, (2, 2), bound=20)


@pytest.mark.parametrize("lam", [(0, 1, 0, 1, 0), (0, 1, 0)])
def test_construct_rep_rejects_a_weight_of_the_wrong_length(lam):
    # the weight walk once failed here with a bare KeyError or IndexError
    with pytest.raises(ValueError, match="the rank is 4"):
        construct_rep(parse_type("A4"), lam, bound=None)


@pytest.mark.parametrize("lam", [(0, 1, 0, 1, 0), (0, 1, 0)])
def test_weyl_dim_rejects_a_weight_of_the_wrong_length(lam):
    # zip once truncated the weight: weyl_dim((0, 1, 0)) on A4 read 10, and
    # construct_rep refused (0, 1, 0, 1, 0) as dim 45 over the default bound
    rs = parse_type("A4")
    with pytest.raises(ValueError, match="the rank is 4"):
        rs.weyl_dim(lam)
    with pytest.raises(ValueError, match="the rank is 4"):
        construct_rep(rs, lam)


REP_CASES = [("A1", (1,)), ("A1", (2,)), ("A1", (6,)), ("A2", (1, 0)),
             ("A2", (1, 1)), ("A2", (2, 2)), ("C2", (2, 0)), ("G2", (1, 0)),
             ("A1,A1", (2, 2)), ("A3", (0, 1, 0)), ("B3", (0, 1, 0)),
             ("D4", (0, 1, 0, 0))]


def scaled(c, M):
    """c * M as a map of nonzeros."""
    return {k: c * x for k, x in M.items()} if c else {}


@pytest.mark.parametrize("name,lam", REP_CASES)
def test_rep_chevalley_relations(name, lam):
    rs = parse_type(name)
    rep = construct_rep(rs, lam, bound=None)
    assert rep.dimension == rs.weyl_dim(lam)
    for i in range(rs.rank):
        for j in range(rs.rank):
            assert commutator(rep.e[i], rep.f[j]) == (rep.h[i] if i == j else {})
            assert commutator(rep.h[i], rep.e[j]) == scaled(rs.cartan[i][j], rep.e[j])
            assert commutator(rep.h[i], rep.f[j]) == scaled(-rs.cartan[i][j], rep.f[j])


def test_rep_weights_match_freudenthal():
    rs = parse_type("A2")
    rep = construct_rep(rs, (1, 1))
    ws = weight_multiplicities(rs, (1, 1))
    seen = {}
    for w in rep.basis_weights:
        seen[w] = seen.get(w, 0) + 1
    assert seen == ws


def test_standard_rep_is_elementary():
    rs = parse_type("A2")
    rep = construct_rep(rs, (1, 0))
    # 3-dim; e_1, e_2 each have a single nonzero entry equal to 1
    for i in range(2):
        assert list(rep.e[i].values()) == [1]


def test_root_vectors_span_the_lower_borel():
    # one f_alpha per positive root, independent of each other and of the
    # h_i: together they span b_-, of dimension (dim g + rank) / 2
    for name in ["A2", "C2", "G2", "B3"]:
        rs = parse_type(name)
        rep = construct_rep(rs, {"A2": (1, 0), "C2": (1, 0), "G2": (1, 0),
                                 "B3": (1, 0, 0)}[name], bound=None)
        fmat = root_vector_matrices(rep)
        assert sorted(fmat) == sorted(r.coords for r in rs.positive_roots)
        n = rep.dimension
        flat = [[M.get((r, c), 0) for r in range(n) for c in range(n)]
                for M in list(fmat.values()) + rep.h]
        assert linalg.rank(flat) == (rs.dim_g() + rs.rank) // 2


def test_structure_constants_consistency():
    # brackets computed in the companion match brackets of the same
    # bracket-path matrices in any other faithful module
    rs = parse_type("G2")
    roots = [r.coords for r in rs.positive_roots]
    table = structure_constants(rs, roots)
    rep = construct_rep(rs, (0, 1), bound=None)  # adjoint, 14-dim
    fmat = root_vector_matrices(rep)
    index = {r: k for k, r in enumerate(roots)}
    for (a, b), expansion in table.items():
        got = commutator(fmat[roots[a]], fmat[roots[b]])
        want = {}
        for c, coeff in expansion.items():
            for k, x in fmat[roots[c]].items():
                want[k] = want.get(k, 0) + coeff * x
        assert got == {k: x for k, x in want.items() if x}, (roots[a], roots[b])


def _dense(M, n):
    return [[M.get((r, c), 0) for c in range(n)] for r in range(n)]


_sparse_matrices = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)),
    st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool),
    max_size=12)


@settings(max_examples=200, deadline=None)
@given(_sparse_matrices, _sparse_matrices)
def test_commutator_equals_dense_and_stores_no_zeros(A, B):
    # structure_constants compares brackets as maps, which needs this contract
    n = 5
    dA, dB = _dense(A, n), _dense(B, n)
    dense = [[sum(dA[i][k] * dB[k][j] - dB[i][k] * dA[k][j] for k in range(n))
              for j in range(n)] for i in range(n)]
    got = commutator(A, B)
    assert all(got.values())
    assert _dense(got, n) == dense


def test_structure_constants_cross_factor_vanish():
    rs = parse_type("A1,A1")
    roots = [r.coords for r in rs.positive_roots]
    table = structure_constants(rs, roots)
    assert all(not v for v in table.values())


def test_weight_multiplicity_check_survives_optimize():
    # a Weyl dimension that disagrees with Freudenthal must raise even under
    # python -O, which strips asserts
    script = """
from liecoh.cohomology import InternalCheckError
from liecoh.repthy import weight_multiplicities
from liecoh.rootsys import parse_type
rs = parse_type("A2")
rs.weyl_dim = lambda weight: 4
try:
    print(weight_multiplicities(rs, (1, 0)))
except InternalCheckError:
    print("InternalCheckError")
"""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    out = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src}, check=True)
    assert out.stdout.strip() == "InternalCheckError"
