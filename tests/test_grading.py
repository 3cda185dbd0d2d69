from fractions import Fraction

import pytest

from liecoh import grading
from liecoh.errors import InternalCheckError
from liecoh.grading import (GradingElementValue, ParabolicMarking, algebra_depth,
                            grade_algebra, grade_module, grading_element)
from liecoh.rootsys import parse_type

ALL_SIMPLE_RANK6 = (["A%d" % n for n in range(1, 7)]
                    + ["B%d" % n for n in range(2, 7)]
                    + ["C%d" % n for n in range(2, 7)]
                    + ["D%d" % n for n in range(3, 7)]
                    + ["E6", "F4", "G2"])


def test_marking_validation():
    with pytest.raises(ValueError):
        ParabolicMarking(set())
    with pytest.raises(ValueError):
        ParabolicMarking({0})
    rs = parse_type("A2")
    with pytest.raises(ValueError):
        ParabolicMarking({5}).validate(rs)


def test_grading_element_a1():
    rs = parse_type("A1")
    z = grading_element(rs, ParabolicMarking({1}))
    for m in range(-4, 5):
        assert z((m,)) == Fraction(m, 2)


def test_grading_element_a2_p1():
    rs = parse_type("A2")
    z = grading_element(rs, ParabolicMarking({1}))
    assert z((1, 0)) == Fraction(2, 3)
    assert z((0, 1)) == Fraction(1, 3)


def test_grading_element_delta_property():
    for name in ["A3", "B3", "C3", "G2", "F4", "A1,A2"]:
        rs = parse_type(name)
        for node in range(1, rs.rank + 1):
            z = grading_element(rs, ParabolicMarking({node}))
            for j in range(rs.rank):
                alpha = rs.fund_coords_of_root(
                    tuple(int(k == j) for k in range(rs.rank)))
                assert z(alpha) == (1 if j + 1 == node else 0)


def test_grade_algebra_examples():
    assert grade_algebra(parse_type("A1"), ParabolicMarking({1})).dims == \
        {-1: 1, 0: 1, 1: 1}
    g = grade_algebra(parse_type("A2"), ParabolicMarking({1, 2}))
    assert g.dims == {-2: 1, -1: 2, 0: 2, 1: 2, 2: 1}
    g = grade_algebra(parse_type("A3"), ParabolicMarking({2}))
    assert g.dims == {-1: 4, 0: 7, 1: 4}


def test_grade_module_examples():
    gm = grade_module(parse_type("A1"), ParabolicMarking({1}), (2,))
    assert gm.dims == {-2: 1, -1: 1, 0: 1}
    gm = grade_module(parse_type("A3"), ParabolicMarking({2}), (0, 1, 0))
    assert gm.dims == {-2: 1, -1: 4, 0: 1}
    gm = grade_module(parse_type("G2"), ParabolicMarking({1}), (0, 0))
    assert gm.dims == {0: 1}


def test_grade_module_rejects_bad_degrees(monkeypatch):
    rs, marking = parse_type("A1"), ParabolicMarking({1})
    z = grading_element(rs, marking)  # Z(w) = w / 2
    # Z halved: the weight 0 of V(2) sits half a degree below the top
    monkeypatch.setattr(grading, "grading_element",
                        lambda *_: GradingElementValue(z.row, 2 * z.den))
    with pytest.raises(InternalCheckError, match=r"\(0,\) of V\(2,\) has module degree -1/2$"):
        grade_module(rs, marking, (2,))
    # Z negated: the weight 0 of V(2) sits one degree above the top
    monkeypatch.setattr(grading, "grading_element",
                        lambda *_: GradingElementValue(tuple(-x for x in z.row), z.den))
    with pytest.raises(InternalCheckError, match=r"\(0,\) of V\(2,\) has module degree 1$"):
        grade_module(rs, marking, (2,))


@pytest.mark.parametrize("name", ALL_SIMPLE_RANK6)
def test_grading_properties_every_single_node(name):
    rs = parse_type(name)
    theta = rs.highest_root_per_factor[0]
    for node in range(1, rs.rank + 1):
        marking = ParabolicMarking({node})
        g = grade_algebra(rs, marking)
        assert sum(g.dims.values()) == rs.dim_g()
        assert all(g.dims[d] == g.dims[-d] for d in g.dims)
        k = algebra_depth(rs, marking)
        assert k == theta[node - 1]
        assert max(g.dims) == k
        assert set(g.dims) == set(range(-k, k + 1))


def test_module_grading_total_and_contiguity():
    cases = [("A2", {1, 2}, (1, 1)), ("C2", {1}, (2, 0)), ("G2", {2}, (0, 1)),
             ("A1,A1", {1, 2}, (1, 1)), ("A3", {1, 3}, (1, 0, 1))]
    for name, marked, lam in cases:
        rs = parse_type(name)
        gm = grade_module(rs, ParabolicMarking(marked), lam)
        assert sum(gm.dims.values()) == rs.weyl_dim(lam)
        assert gm.dims[0] == 1
        f = -min(gm.dims)
        assert set(gm.dims) == set(range(-f, 1))


def test_product_grading_element_is_sum():
    rs = parse_type("A1,A1")
    z12 = grading_element(rs, ParabolicMarking({1, 2}))
    z1 = grading_element(rs, ParabolicMarking({1}))
    z2 = grading_element(rs, ParabolicMarking({2}))
    for w in [(1, 1), (3, -2), (0, 5)]:
        assert z12(w) == z1(w) + z2(w)


def test_adjoint_module_grading_matches_algebra_grading():
    # for U = g the shifted module grading is the algebra grading read downward
    rs = parse_type("A2")
    marking = ParabolicMarking({1, 2})
    ga = grade_algebra(rs, marking)
    gm = grade_module(rs, marking, (1, 1))
    k = algebra_depth(rs, marking)
    assert gm.dims == {d - k: n for d, n in ga.dims.items()}
