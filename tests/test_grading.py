from fractions import Fraction
from types import SimpleNamespace

import pytest

from liecoh.errors import InternalCheckError
from liecoh.grading import (GradingElementValue, ParabolicMarking, algebra_depth,
                            grade_algebra, grade_module)
from liecoh.rootsys import parse_type

ALL_SIMPLE_RANK6 = (["A%d" % n for n in range(1, 7)]
                    + ["B%d" % n for n in range(2, 7)]
                    + ["C%d" % n for n in range(2, 7)]
                    + ["D%d" % n for n in range(3, 7)]
                    + ["E6", "F4", "G2"])


def test_marking_validation():
    rs = parse_type("A2")
    with pytest.raises(ValueError, match="non-empty"):
        ParabolicMarking(rs, set())
    with pytest.raises(ValueError, match="1-based"):
        ParabolicMarking(rs, {0})
    with pytest.raises(ValueError, match="out of range for rank 2"):
        ParabolicMarking(rs, {9})


def test_marking_refuses_nodes_that_are_not_integers():
    # none is a set of node numbers, though int() reads them as {1}, {1, 2}, {1}
    rs = parse_type("A2")
    for marked in ({1.7}, "12", {True}):
        with pytest.raises(ValueError, match="must be an integer"):
            ParabolicMarking(rs, marked)


def test_grading_element_a1():
    rs = parse_type("A1")
    z = ParabolicMarking(rs, {1}).z
    for m in range(-4, 5):
        assert z((m,)) == Fraction(m, 2)


def test_grading_element_a2_p1():
    rs = parse_type("A2")
    z = ParabolicMarking(rs, {1}).z
    assert z((1, 0)) == Fraction(2, 3)
    assert z((0, 1)) == Fraction(1, 3)


def test_grading_element_delta_property():
    for name in ["A3", "B3", "C3", "G2", "F4", "A1,A2"]:
        rs = parse_type(name)
        for node in range(1, rs.rank + 1):
            z = ParabolicMarking(rs, {node}).z
            for j in range(rs.rank):
                alpha = rs.fund_coords_of_root(
                    tuple(int(k == j) for k in range(rs.rank)))
                assert z(alpha) == (1 if j + 1 == node else 0)


def test_grade_algebra_examples():
    assert grade_algebra(ParabolicMarking(parse_type("A1"), {1})) == {-1: 1, 0: 1, 1: 1}
    g = grade_algebra(ParabolicMarking(parse_type("A2"), {1, 2}))
    assert g == {-2: 1, -1: 2, 0: 2, 1: 2, 2: 1}
    g = grade_algebra(ParabolicMarking(parse_type("A3"), {2}))
    assert g == {-1: 4, 0: 7, 1: 4}


def test_grade_module_examples():
    gm = grade_module(ParabolicMarking(parse_type("A1"), {1}), (2,))
    assert gm == {-2: 1, -1: 1, 0: 1}
    gm = grade_module(ParabolicMarking(parse_type("A3"), {2}), (0, 1, 0))
    assert gm == {-2: 1, -1: 4, 0: 1}
    gm = grade_module(ParabolicMarking(parse_type("G2"), {1}), (0, 0))
    assert gm == {0: 1}


def test_grade_module_rejects_bad_degrees():
    marking = ParabolicMarking(parse_type("A1"), {1})
    z = marking.z  # Z(w) = w / 2
    # grade_module reads rs, marked and z; a stand-in carries a broken Z.
    # Z halved: the weight 0 of V(2) sits half a degree below the top
    halved = SimpleNamespace(rs=marking.rs, marked=marking.marked,
                             z=GradingElementValue(z.row, 2 * z.den))
    with pytest.raises(InternalCheckError, match=r"\(0,\) of V\(2,\) has module degree -1/2$"):
        grade_module(halved, (2,))
    # Z negated: the weight 0 of V(2) sits one degree above the top
    negated = SimpleNamespace(rs=marking.rs, marked=marking.marked,
                              z=GradingElementValue(tuple(-x for x in z.row), z.den))
    with pytest.raises(InternalCheckError, match=r"\(0,\) of V\(2,\) has module degree 1$"):
        grade_module(negated, (2,))


def test_marking_is_read_only():
    # its fields are checked against each other once, when it is built
    marking = ParabolicMarking(parse_type("A3"), {2})
    with pytest.raises(AttributeError, match="read-only"):
        marking.unmarked = ()
    with pytest.raises(AttributeError, match="read-only"):
        marking.z = GradingElementValue((0, 0, 0), 1)
    with pytest.raises(AttributeError, match="read-only"):
        del marking.levi_roots
    assert marking.unmarked == (0, 2) and len(marking.levi_roots) == 2


@pytest.mark.parametrize("name", ALL_SIMPLE_RANK6)
def test_grading_properties_every_single_node(name):
    rs = parse_type(name)
    theta = rs.highest_root_per_factor[0]
    for node in range(1, rs.rank + 1):
        marking = ParabolicMarking(rs, {node})
        g = grade_algebra(marking)
        assert sum(g.values()) == rs.dim_g()
        assert all(g[d] == g[-d] for d in g)
        k = algebra_depth(marking)
        assert k == theta[node - 1]
        assert max(g) == k
        assert set(g) == set(range(-k, k + 1))


def test_module_grading_total_and_contiguity():
    cases = [("A2", {1, 2}, (1, 1)), ("C2", {1}, (2, 0)), ("G2", {2}, (0, 1)),
             ("A1,A1", {1, 2}, (1, 1)), ("A3", {1, 3}, (1, 0, 1))]
    for name, marked, lam in cases:
        rs = parse_type(name)
        gm = grade_module(ParabolicMarking(rs, marked), lam)
        assert sum(gm.values()) == rs.weyl_dim(lam)
        assert gm[0] == 1
        f = -min(gm)
        assert set(gm) == set(range(-f, 1))


def test_product_grading_element_is_sum():
    rs = parse_type("A1,A1")
    z12 = ParabolicMarking(rs, {1, 2}).z
    z1 = ParabolicMarking(rs, {1}).z
    z2 = ParabolicMarking(rs, {2}).z
    for w in [(1, 1), (3, -2), (0, 5)]:
        assert z12(w) == z1(w) + z2(w)


def test_adjoint_module_grading_matches_algebra_grading():
    # for U = g the shifted module grading is the algebra grading read downward
    rs = parse_type("A2")
    marking = ParabolicMarking(rs, {1, 2})
    ga = grade_algebra(marking)
    gm = grade_module(marking, (1, 1))
    k = algebra_depth(marking)
    assert gm == {d - k: n for d, n in ga.items()}
