import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liecoh import rootsys
from liecoh.cohomology import levi_weyl_dim
from liecoh.errors import InternalCheckError
from liecoh.grading import ParabolicMarking
from liecoh.repthy import weight_system
from liecoh.rootsys import (ROOTS_MAX, RootSystem, SimpleFactor, build, parse_type,
                            positive_root_count)

POSITIVE_ROOT_COUNTS = {
    "A1": 1, "A2": 3, "A5": 15, "B2": 4, "B4": 16, "C3": 9, "D4": 12,
    "D6": 30, "E6": 36, "E7": 63, "E8": 120, "F4": 24, "G2": 6,
}


def test_invalid_factors():
    # a family must be one of the seven letters, a rank an int and not a bool
    for family, rank in [("E", 5), ("F", 3), ("G", 3), ("B", 1), ("D", 2), ("Z", 2),
                         ("BC", 2), ("", 3), ("A", 2.0), ("A", True), ("A", "2")]:
        with pytest.raises(ValueError):
            SimpleFactor(family, rank)


def test_build_looks_up_each_node_factor_once(monkeypatch):
    # a work count, not a timing: the root walk reads a node -> factor list
    calls = []
    real = RootSystem.factor_of_node
    monkeypatch.setattr(RootSystem, "factor_of_node",
                        lambda self, i: calls.append(i) or real(self, i))
    for factors in ([("E", 8)], [("A", 2), ("G", 2)], [("A", 1), ("B", 3), ("D", 4)]):
        calls.clear()
        rs = RootSystem(factors)  # private: parse_type may return a built one
        assert len(calls) <= rs.rank


def test_build_shares_one_root_system_per_type():
    assert build([("E", 8)]) is build([SimpleFactor("E", 8)])
    assert build((("A", 1), ("A", 1))) is parse_type("A1xA1") is parse_type("a1,A1")
    assert parse_type("A1xA2") is not parse_type("A2xA1")
    # RootSystem(...) stays a private instance
    assert RootSystem([("A", 2)]) is not parse_type("A2")
    assert RootSystem([("A", 2)]) is not RootSystem([("A", 2)])


def test_a_refused_build_leaves_the_memo_as_it_was():
    rs = parse_type("B3")
    for bad in ([("B", 1)], [("A", 2), ("Z", 2)], [], [("A", 200)]):
        with pytest.raises(ValueError):
            build(bad)
    for bad in ("B1", "A2xZ2", "A200"):
        with pytest.raises(ValueError):
            parse_type(bad)
    assert parse_type("B3") is rs and len(rs.positive_roots) == 9
    assert len(parse_type("A2,A3").positive_roots) == 9


@pytest.mark.parametrize("family,low,high", [("A", 1, 9), ("B", 2, 9), ("C", 2, 9),
                                              ("D", 3, 9), ("E", 6, 8), ("F", 4, 4),
                                              ("G", 2, 2)])
def test_positive_root_count_read_off_the_type(family, low, high):
    for n in range(low, high + 1):
        factor = SimpleFactor(family, n)
        assert positive_root_count(factor) == len(RootSystem([factor]).positive_roots)


def test_root_budget_counts_every_factor_before_any_root_is_walked(monkeypatch):
    assert positive_root_count(SimpleFactor("A", 100)) == ROOTS_MAX
    monkeypatch.setattr(RootSystem, "_block_cartan",
                        lambda self: pytest.fail("walked an over-budget type"))
    # A71 alone has 2,556 positive roots, A71xA71 5,112
    with pytest.raises(ValueError, match="A71xA71 has 5112 positive roots, over the "
                                         "root-system budget ROOTS_MAX = 5050"):
        RootSystem([("A", 71), ("A", 71)])
    with pytest.raises(ValueError, match="A101 has 5151 positive roots"):
        build([("A", 101)])
    # the budget itself is allowed (A100 takes about 1 s to build, so a small one stands in)
    monkeypatch.undo()
    monkeypatch.setattr(rootsys, "ROOTS_MAX", 3)
    assert len(RootSystem([("A", 2)]).positive_roots) == 3
    with pytest.raises(ValueError, match="A1xA2 has 4 positive roots"):
        RootSystem([("A", 1), ("A", 2)])


def test_a2_build():
    rs = parse_type("A2")
    assert rs.cartan == [[2, -1], [-1, 2]]
    assert len(rs.positive_roots) == 3


def test_a1_build():
    rs = parse_type("A1")
    assert rs.cartan == [[2]]
    assert len(rs.positive_roots) == 1
    assert (rs.inverse_cartan_den, rs.inverse_cartan_scaled) == (2, [[1]])


def test_g2_highest_root():
    rs = parse_type("G2")
    assert len(rs.positive_roots) == 6
    assert rs.highest_root_per_factor[0] == (3, 2)
    assert rs.adjoint_weight() == (0, 1)


@pytest.mark.parametrize("name,count", sorted(POSITIVE_ROOT_COUNTS.items()))
def test_positive_root_counts(name, count):
    rs = parse_type(name)
    assert len(rs.positive_roots) == count


@pytest.mark.parametrize("name", sorted(POSITIVE_ROOT_COUNTS))
def test_cartan_inverse_exact(name):
    # C * inverse_cartan_scaled = inverse_cartan_den * I
    rs = parse_type(name)
    n = rs.rank
    for i in range(n):
        for j in range(n):
            s = sum(rs.cartan[i][k] * rs.inverse_cartan_scaled[k][j] for k in range(n))
            assert s == (rs.inverse_cartan_den if i == j else 0)


def test_inverse_cartan_a2():
    rs = parse_type("A2")
    assert (rs.inverse_cartan_den, rs.inverse_cartan_scaled) == (3, [[2, 1], [1, 2]])


def test_inverse_cartan_product_blocks():
    rs = parse_type("A1,A1")
    assert (rs.inverse_cartan_den, rs.inverse_cartan_scaled) == (2, [[1, 0], [0, 1]])


def test_root_data_builds_no_rational_kernel():
    # C^-1 is read off the integer kernel as its denominator and a matrix of
    # ints; linalg makes no Fraction (test_linalg.test_linalg_names_no_fraction)
    names = ["A2,G2", "F4", "G2"] + [f"E{n}" for n in (6, 7, 8)]
    names += [f"{family}{n}" for family, low in (("A", 1), ("B", 2), ("C", 2), ("D", 3))
              for n in range(low, 9)]
    for name in names:
        rs = parse_type(name)
        assert type(rs.inverse_cartan_den) is int
        assert all(type(x) is int for row in rs.inverse_cartan_scaled for x in row)


@pytest.mark.parametrize("name", sorted(POSITIVE_ROOT_COUNTS))
def test_root_count_matches_adjoint_dim(name):
    rs = parse_type(name)
    dim = rs.weyl_dim(rs.adjoint_weight())
    assert len(rs.positive_roots) == (dim - rs.rank) // 2
    assert rs.dim_g() == dim


def test_weyl_dim_values():
    assert parse_type("A1").weyl_dim((3,)) == 4
    assert parse_type("A2").weyl_dim((0, 0)) == 1
    assert parse_type("A2").weyl_dim((1, 1)) == 8
    assert parse_type("E8").weyl_dim(parse_type("E8").adjoint_weight()) == 248


def test_weyl_dim_rejects_non_dominant():
    with pytest.raises(ValueError):
        parse_type("A2").weyl_dim((1, -1))


def test_weyl_dim_validates_after_memoizing():
    # each Weyl product is kept per RootSystem; the weight is still checked first
    rs = parse_type("A2")
    assert rs.weyl_dim((1, 1)) == 8 and rs.weyl_dim([1, 1]) == 8
    assert rs.weyl_dim((2, 0)) == 6
    with pytest.raises(ValueError, match="wrong length"):
        rs.weyl_dim((1, 1, 0))
    with pytest.raises(ValueError, match="wrong length"):
        rs.weyl_dim((1,))
    with pytest.raises(ValueError, match="not dominant"):
        rs.weyl_dim((1, -1))
    with pytest.raises(ValueError, match="not dominant"):
        rs.weyl_dim((-1, 1))


def test_affine_action_a1():
    rs = parse_type("A1")
    for m in range(-3, 5):
        assert rs.affine_action(0, (m,)) == (-m - 2,)


def test_affine_action_a2():
    rs = parse_type("A2")
    for a, b in [(0, 0), (2, 5), (-1, 3)]:
        assert rs.affine_action(0, (a, b)) == (-a - 2, a + b + 1)


def test_affine_action_involution_and_fixed_point():
    rs = parse_type("B3")
    minus_rho = (-1, -1, -1)
    for i in range(3):
        assert rs.affine_action(i, minus_rho) == minus_rho
        for mu in [(0, 2, -5), (1, 1, 1), (-4, 0, 3)]:
            assert rs.affine_action(i, rs.affine_action(i, mu)) == mu


def test_affine_action_preserves_dimension_when_regular():
    # |weyl_dim| is constant on regular affine orbits after re-dominizing
    rs = parse_type("A2")
    lam = (2, 1)
    w = rs.affine_action(0, lam)
    dom, sign = rs.dominize_signed(tuple(c + 1 for c in w), range(rs.rank))
    assert sign == -1
    back = tuple(c - 1 for c in dom)
    assert rs.weyl_dim(back) == rs.weyl_dim(lam)


def test_dual_weights():
    assert parse_type("A3").dual_weight((1, 0, 0)) == (0, 0, 1)
    assert parse_type("D5").dual_weight((0, 0, 0, 1, 0)) == (0, 0, 0, 0, 1)
    assert parse_type("D4").dual_weight((0, 0, 1, 0)) == (0, 0, 1, 0)
    assert parse_type("E6").dual_weight((1, 0, 0, 0, 0, 0)) == (0, 0, 0, 0, 0, 1)
    assert parse_type("B3").dual_weight((1, 2, 3)) == (1, 2, 3)


def test_highest_root_dominates():
    for name in POSITIVE_ROOT_COUNTS:
        rs = parse_type(name)
        theta = rs.highest_root_per_factor[0]
        for r in rs.positive_roots:
            assert all(t >= c for t, c in zip(theta, r.coords))


def test_theta_norm_normalization():
    # in the form (alpha_i, alpha_j) = d_i C_ij, short roots have squared
    # length 2 and so the highest root of each factor 2 d_long, d_long the
    # factor's largest d
    for name in list(POSITIVE_ROOT_COUNTS) + ["A1,G2", "B3,C3"]:
        rs = parse_type(name)
        for s, (f, off) in enumerate(zip(rs.factors, rs.offsets)):
            theta = rs.highest_root_per_factor[s]
            norm = sum(c * d * w for c, d, w in zip(theta, rs.d, rs.adjoint_weight(s)))
            assert min(rs.d[off:off + f.rank]) == 1
            assert norm == 2 * max(rs.d[off:off + f.rank])


def test_adjoint_weights_exceptional():
    assert parse_type("C2").adjoint_weight() == (2, 0)
    assert parse_type("F4").adjoint_weight() == (1, 0, 0, 0)
    assert parse_type("E6").adjoint_weight() == (0, 1, 0, 0, 0, 0)
    assert parse_type("E7").adjoint_weight() == (1, 0, 0, 0, 0, 0, 0)
    assert parse_type("E8").adjoint_weight() == (0, 0, 0, 0, 0, 0, 0, 1)


def test_parse_type_products():
    for text in ("A1xA1", "A1XA1", "a1xa1", "a1Xa1"):
        rs = parse_type(text)
        assert rs.rank == 2 and [str(f) for f in rs.factors] == ["A1", "A1"]
    rs = parse_type("A2,B3")
    assert rs.rank == 5
    with pytest.raises(ValueError):
        parse_type("H3")


def test_product_weyl_dim_multiplies():
    rs = parse_type("A1,A2")
    assert rs.weyl_dim((2, 1, 1)) == 3 * 8


# ---------- the two Weyl-group walks: orbit and fold ----------

WALK_TYPES = ("A1", "A2", "A3", "B2", "B3", "C3", "D4", "G2", "F4", "A1,A2", "A1,A1,A1")


def _reflect(rs, i, w):
    """s_i w = w - w_i alpha_i, alpha_i read off column i of the Cartan matrix."""
    return tuple(x - w[i] * rs.cartan[j][i] for j, x in enumerate(w))


def _closure(rs, weight, nodes):
    """Breadth-first closure of {weight} under every reflection at nodes."""
    seen, frontier = {weight}, {weight}
    while frontier:
        frontier = {_reflect(rs, i, w) for w in frontier for i in nodes} - seen
        seen |= frontier
    return seen


def _height(rs, top, w):
    """Height of top - w in simple roots, through C^-1."""
    diff = [a - b for a, b in zip(top, w)]
    total = sum(x * d for row in rs.inverse_cartan_scaled for x, d in zip(row, diff))
    assert total % rs.inverse_cartan_den == 0
    return total // rs.inverse_cartan_den


@st.composite
def walk_cases(draw):
    """(rs, nodes, weight): all nodes (W) or a subset (a W_0), weight >= 0 at nodes."""
    rs = parse_type(draw(st.sampled_from(WALK_TYPES)))
    nodes = draw(st.one_of(st.just(tuple(range(rs.rank))),
                           st.lists(st.sampled_from(range(rs.rank)), unique=True)
                           .map(lambda x: tuple(sorted(x)))))
    weight = tuple(draw(st.integers(0, 2) if i in nodes else st.integers(-3, 3))
                   for i in range(rs.rank))
    return rs, nodes, weight


@settings(max_examples=120, deadline=None, derandomize=True)
@given(walk_cases())
def test_orbit_is_the_reflection_closure_with_heights(case):
    rs, nodes, weight = case
    orbit = rs.orbit(weight, nodes)
    assert set(orbit) == _closure(rs, weight, nodes)
    assert all(level == _height(rs, weight, w) for w, level in orbit.items())


def test_orbit_refuses_a_weight_negative_at_a_node():
    rs = parse_type("A2")
    assert rs.orbit((-1, 2), (1,)) == {(-1, 2): 0, (1, -2): 2}
    with pytest.raises(ValueError, match="negative"):
        rs.orbit((-1, 2), (0, 1))


def test_fold_refuses_a_negative_total():
    # -2 + rho = -1 reflects to 1 with sign -1: V(0) would count -1 times
    rs = parse_type("A1")
    assert rs.fold([((2,), 1), ((0,), 1), ((-2,), 1)], (0,)) == {(2,): 1}
    with pytest.raises(InternalCheckError, match="negative"):
        rs.fold([((-2,), 1)], (0,))


def _small_weights():
    """(type, lambda) with dim V_lambda <= 300, entries 0-2."""
    out = []
    for name in WALK_TYPES:
        rs = parse_type(name)
        for lam in itertools.product(range(3), repeat=rs.rank):
            if rs.weyl_dim(lam) <= 300:
                out.append((name, lam))
    return out


SMALL_WEIGHTS = _small_weights()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(SMALL_WEIGHTS))
def test_fold_of_a_weight_system_over_w_is_its_highest_weight(case):
    name, lam = case
    rs = parse_type(name)
    assert rs.fold(weight_system(rs, lam).items(), range(rs.rank)) == {lam: 1}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(SMALL_WEIGHTS), st.data())
def test_fold_over_w0_gives_levi_pieces_of_the_right_dimension(case, data):
    name, lam = case
    rs = parse_type(name)
    marked = data.draw(st.lists(st.integers(1, rs.rank), min_size=1, unique=True))
    marking = ParabolicMarking(rs, marked)
    pieces = rs.fold(weight_system(rs, lam).items(), marking.unmarked)
    assert all(m > 0 for m in pieces.values())
    assert sum(m * levi_weyl_dim(marking, hw) for hw, m in pieces.items()) \
        == rs.weyl_dim(lam)


# ---------- every root pairing is one integer per simple root ----------

PAIRING_TYPES = ([f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 9)]
                 + [f"C{n}" for n in range(3, 9)] + [f"D{n}" for n in range(4, 9)]
                 + ["E6", "E7", "E8", "F4", "G2", "A1,G2", "B3,C3"])


@pytest.mark.parametrize("name", PAIRING_TYPES)
def test_root_pairings_read_off_the_simple_root_norms(name):
    # (alpha_i, alpha_j) = d_i C_ij, so d_j = (alpha_j, alpha_j) / 2 and
    # (omega_j, alpha) = c_j d_j for alpha = sum c_i alpha_i; the Weyl
    # dimension is prod (lam + rho, alpha) / prod (rho, alpha).  pair goes
    # through C^-1, not through the c_j d_j that rootsys reads
    rs = parse_type(name)

    def pair(w, coords):
        # (w, alpha) = sum_ij w_i (C^-1)_ji (alpha_j, alpha), over C^-1's denominator
        to_alpha = [sum(rs.d[j] * rs.cartan[j][k] * coords[k] for k in range(rs.rank))
                    for j in range(rs.rank)]
        return Fraction(sum(w[i] * rs.inverse_cartan_scaled[j][i] * to_alpha[j]
                            for i in range(rs.rank) for j in range(rs.rank)),
                        rs.inverse_cartan_den)

    units = [tuple(int(i == j) for i in range(rs.rank)) for j in range(rs.rank)]
    for r in rs.positive_roots:
        assert [pair(w, r.coords) for w in units] == [
            c * d for c, d in zip(r.coords, rs.d)]
    rng = random.Random(name)
    for _ in range(4):
        lam = tuple(rng.randrange(3) for _ in range(rs.rank))
        top = low = 1
        for r in rs.positive_roots:
            top *= pair([x + 1 for x in lam], r.coords)
            low *= pair(rs.rho, r.coords)
        assert rs.weyl_dim(lam) == top / low


def test_a_d_that_does_not_symmetrize_the_cartan_matrix_is_refused(monkeypatch):
    # d is checked once, when the root system is built
    monkeypatch.setattr(rootsys, "_lengths_simple", lambda factor: [1, 2])
    with pytest.raises(InternalCheckError,
                       match=r"d = \[1, 2\] does not symmetrize the Cartan matrix of A2"):
        RootSystem([("A", 2)])
