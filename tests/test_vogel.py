import random
from fractions import Fraction

import pytest

from liecoh.rootsys import parse_type
from liecoh.vogel import (K_MAX, DegenerateParameters, VogelParams, dim_g, dim_y2,
                          dim_y3, dim_yk, rational_binomial)

EXCEPTIONAL_ROWS = {
    "D4": VogelParams(-2, 4, 4),
    "F4": VogelParams(-2, 5, 6),
    "E6": VogelParams(-2, 6, 8),
    "E7": VogelParams(-2, 8, 12),
    "E8": VogelParams(-2, 12, 20),
}
ADJOINT_DIMS = {"D4": 28, "F4": 52, "E6": 78, "E7": 133, "E8": 248}


def test_t_is_sum():
    p = VogelParams(-2, 12, 20)
    assert p.t == 30


def test_rational_binomial():
    assert rational_binomial(7, 0) == 1
    assert rational_binomial(3, 2) == 10
    assert rational_binomial(Fraction(-1, 2), 2) == Fraction(3, 8)


def test_dim_g_rows():
    for name, p in EXCEPTIONAL_ROWS.items():
        assert dim_g(p) == ADJOINT_DIMS[name]


def test_dim_g_so_family():
    for n in range(5, 13):
        assert dim_g(VogelParams(-2, 4, n - 4)) == Fraction(n * (n - 1), 2)


def test_dim_g_zero_denominator():
    with pytest.raises(DegenerateParameters):
        dim_g(VogelParams(0, 3, 4))


def test_dim_y2_explicit_zero_factor():
    # beta + t = 0 makes the numerator vanish before any denominator does
    p = VogelParams(2, -3, 4)
    assert p.t + p.beta == 0
    assert dim_y2(p) == 0


def test_dim_y2_matches_cartan_square():
    p = EXCEPTIONAL_ROWS["E8"]
    rs = parse_type("E8")
    theta = rs.adjoint_weight()
    assert dim_y2(p) == rs.weyl_dim(tuple(2 * c for c in theta)) == 27000


def test_dim_y3_matches_cartan_cube():
    p = EXCEPTIONAL_ROWS["D4"]
    rs = parse_type("D4")
    theta = rs.adjoint_weight()
    assert dim_y3(p) == rs.weyl_dim(tuple(3 * c for c in theta)) == 1925


def test_yk_reduces_to_dim_g():
    rnd = random.Random(7)
    hits = 0
    while hits < 12:
        p = VogelParams(*(Fraction(rnd.randint(-9, 9), rnd.randint(1, 4))
                          for _ in range(3)))
        try:
            assert dim_yk(p, 1) == dim_g(p)
        except DegenerateParameters:
            continue
        hits += 1


def test_yk_internal_consistency_with_displays():
    for p in EXCEPTIONAL_ROWS.values():
        assert dim_yk(p, 2) == dim_y2(p)
        assert dim_yk(p, 3) == dim_y3(p)


def test_homogeneity():
    rnd = random.Random(13)
    base = VogelParams(-2, 5, 6)
    for _ in range(10):
        s = Fraction(rnd.randint(1, 9), rnd.randint(1, 9))
        scaled = VogelParams(base.alpha * s, base.beta * s, base.gamma * s)
        for k in (1, 2, 3):
            assert dim_yk(scaled, k) == dim_yk(base, k)
        assert dim_g(scaled) == dim_g(base)
        assert dim_y2(scaled) == dim_y2(base)
        assert dim_y3(scaled) == dim_y3(base)


def test_symmetries():
    p = VogelParams(-2, 8, 12)
    assert dim_g(p) == dim_g(VogelParams(8, -2, 12)) == dim_g(VogelParams(12, 8, -2))
    # dim_yk is symmetric in beta and gamma
    assert dim_yk(p, 2) == dim_yk(VogelParams(-2, 12, 8), 2)


def test_yk_refuses_k_over_its_budget():
    # refused before any binomial is multiplied out: k = 100,000 did not finish in 120 s
    for k in (K_MAX + 1, 100_000):
        with pytest.raises(ValueError, match="K_MAX"):
            dim_yk(EXCEPTIONAL_ROWS["E8"], k)


def test_yk_degenerate_points_are_tagged():
    # t + alpha/2 = 0
    with pytest.raises(DegenerateParameters):
        dim_yk(VogelParams(2, 1, -4), 2)
    # beta = 0 zeroes the binomial denominator B(-beta/alpha - 1, k) = B(-1, k)
    with pytest.raises(DegenerateParameters):
        dim_yk(VogelParams(-2, 0, 3), 1)
    err = None
    try:
        dim_y2(VogelParams(3, 3, 4))  # alpha - beta = 0
    except DegenerateParameters as e:
        err = e
    assert err is not None and "alpha-beta" in err.factor_name
