from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from liecoh import linalg
from liecoh.tableau import Tableau, _flag_dims


def F(a, b=1):
    return Fraction(a, b)


def test_rank_identity():
    assert linalg.rank(linalg.identity(2)) == 2


def test_rank_zero_matrix():
    assert linalg.rank(linalg.zeros(3, 4)) == 0


def test_rank_dependent_rows():
    assert linalg.rank([[F(1), F(2)], [F(2), F(4)]]) == 1


def test_kernel_identity_empty():
    assert linalg.kernel_basis(linalg.identity(3)) == []


def test_kernel_zero_matrix():
    ker = linalg.kernel_basis(linalg.zeros(2, 3))
    assert len(ker) == 3


def test_kernel_vectors_annihilated():
    M = [[F(1), F(1), F(0)]]
    ker = linalg.kernel_basis(M)
    assert len(ker) == 2
    for v in ker:
        assert all(x == 0 for x in linalg.mat_vec(M, v))


def test_intersect_coordinate_spans():
    e = lambda j: linalg.unit_vector(3, j)
    inter = linalg.intersect([e(0), e(1)], [e(1), e(2)])
    assert len(inter) == 1
    assert linalg.rank(inter + [e(1)]) == 1


def test_intersect_self():
    span = [[F(1), F(2), F(0)], [F(0), F(1), F(5)]]
    inter = linalg.intersect(span, span)
    assert len(inter) == 2
    assert linalg.rank(inter + span) == 2


def test_intersect_dimension_mismatch():
    with pytest.raises(ValueError):
        linalg.intersect([[F(1), F(0)]], [[F(1), F(0), F(0)]])


def test_solve_in_span():
    span = [[F(1), F(0), F(1)], [F(0), F(1), F(1)]]
    c = linalg.solve_in_span(span, [F(2), F(3), F(5)])
    assert c == [F(2), F(3)]
    assert linalg.solve_in_span(span, [F(0), F(0), F(1)]) is None


rational = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def matrices(draw, max_dim=5):
    n = draw(st.integers(1, max_dim))
    m = draw(st.integers(1, max_dim))
    return [[draw(rational) for _ in range(m)] for _ in range(n)]


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rank_nullity(M):
    assert linalg.rank(M) + len(linalg.kernel_basis(M)) == len(M[0])


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_kernel_exactness(M):
    for v in linalg.kernel_basis(M):
        assert all(x == 0 for x in linalg.mat_vec(M, v))


def fraction_kernel_reference(M):
    """Kernel basis by plain Fraction elimination and back-substitution.

    The kernel vector with 1 at a free column and 0 at the other free columns
    is unique, so any echelon form gives the same vectors as kernel_basis.
    """
    rows = [[Fraction(x) for x in row] for row in M]
    nc = len(rows[0])
    piv_cols = []
    for c in range(nc):
        r = len(piv_cols)
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, len(rows)):
            f = rows[i][c] / rows[r][c]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        piv_cols.append(c)
    basis = []
    for fc in range(nc):
        if fc in piv_cols:
            continue
        v = [Fraction(0)] * nc
        v[fc] = Fraction(1)
        for idx in range(len(piv_cols) - 1, -1, -1):
            pc = piv_cols[idx]
            if pc < fc:
                row = rows[idx]
                v[pc] = -sum(row[j] * v[j] for j in range(pc + 1, nc)) / row[pc]
        basis.append(v)
    return basis


@settings(max_examples=80, deadline=None)
@given(matrices(max_dim=7))
def test_kernel_basis_matches_fraction_back_substitution(M):
    assert linalg.kernel_basis(M) == fraction_kernel_reference(M)


@settings(max_examples=60, deadline=None)
@given(matrices(max_dim=6), st.data())
def test_solve_in_span_recovers_coefficients(M, data):
    span = [M[i] for i in linalg.independent_subset(M)]
    assume(span)
    coeffs = data.draw(st.lists(rational, min_size=len(span), max_size=len(span)))
    target = [sum(c * v[k] for c, v in zip(coeffs, span)) for k in range(len(M[0]))]
    assert linalg.solve_in_span(span, target) == coeffs


def test_integer_rows_are_accepted():
    M = [[2, 4, 0], [1, 2, 3]]
    assert linalg.rank(M) == 2
    assert linalg.kernel_basis(M) == [[F(-2), F(1), F(0)]]
    assert linalg.solve_in_span([[1, 0, 1], [0, 2, 2]], [3, 4, 7]) == [F(3), F(2)]


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.data())
def test_intersection_dimension_formula(n, data):
    vecs = st.lists(st.lists(rational, min_size=n, max_size=n), min_size=1, max_size=4)
    A = data.draw(vecs)
    B = data.draw(vecs)
    dim_a = linalg.rank(A)
    dim_b = linalg.rank(B)
    dim_sum = linalg.rank(A + B)
    inter = linalg.intersect(A, B)
    assert len(inter) == dim_a + dim_b - dim_sum


# ---------- contracts of the one elimination core ----------

small = st.integers(-1, 1).map(Fraction)


@st.composite
def small_vectors(draw):
    # entries in {-1, 0, 1} and up to 6 vectors in dimension <= 4, so that
    # dependent and zero vectors are common
    n = draw(st.integers(1, 4))
    return draw(st.lists(st.lists(small, min_size=n, max_size=n), min_size=1, max_size=6))


def greedy_independent(vectors):
    picked = []
    for k, v in enumerate(vectors):
        if linalg.rank([vectors[i] for i in picked] + [v]) == len(picked) + 1:
            picked.append(k)
    return picked


@settings(max_examples=40, deadline=None)
@given(small_vectors())
def test_independent_subset_is_greedy(vectors):
    assert linalg.independent_subset(vectors) == greedy_independent(vectors)


@settings(max_examples=40, deadline=None)
@given(small_vectors())
def test_kernel_basis_unit_coordinates(M):
    ker = linalg.kernel_basis(M)
    free = [max(k for k, x in enumerate(v) if x) for v in ker]
    assert free == sorted(set(free))
    assert not set(free) & set(linalg.pivot_columns(M))
    for v, f in zip(ker, free):
        assert v[f] == 1
        assert all(v[g] == 0 for g in free if g != f)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 4), st.integers(1, 3), st.data())
def test_flag_dims_are_prefix_ranks(n, w, data):
    mats = data.draw(st.lists(st.lists(st.lists(small, min_size=n, max_size=n),
                                       min_size=w, max_size=w), max_size=5))
    flat = [[x for row in M for x in row] for M in mats]
    t = Tableau(n, w, [mats[i] for i in greedy_independent(flat)])
    flag = data.draw(st.lists(st.lists(rational, min_size=n, max_size=n),
                              min_size=n, max_size=n))
    assume(linalg.rank(flag) == n)
    rows = [[x for v in flag for x in linalg.mat_vec(M, v)] for M in t.basis]
    want = [t.dim - linalg.rank([row[:j * w] for row in rows])
            for j in range(1, n)]
    assert _flag_dims(t.basis, w, flag) == want
