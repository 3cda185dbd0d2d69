import ast
import pathlib
import random
from fractions import Fraction
from math import gcd, isqrt, lcm

from hypothesis import assume, given, settings, strategies as st

from liecoh import cohomology, linalg
from liecoh.grading import ParabolicMarking
from liecoh.rootsys import parse_type
from liecoh.tableau import Tableau, _flag_dims, is_involutive, stabilizer_and_tableau
from test_tableau import dense_basis, greedy_coordinates, segre_2x2


def F(a, b=1):
    return Fraction(a, b)


def mat_vec(M, v):
    return [sum(a * b for a, b in zip(row, v)) for row in M]


def unit_kernel(rows, ncols):
    """integer_kernel's vectors, each over its entry at its free column (its
    last key), as dense Fraction lists: the kernel basis with 1 at each free
    column and 0 at the others, which the rational references compute."""
    basis = []
    for vec in linalg.integer_kernel(rows, ncols):
        v = [F(0)] * ncols
        for j, x in vec.items():
            v[j] = F(x, vec[max(vec)])
        basis.append(v)
    return basis


def columns_of(vectors):
    """The matrix whose k-th column is vectors[k], as dense rows."""
    return [list(c) for c in zip(*vectors)]


def test_rank_identity():
    assert linalg.rank([[1, 0], [0, 1]]) == 2


def test_rank_zero_matrix():
    assert linalg.rank([[F(0)] * 4 for _ in range(3)]) == 0


def test_rank_dependent_rows():
    assert linalg.rank([[F(1), F(2)], [F(2), F(4)]]) == 1


def test_kernel_identity_empty():
    assert linalg.integer_kernel([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3) == []


def test_kernel_zero_matrix():
    ker = linalg.integer_kernel([[F(0)] * 3 for _ in range(2)], 3)
    assert ker == [{0: 1}, {1: 1}, {2: 1}]


def test_kernel_vectors_annihilated():
    M = [[F(1), F(1), F(0)]]
    ker = linalg.integer_kernel(M, 3)
    assert len(ker) == 2
    for v in ker:
        assert all(x == 0 for x in mat_vec(M, [v.get(j, 0) for j in range(3)]))


def test_span_coordinates():
    # the reduced echelon rows of the matrix with these columns: the pivots
    # are the greedy subset, and the coordinates rebuild every column
    vectors = [[F(1), F(0), F(1)], [F(2), F(0), F(2)], [F(0), F(1), F(1)],
               [F(2), F(3), F(5)], [F(0), F(0), F(1)]]
    assert linalg.echelon_rows(columns_of(vectors)) == [{0: 1, 1: 2, 3: 2},
                                                        {2: 1, 3: 3}, {4: 1}]
    chosen, coords = greedy_coordinates(vectors)
    assert chosen == [0, 2, 4] == linalg.pivot_columns(columns_of(vectors))
    assert coords == [[F(1), F(0), F(0)], [F(2), F(0), F(0)], [F(0), F(1), F(0)],
                      [F(2), F(3), F(0)], [F(0), F(0), F(1)]]
    assert greedy_coordinates([]) == ([], [])


rational = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def matrices(draw, max_dim=5):
    n = draw(st.integers(1, max_dim))
    m = draw(st.integers(1, max_dim))
    return [[draw(rational) for _ in range(m)] for _ in range(n)]


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rank_nullity(M):
    assert linalg.rank(M) + len(linalg.integer_kernel(M, len(M[0]))) == len(M[0])


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_kernel_exactness(M):
    for v in linalg.integer_kernel(M, len(M[0])):
        assert all(x == 0 for x in mat_vec(M, [v.get(j, 0) for j in range(len(M[0]))]))


def fraction_kernel_reference(M):
    """Kernel basis by plain Fraction elimination and back-substitution.

    The kernel vector with 1 at a free column and 0 at the other free columns
    is unique, so any echelon form gives the same vectors as unit_kernel.
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
    assert unit_kernel(M, len(M[0])) == fraction_kernel_reference(M)


@settings(max_examples=60, deadline=None)
@given(matrices(max_dim=6), st.data())
def test_span_coordinates_recover_coefficients(M, data):
    span = [M[i] for i in linalg.pivot_columns(columns_of(M))]
    assume(span)
    coeffs = data.draw(st.lists(st.lists(rational, min_size=len(span), max_size=len(span)),
                                max_size=3))
    targets = [[sum(c * v[k] for c, v in zip(cs, span)) for k in range(len(M[0]))]
               for cs in coeffs]
    chosen, coords = greedy_coordinates(span + targets)
    assert chosen == list(range(len(span)))
    assert coords[len(span):] == coeffs


def test_integer_rows_are_accepted():
    M = [[2, 4, 0], [1, 2, 3]]
    assert linalg.rank(M) == 2
    assert linalg.integer_kernel(M, 3) == [{0: -2, 1: 1}]
    assert linalg.echelon_rows([[1, 0, 3], [0, 2, 4], [1, 2, 7]]) == [{0: 1, 2: 3}, {1: 1, 2: 2}]
    assert greedy_coordinates([[1, 0, 1], [0, 2, 2], [3, 4, 7]]) == (
        [0, 1], [[F(1), F(0)], [F(0), F(1)], [F(3), F(2)]])


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
    want = greedy_independent(vectors)
    assert linalg.pivot_columns(columns_of(vectors)) == want
    assert [min(row) for row in linalg.echelon_rows(columns_of(vectors))] == want


@settings(max_examples=40, deadline=None)
@given(small_vectors())
def test_kernel_basis_unit_coordinates(M):
    ker = linalg.integer_kernel(M, len(M[0]))
    free = [max(v) for v in ker]
    assert free == sorted(set(free))
    assert not set(free) & set(linalg.pivot_columns(M))
    for v, f in zip(ker, free):
        assert v[f] > 0 and list(v) == sorted(v)
        assert all(g not in v for g in free if g != f)
    # over its entry at f, vector f is the kernel vector with 1 at f and 0 at
    # the other free columns
    assert [[x * v[f] for x in u] for u, v, f in zip(unit_kernel(M, len(M[0])), ker, free)] == \
        [[v.get(j, 0) for j in range(len(M[0]))] for v in ker]


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
    rows = [[x for v in flag for x in mat_vec(M, v)] for M in t.basis]
    want = [t.dim - linalg.rank([row[:j * w] for row in rows])
            for j in range(1, n)]
    mats = [dict(enumerate(x for row in M for x in row)) for M in t.basis]
    assert _flag_dims(mats, w, flag) == want


# ---------- the sparse core against the dense Bareiss elimination it replaced ----------

def dense_scaled_int_rows(rows):
    out = []
    for row in rows:
        den = lcm(*(x.denominator for x in row))
        out.append([x.numerator * (den // x.denominator) for x in row])
    return out


def dense_row_echelon_int(M):
    """In-place fraction-free (Bareiss) echelon reduction of integer rows.

    Returns (pivot_cols, rank); pivots are the first nonzero entry in each
    column sweep.
    """
    if not M or not M[0]:
        return [], 0
    nr, nc = len(M), len(M[0])
    piv_cols = []
    r = 0
    prev = 1
    for c in range(nc):
        piv = next((i for i in range(r, nr) if M[i][c]), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        pivot = M[r][c]
        for i in range(r + 1, nr):
            Mi, Mr = M[i], M[r]
            mic = Mi[c]
            for j in range(c, nc):
                Mi[j] = (pivot * Mi[j] - mic * Mr[j]) // prev
        prev = pivot
        piv_cols.append(c)
        r += 1
        if r == nr:
            break
    return piv_cols, r


def dense_back_substitute(M, piv_cols, c):
    x = [0] * c
    den = 1
    for idx in range(len(piv_cols) - 1, -1, -1):
        pc = piv_cols[idx]
        if pc >= c:
            continue
        row = M[idx]
        s = den * row[c] - sum(row[j] * x[j] for j in range(pc + 1, c) if x[j])
        p = row[pc]
        g = gcd(s, p)
        if p < 0:
            g = -g
        s, p = s // g, p // g
        if p != 1:
            den *= p
            for j in range(pc + 1, c):
                if x[j]:
                    x[j] *= p
        x[pc] = s
    return x, den


def dense_pivot_columns(rows):
    return dense_row_echelon_int(dense_scaled_int_rows(rows))[0]


def dense_kernel_basis(rows, nc):
    if not rows:
        return [[F(int(i == j)) for i in range(nc)] for j in range(nc)]
    M = dense_scaled_int_rows(rows)
    piv_cols, _ = dense_row_echelon_int(M)
    basis = []
    for fc in range(nc):
        if fc not in piv_cols:
            x, den = dense_back_substitute(M, piv_cols, fc)
            basis.append([F(-v, den) for v in x] + [F(1)] + [F(0)] * (nc - fc - 1))
    return basis


def dense_solve_in_span(span, target):
    if not span:
        return [] if not any(target) else None
    aug = [[v[r] for v in span] + [target[r]] for r in range(len(target))]
    M = dense_scaled_int_rows(aug)
    piv_cols, r = dense_row_echelon_int(M)
    if len(span) in piv_cols:
        return None
    assert r == len(span)
    x, den = dense_back_substitute(M, piv_cols, len(span))
    return [F(v, den) for v in x]


def as_map(row):
    return {j: x for j, x in enumerate(row) if x}


# zeros are common, so rows come out sparse, dense and zero; a few entries
# are large, so integer growth is exercised
entries = st.one_of(st.just(F(0)), st.just(F(0)), st.integers(-3, 3).map(F),
                    st.fractions(min_value=-4, max_value=4, max_denominator=6),
                    st.integers(-2 ** 70, 2 ** 70).map(F))


@st.composite
def mixed_matrices(draw):
    ncols = draw(st.integers(1, 8))
    nrows = draw(st.integers(0, 8))
    rows = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(["zero", "sparse", "dense"]))
        if kind == "zero":
            rows.append([F(0)] * ncols)
        elif kind == "sparse":
            row = [F(0)] * ncols
            for j in draw(st.lists(st.integers(0, ncols - 1), max_size=2)):
                row[j] = draw(entries)
            rows.append(row)
        else:
            rows.append([draw(entries) for _ in range(ncols)])
    return ncols, rows


@settings(max_examples=150, deadline=None)
@given(mixed_matrices(), st.booleans())
def test_sparse_core_matches_dense_bareiss(matrix, maps):
    ncols, rows = matrix
    given_rows = [as_map(r) for r in rows] if maps else rows
    want = dense_pivot_columns(rows)
    assert linalg.pivot_columns(given_rows) == want
    assert linalg.rank(given_rows) == len(want)
    assert unit_kernel(given_rows, ncols) == dense_kernel_basis(rows, ncols)
    columns = [[r[j] for r in rows] for j in range(ncols)]
    assert greedy_coordinates(columns)[0] == want


@settings(max_examples=150, deadline=None)
@given(mixed_matrices(), st.data(), st.booleans())
def test_span_coordinates_match_dense_bareiss(matrix, data, maps):
    ncols, vectors = matrix
    # one more vector: a combination of the greedy span, or a random one
    span = [vectors[i] for i in dense_pivot_columns([list(c) for c in zip(*vectors)])]
    if data.draw(st.booleans()):
        coeffs = data.draw(st.lists(entries, min_size=len(span), max_size=len(span)))
        vectors = vectors + [[sum((c * v[k] for c, v in zip(coeffs, span)), F(0))
                              for k in range(ncols)]]
    else:
        vectors = vectors + [data.draw(st.lists(entries, min_size=ncols, max_size=ncols))]
    want = dense_pivot_columns(columns_of(vectors))
    chosen, coords = greedy_coordinates([as_map(v) for v in vectors] if maps else vectors)
    assert chosen == want == linalg.pivot_columns(columns_of(vectors))
    assert coords == [dense_solve_in_span([vectors[i] for i in want], v) for v in vectors]
    # the coordinates rebuild every column
    for v, c in zip(vectors, coords):
        assert [sum((x * vectors[i][r] for x, i in zip(c, chosen)), F(0))
                for r in range(ncols)] == v


def integer_map(row, factor, zeros):
    """The row times the lcm of its denominators and `factor`, as a map of ints;
    with `zeros`, its zero entries are kept as keys."""
    den = lcm(*(x.denominator for x in row))
    return {j: int(x * den) * factor for j, x in enumerate(row) if x or zeros}


factors = st.integers(-6, 6).filter(bool)
forms = st.sampled_from(["list", "map", "int list", "int map"])


def in_form(rows, ncols, form, data):
    """The rows as given (dense rationals), as maps, or scaled by a drawn
    factor to ints, as maps or dense lists."""
    if form.startswith("int"):
        maps = [integer_map(r, data.draw(factors), False) for r in rows]
        return [[m.get(j, 0) for j in range(ncols)] for m in maps] if form == "int list" else maps
    return [as_map(r) for r in rows] if form == "map" else rows


@settings(max_examples=150, deadline=None)
@given(mixed_matrices(), forms, st.data())
def test_integer_kernel_is_the_primitive_kernel_basis(matrix, form, data):
    ncols, rows = matrix
    given_rows = in_form(rows, ncols, form, data)
    got = [list(v.items()) for v in linalg.integer_kernel(given_rows, ncols)]
    # key order included
    assert got == [list(v.items()) for v in linalg._integer_rows(dense_kernel_basis(rows, ncols))]


def test_integer_kernel_of_small_matrices():
    units = [{0: 1}, {1: 1}, {2: 1}]
    assert linalg.integer_kernel([], 3) == units
    assert linalg.integer_kernel([[0, 0, 0], [F(0)] * 3], 3) == units
    assert linalg.integer_kernel([{}, {1: 0}], 3) == units
    # x0 = -3/2 x1 + 2 x2: scaled to integers at x1, already integral at x2
    assert linalg.integer_kernel([{0: 2, 1: 3, 2: -4}], 3) == [{0: -3, 1: 2}, {0: 2, 2: 1}]
    assert unit_kernel([{0: 2, 1: 3, 2: -4}], 3) == [[F(-3, 2), F(1), F(0)],
                                                    [F(2), F(0), F(1)]]


@settings(max_examples=150, deadline=None)
@given(mixed_matrices(), st.booleans(), st.data())
def test_integer_map_rows_are_ranked_as_given(matrix, zeros, data):
    # maps of ints that carry common factors, with zero entries kept or not
    ncols, rows = matrix
    maps = [integer_map(r, data.draw(factors), zeros) for r in rows]
    before = [dict(m) for m in maps]
    want = dense_pivot_columns(rows)
    assert linalg.pivot_columns(maps) == want
    assert linalg.rank(maps) == len(want)
    assert [list(m.items()) for m in maps] == [list(m.items()) for m in before]


def test_map_rows_need_ncols():
    # a map row carries no width: the columns past its last key are free
    # only as far as ncols reaches
    assert [linalg.integer_kernel([{0: 1}], n) for n in (1, 2, 3)] == [[], [{1: 1}],
                                                                       [{1: 1}, {2: 1}]]
    assert linalg.integer_kernel([{0: 1, 2: -1}], 3) == [{1: 1}, {0: 1, 2: 1}]
    assert unit_kernel([{0: 1, 2: -1}], 3) == [[F(0), F(1), F(0)], [F(1), F(0), F(1)]]


def fraction_rref_primitive(rows, ncols):
    """Reduced row echelon form by plain Fraction Gauss-Jordan, then each row
    times the lcm of its denominators over the gcd of the result: the unique
    primitive integer rows with positive pivots, as {col: int} maps."""
    rows = [list(r) for r in rows]
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    out = []
    for row in rows[:r]:
        ints = [x * lcm(*(y.denominator for y in row)) for x in row]
        g = gcd(*(int(x) for x in ints))
        out.append({j: int(x) // g for j, x in enumerate(ints) if x})
    return out


@settings(max_examples=150, deadline=None)
@given(mixed_matrices(), st.booleans())
def test_echelon_rows_are_the_primitive_rref(matrix, maps):
    ncols, rows = matrix
    given_rows = [as_map(r) for r in rows] if maps else rows
    assert linalg.echelon_rows(given_rows) == fraction_rref_primitive(rows, ncols)


# ---------- the core's outputs are integers ----------

def fraction_names(source):
    """Line numbers at which `source` names Fraction: as a name, an attribute
    (fractions.Fraction) or an imported alias."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Name) and node.id == "Fraction"
                  or isinstance(node, ast.Attribute) and node.attr == "Fraction"
                  or isinstance(node, ast.ImportFrom) and any(
                      alias.name == "Fraction" for alias in node.names))


def test_scan_finds_a_named_fraction():
    source = ("from fractions import Fraction\nimport fractions\n"
              "x = fractions.Fraction(1)\ny = Fraction(2)\nz = 'Fraction in a string'\n")
    assert fraction_names(source) == [1, 3, 4]


def test_linalg_names_no_fraction():
    # every output of the core is made of ints; a caller that needs a
    # rational vector makes it (tableau.prolong, repthy.construct_rep)
    assert fraction_names(pathlib.Path(linalg.__file__).read_text()) == []


def all_ints(vectors):
    return all(type(j) is int and type(x) is int for v in vectors for j, x in v.items())


@settings(max_examples=150, deadline=None, derandomize=True)
@given(mixed_matrices(), forms, st.data())
def test_integer_kernel_and_echelon_rows_return_only_ints(matrix, form, data):
    ncols, rows = matrix
    given_rows = in_form(rows, ncols, form, data)
    assert all_ints(linalg.integer_kernel(given_rows, ncols))
    assert all_ints(linalg.echelon_rows(given_rows))


# ---------- the row step scales a row only when it must ----------

def test_a_ratio_of_minus_one_is_an_addition():
    # piv[0] / row[0] = -1: row + piv, and no entry off piv's support moves
    row, piv = {0: 3, 1: 5, 2: 7, 4: -9}, {0: -3, 2: 1, 3: 2}
    linalg._eliminate(row, piv, 0)
    assert row == {1: 5, 2: 8, 3: 2, 4: -9}


def test_a_ratio_of_one_keeps_the_rows_common_factor():
    # row - piv has gcd 2, and is not divided by it
    row, piv = {0: 2, 1: 4}, {0: 2, 1: 2, 2: 6}
    linalg._eliminate(row, piv, 0)
    assert row == {1: 2, 2: -6}


def test_a_scaled_row_is_divided_by_its_gcd():
    # a/b = 2/3: 2 row - 3 piv = {1: -4}, divided by 4 (and the sign stays)
    row, piv = {0: 3, 1: 1}, {0: 2, 1: 2}
    linalg._eliminate(row, piv, 0)
    assert row == {1: -1}
    # a/b = -2/3 has a = 2 after the sign goes into b: 2 row + 3 piv
    row, piv = {0: 3, 1: 1}, {0: -2, 1: 2}
    linalg._eliminate(row, piv, 0)
    assert row == {1: 1}


def test_reduced_makes_each_row_primitive_once():
    # the forward pass leaves row 2 - row 1 = {1: 2, 2: 2} with its factor 2;
    # the back pass divides it before it clears row 1
    rows = [{0: 1, 1: 1}, {0: 1, 1: 3, 2: 2}]
    assert linalg._echelon([dict(r) for r in rows]) == [(0, {0: 1, 1: 1}), (1, {1: 2, 2: 2})]
    assert linalg._reduced([dict(r) for r in rows]) == [(0, {0: 1, 2: -1}), (1, {1: 1, 2: 1})]


@settings(max_examples=150, deadline=None)
@given(mixed_matrices(), st.data())
def test_reduced_rows_are_primitive_with_positive_pivots(matrix, data):
    # integer map rows that carry common factors and either sign
    ncols, rows = matrix
    maps = [m for m in (integer_map(r, data.draw(factors), False) for r in rows) if m]
    reduced = linalg._reduced(maps)
    pivots = [c for c, _ in reduced]
    assert pivots == dense_pivot_columns(rows)
    for c, row in reduced:
        assert row[c] > 0 and gcd(*row.values()) == 1
        assert min(row) == c and not set(row) & set(pivots) - {c}


def per_update_gcd_step(row, piv, c):
    """The row step as it was: a * row - b * piv for any sign of a, then always
    divided by the gcd of its entries."""
    g = gcd(piv[c], row[c])
    a, b = piv[c] // g, row[c] // g
    if a != 1:
        for j in row:
            row[j] *= a
    for j, x in piv.items():
        y = row.get(j, 0) - b * x
        if y:
            row[j] = y
        else:
            row.pop(j, None)
    g = gcd(*row.values())
    if g > 1:
        for j in row:
            row[j] //= g


def longest_entry(rows, step):
    """The most bits of any entry _echelon meets on `rows`, with `step` as its row step."""
    rows = [dict(r) for r in rows]
    top = max(abs(x).bit_length() for r in rows for x in r.values())

    def measured(row, piv, c):
        nonlocal top
        step(row, piv, c)
        top = max([top] + [abs(x).bit_length() for x in row.values()])
    real = linalg._eliminate
    linalg._eliminate = measured
    try:
        linalg._echelon(rows)
    finally:
        linalg._eliminate = real
    return top


nonzero_entries = st.integers(-50, 50).filter(bool)


@st.composite
def integer_matrices(draw):
    ncols = draw(st.integers(1, 8))
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        if draw(st.booleans()):
            rows.append({j: draw(nonzero_entries) for j in range(ncols)})
        else:
            cols = draw(st.sets(st.integers(0, ncols - 1), min_size=1))
            rows.append({j: draw(nonzero_entries) for j in sorted(cols)})
    return rows


# the most bits by which the row step's longest entry outgrew the
# per-update-gcd step's, over 20,000 derandomized draws of integer_matrices
GROWTH_SLACK_BITS = 8


@settings(max_examples=200, deadline=None, derandomize=True)
@given(integer_matrices())
def test_entry_growth_stays_near_the_per_update_gcd_step(rows):
    # An update with a = 1 is not divided by its gcd, so entries may keep a
    # common factor until the next scaled update or _reduced divides it out;
    # they grow only additively meanwhile.  Dropping the gcd of the scaled
    # updates too is not an option: on seeded dense matrices with entries up
    # to +-50 it grew the longest entry from 272 to 4,786 bits (40 x 80),
    # from 424 to 11,513 (60 x 150) and from 747 to 34,470 (100 x 300).
    got = longest_entry(rows, linalg._eliminate)
    assert got <= longest_entry(rows, per_update_gcd_step) + GROWTH_SLACK_BITS
    # nor does any entry exceed Hadamard's bound on the minors of the matrix
    bound = 1
    for row in rows:
        bound *= isqrt(sum(x * x for x in row.values())) + 1
    assert got <= bound.bit_length()


def rescaled_entries(run, monkeypatch):
    """How many entries off the pivot row's support _eliminate changes while run() runs."""
    changed = 0
    real = linalg._eliminate

    def counted(row, piv, c):
        nonlocal changed
        before = [(j, x) for j, x in row.items() if j not in piv]
        real(row, piv, c)
        changed += sum(row.get(j) != x for j, x in before)
    with monkeypatch.context() as m:
        m.setattr(linalg, "_eliminate", counted)
        run()
    return changed


def test_row_step_work_on_dense_segre_and_the_c2_oracle(monkeypatch):
    # a work count, not a timing: the entries off the pivot row's support that
    # the row step rewrites, which were 16,869 for Cartan's test on the seeded
    # dense Seg(P2 x P2) and 8,185 for the C2 V(1,1) {1, 2} oracle when every
    # update with a != 1 (a = -1 among them) multiplied the row and every
    # update was divided by its gcd
    f2, n, a = segre_2x2()
    t = stabilizer_and_tableau(dense_basis(f2, n, a, random.Random(0)), n, a).tableau_r_perp
    assert rescaled_entries(lambda: is_involutive(t), monkeypatch) <= 12_299
    marking = ParabolicMarking(parse_type("C2"), {1, 2})

    def oracle():
        return cohomology.h1_report(marking, (1, 1), -1, oracle=True)
    # once first, so the cached companion root systems are built
    oracle()
    assert rescaled_entries(oracle, monkeypatch) <= 1_319
