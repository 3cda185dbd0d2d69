"""Exact rational dense linear algebra.

Matrices are lists of rows, entries Fraction or int.  Callers that already
hold integer rows should pass them as they are: each row is scaled to
integers by the lcm of its denominators, which is the identity on integer
rows.  Everything is computed over Q, so results are reproducible bit for
bit.

_row_echelon_int is the package's only row reduction: every rank, kernel,
independent subset, intersection and inverse in liecoh comes from it.  It is
fraction-free (Bareiss) on integer-scaled rows, which is much faster than
naive Fraction Gaussian elimination for the matrix sizes that show up here.
Its pivot rule is the first nonzero entry, column by column (pivot_columns).
Back-substitution (_back_substitute) also runs on integers, over one common
denominator per solution, so a Fraction is made only for each entry
returned.
"""

from fractions import Fraction
from math import gcd, lcm


def zeros(n, m):
    return [[Fraction(0)] * m for _ in range(n)]


def identity(n):
    M = zeros(n, n)
    for i in range(n):
        M[i][i] = Fraction(1)
    return M


def transpose(M):
    return [list(col) for col in zip(*M)] if M else []


def matmul(A, B):
    if not A or not B:
        return []
    nonzeros = [[(j, x) for j, x in enumerate(row) if x] for row in B]
    C = zeros(len(A), len(B[0]))
    for Ai, Ci in zip(A, C):
        for a, Bt in zip(Ai, nonzeros):
            if a:
                for j, x in Bt:
                    Ci[j] += a * x
    return C


def mat_vec(M, v):
    return [sum((a * b for a, b in zip(row, v) if a and b), Fraction(0)) for row in M]


def _scaled_int_rows(rows):
    """Scale each row by the lcm of denominators; returns integer rows.

    Row scaling preserves rank, kernel and row space.  An int is its own
    numerator over denominator 1, so integer rows come back as copies.
    """
    out = []
    for row in rows:
        den = lcm(*(x.denominator for x in row))
        if den == 1:
            out.append([x.numerator for x in row])
        else:
            out.append([x.numerator * (den // x.denominator) for x in row])
    return out


def _row_echelon_int(M):
    """In-place fraction-free (Bareiss) echelon reduction of integer rows.

    Returns (pivot_cols, rank).  Pivots are the first nonzero entry in each
    column sweep, so the reduction is deterministic.
    """
    if not M or not M[0]:
        return [], 0
    nr, nc = len(M), len(M[0])
    piv_cols = []
    r = 0
    prev = 1
    for c in range(nc):
        piv = None
        for i in range(r, nr):
            if M[i][c]:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            M[r], M[piv] = M[piv], M[r]
        pivot = M[r][c]
        for i in range(r + 1, nr):
            if any(M[i][c:]):
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


def pivot_columns(rows):
    """Pivot columns of the echelon form, in increasing order.

    Column c is a pivot iff it is not in the span of columns 0..c-1, so the
    rank of the first k columns is the number of pivots below k.
    """
    return _row_echelon_int(_scaled_int_rows(rows))[0]


def rank(rows):
    """Rank over Q, computed exactly."""
    return len(pivot_columns(rows))


def _back_substitute(M, piv_cols, c):
    """Solve the echelon rows of M for the pivot unknowns left of column c.

    Returns integers x (length c) and den > 0 such that, for each row i of M
    whose pivot is left of c, sum_j M[i][j] x[j] = den * M[i][c]; x is 0 at
    every non-pivot column.  Pivots right of c belong to rows that vanish
    left of c, so their unknowns are 0 and are not returned.
    """
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


def _fractions_over(x, den, n):
    """The vector x / den, zero-padded to length n, as Fractions."""
    zero = Fraction(0)
    return [Fraction(v, den) if v else zero for v in x] + [zero] * (n - len(x))


def kernel_basis(rows, ncols=None):
    """Basis of {v : M v = 0}; exactly ncols - rank vectors.

    There is one vector per free (non-pivot) column f, in increasing order
    of f.  It has 1 at f, 0 at every other free column and 0 at every column
    after f, so f is its last nonzero entry.  The coordinates of any kernel
    vector in this basis are therefore its entries at the free columns.

    `ncols` is needed when `rows` is empty (the zero map).
    """
    if not rows:
        if ncols is None:
            raise ValueError("ncols required for an empty matrix")
        return [unit_vector(ncols, j) for j in range(ncols)]
    nc = len(rows[0])
    M = _scaled_int_rows(rows)
    piv_cols, _ = _row_echelon_int(M)
    piv_set = set(piv_cols)
    basis = []
    for fc in range(nc):
        if fc in piv_set:
            continue
        # M v = 0 with v[fc] = 1: the pivot unknowns solve M x = -M[:, fc]
        x, den = _back_substitute(M, piv_cols, fc)
        basis.append(_fractions_over([-xj for xj in x] + [den], den, nc))
    return basis


def unit_vector(n, j):
    v = [Fraction(0)] * n
    v[j] = Fraction(1)
    return v


def independent_subset(vectors):
    """Indices of a maximal linearly independent subset, chosen greedily.

    Vector k is picked iff it is outside the span of vectors 0..k-1, i.e.
    iff column k of the matrix with these columns is a pivot.
    """
    return pivot_columns(transpose(list(vectors)))


def solve_in_span(span, target):
    """Coefficients c with sum c_i span_i = target, or None if not in span.

    `span` must be linearly independent.
    """
    if not span:
        return [] if not any(target) else None
    n = len(target)
    aug = [[span[c][r] for c in range(len(span))] + [target[r]] for r in range(n)]
    M = _scaled_int_rows(aug)
    piv_cols, r = _row_echelon_int(M)
    if len(span) in piv_cols:
        return None  # inconsistent
    if r != len(span):
        raise ValueError("span is linearly dependent")
    x, den = _back_substitute(M, piv_cols, len(span))
    return _fractions_over(x, den, len(span))


def intersect(span_a, span_b):
    """Basis of span(span_a) & span(span_b).

    Vectors must share ambient dimension; raises ValueError otherwise.
    """
    if not span_a or not span_b:
        return []
    n = len(span_a[0])
    for v in list(span_a) + list(span_b):
        if len(v) != n:
            raise ValueError("ambient dimension mismatch")
    ia = independent_subset(span_a)
    ib = independent_subset(span_b)
    A = [span_a[i] for i in ia]
    B = [span_b[i] for i in ib]
    # columns (A | -B); kernel vectors (x, y) give intersection points A x
    stacked = [[A[c][r] for c in range(len(A))] + [-B[c][r] for c in range(len(B))]
               for r in range(n)]
    out = []
    for k in kernel_basis(stacked, len(A) + len(B)):
        x = k[:len(A)]
        vec = [sum((x[c] * A[c][r] for c in range(len(A)) if x[c]), Fraction(0))
               for r in range(n)]
        out.append(vec)
    # A and B are independent, so (x, y) -> A x is injective on the kernel
    return out
