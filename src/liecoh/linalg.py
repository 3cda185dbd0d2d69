"""Exact rational dense linear algebra.

Matrices are lists of rows, entries Fraction (or int, coerced on the fly).
Everything is computed over Q, so results are reproducible bit for bit.

_row_echelon_int is the package's only row reduction: every rank, kernel,
independent subset, intersection and inverse in liecoh comes from it.  It is
fraction-free (Bareiss) on integer-scaled rows, which is much faster than
naive Fraction Gaussian elimination for the matrix sizes that show up here.
Its pivot rule is the first nonzero entry, column by column (pivot_columns).
"""

from fractions import Fraction
from math import gcd


def frac(x):
    return x if isinstance(x, Fraction) else Fraction(x)


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

    Row scaling preserves rank, kernel and row space.
    """
    out = []
    for row in rows:
        den = 1
        for x in row:
            if isinstance(x, Fraction):
                den = den * x.denominator // gcd(den, x.denominator)
        if den == 1:
            out.append([int(x) for x in row])
        else:
            out.append([int(x * den) for x in row])
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
    piv_cols, r = _row_echelon_int(M)
    piv_set = set(piv_cols)
    basis = []
    for fc in range(nc):
        if fc in piv_set:
            continue
        v = [Fraction(0)] * nc
        v[fc] = Fraction(1)
        # back-substitute through the echelon rows (bottom up)
        for idx in range(r - 1, -1, -1):
            pc = piv_cols[idx]
            if pc > fc:
                continue
            row = M[idx]
            s = sum((Fraction(row[j]) * v[j] for j in range(pc + 1, nc) if row[j] and v[j]),
                    Fraction(0))
            v[pc] = -s / row[pc]
        basis.append(v)
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
    aug = [[frac(span[c][r]) for c in range(len(span))] + [frac(target[r])]
           for r in range(n)]
    M = _scaled_int_rows(aug)
    piv_cols, r = _row_echelon_int(M)
    if len(span) in piv_cols:
        return None  # inconsistent
    if r != len(span):
        raise ValueError("span is linearly dependent")
    coeffs = [Fraction(0)] * len(span)
    for idx in range(r - 1, -1, -1):
        pc = piv_cols[idx]
        row = M[idx]
        s = Fraction(row[len(span)])
        for j in range(pc + 1, len(span)):
            if row[j] and coeffs[j]:
                s -= Fraction(row[j]) * coeffs[j]
        coeffs[pc] = s / row[pc]
    return coeffs


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
    stacked = [[frac(A[c][r]) for c in range(len(A))] +
               [-frac(B[c][r]) for c in range(len(B))] for r in range(n)]
    out = []
    for k in kernel_basis(stacked, len(A) + len(B)):
        x = k[:len(A)]
        vec = [sum((x[c] * A[c][r] for c in range(len(A)) if x[c]), Fraction(0))
               for r in range(n)]
        out.append(vec)
    # A and B are independent, so (x, y) -> A x is injective on the kernel
    return out


def quotient_dim(ambient_dim, subspace):
    """dim(ambient / span(subspace))."""
    for v in subspace:
        if len(v) > ambient_dim:
            raise ValueError("subspace vector longer than ambient dimension")
    if not subspace:
        return ambient_dim
    return ambient_dim - rank(subspace)
