"""Exact rational linear algebra on sparse integer rows.

A matrix is a list of rows.  A row is either a {col: x} map of its nonzero
entries or a dense list; entries are int or Fraction.  Every routine first
scales each row to integers by the lcm of its denominators (the identity on
integer rows) and divides it by the gcd of its entries, keeping only the
nonzeros: that is the package's single scaling step.  Scaling a row changes
neither the rank, the kernel nor the row space.  Map rows carry no width, so
kernel_basis needs `ncols` for them.  Everything is computed over Q, so
results are reproducible bit for bit.

_echelon is the package's only row reduction: every rank, kernel,
independent subset, solve in a span, inverse and echelon basis
(echelon_rows) in liecoh comes from it.  echelon_rows goes on to the reduced
echelon form, canonical for the span: it clears each pivot column from the
rows above with the same fraction-free, gcd-primitive integer steps.
Its pivot rule is column by column: column c is a pivot iff it lies outside
the span of the columns left of it (pivot_columns).  Inside a column the
pivot is the candidate row with the fewest nonzeros; each row it updates is
divided by the gcd of its entries, so rows stay primitive integers and only
rows with a nonzero entry in the pivot column are touched.
Back-substitution (_back_substitute) also runs on integers, over one common
denominator per solution, so a Fraction is made only for each entry
returned.
"""

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm


def integer_rows(rows):
    """Each nonzero row as a primitive {col: int} map of its nonzeros.

    A row is scaled by the lcm of its denominators and divided by the gcd of
    the result, so it keeps its line; zero rows are dropped.
    """
    out = []
    for row in rows:
        nz = [(j, x) for j, x in (row.items() if isinstance(row, dict) else enumerate(row))
              if x]
        if not nz:
            continue
        den = lcm(*(x.denominator for _, x in nz))
        ints = {j: x.numerator * (den // x.denominator) for j, x in nz}
        g = gcd(*ints.values())
        out.append(ints if g == 1 else {j: x // g for j, x in ints.items()})
    return out


def _echelon(rows):
    """Echelon form of primitive integer map rows (consumed).

    Returns [(pivot column, row)] in increasing pivot order; each row is
    zero left of its pivot column.
    """
    by_lead = {}
    for row in rows:
        by_lead.setdefault(min(row), []).append(row)
    leads = list(by_lead)
    heapify(leads)
    out = []
    while leads:
        c = heappop(leads)
        group = by_lead.pop(c)
        piv = min(group, key=len)
        p = piv[c]
        for row in group:
            if row is piv:
                continue
            g = gcd(p, row[c])
            a, b = p // g, row[c] // g
            if a != 1:
                for j in row:
                    row[j] *= a
            for j, x in piv.items():
                y = row.get(j, 0) - b * x
                if y:
                    row[j] = y
                else:
                    row.pop(j, None)
            if not row:
                continue
            g = gcd(*row.values())
            if g != 1:
                for j in row:
                    row[j] //= g
            lead = min(row)
            if lead in by_lead:
                by_lead[lead].append(row)
            else:
                by_lead[lead] = [row]
                heappush(leads, lead)
        out.append((c, piv))
    return out


def echelon_rows(rows):
    """The primitive integer reduced echelon basis of the row space, canonical for it.

    One {col: int} row per pivot, in increasing pivot order, so
    len(echelon_rows(rows)) is the rank.  Each row is zero left of its pivot
    column and at every other row's pivot, its pivot entry is positive and
    its entries have gcd 1; any two bases of one span give identical rows.
    """
    echelon = _echelon(integer_rows(rows))
    # from the last pivot back, clear each pivot column from the rows above
    for k in range(len(echelon) - 1, -1, -1):
        c, piv = echelon[k]
        if piv[c] < 0:
            for j in piv:
                piv[j] = -piv[j]
        p = piv[c]
        for _, row in echelon[:k]:
            if c not in row:
                continue
            g = gcd(p, row[c])
            a, b = p // g, row[c] // g
            for j in row:
                row[j] *= a
            for j, x in piv.items():
                y = row.get(j, 0) - b * x
                if y:
                    row[j] = y
                else:
                    row.pop(j, None)
            g = gcd(*row.values())
            if g != 1:
                for j in row:
                    row[j] //= g
    return [row for _, row in echelon]


def pivot_columns(rows):
    """Pivot columns of the echelon form, in increasing order.

    Column c is a pivot iff it is not in the span of columns 0..c-1, so the
    rank of the first k columns is the number of pivots below k.
    """
    return [c for c, _ in _echelon(integer_rows(rows))]


def rank(rows):
    """Rank over Q, computed exactly."""
    return len(pivot_columns(rows))


def _back_substitute(echelon, c):
    """Solve the echelon rows for the pivot unknowns left of column c.

    Returns x, a {pivot column: int} map of the nonzero unknowns, and den > 0
    such that, for each row whose pivot is left of c, sum_j row[j] x[j] =
    den * row[c]; x is 0 at every non-pivot column.  Pivots right of c
    belong to rows that vanish left of c, so their unknowns are 0.
    """
    x = {}
    den = 1
    for pc, row in reversed(echelon):
        if pc >= c:
            continue
        s = den * row.get(c, 0) - sum(v * x[j] for j, v in row.items() if j in x)
        p = row[pc]
        g = gcd(s, p)
        if p < 0:
            g = -g
        s, p = s // g, p // g
        if p != 1:
            den *= p
            for j in x:
                x[j] *= p
        if s:
            x[pc] = s
    return x, den


def _fractions_over(x, den, n):
    """The vector x / den, x a {col: int} map, as n Fractions."""
    vec = [Fraction(0)] * n
    for j, v in x.items():
        vec[j] = Fraction(v, den)
    return vec


def kernel_basis(rows, ncols=None):
    """Basis of {v : M v = 0}; exactly ncols - rank vectors.

    There is one vector per free (non-pivot) column f, in increasing order
    of f.  It has 1 at f, 0 at every other free column and 0 at every column
    after f, so f is its last nonzero entry.  The coordinates of any kernel
    vector in this basis are therefore its entries at the free columns.

    `ncols` is needed when `rows` is empty (the zero map) or made of maps.
    """
    if ncols is None:
        if not rows or isinstance(rows[0], dict):
            raise ValueError("ncols required for an empty or sparse matrix")
        ncols = len(rows[0])
    echelon = _echelon(integer_rows(rows))
    pivots = {c for c, _ in echelon}
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        # M v = 0 with v[fc] = 1: the pivot unknowns solve M x = -M[:, fc]
        x, den = _back_substitute(echelon, fc)
        x = {j: -v for j, v in x.items()}
        x[fc] = den
        basis.append(_fractions_over(x, den, ncols))
    return basis


def _columns(vectors):
    """Map rows of the matrix whose k-th column is vectors[k] (lists or maps)."""
    rows = {}
    for k, v in enumerate(vectors):
        for r, x in (v.items() if isinstance(v, dict) else enumerate(v)):
            if x:
                rows.setdefault(r, {})[k] = x
    return list(rows.values())


def independent_subset(vectors):
    """Indices of a maximal linearly independent subset, chosen greedily.

    Vector k is picked iff it is outside the span of vectors 0..k-1, i.e.
    iff column k of the matrix with these columns is a pivot.
    """
    return pivot_columns(_columns(vectors))


def solve_in_span(span, target):
    """Coefficients c with sum c_i span_i = target, or None if not in span.

    `span` must be linearly independent.
    """
    k = len(span)
    echelon = _echelon(integer_rows(_columns(list(span) + [target])))
    if echelon and echelon[-1][0] == k:
        return None  # inconsistent
    if len(echelon) != k:
        raise ValueError("span is linearly dependent")
    x, den = _back_substitute(echelon, k)
    return _fractions_over(x, den, k)

