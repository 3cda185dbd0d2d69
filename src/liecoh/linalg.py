"""Exact rational linear algebra on sparse integer rows, with integer outputs.

A matrix is a list of rows.  A row is either a {col: x} map of its nonzero
entries or a dense list; entries are ints or fractions.  Every result is
made of ints: pivots, ranks, and rows and kernel vectors as {col: int}
maps.  A caller that needs a rational vector divides by the entry it
normalizes, as tableau.prolong does.  _integer_rows is the package's single
scaling step: it scales each row to integers by the lcm of its denominators
(a row of ints is only copied), divides it by the gcd of its entries and
keeps only the nonzeros.  Scaling a row changes neither the rank,
the kernel nor the row space.  rank and pivot_columns return no rows, so a
row that is already a map of nonzero ints is only copied for them, not
rescaled: the elimination divides a row by its gcd only where that pays, as
it becomes a pivot row, after an update that scaled it, and once more before
the back pass uses it.  Map rows carry no width, so integer_kernel takes
`ncols`.  Everything is computed over Q, so results are reproducible bit
for bit.

There is one row step, _eliminate: it clears a column of a row with a pivot
row by a fraction-free integer update, a * row - b * piv with a > 0.  Only a
row that was scaled (a > 1) is divided by the gcd of its entries; with
a = 1, as in most of the oracle's updates, the update touches only the pivot
row's support and grows entries additively.  _echelon runs it forward:
column by column, column c is a pivot iff it lies outside the span of the
columns left of it (pivot_columns), and inside a column the pivot is the
candidate row with the fewest nonzeros; only rows with a nonzero entry in
the pivot column are touched.  Every rank and pivot set comes from it.
_reduced runs the same step back: from the last pivot up it divides each
row by its gcd, makes its pivot positive and clears its pivot column from
the rows above, which gives the reduced echelon form, canonical for the
span.  Every kernel vector and echelon basis is read off that form entry by
entry, with no further elimination: a kernel vector as the primitive integer
vector on its line (integer_kernel), an echelon row as it stands
(echelon_rows).  The reduced rows of a matrix whose columns are vectors
also give a greedy independent subset of them, the pivots, and the
coordinates of every vector in that subset, each entry over its row's pivot
entry (repthy.construct_rep reads them so).

Every function here eliminates in the caller's column order, and
pivot_columns returns pivots in it.  That order carries meaning: Cartan's
flag search reads the rank of each prefix of columns off pivot_columns
(tableau._flag_dims), and a kernel vector is named by its free column.  A
caller that wants only ranks relabels its columns itself, as the oracle
does (sparsest first, cohomology._sparsest_first).  Relabelling inside rank
instead, for every caller, made the rank calls of Cartan's test on the
seeded dense tableaux about a quarter slower (4.8 to 6.0 ms a pass, 2-core
host): its dense rows gain nothing from the new order and pay for the
relabel.
"""

from heapq import heapify, heappop, heappush
from math import gcd, lcm


def _integer_rows(rows):
    """Each nonzero row as a primitive {col: int} map of its nonzeros.

    A row is scaled by the lcm of its denominators (a row of ints is copied
    as it is) and divided by the gcd of the result, so it keeps its line;
    zero rows are dropped.
    """
    out = []
    for row in rows:
        nz = [(j, x) for j, x in (row.items() if isinstance(row, dict) else enumerate(row))
              if x]
        if not nz:
            continue
        if all(type(x) is int for _, x in nz):
            ints = dict(nz)
        else:
            den = lcm(*(x.denominator for _, x in nz))
            ints = {j: x.numerator * (den // x.denominator) for j, x in nz}
        g = gcd(*ints.values())
        out.append(ints if g == 1 else {j: x // g for j, x in ints.items()})
    return out


def _eliminate(row, piv, c):
    """Clear column c of `row` (in place) with the pivot row `piv`.

    With a/b = piv[c]/row[c] in lowest terms and a > 0 (the sign goes into
    b), row becomes a * row - b * piv; cancelled entries are dropped, so a
    row in the span of piv ends up empty.  Only when a > 1 is the row
    multiplied, and only then divided by the gcd of its entries: with a = 1
    the entries off piv's support are left as they are.  So a row that came
    in primitive need not leave so; _reduced makes the rows primitive.
    """
    g = gcd(piv[c], row[c])
    a, b = piv[c] // g, row[c] // g
    if a < 0:
        a, b = -a, -b
    if a != 1:
        for j in row:
            row[j] *= a
    for j, x in piv.items():
        y = row.get(j, 0) - b * x
        if y:
            row[j] = y
        else:
            row.pop(j, None)
    if a != 1:
        g = gcd(*row.values())
        if g > 1:
            for j in row:
                row[j] //= g


def _echelon(rows):
    """Echelon form of nonzero integer map rows (consumed).

    Returns [(pivot column, row)] in increasing pivot order; each row is
    zero left of its pivot column, with its scale as the elimination left
    it.  A pivot row is divided by its gcd before it clears other rows, so
    rows that come in unscaled (from rank and pivot_columns) or that an
    update with a = 1 left with a common factor are eliminated as primitive
    ones are.  The scale of a row changes no pivot and, with the
    fewest-nonzeros rule, no choice of pivot row.
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
        if len(group) > 1:
            g = gcd(*piv.values())
            if g > 1:
                for j in piv:
                    piv[j] //= g
        for row in group:
            if row is piv:
                continue
            _eliminate(row, piv, c)
            if not row:
                continue
            lead = min(row)
            if lead in by_lead:
                by_lead[lead].append(row)
            else:
                by_lead[lead] = [row]
                heappush(leads, lead)
        out.append((c, piv))
    return out


def _reduced(rows):
    """Reduced echelon form of nonzero integer map rows (consumed).

    The pivots and rows of _echelon, each row now primitive, positive at its
    pivot and zero at every other row's pivot: the unique primitive integer
    reduced echelon basis of the span.  From the last pivot up, a row is
    final once the rows below have cleared it; it is then divided by its
    gcd and its sign fixed, once, before it clears the rows above.
    """
    echelon = _echelon(rows)
    for k in range(len(echelon) - 1, -1, -1):
        c, piv = echelon[k]
        g = gcd(*piv.values())
        if piv[c] < 0:
            g = -g
        if g != 1:
            for j in piv:
                piv[j] //= g
        for _, row in echelon[:k]:
            if c in row:
                _eliminate(row, piv, c)
    return echelon


def echelon_rows(rows):
    """The primitive integer reduced echelon basis of the row space, canonical for it.

    One {col: int} row per pivot, in increasing pivot order, so
    len(echelon_rows(rows)) is the rank.  Each row is zero left of its pivot
    column and at every other row's pivot, its pivot entry is positive and
    its entries have gcd 1; any two bases of one span give identical rows.
    """
    return [row for _, row in _reduced(_integer_rows(rows))]


def pivot_columns(rows):
    """Pivot columns of the echelon form, in increasing order.

    Column c is a pivot iff it is not in the span of columns 0..c-1, so the
    rank of the first k columns is the number of pivots below k.

    A row that is a map of nonzero ints is only copied, with no gcd
    division: the scale of a row changes no pivot, and _echelon divides a
    pivot row by its gcd before it clears others.  (A sum of
    ints is an int; a sum with a fraction in it is a fraction.)  Empty maps
    are dropped, and any other row goes through _integer_rows.
    """
    ints = []
    for row in rows:
        if type(row) is dict and all(row.values()) and type(sum(row.values())) is int:
            if row:
                ints.append(dict(row))
        else:
            ints += _integer_rows([row])
    return [c for c, _ in _echelon(ints)]


def rank(rows):
    """Rank over Q, computed exactly."""
    return len(pivot_columns(rows))


def integer_kernel(rows, ncols):
    """Basis of {v : M v = 0} as primitive integer {col: int} maps; ncols - rank of them.

    There is one vector per free (non-pivot) column f, in increasing order
    of f.  It is primitive, positive at f, 0 at every other free column and
    0 at every column after f, so f is its last key; its keys increase.  So
    the coordinates of a kernel vector in this basis are its entries at the
    free columns over the basis vectors' entries there, and vector f over
    its entry at f is the unique kernel vector with 1 at f and 0 at the
    other free columns.
    """
    reduced = _reduced(_integer_rows(rows))
    pivots = {c for c, _ in reduced}
    # a reduced row p x_c + sum_f row[f] x_f = 0 gives x_c = -row[f] / p at
    # x_f = 1; vector f is scaled by the lcm of the denominators of these x_c
    # in lowest terms, so it is integral, and primitive: at each prime, some
    # x_c's denominator carries the scale's full power
    scale = {f: 1 for f in range(ncols) if f not in pivots}
    for c, row in reduced:
        p = row[c]
        if p != 1:
            for f, x in row.items():
                if f != c:
                    scale[f] = lcm(scale[f], p // gcd(x, p))
    basis = {f: {} for f in scale}
    for c, row in reduced:
        p = row[c]
        for f, x in row.items():
            if f != c:
                basis[f][c] = -x * scale[f] // p
    for f, vec in basis.items():
        vec[f] = scale[f]
    return list(basis.values())
