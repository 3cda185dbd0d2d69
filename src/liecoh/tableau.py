"""Tableaux of linear Pfaffian systems: prolongation, characters, involutivity.

A tableau is a subspace A of W (x) V*, given by basis matrices (rows W,
columns V).  Elements of A (x) V* are W-valued bilinear maps on V; the
Spencer map delta skew-symmetrizes, its kernel is the prolongation A^(1).
Cartan's test compares dim A^(1) against the sum of the flag-intersected
dimensions A_j for a generic flag; equality is involutivity.

Dimensions come from ranks: dim A^(1) = n dim A - rank delta and the torsion
dimension is dim W (x) Lambda^2 V* - rank delta, by rank-nullity (delta is
eliminated once per tableau, its V* blocks reversed so that each row leads
with its sparse side, Tableau.delta_rank), and the reduced prolongation from
the ranks of the bracket image and its skew part.  A basis of A^(1) is built
(prolong) only when a caller asks for its vectors: the integer kernel of
delta, each vector over its entry at its free column.  The stabilizer
tableau of a quadratic form is built on ints: F2 is scaled to integers on
entry, its stabilizer and complement are integer kernels, the echelon is
read off the sparse images of the unit vectors, and a Fraction is made only
for each entry of the basis (stabilizer_and_tableau).
A tableau keeps the primitive integer reduced echelon rows of its basis,
given as sparse maps (Tableau.echelon), from its independence check; they
are canonical for the span, so any basis of A gives the same rows.  Ranks
that depend only on the span of A -- the characters, rank delta and the
membership check of reduced_prolongation -- are taken on those rows: an
echelon row, W-row-major, is zero on every W-row above its pivot, so each
flag and delta block is a staircase instead of dense, and zero at every
other row's pivot, which keeps it sparse.  prolong and
prolongation_bilinear keep the caller's basis, on which their coefficient
vectors depend.  The flag search has one evaluator for every candidate, the
standard flag and then seeded random ones: sparse integer products and one
pivot elimination per flag (_flag_dims).  The sweep stops at the first flag
that attains Cartan's equality, whose characters are then the generic ones
(cartan_characters).
"""

import itertools
import json
import random
from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm

from . import linalg
from .errors import InternalCheckError

FLAG_SEED = 7
RANDOM_FLAG_COUNT = 16
# the larger side of delta a tableau read from JSON may have (tableau_from_json)
DELTA_SIDE_MAX = 10_000


def _dimension(x):
    """x when it is a positive int; ValueError otherwise."""
    if isinstance(x, bool) or not isinstance(x, int) or x < 1:
        raise ValueError(f"tableau dimensions must be positive integers, got {x!r}")
    return x


@dataclass
class Tableau:
    """A tableau by its basis matrices; the basis is fixed once it is built.

    `echelon` is a second basis of A: the primitive integer reduced echelon
    rows of the flattened basis, {w * n + i: int} maps (n = dim V) in
    increasing pivot order with positive pivots, one per basis matrix.  It
    is canonical for the span: any basis of A gives the same rows.

    `spanning`, init-only, is a spanning set of A as {w * n + i: x} maps,
    for a caller that holds one sparser than the basis; the echelon is then
    read off it instead of off the basis.  The caller vouches that the basis
    lies in its span and is independent, as stabilizer_and_tableau proves
    for its own; the count check then makes the echelon a basis of the
    span of the basis.
    """
    dim_V: int
    dim_W: int
    basis: list  # list of dim_W x dim_V matrices, linearly independent
    echelon: list = field(init=False, repr=False, compare=False)
    spanning: InitVar[list | None] = None

    def __post_init__(self, spanning):
        _dimension(self.dim_V)
        _dimension(self.dim_W)
        for M in self.basis:
            if len(M) != self.dim_W or any(len(row) != self.dim_V for row in M):
                raise ValueError("basis matrix has wrong shape")
        self.echelon = linalg.echelon_rows(map(self.sparse, self.basis) if spanning is None
                                           else spanning)
        if len(self.echelon) != len(self.basis):
            raise ValueError("tableau basis is linearly dependent")

    def flatten(self, M):
        return [Fraction(x) for row in M for x in row]

    def sparse(self, M):  # the nonzero entries as a {w * n + i: x} map, n = dim V
        return {w * self.dim_V + i: x for w, r in enumerate(M) for i, x in enumerate(r) if x}

    @property
    def dim(self):
        return len(self.basis)

    @cached_property
    def delta_rank(self):
        """rank delta, eliminated once per tableau for every dimension read from it.

        delta is built on the echelon basis, as its rank depends only on the
        span of A.  Its V* blocks run in reverse order, (a, j) -> (n - 1 - j)
        dim A + a, so row (w, i, j), i < j, leads with M_a[w][i] (block j),
        the smaller V index, where echelon rows, zero left of their pivots in
        the pivot's W-row, are sparse (22, 81, 126, 180 nonzeros at i = 0..3
        on the bench's seeded Seg(P2 x P2)), before -M_a[w][j] (block i).
        """
        n, d = self.dim_V, self.dim
        return linalg.rank([{(n - 1 - k % n) * d + k // n: x for k, x in row.items()}
                            for row in _delta_matrix(self.echelon, n, self.dim_W)])


def full_tableau(dim_V, dim_W):
    return Tableau(dim_V, dim_W, [[[Fraction(int(r == w and c == v)) for c in range(dim_V)]
                                   for r in range(dim_W)]
                                  for w in range(dim_W) for v in range(dim_V)])


def zero_tableau(dim_V, dim_W):
    return Tableau(dim_V, dim_W, [])


def cauchy_riemann_tableau():
    """n = 2, W two-dimensional, A = {[[a, b], [-b, a]]}."""
    return Tableau(2, 2, [
        [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]],
        [[Fraction(0), Fraction(1)], [Fraction(-1), Fraction(0)]],
    ])


def _delta_matrix(mats, n, dim_W):
    """Sparse rows of the skew-symmetrization A (x) V* -> W (x) Lambda^2 V*.

    `mats` are a basis M_a of A as {w * n + i: x} maps, n = dim V.  Columns
    follow the basis (a, j) of A (x) V* (a-major); rows follow (w, i < j) of
    W (x) Lambda^2 V*.  Column (a, j0) is the skew part of
    B(v_i, v_j) = M_a[:, i] delta(j == j0), so row (w, i, j) holds M_a[w][i]
    in column (a, j) and -M_a[w][j] in column (a, i).
    """
    rows = {(w, i, j): {} for w in range(dim_W) for i in range(n) for j in range(i + 1, n)}
    for a, M in enumerate(mats):
        for k, x in M.items():
            w, i = divmod(k, n)
            for j in range(i + 1, n):
                rows[w, i, j][a * n + j] = x
            for j in range(i):
                rows[w, j, i][a * n + j] = -x
    return list(rows.values())


def prolong(t):
    """Basis of A^(1) = (A (x) V*) cap (W (x) S^2 V*).

    Returned as coefficient vectors over the (a, j) basis of A (x) V*, a
    running over the caller's basis; use prolongation_bilinear to expand one
    into a symmetric W-valued form.
    """
    n = t.dim_V
    basis = []
    for vec in linalg.integer_kernel(_delta_matrix(map(t.sparse, t.basis), n, t.dim_W),
                                     t.dim * n):
        scale = vec[max(vec)]  # 1 at the free column, so coefficients are unique
        v = [Fraction(0)] * (t.dim * n)
        for j, x in vec.items():
            v[j] = Fraction(x, scale)
        basis.append(v)
    return basis


def prolongation_bilinear(t, coeffs):
    """Expand an A^(1) coefficient vector into B[w][i][j], symmetric in (i, j)."""
    n, w = t.dim_V, t.dim_W
    B = [[[Fraction(0)] * n for _ in range(n)] for _ in range(w)]
    for a, M in enumerate(t.basis):
        for j0 in range(n):
            c = coeffs[a * n + j0]
            if c:
                for wi in range(w):
                    for i in range(n):
                        if M[wi][i]:
                            B[wi][i][j0] += c * M[wi][i]
    for wi in range(w):
        for i in range(n):
            for j in range(n):
                if B[wi][i][j] != B[wi][j][i]:
                    raise InternalCheckError("prolongation element is not symmetric")
    return B


def prolongation_dim(t):
    """dim A^(1) = n dim A - rank delta, by rank-nullity."""
    return t.dim_V * t.dim - t.delta_rank


def _flag_dims(mats, dim_W, flag):
    """dim A_j for j = 1..n-1 along the ordered flag basis of V.

    `mats` are a basis of A as {w * n + i: x} maps, n = dim V.
    A_j kills the first j flag vectors, so dim A_j is dim A minus the rank
    of the first j column blocks (width dim_W) of the rows below, whose
    entry (f, w) is M[w] . flag[f].
    """
    n = len(flag)
    by_col = [[(f * dim_W, v[i]) for f, v in enumerate(flag[:-1]) if v[i]] for i in range(n)]
    rows = []
    for M in mats:
        row = {}
        for k, x in M.items():
            w, i = divmod(k, n)
            for base, y in by_col[i]:
                row[base + w] = row.get(base + w, 0) + x * y
        rows.append(row)
    pivots = linalg.pivot_columns(rows)
    return [len(mats) - sum(1 for c in pivots if c < j * dim_W)
            for j in range(1, len(flag))]


def _random_flags(n, seed):
    """RANDOM_FLAG_COUNT seeded draws of n x n integer flags; the singular ones are skipped."""
    rng = random.Random(seed)
    for _ in range(RANDOM_FLAG_COUNT):
        flag = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        if linalg.rank(flag) == n:
            yield flag


def cartan_characters(t, seed=FLAG_SEED):
    """[dim A_0, ..., dim A_{n-1}] for a character-maximizing generic flag.

    The candidates are the standard flag (the standard basis of V, in order)
    and then seeded random integer flags; each goes through _flag_dims, and
    the answer is the lexicographic minimum of (dim A_1, ..., dim A_{n-1})
    over the candidates.  The standard flag is invertible, so there is always
    a candidate, and for n = 1 it gives no dims: the answer is [dim A].

    The sweep stops at the first candidate with dim A + sum_j dim A_j =
    dim A^(1).  That candidate's dims are the full sweep's answer: Cartan's
    inequality dim A^(1) <= dim A + sum_j dim A_j holds for every flag, and
    a generic flag G minimizes every dim A_j at once (each is dim A minus a
    rank that is maximal on a dense open set of flags).  If a candidate F
    attains the equality, then dim A_j(G) <= dim A_j(F) for every j while
    dim A^(1) <= dim A + sum_j dim A_j(G) <= dim A + sum_j dim A_j(F) =
    dim A^(1), so F has the generic dims.  These are componentwise, hence
    lexicographically, at most those of every other candidate.  A
    non-involutive tableau attains no equality and runs through every
    candidate.
    """
    n = t.dim_V
    standard = [[int(i == j) for i in range(n)] for j in range(n)]
    dim_p = prolongation_dim(t)
    best = None
    # every dim A_j depends only on the span of A, so the flags act on its echelon rows
    for flag in itertools.chain([standard], _random_flags(n, seed)):
        dims = _flag_dims(t.echelon, t.dim_W, flag)
        if best is None or dims < best:
            best = dims
        if dim_p == t.dim + sum(dims):
            break
    return [t.dim] + best


@dataclass
class InvolutivityReport:
    dim_A: int
    characters: list      # dim A_j, j = 0..n-1
    dim_prolongation: int
    bound: int            # sum of characters
    involutive: bool
    character_of_generality: int | None  # r with A_{r-1} != A_r = A_{r+1}
    generality_dim: int | None           # s_r = dim A_{r-1} - dim A_r


def is_involutive(t, seed=FLAG_SEED):
    """Cartan's test: dim A^(1) <= sum_j dim A_j, involutive iff equality.

    `involutive` True is a proof: the sampled flag attains Cartan's equality,
    so it is generic and A is involutive.  False proves non-involutivity only
    if the best sampled flag is generic; the candidates are the standard flag
    and finitely many seeded random flags, and none of them is certified
    generic, so a strict inequality may come from a flag that is not.
    """
    chars = cartan_characters(t, seed)
    dim_p = prolongation_dim(t)
    bound = sum(chars)
    if dim_p > bound:
        raise InternalCheckError("Cartan inequality violated; flag search is broken")
    dims = chars + [0]
    r = None
    for j in range(len(dims) - 1, 0, -1):
        if dims[j - 1] > dims[j]:
            r = j
            break
    return InvolutivityReport(
        dim_A=t.dim,
        characters=chars,
        dim_prolongation=dim_p,
        bound=bound,
        involutive=dim_p == bound,
        character_of_generality=r,
        generality_dim=None if r is None else dims[r - 1] - dims[r],
    )


def torsion_quotient_dim(t):
    """dim of W (x) Lambda^2 V* / delta(A (x) V*) = full - rank delta."""
    n, w = t.dim_V, t.dim_W
    full = w * n * (n - 1) // 2
    return full - t.delta_rank


# ---------- the second-order tableau of a quadratic form ----------

@dataclass
class StabilizerPair:
    dim_r: int
    tableau_r_perp: Tableau


def stabilizer_and_tableau(f2, dim_T, dim_N):
    """Stabilizer of F2 in gl(L) + gl(T) + gl(N) and the complement tableau.

    f2[mu][i][j] (symmetric in i, j; ints or Fractions) are the components of
    F2 in L (x) S^2 T* (x) N with the one-dimensional L factor trivialized.
    The stabilizer r is the exact kernel of the Leibniz action phi on the
    block space Q^N.  F2 is scaled to integers on entry by the lcm of its
    denominators, `scale`, so the unit images phi(e_b) and the action sum
    ints, and r and its complement perp (the trace-form complement, r^perp)
    are integer kernel vectors; a Fraction is made only for each tableau
    entry, the image of a complement vector over its free-column entry.
    perp maps into W (x) V* with V = L* (x) T and
    W = (L* (x) N) + (T* (x) N), the L* (x) N rows landing in the first
    derived system (identically zero columns).

    The tableau A = phi(Q^N) is spanned by the sparse unit images, and its
    echelon is read off them; its basis phi(perp) is not eliminated.  That
    basis is independent by exact checks, each an InternalCheckError.  r
    annihilates F2, so span(r) lies in ker phi.  len(r) + len(perp) = N.  r
    and perp are each independent: each vector is nonzero at its last column
    and zero at the others' (integer kernel vectors are so).  Every perp
    vector is orthogonal to r, so span(perp) meets span(r) only in 0, the
    dot product being positive definite on Q^N.  rank phi = len(echelon) =
    len(perp) (the tableau's count check), so dim ker phi = N - len(perp) =
    len(r) and ker phi = span(r).  So phi is injective on span(perp), and
    phi(perp) is a basis of A.
    """
    n, a = _dimension(dim_T), _dimension(dim_N)
    if len(f2) != a or any(len(m) != n or any(len(r) != n for r in m) for m in f2):
        raise ValueError("f2 has inconsistent block dimensions")
    entries = [x for m in f2 for row in m for x in row]
    for x in entries:
        if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
            raise ValueError(f"f2 entries must be ints or Fractions, got {x!r}")
    scale = lcm(*(x.denominator for x in entries))
    f2 = [[[x.numerator * (scale // x.denominator) for x in row] for row in m] for m in f2]
    for mu in range(a):
        for i in range(n):
            for j in range(n):
                if f2[mu][i][j] != f2[mu][j][i]:
                    raise ValueError("f2 is not symmetric")

    dim_block = 1 + n * n + a * a
    images = _unit_images(f2, n, a)

    def action(x):
        """x = (xL, xT, xN) flattened, a {b: int} map; scale x.F2 as {(mu, i, j): int}."""
        out = {}
        for b, c in x.items():
            for key, v in images[b].items():
                out[key] = out.get(key, 0) + c * v
        return {key: v for key, v in out.items() if v}

    # r = kernel of the action, as integer row vectors in the block space
    r_basis = linalg.integer_kernel([{b: img[key] for b, img in enumerate(images) if key in img}
                                     for key in ((mu, i, j) for mu in range(a) for i in range(n)
                                                 for j in range(i, n))], dim_block)
    # verify annihilation exactly
    for v in r_basis:
        if action(v):
            raise InternalCheckError("stabilizer element does not annihilate the form")
    # trace form on the block space is the standard dot product in these coords
    perp = linalg.integer_kernel(r_basis, dim_block)
    if len(r_basis) + len(perp) != dim_block:
        raise InternalCheckError("stabilizer and its complement do not span the block")
    if not _independent_at_last_columns(r_basis):
        raise InternalCheckError("stabilizer basis is linearly dependent")
    if not _independent_at_last_columns(perp):
        raise InternalCheckError("the stabilizer's complement does not act injectively")
    for y in perp:
        if any(sum(x * v[b] for b, x in y.items() if b in v) for v in r_basis):
            raise InternalCheckError("the stabilizer's complement is not orthogonal to it")

    basis = []
    for y in perp:
        den = y[max(y)] * scale  # y over its free-column entry, as the basis vector
        M = [[Fraction(0)] * n for _ in range(a + n * a)]
        for (mu, k, j), v in action(y).items():
            M[a + k * a + mu][j] = Fraction(v, den)
        basis.append(M)
    # the unit images span phi(Q^N), which holds the basis: M[a + k a + mu][j] flattened
    spanning = [{(a + k * a + mu) * n + j: v for (mu, k, j), v in img.items()} for img in images]
    try:
        t = Tableau(n, a + n * a, basis, spanning)
    except ValueError as e:  # rank phi != len(perp), so phi is not injective on it
        raise InternalCheckError("the stabilizer's complement does not act injectively") from e
    return StabilizerPair(len(r_basis), t)


def _independent_at_last_columns(vecs):
    """True when each {col: int} map is nonzero at its last column and zero at the others'.

    The vectors restricted to their last columns are then diagonal, so they
    are independent; integer_kernel's vectors are so.
    """
    last = [max(v, default=None) for v in vecs]
    cols = set(last)
    return (None not in cols and len(cols) == len(vecs)
            and all(v[f] and not any(v[c] for c in v.keys() & cols if c != f)
                    for v, f in zip(vecs, last)))


def _unit_images(f2, n, a):
    """x.F2 for each unit vector x of the block space, as sparse maps.

    The block space is (xL, xT, xN) flattened, as in stabilizer_and_tableau;
    each map sends (mu, i, j) to the nonzero entries of
    (x.F2)[mu][i][j] = xL F2[mu][i][j] + sum_nu xN[mu][nu] F2[nu][i][j]
                       - sum_k (F2[mu][k][j] xT[k][i] + F2[mu][i][k] xT[k][j]).
    """
    def entries(M, mu):
        return {(mu, i, j): M[i][j] for i in range(n) for j in range(n) if M[i][j]}

    images = [{key: v for mu in range(a) for key, v in entries(f2[mu], mu).items()}]
    for k in range(n):
        for c in range(n):  # xT[k][c] = 1
            img = {}
            for mu in range(a):
                for j in range(n):
                    if f2[mu][k][j]:
                        img[(mu, c, j)] = img.get((mu, c, j), 0) - f2[mu][k][j]
                    if f2[mu][j][k]:
                        img[(mu, j, c)] = img.get((mu, j, c), 0) - f2[mu][j][k]
            images.append({key: v for key, v in img.items() if v})
    for m in range(a):
        for nu in range(a):
            images.append(entries(f2[nu], m))
    return images


# ---------- reduced prolongation ----------

def reduced_prolongation(t, bracket_image):
    """(dim A^(1)_red, discarded rank) for a supplied bracket image.

    bracket_image vectors live in flat W (x) V* (x) V* coordinates
    (index (w, i, j) row-major) and must lie inside A (x) V*; the quotient
    is by the part of their span inside ker delta, and the rank falling
    outside ker delta is reported separately.

    A (x) V* is block-diagonal in j: v lies in it iff every slice v[., ., j]
    lies in A.  On A (x) V*, delta sends v to its skew part
    v[w, i, j] - v[w, j, i] (i < j), so the span of the image meets ker delta
    in dimension rank(image) - rank(skew parts), and the discarded rank is
    rank(skew parts).  No basis of A^(1) is needed.
    """
    n, w = t.dim_V, t.dim_W
    slices = []
    skews = []
    for v in bracket_image:
        if len(v) != w * n * n:
            raise ValueError("bracket image vector has wrong length")
        slices += [[v[(wi * n + i) * n + j] for wi in range(w) for i in range(n)]
                   for j in range(n)]
        skews.append([v[(wi * n + i) * n + j] - v[(wi * n + j) * n + i]
                      for wi in range(w) for i in range(n) for j in range(i + 1, n)])
    # the echelon rows are a basis of A, so the slices lie in A iff adding
    # them leaves the rank at dim A
    if linalg.rank(t.echelon + slices) != t.dim:
        raise ValueError("bracket image vector lies outside A (x) V*")
    discarded = linalg.rank(skews)
    inside = linalg.rank(bracket_image) - discarded
    return prolongation_dim(t) - inside, discarded


# ---------- JSON interface ----------

def parse_rational(s):
    """Fraction(s) for an int, else Fraction(str(s)); ValueError otherwise.

    A bool is refused, and so is exponent notation: Fraction("1e10000000")
    alone spends seconds building a ten-million-digit integer.
    """
    if isinstance(s, bool):  # JSON true/false, which Fraction reads as 1/0
        raise ValueError(f"malformed rational {s!r}")
    if isinstance(s, int):
        return Fraction(s)
    text = str(s)
    if "e" in text.lower():
        raise ValueError(f"malformed rational {s!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as e:
        raise ValueError(f"malformed rational {s!r}") from e


def tableau_from_json(doc):
    """{"dim_V": n, "dim_W": w, "basis": [[row-major "p/q" strings]]}.

    Raises ValueError on a document that lacks a key, has a key not named
    here or has the wrong shape or type, and, before any matrix is built, on
    a tableau whose delta would have more than DELTA_SIDE_MAX rows, w C(n, 2),
    or columns, dim A n: the characters, the prolongation and the torsion all
    eliminate delta, and the flag search ranks n x n flags.
    """
    if isinstance(doc, str):
        doc = json.loads(doc)
    if not isinstance(doc, dict):
        raise ValueError("a tableau must be a JSON object")
    for key in ("dim_V", "dim_W", "basis"):
        if key not in doc:
            raise ValueError(f"tableau has no {key!r}")
    for key in doc:
        if key not in ("dim_V", "dim_W", "basis"):
            raise ValueError(f"tableau has an unknown key {key!r}")
    if not isinstance(doc["basis"], list):
        raise ValueError("tableau 'basis' must be a list")
    n = _dimension(doc["dim_V"])
    w = _dimension(doc["dim_W"])
    side = max(w * n * (n - 1) // 2, len(doc["basis"]) * n)
    if side > DELTA_SIDE_MAX:
        raise ValueError(f"tableau is over the work budget: delta would have a side of {side}, "
                         f"more than DELTA_SIDE_MAX = {DELTA_SIDE_MAX}")
    basis = []
    for flat in doc["basis"]:
        if not isinstance(flat, list) or len(flat) != n * w:
            raise ValueError("basis entry has wrong length")
        vals = [parse_rational(x) for x in flat]
        basis.append([vals[r * n:(r + 1) * n] for r in range(w)])
    return Tableau(n, w, basis)


def tableau_to_json(t):
    return {
        "dim_V": t.dim_V,
        "dim_W": t.dim_W,
        "basis": [[str(x) for x in t.flatten(M)] for M in t.basis],
    }
