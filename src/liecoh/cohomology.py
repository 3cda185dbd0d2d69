"""Graded cohomology H^0_d and H^1_d of g_- with module coefficients.

Two independent routes:

  * kostant_h1 walks the marked simple reflections.  For an irreducible
    coefficient module V_mu the degree-d piece attached to a marked node i
    is the g0-dual of the Levi irreducible with highest weight
    sigma_i . mu* (affine action, mu* the dual weight of mu); its Z-degree
    is -Z(sigma_i . mu*).  This convention was arbitrated against the
    matrix oracle below and must stay in exact agreement with it.

  * graded_h1 assembles the differentials grade by grade from explicit
    action matrices and bracket constants and takes exact ranks.  It checks
    d1 . d0 = 0 in every block and aborts if that fails.  A grade is a pair
    (Z-degree, torus weight): every weight vector of V_gamma (module_complex),
    every matrix unit of gl(U) (gperp_complex) and every root vector has a
    single weight, so the differentials are block-diagonal by weight and
    each block is small.  Both complexes share one assembly and one weight
    check of the root vectors, which are stored as sparse maps (repthy).
    The complex is defined over Z, and the oracles build it that way: g_-
    is spanned by one integer multiple L f_alpha of each root vector, and
    every g-perp slice by primitive integer vectors.  So the g-perp
    commutators, its membership check, d0, d1, the d1 . d0 check and every
    rank run on Python ints.

h1_report runs the full pipeline for Gamma = g-perp inside sl(U) and turns
the graded dimensions into a rigidity verdict: RIGID when no piece lives in
degree >= p + 2, INCONCLUSIVE otherwise.

Degrees.  The grading element Z of the marking acts diagonally on U = V_lam
and grades gl(U) by its eigenvalues: E_vw has degree z_v - z_w, and
g-perp_s is the degree-s part of g-perp.  g_{-j} (j >= 1) is the part of g
in degree -j.  A 1-cochain phi with phi(g_{-j}) in g-perp_s has degree
s + j, and H^1_d collects the classes of degree d.

System index and order.  p >= -1 asks for rigidity at order k = p + 3
(p = -1: order two, the second fundamental form; p = 0: order three, the
cubic form).  A class of degree d obstructs the orders k <= d + 1, so the
verdict is RIGID iff H^1_d(g_-, g-perp) = 0 for every d >= p + 2, the
threshold.  Two anchors fix the constants:

  * the plane conic, H^1 = {3: 1}: INCONCLUSIVE up to p = 1 and RIGID at
    p = 2, order five.  Every plane curve has an osculating conic with
    five-point contact, so the conic is not rigid at any lower order.
  * the quadric surface Seg(P1 x P1), H^1 = {1: 2}: INCONCLUSIVE at p = -1,
    order two, where it is flexible, and RIGID at p = 0, order three
    (Fubini: a quadric is characterised by a vanishing cubic form).

References: Hwang-Yamaguchi, Duke Math. J. 120 (2003); Landsberg-Robles,
"Fubini-Griffiths-Harris rigidity and Lie algebra cohomology", Asian J.
Math. 16 (2012).
"""

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add, sub

from . import linalg, repthy
from .errors import InternalCheckError
from .grading import (GradedDims, grade_algebra, grade_module, grading_element,
                      root_degree)
from .repthy import (DEFAULT_ORACLE_BOUND, construct_rep, root_vector_matrices,
                     structure_constants)


def _as_degree(x):
    x = Fraction(x)
    return int(x) if x.denominator == 1 else x


# ---------- Kostant route ----------

@dataclass(frozen=True)
class H1Piece:
    levi_highest_weight: tuple
    degree: object  # int (Fraction when the module grading is not integral)
    dimension: int
    source_reflection: int  # 1-based marked node


def is_levi_dominant(rs, marking, weight):
    marked = marking.marked
    return all(weight[j] >= 0 for j in range(rs.rank) if (j + 1) not in marked)


def levi_weyl_dim(rs, marking, weight):
    """Weyl dimension formula over the Levi's positive roots (unmarked support)."""
    if not is_levi_dominant(rs, marking, weight):
        raise ValueError(f"{weight} is not Levi-dominant")
    return rs.weyl_product(weight, [k for k, r in enumerate(rs.positive_roots)
                                    if root_degree(marking, r.coords) == 0])


def levi_lowest(rs, marking, weight):
    """Lowest weight of the Levi irreducible with the given highest weight."""
    unmarked = [j for j in range(rs.rank) if (j + 1) not in marking.marked]
    w = tuple(weight)
    while True:
        for j in unmarked:
            if w[j] > 0:
                w = rs.reflect(j, w)
                break
        else:
            return w


def kostant_h0(rs, marking, gamma):
    """H^0(g_-, V_mu) as a single piece: the dual of the top Levi constituent of V_mu*."""
    mu_star = rs.dual_weight(gamma.highest_weight)
    z = grading_element(rs, marking)
    return H1Piece(tuple(-x for x in levi_lowest(rs, marking, mu_star)),
                   _as_degree(-z(mu_star)),
                   levi_weyl_dim(rs, marking, mu_star), 0)


def kostant_h1(rs, marking, gamma):
    """H^1(g_-, V_mu) pieces, one per marked simple reflection.

    Multiplicity of the input component is NOT folded in; callers aggregate.
    """
    marking.validate(rs)
    mu = tuple(gamma.highest_weight)
    if not rs.is_dominant(mu):
        raise ValueError(f"component weight {mu} is not dominant")
    mu_star = rs.dual_weight(mu)
    z = grading_element(rs, marking)
    pieces = []
    for i in sorted(marking.marked):
        w = rs.affine_action(i - 1, mu_star)
        if not is_levi_dominant(rs, marking, w):
            continue
        pieces.append(H1Piece(
            levi_highest_weight=tuple(-x for x in levi_lowest(rs, marking, w)),
            degree=_as_degree(-z(w)),
            dimension=levi_weyl_dim(rs, marking, w),
            source_reflection=i,
        ))
    return pieces


# ---------- direct matrix route ----------

@dataclass
class GradedComplex:
    """Graded data for the C^0 -> C^1 -> C^2 complex of g_- with values in Gamma.

    A grade is a pair (degree, weight): a Z-degree and a torus weight in
    fundamental coordinates.  Every object is homogeneous, so the
    differentials are block-diagonal by grade and graded_h1 ranks them block
    by block.

    slices:   grade -> dimension of Gamma in that grade
    depths:   grade shift of each g_- basis element x_a = L f_alpha, which
              has grade -depths[a]: depths[a] = (i_a, alpha), i_a > 0 the depth
    act:      (a, source grade) -> the matrix of x_a: Gamma_source ->
              Gamma_{source - depths[a]} by columns, one {target coordinate: x}
              map of nonzeros per source basis vector
    brackets: (a, b) -> {c: coeff} for a < b, [x_a, x_b] = sum coeff x_c

    The oracles build this complex over Z: every entry of act and every
    bracket coefficient is an int.  The g_- basis is the bracket-path root
    vectors f_alpha times one integer L (see _complex).  [L f_a, L f_b] =
    L sum coeff (L f_c), so the action matrices and the bracket constants
    both scale by L; that is a change of basis of g_-, and H^0, H^1 and
    d1 . d0 = 0 do not change.  graded_h1 itself accepts any exact entries.
    """
    slices: dict
    depths: list
    act: dict
    brackets: dict


def _difference(u, v):
    return tuple(map(sub, u, v))


def _add(grade, depth):
    return (grade[0] + depth[0], tuple(map(add, grade[1], depth[1])))


def _grade_text(grade):
    return f"degree {_as_degree(grade[0])}, weight {grade[1]}"


def _composition_is_nonzero(d0t, d1t):
    """Whether d1 . d0 != 0, given both maps as transposed sparse rows."""
    for row in d0t:
        out = {}
        for u, x in row.items():
            for k, y in d1t[u].items():
                out[k] = out.get(k, 0) + x * y
        if any(out.values()):
            return True
    return False


def graded_h1(cx, with_h0=False):
    """Per-degree dims of H^1 (and optionally H^0) from a GradedComplex.

    d0 and d1 are assembled and ranked one total grade at a time, and the
    dimensions are summed into Z-degrees, read off the grades.  Every block
    is checked: d1 . d0 = 0 and H^1 >= 0; every bracket must respect the
    grading.  Any exact entries work; the oracles' complexes are integral,
    so their blocks are assembled, checked and ranked on ints.
    """
    depths = cx.depths
    pair_depth = {(b, c): _add(depths[b], depths[c])
                  for b in range(len(depths)) for c in range(b + 1, len(depths))}
    for (b, c), terms in cx.brackets.items():
        for a, coeff in terms.items():
            if coeff and depths[a] != pair_depth[(b, c)]:
                raise InternalCheckError(
                    f"bracket [x_{b}, x_{c}] has x_{a} of the wrong grade: x_{a} "
                    f"lowers {_grade_text(depths[a])}, x_{b} and x_{c} together "
                    f"{_grade_text(pair_depth[(b, c)])}")
    m = len(depths)
    width = max(cx.slices.values(), default=0)
    # coordinate r of psi(x_b, x_c), b < c, is C^2 column (b m + c) width + r,
    # one number per coordinate; the sparse rows of d1 hold only what is written
    produced = {}  # a -> [(column of psi(x_b, x_c) at r = 0, coeff of x_a in [x_b, x_c])]
    for (b, c), terms in cx.brackets.items():
        for a, coeff in terms.items():
            if coeff:
                produced.setdefault(a, []).append(((b * m + c) * width, coeff))
    c1 = {}  # total grade -> {a: grade of phi(x_a)}
    for s in cx.slices:
        for a, i in enumerate(depths):
            c1.setdefault(_add(s, i), {})[a] = s

    h1 = {}
    h0 = {}
    for d in sorted(set(c1) | set(cx.slices)):
        blocks1 = sorted(c1.get(d, {}).items())
        off1 = {}
        n1 = 0
        for a, s in blocks1:
            off1[a] = n1
            n1 += cx.slices[s]
        n0 = cx.slices.get(d, 0)

        # d0 and d1 are built transposed, one sparse row per C^0 and per C^1
        # coordinate: C^2 is the larger side, and the action blocks are
        # stored by source vector
        d0t = [{off1[a] + r: x for a, _ in blocks1 for r, x in cx.act[(a, d)][v].items()}
               for v in range(n0)] if n1 else []
        d1t = []
        for a, s in blocks1:
            rows = [{} for _ in range(cx.slices[s])]
            # alpha([x_b, x_c]) X, with X = phi(x_a) in Gamma_s
            for col, coeff in produced.get(a, ()):
                for r, row in enumerate(rows):
                    row[col + r] = coeff
            # alpha(x_b) x_c.X - alpha(x_c) x_b.X, on the pairs that hold a; x_a
            # is deeper than x_b and x_c above, so every entry is written once
            for other in range(m):
                if other != a:
                    col, sign = ((a * m + other) * width, 1) if a < other \
                        else ((other * m + a) * width, -1)
                    for row, image in zip(rows, cx.act[(other, s)]):
                        for r, x in image.items():
                            row[col + r] = sign * x
            d1t += rows
        if _composition_is_nonzero(d0t, d1t):
            raise InternalCheckError(f"d1 . d0 != 0 in {_grade_text(d)}")
        rank0 = linalg.rank(d0t) if d0t else 0
        rank1 = linalg.rank(d1t) if d1t else 0
        dim = (n1 - rank1) - rank0
        if dim < 0:
            raise InternalCheckError(f"negative H^1 dimension in {_grade_text(d)}")
        deg = _as_degree(d[0])
        h1[deg] = h1.get(deg, 0) + dim
        h0[deg] = h0.get(deg, 0) + n0 - rank0
    h1 = {deg: k for deg, k in sorted(h1.items()) if k}
    if with_h0:
        return h1, {deg: k for deg, k in sorted(h0.items()) if k}
    return h1


def negative_roots(rs, marking):
    """Positive roots alpha with Z(alpha) >= 1; f_alpha spans g_-."""
    out = [r.coords for r in rs.positive_roots
           if root_degree(marking, r.coords) >= 1]
    out.sort(key=lambda c: (root_degree(marking, c), c))
    return out


def _g_by_weight(rep):
    """The basis of g on rep by torus weight, every entry checked against it.

    h_i has weight 0, e_alpha weight alpha and f_alpha weight -alpha, alpha in
    fundamental coordinates; an entry (r, c) of a matrix of weight mu must
    have wt(r) - wt(c) = mu.  A root space is a line, so a nonzero weight
    holds one matrix.
    """
    rs, wts = rep.rs, rep.basis_weights
    emat, fmat = root_vector_matrices(rep)
    out = {(0,) * rs.rank: rep.h}
    for coords, alpha in rs.root_weights.items():
        out[alpha] = [emat[coords]]
        out[tuple(-x for x in alpha)] = [fmat[coords]]
    for mu, matrices in out.items():
        for r, c in (key for M in matrices for key in M):
            if _difference(wts[r], wts[c]) != mu:
                raise InternalCheckError(
                    f"the element of g of weight {mu} has an entry of weight "
                    f"{_difference(wts[r], wts[c])}: the g action left the graded range")
    return out


def _g_minus(rs, marking):
    """Depths and bracket constants of the root vectors f_alpha spanning g_-.

    Both follow negative_roots: depths[a] = (Z-degree, weight) of the root
    alpha_a, and the brackets are structure_constants of those roots.
    """
    roots = negative_roots(rs, marking)
    depths = [(root_degree(marking, c), rs.root_weights[c]) for c in roots]
    return depths, structure_constants(rs, roots)


def _complex(depths, brackets, g, basis, image, den):
    """GradedComplex of g_- acting on Gamma, the assembly both oracles share.

    depths and brackets come from _g_minus, g is _g_by_weight of the module,
    and basis maps each (degree, weight) grade of Gamma to the basis vectors
    of that slice.  image(f, vector, grade) gives f . vector, for an integer
    matrix f that is a multiple of den, as a {coordinate: int} map of its
    nonzero coordinates in the basis of that grade.

    The g_- basis is x_a = L f_alpha for one integer L: den times the lcm
    of the denominators of the f_alpha entries and the bracket constants.
    """
    fs = [g[tuple(-x for x in alpha)][0] for _, alpha in depths]
    L = den * lcm(1, *(x.denominator for f in fs for x in f.values()),
                  *(x.denominator for terms in brackets.values() for x in terms.values()))
    act = {}
    for a, (i, alpha) in enumerate(depths):
        f = {k: x.numerator * (L // x.denominator) for k, x in fs[a].items()}
        for s, vectors in basis.items():
            t = (s[0] - i, _difference(s[1], alpha))
            act[(a, s)] = [image(f, v, t) for v in vectors]
    brackets = {pair: {c: x.numerator * (L // x.denominator) for c, x in terms.items()}
                for pair, terms in brackets.items()}
    slices = {s: len(vectors) for s, vectors in basis.items()}
    return GradedComplex(slices, depths, act, brackets)


def module_complex(rs, marking, gamma_weight, bound=DEFAULT_ORACLE_BOUND):
    """GradedComplex for an abstract irreducible coefficient module V_gamma.

    Gamma is graded by (raw Z-eigenvalue, weight) of its weight basis (no
    shift).  The g_- action comes from bracket-path root vectors on the
    explicit module; brackets come from a faithful companion so the trivial
    module also works.
    """
    marking.validate(rs)
    rep = construct_rep(rs, gamma_weight, bound)
    z = grading_element(rs, marking)
    basis = {}
    for vid, w in enumerate(rep.basis_weights):
        basis.setdefault((z(w), w), []).append(vid)

    def image(f, vid, grade):
        return {k: f[(r, vid)] for k, r in enumerate(basis.get(grade, ())) if (r, vid) in f}

    depths, brackets = _g_minus(rs, marking)
    return _complex(depths, brackets, _g_by_weight(rep), basis, image, 1)


def direct_h1(rs, marking, gamma_weight, bound=DEFAULT_ORACLE_BOUND, with_h0=False):
    """Per-degree H^1 dims for an abstract irreducible module, by matrix ranks."""
    return graded_h1(module_complex(rs, marking, gamma_weight, bound), with_h0=with_h0)


def gperp_complex(rs, marking, lam, bound=DEFAULT_ORACLE_BOUND):
    """GradedComplex for Gamma = g-perp inside sl(U), U = V_lam, by (degree, weight).

    g is realized by explicit matrices on U.  E_vw in gl(U) has weight
    wt(v) - wt(w) and Z-degree Z(wt(v) - wt(w)), so gl(U) splits into weight
    slices.  g-perp of weight mu is cut out of its slice by trace-form
    orthogonality against the g elements of weight -mu (plus tracelessness
    at mu = 0).  The root vector f_alpha of weight -alpha acts by the
    commutator.

    Integral slices.  The constraint rows are scaled to primitive integer
    rows, and each kernel_basis vector of a slice to the primitive integer
    vector on its line, c times the vector with 1 at its free column: a
    diagonal change of basis of Gamma.  The coordinates of a g-perp element
    X are then X[free column] / c.  _complex hands image integer matrices
    f that are multiples of den, the lcm of every c, so [f, vector] and the
    division by c are exact integer arithmetic.
    """
    marking.validate(rs)
    rep = construct_rep(rs, lam, bound)
    n = rep.dimension
    wts = rep.basis_weights
    z = grading_element(rs, marking)
    g = _g_by_weight(rep)
    zero = (0,) * rs.rank

    pairs_by_weight = {}
    for v in range(n):
        for w in range(n):
            pairs_by_weight.setdefault(_difference(wts[v], wts[w]), []).append((v, w))

    index = {}   # weight -> {(v, w): position in the slice}
    rows = {}    # weight -> integer constraint rows cutting g-perp out of the slice
    basis = {}   # (degree, weight) -> primitive integer vectors as {(v, w): x}
    free = {}    # weight -> {free column: (position of its basis vector, c)}
    g_rank = 0
    for mu, pairs in sorted(pairs_by_weight.items()):
        index[mu] = {p: k for k, p in enumerate(pairs)}
        # tr(B M) = sum B[v][w] M[w][v] pairs the slice with weight -mu only
        rows[mu] = linalg.integer_rows(
            [{index[mu][(c, r)]: x for (r, c), x in M.items()}
             for M in g.get(tuple(-x for x in mu), [])])
        if rows[mu]:
            g_rank += linalg.rank(rows[mu])
        if mu == zero:
            rows[mu].append({k: 1 for k, (v, w) in enumerate(pairs) if v == w})
        vectors = linalg.integer_rows(linalg.kernel_basis(rows[mu], len(pairs)))
        if vectors:
            degree = z(mu)
            if degree.denominator != 1:
                raise InternalCheckError(f"gl(U) slice of non-integral degree {degree}")
            basis[(int(degree), mu)] = [{pairs[k]: x for k, x in vec.items()}
                                        for vec in vectors]
            # a kernel_basis vector is 1 at its free column and 0 at the
            # others, and its free column is its last nonzero entry; scaled
            # by c, the coordinate read off that column is divided by c
            lasts = [max(vec) for vec in vectors]
            free[mu] = {k: (i, vectors[i][k]) for i, k in enumerate(lasts)}
    if g_rank != rs.dim_g():
        raise InternalCheckError("represented algebra has wrong dimension; "
                                 "weight not faithful on some factor")
    if sum(len(b) for b in basis.values()) != n * n - 1 - rs.dim_g():
        raise InternalCheckError("g-perp dimension bookkeeping failed")

    def image(f, vec, grade):
        # f has weight -alpha (checked) and vec weight mu, so every entry of
        # [f, vec] has weight t = mu - alpha and lies in t's slice of gl(U)
        t = grade[1]
        target = index.get(t, {})
        cvec = {target[pair]: x for pair, x in repthy.commutator(f, vec).items()}
        if any(sum(x * cvec.get(k, 0) for k, x in row.items()) for row in rows.get(t, [])):
            raise InternalCheckError("g_- action left g-perp")
        columns = free.get(t, {})
        coords = {}
        for k, x in cvec.items():
            if k in columns:
                i, c = columns[k]
                coords[i] = x // c  # exact: x is a multiple of den
        return coords

    den = lcm(1, *(c for columns in free.values() for _, c in columns.values()))
    depths, brackets = _g_minus(rs, marking)
    return _complex(depths, brackets, g, basis, image, den)


def gperp_direct_h1(rs, marking, lam, bound=DEFAULT_ORACLE_BOUND):
    """Oracle: per-degree H^1(g_-, g-perp) dims straight from matrices."""
    return graded_h1(gperp_complex(rs, marking, lam, bound))


# ---------- report ----------

@dataclass
class CohomologyReport:
    algebra: list
    marked: list
    weight: tuple
    p: int
    threshold: int
    gperp: list
    pieces: list          # (component weight, multiplicity, H1Piece)
    aggregate: dict       # degree -> total dimension (multiplicity-weighted)
    offending: list
    verdict: str
    algebra_grading: GradedDims
    module_grading: GradedDims
    oracle_requested: bool = False
    oracle_ran: bool = False
    oracle_note: str = ""


def h1_report(rs, marking, lam, p, oracle=False, bound=DEFAULT_ORACLE_BOUND):
    """Decompose g-perp, run kostant_h1 on every component, and pass verdict.

    p asks for rigidity at order p + 3, and a piece of degree d obstructs
    the orders <= d + 1 (degree convention and anchors in the module
    docstring).  RIGID when no H^1 piece has degree >= p + 2; INCONCLUSIVE
    otherwise, listing the offending pieces.  With oracle=True the aggregate per-degree
    dimensions are recomputed from explicit matrices and must agree exactly
    (skipped, and said so, when dim U exceeds the oracle bound).
    """
    if p < -1:
        raise ValueError("p must be >= -1")
    lam = tuple(lam)
    marking.validate(rs)
    comps = repthy.gperp_decompose(rs, lam)
    threshold = p + 2
    pieces = []
    aggregate = {}
    for comp in comps:
        for piece in kostant_h1(rs, marking, comp):
            pieces.append((comp.highest_weight, comp.multiplicity, piece))
            aggregate[piece.degree] = aggregate.get(piece.degree, 0) \
                + comp.multiplicity * piece.dimension
    aggregate = dict(sorted(aggregate.items()))
    offending = [(hw, mult, piece) for (hw, mult, piece) in pieces
                 if piece.degree >= threshold]
    verdict = "RIGID" if not offending else "INCONCLUSIVE"

    report = CohomologyReport(
        algebra=[str(f) for f in rs.factors],
        marked=sorted(marking.marked),
        weight=lam,
        p=p,
        threshold=threshold,
        gperp=comps,
        pieces=pieces,
        aggregate=aggregate,
        offending=offending,
        verdict=verdict,
        algebra_grading=grade_algebra(rs, marking),
        module_grading=grade_module(rs, marking, lam),
        oracle_requested=oracle,
    )
    if oracle:
        dim_u = rs.weyl_dim(lam)
        if dim_u > bound:
            report.oracle_note = (
                f"oracle skipped: dim U = {dim_u} exceeds bound {bound}; "
                "the combinatorial path alone decides")
        else:
            got = gperp_direct_h1(rs, marking, lam, bound)
            if got != aggregate:
                raise InternalCheckError(
                    f"combinatorial H^1 {aggregate} disagrees with the "
                    f"matrix oracle {got}")
            report.oracle_ran = True
            report.oracle_note = ("direct matrix computation agreed with the "
                                  "combinatorial dimensions in every degree")
    return report
