"""Graded cohomology H^0_d and H^1_d of g_- with module coefficients.

Two independent routes:

  * kostant_h1 walks the marked simple reflections.  For an irreducible
    coefficient module V_mu the degree-d piece attached to a marked node i
    is the g0-dual of the Levi irreducible with highest weight
    sigma_i . mu* (affine action, mu* the dual weight of mu); its Z-degree
    is -Z(sigma_i . mu*).  This convention was arbitrated against the
    matrix oracle below and must stay in exact agreement with it.

  * graded_weights (by_degree sums it by degree) assembles the
    differentials grade by grade from explicit action matrices and bracket
    constants and takes exact ranks.  It checks d1 . d0 = 0 in every block
    it builds and aborts if that fails.  A grade is a torus weight, and its
    Z-degree is Z(weight): every weight vector of V_gamma (module_complex),
    every matrix unit of gl(U) (gl_complex) and every root vector has a
    single weight, so the differentials are block-diagonal by weight and
    each block is small.  Both complexes share one assembly and one weight
    check of the root vectors, which are stored as sparse maps (repthy).
    The complex is defined over Z, and the oracles build it that way: g_-
    is spanned by one integer multiple L f_alpha of each root vector, and
    the basis of V_gamma and the matrix units of gl(U) stay as they are.
    So the actions, d0, d1, the d1 . d0 check and every rank run on Python
    ints.  In each block rank d0 is the number of pivot columns P of d0 and
    d1 is ranked only on the C^1 coordinates off P: the echelon rows of
    im d0 and the unit vectors off P are a basis of C^1, and d1 kills im d0
    (the check above), so rank d1 and every dimension of H^0 and H^1 are
    those of the whole block.  Both eliminations take a block's columns
    fewest nonzeros first, which changes P but no rank.

The g-perp oracle.  As g-modules gl(U) = g + g-perp + C Id, and the cochain
complex is additive in its module, so in every degree and weight
H^k(g_-, g-perp) = H^k(gl U) - H^k(g) - H^k(C) (gperp_weights).  g is one
module_complex per simple factor, of its adjoint weight, and C a complex
with one slice and no action.  Nothing here uses Kostant's theorem or the
g-perp decomposition; a negative difference raises.

Levi symmetry.  g_0 normalises g_- and acts on Gamma, so it acts on every
cochain space Lambda^k g_-^* (x) Gamma, and d commutes with that action: d is
made of brackets and of the g action, and g_0 acts on both by derivations.
So H^0 and H^1 are g_0-modules in each Z-degree, and a representative in
the Levi group of each w in the Levi Weyl group W_0 (generated by the
unmarked simple reflections, which fix Z) carries the grade mu
isomorphically onto w mu, of the same Z-degree.  That is plain equivariance; it uses nothing
of Kostant's theorem, so the oracle stays independent of the route it
checks.  graded_weights therefore assembles, checks and ranks only the
grades whose weight is W_0-dominant (>= 0 at every unmarked node, one per
W_0-orbit) and gives every conjugate the same dimensions, and the oracles
build action blocks only for the source grades that those blocks use.  A
Borel marking has W_0 = 1 and ranks every grade.

The fold.  check_oracle compares the oracle with Kostant piece by piece,
not only degree by degree.  In each degree the weights of H^1 are the
character of a g_0-module, and levi_pieces splits it into irreducibles by
rs.fold over the unmarked nodes, Racah-Speiser for W_0.  The result must
equal Kostant's multiset of (degree, levi_highest_weight), counted with the
g-perp multiplicities.  The oracle's
highest weight is levi_highest_weight as stored, with no dual (pinned by
the tests).

Every function here takes the parabolic as one grading.ParabolicMarking,
which carries its root system, Z, the Levi nodes (the unmarked nodes, whose
reflections generate W_0) and the Z-degree of every positive root.

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

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import lcm
from operator import add, sub

from . import linalg, repthy
from .errors import InternalCheckError
from .grading import grade_algebra, grade_module
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


def is_levi_dominant(marking, weight):
    return all(weight[j] >= 0 for j in marking.unmarked)


def levi_weyl_dim(marking, weight):
    """Weyl dimension formula over the Levi's positive roots (marking.levi_roots)."""
    marking.rs.check_length(weight)
    if not is_levi_dominant(marking, weight):
        raise ValueError(f"{weight} is not Levi-dominant")
    return marking.rs.weyl_product(weight, marking.levi_roots)


def levi_lowest(marking, weight):
    """Lowest weight of the Levi irreducible with the given highest weight."""
    w = tuple(weight)
    while True:
        for j in marking.unmarked:
            if w[j] > 0:
                w = marking.rs.reflect(j, w)
                break
        else:
            return w


def kostant_h1(marking, gamma):
    """H^1(g_-, V_mu) pieces, one per marked simple reflection.

    Multiplicity of the input component is NOT folded in; callers aggregate.
    """
    rs = marking.rs
    mu = tuple(gamma.highest_weight)
    if not rs.is_dominant(mu):
        raise ValueError(f"component weight {mu} is not dominant")
    mu_star = rs.dual_weight(mu)
    pieces = []
    for i in sorted(marking.marked):
        # never fires: at an unmarked j, (sigma_i(mu* + rho))_j =
        # (mu* + rho)_j - (mu* + rho)_i C[j][i] >= 1, as C[j][i] <= 0
        w = rs.affine_action(i - 1, mu_star)
        if not is_levi_dominant(marking, w):
            raise InternalCheckError(f"sigma_{i} . {mu_star} = {w} is not Levi-dominant")
        pieces.append(H1Piece(
            levi_highest_weight=tuple(-x for x in levi_lowest(marking, w)),
            degree=_as_degree(-marking.z(w)),
            dimension=levi_weyl_dim(marking, w),
            source_reflection=i,
        ))
    return pieces


# ---------- direct matrix route ----------

@dataclass
class GradedComplex:
    """Graded data for the C^0 -> C^1 -> C^2 complex of g_- with values in Gamma.

    A grade is a torus weight in fundamental coordinates; its Z-degree is
    marking.z(weight), computed only where a result or a message is written.
    Every object is homogeneous, so the differentials are block-diagonal by
    weight and graded_weights ranks them block by block.

    slices:   weight -> dimension of Gamma at that weight
    depths:   the root weight alpha_a of each g_- basis element
              x_a = L f_alpha, which has weight -depths[a]
    act:      source weight s -> [(a, block)] over the x_a whose block is
              not zero, in increasing a; the block is the matrix of x_a:
              Gamma_s -> Gamma_{s - depths[a]} by columns, one
              {target coordinate: x} map of nonzeros per source basis vector
    brackets: (a, b) -> {c: coeff} for a < b, [x_a, x_b] = sum coeff x_c
    marking:  the ParabolicMarking.  graded_weights ranks only the
              W_0-dominant grades, and the oracles build act only for the
              source weights those reach (see _complex); for a Borel marking
              every grade is dominant and act must be complete.

    The oracles build this complex over Z: every entry of act and every
    bracket coefficient is an int.  The g_- basis is the bracket-path root
    vectors f_alpha times one integer L (see _complex).  [L f_a, L f_b] =
    L sum coeff (L f_c), so the action matrices and the bracket constants
    both scale by L; that is a change of basis of g_-, and H^0, H^1 and
    d1 . d0 = 0 do not change.  graded_weights itself accepts any exact
    entries.
    """
    slices: dict
    depths: list
    act: dict
    brackets: dict
    marking: object

    @cached_property
    def dominant_grades(self):
        """The weights of C^0 and C^1 that are W_0-dominant, sorted.

        W_0-dominant means >= 0 at every unmarked node; each W_0-orbit of
        weights holds exactly one.  Computed once, from slices and depths.  A
        slice whose weight plus the largest depth coordinate is negative at
        some unmarked node reaches no dominant C^1 grade and is skipped; for
        the others a sum is formed only for a depth that makes it dominant.
        """
        unmarked = self.marking.unmarked
        top = [(j, max((i[j] for i in self.depths), default=0)) for j in unmarked]
        grades = {s for s in self.slices if all(s[j] >= 0 for j in unmarked)}
        for s in self.slices:
            if all(s[j] + m >= 0 for j, m in top):
                grades.update(tuple(map(add, s, i)) for i in self.depths
                              if all(s[j] + i[j] >= 0 for j in unmarked))
        return sorted(grades)


def _difference(u, v):
    return tuple(map(sub, u, v))


def _grade_text(marking, weight):
    return f"degree {_as_degree(marking.z(weight))}, weight {weight}"


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


def _sparsest_first(rows):
    """Relabel the columns of sparse rows in place, fewest nonzeros first.

    Column j becomes the position of j in the returned list, the old labels
    sorted by their count of nonzero rows, ties by label; each row is
    replaced by its relabelled copy.
    """
    count = Counter(chain.from_iterable(rows))
    order = sorted(sorted(count), key=count.__getitem__)
    label = dict(zip(order, range(len(order))))
    for i, row in enumerate(rows):
        rows[i] = dict(zip(map(label.__getitem__, row), row.values()))
    return order


def graded_weights(cx):
    """H^0 and H^1 of a GradedComplex as {(degree, weight): dim}, over every grade.

    d0 and d1 are assembled and ranked one dominant grade at a time
    (cx.dominant_grades); every W_0-conjugate of a grade gets its
    dimensions (module docstring).  Every block that is built is checked:
    d1 . d0 = 0 and H^1 >= 0; every bracket must respect the grading.  Any
    exact entries work; the oracles' complexes are integral, so their blocks
    are assembled, checked and ranked on ints.

    rank d0 is the number of pivot columns P of d0's echelon form, and d1 is
    ranked only on the C^1 coordinates outside P.  That is exact: the
    echelon rows of im d0 (one leading at each column of P) and the unit
    vectors off P form a triangular basis of C^1, and d1 kills the first
    kind, as the d1 . d0 = 0 check of the block, made before, has shown.

    Both eliminations relabel the block's columns fewest nonzeros first
    (_sparsest_first), which leaves far fewer rows to update than the
    assembly's order.  The argument above holds in any column order: in the
    relabelled order each echelon row of im d0 is still zero before its lead
    in P, so with the unit vectors off P, sorted by lead, it is still a
    triangular basis of C^1.  P itself may differ from one order to another,
    but its size, rank d0, cannot, nor can a rank of d1 under a permutation
    of its columns.
    """
    depths, marking = cx.depths, cx.marking
    m = len(depths)
    width = max(cx.slices.values(), default=0)
    # coordinate r of psi(x_b, x_c), b < c, is C^2 column (b m + c) width + r,
    # one number per coordinate; the sparse rows of d1 hold only what is written
    produced = {}  # a -> [(column of psi(x_b, x_c) at r = 0, coeff of x_a in [x_b, x_c])]
    for (b, c), terms in cx.brackets.items():
        together = tuple(map(add, depths[b], depths[c]))
        for a, coeff in terms.items():
            if coeff:
                if depths[a] != together:
                    raise InternalCheckError(
                        f"bracket [x_{b}, x_{c}] has x_{a} of the wrong grade: x_{a} "
                        f"lowers {_grade_text(marking, depths[a])}, x_{b} and x_{c} "
                        f"together {_grade_text(marking, together)}")
                produced.setdefault(a, []).append(((b * m + c) * width, coeff))

    h1 = {}
    h0 = {}
    for d in cx.dominant_grades:
        blocks1 = [(a, s) for a, s in ((a, _difference(d, i)) for a, i in enumerate(depths))
                   if s in cx.slices]
        off1 = {}
        n1 = 0
        for a, s in blocks1:
            off1[a] = n1
            n1 += cx.slices[s]
        n0 = cx.slices.get(d, 0)

        # d0 and d1 are built transposed, one sparse row per C^0 and per C^1
        # coordinate: C^2 is the larger side, and the action blocks are
        # stored by source vector
        d0t = [{off1[a] + r: x for a, block in cx.act.get(d, ()) for r, x in block[v].items()}
               for v in range(n0)]
        d1t = []
        for a, s in blocks1:
            rows = [{} for _ in range(cx.slices[s])]
            # alpha([x_b, x_c]) X, with X = phi(x_a) in Gamma_s
            for col, coeff in produced.get(a, ()):
                for r, row in enumerate(rows):
                    row[col + r] = coeff
            # alpha(x_b) x_c.X - alpha(x_c) x_b.X, on the pairs that hold a; x_a
            # is deeper than x_b and x_c above, so every entry is written once
            for other, block in cx.act.get(s, ()):
                if other != a:
                    col, sign = ((a * m + other) * width, 1) if a < other \
                        else ((other * m + a) * width, -1)
                    for row, image in zip(rows, block):
                        for r, x in image.items():
                            row[col + r] = sign * x
            d1t += rows
        if _composition_is_nonzero(d0t, d1t):
            raise InternalCheckError(f"d1 . d0 != 0 in {_grade_text(marking, d)}")
        # rank d1 off the pivots of d0, both sparsest column first: exact, see
        # the docstring
        order = _sparsest_first(d0t)
        pivots = {order[c] for c in linalg.pivot_columns(d0t)}
        rank0 = len(pivots)
        rows1 = [row for u, row in enumerate(d1t) if u not in pivots]
        _sparsest_first(rows1)
        rank1 = len(linalg.pivot_columns(rows1))
        dim = (n1 - rank1) - rank0
        if dim < 0:
            raise InternalCheckError(f"negative H^1 dimension in {_grade_text(marking, d)}")
        if dim or n0 > rank0:
            deg = _as_degree(marking.z(d))
            for w in marking.rs.orbit(d, marking.unmarked):
                if dim:
                    h1[(deg, w)] = dim
                if n0 > rank0:
                    h0[(deg, w)] = n0 - rank0
    return h0, h1


def by_degree(dims):
    """{(degree, weight): dim}, as graded_weights returns it, summed by degree."""
    out = {}
    for (deg, _), k in dims.items():
        out[deg] = out.get(deg, 0) + k
    return dict(sorted(out.items()))


def levi_pieces(marking, weights):
    """Fold {(degree, weight): multiplicity} into g_0-irreducibles, degree by degree.

    weights is the full weight multiset of a g_0-module (graded_weights);
    each degree is rs.fold over the unmarked nodes.  Returns {(degree, g_0
    highest weight): multiplicity}, sorted.
    """
    per_degree = {}
    for (deg, mu), k in weights.items():
        per_degree.setdefault(deg, []).append((mu, k))
    return {(deg, hw): k for deg in sorted(per_degree)
            for hw, k in marking.rs.fold(per_degree[deg], marking.unmarked).items()}


def check_oracle(marking, h1, pieces):
    """The oracle's H^1 by degree, checked against Kostant's pieces.

    h1 is {(degree, weight): dim}, as graded_weights and gperp_weights
    return it, and pieces are (multiplicity, H1Piece) pairs.  The per-degree
    dimensions and the g_0 pieces (levi_pieces) must both equal Kostant's,
    each piece's levi_highest_weight taken as stored; a mismatch raises.
    """
    got = by_degree(h1)
    expected = {}
    kostant = {}
    for mult, piece in pieces:
        expected[piece.degree] = expected.get(piece.degree, 0) + mult * piece.dimension
        key = (piece.degree, piece.levi_highest_weight)
        kostant[key] = kostant.get(key, 0) + mult
    if got != expected:
        raise InternalCheckError(
            f"combinatorial H^1 {dict(sorted(expected.items()))} disagrees with "
            f"the matrix oracle {got}")
    folded = levi_pieces(marking, h1)
    if folded != kostant:
        raise InternalCheckError(
            f"combinatorial H^1 pieces {dict(sorted(kostant.items()))} disagree "
            f"with the matrix oracle's {folded}")
    return got


def negative_roots(marking):
    """Positive roots alpha with Z(alpha) >= 1, by degree; f_alpha spans g_-."""
    degree = marking.root_degrees
    return sorted((c for c, d in degree.items() if d >= 1), key=lambda c: (degree[c], c))


def _root_vectors(rep):
    """The root vectors f_alpha on rep by root weight alpha, every entry checked.

    alpha is in fundamental coordinates, and f_alpha has weight -alpha: an
    entry (r, c) must have wt(r) - wt(c) = -alpha.
    """
    rs, wts = rep.rs, rep.basis_weights
    out = {}
    for coords, f in root_vector_matrices(rep).items():
        alpha = rs.root_weights[coords]
        mu = tuple(-x for x in alpha)
        for r, c in f:
            if _difference(wts[r], wts[c]) != mu:
                raise InternalCheckError(
                    f"the element of g of weight {mu} has an entry of weight "
                    f"{_difference(wts[r], wts[c])}: the g action left the graded range")
        out[alpha] = f
    return out


def _g_minus(marking):
    """Depths and bracket constants of the root vectors f_alpha spanning g_-.

    Both follow negative_roots: depths[a] is the weight of the root alpha_a,
    and the brackets are structure_constants of those roots.
    """
    rs = marking.rs
    roots = negative_roots(marking)
    return [rs.root_weights[c] for c in roots], structure_constants(rs, roots)


def _complex(marking, roots, basis, image):
    """GradedComplex of g_- acting on Gamma, the assembly both oracles share.

    roots is _root_vectors of the module, and basis maps each weight of
    Gamma to the basis vectors of that slice.  image(f), called once for
    each integer matrix f, returns the action on a whole slice, (vectors,
    weight) -> [f . vector for each vector], each as a {coordinate: int}
    map of its nonzero coordinates in the basis of that target weight; it
    is called once per (root vector, source slice), so what depends only on
    the target weight is looked up once for the slice.

    The g_- basis is x_a = L f_alpha for one integer L: the lcm of the
    denominators of the f_alpha entries and the bracket constants.  act
    holds the nonzero blocks of the source weights that the dominant grades
    reach, d itself (d0) and d - depths[a] (d1), and no others.
    """
    depths, brackets = _g_minus(marking)
    fs = [roots[alpha] for alpha in depths]
    L = lcm(1, *(x.denominator for f in fs for x in f.values()),
            *(x.denominator for terms in brackets.values() for x in terms.values()))
    brackets = {pair: {c: x.numerator * (L // x.denominator) for c, x in terms.items()}
                for pair, terms in brackets.items()}
    cx = GradedComplex({s: len(vectors) for s, vectors in basis.items()}, depths, {},
                       brackets, marking)
    sources = sorted({s for d in cx.dominant_grades
                      for s in (d, *(_difference(d, i) for i in depths)) if s in basis})
    for a, depth in enumerate(depths):
        action = image({k: x.numerator * (L // x.denominator) for k, x in fs[a].items()})
        for s in sources:
            block = action(basis[s], _difference(s, depth))
            if any(block):
                cx.act.setdefault(s, []).append((a, block))
    return cx


def module_complex(marking, gamma_weight, bound=DEFAULT_ORACLE_BOUND):
    """GradedComplex for an abstract irreducible coefficient module V_gamma.

    Gamma is graded by the weights of its weight basis, so a slice's
    Z-degree is the raw Z-eigenvalue, with no shift.  The g_- action comes
    from bracket-path root vectors on the explicit module; brackets come
    from a faithful companion so the trivial module also works.
    """
    rep = construct_rep(marking.rs, gamma_weight, bound)
    basis = {}
    for vid, w in enumerate(rep.basis_weights):
        basis.setdefault(w, []).append(vid)

    def image(f):
        def action(vids, weight):
            targets = list(enumerate(basis.get(weight, ())))
            return [{k: f[(r, vid)] for k, r in targets if (r, vid) in f} for vid in vids]
        return action

    return _complex(marking, _root_vectors(rep), basis, image)


def gl_complex(marking, lam, bound=DEFAULT_ORACLE_BOUND):
    """GradedComplex for Gamma = gl(U), U = V_lam, on the matrix units.

    E_vw has weight wt(v) - wt(w), and each weight slice is spanned by its
    matrix units.  f acts by the commutator, written out on a matrix unit:
    [f, E_vw] = sum_r f[r][v] E_rw - sum_c f[w][c] E_vc.  f has weight
    -alpha != 0 (checked), so it has no diagonal entry and no unit occurs
    in both sums.

    g must act faithfully on U: every f_alpha is nonzero and the h_i are
    independent.  InternalCheckError otherwise.
    """
    rs = marking.rs
    rep = construct_rep(rs, lam, bound)
    roots = _root_vectors(rep)
    if not all(roots.values()) or \
            linalg.rank([{v: x for (v, _), x in h.items()} for h in rep.h]) != rs.rank:
        raise InternalCheckError("represented algebra has wrong dimension; "
                                 "weight not faithful on some factor")
    wts = rep.basis_weights
    basis = {}
    for v, wv in enumerate(wts):
        for w, ww in enumerate(wts):
            basis.setdefault(_difference(wv, ww), []).append((v, w))
    # the position of each matrix unit in its slice
    index = {unit: k for units in basis.values() for k, unit in enumerate(units)}

    def image(f):
        by_col, by_row = {}, {}
        for (r, c), x in f.items():
            by_col.setdefault(c, []).append((r, x))
            by_row.setdefault(r, []).append((c, x))

        def action(units, weight):
            out = []
            for v, w in units:
                col = {index[r, w]: x for r, x in by_col.get(v, ())}
                col.update((index[v, c], -x) for c, x in by_row.get(w, ()))
                out.append(col)
            return out
        return action

    return _complex(marking, roots, basis, image)


def gperp_summands(marking, lam, bound=DEFAULT_ORACLE_BOUND):
    """The complexes of gl(U) = g + g-perp + C, U = V_lam, that the oracle reads.

    gl_complex first, then one module_complex per simple factor, of its
    adjoint weight, then C.  The bound limits dim U alone, so g's complexes
    lift it: an adjoint can exceed it when U does not.  g_- acts on C by
    zero, so C's complex has one slice and no action block.
    """
    rs = marking.rs
    gl = gl_complex(marking, lam, bound)
    g = [module_complex(marking, rs.adjoint_weight(s), bound=None)
         for s in range(len(rs.factors))]
    return [gl, *g, GradedComplex({(0,) * rs.rank: 1}, gl.depths, {}, gl.brackets, marking)]


def gperp_weights(marking, lam, bound=DEFAULT_ORACLE_BOUND):
    """H^0 and H^1 of g-perp as {(degree, weight): dim}, U = V_lam.

    gl(U) = g + g-perp + C as g-modules, and the complex is additive in its
    module, so in every degree and weight H^k(g-perp) is H^k(gl U) minus
    H^k(g) and H^k(C) (gperp_summands).  A negative difference raises.
    """
    gl, *parts = gperp_summands(marking, lam, bound)
    out = graded_weights(gl)
    for cx in parts:
        for k, (total, part) in enumerate(zip(out, graded_weights(cx))):
            for key, dim in part.items():
                left = total.get(key, 0) - dim
                if left < 0:
                    raise InternalCheckError(
                        f"negative H^{k} of g-perp in degree {key[0]}, weight {key[1]}: "
                        f"{dim} of g or C against {total.get(key, 0)} left of gl(U)")
                total[key] = left
    return tuple({key: dim for key, dim in total.items() if dim} for total in out)


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
    algebra_grading: dict  # degree -> dim of g_degree (grade_algebra)
    module_grading: dict   # degree -> dim of U_degree, top = 0 (grade_module)
    oracle_requested: bool = False
    oracle_ran: bool = False
    oracle_note: str = ""


def h1_report(marking, lam, p, oracle=False, bound=DEFAULT_ORACLE_BOUND):
    """Decompose g-perp, run kostant_h1 on every component, and pass verdict.

    p asks for rigidity at order p + 3, and a piece of degree d obstructs
    the orders <= d + 1 (degree convention and anchors in the module
    docstring).  RIGID when no H^1 piece has degree >= p + 2; INCONCLUSIVE
    otherwise, listing the offending pieces.  With oracle=True the per-degree
    dimensions and the g_0 pieces are recomputed from explicit matrices and
    must agree exactly (check_oracle; skipped, and said so, when dim U
    exceeds the oracle bound; bound=None lifts it, as in construct_rep).

    lam must be a dominant weight of marking.rs whose support is the marking: the
    stabilizer of [v_lam] is the parabolic of supp lam, so any other marking
    describes no variety.  ValueError otherwise.
    """
    if p < -1:
        raise ValueError("p must be >= -1")
    rs = marking.rs
    lam = tuple(lam)
    rs.check_length(lam)
    if not rs.is_dominant(lam):
        raise ValueError(f"weight {lam} is not dominant")
    if marking.marked != {i + 1 for i, c in enumerate(lam) if c}:
        raise ValueError(f"marking {sorted(marking.marked)} is not the support of {lam}")
    comps = repthy.gperp_decompose(rs, lam)
    threshold = p + 2
    pieces = []
    aggregate = {}
    for comp in comps:
        for piece in kostant_h1(marking, comp):
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
        algebra_grading=grade_algebra(marking),
        module_grading=grade_module(marking, lam),
        oracle_requested=oracle,
    )
    if oracle:
        dim_u = rs.weyl_dim(lam)
        if bound is not None and dim_u > bound:
            report.oracle_note = (
                f"oracle skipped: dim U = {dim_u} exceeds bound {bound}; "
                "the combinatorial path alone decides")
        else:
            check_oracle(marking, gperp_weights(marking, lam, bound)[1],
                         [(mult, piece) for _, mult, piece in pieces])
            report.oracle_ran = True
            report.oracle_note = ("direct matrix computation agreed with the "
                                  "combinatorial dimensions in every degree")
    return report
