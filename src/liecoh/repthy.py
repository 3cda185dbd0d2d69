"""Weight systems, tensor decompositions, g-perp, and explicit module matrices.

All weights are tuples of fundamental coordinates (global across factors).
The weight system of V_lam is the union of the W-orbits of its dominant
weights, and these are every dominant mu <= lam (Humphreys, Introduction to
Lie Algebras and Representation Theory, 21.3).  Below lam they are linked by
positive-root steps: a dominant mu < lam has a positive root alpha with lam -
alpha dominant and mu <= lam - alpha (Stembridge, "The partial order of
dominant weights", Adv. Math. 136, 1998), so subtracting positive roots from
dominant weights and keeping the dominant results reaches all of them.
Each W-orbit is walked down from its dominant weight (rs.orbit), which
records the dominant representative of every weight, so Freudenthal's
recursion runs on the dominant weights alone.  Brauer-Klimyk is rs.fold.

Explicit modules are built on a weight basis by closing under the lowering
operators, and every basis vector is known by one global id.  A vector's
e-image, the sparse map {(j, row id): x} of e_j v = sum x row over all j,
is its column of every e_j.  Linear dependence is decided exactly by the
raising operators: on the irreducible V_lam a nonzero vector of weight nu
killed by every e_i generates a submodule with highest weight nu, so nu =
lam (Humphreys, 20-21).  Below lam the map v -> (e_1 v, ..., e_r v) is
therefore injective, and vectors are dependent iff their e-images, computed
in the part already built, are.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add, mul, sub
from types import MappingProxyType

from . import linalg
from .errors import InternalCheckError
from .rootsys import RootSystem, build


@dataclass(frozen=True)
class IrrComponent:
    highest_weight: tuple
    multiplicity: int = 1


def weight_multiplicities(rs, lam):
    """Full weight system of the irreducible module V_lam (Freudenthal).

    Returns {weight: multiplicity}, top down by level below lam (the height
    of lam - w in simple roots), ties by increasing tuple; the total
    multiplicity equals weyl_dim(lam).  The dominant weights are reached from
    lam by positive-root steps and each W-orbit is rs.orbit of its
    dominant weight; Freudenthal then runs on the dominant weights alone, on
    integers (pairings through rs.d, see rootsys).
    """
    lam = tuple(lam)
    rs.check_length(lam)
    if not rs.is_dominant(lam):
        raise ValueError(f"weight {lam} is not dominant")
    # dominant weights below lam, each reached from one above it by a positive root
    below = {lam: tuple([0] * rs.rank)}  # dominant mu -> lam - mu in simple-root coords
    frontier = [lam]
    while frontier:
        nxt = []
        for w in frontier:
            for c, af in rs.root_weights.items():
                x = tuple(map(sub, w, af))
                if min(x) >= 0 and x not in below:
                    below[x] = tuple(map(add, below[w], c))
                    nxt.append(x)
        frontier = nxt
    dom = {}  # weight -> its dominant representative
    levels = {}  # level -> its weights
    for top, k in below.items():
        for w, lw in rs.orbit(top, range(rs.rank)).items():
            dom[w] = top
            levels.setdefault(sum(k) + lw, []).append(w)
    dominants = sorted(below, key=lambda w: (sum(below[w]), w))
    # Freudenthal recursion, top down:
    # m(mu) = sum_{a > 0, k >= 1} 2 m(mu + k a) (mu + k a, a)
    #         / ((lam + rho, lam + rho) - (mu + rho, mu + rho)),
    # whose denominator is (lam - mu, lam + mu + 2 rho) = sum_i b_i d_i (lam + mu + 2 rho)_i
    # for lam - mu = sum_i b_i alpha_i, b = below[mu]
    roots = []
    for c, af in rs.root_weights.items():
        fa = tuple(map(mul, c, rs.d))  # (., a) on fundamental coordinates
        roots.append((af, fa, sum(map(mul, af, fa))))
    mult = {lam: 1}
    for mu in dominants:
        if mu == lam:
            continue
        total = 0
        for af, fa, aa in roots:
            pair = sum(map(mul, mu, fa))
            nu = mu
            while True:
                nu = tuple(map(add, nu, af))
                if nu not in dom:
                    break
                pair += aa
                total += 2 * mult[dom[nu]] * pair
        denom = sum(b * d * (x + y + 2) for b, d, x, y in zip(below[mu], rs.d, lam, mu))
        if denom <= 0 or total % denom or total // denom <= 0:
            raise InternalCheckError(
                f"Freudenthal multiplicity {total}/{denom} of {mu} in V{lam} is not "
                "a positive integer")
        mult[mu] = total // denom
    out = {w: mult[dom[w]] for lv in sorted(levels) for w in sorted(levels[lv])}
    if sum(out.values()) != rs.weyl_dim(lam):
        raise InternalCheckError(
            f"weight multiplicities of V{lam} sum to {sum(out.values())}, "
            f"not the Weyl dimension {rs.weyl_dim(lam)}")
    return out


def weight_system(rs, lam):
    """Read-only weight system of V_lam, computed once per RootSystem.

    Brauer-Klimyk, the module grading and construct_rep all walk V_lam for
    the same lam in one report; they share this memo.  The mapping cannot
    be written through, so no caller can change what the next one reads.
    """
    lam = tuple(lam)
    ws = rs._weight_systems.get(lam)
    if ws is None:
        ws = rs._weight_systems[lam] = MappingProxyType(weight_multiplicities(rs, lam))
    return ws


def tensor_decompose(rs, lam, mu):
    """Decompose V_lam (x) V_mu into irreducibles (Brauer-Klimyk).

    Folds the weights of V_lam shifted by mu (rs.fold over W), so V_lam
    should be the smaller factor.  Returns a list of IrrComponent sorted by highest weight; the dimension
    identity sum(mult * dim) = dim(lam) * dim(mu) is checked.
    """
    lam, mu = tuple(lam), tuple(mu)
    comps = [IrrComponent(hw, m) for hw, m in rs.fold(
        ((map(add, nu, mu), m) for nu, m in weight_system(rs, lam).items()),
        range(rs.rank)).items()]
    total = sum(c.multiplicity * rs.weyl_dim(c.highest_weight) for c in comps)
    if total != rs.weyl_dim(lam) * rs.weyl_dim(mu):
        raise InternalCheckError(
            f"V{lam} (x) V{mu} decomposes into dimension {total}, not "
            f"{rs.weyl_dim(lam)} * {rs.weyl_dim(mu)}")
    return comps


def gperp_decompose(rs, lam):
    """Decompose sl(U) minus the represented algebra, U = V_lam.

    Computes V_lam (x) V_lam*, walking the weights of V_lam (shared with
    grade_module and construct_rep), drops one trivial summand (gl -> sl) and one
    adjoint summand per simple factor (the algebra itself).
    """
    lam = tuple(lam)
    n = rs.weyl_dim(lam)
    if n < 2:
        raise ValueError("module must have dimension >= 2")
    comps = {c.highest_weight: c.multiplicity
             for c in tensor_decompose(rs, lam, rs.dual_weight(lam))}
    zero = tuple([0] * rs.rank)
    if comps.get(zero, 0) < 1:
        raise ValueError("no trivial summand found in U* (x) U")
    comps[zero] -= 1
    for s in range(len(rs.factors)):
        adj = rs.adjoint_weight(s)
        if comps.get(adj, 0) < 1:
            raise ValueError(
                f"adjoint summand {adj} missing from U* (x) U; "
                "the weight does not act faithfully on factor "
                f"{rs.factors[s]}")
        comps[adj] -= 1
    out = [IrrComponent(hw, m) for hw, m in sorted(comps.items()) if m]
    total = sum(c.multiplicity * rs.weyl_dim(c.highest_weight) for c in out)
    if total != n * n - 1 - rs.dim_g():
        raise InternalCheckError(
            f"g-perp components have dimension {total}, not {n * n - 1 - rs.dim_g()}")
    return out


# ---------- explicit modules ----------

DEFAULT_ORACLE_BOUND = 30


@dataclass
class RepMatrices:
    """Chevalley generator matrices on an explicit weight basis.

    Every matrix of g on a module is stored as a {(row, col): x} map of its
    nonzero entries, never as a dense list of rows: each one is homogeneous
    for the torus weight, so most of its entries are zero.
    """
    rs: RootSystem
    highest_weight: tuple
    dimension: int
    basis_weights: list  # weight tuple per basis vector
    e: list  # one matrix per simple node
    f: list
    h: list  # diagonal


def construct_rep(rs, lam, bound=DEFAULT_ORACLE_BOUND):
    """Exact matrices for V_lam, built by lowering-operator closure.

    Walks the weight system top down and keeps every vector by its global
    id: e_image[v] is its column of every e_j (module docstring) and
    f_col[i][v] its column of f_i, both sparse.  Each new weight space is
    spanned by the candidates f_i b, b a vector one level up.  As e_j f_i b
    = f_i e_j b + delta_ij h_i b, the e-image of f_i b is the sum of c times
    the column f_col[i][t] over the entries c at (j, t) of e_image[b], plus
    h_i b at (i, b).  e = (e_1, ..., e_r) is injective below lam, so a
    candidate is a new basis vector iff its e-image lies outside the span of
    the e-images of the candidates before it, and the coordinates of f_i b in
    the chosen e-images are the column f_col[i][b].  One reduced echelon
    form per weight space, of the matrix whose columns are the e-images,
    gives both: the chosen candidates are its pivots, and f_i b's coordinate
    in a row is the row's entry at the candidate over its pivot entry (row
    operations keep the linear relations among the columns, and each pivot
    column of the reduced form is a multiple of a unit vector).  Freudenthal
    multiplicities double-check every level.
    """
    lam = tuple(lam)
    dim = rs.weyl_dim(lam)
    if bound is not None and dim > bound:
        raise ValueError(f"dim V_lam = {dim} exceeds the oracle bound {bound}")
    wsys = weight_system(rs, lam)  # top down by level below lam
    alpha_fund = rs.simple_root_weights

    basis = {lam: range(1)}  # weight -> global ids of its basis vectors
    weight_of = [lam]
    e_image = [{}]  # vid -> {(j, row vid): x}, its column of every e_j
    f_col = [{} for _ in alpha_fund]  # f_col[i][vid] -> {row vid: x}
    for nu in list(wsys)[1:]:  # the first is lam
        cands = [(i, b) for i, af in enumerate(alpha_fund)
                 for b in basis.get(tuple(map(add, nu, af)), ())]
        images = []
        for i, b in cands:
            image = {}
            # f_i e_j b; f_col[i][t] is missing iff f_i t = 0 for want of a weight
            for (j, t), c in e_image[b].items():
                for r, x in f_col[i].get(t, {}).items():
                    image[j, r] = image.get((j, r), 0) + c * x
            if weight_of[b][i]:  # + h_i b
                image[i, b] = image.get((i, b), 0) + Fraction(weight_of[b][i])
            images.append({k: x for k, x in image.items() if x})
        matrix = {}  # its rows, as maps; its k-th column is images[k]
        for k, image in enumerate(images):
            for r, x in image.items():
                matrix.setdefault(r, {})[k] = x
        reduced = [(min(row), row) for row in linalg.echelon_rows(matrix.values())]
        chosen = [c for c, _ in reduced]
        coords = [[Fraction(row.get(k, 0), row[c]) for c, row in reduced]
                  for k in range(len(cands))]
        if len(chosen) != wsys[nu]:
            raise InternalCheckError(
                f"weight space {nu} of V{lam} got {len(chosen)} basis vectors, "
                f"Freudenthal says {wsys[nu]}")
        ids = range(len(weight_of), len(weight_of) + len(chosen))
        basis[nu] = ids
        weight_of += [nu] * len(chosen)
        e_image += [images[x] for x in chosen]
        for (i, b), c in zip(cands, coords):
            f_col[i][b] = {r: x for r, x in zip(ids, c) if x}

    if len(weight_of) != dim:
        raise InternalCheckError(
            f"V{lam} got {len(weight_of)} basis vectors, not its dimension {dim}")
    rank = range(rs.rank)
    E = [{(r, v): x for v, image in enumerate(e_image)
          for (j, r), x in sorted(image.items()) if j == i} for i in rank]
    F = [{(r, b): x for b, col in sorted(f_col[i].items()) for r, x in col.items()}
         for i in rank]
    H = [{(v, v): Fraction(w[i]) for v, w in enumerate(weight_of) if w[i]} for i in rank]
    return RepMatrices(rs, lam, dim, weight_of, E, F, H)


def commutator(A, B):
    """[A, B] = AB - BA, for matrices stored as {(row, col): x} maps of nonzeros.

    A is indexed by row and by column once, so the product costs one pass
    over the entries of B.  The result is stored the same way: entries that
    cancel are dropped.
    """
    rows, cols = {}, {}
    for (r, c), x in A.items():
        rows.setdefault(r, []).append((c, x))
        cols.setdefault(c, []).append((r, x))
    C = {}
    for (i, j), y in B.items():
        for r, x in cols.get(i, ()):  # A[r][i] B[i][j]
            C[(r, j)] = C.get((r, j), 0) + x * y
        for c, x in rows.get(j, ()):  # B[i][j] A[j][c]
            C[(i, c)] = C.get((i, c), 0) - y * x
    return {k: x for k, x in C.items() if x}


def root_vector_matrices(rep):
    """One lowering root vector f_alpha per positive root, via iterated brackets.

    For a non-simple positive root alpha = beta + alpha_i (the decomposition
    recorded during root enumeration) the vector is f_alpha = [f_i, f_beta].
    The same recipe must be used wherever structure constants are needed, so
    bases stay consistent across modules.  Returns {root coords: f_alpha}.
    """
    rs = rep.rs
    fmat = {}
    for r in rs.positive_roots:
        if r.parent is None:
            fmat[r.coords] = rep.f[r.coords.index(1)]
        else:
            pidx, i = r.parent
            fmat[r.coords] = commutator(rep.f[i], fmat[rs.positive_roots[pidx].coords])
    return fmat


@lru_cache(maxsize=None)
def _companion_root_vectors(family, rank):
    """root_vector_matrices of the smallest faithful module of a simple factor.

    structure_constants reads its brackets; the matrices are never written.
    """
    rs = build([(family, rank)])
    if family == "E":
        node = {6: 0, 7: 6, 8: 7}[rank]
    elif family == "F":
        node = 3
    else:
        node = 0
    lam = tuple(1 if i == node else 0 for i in range(rank))
    return root_vector_matrices(construct_rep(rs, lam, bound=None))


def structure_constants(rs, root_list):
    """Bracket table for the span of {f_alpha : alpha in root_list}.

    Returns {(a, b): {c: coeff}} for a < b meaning
    [f_{alpha_a}, f_{alpha_b}] = sum coeff * f_{alpha_c}.  Computed inside a
    faithful companion module of each factor; cross-factor brackets vanish.
    """
    root_list = [tuple(r) for r in root_list]
    index = {r: k for k, r in enumerate(root_list)}
    factor_of = {r.coords: r.factor for r in rs.positive_roots}
    companion_f = {}
    for s, fac in enumerate(rs.factors):
        fm = _companion_root_vectors(fac.family, fac.rank)
        off = rs.offsets[s]
        n = fac.rank
        for coords, M in fm.items():
            glob = tuple(coords[i - off] if off <= i < off + n else 0
                         for i in range(rs.rank))
            companion_f[glob] = M
    table = {}
    for a in range(len(root_list)):
        for b in range(a + 1, len(root_list)):
            ra, rb = root_list[a], root_list[b]
            if factor_of[ra] != factor_of[rb]:
                table[(a, b)] = {}
                continue
            gamma = tuple(x + y for x, y in zip(ra, rb))
            br = commutator(companion_f[ra], companion_f[rb])
            if gamma not in index:
                if gamma in companion_f:
                    raise ValueError("bracket leaves the requested span")
                if br:
                    raise InternalCheckError(
                        f"[f_{ra}, f_{rb}] is nonzero but {gamma} is not a root")
                table[(a, b)] = {}
                continue
            target = companion_f[gamma]
            if not target:
                raise InternalCheckError(f"root vector f_{gamma} is the zero matrix")
            key = next(iter(target))
            coeff = br.get(key, 0) / target[key]
            if br != ({k: coeff * x for k, x in target.items()} if coeff else {}):
                raise InternalCheckError(
                    f"[f_{ra}, f_{rb}] is not a multiple of f_{gamma}")
            table[(a, b)] = {index[gamma]: coeff} if coeff else {}
    return table
