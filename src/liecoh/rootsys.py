"""Root systems and Weyl combinatorics for semisimple types, Bourbaki numbering.

Conventions, fixed once and used everywhere:
  * cartan[i][j] = <alpha_i^vee, alpha_j>; column j holds the fundamental
    coordinates of alpha_j.
  * Weights are stored in fundamental-weight coordinates (tuples, one block
    per simple factor, concatenated in declaration order).
  * Roots are stored in simple-root coordinates.
  * The invariant form is normalized per simple factor so the highest root
    has squared length 2.
  * d[i] is the integer symmetrizer of the Cartan matrix, d_i C_ij = d_j C_ji:
    1 on short roots (and on every root of a simply-laced factor), 2 or 3 on
    long ones, so d_i is (alpha_i, alpha_i) / 2 up to one scale per factor.

build gives one RootSystem per type per process: equal factor lists, as
SimpleFactors or (family, rank) pairs, get the identical object, so its
memos (weight systems, Weyl dimensions) serve every scenario on the type.
Its data are read-only: no package code writes them after __init__, and a
caller that needs an instance of its own, to corrupt in a test or to count
the work of a fresh build, calls RootSystem(...) directly.  The data stay
lists, because the golden tests hash their repr.  A type with more than
ROOTS_MAX positive roots, counted from the type before any root is walked,
is refused with a ValueError.

The root data is built on integers alone, once per RootSystem, and checked
when it is built:
  * coroots[k] holds the coroot of the k-th positive root alpha in
    simple-coroot coordinates, k_j = 2 c_j d_j / (alpha, alpha) for
    alpha = sum c_j alpha_j, so <lam, alpha^vee> = sum_j lam_j k_j for a
    weight lam in fundamental coordinates.
  * form / form_den is the normalized invariant form on fundamental
    coordinates: (w1, w2) = sum_ij w1_i form[i][j] w2_j / form_den.
  * half_norms[i] = form_den (alpha_i, alpha_i) / 2, so form_den (w, alpha)
    = sum_i w_i c_i half_norms[i]: w pairs with alpha = beta + alpha_i
    (PositiveRoot.parent) as with beta, plus w_i half_norms[i].
  * inverse_cartan_scaled / inverse_cartan_den is C^-1, so the simple-root
    coordinates of a weight are integer dot products over one denominator.
  * root_weights maps each positive root, in simple-root coordinates, to its
    fundamental coordinates.

Two Weyl-group walks serve every module, for the group W' of the
reflections at given nodes (all of them for W, the unmarked ones for W_0):
  * orbit walks the W'-orbit of a weight >= 0 at the nodes down by
    s_i w = w - w_i alpha_i wherever w_i > 0, w_i levels lower (level: the
    height of weight - w), which reaches every weight of the orbit
    (Moody-Patera, SIAM J. Algebraic Discrete Methods 3, 1982).
  * fold is Racah-Speiser, Weyl's character formula read backwards: mu + rho
    is brought into the dominant chamber of W' with the sign of the Weyl
    element, and mu counts with that sign for the highest weight (that
    chamber weight - rho), not at all on a wall.  rho may be any rho' = 1
    at the nodes, as rho - rho' is W'-invariant.
"""

from dataclasses import dataclass
from functools import cache
from math import gcd, lcm, prod
from operator import add, lt, mul, sub

from . import linalg
from .errors import InternalCheckError

FAMILIES = "ABCDEFG"
# the positive roots of A100, which builds in about 1 s on a 2-core host
ROOTS_MAX = 5_050


@dataclass(frozen=True)
class SimpleFactor:
    family: str
    rank: int

    def __post_init__(self):
        f, n = self.family, self.rank
        if f not in tuple(FAMILIES) or not isinstance(n, int) or isinstance(n, bool):
            raise ValueError(f"no simple type: family {f!r}, rank {n!r}")
        ok = (
            (f == "A" and n >= 1)
            or (f in "BC" and n >= 2)
            or (f == "D" and n >= 3)
            or (f == "E" and n in (6, 7, 8))
            or (f == "F" and n == 4)
            or (f == "G" and n == 2)
        )
        if not ok:
            raise ValueError(f"no simple type {f}{n}")

    def __str__(self):
        return f"{self.family}{self.rank}"


def as_factors(factors):
    """factors (SimpleFactors or (family, rank) pairs) as a tuple of SimpleFactor."""
    return tuple(f if isinstance(f, SimpleFactor) else SimpleFactor(*f) for f in factors)


def positive_root_count(factor):
    """The number of positive roots of a simple factor, read off its type."""
    n = factor.rank
    if factor.family == "A":
        return n * (n + 1) // 2
    if factor.family in "BC":
        return n * n
    if factor.family == "D":
        return n * (n - 1)
    return {"E6": 36, "E7": 63, "E8": 120, "F4": 24, "G2": 6}[str(factor)]


def _cartan_simple(factor):
    """Integer Cartan matrix of one simple factor, Bourbaki numbering."""
    f, n = factor.family, factor.rank
    A = [[0] * n for _ in range(n)]
    for i in range(n):
        A[i][i] = 2

    def bond(i, j, a=-1, b=-1):
        A[i][j] = a
        A[j][i] = b

    if f in "ABCFG":
        for i in range(n - 1):
            bond(i, i + 1)
    if f == "B":
        bond(n - 2, n - 1, -1, -2)  # alpha_n short
    elif f == "C":
        bond(n - 2, n - 1, -2, -1)  # alpha_n long
    elif f == "D":
        for i in range(n - 3):
            bond(i, i + 1)
        bond(n - 3, n - 2)
        bond(n - 3, n - 1)
        A[n - 2][n - 1] = A[n - 1][n - 2] = 0
    elif f == "E":
        # chain 1-3-4-5-6(-7)(-8), node 2 hangs off node 4
        chain = [0, 2, 3, 4, 5, 6, 7][: n - 1]
        for a, b in zip(chain, chain[1:]):
            bond(a, b)
        bond(1, 3)
    elif f == "F":
        bond(1, 2, -1, -2)  # alpha_3, alpha_4 short
    elif f == "G":
        bond(0, 1, -3, -1)  # alpha_1 short
    return A


def _lengths_simple(factor):
    """Integer symmetrizer d_i of one simple factor: 1 on short roots."""
    f, n = factor.family, factor.rank
    d = [1] * n
    if f == "B":
        d[:n - 1] = [2] * (n - 1)
    elif f == "C":
        d[n - 1] = 2
    elif f == "F":
        d[0] = d[1] = 2
    elif f == "G":
        d[1] = 3
    return d


@dataclass(frozen=True)
class PositiveRoot:
    coords: tuple  # simple-root coordinates, global (ints)
    factor: int
    height: int
    parent: tuple | None  # (index of beta in positive_roots, simple index i) with root = beta + alpha_i


class RootSystem:
    """Root data for a semisimple product, factors block-concatenated."""

    def __init__(self, factors):
        self.factors = list(as_factors(factors))
        if not self.factors:
            raise ValueError("empty factor list")
        roots = sum(map(positive_root_count, self.factors))
        if roots > ROOTS_MAX:
            raise ValueError(f"{self} has {roots} positive roots, over the root-system "
                             f"budget ROOTS_MAX = {ROOTS_MAX}")
        self.rank = sum(f.rank for f in self.factors)
        self.offsets = []
        off = 0
        for f in self.factors:
            self.offsets.append(off)
            off += f.rank
        self.cartan = self._block_cartan()
        # fundamental coordinates of alpha_i: column i of the Cartan matrix
        self.simple_root_weights = [tuple(col) for col in zip(*self.cartan)]
        # sigma_i w = w - w_i alpha_i changes w only where alpha_i is nonzero
        self.moves = [[(j, a) for j, a in enumerate(af) if a]
                      for af in self.simple_root_weights]
        self.inverse_cartan_den, self.inverse_cartan_scaled = _invert(self.cartan)
        self.d = []
        for f in self.factors:
            self.d.extend(_lengths_simple(f))
        self.positive_roots, self.root_weights = self._enumerate_positive_roots()
        self.rho = tuple([1] * self.rank)
        self.highest_root_per_factor = [self._highest_root(s)
                                        for s in range(len(self.factors))]
        self.coroots = [self._coroot(r.coords) for r in self.positive_roots]
        self._build_form()
        self._weight_systems = {}  # lam -> read-only weight system, see repthy.weight_system
        self._weyl_dims = {}  # dominant weight -> its Weyl dimension, see weyl_dim

    def _block_cartan(self):
        C = [[0] * self.rank for _ in range(self.rank)]
        for f, off in zip(self.factors, self.offsets):
            block = _cartan_simple(f)
            for i in range(f.rank):
                for j in range(f.rank):
                    C[off + i][off + j] = block[i][j]
        return C

    def _enumerate_positive_roots(self):
        """(positive roots, root_weights), by alpha_i-strings upward from the simple roots.

        A root of height h + 1 is found from one of height h, and the walk
        visits every pair (root of height h, alpha_i), so down[k][i], the
        number of roots root_k - j alpha_i with j >= 1, is one more than that
        of root_k - alpha_i once height h is walked.
        """
        # coords, factor, height, parent as in PositiveRoot; parent indexes this list
        roots = []
        weights = []  # fundamental coords of roots[k]: <root, alpha_i^vee> = weights[k][i]
        down = []
        seen = {}
        for i in range(self.rank):
            coords = tuple(1 if j == i else 0 for j in range(self.rank))
            seen[coords] = len(roots)
            roots.append((coords, self.factor_of_node(i), 1, None))
            weights.append(self.simple_root_weights[i])
            down.append([0] * self.rank)
        frontier = list(range(self.rank))
        while frontier:
            new_frontier = []
            for ri in frontier:
                coords, factor, height, _ = roots[ri]
                weight, below = weights[ri], down[ri]
                for i in range(self.rank):
                    # root string: root + alpha_i is a root iff p > <root, alpha_i^vee>,
                    # p = below[i] counting the roots root - j alpha_i, j >= 1
                    # (both 0 at a node of another factor)
                    if below[i] <= weight[i]:
                        continue
                    cand = coords[:i] + (coords[i] + 1,) + coords[i + 1:]
                    k = seen.get(cand)
                    if k is None:
                        k = seen[cand] = len(roots)
                        roots.append((cand, factor, height + 1, (ri, i)))
                        weights.append(tuple(map(add, weight, self.simple_root_weights[i])))
                        down.append([0] * self.rank)
                        new_frontier.append(k)
                    down[k][i] = below[i] + 1
            frontier = new_frontier
        order = sorted(range(len(roots)), key=lambda k: (roots[k][2], roots[k][0]))
        remap = {old: new for new, old in enumerate(order)}
        positive = []
        for k in order:
            coords, factor, height, parent = roots[k]
            if parent is not None:
                parent = (remap[parent[0]], parent[1])
            positive.append(PositiveRoot(coords, factor, height, parent))
        return positive, {roots[k][0]: weights[k] for k in order}

    def _highest_root(self, s):
        roots = [r.coords for r in self.positive_roots if r.factor == s]
        # the last, of greatest height, dominates every root of the factor coordinatewise
        for c in roots:
            if any(map(lt, roots[-1], c)):
                raise InternalCheckError(f"highest root does not dominate {c}")
        return roots[-1]

    def _coroot(self, root_coords):
        """Simple-coroot coordinates k_j = 2 c_j d_j / (alpha, alpha) of alpha^vee.

        (alpha, alpha) = sum_i c_i d_i <alpha_i^vee, alpha> up to the factor's
        scale, which cancels; the k_j must be integers.
        """
        norm2 = sum(map(mul, root_coords,
                        map(mul, self.d, self.root_weights[root_coords])))
        k = [2 * c * d for c, d in zip(root_coords, self.d)]
        if any(x % norm2 for x in k):
            raise InternalCheckError(f"coroot of {root_coords} is not integral")
        return tuple(x // norm2 for x in k)

    def _build_form(self):
        """form / form_den: (omega_i, omega_j) = (C^-1)_ji d_j / d_long(j), reduced.

        d_long(j) is the d of the long roots of node j's factor, so every
        highest root has squared length 2; this is checked, as is the
        symmetry of the form.
        """
        d_long = []
        for f, off in zip(self.factors, self.offsets):
            d_long += [max(self.d[off:off + f.rank])] * f.rank
        scale = lcm(*d_long)
        form = [[self.inverse_cartan_scaled[j][i] * self.d[j] * (scale // d_long[j])
                 for j in range(self.rank)] for i in range(self.rank)]
        den = self.inverse_cartan_den * scale
        g = gcd(den, *(x for row in form for x in row))
        self.form_den, self.form = den // g, [[x // g for x in row] for row in form]
        if any(self.form[i][j] != self.form[j][i]
               for i in range(self.rank) for j in range(i)):
            raise InternalCheckError(f"invariant form of {self} is not symmetric")
        for s in range(len(self.factors)):
            theta = self.adjoint_weight(s)
            if self.scaled_inner(theta, theta) != 2 * self.form_den:
                raise InternalCheckError(
                    f"highest root of {self.factors[s]} does not have squared length 2")
        norms = [self.scaled_inner(a, a) for a in self.simple_root_weights]
        if any(n <= 0 or n % 2 for n in norms):
            raise InternalCheckError(f"simple root norms {norms} are not positive and even")
        self.half_norms = [n // 2 for n in norms]

    # ---------- node / factor bookkeeping ----------

    def factor_of_node(self, i):
        for s in range(len(self.factors) - 1, -1, -1):
            if i >= self.offsets[s]:
                return s
        raise IndexError(i)

    def fund_coords_of_root(self, root_coords):
        """Fundamental coordinates of a root given in simple-root coordinates."""
        return tuple(sum(self.cartan[i][j] * root_coords[j] for j in range(self.rank))
                     for i in range(self.rank))

    # ---------- pairings ----------

    def scaled_inner(self, w1, w2):
        """form_den * (w1, w2), an integer."""
        return sum(x * sum(map(mul, row, w2)) for x, row in zip(w1, self.form) if x)

    # ---------- Weyl machinery ----------

    def is_dominant(self, weight):
        return all(c >= 0 for c in weight)

    def reflect(self, i, weight):
        """Simple reflection sigma_i acting linearly on a weight."""
        ci = weight[i]
        if not ci:
            return tuple(weight)
        w = list(weight)
        for j, a in self.moves[i]:
            w[j] -= ci * a
        return tuple(w)

    def affine_action(self, i, weight):
        """sigma_i . mu = sigma_i(mu + rho) - rho."""
        shifted = tuple(c + 1 for c in weight)
        return tuple(c - 1 for c in self.reflect(i, shifted))

    def dominize_signed(self, weight, nodes):
        """(dominant rep, det sign), or (None, 0) if the weight lies on a wall.

        nodes (0-based) generate the Weyl group: dominant means >= 0 at them.
        """
        w = tuple(weight)
        sign = 1
        while True:
            for i in nodes:
                if w[i] == 0:
                    return None, 0
                if w[i] < 0:
                    w = self.reflect(i, w)
                    sign = -sign
                    break
            else:
                return w, sign

    def orbit(self, weight, nodes):
        """{w: level below weight} over the orbit of weight under the reflections at nodes.

        weight must be >= 0 at nodes (0-based); see the module docstring.
        """
        top = tuple(weight)
        if any(top[i] < 0 for i in nodes):
            raise ValueError(f"weight {top} is negative at a node")
        out = {top: 0}
        stack = [(top, 0)]
        while stack:
            w, level = stack.pop()
            for i in nodes:
                wi = w[i]
                if wi > 0:
                    c = list(w)
                    for j, a in self.moves[i]:
                        c[j] -= wi * a
                    c = tuple(c)
                    if c not in out:
                        out[c] = level + wi
                        stack.append((c, level + wi))
        return out

    def fold(self, pairs, nodes):
        """Racah-Speiser: (weight, multiplicity) pairs -> {highest weight: multiplicity}.

        Over the Weyl group of nodes (module docstring); sorted by highest
        weight, zero totals dropped.  The pairs must be the weights of a
        module: a negative total raises.
        """
        acc = {}
        for mu, m in pairs:
            top, sign = self.dominize_signed(map(add, mu, self.rho), nodes)
            if sign:
                hw = tuple(map(sub, top, self.rho))
                acc[hw] = acc.get(hw, 0) + sign * m
        bad = {hw: m for hw, m in acc.items() if m < 0}
        if bad:
            raise InternalCheckError(f"Racah-Speiser gives negative multiplicities {bad}")
        return {hw: m for hw, m in sorted(acc.items()) if m}

    def weyl_dim(self, weight):
        """Weyl dimension formula; weight must be dominant integral.

        The weight is checked on every call and its product is computed
        once per RootSystem.
        """
        if not self.is_dominant(weight):
            raise ValueError(f"weight {weight} is not dominant")
        self.check_length(weight)
        weight = tuple(weight)
        dim = self._weyl_dims.get(weight)
        if dim is None:
            dim = self._weyl_dims[weight] = self.weyl_product(
                weight, range(len(self.positive_roots)))
        return dim

    def weyl_product(self, weight, roots):
        """prod (weight + rho, a) / prod (rho, a) over positive roots a.

        roots are indices into positive_roots: all of them give the Weyl
        dimension, a Levi's give the Levi's.  The quotient must be a
        positive integer, which is checked.
        """
        self.check_length(weight)
        h = self.half_norms
        s = [(x + 1) * n for x, n in zip(weight, h)]  # form_den (weight + rho, alpha_i)
        top, low = s[::-1], h[::-1]  # positive_roots opens with alpha_rank, ..., alpha_1
        for r in self.positive_roots[self.rank:]:
            k, i = r.parent
            top.append(top[k] + s[i])
            low.append(low[k] + h[i])
        num, den = prod(map(top.__getitem__, roots)), prod(map(low.__getitem__, roots))
        if num % den or num // den <= 0:
            raise InternalCheckError(
                f"Weyl dimension {num}/{den} of {tuple(weight)} is not a "
                "positive integer")
        return num // den

    def check_length(self, weight):
        """ValueError unless weight has one coordinate per simple root."""
        if len(weight) != self.rank:
            raise ValueError(f"weight {weight} has the wrong length; the rank is {self.rank}")

    def dual_weight(self, weight):
        """Highest weight of the dual module, via the diagram involution."""
        self.check_length(weight)
        out = list(weight)
        for f, off in zip(self.factors, self.offsets):
            n = f.rank
            block = list(weight[off:off + n])
            if f.family == "A":
                block = block[::-1]
            elif f.family == "D" and n % 2 == 1:
                block[n - 2], block[n - 1] = block[n - 1], block[n - 2]
            elif f.family == "E" and n == 6:
                block[0], block[5] = block[5], block[0]
                block[2], block[4] = block[4], block[2]
            out[off:off + n] = block
        return tuple(out)

    def adjoint_weight(self, s=0):
        """Highest weight of factor s's adjoint module, in global coordinates."""
        return self.root_weights[self.highest_root_per_factor[s]]

    def dim_g(self):
        return sum(2 * sum(1 for r in self.positive_roots if r.factor == s) + f.rank
                   for s, f in enumerate(self.factors))

    def __repr__(self):
        return "x".join(str(f) for f in self.factors)


def _invert(cartan):
    """(D, D C^-1) from the integer kernel of (C | -I), D the least common denominator.

    C is invertible, so the free columns are the last n and the vector at
    free column n + j is s_j (C^-1 e_j, e_j), s_j the least denominator of
    column j of C^-1; D = lcm(s_j).
    """
    n = len(cartan)
    ker = linalg.integer_kernel([list(row) + [-int(i == j) for j in range(n)]
                                 for i, row in enumerate(cartan)], 2 * n)
    den = lcm(*(v[n + j] for j, v in enumerate(ker)))
    return den, [[ker[j].get(i, 0) * (den // ker[j][n + j]) for j in range(n)]
                 for i in range(n)]


def build(factors):
    """The shared RootSystem of a list of SimpleFactor (or (family, rank) pairs).

    One instance per type per process, read-only (module docstring).
    """
    return _shared(as_factors(factors))


@cache
def _shared(factors):
    return RootSystem(factors)


def parse_factor(text):
    """Parse one simple type such as 'A2' or 'e8' into a SimpleFactor."""
    p = text.strip().upper() if isinstance(text, str) else ""
    if len(p) < 2 or p[0] not in FAMILIES or not (p[1:].isascii() and p[1:].isdigit()):
        raise ValueError(f"cannot parse simple type {text!r}")
    return SimpleFactor(p[0], int(p[1:]))


def parse_type(text):
    """Parse 'A2', 'A1xA1', 'A1XA1', 'A1,A1' into a RootSystem."""
    return build([parse_factor(p)
                  for p in text.replace("x", ",").replace("X", ",").split(",")])
