"""Parabolic markings, the grading element Z, and Z-gradings of g and modules.

A ParabolicMarking is one parabolic of one root system, named by its marked
nodes.  Node indices are 1-based (Bourbaki order, concatenated across
factors).  Everything the rest of the package reads off the parabolic is
built, and checked, once when the marking is: the Levi nodes, Z, and the
Z-degree of every positive root.  Z is the functional on the weight lattice
with Z(alpha_i) = 1 for marked i and 0 for unmarked i; on a weight it
evaluates through the inverse Cartan matrix.  Gradings of g are symmetric
about 0; module gradings are shifted so the top (highest-weight) slice sits
in degree 0, matching the convention used for osculating sequences.
"""

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from . import repthy
from .errors import InternalCheckError


@dataclass(frozen=True)
class GradingElementValue:
    """Z on fundamental coordinates: Z(w) = sum_j row[j] w[j] / den, integer row."""
    row: tuple
    den: int

    def __call__(self, weight):
        return Fraction(sum(map(mul, self.row, weight)), self.den)


class ParabolicMarking:
    """The parabolic of rs with the given marked nodes; ValueError on bad nodes.

    rs:           the root system
    marked:       frozenset of the marked nodes, 1-based
    unmarked:     the unmarked nodes, 0-based: the simple roots of g_0, whose
                  reflections generate the Levi Weyl group W_0
    z:            the grading element, a GradingElementValue, Z(alpha_i) = [i marked]
    root_degrees: positive root (simple-root coordinates) -> Z(root), the sum
                  of its marked coefficients, in the order of rs.positive_roots
    levi_roots:   the indices into rs.positive_roots of the degree-0 roots,
                  the positive roots of g_0

    A marking is read-only: the fields are checked against each other once,
    here, so setting or deleting any of them raises AttributeError.
    """

    def __init__(self, rs, marked):
        nodes = frozenset(marked)
        if not nodes:
            raise ValueError("marking must be non-empty")
        for i in nodes:
            if isinstance(i, bool) or not isinstance(i, int):
                raise ValueError(f"a marked node must be an integer, got {i!r}")
        if any(i < 1 for i in nodes):
            raise ValueError("node indices are 1-based")
        if any(i > rs.rank for i in nodes):
            raise ValueError(f"marked node out of range for rank {rs.rank}")
        marked0 = sorted(i - 1 for i in nodes)
        z = GradingElementValue(
            tuple(sum(rs.inverse_cartan_scaled[i][j] for i in marked0)
                  for j in range(rs.rank)),
            rs.inverse_cartan_den)
        for j, alpha in enumerate(rs.simple_root_weights):
            if z(alpha) != (1 if j + 1 in nodes else 0):
                raise InternalCheckError(
                    f"Z(alpha_{j + 1}) = {z(alpha)} disagrees with the marking")
        root_degrees = {r.coords: sum(r.coords[i] for i in marked0)
                        for r in rs.positive_roots}
        self.__dict__.update(
            rs=rs, marked=nodes, z=z, root_degrees=root_degrees,
            unmarked=tuple(j for j in range(rs.rank) if j + 1 not in nodes),
            levi_roots=tuple(k for k, r in enumerate(rs.positive_roots)
                             if not root_degrees[r.coords]))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"a ParabolicMarking is read-only; {name} cannot be changed")

    __delattr__ = __setattr__


def grade_algebra(marking):
    """Dimensions of the Z-graded pieces of g, {degree: dim} in increasing
    degree; symmetric about 0."""
    rs = marking.rs
    dims = {0: rs.rank}
    for d in marking.root_degrees.values():
        dims[d] = dims.get(d, 0) + 1
        dims[-d] = dims.get(-d, 0) + 1
    if sum(dims.values()) != rs.dim_g():
        raise InternalCheckError("graded pieces of g do not add up to dim g")
    if any(dims[d] != dims[-d] for d in dims):
        raise InternalCheckError(f"grading of g is not symmetric about 0: {dims}")
    return dict(sorted(dims.items()))


def algebra_depth(marking):
    """Z(highest root), maximized over factors; the k of g = g_-k + ... + g_k."""
    return max(marking.root_degrees[theta]
               for theta in marking.rs.highest_root_per_factor)


def grade_module(marking, lam):
    """Graded dimensions of V_lam, {degree: dim} in increasing degree, shifted
    so the top degree is 0.

    dims[-j] is the total multiplicity of weights nu with Z(nu) = Z(lam) - j.
    The support is contiguous {0, -1, ..., -f}, and dims[0] = 1 because
    supp(lam) must lie inside the marking.
    """
    if any(c and (j + 1) not in marking.marked for j, c in enumerate(lam)):
        raise ValueError(f"support of {tuple(lam)} is not inside the marking")
    z = marking.z
    top = sum(map(mul, z.row, lam))  # z.den * Z(lam)
    dims = {}
    for nu, m in repthy.weight_system(marking.rs, lam).items():
        scaled = top - sum(map(mul, z.row, nu))  # z.den * (Z(lam) - Z(nu))
        j, r = divmod(scaled, z.den)
        if r or j < 0:
            raise InternalCheckError(f"weight {nu} of V{tuple(lam)} has module degree "
                                     f"{Fraction(-scaled, z.den)}")
        dims[-j] = dims.get(-j, 0) + m
    f = -min(dims)
    if set(dims) != set(range(-f, 1)):
        raise InternalCheckError(f"module grading has gaps: {sorted(dims)}")
    return dict(sorted(dims.items()))
