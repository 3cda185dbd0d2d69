"""Parabolic markings, the grading element Z, and Z-gradings of g and modules.

Node indices are 1-based (Bourbaki order, concatenated across factors).
Z is the functional on the weight lattice with Z(alpha_i) = 1 for marked i
and 0 for unmarked i; on a weight it evaluates through the inverse Cartan
matrix.  Gradings of g are symmetric about 0; module gradings are shifted
so the top (highest-weight) slice sits in degree 0, matching the convention
used for osculating sequences.
"""

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from . import repthy
from .errors import InternalCheckError


@dataclass(frozen=True)
class ParabolicMarking:
    marked: frozenset  # 1-based global node indices

    def __init__(self, marked):
        object.__setattr__(self, "marked", frozenset(int(i) for i in marked))
        if not self.marked:
            raise ValueError("marking must be non-empty")
        if any(i < 1 for i in self.marked):
            raise ValueError("node indices are 1-based")

    def validate(self, rs):
        if any(i > rs.rank for i in self.marked):
            raise ValueError(f"marked node out of range for rank {rs.rank}")

    def zero_based(self):
        return sorted(i - 1 for i in self.marked)


@dataclass(frozen=True)
class GradingElementValue:
    """Z on fundamental coordinates: Z(w) = sum_j row[j] w[j] / den, integer row."""
    row: tuple
    den: int

    def __call__(self, weight):
        return Fraction(sum(map(mul, self.row, weight)), self.den)


@dataclass
class GradedDims:
    dims: dict  # degree -> dimension

    def depth(self):
        return max(abs(d) for d in self.dims)


def grading_element(rs, marking):
    """The grading element of a marking: Z(alpha_i) = [i marked]."""
    marking.validate(rs)
    row = tuple(sum(rs.inverse_cartan_scaled[i][j] for i in marking.zero_based())
                for j in range(rs.rank))
    z = GradingElementValue(row, rs.inverse_cartan_den)
    for j, alpha in enumerate(rs.simple_root_weights):
        if z(alpha) != (1 if (j + 1) in marking.marked else 0):
            raise InternalCheckError(f"Z(alpha_{j + 1}) = {z(alpha)} disagrees with the marking")
    return z


def root_degree(marking, root_coords):
    """Z-value of a root: the sum of its marked simple-root coefficients."""
    return sum(root_coords[i] for i in marking.zero_based())


def grade_algebra(rs, marking):
    """Dimensions of the Z-graded pieces of g; symmetric about 0."""
    marking.validate(rs)
    dims = {0: rs.rank}
    for r in rs.positive_roots:
        d = root_degree(marking, r.coords)
        dims[d] = dims.get(d, 0) + 1
        dims[-d] = dims.get(-d, 0) + 1
    if sum(dims.values()) != rs.dim_g():
        raise InternalCheckError("graded pieces of g do not add up to dim g")
    if any(dims[d] != dims[-d] for d in dims):
        raise InternalCheckError(f"grading of g is not symmetric about 0: {dims}")
    return GradedDims(dict(sorted(dims.items())))


def algebra_depth(rs, marking):
    """Z(highest root), maximized over factors; the k of g = g_-k + ... + g_k."""
    return max(root_degree(marking, theta) for theta in rs.highest_root_per_factor)


def grade_module(rs, marking, lam):
    """Graded dimensions of V_lam, shifted so the top degree is 0.

    dims[-j] is the total multiplicity of weights nu with Z(nu) = Z(lam) - j.
    The support is contiguous {0, -1, ..., -f}, and dims[0] = 1 because
    supp(lam) must lie inside the marking.
    """
    marking.validate(rs)
    if any(c and (j + 1) not in marking.marked for j, c in enumerate(lam)):
        raise ValueError(f"support of {tuple(lam)} is not inside the marking")
    z = grading_element(rs, marking)
    top = sum(map(mul, z.row, lam))  # z.den * Z(lam)
    dims = {}
    for nu, m in repthy.weight_system(rs, lam).items():
        scaled = top - sum(map(mul, z.row, nu))  # z.den * (Z(lam) - Z(nu))
        j, r = divmod(scaled, z.den)
        if r or j < 0:
            raise InternalCheckError(f"weight {nu} of V{tuple(lam)} has module degree "
                                     f"{Fraction(-scaled, z.den)}")
        dims[-j] = dims.get(-j, 0) + m
    f = -min(dims)
    if set(dims) != set(range(-f, 1)):
        raise InternalCheckError(f"module grading has gaps: {sorted(dims)}")
    return GradedDims(dict(sorted(dims.items())))
