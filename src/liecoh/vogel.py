"""Universal dimension formulas in Vogel's parameters (alpha, beta, gamma).

Everything is evaluated exactly at a given rational parameter point; the
formulas are homogeneous of degree zero, symmetric in (beta, gamma), and at
a Lie-algebra point dim Y_k reproduces the Weyl dimension of the k-th Cartan
power of the adjoint module.  Degenerate points raise DegenerateParameters
naming the vanishing factor rather than taking limits.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import factorial


class DegenerateParameters(ValueError):
    """A denominator factor vanishes at the requested parameter point."""

    def __init__(self, factor_name):
        self.factor_name = factor_name
        super().__init__(f"denominator factor {factor_name} vanishes")


@dataclass(frozen=True)
class VogelParams:
    alpha: Fraction
    beta: Fraction
    gamma: Fraction

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))

    @property
    def t(self):
        return self.alpha + self.beta + self.gamma


def rational_binomial(x, y):
    """(1+x)(2+x)...(y+x) / y! evaluated exactly; y = 0 gives 1."""
    if y < 0:
        raise ValueError("y must be >= 0")
    x = Fraction(x)
    num = Fraction(1)
    for j in range(1, y + 1):
        num *= j + x
    return num / factorial(y)


def _nonzero(value, name):
    if value == 0:
        raise DegenerateParameters(name)
    return value


def dim_g(p):
    """(alpha-2t)(beta-2t)(gamma-2t) / (alpha beta gamma)."""
    a, b, g, t = p.alpha, p.beta, p.gamma, p.t
    den = _nonzero(a * b * g, "alpha*beta*gamma")
    return (a - 2 * t) * (b - 2 * t) * (g - 2 * t) / den


def dim_y2(p):
    """-t(beta-2t)(gamma-2t)(beta+t)(gamma+t)(3 alpha-2t) / (alpha^2 beta gamma (alpha-beta)(alpha-gamma))."""
    a, b, g, t = p.alpha, p.beta, p.gamma, p.t
    den = a * a * b * g
    den *= _nonzero(a - b, "alpha-beta")
    den *= _nonzero(a - g, "alpha-gamma")
    den = _nonzero(den, "alpha^2*beta*gamma*(alpha-beta)*(alpha-gamma)")
    return -t * (b - 2 * t) * (g - 2 * t) * (b + t) * (g + t) * (3 * a - 2 * t) / den


def dim_y3(p):
    """Dimension of Y3; equals dim_yk(p, 3) identically.

    The denominator carries a factor 3 (as in Vogel's original formula);
    without it the product formula is 3x too large at every Lie point.
    """
    a, b, g, t = p.alpha, p.beta, p.gamma, p.t
    den = 3 * a ** 3 * b * g
    den *= _nonzero(a - b, "alpha-beta")
    den *= _nonzero(a - g, "alpha-gamma")
    den *= _nonzero(2 * a - b, "2alpha-beta")
    den *= _nonzero(2 * a - g, "2alpha-gamma")
    den = _nonzero(den, "alpha^3*beta*gamma*...")
    num = -t * (a - 2 * t) * (b - 2 * t) * (g - 2 * t) * (b + t) * (g + t) \
        * (t + b - a) * (t + g - a) * (5 * a - 2 * t)
    return num / den


K_MAX = 10_000


def dim_yk(p, k):
    """Dimension of the k-th Cartan power of the adjoint module.

    (t-(k-1/2)alpha)/(t+alpha/2) times a ratio of four rational binomials;
    k = 1 reproduces dim_g.

    k above K_MAX = 10,000 is refused with a ValueError.  Each binomial is
    multiplied out term by term, so its numerator and denominator grow with
    k although the answer stays short by cancellation: for E8 (-2, 12, 20)
    k = 4,000 took 0.18 s, k = 8,000 0.67 s and k = 10,000 1.14 s
    in-process (one run each on a 2-core shared host), and k = 100,000 did
    not finish in 120 s.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > K_MAX:
        raise ValueError(f"k = {k} is above the budget K_MAX = {K_MAX} of dim_yk")
    a, b, g, t = p.alpha, p.beta, p.gamma, p.t
    _nonzero(a, "alpha")
    pref_den = _nonzero(t + a / 2, "t+alpha/2")
    pref = (t - (Fraction(2 * k - 1, 2)) * a) / pref_den
    num = rational_binomial(-2 * t / a - 2, k) \
        * rational_binomial((b - 2 * t) / a - 1, k) \
        * rational_binomial((g - 2 * t) / a - 1, k)
    den = rational_binomial(-b / a - 1, k) * rational_binomial(-g / a - 1, k)
    _nonzero(den, "binomial(-beta/alpha-1,k)*binomial(-gamma/alpha-1,k)")
    return pref * num / den
