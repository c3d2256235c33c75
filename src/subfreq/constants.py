"""Normalization constants of the fundamental solutions.

For the gauge rho_a = (|z|^(2(a+1)) + 4(a+1)^2|t|^2)^(1/(2(a+1))) on
R^m x R^k the fundamental solution with pole at the origin is
Gamma = C * rho_a^(2-Q), Q = m + (a+1)k, where

    C^-1 = (m+a-1)(Q-2) * int_{R^N} |z|^(a-1)
           / [ (|z|^(a+1)+1)^2 + 4(a+1)^2|t|^2 ]^((Q+2a)/(2(a+1))) dz dt.

A group of Heisenberg type is the case a = 1, where the gauge becomes
(|z|^4 + 16|t|^2)^(1/4).  `Geometry` is the one place that states this
gauge; everything else asks it.  The defining integral reduces to Beta
functions: the |z| integral is 1/s with s = (m+a-1)/(a+1), which cancels
the (m+a-1) factor, and what is left is the flux normalization

    C^-1 = (Q-2) int_{S_1} psi dmu,

with the raw polar measure dmu of `quadrature` (`polar_moment` with
e = 2a, since psi = s^(2a) on S_1).  The tests check it against an
importance-sampled Monte-Carlo estimate of the defining integral.
"""

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Geometry:
    """The gauge geometry (m, k, alpha) of R^m x R^k.

    Dilations are (z, t) -> (lam z, lam^(alpha+1) t), the homogeneous
    dimension is Q = m + (alpha+1) k, and rho is the gauge above.  Points
    are arrays whose last axis holds the coordinates.
    """

    m: int
    k: int
    alpha: float
    N: int = field(init=False)
    Q: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "N", self.m + self.k)
        object.__setattr__(self, "Q", self.m + (self.alpha + 1.0) * self.k)

    @property
    def geometry(self):
        """The geometry itself, as for the specs and groups that have one."""
        return self

    def rho_power(self, z, t, p):
        """rho^p = (|z|^(2(a+1)) + 4(a+1)^2 |t|^2)^(p/(2(a+1)))."""
        a1 = self.alpha + 1.0
        z2 = np.sum(np.asarray(z, dtype=float) ** 2, axis=-1)
        t2 = np.sum(np.asarray(t, dtype=float) ** 2, axis=-1)
        return (z2 ** a1 + 4.0 * a1 ** 2 * t2) ** (p / (2.0 * a1))

    def rho(self, z, t):
        return self.rho_power(z, t, 1.0)

    def dilate(self, lam, z, t):
        """(z, t) -> (lam z, lam^(a+1) t)."""
        return lam * np.asarray(z, float), lam ** (self.alpha + 1.0) * np.asarray(t, float)

    def euler_field(self, z, t, dz, dt):
        """Zu = z . d_z u + (a+1) t . d_t u at the points (z, t), from the
        arrays dz = [d_{z_i} u] and dt = [d_{t_j} u] there."""
        out = np.zeros(len(z))
        for i, d in enumerate(dz):
            out += z[:, i] * d
        for j, d in enumerate(dt):
            out += (self.alpha + 1.0) * t[:, j] * d
        return out


def sphere_area(d):
    """Surface measure of the unit sphere S^(d-1) in R^d (2 for d=1)."""
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def polar_moment(m, k, alpha, e, a=(), b=()):
    """Closed form of int_{S_1} z^a t^b s^e dmu, s = |z|, for the *raw* polar
    measure; a and b are multi-indices over z and t (empty means zero).

    On S_1, z = s omega and |t| = sqrt(1 - s^(2 a1)) / (2 a1) with
    a1 = alpha + 1, so the moment is Folland's sphere moments
    S_d(c) = 2 prod Gamma((c_i+1)/2) / Gamma((|c|+d)/2) times one Beta
    integral in v = s^(2 a1):

        S_m(a) S_k(b) B((m+|a|+e)/(2 a1), (k+|b|)/2)
          / (2 a1 * 2 (2 a1)^(k-1) * (2 a1)^|b|).

    An odd exponent gives exactly 0.  The value at a = b = 0 is computed
    directly, and the rest is one lgamma ratio (no overflow at high degree;
    exactly 1.0 at a = b = 0).  With a = b = 0, e = 2 alpha gives
    int_{S_1} psi dmu and e = 0 gives Q |B_1|."""
    if any(p % 2 for p in (*a, *b)):
        return 0.0
    a1 = alpha + 1.0
    x, y = (m + e) / (2 * a1), k / 2.0
    beta = math.gamma(x) * math.gamma(y) / math.gamma(x + y)
    base = sphere_area(m) * sphere_area(k) * beta / (2.0 * (2.0 * a1) ** (k - 1) * 2.0 * a1)
    da, db = sum(a), sum(b)
    x1, y1 = x + da / (2 * a1), y + db / 2.0
    log_ratio = (sum(math.lgamma((p + 1) / 2.0) - math.lgamma(0.5) for p in (*a, *b))
                 + math.lgamma(m / 2.0) - math.lgamma((m + da) / 2.0)
                 + math.lgamma(x1) - math.lgamma(x)
                 + math.lgamma(x + y) - math.lgamma(x1 + y1)
                 - db * math.log(2.0 * a1))
    return base * math.exp(log_ratio)


def gauge_constant(m, k, alpha=1.0):
    """The constant C in Gamma = C * rho_a^(2-Q), in closed form."""
    q = m + (alpha + 1.0) * k
    return 1.0 / ((q - 2.0) * polar_moment(m, k, alpha, 2 * alpha))
