"""Quadrature over anisotropic gauge balls and spheres.

Geometry.  The H-type group gauge (alpha = 1) and the Baouendi gauge are
one `constants.Geometry(m, k, alpha)`: it owns the gauge rho, the weight
psi, the dilations (z, t) -> (lam z, lam^(alpha+1) t) and the homogeneous
dimension Q = m + (alpha+1) k.  A context (group or Baouendi spec) hands
its geometry to `build_sphere_rule`.  The unit sphere {rho = 1} is
parametrized by s = |z| in (0, 1), a z-direction omega in S^(m-1) and a
t-direction tau in S^(k-1), with
|t| = q(s) = sqrt(1 - s^(2(alpha+1))) / (2(alpha+1)).

Polar Jacobian (derived from the change of variables (r, s) ->
(|z|, |t|) = (r s, r^(alpha+1) q(s)) whose Jacobian determinant is
r^(alpha+1) / (2 sqrt(1 - s^(2(alpha+1))))):

    dz dt = r^(Q-1) dmu(sigma) dr,
    dmu   = s^(m-1) (1 - s^(2(alpha+1)))^((k-2)/2)
            / (2 (2(alpha+1))^(k-1)) ds domega dtau.

In the radial-angular variable u = s^2 the measure carries the Jacobi
weight u^(m/2-1) (1 - u)^((k-2)/2) times a smooth factor, so Gauss-Jacobi
nodes in u integrate the (tau- and omega-symmetrized) integrands
spectrally and never touch the degenerate endpoints s = 0, 1.

Resolution.  At resolution R both sphere factors omega and tau come from
`unit_sphere_rule`, which is exact for every polynomial of degree <= R on
every sphere S^(d-1), and the u factor has R Gauss-Jacobi nodes.  The rule
has 4 R (R // 2 + 1)^(m+k-2) nodes, so it exists for every (m, k), H^n for
every n included.  A rule builds its nodes on first access, and above
MAX_RULE_NODES that access raises ResolutionTooLarge before allocating
anything, naming the largest resolution within the limit for that (m, k).

Normalization.  All weights carry one global factor gamma fixed by the
mean-value calibration sum_i w_i psi(sigma_i) = Q^2/(Q-2), equivalently
M_r(1) = 1 for the ball average with weight psi.  The factor multiplies
every functional uniformly, so it cancels in the frequency N = rD/H and
in every identity and ratio this package checks.

Polynomials.  `volume_integral` and `surface_integral` take a Polynomial
in place of a callable and integrate it in closed form: on S_1 each
monomial has the exact moment `constants.polar_moment` (Folland's sphere
moments times one Beta integral), and the dilation delta_r multiplies a
monomial of degree d by r^d, so

    int_{B_r} p     = gamma sum_d c_d r^(Q+d) / (Q+d),
    int_{S_r} p psi = gamma r^(Q-1) sum_d c_d r^d,

with c_d from `Polynomial.sphere_series` (e = 2 alpha for the psi weight,
e = 0 without it), and no node.  Callables and FD handles use the nodes.

Columns.  Both integrals take one radius (a float back) or a 1-D array of
radii (an array back).  One `sphere_series` and one (radii, degrees) table
of powers serve every radius of a closed form; a callable is called on the
nodes of all the spheres (or shells) at once.  Each entry is the one-radius
float bit for bit: powers of r are taken one radius at a time and each
sphere is summed on its own, in order.
An integral whose product of the radius scale r^Q or r^(Q-1) with the
sums underflows a float raises FloatingPointError instead of reading 0 or
a subnormal.  Underflows inside the sums (u^2 psi at far-off nodes, say)
often leave the integral right, and stay under the caller's np.errstate,
as does a scale that underflows to 0 itself: its 0 column meets the
caller's divisions (0 / 0 in the discrepancy norm, x / 0 in W and M).
"""

import bisect
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .constants import Geometry, polar_moment
from .errors import (
    DimensionMismatch,
    NotHType,
    ResolutionTooLarge,
    ResolutionTooSmall,
)
from .groups import GroupSpec
from .polynomials import Polynomial

MIN_RESOLUTION = 4
MAX_RULE_NODES = 2 ** 24
RADIAL_STEPS = 32  # Gauss-Jacobi radii of every volume integral
SHELL_POINTS = 2 ** 13  # points per integrand call of volume_integral, to bound its memory


def _rule_size(m, k, resolution):
    """Node count: resolution radial nodes times the two sphere factors."""
    return 4 * resolution * (resolution // 2 + 1) ** (m + k - 2)


@dataclass(frozen=True)
class SphereRule(Geometry):
    """The calibrated polar measure gamma * dmu on the unit gauge sphere S_1
    of a geometry (m, k, alpha), which the rule is.  Closed forms read only
    the geometry, gamma and psi_sign (-1 under `verify._flip_psi`).  The
    nodes z, t, weights and psi = psi_sign |grad rho|^2 are built on first
    access."""

    resolution: int
    psi_sign: float = 1.0
    gamma: float = field(init=False)

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "gamma", self.Q ** 2 / (self.Q - 2.0)
                           / polar_moment(self.m, self.k, self.alpha, 2 * self.alpha))

    def __len__(self):
        return _rule_size(self.m, self.k, self.resolution)

    z = property(lambda self: self._nodes[0], doc="(n, m) z-coordinates of the nodes")
    t = property(lambda self: self._nodes[1], doc="(n, k) t-coordinates of the nodes")
    weights = property(lambda self: self._nodes[2], doc="(n,) weights of gamma * dmu")
    psi = property(lambda self: self._nodes[3], doc="(n,) psi_sign |grad rho|^2 at the nodes")

    def require(self, context):
        """DimensionMismatch unless the context has the rule's (m, k, alpha)."""
        g, own = context.geometry, (self.m, self.k, self.alpha)
        if (g.m, g.k, g.alpha) != own:
            raise DimensionMismatch(f"a function on {(g.m, g.k, g.alpha)} read on a rule of {own}")

    @cached_property
    def _nodes(self):
        """(z, t, weights, psi), built once; ResolutionTooLarge before
        allocating anything when the rule exceeds MAX_RULE_NODES."""
        m, k, alpha, resolution = self.m, self.k, self.alpha, self.resolution
        if len(self) > MAX_RULE_NODES:
            # _rule_size grows with res, so the resolutions within the limit are a prefix
            fit = bisect.bisect_right(range(MIN_RESOLUTION, resolution), MAX_RULE_NODES,
                                      key=lambda res: _rule_size(m, k, res))
            largest = (f"the largest resolution within it is {MIN_RESOLUTION + fit - 1}"
                       if fit else f"no resolution >= {MIN_RESOLUTION} is within it")
            raise ResolutionTooLarge(
                f"resolution {resolution} needs {len(self)} nodes for "
                f"(m, k) = ({m}, {k}); the limit is {MAX_RULE_NODES}; {largest}")
        a1 = alpha + 1.0

        # radial-angular nodes: u = s^2 with Jacobi weight u^(m/2-1)(1-u)^((k-2)/2)
        xj, wj = _gauss_jacobi(resolution, (k - 2) / 2.0, m / 2.0 - 1.0)
        u = 0.5 * (xj + 1.0)
        wu = wj * 2.0 ** (-((k - 2) / 2.0 + (m / 2.0 - 1.0) + 1.0))
        s = np.sqrt(u)
        # smooth leftover factor: ((1-u^(a1)) / (1-u))^((k-2)/2), times the
        # constant 1/(2 * (2 a1)^(k-1)) of the polar measure, and the 1/2 from
        # s^(m-1) ds = (1/2) u^(m/2-1) du
        smooth = ((1.0 - u ** a1) / (1.0 - u)) ** ((k - 2) / 2.0)
        wu = wu * smooth * 0.5 / (2.0 * (2.0 * a1) ** (k - 1))

        omega, w_omega = unit_sphere_rule(m, resolution)
        tau, w_tau = unit_sphere_rule(k, resolution)

        qs = np.sqrt(1.0 - u ** a1) / (2.0 * a1)
        n_omega, n_tau = len(omega), len(tau)
        z_nodes = np.kron(s[:, None], np.repeat(omega, n_tau, axis=0))
        t_nodes = np.kron(qs[:, None], np.tile(tau, (n_omega, 1)))
        weights = np.kron(np.kron(wu, w_omega), w_tau) * self.gamma
        psi = self.psi_sign * np.repeat(u ** alpha, n_omega * n_tau)

        assert np.max(np.abs(self.rho(z_nodes, t_nodes) - 1.0)) <= 1e-12
        return z_nodes, t_nodes, weights, psi


@lru_cache(maxsize=64)
def _gauss_jacobi(n, a, b):
    """Read-only Gauss-Jacobi nodes (ascending) and weights of n points for
    the weight (1 - x)^a (1 + x)^b on [-1, 1].

    Golub & Welsch (1969): the nodes are the eigenvalues of the symmetric
    Jacobi matrix, polished by one Newton step on P_n.  The weights are
    1 / ((1 - x^2) P_n'(x)^2) at the polished nodes (Gautschi, Orthogonal
    Polynomials, 2004), scaled to the mass mu0 = 2^(a+b+1) B(a+1, b+1);
    at a = b = -1/2 they are Chebyshev's pi / n.  A rule with a = b is
    symmetrised, so x = -x[::-1] and w = w[::-1] bit for bit."""
    def slope(x):  # P_n(x) and (1 - x^2) P_n'(x), from P_n and P_(n-1) by recurrence
        prev, p = np.ones_like(x), 0.5 * (a - b + (a + b + 2.0) * x)
        for j in range(2, n + 1):
            c = 2 * j + a + b
            prev, p = p, ((c - 1) * (c * (c - 2) * x + a * a - b * b) * p
                          - 2 * (j + a - 1) * (j + b - 1) * c * prev) / (2 * j * (j + a + b) * (c - 2))
        c = 2 * n + a + b
        return p, (n * (a - b - c * x) * p + 2 * (n + a) * (n + b) * prev) / c

    s = 2.0 * np.arange(n) + a + b
    diag = np.full(n, (b - a) / (a + b + 2.0))
    diag[1:] = (b * b - a * a) / (s[1:] * (s[1:] + 2.0))
    # squared off-diagonal; the first with (1 + a + b) cancelled, 0/0 at a + b = -1
    off = np.empty(n - 1)
    off[:1] = 4.0 * (1 + a) * (1 + b) / ((2 + a + b) ** 2 * (3 + a + b))
    i, c = np.arange(2, n), s[2:]
    off[1:] = 4.0 * i * (i + a) * (i + b) * (i + a + b) / (c ** 2 * (c + 1.0) * (c - 1.0))
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(np.sqrt(off), -1))
    p, d = slope(x)
    x = x - p * (1.0 - x) * (1.0 + x) / d
    w = (1.0 - x) * (1.0 + x) / slope(x)[1] ** 2
    if a == b:
        x, w = (x - x[::-1]) / 2.0, (w + w[::-1]) / 2.0
    mu0 = 2.0 ** (a + b + 1) * math.exp(math.lgamma(a + 1) + math.lgamma(b + 1)
                                        - math.lgamma(a + b + 2))
    w = np.full(n, math.pi / n) if a == b == -0.5 else w * (mu0 / math.fsum(w))
    x.flags.writeable = w.flags.writeable = False
    return x, w


@lru_cache(maxsize=64)
def unit_sphere_rule(d, resolution):
    """Nodes/weights on the Euclidean sphere S^(d-1), weights sum to its area.

    Recursive product rule (Stroud 1971): S^(d-1) is S^(d-2) scaled by
    sqrt(1 - x^2) at height x, with surface measure
    (1 - x^2)^((d-3)/2) dx dsigma_(d-2), so resolution // 2 + 1 Gauss-Jacobi
    nodes in x integrate every polynomial of degree <= resolution exactly.
    The rule has 2 (resolution // 2 + 1)^(d-1) nodes.  Node sets are
    antipodally symmetric so odd integrands cancel exactly.
    """
    if d == 1:
        return np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
    sub, w_sub = unit_sphere_rule(d - 1, resolution)
    x, wx = _gauss_jacobi(resolution // 2 + 1, (d - 3) / 2.0, (d - 3) / 2.0)
    pts = np.column_stack([np.kron(np.sqrt(1.0 - x ** 2)[:, None], sub),
                           np.repeat(x, len(sub))])
    return pts, np.kron(wx, w_sub)


def build_sphere_rule(context, resolution):
    """The sphere rule of the context's geometry; its nodes come on first access."""
    if resolution < MIN_RESOLUTION:
        raise ResolutionTooSmall(f"resolution must be >= {MIN_RESOLUTION}")
    geometry = context.geometry
    return SphereRule(geometry.m, geometry.k, float(geometry.alpha), resolution)


@lru_cache(maxsize=64)
def _radial_rule(q_hom):
    """Nodes/weights for int_0^1 g(v) v^(Q-1) dv (Jacobi weight, exact in Q)."""
    x, w = _gauss_jacobi(RADIAL_STEPS, 0.0, q_hom - 1.0)
    return 0.5 * (x + 1.0), w * 2.0 ** (-q_hom)


def _sphere_series(p, rule, weighted):
    """(powers d, coefficients c_d) of the Polynomial p on the rule's geometry,
    with the psi = s^(2 alpha) weight when `weighted`."""
    if (p.m, p.k) != (rule.m, rule.k):
        raise DimensionMismatch("polynomial does not match the rule's (m, k)")
    return p.sphere_series(rule.alpha, 2.0 * rule.alpha if weighted else 0.0)


def _powers(r, e):
    """r ** e at one radius, or at each of an array of radii one radius at a
    time: numpy's array power differs from the scalar power in the last bit
    for about one value in twenty, and a column keeps the one-radius bits."""
    return r ** e if np.ndim(r) == 0 else np.array([x ** e for x in r])


def _power_table(radii, d):
    """The (radii, degrees) table of x ** d, one row per radius x: each row
    is numpy's scalar-to-array power of one radius, which a broadcast
    radii[:, None] ** d does not reproduce bit for bit (at a single degree
    numpy takes its array-to-scalar power kernel)."""
    table = np.empty((len(radii), len(d)))
    for x, row in zip(radii, table):
        np.power(x, d, out=row)
    return table


def _column(r, values):
    """values, one per radius, as a float when r is one radius."""
    return float(values[0]) if np.ndim(r) == 0 else values


def volume_integral(f, r, rule):
    """int_{B_r} f dg at one radius or at each of an array of radii (module
    docstring, Columns): in closed form for a Polynomial f, else via the
    polar factorization radii x sphere rule.  A callable f is called on as
    many radial shells at once as fit in SHELL_POINTS points (at least one),
    the shells of all the radii stacked; each shell is summed on its own."""
    radii = np.atleast_1d(np.asarray(r, dtype=float))
    if isinstance(f, Polynomial):
        d, c = _sphere_series(f, rule, weighted=False)
        q = rule.Q + d
        return _column(r, rule.gamma * np.sum(c * _power_table(radii, q) / q, axis=1))
    v, wv = _radial_rule(rule.Q)
    n = len(rule)
    per_call = max(1, SHELL_POINTS // n)
    lam = (radii[:, None] * v).ravel()  # the shells of every radius, in order
    sums = np.empty(len(lam))
    for start in range(0, len(lam), per_call):
        z, t = rule.dilate(lam[start:start + per_call, None, None], rule.z, rule.t)
        vals = f(z.reshape(-1, rule.m), t.reshape(-1, rule.k)).reshape(-1, n)
        sums[start:start + len(vals)] = [np.dot(rule.weights, shell) for shell in vals]
    shells = wv * sums.reshape(len(radii), len(v))
    scale, balls = _powers(radii, rule.Q), np.add.accumulate(shells, axis=1)[:, -1]
    with np.errstate(under="raise"):  # (Columns)
        return _column(r, scale * balls)


def surface_integral(f, r, rule, weighted=True):
    """int_{S_r} f |grad_H rho| dsigma_H (weighted=True), i.e.
    r^(Q-1) sum_i w_i psi_i f(delta_r sigma_i), at one radius or at each of
    an array of radii (module docstring, Columns); with weighted=False the
    psi factor is dropped, giving the plain polar measure dH/|grad rho|.
    A Polynomial f is integrated in closed form, scaled by psi_sign * gamma
    when weighted, so that a sign error in psi reaches it; a callable f is
    called once, on the nodes of all the spheres."""
    radii = np.atleast_1d(np.asarray(r, dtype=float))
    scale = _powers(radii, rule.Q - 1.0)
    if isinstance(f, Polynomial):
        d, c = _sphere_series(f, rule, weighted)
        gamma = rule.psi_sign * rule.gamma if weighted else rule.gamma
        sums = np.sum(c * _power_table(radii, d), axis=1)
        with np.errstate(under="raise"):  # (Columns)
            return _column(r, gamma * scale * sums)
    # delta_r of the nodes, with the scalar power r^(alpha+1) of each radius
    z = radii[:, None, None] * rule.z
    t = _powers(radii, rule.alpha + 1.0)[:, None, None] * rule.t
    vals = f(z.reshape(-1, rule.m), t.reshape(-1, rule.k)).reshape(len(radii), len(rule))
    w = rule.weights * rule.psi if weighted else rule.weights
    sums = np.array([np.dot(w, row) for row in vals])
    with np.errstate(under="raise"):  # (Columns)
        return _column(r, scale * sums)


def mean_value(G, u, g, r, rule):
    """Solid mean value M_r u(g) = (Q-2)/Q r^-Q int_{B_r} u(g.h) psi(h) dh."""
    if not isinstance(G, GroupSpec):
        raise NotHType("mean_value is a group-side operation")
    rule.require(G)

    # psi is homogeneous of degree 0, so on every radial shell it is rule.psi
    def integrand(z, t):
        pts_z, pts_t = _translate_batch(G, g, z, t)
        return (u(pts_z, pts_t).reshape(-1, len(rule)) * rule.psi).ravel()

    q_hom = rule.Q
    return (q_hom - 2.0) / q_hom * r ** (-q_hom) \
        * volume_integral(integrand, r, rule)


def _translate_batch(G, g, z, t):
    """Coordinates of g * (z_i, t_i) for arrays of points."""
    z0 = np.array([float(x) for x in g.z])
    t0 = np.array([float(x) for x in g.t])
    jf = G.J_float  # (k, m, m)
    jz0 = jf @ z0   # (k, m): rows J_l z0
    new_z = z + z0
    new_t = t + t0 + 0.5 * z @ jz0.T
    return new_z, new_t
