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
every n included; above MAX_RULE_NODES `build_sphere_rule` raises
ResolutionTooLarge before allocating anything, naming the largest
resolution within the limit for that (m, k).

Normalization.  All weights carry one global factor gamma fixed by the
mean-value calibration sum_i w_i psi(sigma_i) = Q^2/(Q-2), equivalently
M_r(1) = 1 for the ball average with weight psi.  The factor multiplies
every functional uniformly, so it cancels in the frequency N = rD/H and
in every identity and ratio this package checks.
"""

import bisect
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi

from .constants import Geometry, sphere_area
from .errors import InsufficientSamples, NotHType, ResolutionTooLarge, ResolutionTooSmall
from .groups import GroupSpec

MIN_RESOLUTION = 4
MAX_RULE_NODES = 2 ** 24


@dataclass(frozen=True)
class SphereRule:
    """Nodes and weights on the unit gauge sphere S_1.

    weights approximate the calibrated polar measure gamma * dmu; psi holds
    |grad rho|^2 at the nodes.
    """

    z: np.ndarray          # (n, m)
    t: np.ndarray          # (n, k)
    weights: np.ndarray    # (n,)
    psi: np.ndarray        # (n,)
    m: int
    k: int
    alpha: float
    Q: float
    resolution: int
    gamma: float

    def __len__(self):
        return len(self.weights)

    @property
    def geometry(self):
        return Geometry(self.m, self.k, self.alpha)


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
    x, wx = roots_jacobi(resolution // 2 + 1, (d - 3) / 2.0, (d - 3) / 2.0)
    pts = np.column_stack([np.kron(np.sqrt(1.0 - x ** 2)[:, None], sub),
                           np.repeat(x, len(sub))])
    return pts, np.kron(wx, w_sub)


def surface_psi_integral(m, k, alpha):
    """Closed form of int_{S_1} psi dmu for the *raw* polar measure."""
    a1 = alpha + 1.0
    beta = math.gamma((m + 2 * alpha) / (2 * a1)) * math.gamma(k / 2.0) \
        / math.gamma((m + 2 * alpha) / (2 * a1) + k / 2.0)
    return sphere_area(m) * sphere_area(k) * beta / (2.0 * (2.0 * a1) ** (k - 1) * 2.0 * a1)


def unit_ball_volume_raw(m, k, alpha):
    """Closed form of |B_1| for the raw (uncalibrated) measure."""
    a1 = alpha + 1.0
    q = m + a1 * k
    beta = math.gamma(m / (2 * a1)) * math.gamma(k / 2.0) \
        / math.gamma(m / (2 * a1) + k / 2.0)
    return sphere_area(m) * sphere_area(k) * beta / (2.0 * (2.0 * a1) ** (k - 1) * 2.0 * a1 * q)


def build_sphere_rule(context, resolution):
    """Quadrature rule for the calibrated polar measure on S_1."""
    if resolution < MIN_RESOLUTION:
        raise ResolutionTooSmall(f"resolution must be >= {MIN_RESOLUTION}")
    geometry = context.geometry
    m, k, alpha, q_hom = geometry.m, geometry.k, float(geometry.alpha), float(geometry.Q)
    # resolution radial nodes times the two sphere factors
    def n_nodes(res):
        return 4 * res * (res // 2 + 1) ** (m + k - 2)

    if n_nodes(resolution) > MAX_RULE_NODES:
        # n_nodes grows with res, so the resolutions within the limit are a prefix
        fit = bisect.bisect_right(range(MIN_RESOLUTION, resolution), MAX_RULE_NODES,
                                  key=n_nodes)
        largest = (f"the largest resolution within it is {MIN_RESOLUTION + fit - 1}"
                   if fit else f"no resolution >= {MIN_RESOLUTION} is within it")
        raise ResolutionTooLarge(
            f"resolution {resolution} needs {n_nodes(resolution)} nodes for "
            f"(m, k) = ({m}, {k}); the limit is {MAX_RULE_NODES}; {largest}")
    a1 = alpha + 1.0

    # radial-angular nodes: u = s^2 with Jacobi weight u^(m/2-1)(1-u)^((k-2)/2)
    xj, wj = roots_jacobi(resolution, (k - 2) / 2.0, m / 2.0 - 1.0)
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
    weights = np.kron(np.kron(wu, w_omega), w_tau)
    psi = np.repeat(u ** alpha, n_omega * n_tau)

    gamma = (q_hom ** 2 / (q_hom - 2.0)) / surface_psi_integral(m, k, alpha)
    weights = weights * gamma

    assert np.max(np.abs(geometry.rho(z_nodes, t_nodes) - 1.0)) <= 1e-12

    return SphereRule(z=z_nodes, t=t_nodes, weights=weights, psi=psi,
                      m=m, k=k, alpha=alpha, Q=q_hom,
                      resolution=resolution, gamma=gamma)


@lru_cache(maxsize=64)
def _radial_rule(n, q_hom):
    """Nodes/weights for int_0^1 g(v) v^(Q-1) dv (Jacobi weight, exact in Q)."""
    x, w = roots_jacobi(n, 0.0, q_hom - 1.0)
    v = 0.5 * (x + 1.0)
    wv = w * 2.0 ** (-q_hom)
    return v, wv


def volume_integral(f, r, rule, radial_steps=32):
    """int_{B_r} f dg via the polar factorization radii x sphere rule."""
    v, wv = _radial_rule(radial_steps, rule.Q)
    a1 = rule.alpha + 1.0
    total = 0.0
    for vi, wi in zip(v, wv):
        ri = r * vi
        vals = f(ri * rule.z, ri ** a1 * rule.t)
        total += wi * float(np.dot(rule.weights, vals))
    return r ** rule.Q * total


def surface_integral(f, r, rule, weighted=True):
    """int_{S_r} f |grad_H rho| dsigma_H (weighted=True), i.e.
    r^(Q-1) sum_i w_i psi_i f(delta_r sigma_i); with weighted=False the
    psi factor is dropped, giving the plain polar measure dH/|grad rho|."""
    a1 = rule.alpha + 1.0
    vals = f(r * rule.z, r ** a1 * rule.t)
    w = rule.weights * rule.psi if weighted else rule.weights
    return r ** (rule.Q - 1.0) * float(np.dot(w, vals))


def mc_thin_shell(f, r, shell_half_width, samples, seed, rule, weighted=True):
    """Monte-Carlo oracle for surface_integral via a thin gauge shell.

    Samples uniformly from a bounding box of B_(r+h), keeps points whose
    gauge lies in (r-h, r+h), and normalizes by the shell thickness 2h.
    Completely independent of the polar parametrization.
    """
    if samples < 1000:
        raise InsufficientSamples(f"need >= 1000 samples, got {samples}")
    h = shell_half_width
    if not 0.0 < h < r:
        raise InsufficientSamples("shell half width must lie in (0, r)")
    geometry = rule.geometry
    m, k, a1 = rule.m, rule.k, rule.alpha + 1.0
    r_out = r + h
    z_box = r_out
    t_box = r_out ** a1 / (2.0 * a1)
    box_vol = (2.0 * z_box) ** m * (2.0 * t_box) ** k

    rng = np.random.Generator(np.random.Philox(seed))
    z = rng.uniform(-z_box, z_box, size=(samples, m))
    t = rng.uniform(-t_box, t_box, size=(samples, k))
    rho = geometry.rho(z, t)
    inside = (rho > r - h) & (rho < r + h)
    if inside.sum() < 10:
        raise InsufficientSamples("almost no samples hit the shell")
    contrib = np.zeros(samples)
    vals = f(z[inside], t[inside])
    if weighted:
        vals = vals * geometry.psi(z[inside], t[inside])
    contrib[inside] = vals
    scale = rule.gamma * box_vol / (2.0 * h)
    value = scale * float(contrib.mean())
    stderr = scale * float(contrib.std(ddof=1)) / math.sqrt(samples)
    return {"value": value, "stderr": stderr, "hits": int(inside.sum())}


def mean_value(G, u, g, r, rule, radial_steps=32):
    """Solid mean value M_r u(g) = (Q-2)/Q r^-Q int_{B_r} u(g.h) psi(h) dh."""
    if not isinstance(G, GroupSpec):
        raise NotHType("mean_value is a group-side operation")
    psi = G.geometry.psi

    def integrand(z, t):
        pts_z, pts_t = _translate_batch(G, g, z, t)
        return u(pts_z, pts_t) * psi(z, t)

    q_hom = rule.Q
    return (q_hom - 2.0) / q_hom * r ** (-q_hom) \
        * volume_integral(integrand, r, rule, radial_steps)


def _translate_batch(G, g, z, t):
    """Coordinates of g * (z_i, t_i) for arrays of points."""
    z0 = np.array([float(x) for x in g.z])
    t0 = np.array([float(x) for x in g.t])
    jf = G.J_float  # (k, m, m)
    jz0 = jf @ z0   # (k, m): rows J_l z0
    new_z = z + z0
    new_t = t + t0 + 0.5 * z @ jz0.T
    return new_z, new_t
