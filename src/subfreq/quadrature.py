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

Normalization.  All weights carry one global factor gamma fixed by the
mean-value calibration sum_i w_i psi(sigma_i) = Q^2/(Q-2), equivalently
M_r(1) = 1 for the ball average with weight psi.  The factor multiplies
every functional uniformly, so it cancels in the frequency N = rD/H and
in every identity and ratio this package checks.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

from .constants import Geometry, sphere_area
from .errors import InsufficientSamples, NotHType, ResolutionTooSmall
from .groups import GroupSpec

MIN_RESOLUTION = 4


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

    Node sets are antipodally symmetric so odd integrands cancel exactly.
    """
    if d == 1:
        return np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
    if d == 2:
        n = 2 * max(4, min(resolution, 32))
        theta = 2.0 * math.pi * np.arange(n) / n
        pts = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        return pts, np.full(n, 2.0 * math.pi / n)
    if d == 3:
        nc = max(6, min(resolution // 2, 24))
        nphi = 2 * max(4, min(resolution // 2, 16))
        c, wc = roots_legendre(nc)
        phi = 2.0 * math.pi * np.arange(nphi) / nphi
        s = np.sqrt(1.0 - c ** 2)
        pts = np.stack([
            np.outer(s, np.cos(phi)).ravel(),
            np.outer(s, np.sin(phi)).ravel(),
            np.repeat(c, nphi),
        ], axis=1)
        w = np.repeat(wc, nphi) * (2.0 * math.pi / nphi)
        return pts, w
    if d == 4:
        nv = max(4, min(resolution // 4, 12))
        nc = 2 * max(4, min(resolution // 4, 12))
        v, wv = roots_jacobi(nv, 0.0, 0.0)
        v = 0.5 * (v + 1.0)
        wv = 0.5 * wv
        phi = 2.0 * math.pi * np.arange(nc) / nc
        circ = np.stack([np.cos(phi), np.sin(phi)], axis=1)
        pts = []
        w = []
        for vi, wi in zip(v, wv):
            c1 = math.sqrt(1.0 - vi)
            c2 = math.sqrt(vi)
            for a in range(nc):
                for b in range(nc):
                    pts.append([c1 * circ[a, 0], c1 * circ[a, 1],
                                c2 * circ[b, 0], c2 * circ[b, 1]])
                    w.append(0.5 * wi * (2.0 * math.pi / nc) ** 2)
        return np.array(pts), np.array(w)
    raise ResolutionTooSmall(f"no unit sphere rule for dimension {d}")


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

    n = len(u) * len(omega) * len(tau)
    z_nodes = np.empty((n, m))
    t_nodes = np.empty((n, k))
    weights = np.empty(n)
    psi = np.empty(n)
    idx = 0
    for iu in range(len(u)):
        block = len(omega) * len(tau)
        zs = s[iu] * np.repeat(omega, len(tau), axis=0)
        ts = qs[iu] * np.tile(tau, (len(omega), 1))
        z_nodes[idx:idx + block] = zs
        t_nodes[idx:idx + block] = ts
        weights[idx:idx + block] = wu[iu] * np.repeat(w_omega, len(tau)) \
            * np.tile(w_tau, len(omega))
        psi[idx:idx + block] = u[iu] ** alpha
        idx += block

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
