"""Frequency functionals D, H, N, Weiss and Monneau, plus identity checks.

All functionals are quadrature sums over one SphereRule, so the global
calibration factor of the rule multiplies D and H alike and cancels in
every ratio and identity tested here.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import DiscrepancyNonzero, DiscrepancyUnknown, ZeroDenominator, ZeroHeight
from .groups import GroupSpec
from .polynomials import Polynomial, apply_X, discrepancy_poly, euler, left_translate
from .quadrature import surface_integral, volume_integral

FD_STEP = 1e-5


class FunctionHandle:
    """A function on the group (or Baouendi half-space) with the evaluators
    the frequency functionals need: value, |horizontal gradient|^2, and the
    Euler derivative Zu.

    Polynomials get exact symbolic evaluators; black boxes get central
    differences with step FD_STEP * (1 + |g|).
    """

    def __init__(self, context, value, grad_sq, zu, poly=None, disc=None, label=""):
        self.context = context
        self.value = value            # f(z, t) -> values
        self.grad_sq = grad_sq
        self.zu = zu
        self.poly = poly              # underlying Polynomial, if any
        self.disc = disc              # group discrepancy numerator, if known
        self.label = label

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_polynomial(cls, context, p, center=None, label=""):
        if isinstance(context, GroupSpec):
            if center is not None:
                p = left_translate(context, p, center)
            grads = [apply_X(context, i, p) for i in range(context.m)]
            gsq = Polynomial.zero(p.m, p.k, p.tweight)
            for g in grads:
                gsq = gsq + g * g
            zp = euler(p)
            disc = None
            if context.classification["is_htype"]:
                disc = discrepancy_poly(context, p)
            return cls(context, p.evaluate, gsq.evaluate, zp.evaluate,
                       poly=p, disc=disc, label=label)
        # Baouendi case: horizontal fields are d_z and (|z|^alpha / 2) d_t
        alpha = int(context.alpha)
        gz = Polynomial.zero(p.m, p.k, p.tweight)
        for i in range(p.m):
            d = p.diff_z(i)
            gz = gz + d * d
        gt = Polynomial.zero(p.m, p.k, p.tweight)
        for ell in range(p.k):
            d = p.diff_t(ell)
            gt = gt + d * d
        znorm = Polynomial.z_norm_sq(p.m, p.k, p.tweight)
        gsq = gz + znorm ** alpha * gt * Fraction(1, 4)
        zp = euler(p)
        return cls(context, p.evaluate, gsq.evaluate, zp.evaluate,
                   poly=p, disc=None, label=label)

    @classmethod
    def from_callable(cls, context, value, grad_sq=None, zu=None, label=""):
        if zu is None:
            def zu(z, t, _v=value, _c=context):
                norm = np.sqrt(np.sum(z ** 2, axis=1) + np.sum(t ** 2, axis=1))
                h = FD_STEP * (1.0 + norm)
                up = _v(*_c.geometry.dilate((1.0 + h)[:, None], z, t))
                um = _v(*_c.geometry.dilate((1.0 - h)[:, None], z, t))
                return (up - um) / (2.0 * h)

        if grad_sq is None:
            if isinstance(context, GroupSpec):
                jf = context.J_float

                def grad_sq(z, t, _v=value, _jf=jf):
                    norm = np.sqrt(np.sum(z ** 2, axis=1) + np.sum(t ** 2, axis=1))
                    h = FD_STEP * (1.0 + norm)
                    total = np.zeros(len(z))
                    m = z.shape[1]
                    for i in range(m):
                        # right translation by (+-h e_i, 0):
                        # z -> z +- h e_i, t_l -> t_l +- (h/2) (J_l z)_i
                        dz = np.zeros_like(z)
                        dz[:, i] = h
                        dt = 0.5 * h[:, None] * np.einsum("lij,nj->nli", _jf, z)[:, :, i]
                        xi = (_v(z + dz, t + dt) - _v(z - dz, t - dt)) / (2.0 * h)
                        total += xi ** 2
                    return total
            else:
                def grad_sq(z, t, _v=value, _a=float(context.alpha)):
                    norm = np.sqrt(np.sum(z ** 2, axis=1) + np.sum(t ** 2, axis=1))
                    h = FD_STEP * (1.0 + norm)
                    total = np.zeros(len(z))
                    for i in range(z.shape[1]):
                        dz = np.zeros_like(z)
                        dz[:, i] = h
                        total += ((_v(z + dz, t) - _v(z - dz, t)) / (2.0 * h)) ** 2
                    coeff = np.sum(z ** 2, axis=1) ** _a / 4.0
                    for j in range(t.shape[1]):
                        dt = np.zeros_like(t)
                        dt[:, j] = h
                        total += coeff * ((_v(z, t + dt) - _v(z, t - dt)) / (2.0 * h)) ** 2
                    return total

        return cls(context, value, grad_sq, zu, label=label)

    def shifted_by(self, other):
        """Handle for u - other (used by Monneau and the Weiss identity)."""
        label = f"{self.label}-{other.label}"
        if self.poly is not None and other.poly is not None:
            return FunctionHandle.from_polynomial(
                self.context, self.poly - other.poly, label=label)
        return FunctionHandle.from_callable(
            self.context,
            lambda z, t: self.value(z, t) - other.value(z, t), label=label)


# -- core functionals ------------------------------------------------------


def dirichlet(u, r, rule, radial_steps=32):
    """D(r) = int_{B_r} |grad_H u|^2 dg."""
    return volume_integral(u.grad_sq, r, rule, radial_steps)


def height(u, r, rule):
    """H(r) = int_{S_r} u^2 |grad_H rho| dsigma_H."""
    return surface_integral(lambda z, t: u.value(z, t) ** 2, r, rule, weighted=True)


def _frequency_from(u, r, rule, d, h):
    """r d / h for d = D(r), h = H(r); raises ZeroHeight when u vanishes on B_r."""
    sup = float(np.max(np.abs(u.value(r * rule.z, r ** (rule.alpha + 1.0) * rule.t))))
    floor = 1e-14 * sup ** 2 * r ** (rule.Q - 1.0) * float(np.dot(rule.weights, rule.psi))
    if h <= floor:
        raise ZeroHeight(f"H({r}) = {h} vanished; u is zero on the ball")
    return r * d / h


def frequency(u, r, rule, radial_steps=32):
    """N(r) = r D(r) / H(r); raises ZeroHeight when u vanishes on B_r."""
    return _frequency_from(u, r, rule, dirichlet(u, r, rule, radial_steps),
                           height(u, r, rule))


def weiss(u, kappa, r, rule, radial_steps=32):
    """W_kappa(u, r) = D/r^(Q-2+2k) - kappa H/r^(Q-1+2k)."""
    q = rule.Q
    return (dirichlet(u, r, rule, radial_steps) / r ** (q - 2.0 + 2.0 * kappa)
            - kappa * height(u, r, rule) / r ** (q - 1.0 + 2.0 * kappa))


def _require_vanishing_discrepancy(handle):
    if handle.disc is not None and not handle.disc.is_zero():
        raise DiscrepancyNonzero(
            f"function {handle.label or handle.poly} has nonzero discrepancy")


def monneau(u, p_handle, kappa, r, rule):
    """M_kappa(u, P, r) = r^-(Q-1+2k) int_{S_r} (u-P)^2 |grad_H rho| dsigma_H.

    On the group side both u and P must have vanishing discrepancy (checked
    exactly when both are polynomials)."""
    if isinstance(u.context, GroupSpec):
        _require_vanishing_discrepancy(u)
        _require_vanishing_discrepancy(p_handle)
    diff = u.shifted_by(p_handle)
    return height(diff, r, rule) / r ** (rule.Q - 1.0 + 2.0 * kappa)


def doubling_ratio(u, r, rule, radial_steps=32):
    """int_{B_2r} u^2 / int_{B_r} u^2."""
    u_sq = lambda z, t: u.value(z, t) ** 2
    denom = volume_integral(u_sq, r, rule, radial_steps)
    if denom == 0.0:
        raise ZeroDenominator(f"int_(B_{r}) u^2 = 0")
    return volume_integral(u_sq, 2.0 * r, rule, radial_steps) / denom


def discrepancy_surface_norm(u, r, rule):
    """L2 norm of the discrepancy E_u on S_r w.r.t. the polar measure.

    Group polynomials only; 0.0 for Baouendi contexts (the discrepancy of
    every function vanishes identically there); NaN when unknown."""
    if not isinstance(u.context, GroupSpec):
        return 0.0
    if u.disc is None:
        return math.nan
    e_sq = lambda z, t: (4.0 * u.disc.evaluate(z, t) / r ** 3) ** 2
    return math.sqrt(max(surface_integral(e_sq, r, rule, weighted=False), 0.0))


# -- derivative estimation on geometric radius grids -----------------------


def geometric_radii(rmin, rmax, n):
    return np.exp(np.linspace(math.log(rmin), math.log(rmax), n))


def log_grid_derivative(values, radii):
    """5-point central d/dr on a geometric grid (via uniform log spacing).

    Returns (interior_radii, derivative, interior_slice)."""
    radii = np.asarray(radii, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(radii) < 5:
        raise ValueError("need at least 5 radii")
    dx = math.log(radii[1] / radii[0])
    steps = np.diff(np.log(radii))
    assert np.allclose(steps, dx, rtol=1e-8), "radius grid is not geometric"
    inner = slice(2, len(radii) - 2)
    dv = (values[:-4] - 8.0 * values[1:-3] + 8.0 * values[3:-1] - values[4:]) / (12.0 * dx)
    return radii[inner], dv / radii[inner], inner


# -- identity checks -------------------------------------------------------


def check_H_identity(u, radii, rule):
    """Residuals of H'(r) = (Q-1)/r H(r) + 2 D(r)."""
    h_vals = np.array([height(u, r, rule) for r in radii])
    d_vals = np.array([dirichlet(u, r, rule) for r in radii])
    r_in, hp, inner = log_grid_derivative(h_vals, radii)
    rhs = (rule.Q - 1.0) / r_in * h_vals[inner] + 2.0 * d_vals[inner]
    scale = np.maximum(np.abs(hp), 1e-300)
    return {"radii": r_in, "lhs": hp, "rhs": rhs,
            "residuals": np.abs(hp - rhs) / scale}


def check_D_variation(u, radii, rule, include_discrepancy=True):
    """Residuals of the first variation
    D'(r) = (Q-2)/r D + 2 int (Zu/r)^2 psi dmu + 2 int (Zu/r) E_u dmu,
    where the last integral uses the unweighted polar measure and
    E_u = 4 (sum t_l Theta_l u) / rho^3.  E_u vanishes identically for B_a,
    so the term is 0 there; on a group it needs a polynomial input.  Setting
    include_discrepancy=False drops the E_u term (negative-control variant)."""
    with_disc = include_discrepancy and isinstance(u.context, GroupSpec)
    if with_disc and u.disc is None:
        raise DiscrepancyUnknown("discrepancy term needs a group polynomial input")
    radii = np.asarray(radii, dtype=float)
    d_vals = np.array([dirichlet(u, r, rule) for r in radii])
    r_in, dp, inner = log_grid_derivative(d_vals, radii)
    rhs = []
    for r, d in zip(r_in, d_vals[inner]):
        zr_sq = lambda z, t: (u.zu(z, t) / r) ** 2
        val = (rule.Q - 2.0) / r * d \
            + 2.0 * surface_integral(zr_sq, r, rule, weighted=True)
        if with_disc:
            e_term = lambda z, t: (u.zu(z, t) / r) * (4.0 * u.disc.evaluate(z, t) / r ** 3)
            val += 2.0 * surface_integral(e_term, r, rule, weighted=False)
        rhs.append(val)
    rhs = np.array(rhs)
    scale = np.maximum(np.abs(dp), np.maximum(np.abs(rhs), 1e-300))
    res = np.abs(dp - rhs) / scale
    both_tiny = (np.abs(dp) < 1e-12) & (np.abs(rhs) < 1e-12)
    res[both_tiny] = 0.0
    return {"radii": r_in, "lhs": dp, "rhs": rhs, "residuals": res}


def check_weiss_derivative(u, kappa, radii, rule):
    """Residuals of dW/dr = 2 r^-(Q+2k) int_{S_r} (Zu - kappa u)^2 psi dmu."""
    radii = np.asarray(radii, dtype=float)
    w_vals = np.array([weiss(u, kappa, r, rule) for r in radii])
    r_in, wp, inner = log_grid_derivative(w_vals, radii)
    rhs = np.array([
        2.0 * r ** (-(rule.Q + 2.0 * kappa))
        * surface_integral(lambda z, t: (u.zu(z, t) - kappa * u.value(z, t)) ** 2,
                           r, rule, weighted=True)
        for r in r_in])
    scale = np.maximum(np.maximum(np.abs(wp), np.abs(rhs)), 1e-300)
    return {"radii": r_in, "lhs": wp, "rhs": rhs,
            "residuals": np.abs(wp - rhs) / scale}


def check_monneau_derivative(u, p_handle, kappa, radii, rule):
    """Residuals of dM/dr = (2/r) W_kappa(u, r)."""
    radii = np.asarray(radii, dtype=float)
    m_vals = np.array([monneau(u, p_handle, kappa, r, rule) for r in radii])
    r_in, mp, inner = log_grid_derivative(m_vals, radii)
    rhs = np.array([2.0 / r * weiss(u, kappa, r, rule) for r in r_in])
    scale = np.maximum(np.maximum(np.abs(mp), np.abs(rhs)), 1e-300)
    return {"radii": r_in, "lhs": mp, "rhs": rhs, "M": m_vals,
            "residuals": np.abs(mp - rhs) / scale}


def frequency_radial_exponential(eps, r, rule):
    """N(u, r) for u = exp(-rho^-eps); analytically eps / r^eps."""
    rho_of = rule.geometry.rho
    u_val = lambda z, t: np.exp(-rho_of(z, t) ** (-eps))
    zu_val = lambda z, t: eps * rho_of(z, t) ** (-eps) * u_val(z, t)
    i_r = surface_integral(lambda z, t: u_val(z, t) * zu_val(z, t) / r,
                           r, rule, weighted=True)
    h_r = surface_integral(lambda z, t: u_val(z, t) ** 2, r, rule, weighted=True)
    return r * i_r / h_r


# -- curve container -------------------------------------------------------

CSV_HEADER = "r,D,H,N,W_kappa,M_kappa,discrepancy_norm"


@dataclass
class FrequencyCurve:
    radii: np.ndarray
    D: np.ndarray
    H: np.ndarray
    N: np.ndarray
    W: np.ndarray
    M: np.ndarray
    disc_norm: np.ndarray
    metadata: dict = field(default_factory=dict)

    def to_csv(self):
        lines = [CSV_HEADER]
        for i in range(len(self.radii)):
            row = [self.radii[i], self.D[i], self.H[i], self.N[i],
                   self.W[i], self.M[i], self.disc_norm[i]]
            lines.append(",".join(f"{x:.17g}" for x in row))
        return "\n".join(lines) + "\n"


def frequency_curve(u, rule, radii, kappa=None, ref=None, radial_steps=32):
    """Sample D, H, N (and optionally W_kappa, M_kappa) on a radius grid.

    ZeroHeight radii yield NaN in the N column."""
    radii = np.asarray(radii, dtype=float)
    n = len(radii)
    d_col = np.empty(n)
    h_col = np.empty(n)
    n_col = np.empty(n)
    w_col = np.full(n, math.nan)
    m_col = np.full(n, math.nan)
    e_col = np.empty(n)
    for i, r in enumerate(radii):
        d_col[i] = dirichlet(u, r, rule, radial_steps)
        h_col[i] = height(u, r, rule)
        try:
            n_col[i] = _frequency_from(u, r, rule, d_col[i], h_col[i])
        except ZeroHeight:
            n_col[i] = math.nan
        if kappa is not None:
            w_col[i] = (d_col[i] / r ** (rule.Q - 2.0 + 2.0 * kappa)
                        - kappa * h_col[i] / r ** (rule.Q - 1.0 + 2.0 * kappa))
            if ref is not None:
                m_col[i] = monneau(u, ref, kappa, r, rule)
        e_col[i] = discrepancy_surface_norm(u, r, rule)
    return FrequencyCurve(radii=radii, D=d_col, H=h_col, N=n_col,
                          W=w_col, M=m_col, disc_norm=e_col)
