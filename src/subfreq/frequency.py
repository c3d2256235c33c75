"""Frequency functionals D, H, N, Weiss and Monneau, plus identity checks.

Every functional is an integral over a gauge ball or sphere of one
SphereRule.  For a polynomial handle the integrands |grad_H u|^2, u^2,
(u - P)^2, the squared discrepancy and Zu E_u are Polynomials, integrated
in closed form by sphere moments (finite power series in r); callables and
FD handles are summed over the rule's nodes.  Either way the global
calibration factor gamma of the rule multiplies D and H alike and cancels
in every ratio and identity tested here.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DiscrepancyNonzero, DiscrepancyUnknown, ZeroDenominator, ZeroHeight
from .groups import left_translate
from .polynomials import euler
from .quadrature import surface_integral, volume_integral

FD_STEP = 1e-5


class FunctionHandle:
    """A function on the group (or Baouendi half-space) with the evaluators
    the frequency functionals need: value, |horizontal gradient|^2, and the
    Euler derivative Zu.

    Every constructor is a source of the Euclidean partials (d_z u, d_t u)
    for `from_partials`: the context turns them into |grad_H u|^2 by its own
    formula (`GroupSpec.horizontal_grad_sq`: sum_i (X_i u)^2;
    `BaouendiSpec.horizontal_grad_sq`: |d_z u|^2 + |z|^(2a)/4 |d_t u|^2), and
    Zu is the Euler field z . d_z u + (a+1) t . d_t u of the geometry.
    Polynomials pass their exact derivatives and keep exact Polynomials for
    |grad_H u|^2 and Zu, which evaluate like functions and which the
    quadrature integrates in closed form; `value_sq` (u^2) and `disc_sq`
    are Polynomials too, built once per handle.  Black boxes pass central
    differences (step FD_STEP * (1 + |g|), 2(m+k) evaluations of u); their
    integrals are sums over the rule.  `disc` is the discrepancy numerator
    from the context: exact on H-type group polynomials, zero for B_a, else
    None.
    """

    def __init__(self, context, value, grad_sq, zu, poly=None, disc=None, label=""):
        self.context = context
        self.value = value            # f(z, t) -> values
        self.grad_sq = grad_sq
        self.zu = zu
        self.poly = poly              # underlying Polynomial, if any
        self.disc = disc              # discrepancy numerator, if known
        self.label = label

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_partials(cls, context, value, partials, poly=None, label=""):
        """Handle from the Euclidean partials of u: either the pair
        ([d_{z_i} poly], [d_{t_j} poly]) of Polynomials of u = poly (exact), or
        a function (z, t) -> (dz, dt) returning lists of arrays (numeric).  Zu
        is the Euler field of the partials."""
        if callable(partials):
            grad_sq = lambda z, t: context.horizontal_grad_sq(*partials(z, t), z)
            zu = lambda z, t: context.geometry.euler_field(z, t, *partials(z, t))
        else:
            grad_sq = context.horizontal_grad_sq(*partials)
            zu = euler(poly)
        return cls(context, value, grad_sq, zu, poly=poly,
                   disc=context.discrepancy(poly), label=label)

    @classmethod
    def from_polynomial(cls, context, p, center=None, label=""):
        if center is not None:
            p = left_translate(context, p, center)
        partials = ([p.diff_z(i) for i in range(p.m)], [p.diff_t(j) for j in range(p.k)])
        return cls.from_partials(context, p.evaluate, partials, poly=p, label=label)

    @classmethod
    def from_callable(cls, context, value, label=""):
        m = context.m

        def partials(z, t):
            g = np.concatenate([z, t], axis=1)
            h = FD_STEP * (1.0 + np.sqrt(np.sum(g ** 2, axis=1)))
            d = []
            for e in np.eye(g.shape[1]):
                up, down = g + h[:, None] * e, g - h[:, None] * e
                d.append((value(up[:, :m], up[:, m:]) - value(down[:, :m], down[:, m:]))
                         / (2.0 * h))
            return d[:m], d[m:]

        return cls.from_partials(context, value, partials, label=label)

    @cached_property
    def value_sq(self):
        """u^2: a Polynomial when u is one, else a function."""
        if self.poly is not None:
            return self.poly * self.poly
        return lambda z, t: self.value(z, t) ** 2

    @cached_property
    def disc_sq(self):
        """(4 disc)^2, so that E_u^2 = disc_sq / rho^6 (disc must be known)."""
        return self.disc * self.disc * 16

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


def dirichlet(u, r, rule):
    """D(r) = int_{B_r} |grad_H u|^2 dg."""
    return volume_integral(u.grad_sq, r, rule)


def height(u, r, rule):
    """H(r) = int_{S_r} u^2 |grad_H rho| dsigma_H."""
    return surface_integral(u.value_sq, r, rule, weighted=True)


def _frequency_from(r, d, h):
    """r d / h for d = D(r), h = H(r); raises ZeroHeight when h <= 0."""
    if h <= 0.0:
        raise ZeroHeight(f"H({r}) = {h} is not positive")
    return r * d / h


def frequency(u, r, rule):
    """N(r) = r D(r) / H(r); raises ZeroHeight when H(r) <= 0."""
    return _frequency_from(r, dirichlet(u, r, rule), height(u, r, rule))


def _weiss_from(d, h, r, kappa, q):
    """d/r^(Q-2+2k) - kappa h/r^(Q-1+2k) for d = D(r), h = H(r)."""
    return d / r ** (q - 2.0 + 2.0 * kappa) - kappa * h / r ** (q - 1.0 + 2.0 * kappa)


def weiss(u, kappa, r, rule):
    """W_kappa(u, r) = D/r^(Q-2+2k) - kappa H/r^(Q-1+2k)."""
    return _weiss_from(dirichlet(u, r, rule), height(u, r, rule), r, kappa, rule.Q)


def _require_vanishing_discrepancy(handle):
    if handle.disc is not None and not handle.disc.is_zero():
        raise DiscrepancyNonzero(
            f"function {handle.label or handle.poly} has nonzero discrepancy")


def _monneau_difference(u, p_handle):
    """The handle of u - P, after checking that both have vanishing
    discrepancy (exactly when it is known; it vanishes for every B_a handle)."""
    _require_vanishing_discrepancy(u)
    _require_vanishing_discrepancy(p_handle)
    return u.shifted_by(p_handle)


def _monneau_from(diff, kappa, r, rule):
    """M_kappa at r from the handle diff of u - P."""
    return height(diff, r, rule) / r ** (rule.Q - 1.0 + 2.0 * kappa)


def monneau(u, p_handle, kappa, r, rule):
    """M_kappa(u, P, r) = r^-(Q-1+2k) int_{S_r} (u-P)^2 |grad_H rho| dsigma_H.

    Both u and P must have vanishing discrepancy (checked exactly when it is
    known; it vanishes for every B_a handle)."""
    return _monneau_from(_monneau_difference(u, p_handle), kappa, r, rule)


def doubling_ratio(u, r, rule):
    """int_{B_2r} u^2 / int_{B_r} u^2."""
    denom = volume_integral(u.value_sq, r, rule)
    if denom == 0.0:
        raise ZeroDenominator(f"int_(B_{r}) u^2 = 0")
    return volume_integral(u.value_sq, 2.0 * r, rule) / denom


def discrepancy_surface_norm(u, r, rule):
    """L2 norm of the discrepancy E_u on S_r w.r.t. the polar measure.

    0.0 for B_a handles (the discrepancy of every function vanishes
    identically there); NaN when unknown (group callables)."""
    if u.disc is None:
        return math.nan
    # on S_r, rho = r, so E_u^2 = disc_sq / r^6
    e_sq = surface_integral(u.disc_sq, r, rule, weighted=False) / r ** 6
    return math.sqrt(max(e_sq, 0.0))


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
    if not np.allclose(steps, dx, rtol=1e-8):
        raise ValueError("radius grid is not geometric")
    inner = slice(2, len(radii) - 2)
    dv = (values[:-4] - 8.0 * values[1:-3] + 8.0 * values[3:-1] - values[4:]) / (12.0 * dx)
    return radii[inner], dv / radii[inner], inner


# -- identity checks -------------------------------------------------------


def _identity_check(values, radii, rhs_at):
    """Residuals of d/dr values = rhs_at(r, i) at the interior radii r = radii[i]
    (5-point `log_grid_derivative` on the left), by one policy for every
    identity: |lhs - rhs| / max(|lhs|, |rhs|), and 0 where both sides are
    below 1e-12 (an identically vanishing quantity read in round-off)."""
    r_in, lhs, inner = log_grid_derivative(values, radii)
    rhs = np.array([rhs_at(r, i) for r, i in zip(r_in, range(len(values))[inner])])
    scale = np.maximum(np.abs(lhs), np.abs(rhs))
    residuals = np.divide(np.abs(lhs - rhs), scale, out=np.zeros_like(scale),
                          where=scale >= 1e-12)
    return {"radii": r_in, "lhs": lhs, "rhs": rhs, "residuals": residuals}


def check_H_identity(u, radii, rule):
    """Residuals of H'(r) = (Q-1)/r H(r) + 2 D(r)."""
    curve = frequency_curve(u, rule, radii)
    return _identity_check(curve.H, radii,
                           lambda r, i: (rule.Q - 1.0) / r * curve.H[i] + 2.0 * curve.D[i])


def check_D_variation(u, radii, rule, include_discrepancy=True):
    """Residuals of the first variation
    D'(r) = (Q-2)/r D + 2 int (Zu/r)^2 psi dmu + 2 int (Zu/r) E_u dmu,
    where the last integral uses the unweighted polar measure and
    E_u = 4 (sum t_l Theta_l u) / rho^3.  E_u vanishes identically for B_a,
    so the term is 0 there; on a group it needs a polynomial input.  Setting
    include_discrepancy=False drops the E_u term (negative-control variant)."""
    if include_discrepancy and u.disc is None:
        raise DiscrepancyUnknown("discrepancy term needs a group polynomial input")
    with_disc = include_discrepancy and not u.disc.is_zero()
    d_vals = frequency_curve(u, rule, radii).D

    def rhs(r, i):
        zr_sq = lambda z, t: (u.zu(z, t) / r) ** 2
        val = (rule.Q - 2.0) / r * d_vals[i] \
            + 2.0 * surface_integral(zr_sq, r, rule, weighted=True)
        if with_disc:
            val += 8.0 / r ** 4 * surface_integral(u.zu * u.disc, r, rule, weighted=False)
        return val

    return _identity_check(d_vals, radii, rhs)


def check_weiss_derivative(u, kappa, radii, rule):
    """Residuals of dW/dr = 2 r^-(Q+2k) int_{S_r} (Zu - kappa u)^2 psi dmu."""
    w_vals = frequency_curve(u, rule, radii, kappa=kappa).W
    return _identity_check(w_vals, radii, lambda r, i: (
        2.0 * r ** (-(rule.Q + 2.0 * kappa))
        * surface_integral(lambda z, t: (u.zu(z, t) - kappa * u.value(z, t)) ** 2,
                           r, rule, weighted=True)))


def check_monneau_derivative(u, p_handle, kappa, radii, rule):
    """Residuals of dM/dr = (2/r) W_kappa(u, r), with M and whether it is
    nondecreasing up to a slack of 1e-5 ("nondecreasing")."""
    curve = frequency_curve(u, rule, radii, kappa=kappa, ref=p_handle)
    return {**_identity_check(curve.M, radii, lambda r, i: 2.0 / r * curve.W[i]),
            "M": curve.M, "nondecreasing": bool(np.all(np.diff(curve.M) >= -1e-5))}


def frequency_radial_exponential(eps, r, rule):
    """N(u, r) for u = exp(-rho^-eps); analytically eps / r^eps."""
    rho_of = rule.rho
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

    def to_csv(self):
        lines = [CSV_HEADER]
        for i in range(len(self.radii)):
            row = [self.radii[i], self.D[i], self.H[i], self.N[i],
                   self.W[i], self.M[i], self.disc_norm[i]]
            lines.append(",".join(f"{x:.17g}" for x in row))
        return "\n".join(lines) + "\n"


def frequency_curve(u, rule, radii, kappa=None, ref=None):
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
    diff = _monneau_difference(u, ref) if kappa is not None and ref is not None else None
    for i, r in enumerate(radii):
        d_col[i] = dirichlet(u, r, rule)
        h_col[i] = height(u, r, rule)
        try:
            n_col[i] = _frequency_from(r, d_col[i], h_col[i])
        except ZeroHeight:
            n_col[i] = math.nan
        if kappa is not None:
            w_col[i] = _weiss_from(d_col[i], h_col[i], r, kappa, rule.Q)
            if diff is not None:
                m_col[i] = _monneau_from(diff, kappa, r, rule)
        e_col[i] = discrepancy_surface_norm(u, r, rule)
    return FrequencyCurve(radii=radii, D=d_col, H=h_col, N=n_col,
                          W=w_col, M=m_col, disc_norm=e_col)
