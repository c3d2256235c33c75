"""Frequency functionals D, H, N, Weiss and Monneau, plus identity checks.

Every functional is an integral over a gauge ball or sphere of one
SphereRule.  For a polynomial handle the integrands |grad_H u|^2, u^2,
u Zu, (Zu - kappa u)^2, (u - P)^2, the squared discrepancy and Zu E_u are
Polynomials, integrated in closed form by sphere moments (finite power
series in r); callables and FD handles are summed over the rule's nodes.
Either way the global calibration factor gamma of the rule multiplies D
and H alike and cancels in every ratio and identity tested here.  A curve
is one integral per column of radii.  An FD solution solves B_a u = 0, so
its curve reads D = I / r, I = int_{S_r} u Zu psi (the Rellich identity),
and no ball; `dirichlet` and the H and D identity checks keep the ball D, the
definition.  Only the dilation delta_r depends on r, and d/dr f(delta_r
sigma) = Zf(delta_r sigma) / r, so each identity check compares two sphere
integrals per radius, on any radii.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatch,
    DiscrepancyNonzero,
    DiscrepancyUnknown,
    ZeroDenominator,
    ZeroHeight,
)
from .groups import left_translate
from .polynomials import carre_du_champ, euler
from .quadrature import _powers, surface_integral, volume_integral


class FunctionHandle:
    """A function u on the group (or Baouendi half-space) with the evaluators
    the frequency functionals need: value, |horizontal gradient|^2, and the
    Euler derivative Zu.

    Its one source is the jet (z, t) -> (u, [d_z u], [d_t u]) at the points.
    The context turns the partials into |grad_H u|^2 by its own numeric
    formula (`GroupSpec.horizontal_grad_sq`: sum_i (X_i u)^2;
    `BaouendiSpec.horizontal_grad_sq`: |d_z u|^2 + |z|^(2a)/4 |d_t u|^2), and
    Zu is the Euler field z . d_z u + (a+1) t . d_t u of the geometry.  A
    polynomial handle (`from_polynomial`) also keeps u as `poly` and exact
    Polynomials for |grad_H u|^2 (`carre_du_champ` of the context's
    `laplacian`) and Zu, which evaluate like functions and which the
    quadrature integrates in closed form; u^2 (`value_sq`), every
    `integrand` f(u, Zu) and `disc_sq` are Polynomials too.  A numeric handle
    (an FD solution, `GridSolution.as_handle`, or a black box) reads value,
    |grad_H u|^2 and Zu from its jet, and sums over the rule integrate them.
    Its jet keeps its last point set and result (`_once_per_point_set`), so
    every integral of the handle on one point set reads one jet call; the
    arrays it returns are read-only.
    `disc` is the discrepancy numerator from the context: exact on H-type
    group polynomials, zero for B_a, else None.  `_rellich` marks a handle
    with B_a u = 0 by construction (an FD solution): curves read D = I / r.
    """
    _rellich = False

    def __init__(self, context, jet, poly=None, label=""):
        if poly is None:
            jet = _once_per_point_set(jet)
        self.context = context
        self.jet = jet                # (z, t) -> (u, [d_z u], [d_t u]) arrays at the points
        self.poly = poly              # u itself, when u is a Polynomial
        self.disc = context.discrepancy(poly)
        self.label = label
        if poly is None:              # from_polynomial sets the exact Polynomials
            self.value = lambda z, t: jet(z, t)[0]
            self.grad_sq = lambda z, t: context.horizontal_grad_sq(*jet(z, t)[1:], z)
            self.zu = self.integrand(lambda u, zu: zu)

    @classmethod
    def from_polynomial(cls, context, p, center=None, label=""):
        """Handle of the Polynomial p, left-translated to `center` when given."""
        if center is not None:
            p = left_translate(context, p, center)
        u = cls(context, polynomial_jet(p), poly=p, label=label)
        u.value, u.grad_sq, u.zu = p.evaluate, carre_du_champ(context, p), euler(p)
        return u

    def integrand(self, f):
        """f(u, Zu): f of the Polynomials u and Zu when u is a Polynomial, else
        the function of the points that applies f to u and Zu from one call
        of the jet."""
        if self.poly is not None:
            return f(self.poly, self.zu)

        # not self: a handle holding a closure over itself waits for the cyclic GC
        jet, euler_field = self.jet, self.context.geometry.euler_field

        def at(z, t):
            u, dz, dt = jet(z, t)
            return f(u, euler_field(z, t, dz, dt))

        return at

    @cached_property
    def value_sq(self):
        """u^2: a Polynomial when u is one, else a function."""
        if self.poly is not None:
            return self.poly * self.poly
        value = self.value
        return lambda z, t: value(z, t) ** 2

    @cached_property
    def value_zu(self):
        """u Zu: a Polynomial when u is one, else a function."""
        return self.integrand(lambda u, zu: u * zu)

    @cached_property
    def disc_sq(self):
        """(4 disc)^2, so that E_u^2 = disc_sq / rho^6 (disc must be known)."""
        return self.disc * self.disc * 16

    def shifted_by(self, other):
        """Handle for u - other (used by Monneau and the Weiss identity): exact
        for two polynomials, else the difference of the two jets.  Both must
        live on one context (an equal group or spec)."""
        if other.context != self.context:
            raise DimensionMismatch(f"u - P of a function on {self.context} and one on "
                                    f"{other.context}")
        label = f"{self.label}-{other.label}"
        if self.poly is not None and other.poly is not None:
            return FunctionHandle.from_polynomial(
                self.context, self.poly - other.poly, label=label)

        def jet(z, t):
            (u, dz, dt), (v, ez, et) = self.jet(z, t), other.jet(z, t)
            return u - v, [a - b for a, b in zip(dz, ez)], [a - b for a, b in zip(dt, et)]

        return FunctionHandle(self.context, jet, label=label)


def _once_per_point_set(jet):
    """jet with a one-entry memo: called again on points equal to the last
    ones, it returns the last result instead of calling jet.  The entry holds
    a copy of the points and read-only views of the arrays, so that a write
    into one raises instead of changing a later result."""
    last = []

    def memo(z, t):
        if not (last and np.array_equal(last[0], z) and np.array_equal(last[1], t)):
            last.clear()  # the old result is not held while jet runs
            u, dz, dt = jet(z, t)
            result = _read_only(u), tuple(map(_read_only, dz)), tuple(map(_read_only, dt))
            last[:] = np.array(z), np.array(t), result
        return last[2]

    return memo


def _read_only(a):
    view = np.asarray(a).view()
    view.flags.writeable = False
    return view


def polynomial_jet(p):
    """The jet (z, t) -> (p, [d_z p], [d_t p]) of the Polynomial p at the points."""
    dz, dt = [p.diff_z(i) for i in range(p.m)], [p.diff_t(j) for j in range(p.k)]
    return lambda z, t: (p(z, t), [d(z, t) for d in dz], [d(z, t) for d in dt])


# -- core functionals ------------------------------------------------------


def dirichlet(u, r, rule):
    """D(r) = int_{B_r} |grad_H u|^2 dg."""
    rule.require(u.context)
    return volume_integral(u.grad_sq, r, rule)


def height(u, r, rule):
    """H(r) = int_{S_r} u^2 |grad_H rho| dsigma_H."""
    rule.require(u.context)
    return surface_integral(u.value_sq, r, rule, weighted=True)


def frequency(u, r, rule):
    """N(r) = r D(r) / H(r), the one-radius column of `frequency_curve`;
    raises ZeroHeight when H(r) <= 0."""
    curve = frequency_curve(u, rule, [r])
    if curve.H[0] <= 0.0:
        raise ZeroHeight(f"H({r}) = {curve.H[0]} is not positive")
    return float(curve.N[0])


def weiss(u, kappa, r, rule):
    """W_kappa(u, r) = D/r^(Q-2+2k) - kappa H/r^(Q-1+2k), the one-radius
    column of `frequency_curve`."""
    return float(frequency_curve(u, rule, [r], kappa=kappa).W[0])


def monneau(u, p_handle, kappa, r, rule):
    """M_kappa(u, P, r) = r^-(Q-1+2k) int_{S_r} (u-P)^2 |grad_H rho| dsigma_H,
    the one-radius M column of `frequency_curve`; u and P must have
    vanishing discrepancy (`_monneau_difference`)."""
    return float(_monneau_from(_monneau_difference(u, p_handle), kappa, [r], rule)[0])


def _monneau_difference(u, p_handle):
    """The handle of u - P, after checking that both have vanishing
    discrepancy (exactly when it is known; it vanishes for every B_a handle)."""
    for f in (u, p_handle):
        if f.disc is not None and not f.disc.is_zero():
            raise DiscrepancyNonzero(f"function {f.label or f.poly} has nonzero discrepancy")
    return u.shifted_by(p_handle)


def _monneau_from(diff, kappa, r, rule):
    """The M_kappa column on the radii r from the handle diff of u - P."""
    return height(diff, r, rule) / _powers(r, rule.Q - 1.0 + 2.0 * kappa)


def doubling_ratio(u, r, rule):
    """int_{B_2r} u^2 / int_{B_r} u^2."""
    rule.require(u.context)
    denom, numer = volume_integral(u.value_sq, np.array([r, 2.0 * r]), rule)
    if denom == 0.0:
        raise ZeroDenominator(f"int_(B_{r}) u^2 = 0")
    return float(numer / denom)


def discrepancy_surface_norm(u, r, rule):
    """L2 norm of the discrepancy E_u on S_r w.r.t. the polar measure, at
    one radius or at each of an array of radii.

    0.0 for B_a handles (the discrepancy of every function vanishes
    identically there); NaN when unknown (group callables)."""
    if u.disc is None:
        return math.nan if np.ndim(r) == 0 else np.full(len(r), math.nan)
    # on S_r, rho = r, so E_u^2 = disc_sq / r^6
    e_sq = surface_integral(u.disc_sq, r, rule, weighted=False) / _powers(r, 6)
    return np.sqrt(np.maximum(e_sq, 0.0))


def geometric_radii(rmin, rmax, n):
    return np.exp(np.linspace(math.log(rmin), math.log(rmax), n))


# -- identity checks -------------------------------------------------------


def _identity_check(radii, lhs, rhs):
    """Residuals of lhs = rhs at each radius by one policy for every identity:
    |lhs - rhs| / max(|lhs|, |rhs|), 0 where both sides are below 1e-12 (an
    identically vanishing quantity read in round-off), and NaN where a side
    is not finite."""
    scale = np.maximum(np.abs(lhs), np.abs(rhs))
    finite = np.isfinite(scale)
    diff = np.subtract(lhs, rhs, out=np.zeros_like(scale), where=finite)
    residuals = np.divide(np.abs(diff), scale, out=np.where(finite, 0.0, np.nan),
                          where=finite & (scale >= 1e-12))
    return {"radii": radii, "lhs": lhs, "rhs": rhs, "residuals": residuals}


def check_H_identity(u, radii, rule):
    """Residuals of H'(r) = (Q-1)/r H(r) + 2 D(r), with the exact H' =
    ((Q-1) H + 2 I) / r: the Rellich identity I = r D, D the ball integral."""
    r, q1 = np.asarray(radii, dtype=float), rule.Q - 1.0
    # the sphere integrals first: a numeric handle's jet keeps one point set
    h, i = height(u, r, rule), surface_integral(u.value_zu, r, rule)
    lhs = (q1 * h + 2.0 * i) / r
    return _identity_check(r, lhs, q1 / r * h + 2.0 * volume_integral(u.grad_sq, r, rule))


def check_D_variation(u, radii, rule, include_discrepancy=True):
    """Residuals of the first variation
    D'(r) = (Q-2)/r D + 2 int (Zu/r)^2 psi dmu + 2 int (Zu/r) E_u dmu,
    where D is the ball integral (as in `dirichlet`; an FD curve reads
    D = I / r instead), D' = int_{S_r} |grad_H u|^2 dmu and the E_u
    integral use the unweighted polar measure and E_u = 4 (sum t_l Theta_l
    u) / rho^3.  E_u vanishes identically for B_a, so the term is 0 there;
    on a group it needs a polynomial input.  Setting include_discrepancy=False drops the E_u term
    (negative-control variant)."""
    if include_discrepancy and u.disc is None:
        raise DiscrepancyUnknown("discrepancy term needs a group polynomial input")
    with_disc = include_discrepancy and not u.disc.is_zero()
    rule.require(u.context)
    r = np.asarray(radii, dtype=float)
    # the sphere integrals first: a numeric handle's jet keeps one point set
    zu_sq = surface_integral(u.integrand(lambda v, zu: zu * zu), r, rule)
    lhs = surface_integral(u.grad_sq, r, rule, weighted=False)
    rhs = (rule.Q - 2.0) / r * volume_integral(u.grad_sq, r, rule) + 2.0 / r ** 2 * zu_sq
    if with_disc:
        rhs += 8.0 / r ** 4 * surface_integral(u.zu * u.disc, r, rule, weighted=False)
    return _identity_check(r, lhs, rhs)


def check_weiss_derivative(u, kappa, radii, rule):
    """Residuals of dW/dr = 2 r^-(Q+2k) int_{S_r} (Zu - kappa u)^2 psi dmu, with
    the exact W' = (D' - e D/r)/r^e + 2k (k H - I)/r^(e+2), e = Q-2+2k."""
    curve = frequency_curve(u, rule, radii, kappa=kappa)
    r, e = curve.radii, rule.Q - 2.0 + 2.0 * kappa
    i_col = r * curve.D if u._rellich else surface_integral(u.value_zu, r, rule)
    lhs = (surface_integral(u.grad_sq, r, rule, weighted=False) - e * curve.D / r) / r ** e \
        + 2.0 * kappa * (kappa * curve.H - i_col) / r ** (e + 2.0)
    k = Fraction(kappa) if u.poly is not None else kappa
    defect_sq = u.integrand(lambda v, zu: (zu - k * v) ** 2)
    rhs = 2.0 * r ** (-(rule.Q + 2.0 * kappa)) * surface_integral(defect_sq, r, rule)
    return _identity_check(r, lhs, rhs)


def check_monneau_derivative(u, p_handle, kappa, radii, rule):
    """Residuals of dM/dr = (2/r) W_kappa(u, r), with the exact
    M' = (2/r) (I_(u-P) / r^(Q-1+2k) - kappa M), and M and whether it is
    nondecreasing up to a slack of 1e-5 ("nondecreasing")."""
    curve = frequency_curve(u, rule, radii, kappa=kappa)
    r, diff = curve.radii, _monneau_difference(u, p_handle)
    m_col = _monneau_from(diff, kappa, r, rule)
    i_diff = surface_integral(diff.value_zu, r, rule)
    lhs = 2.0 / r * (i_diff / r ** (rule.Q - 1.0 + 2.0 * kappa) - kappa * m_col)
    return {**_identity_check(r, lhs, 2.0 / r * curve.W),
            "M": m_col, "nondecreasing": bool(np.all(np.diff(m_col) >= -1e-5))}


def radial_exponential_integrals(eps, r, rule):
    """(I(r), H(r)) = int_{S_r} (u Zu, u^2) psi for u = exp(-rho^-eps), whose
    Zu = eps rho^-eps u, summed over the rule's nodes, at one radius or at
    each of an array of radii.  Both integrands are constant on S_r, so I / H
    = eps r^-eps on any weights and psi, while H(r) = exp(-2 r^-eps) r^(Q-1)
    sum_i w_i psi_i reads the psi mass, which the calibration makes Q^2/(Q-2)."""
    u = lambda z, t: np.exp(-rule.rho(z, t) ** (-eps))
    zu = lambda z, t: eps * rule.rho(z, t) ** (-eps) * u(z, t)
    return (surface_integral(lambda z, t: u(z, t) * zu(z, t), r, rule),
            surface_integral(lambda z, t: u(z, t) ** 2, r, rule))


def frequency_radial_exponential(eps, r, rule):
    """N(u, r) = I(r) / H(r) for u = exp(-rho^-eps); analytically eps / r^eps."""
    i, h = radial_exponential_integrals(eps, r, rule)
    return i / h


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
        columns = (self.radii, self.D, self.H, self.N, self.W, self.M, self.disc_norm)
        rows = zip(*(column.tolist() for column in columns))
        return "\n".join([CSV_HEADER, *(",".join(f"{x:.17g}" for x in r) for r in rows), ""])


def frequency_curve(u, rule, radii, kappa=None, ref=None):
    """D, H, N (and optionally W_kappa, M_kappa) on a radius grid, one
    integral per column.  D is the ball integral, or I / r on the spheres
    for a handle that solves B_a u = 0 by construction (an FD solution).

    ZeroHeight radii yield NaN in the N column."""
    rule.require(u.context)
    r = np.asarray(radii, dtype=float)
    if kappa is not None:  # before the integrals: an overflow here outranks their underflow
        scale_d, scale_h = (_powers(r, rule.Q - e + 2.0 * kappa) for e in (2.0, 1.0))
    d = (surface_integral(u.value_zu, r, rule) / r if u._rellich
         else volume_integral(u.grad_sq, r, rule))
    h = height(u, r, rule)
    w, m = np.full((2, len(r)), math.nan)
    if kappa is not None:
        w = d / scale_d - kappa * h / scale_h
        if ref is not None:
            m = _monneau_from(_monneau_difference(u, ref), kappa, r, rule)
    return FrequencyCurve(radii=r, D=d, H=h,
                          N=np.divide(r * d, h, out=np.full(len(r), math.nan), where=h > 0.0),
                          W=w, M=m, disc_norm=discrepancy_surface_norm(u, r, rule))
