"""Exact rational polynomial calculus in exponential coordinates (z, t).

Monomials are indexed by multi-indices (a, b) with a over the z variables
and b over the t variables.  The stratified degree of a monomial is
|a| + w|b| where the layer weight w is 2 for step-2 groups and alpha+1 for
the symbolic (integer-alpha) Baouendi calculus.  A context (`GroupSpec`,
`BaouendiSpec`) owns its calculus, `tweight` and `laplacian` (Delta_H, B_a),
and the solid harmonics of both operators are built from these two.
"""

import json
from fractions import Fraction

import numpy as np

from . import exactla
from .constants import polar_moment
from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    ParseError,
    json_int,
)


class Polynomial:
    """Immutable polynomial with exact rational coefficients."""

    __slots__ = ("m", "k", "tweight", "terms", "_series")

    def __init__(self, m, k, tweight, terms=None):
        self.m = m
        self.k = k
        self.tweight = tweight
        self._series = {}
        clean = {}
        for key, coeff in (terms or {}).items():
            coeff = exactla.to_fraction(coeff)
            if coeff != 0:
                a, b = key
                clean[(tuple(a), tuple(b))] = coeff
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, m, k, tweight=2):
        return cls(m, k, tweight, {})

    @classmethod
    def constant(cls, m, k, c, tweight=2):
        return cls(m, k, tweight, {((0,) * m, (0,) * k): c})

    @classmethod
    def monomial(cls, m, k, a, b, coeff=1, tweight=2):
        return cls(m, k, tweight, {(tuple(a), tuple(b)): coeff})

    @classmethod
    def z_var(cls, m, k, i, tweight=2):
        a = [0] * m
        a[i] = 1
        return cls.monomial(m, k, a, (0,) * k, 1, tweight)

    @classmethod
    def t_var(cls, m, k, ell, tweight=2):
        b = [0] * k
        b[ell] = 1
        return cls.monomial(m, k, (0,) * m, b, 1, tweight)

    @classmethod
    def z_norm_sq(cls, m, k, tweight=2):
        terms = {}
        for i in range(m):
            a = [0] * m
            a[i] = 2
            terms[(tuple(a), (0,) * k)] = Fraction(1)
        return cls(m, k, tweight, terms)

    @classmethod
    def t_norm_sq(cls, m, k, tweight=2):
        terms = {}
        for ell in range(k):
            b = [0] * k
            b[ell] = 2
            terms[((0,) * m, tuple(b))] = Fraction(1)
        return cls(m, k, tweight, terms)

    # -- basic algebra -----------------------------------------------------

    def _like(self, terms):
        return Polynomial(self.m, self.k, self.tweight, terms)

    def _check(self, other):
        if (self.m, self.k, self.tweight) != (other.m, other.k, other.tweight):
            raise DimensionMismatch("polynomial contexts differ")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.m, self.k, other, self.tweight)
        self._check(other)
        terms = dict(self.terms)
        for key, c in other.terms.items():
            terms[key] = terms.get(key, Fraction(0)) + c
        return self._like(terms)

    __radd__ = __add__

    def __neg__(self):
        return self._like({key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, Polynomial) else -Fraction(other))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = exactla.to_fraction(other)
            return self._like({key: c * other for key, c in self.terms.items()})
        self._check(other)
        terms = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                key = (tuple(x + y for x, y in zip(a1, a2)),
                       tuple(x + y for x, y in zip(b1, b2)))
                terms[key] = terms.get(key, Fraction(0)) + c1 * c2
        return self._like(terms)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
        result = Polynomial.constant(self.m, self.k, 1, self.tweight)
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return ((self.m, self.k, self.tweight) == (other.m, other.k, other.tweight)
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.m, self.k, self.tweight, frozenset(self.terms.items())))

    def is_zero(self):
        return not self.terms

    # -- calculus ----------------------------------------------------------

    def diff_z(self, i):
        if not 0 <= i < self.m:
            raise IndexOutOfRange(f"z index {i} outside 0..{self.m - 1}")
        terms = {}
        for (a, b), c in self.terms.items():
            if a[i] > 0:
                na = list(a)
                na[i] -= 1
                key = (tuple(na), b)
                terms[key] = terms.get(key, Fraction(0)) + c * a[i]
        return self._like(terms)

    def diff_t(self, ell):
        if not 0 <= ell < self.k:
            raise IndexOutOfRange(f"t index {ell} outside 0..{self.k - 1}")
        terms = {}
        for (a, b), c in self.terms.items():
            if b[ell] > 0:
                nb = list(b)
                nb[ell] -= 1
                key = (a, tuple(nb))
                terms[key] = terms.get(key, Fraction(0)) + c * b[ell]
        return self._like(terms)

    # -- evaluation and substitution ---------------------------------------

    def evaluate(self, z, t):
        """Evaluate at points; z has shape (..., m), t shape (..., k)."""
        z = np.asarray(z, dtype=float)
        t = np.asarray(t, dtype=float)
        out = np.zeros(z.shape[:-1], dtype=float)
        for (a, b), c in self.terms.items():
            term = np.full(z.shape[:-1], float(c))
            for i, p in enumerate(a):
                if p:
                    term = term * z[..., i] ** p
            for ell, p in enumerate(b):
                if p:
                    term = term * t[..., ell] ** p
            out += term
        return out

    def __call__(self, z, t):
        return self.evaluate(z, t)

    def sphere_series(self, alpha, e):
        """Powers d and coefficients c_d with
        int_{S_1} p(lam z, lam^(alpha+1) t) s^e dmu = sum_d c_d lam^d for the
        raw polar measure dmu of the geometry (m, k, alpha): each monomial
        z^a t^b has dilation degree |a| + (alpha+1)|b| and moment
        `polar_moment(m, k, alpha, e, a, b)`.  Built once per (alpha, e)."""
        key = (alpha, e)
        if key not in self._series:
            sums = {}
            for (a, b), c in self.terms.items():
                moment = polar_moment(self.m, self.k, alpha, e, a, b)
                if moment:
                    d = sum(a) + (alpha + 1.0) * sum(b)
                    sums[d] = sums.get(d, 0.0) + float(c) * moment
            self._series[key] = (np.array(list(sums), dtype=float),
                                 np.array(list(sums.values()), dtype=float))
        return self._series[key]

    def substitute(self, z_subs, t_subs):
        """Substitute polynomials for each variable."""
        result = Polynomial.zero(self.m, self.k, self.tweight)
        one = Polynomial.constant(self.m, self.k, 1, self.tweight)
        for (a, b), c in self.terms.items():
            prod = one * c
            for i, p in enumerate(a):
                if p:
                    prod = prod * (z_subs[i] ** p)
            for ell, p in enumerate(b):
                if p:
                    prod = prod * (t_subs[ell] ** p)
            result = result + prod
        return result

    # -- serialization -----------------------------------------------------

    def to_json(self):
        items = sorted(self.terms.items())
        return [{"coeff": str(c), "z": list(a), "t": list(b)}
                for (a, b), c in items]

    @classmethod
    def from_json(cls, data, m=None, k=None, tweight=2):
        try:
            if isinstance(data, str):
                data = json.loads(data)
            terms = {}
            for item in data:
                a = tuple(json_int(x, "a z exponent", 0) for x in item["z"])
                b = tuple(json_int(x, "a t exponent", 0) for x in item["t"])
                if m is None:
                    m, k = len(a), len(b)
                if len(a) != m or len(b) != k:
                    raise DimensionMismatch("inconsistent multi-index lengths")
                key = (a, b)
                terms[key] = terms.get(key, Fraction(0)) + Fraction(item["coeff"])
            if m is None:
                raise ParseError("empty polynomial file needs explicit dimensions")
            return cls(m, k, tweight, terms)
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, DimensionMismatch):
                raise
            raise ParseError(f"bad polynomial data: {exc}") from exc

    def __repr__(self):
        if not self.terms:
            return "Polynomial(0)"
        bits = []
        for (a, b), c in sorted(self.terms.items()):
            vars_ = "".join(f"z{i + 1}^{p}" if p != 1 else f"z{i + 1}"
                            for i, p in enumerate(a) if p)
            vars_ += "".join(f"t{l + 1}^{p}" if p != 1 else f"t{l + 1}"
                             for l, p in enumerate(b) if p)
            bits.append(f"{c}{'*' if vars_ else ''}{vars_}")
        return "Polynomial(" + " + ".join(bits) + ")"


def _check_calculus(context, p):
    """DimensionMismatch unless p has the context's (m, k) and `tweight`."""
    if (p.m, p.k, p.tweight) != (context.m, context.k, context.tweight):
        raise DimensionMismatch(f"polynomial does not match the {type(context).__name__}")


# -- group vector fields ---------------------------------------------------


def _check_group_poly(G, p):
    if not hasattr(G, "J"):
        raise DimensionMismatch(f"{type(G).__name__} has no group law")
    _check_calculus(G, p)


def _jz_component(G, ell, i):
    """<J_l z, e_i> as a polynomial (degree 1 in z)."""
    terms = {}
    for j in range(G.m):
        c = G.J[ell][i][j]
        if c != 0:
            a = [0] * G.m
            a[j] = 1
            terms[(tuple(a), (0,) * G.k)] = c
    return Polynomial(G.m, G.k, 2, terms)


def horizontal_field(G, i, dz_i, dt, z=None):
    """X_i u = d_{z_i} u + (1/2) sum_l <J_l z, e_i> d_{t_l} u from the Euclidean
    partials dz_i = d_{z_i} u and dt = [d_{t_l} u]: exact when they are
    Polynomials (z omitted), numeric when they are arrays at the points z."""
    if z is None:
        _check_group_poly(G, dz_i)
    result = dz_i
    for ell in range(G.k):
        if z is None:
            half_jz = G.half_jz[ell][i]
        else:
            half_jz = 0.5 * (z @ G.J_float[ell, i])
        result = result + half_jz * dt[ell]
    return result


def apply_X(G, i, p):
    """X_i p, exactly (see `horizontal_field`)."""
    _check_group_poly(G, p)
    if not 0 <= i < G.m:
        raise IndexOutOfRange(f"field index {i} outside 0..{G.m - 1}")
    return horizontal_field(G, i, p.diff_z(i), [p.diff_t(ell) for ell in range(G.k)])


def apply_theta(G, ell, p):
    """Theta_l = sum_i <J_l z, e_i> d_{z_i}."""
    _check_group_poly(G, p)
    if not 0 <= ell < G.k:
        raise IndexOutOfRange(f"layer index {ell} outside 0..{G.k - 1}")
    result = Polynomial.zero(G.m, G.k, 2)
    for i in range(G.m):
        result = result + _jz_component(G, ell, i) * p.diff_z(i)
    return result


def sublaplacian(G, p):
    """Delta_H = sum_i X_i^2, exactly."""
    _check_group_poly(G, p)
    return sum(apply_X(G, i, apply_X(G, i, p)) for i in range(G.m))


def euler_Z(G, p):
    """Z = sum z_i d_{z_i} + 2 sum t_l d_{t_l}."""
    _check_group_poly(G, p)
    return euler(p)


def euler(p):
    """The Euler field of the dilations encoded in tweight: it multiplies
    z^a t^b by its degree |a| + tweight |b|."""
    return p._like({(a, b): c * (sum(a) + p.tweight * sum(b))
                    for (a, b), c in p.terms.items()})


def discrepancy_poly(G, p):
    """Numerator sum_l t_l Theta_l(p) of the discrepancy (H-type only).

    The discrepancy itself is this polynomial times 4 / rho^3.
    """
    G.require_htype("discrepancy_poly")
    _check_group_poly(G, p)
    result = Polynomial.zero(G.m, G.k, 2)
    for ell in range(G.k):
        result = result + Polynomial.t_var(G.m, G.k, ell) * apply_theta(G, ell, p)
    return result


# -- Baouendi operator (symbolic, integer alpha) ---------------------------


def baouendi_apply(spec, p):
    """B_alpha p = Delta_z p + (|z|^(2 alpha) / 4) Delta_t p, exact.

    Requires an integer alpha (`BaouendiSpec.tweight`) so that
    |z|^(2 alpha) is polynomial.
    """
    _check_calculus(spec, p)
    result = sum(p.diff_z(i).diff_z(i) for i in range(p.m))
    lap_t = sum(p.diff_t(ell).diff_t(ell) for ell in range(p.k))
    if not lap_t.is_zero():
        weight = Polynomial.z_norm_sq(p.m, p.k, p.tweight) ** (p.tweight - 1)
        result = result + weight * lap_t * Fraction(1, 4)
    return result


# -- solid harmonic bases --------------------------------------------------


def _monomials_of_degree(m, k, tweight, kappa):
    """All multi-indices (a, b) with |a| + tweight*|b| = kappa, lex sorted."""

    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for first in range(total, -1, -1):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest

    result = []
    for tdeg in range(kappa // tweight + 1):
        zdeg = kappa - tweight * tdeg
        if zdeg < 0:
            continue
        for a in compositions(zdeg, m):
            for b in compositions(tdeg, k):
                result.append((a, b))
    return sorted(result)


def solid_harmonic_quadratic(context):
    """|z|^(2w) - A |t|^2 with w = context.tweight, annihilated by
    context.laplacian (|z|^4 - A |t|^2 for Delta_H).  A is the exact ratio of
    the images of |z|^(2w) and |t|^2, derived, not hard-coded.  Raises
    ArithmeticError when they are not proportional or p is not annihilated.
    """
    w = context.tweight
    lead = Polynomial.z_norm_sq(context.m, context.k, w) ** w
    tnorm = Polynomial.t_norm_sq(context.m, context.k, w)
    img_lead, img_t = context.laplacian(lead), context.laplacian(tnorm)
    if img_lead.terms.keys() != img_t.terms.keys():
        raise ArithmeticError("images of the lead and of |t|^2 have different monomials")
    ratios = {c / img_t.terms[key] for key, c in img_lead.terms.items()}
    if len(ratios) != 1:
        raise ArithmeticError("images of the lead and of |t|^2 are not proportional")
    p = lead - tnorm * ratios.pop()
    if not context.laplacian(p).is_zero():
        raise ArithmeticError("lead - A |t|^2 is not annihilated")
    return p


def harmonic_basis(context, kappa):
    """Exact basis of delta-homogeneous degree-kappa polynomials p with
    context.laplacian p = 0 (Delta_H, or B_a of integer alpha), via rational
    kernel computation.

    Basis vectors have integer-cleared coefficients and a deterministic
    order (one vector per free column of the reduced operator matrix).
    """
    if kappa < 0:
        raise DimensionMismatch("kappa must be >= 0")
    m, k, w = context.m, context.k, context.tweight
    source = _monomials_of_degree(m, k, w, kappa)
    rows = {}  # one sparse row {column: coefficient} per monomial of the image
    for col, (a, b) in enumerate(source):
        image = context.laplacian(Polynomial.monomial(m, k, a, b, tweight=w))
        for key, c in image.terms.items():
            rows.setdefault(key, {})[col] = c
    kernel = exactla.kernel_basis(list(rows.values()), len(source))
    return [Polynomial(m, k, w, {source[i]: c for i, c in vec.items()}) for vec in kernel]
