"""Exact rational polynomial calculus in exponential coordinates (z, t).

A monomial z^a t^b has the stratified degree |a| + w|b|, where the layer
weight w is 2 for step-2 groups and alpha+1 for the symbolic (integer-alpha)
Baouendi calculus.  A context (`GroupSpec`, `BaouendiSpec`) owns its
calculus, `tweight` and `laplacian` (Delta_H, B_a), and the solid harmonics
of both operators are built from these two.
"""

import json
from collections import namedtuple
from fractions import Fraction
from itertools import product
from math import comb, fsum, gcd, lcm, perm, prod
from operator import add, sub

import numpy as np

from . import exactla
from .constants import polar_moment
from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    IntegerOverflow,
    ParseError,
    json_int,
    parsing,
)


_ONE = Fraction(1)


def _unit(n, j, power=1):
    """The exponent tuple of length n with `power` at j and 0 elsewhere."""
    return (0,) * j + (power,) + (0,) * (n - j - 1)


def _index(i, n, offset, layer):
    """The flat variable index offset + i of variable i of a layer of n."""
    if not 0 <= i < n:
        raise IndexOutOfRange(f"{layer} index {i} outside 0..{n - 1}")
    return offset + i


# -- the integer form -------------------------------------------------------
#
# A Polynomial and an operator are both `content * sum_e n_e [e]`: a positive
# Fraction `content` times nonzero ints n_e keyed by the terms e, the n_e
# coprime.  The form is unique, so two are equal exactly when their contents
# and int dicts are, and the arithmetic multiplies ints and, once per result,
# the contents.


def _canonical(content, terms):
    """(content g, terms / g) for g the gcd of the nonzero ints of `terms`,
    zeros dropped: the canonical form of content * terms (content 1 for 0)."""
    if 0 in terms.values():
        terms = {key: n for key, n in terms.items() if n}
    g = gcd(*terms.values())
    if g > 1:
        terms, content = {key: n // g for key, n in terms.items()}, content * g
    return (content, terms) if terms else (_ONE, terms)


def _cleared(coeffs):
    """(1/d, d coeffs) for the Fraction values of coeffs, d the lcm of their
    denominators."""
    d = lcm(*(c.denominator for c in coeffs.values()))
    return Fraction(1, d), {key: c.numerator * (d // c.denominator) for key, c in coeffs.items()}


def _sum(parts):
    """(g, sum_i (c_i / g) terms_i) over the (content c_i, int terms_i) parts,
    g the gcd of the contents: the sum over one denominator."""
    parts = list(parts)
    num, den = gcd(*(c.numerator for c, _ in parts)), lcm(*(c.denominator for c, _ in parts))
    total = {}
    for c, terms in parts:
        scale = c.numerator // num * (den // c.denominator)
        for key, n in terms.items():
            total[key] = total[key] + scale * n if key in total else scale * n
    return Fraction(num, den), total


class Polynomial:
    """Immutable polynomial with exact rational coefficients.

    `terms` maps one exponent tuple, the m z-exponents then the k
    t-exponents, to a nonzero int, and the coefficient of the term is
    `content * terms[key]`: `content` is a positive Fraction and the ints
    are coprime (the module's integer form).  That format is private to this
    module: the constructor, `monomial`, `constant` and `from_json` read and
    validate (a, b) pairs with rational coefficients, and `_make` builds
    every computed result."""

    __slots__ = ("m", "k", "tweight", "content", "terms", "_series")

    def __init__(self, m, k, tweight, terms=None):
        coeffs = {}
        for (a, b), coeff in (terms or {}).items():
            if len(a) != m or len(b) != k:
                raise DimensionMismatch(f"exponents {a}, {b} are not {m} z and {k} t exponents")
            coeffs[tuple(a) + tuple(b)] = exactla.to_fraction(coeff)
        self.m, self.k, self.tweight, self._series = m, k, tweight, {}
        self.content, self.terms = _canonical(*_cleared(coeffs))

    @classmethod
    def _make(cls, m, k, tweight, content, terms):
        """The Polynomial content * terms of the terms {exponent tuple: int},
        unchecked, brought to the integer form."""
        p = cls.__new__(cls)
        p.m, p.k, p.tweight, p._series = m, k, tweight, {}
        p.content, p.terms = _canonical(content, terms)
        return p

    def _like(self, content, terms):
        return Polynomial._make(self.m, self.k, self.tweight, content, terms)

    def _constant(self, c):
        return self._like(Fraction(1, c.denominator), {(0,) * (self.m + self.k): c.numerator})

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, m, k, tweight=2):
        return cls._make(m, k, tweight, _ONE, {})

    @classmethod
    def constant(cls, m, k, c, tweight=2):
        return cls(m, k, tweight, {((0,) * m, (0,) * k): c})

    @classmethod
    def monomial(cls, m, k, a, b, coeff=1, tweight=2):
        return cls(m, k, tweight, {(tuple(a), tuple(b)): coeff})

    @classmethod
    def _power_sum(cls, m, k, tweight, variables, power):
        """sum_j x_j^power over the flat variable indices j (z first, then t)."""
        return cls._make(m, k, tweight, _ONE, {_unit(m + k, j, power): 1 for j in variables})

    @classmethod
    def z_var(cls, m, k, i, tweight=2):
        return cls._power_sum(m, k, tweight, [_index(i, m, 0, "z")], 1)

    @classmethod
    def t_var(cls, m, k, ell, tweight=2):
        return cls._power_sum(m, k, tweight, [_index(ell, k, m, "t")], 1)

    @classmethod
    def z_norm_sq(cls, m, k, tweight=2):
        return cls._power_sum(m, k, tweight, range(m), 2)

    @classmethod
    def t_norm_sq(cls, m, k, tweight=2):
        return cls._power_sum(m, k, tweight, range(m, m + k), 2)

    # -- basic algebra -----------------------------------------------------

    def _operand(self, other):
        """other as a Polynomial of this context: an int, Fraction or float
        (read by `exactla.to_fraction`, so 0.1 is 1/10) is a constant, and
        any other operand but a Polynomial raises TypeError."""
        if isinstance(other, (int, Fraction, float)):
            return self._constant(exactla.to_fraction(other))
        if not isinstance(other, Polynomial):
            raise TypeError(f"cannot combine a Polynomial with a {type(other).__name__}")
        if (self.m, self.k, self.tweight) != (other.m, other.k, other.tweight):
            raise DimensionMismatch("polynomial contexts differ")
        return other

    def __add__(self, other):
        other = self._operand(other)
        return self._like(*_sum([(self.content, self.terms), (other.content, other.terms)]))

    __radd__ = __add__

    def __neg__(self):
        return self._like(self.content, {key: -n for key, n in self.terms.items()})

    def __sub__(self, other):
        return self + -self._operand(other)

    def __mul__(self, other):
        other, terms = self._operand(other), {}
        for key1, n1 in self.terms.items():
            for key2, n2 in other.terms.items():
                key = tuple(map(add, key1, key2))
                terms[key] = terms[key] + n1 * n2 if key in terms else n1 * n2
        return self._like(self.content * other.content, terms)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
        result = self._constant(_ONE)
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return ((self.m, self.k, self.tweight, self.content)
                == (other.m, other.k, other.tweight, other.content) and self.terms == other.terms)

    def __hash__(self):
        return hash((self.m, self.k, self.tweight, self.content, frozenset(self.terms.items())))

    def is_zero(self):
        return not self.terms

    # -- calculus ----------------------------------------------------------

    def diff_z(self, i):
        return self._diff(_index(i, self.m, 0, "z"))

    def diff_t(self, ell):
        return self._diff(_index(ell, self.k, self.m, "t"))

    def _diff(self, j):
        """d/dx_j, x_j the flat variable j (distinct keys stay distinct)."""
        return self._like(self.content, {key[:j] + (key[j] - 1,) + key[j + 1:]: n * key[j]
                                         for key, n in self.terms.items() if key[j]})

    # -- evaluation and substitution ---------------------------------------

    def evaluate(self, z, t):
        """Evaluate at points; z has shape (..., m), t shape (..., k).  Terms
        are summed in key order, so equal Polynomials give equal floats."""
        z, t = np.asarray(z, dtype=float), np.asarray(t, dtype=float)
        xs = [z[..., i] for i in range(self.m)] + [t[..., ell] for ell in range(self.k)]
        num, den = self.content.numerator, self.content.denominator
        out = np.zeros(z.shape[:-1], dtype=float)
        for key, n in sorted(self.terms.items()):
            term = np.full(z.shape[:-1], n * num / den)  # the float of the coefficient
            for x, p in zip(xs, key):
                if p:
                    term = term * x ** p
            out += term
        return out

    def __call__(self, z, t):
        return self.evaluate(z, t)

    def sphere_series(self, alpha, e):
        """Powers d and coefficients c_d with
        int_{S_1} p(lam z, lam^(alpha+1) t) s^e dmu = sum_d c_d lam^d for the
        raw polar measure dmu of the geometry (m, k, alpha): each monomial
        z^a t^b has dilation degree |a| + (alpha+1)|b| and moment
        `polar_moment(m, k, alpha, e, a, b)`.  Each c_d is a correctly rounded
        `math.fsum` and the d come sorted, so equal Polynomials give equal
        floats whatever their term order.  Built once per (alpha, e)."""
        key = (alpha, e)
        if key not in self._series:
            parts, num, den = {}, self.content.numerator, self.content.denominator
            for exps, n in self.terms.items():
                a, b = exps[:self.m], exps[self.m:]
                moment = polar_moment(self.m, self.k, alpha, e, a, b)
                if moment:
                    parts.setdefault(sum(a) + (alpha + 1.0) * sum(b), []).append(
                        n * num / den * moment)
            degrees = sorted(parts)
            self._series[key] = (np.array(degrees, dtype=float),
                                 np.array([fsum(parts[d]) for d in degrees], dtype=float))
        return self._series[key]

    def substitute(self, z_subs, t_subs):
        """Substitute polynomials for each variable: m for z, k for t."""
        z_subs, t_subs = list(z_subs), list(t_subs)
        if (len(z_subs), len(t_subs)) != (self.m, self.k):
            raise DimensionMismatch(f"substitute takes {self.m} z and {self.k} t polynomials, "
                                    f"got {len(z_subs)} and {len(t_subs)}")
        subs = z_subs + t_subs
        result = self._like(_ONE, {})
        for key, n in self.terms.items():
            prod = self._constant(self.content * n)
            for s, p in zip(subs, key):
                if p:
                    prod = prod * (s ** p)
            result = result + prod
        return result

    # -- serialization -----------------------------------------------------

    def to_json(self):
        # an int content writes str(int), the text of the Fraction
        c = self.content.numerator if self.content.denominator == 1 else self.content
        return [{"coeff": str(c * n), "z": list(key[:self.m]), "t": list(key[self.m:])}
                for key, n in sorted(self.terms.items())]

    @classmethod
    def from_json(cls, data, m=None, k=None, tweight=2):
        with parsing("polynomial data"):
            if isinstance(data, str):
                data = json.loads(data)
            terms = {}
            for n, item in enumerate(data):
                a = tuple(json_int(x, "a z exponent", 0) for x in item["z"])
                b = tuple(json_int(x, "a t exponent", 0) for x in item["t"])
                if m is None:
                    m, k = len(a), len(b)
                c = exactla.to_fraction(item["coeff"], f"the coeff of term {n}")
                terms[a, b] = terms.get((a, b), Fraction(0)) + c
            if m is None:
                raise ParseError("empty polynomial file needs explicit dimensions")
            return cls(m, k, tweight, terms)

    def __repr__(self):
        if not self.terms:
            return "Polynomial(0)"
        names = [f"z{i + 1}" for i in range(self.m)] + [f"t{l + 1}" for l in range(self.k)]
        bits = []
        for key, n in sorted(self.terms.items()):
            vars_ = "".join(f"{x}^{p}" if p != 1 else x for x, p in zip(names, key) if p)
            bits.append(f"{self.content * n}{'*' if vars_ else ''}{vars_}")
        return "Polynomial(" + " + ".join(bits) + ")"


def json_lines(polys):
    """The text json.dumps(p.to_json()) of each Polynomial p of polys, byte
    for byte: each exponent tuple's `", "z": [...], "t": [...]}` text is
    built once per call (per m) and shared, so a term costs the str of its
    coefficient and two concatenations."""
    tails, lines = {}, []
    for p in polys:
        c = p.content.numerator if p.content.denominator == 1 else p.content
        shared, m, parts = tails.setdefault(p.m, {}), p.m, []
        for key, n in sorted(p.terms.items()):
            tail = shared.get(key)
            if tail is None:
                tail = shared[key] = f'", "z": {list(key[:m])}, "t": {list(key[m:])}}}'
            parts.append('{"coeff": "' + str(c * n) + tail)
        lines.append("[" + ", ".join(parts) + "]")
    return lines


def _check_calculus(context, p):
    """DimensionMismatch unless p has the context's (m, k) and `tweight`."""
    if (p.m, p.k, p.tweight) != (context.m, context.k, context.tweight):
        raise DimensionMismatch(f"polynomial does not match the {type(context).__name__}")


# -- operators as data ------------------------------------------------------
#
# A linear differential operator with polynomial coefficients is an
# `_Operator`, the integer form of its terms content n x^a d^b: a and b are
# exponent tuples of the flat variables (z first, then t).  The x^a d^b are a
# basis of these operators, so two operators are equal exactly when their
# forms are.  A context builds its operators once, on first use
# (`laplacian_operator`, and a group's `operators`).

_Operator = namedtuple("_Operator", "content terms")
_Operators = namedtuple("_Operators", "X theta Z discrepancy")


def _operator(coeffs):
    """The operator of the terms {(a, b): Fraction}."""
    return _Operator(*_canonical(*_cleared(coeffs)))


def _op_sum(ops):
    """The sum of the operators, over one denominator."""
    return _Operator(*_canonical(*_sum(ops)))


def _compose(p, q, leading=True):
    """The composition p q (q applied first), by Leibniz:
    d^b x^a = sum_{g <= b} C(b, g) a!/(a-g)! x^(a-g) d^(b-g).  Without the
    `leading` g = 0 terms x^(a1+a2) d^(b1+b2), which p q and q p share."""
    terms = {}
    for (a1, b1), n1 in p.terms.items():
        for (a2, b2), n2 in q.terms.items():
            a, b, n12 = tuple(map(add, a1, a2)), tuple(map(add, b1, b2)), n1 * n2
            gs = product(*[range(min(x, y) + 1) for x, y in zip(b1, a2)])
            if not leading:
                next(gs)
            for g in gs:
                n = n12 * prod(map(comb, b1, g)) * prod(map(perm, a2, g))
                key = (tuple(map(sub, a, g)), tuple(map(sub, b, g)))
                terms[key] = terms[key] + n if key in terms else n
    return _Operator(*_canonical(p.content * q.content, terms))


def _apply(op, p):
    """op p in closed form: n x^a d^b maps the monomial x^e to
    n e!/(e-b)! x^(e-b+a), with the falling factorials `math.perm`."""
    terms = {}
    for (a, b), n in op.terms.items():
        for e, ne in p.terms.items():
            f = prod(map(perm, e, b))
            if f:
                key = tuple(map(add, map(sub, e, b), a))
                terms[key] = terms[key] + n * ne * f if key in terms else n * ne * f
    return p._like(op.content * p.content, terms)


def _group_operators(G):
    """The operators of G: X_i = d_{z_i} + (1/2) sum_l <J_l z, e_i> d_{t_l},
    Theta_l = sum_i <J_l z, e_i> d_{z_i}, Z = sum_i z_i d_{z_i}
    + 2 sum_l t_l d_{t_l} and the discrepancy numerator sum_l t_l Theta_l."""
    n, m, k = G.N, G.m, G.k
    jz = [[{a: p.content * c for a, c in p.terms.items()}
           for p in (_jz_component(G, ell, i) for i in range(m))] for ell in range(k)]
    X = [{((0,) * n, _unit(n, i)): _ONE}
         | {(a, _unit(n, m + ell)): c / 2 for ell in range(k) for a, c in jz[ell][i].items()}
         for i in range(m)]
    theta = [{(a, _unit(n, i)): c for i in range(m) for a, c in jz[ell][i].items()}
             for ell in range(k)]
    Z = {(_unit(n, j), _unit(n, j)): Fraction(1 if j < m else G.tweight) for j in range(n)}
    disc = {(tuple(map(add, a, _unit(n, m + ell))), b): c
            for ell in range(k) for (a, b), c in theta[ell].items()}
    return _Operators([*map(_operator, X)], [*map(_operator, theta)], _operator(Z),
                      _operator(disc))


def _sum_of_squares(fields):
    """sum_i X_i X_i of the operators X_i: Delta_H of a group's fields."""
    return _op_sum(_compose(x, x) for x in fields)


def commutator_identities(G):
    """Whether the operators of G satisfy [X_i, Z] = X_i, [Delta_H, Z] =
    2 Delta_H and [X_i, X_j] = sum_l <J_l e_i, e_j> d_{t_l}: identities of
    operators, so they hold for every polynomial at once."""
    ops, lap, n, m = G.operators, G.laplacian_operator, G.N, G.m

    def bracket(p, q):
        qp = _compose(q, p, leading=False)
        return _op_sum([_compose(p, q, leading=False),
                        (qp.content, {key: -c for key, c in qp.terms.items()})])

    def centre(i, j):
        return _operator({((0,) * n, _unit(n, m + ell)): mat[j][i] for ell, mat in enumerate(G.J)})

    return (all(bracket(x, ops.Z) == x for x in ops.X)
            and bracket(lap, ops.Z) == lap._replace(content=2 * lap.content)
            and all(bracket(ops.X[i], ops.X[j]) == centre(i, j)
                    for i in range(m) for j in range(i + 1, m)))


# -- group vector fields ---------------------------------------------------


def _check_group_poly(G, p):
    if not hasattr(G, "J"):
        raise DimensionMismatch(f"{type(G).__name__} has no group law")
    _check_calculus(G, p)


def _jz_component(G, ell, i):
    """<J_l z, e_i> as a polynomial (degree 1 in z)."""
    return Polynomial._make(G.m, G.k, 2, *_cleared({_unit(G.N, j): c
                                                    for j, c in enumerate(G.J[ell][i])}))


def apply_X(G, i, p):
    """X_i p, exactly (G's operator X_i)."""
    _check_group_poly(G, p)
    if not 0 <= i < G.m:
        raise IndexOutOfRange(f"field index {i} outside 0..{G.m - 1}")
    return _apply(G.operators.X[i], p)


def apply_theta(G, ell, p):
    """Theta_l = sum_i <J_l z, e_i> d_{z_i}."""
    _check_group_poly(G, p)
    if not 0 <= ell < G.k:
        raise IndexOutOfRange(f"layer index {ell} outside 0..{G.k - 1}")
    return _apply(G.operators.theta[ell], p)


def sublaplacian(G, p):
    """Delta_H = sum_i X_i^2, exactly."""
    _check_group_poly(G, p)
    return _apply(G.laplacian_operator, p)


def euler_Z(G, p):
    """Z = sum z_i d_{z_i} + 2 sum t_l d_{t_l}."""
    _check_group_poly(G, p)
    return _apply(G.operators.Z, p)


def euler(p):
    """The Euler field of the dilations encoded in tweight: it multiplies
    z^a t^b by its degree |a| + tweight |b| (a Fraction for a real tweight),
    here d |a| + n |b| over d for tweight = n / d."""
    m, w = p.m, exactla.to_fraction(p.tweight)
    wn, wd = w.numerator, w.denominator
    return p._like(p.content / wd, {key: n * (wd * sum(key[:m]) + wn * sum(key[m:]))
                                    for key, n in p.terms.items()})


def discrepancy_poly(G, p):
    """Numerator sum_l t_l Theta_l(p) of the discrepancy (H-type only).

    The discrepancy itself is this polynomial times 4 / rho^3.
    """
    G.require_htype("discrepancy_poly")
    _check_group_poly(G, p)
    return _apply(G.operators.discrepancy, p)


# -- Baouendi operator (symbolic, integer alpha) ---------------------------


def _baouendi_operator(spec):
    """B_a = sum_i d_{z_i}^2 + (|z|^(2 alpha) / 4) sum_l d_{t_l}^2 as an
    operator, for an integer alpha = w - 1 (`BaouendiSpec.tweight`)."""
    n, m, k, w = spec.N, spec.m, spec.k, spec.tweight
    coeff = Polynomial.z_norm_sq(m, k, w) ** (w - 1)
    return _operator({((0,) * n, _unit(n, i, 2)): _ONE for i in range(m)}
                     | {(a, _unit(n, m + ell, 2)): coeff.content * c / 4
                        for ell in range(k) for a, c in coeff.terms.items()})


def baouendi_apply(spec, p):
    """B_alpha p = Delta_z p + (|z|^(2 alpha) / 4) Delta_t p, exact.

    Requires an integer alpha (`BaouendiSpec.tweight`) so that
    |z|^(2 alpha) / 4 is polynomial.
    """
    _check_calculus(spec, p)
    return _apply(spec.laplacian_operator, p)


def carre_du_champ(context, p):
    """|grad_H p|^2 = (L(p^2) - 2 p L p) / 2 with L = context.laplacian, the
    carre du champ of a sum of squares: sum_i (X_i p)^2 for Delta_H =
    sum_i X_i^2, |d_z p|^2 + (|z|^(2 alpha) / 4) |d_t p|^2 for B_a.  As the
    bilinear form sum_j d_j p R_j p: R_j = sum c x^a d^(b - e_j) over the
    second-order terms c x^a d^b of L whose first derivative is j."""
    _check_calculus(context, p)
    op, split = context.laplacian_operator, {}
    for (a, b), n in op.terms.items():
        if sum(b) == 2:
            j = next(i for i, x in enumerate(b) if x)
            split.setdefault(j, {})[a, b[:j] + (b[j] - 1,) + b[j + 1:]] = n
    parts = [p._diff(j) * _apply(_Operator(op.content, r), p) for j, r in split.items()]
    return p._like(*_sum((q.content, q.terms) for q in parts))


# -- solid harmonic bases --------------------------------------------------


def _compositions(total, parts):
    """Every tuple of `parts` non-negative integers summing to `total`, first
    entry descending."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _monomials_of_degree(m, k, tweight, kappa):
    """All multi-indices (a, b) with |a| + tweight*|b| = kappa, lex sorted."""
    result = []
    for tdeg in range(kappa // tweight + 1):
        zdeg = kappa - tweight * tdeg
        for a in _compositions(zdeg, m):
            for b in _compositions(tdeg, k):
                result.append((a, b))
    return sorted(result)


def solid_harmonic_quadratic(context):
    """|z|^(2w) - A |t|^2 with w = context.tweight, annihilated by
    context.laplacian (|z|^4 - A |t|^2 for Delta_H).  A is the exact ratio of
    the images of |z|^(2w) and |t|^2, derived, not hard-coded.  Raises
    ArithmeticError when they are not proportional.
    """
    w = context.tweight
    lead = Polynomial.z_norm_sq(context.m, context.k, w) ** w
    tnorm = Polynomial.t_norm_sq(context.m, context.k, w)
    img_lead, img_t = context.laplacian(lead), context.laplacian(tnorm)
    if img_lead.terms.keys() != img_t.terms.keys():
        raise ArithmeticError("images of the lead and of |t|^2 have different monomials")
    ratios = {Fraction(n, img_t.terms[key]) for key, n in img_lead.terms.items()}
    if len(ratios) != 1:
        raise ArithmeticError("images of the lead and of |t|^2 are not proportional")
    return lead - tnorm * (ratios.pop() * img_lead.content / img_t.content)


def _operator_matrix(op, source):
    """The int64 matrix of scale * op on the monomials x^e, e the rows of
    `source`, and its rows' exponents (sorted) and scale, the lcm of op's
    denominators (the denominator of its content, since its ints are
    coprime): n x^a d^b adds n content scale e!/(e-b)! at the row of
    x^(e-b+a).  Raises IntegerOverflow when an entry could leave int64."""
    scale, factor = op.content.denominator, op.content.numerator
    top = source.max(axis=0, initial=0).tolist()
    if sum(abs(n * factor) * prod(map(perm, top, b)) for (_, b), n in op.terms.items()) >= 2 ** 62:
        raise IntegerOverflow("the operator matrix has entries beyond int64")
    keys, cols, values = [], [], []
    for (a, b), n in op.terms.items():
        value = np.full(len(source), n * factor, dtype=np.int64)
        for j, power in enumerate(b):
            for i in range(power):
                value *= source[:, j] - i
        hit = np.flatnonzero(value)
        keys.append(source[hit] + (np.array(a) - b))
        cols.append(hit)
        values.append(value[hit])
    keys = np.concatenate(keys)
    order = np.lexsort(keys.T[::-1])  # the rows in lexicographic order
    first = np.ones(len(keys), dtype=bool)  # a row unlike the one before it
    first[1:] = (keys[order[1:]] != keys[order[:-1]]).any(axis=1)
    targets, rows = keys[order[first]], np.empty(len(keys), dtype=np.intp)
    rows[order] = np.cumsum(first) - 1
    matrix = np.zeros((len(targets), len(source)), dtype=np.int64)
    np.add.at(matrix, (rows, np.concatenate(cols)), np.concatenate(values))
    return matrix, targets, scale


def harmonic_basis(context, kappa):
    """Exact basis of delta-homogeneous degree-kappa polynomials p with
    context.laplacian p = 0 (Delta_H, or B_a of integer alpha): the
    certified modular kernel (`exactla.kernel_basis`) of the integer matrix
    of context.laplacian_operator on the monomials of degree kappa.

    Basis vectors are the kernel's primitive int vectors, with content 1,
    in a deterministic order (one vector per free column of the reduced
    operator matrix).
    """
    if kappa < 0:
        raise DimensionMismatch("kappa must be >= 0")
    m, k, w = context.m, context.k, context.tweight
    source = [a + b for a, b in _monomials_of_degree(m, k, w, kappa)]
    matrix, _, _ = _operator_matrix(context.laplacian_operator, np.array(source, dtype=np.int64))
    kernel = exactla.kernel_basis(matrix, len(source))
    return [Polynomial._make(m, k, w, _ONE, {source[i]: n for i, n in vec.items()})
            for vec in kernel]
