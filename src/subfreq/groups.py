"""Step-2 Carnot groups in exponential coordinates.

A group is specified by (m, k, J) where J is a list of k skew-symmetric
m x m matrices.  Points are pairs (z, t) with z in R^m (horizontal layer)
and t in R^k (vertical layer); the group law is

    (z, t) * (z', t')  =  (z + z', t_l + t'_l + <J_l z, z'> / 2),

dilations act as delta_lambda(z, t) = (lambda z, lambda^2 t), and the
homogeneous dimension is Q = m + 2k.
"""

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from itertools import combinations, islice, product
from math import prod

import numpy as np

from . import exactla
from .constants import Geometry, gauge_constant
from .errors import (
    DimensionMismatch,
    NonPositiveLambda,
    NonSkewSymmetric,
    NotHType,
    OriginSingularity,
    json_int,
    parsing,
)
from .polynomials import (
    Polynomial,
    _check_group_poly,
    _group_operators,
    _sum_of_squares,
    discrepancy_poly,
    sublaplacian,
)

METIVIER_SAMPLES_LOG2 = 13  # at most 2^13 integer points t in the sign test of Pf(J(t))


@dataclass(frozen=True)
class Point:
    """A group element in exponential coordinates."""

    z: tuple
    t: tuple


@dataclass(frozen=True)
class GroupSpec:
    """Immutable description of a step-2 Carnot group."""

    m: int
    k: int
    J: tuple  # k-tuple of m x m tuples of Fraction
    N: int = field(init=False)
    Q: int = field(init=False)
    tweight = 2  # layer weight of the polynomial calculus: t scales as lam^2

    def __post_init__(self):
        object.__setattr__(self, "N", self.m + self.k)
        object.__setattr__(self, "Q", self.m + 2 * self.k)

    @cached_property
    def J_float(self):
        return np.array(self.J, dtype=float)

    @cached_property
    def operators(self):
        """X_i, Theta_l, Z and the discrepancy numerator as exact operators,
        built once (`polynomials._group_operators`)."""
        return _group_operators(self)

    @cached_property
    def laplacian_operator(self):
        """Delta_H = sum_i X_i X_i as an exact operator, composed once."""
        return _sum_of_squares(self.operators.X)

    @cached_property
    def is_htype(self):
        return _is_htype(self)

    @cached_property
    def classification(self):
        return classify(self)

    @cached_property
    def geometry(self):
        """The gauge geometry (m, k, alpha = 1); H-type groups only."""
        self.require_htype("the gauge geometry")
        return Geometry(self.m, self.k, 1.0)

    def identity(self):
        return Point((0,) * self.m, (0,) * self.k)

    def laplacian(self, p):
        """The sub-Laplacian Delta_H p (`sublaplacian`), exactly."""
        return sublaplacian(self, p)

    def horizontal_grad_sq(self, dz, dt, z):
        """|grad_H u|^2 = sum_i (X_i u)^2 at the points z from the arrays of
        Euclidean partials dz = [d_{z_i} u] and dt = [d_{t_l} u] there, with
        X_i u = d_{z_i} u + (1/2) sum_l <J_l z, e_i> d_{t_l} u.  The exact
        form of a Polynomial is `carre_du_champ`."""
        total = 0
        for i in range(self.m):
            x_i = dz[i]
            for ell in range(self.k):
                x_i = x_i + 0.5 * (z @ self.J_float[ell, i]) * dt[ell]
            total = total + x_i * x_i
        return total

    def discrepancy(self, p):
        """Numerator of the discrepancy of the polynomial p (see
        `discrepancy_poly`); None when p is None or G is not of H-type."""
        if p is None or not self.is_htype:
            return None
        return discrepancy_poly(self, p)

    def require_htype(self, what):
        if not self.is_htype:
            raise NotHType(f"{what} requires a group of Heisenberg type")


def make_group(m, k, J):
    """Validate (m, k, J) and build a GroupSpec.

    Matrix entries may be ints, Fractions, "p/q" strings, or floats.
    """
    if m < 1 or k < 1:
        raise DimensionMismatch("m and k must be positive")
    if len(J) != k:
        raise DimensionMismatch(f"expected {k} matrices, got {len(J)}")
    mats = []
    for ell, mat in enumerate(J):
        if len(mat) != m or any(len(row) != m for row in mat):
            raise DimensionMismatch(f"J_{ell + 1} is not {m}x{m}")
        mat = tuple(tuple(exactla.to_fraction(x, f"J_{ell + 1}[{i}][{j}]")
                          for j, x in enumerate(row)) for i, row in enumerate(mat))
        for i in range(m):
            for j in range(m):
                if mat[i][j] != -mat[j][i]:
                    raise NonSkewSymmetric(f"J_{ell + 1} is not skew-symmetric")
        mats.append(mat)
    return GroupSpec(m=m, k=k, J=tuple(mats))


def heisenberg(n):
    """The Heisenberg group H^n: m = 2n, k = 1.

    Coordinates are interleaved pairs z = (x_1, y_1, ..., x_n, y_n) and the
    single J matrix is block-diagonal with 2x2 blocks [[0, -1], [1, 0]],
    so that Theta = sum_j (x_j d_{y_j} - y_j d_{x_j}).
    """
    if n < 1:
        raise DimensionMismatch("n must be >= 1")
    m = 2 * n
    mat = [[Fraction(0)] * m for _ in range(m)]
    for j in range(n):
        mat[2 * j][2 * j + 1] = Fraction(-1)
        mat[2 * j + 1][2 * j] = Fraction(1)
    return make_group(m, 1, [mat])


def example_group_6d():
    """The 6-dimensional H-type group with m=4, k=2 (Q=8)."""
    j1 = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
    j2 = [[0, 0, 1, 0], [0, 0, 0, -1], [-1, 0, 0, 0], [0, 1, 0, 0]]
    return make_group(4, 2, [j1, j2])


def example_group_metivier():
    """A 5-dimensional Metivier group that is not of Heisenberg type."""
    j = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -2], [0, 0, 2, 0]]
    return make_group(4, 1, [j])


def _is_htype(G):
    """Exact check of J_l^T J_l' + J_l'^T J_l = 2 delta_{ll'} I on the Python
    ints d J_l of `exactla.cleared`, where the right side is 2 d^2 delta_{ll'} I."""
    d, rows = exactla.cleared([row for mat in G.J for row in mat])
    J = np.array(rows, dtype=object).reshape(G.k, G.m, G.m)
    P = J.transpose(0, 2, 1)[:, None] @ J[None, :]  # P[l, l'] = J_l^T J_l'
    target = np.multiply.outer(np.eye(G.k, dtype=object), np.eye(G.m, dtype=object))
    return bool((P + P.transpose(1, 0, 2, 3) == 2 * d * d * target).all())


def _is_metivier(G):
    """J(t) = sum_l t_l J_l nonsingular for every t != 0, read off the form
    Pf(J(t)) of degree m/2 in t (det J(t) = Pf(J(t))^2).  Exact when Pf = 0
    (always for odd m), for k = 1, for k = 2 (Pf(1, 0) != 0 and a Sturm count
    of the real roots of Pf(x, 1), which an odd form always has) and for
    m = 4 (Sylvester's criterion on P, Pf = t^T P t).  Else a zero or both
    signs among Pf's values at the integer `_witness_points`, checked exactly
    at the least and the greatest, prove False; one sign answers True,
    unproven."""
    form, k, m = exactla.pfaffian_form(G.J), G.k, G.m
    if not form or k == 1:
        return bool(form)
    if k == 2:
        f = [form.get((i, m // 2 - i), Fraction(0)) for i in range(m // 2, -1, -1)]
        return f[0] != 0 and exactla.count_real_roots(f) == 0
    if m == 4:
        P = [[form.get(tuple((i == a) + (i == b) for i in range(k)), Fraction(0)) / (1 + (a != b))
              for b in range(k)] for a in range(k)]
        minors = [exactla.det([row[:j] for row in P[:j]]) for j in range(1, k + 1)]
        return (all(d > 0 for d in minors)
                or all((-1) ** j * d > 0 for j, d in enumerate(minors, 1)))
    low, high = (sum(c * prod(map(pow, t, e)) for e, c in form.items())
                 for t in _sign_witnesses(form, k))
    return low * high > 0


def _sign_witnesses(form, k):
    """The integer points of least and greatest value of `form`, evaluated
    in floats, among `_witness_points(k)`."""
    points = _witness_points(k)
    values = sum(float(c) * prod(points[:, l] ** p for l, p in enumerate(e) if p)
                 for e, c in form.items())
    return [[int(x) for x in points[i]] for i in (values.argmin(), values.argmax())]


@cache
def _witness_points(k):
    """The first 2^METIVIER_SAMPLES_LOG2 nonzero points of {-r, ..., r}^k in
    order of their number of nonzero entries, r >= 1 the largest radius whose
    cube has at most that many: {-9, ..., 9}^3 for k = 3, {-1, 0, 1}^k for
    6 <= k <= 8, and for k = 12 all points with at most three nonzero
    entries and some with four.  Read-only floats."""
    r = 1
    while (2 * r + 3) ** k <= 2 ** METIVIER_SAMPLES_LOG2 + 1:
        r += 1
    nonzero = [v for v in range(-r, r + 1) if v]
    points = ([dict(zip(support, vals)).get(l, 0) for l in range(k)]
              for n in range(1, k + 1) for support in combinations(range(k), n)
              for vals in product(nonzero, repeat=n))
    points = np.array(list(islice(points, 2 ** METIVIER_SAMPLES_LOG2)), dtype=float)
    points.flags.writeable = False
    return points


def classify(G):
    """Return {"is_htype": bool, "is_metivier": bool}.  An H-type group is
    Metivier by theorem: J(t)^T J(t) = |t|^2 I (Kaplan 1980)."""
    return {"is_htype": G.is_htype, "is_metivier": G.is_htype or _is_metivier(G)}


def _check_point(G, g):
    if len(g.z) != G.m or len(g.t) != G.k:
        raise DimensionMismatch("point does not match group dimensions")


def group_product(G, g, h):
    """Group law: z'' = z + z', t''_l = t_l + t'_l + <J_l z, z'>/2.  Exact on
    rational points, and on points whose coordinates are Polynomials."""
    _check_point(G, g)
    _check_point(G, h)
    z = tuple(a + b for a, b in zip(g.z, h.z))
    t = []
    for ell in range(G.k):
        jz_dot = sum(sum(G.J[ell][i][j] * g.z[j] for j in range(G.m)) * h.z[i]
                     for i in range(G.m))
        t.append(g.t[ell] + h.t[ell] + jz_dot * Fraction(1, 2))
    return Point(z, tuple(t))


def inverse(G, g):
    _check_point(G, g)
    return Point(tuple(-a for a in g.z), tuple(-a for a in g.t))


def dilate(G, lam, g):
    """Anisotropic dilation (z, t) -> (lam z, lam^2 t)."""
    if not lam > 0:
        raise NonPositiveLambda(f"lambda must be > 0, got {lam}")
    _check_point(G, g)
    return Point(tuple(lam * a for a in g.z), tuple(lam * lam * a for a in g.t))


def left_translate(G, p, g0):
    """p composed with the left translation h -> g0 * h, exactly.

    g0 must have rational (or integer) coordinates.
    """
    _check_group_poly(G, p)
    _check_point(G, g0)
    g0 = Point(tuple(exactla.to_fraction(x) for x in g0.z),
               tuple(exactla.to_fraction(x) for x in g0.t))
    h = Point(tuple(Polynomial.z_var(G.m, G.k, i) for i in range(G.m)),
              tuple(Polynomial.t_var(G.m, G.k, ell) for ell in range(G.k)))
    moved = group_product(G, g0, h)
    return p.substitute(moved.z, moved.t)


def gauge(G, g):
    """Koranyi-type gauge rho of G.geometry (H-type only)."""
    _check_point(G, g)
    return float(G.geometry.rho(g.z, g.t))


def fundamental_solution(G, g):
    """Gamma(g) = C * rho(g)^(2-Q) with C from `gauge_constant` (closed form)."""
    G.require_htype("fundamental_solution")
    rho = gauge(G, g)
    if rho == 0.0:
        raise OriginSingularity("fundamental solution has a pole at the identity")
    return gauge_constant(G.m, G.k, 1.0) * rho ** (2 - G.Q)


def group_to_json(G):
    return {"m": G.m, "k": G.k,
            "J": [[[str(x) if x.denominator != 1 else int(x) for x in row]
                   for row in mat] for mat in G.J]}


def group_from_json(data):
    with parsing("group spec"):
        if isinstance(data, str):
            data = json.loads(data)
        return make_group(json_int(data["m"], "m"), json_int(data["k"], "k"), data["J"])
