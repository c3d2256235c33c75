"""Step-2 Carnot groups in exponential coordinates.

A group is specified by (m, k, J) where J is a list of k skew-symmetric
m x m matrices.  Points are pairs (z, t) with z in R^m (horizontal layer)
and t in R^k (vertical layer); the group law is

    (z, t) * (z', t')  =  (z + z', t_l + t'_l + <J_l z, z'> / 2),

dilations act as delta_lambda(z, t) = (lambda z, lambda^2 t), and the
homogeneous dimension is Q = m + 2k.
"""

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import exactla
from .constants import Geometry, gauge_constant
from .errors import (
    DimensionMismatch,
    NonPositiveLambda,
    NonSkewSymmetric,
    NotHType,
    OriginSingularity,
    ParseError,
)

METIVIER_SAMPLES_LOG2 = 13  # 2^13 Sobol points on the t-sphere for k > 2
METIVIER_TOL = 1e-9


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

    def __post_init__(self):
        object.__setattr__(self, "N", self.m + self.k)
        object.__setattr__(self, "Q", self.m + 2 * self.k)

    @cached_property
    def J_float(self):
        return np.array(self.J, dtype=float)

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

    def require_htype(self, what):
        if not self.classification["is_htype"]:
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
        mat = tuple(tuple(exactla.to_fraction(x) for x in row) for row in mat)
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
    """Exact check of J_l^T J_l' + J_l'^T J_l = 2 delta_{ll'} I."""
    m, k = G.m, G.k
    for l1 in range(k):
        for l2 in range(l1, k):
            target = Fraction(2) if l1 == l2 else Fraction(0)
            for i in range(m):
                for j in range(m):
                    s = sum(G.J[l1][r][i] * G.J[l2][r][j] + G.J[l2][r][i] * G.J[l1][r][j]
                            for r in range(m))
                    want = target if i == j else Fraction(0)
                    if s != want:
                        return False
    return True


def _is_metivier(G):
    """J(t) nonsingular for every t != 0.

    Exact for k <= 2 (determinant / real-root counting on the pencil);
    for k > 2 a documented 8,192-point (2^13) Sobol sample of the t-sphere
    is used, which is a one-sided certificate only.
    """
    if G.m % 2 == 1:
        return False  # odd skew-symmetric matrices are singular
    if G.k == 1:
        return exactla.det(G.J[0]) != 0
    if G.k == 2:
        if exactla.det(G.J[0]) == 0:
            return False
        import sympy

        x = sympy.Symbol("x")
        mat = sympy.Matrix(G.m, G.m, lambda i, j: sympy.Rational(G.J[0][i][j]) * x
                           + sympy.Rational(G.J[1][i][j]))
        p = sympy.Poly(mat.det(method="berkowitz"), x)
        if p.is_zero:
            return False
        return p.count_roots() == 0
    from scipy.stats import norm, qmc

    sob = qmc.Sobol(d=G.k, scramble=False)
    pts = sob.random_base2(METIVIER_SAMPLES_LOG2)
    pts = norm.ppf(np.clip(pts, 1e-12, 1 - 1e-12))
    norms = np.linalg.norm(pts, axis=1)
    good = norms > 1e-8
    pts = pts[good] / norms[good, None]
    jf = G.J_float
    min_sv = math.inf
    for t in pts:
        jt = np.tensordot(t, jf, axes=1)
        sv = np.linalg.svd(jt, compute_uv=False)[-1]
        min_sv = min(min_sv, sv)
    return bool(min_sv > METIVIER_TOL)


def classify(G):
    """Return {"is_htype": bool, "is_metivier": bool}."""
    return {"is_htype": _is_htype(G), "is_metivier": _is_metivier(G)}


def _check_point(G, g):
    if len(g.z) != G.m or len(g.t) != G.k:
        raise DimensionMismatch("point does not match group dimensions")


def group_product(G, g, h):
    """Group law: z'' = z + z', t''_l = t_l + t'_l + <J_l z, z'>/2."""
    _check_point(G, g)
    _check_point(G, h)
    z = tuple(a + b for a, b in zip(g.z, h.z))
    t = []
    for ell in range(G.k):
        jz_dot = sum(sum(G.J[ell][i][j] * g.z[j] for j in range(G.m)) * h.z[i]
                     for i in range(G.m))
        half = jz_dot / 2 if isinstance(jz_dot, (Fraction, float)) else Fraction(jz_dot, 2)
        t.append(g.t[ell] + h.t[ell] + half)
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


def gauge(G, g):
    """Koranyi-type gauge rho of G.geometry (H-type only)."""
    _check_point(G, g)
    return float(G.geometry.rho(g.z, g.t))


def horiz_gauge_grad_sq(G, g):
    """psi = |grad_H rho|^2 = (|z|^6 + 16 |J(t)z|^2) / rho^6.

    On H-type groups this reduces to |z|^2 / rho^2 exactly.
    """
    _check_point(G, g)
    z = np.array([float(a) for a in g.z])
    t = np.array([float(a) for a in g.t])
    z2 = float(z @ z)
    if z2 == 0.0 and not t.any():
        raise OriginSingularity("psi is undefined at the identity")
    jt = np.tensordot(t, G.J_float, axes=1)
    jtz = jt @ z
    rho6 = Geometry(G.m, G.k, 1.0).rho_power(z, t, 6.0)
    return (z2 ** 3 + 16.0 * float(jtz @ jtz)) / rho6


def fundamental_solution(G, g):
    """Gamma(g) = C * rho(g)^(2-Q); C is computed once per (m, k) and cached."""
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
    try:
        if isinstance(data, str):
            data = json.loads(data)
        return make_group(data["m"], data["k"], data["J"])
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        if isinstance(exc, (NonSkewSymmetric, DimensionMismatch)):
            raise
        raise ParseError(f"bad group spec: {exc}") from exc
