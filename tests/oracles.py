"""Independent oracles and fixtures used only by the tests.

Each oracle computes a quantity that `subfreq` also computes, by a route
that shares as little as possible with it: Monte-Carlo estimates instead
of the polar rule and the closed-form moments, sympy's dense rank and
sympy's null space (`kernel_basis_sympy`, and `harmonic_basis_sympy` from
one `_apply` per monomial) and the Cauchy-data recursion with no kernel at
all (`harmonic_basis_by_cauchy_data`) instead of `exactla`'s modular
kernel, Pfaffians summed over perfect matchings (`pfaffian_at`) instead of
`exactla.pfaffian_form`'s memoised row expansion, psi at
arbitrary points from the gauge formula (`psi`) and through the structure
matrices J (`horiz_gauge_grad_sq`) where the package knows it only at the
rule's nodes and by its closed-form moments, and
dilations by substitution instead of the Euler operator, the
sub-Laplacian, `B_a`, the fields `X_i` and the discrepancy by Polynomial
products (`sublaplacian_by_contraction`, `baouendi_by_products`,
`horizontal_field_by_products`, `discrepancy_by_products`) instead of the
cached operators, |grad_H p|^2 from the fields or the partials
(`grad_sq_by_fields`, `grad_sq_by_partials`) instead of the carre du champ
of the operator, radial
derivatives by finite differences (`log_grid_derivative`) instead of the
dilation's exact d/dr, and handles of black-box functions whose jet
takes central-difference partials (`callable_handle`) where the package
builds every handle from the jet of a polynomial or of an FD solution,
Gauss-Jacobi rules at 40 digits (`gauss_jacobi_mp`, mpmath) and from
scipy (`gauss_jacobi_scipy`) instead of the package's numpy rule, the FD
scheme and the collocation scheme assembled as sparse matrices and solved
directly (`fd_sparse_solution`, `collocation_sparse_solution`, the latter
from barycentric differentiation matrices on any nodes) instead of the
solver's fast diagonalisation, and an exact non-polynomial B_a-harmonic
function, the fundamental solution moved to a pole outside the box
(`pole_solution`).
"""

import math
from fractions import Fraction
from math import gcd

import mpmath
import numpy as np
import sympy
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

from subfreq.constants import Geometry, sphere_area
from subfreq.errors import OriginSingularity
from subfreq.fixtures import poly_t, poly_x, poly_y
from subfreq.frequency import FunctionHandle
from subfreq.groups import _check_point, make_group
from subfreq.polynomials import (
    Polynomial,
    _apply,
    _cleared,
    _monomials_of_degree,
    apply_X,
    sublaplacian,
)


FD_STEP = 1e-5


def coefficients(p):
    """The coefficient of each term of the Polynomial p, {exponent tuple: Fraction}."""
    return {key: p.content * n for key, n in p.terms.items()}


class InsufficientSamples(ValueError):
    """Monte-Carlo estimate requested with too few (effective) samples."""


def mc_thin_shell(f, r, shell_half_width, samples, seed, rule, weighted=True):
    """Monte-Carlo estimate of `surface_integral(f, r, rule, weighted)` via a
    thin gauge shell.

    Samples uniformly from a bounding box of B_(r+h), keeps points whose
    gauge lies in (r-h, r+h), and normalizes by the shell thickness 2h.
    Only the calibration factor gamma is shared with the polar rule.
    Returns {"value", "stderr", "hits"}.
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
        vals = vals * psi(geometry, z[inside], t[inside])
    contrib[inside] = vals
    scale = rule.gamma * box_vol / (2.0 * h)
    value = scale * float(contrib.mean())
    stderr = scale * float(contrib.std(ddof=1)) / math.sqrt(samples)
    return {"value": value, "stderr": stderr, "hits": int(inside.sum())}


def gauge_constant_mc(m, k, alpha=1.0, samples=200_000, seed=0):
    """Monte-Carlo estimate of the constant C of Gamma = C rho_a^(2-Q) from
    its defining integral (`subfreq.constants`); returns (value, stderr).

    The integral, reduced to the radial variables |z| and |t|, is sampled
    by importance: both are drawn from independent half-Cauchy
    distributions, which have the right algebraic tails.
    """
    if samples < 1000:
        raise InsufficientSamples(f"need >= 1000 samples, got {samples}")
    rng = np.random.Generator(np.random.Philox(seed))
    u1 = rng.random(samples)
    u2 = rng.random(samples)
    a_r = np.tan(0.5 * math.pi * u1)
    b_r = np.tan(0.5 * math.pi * u2)
    pdf = (2.0 / math.pi / (1.0 + a_r ** 2)) * (2.0 / math.pi / (1.0 + b_r ** 2))
    q = m + (alpha + 1.0) * k
    power = (q + 2.0 * alpha) / (2.0 * (alpha + 1.0))
    base = (a_r ** (alpha + 1.0) + 1.0) ** 2 + 4.0 * (alpha + 1.0) ** 2 * b_r ** 2
    vals = a_r ** (m + alpha - 2.0) * b_r ** (k - 1.0) / base ** power / pdf
    vals *= sphere_area(m) * sphere_area(k)
    integral = float(vals.mean())
    ierr = float(vals.std(ddof=1) / math.sqrt(samples))
    factor = (m + alpha - 1.0) * (q - 2.0)
    value = 1.0 / (factor * integral)
    # first-order error propagation through the reciprocal
    stderr = ierr / (factor * integral ** 2)
    return value, stderr


def rank(rows):
    """Exact rank of a list of rational rows, by sympy's dense Matrix."""
    return sympy.Matrix(rows).rank() if rows else 0


def kernel_basis_sympy(rows, ncols):
    """`exactla.kernel_basis` by sympy: the null space over ZZ of the sparse
    rational rows {column: entry}, each cleared of denominators, as sparse
    primitive integer vectors {column: int}, one per free column in
    increasing order, each with its first nonzero entry positive."""
    elements = {i: {j: QQ(x.numerator, x.denominator) for j, x in row.items() if x}
                for i, row in enumerate(rows)}
    matrix = DomainMatrix({i: row for i, row in elements.items() if row},
                          (max(len(rows), 1), ncols), QQ)
    _, numerators = matrix.clear_denoms_rowwise(convert=True)
    basis = []
    for _, vec in sorted(numerators.nullspace().to_sdm().items()):
        entries = sorted((j, int(x)) for j, x in vec.items())
        g = gcd(*(x for _, x in entries)) * (1 if entries[0][1] > 0 else -1)
        basis.append({j: x // g for j, x in entries})
    return basis


def harmonic_basis_sympy(context, kappa):
    """`harmonic_basis` with the operator applied to one monomial at a time
    (`_apply`) and sympy's kernel (`kernel_basis_sympy`)."""
    m, k, w = context.m, context.k, context.tweight
    source = [a + b for a, b in _monomials_of_degree(m, k, w, kappa)]
    rows = {}
    for col, key in enumerate(source):
        image = _apply(context.laplacian_operator, Polynomial._make(m, k, w, Fraction(1), {key: 1}))
        for image_key, c in coefficients(image).items():
            rows.setdefault(image_key, {})[col] = c
    kernel = kernel_basis_sympy(list(rows.values()), len(source))
    return [Polynomial._make(m, k, w, Fraction(1), {source[i]: c for i, c in vec.items()})
            for vec in kernel]


def harmonic_basis_by_cauchy_data(context, kappa):
    """`harmonic_basis` without a kernel.  With s the last z-coordinate, the
    operator L (Delta_H or B_a) is d_{z_s}^2 plus terms that lower the power
    of z_s by at most one, so a harmonic p = sum_j z_s^j p_j of degree kappa
    is fixed by its Cauchy data p_0, p_1: starting from one monomial of the
    data, the lowest power z_s^j of L p is cancelled by adding
    -z_s^(j+2) / ((j+1)(j+2)) times its coefficient, until L p = 0.  These
    harmonics are reduced from the right (Gauss-Jordan, pivots from the
    last monomial of degree kappa down), which leaves the unique basis whose
    vectors end at distinct monomials that vanish in the others: the
    kernel's vectors, one per free column.  Each is scaled to coprime
    integers with its first entry positive, in increasing pivot order."""
    m, k, w, s = context.m, context.k, context.tweight, context.m - 1
    source = [a + b for a, b in _monomials_of_degree(m, k, w, kappa)]
    column = {key: j for j, key in enumerate(source)}
    rows = []
    for key in source:
        if key[s] > 1:
            continue
        p = {key: Fraction(1)}
        while image := coefficients(context.laplacian(Polynomial._make(m, k, w, *_cleared(p)))):
            j = min(e[s] for e in image)
            for e, c in image.items():
                if e[s] == j:
                    up = e[:s] + (j + 2,) + e[s + 1:]
                    p[up] = p.get(up, 0) - c / ((j + 1) * (j + 2))
        rows.append({column[e]: c for e, c in p.items() if c})
    reduced = {}
    for col in reversed(range(len(source))):
        pivot = next((row for row in rows if col in row), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        pivot = {j: c / pivot[col] for j, c in pivot.items()}
        for row in rows + list(reduced.values()):
            if col in row:
                factor = row[col]
                for j, c in pivot.items():
                    row[j] = row.get(j, 0) - factor * c
                    if not row[j]:
                        del row[j]
        reduced[col] = pivot
    basis = []
    for col in sorted(reduced):
        vec = sorted(reduced[col].items())
        scale = math.lcm(*(c.denominator for _, c in vec))
        ints = [(j, int(c * scale)) for j, c in vec]
        g = gcd(*(x for _, x in ints)) * (1 if ints[0][1] > 0 else -1)
        basis.append(Polynomial._make(m, k, w, Fraction(1), {source[j]: x // g for j, x in ints}))
    return basis


def in_span(p, basis):
    """Exact membership of the Polynomial p in the rational span of basis."""
    keys = sorted({key for q in basis for key in q.terms} | set(p.terms))
    index = {key: i for i, key in enumerate(keys)}
    rows = []
    for q in basis + [p]:
        row = [Fraction(0)] * len(keys)
        for key, c in coefficients(q).items():
            row[index[key]] = c
        rows.append(row)
    return rank(rows) == rank(rows[:-1])


def psi(geometry, z, t):
    """The weight |grad rho|^2 = |z|^(2a) / rho^(2a) of the geometry at the
    points (z, t), from the gauge formula; undefined at the origin.  The
    package knows psi only at the rule's nodes (`SphereRule.psi`) and
    through the closed-form moments."""
    rho2a = geometry.rho_power(z, t, 2.0 * geometry.alpha)
    if np.any(rho2a == 0.0):
        raise OriginSingularity("psi is undefined at the origin")
    return np.sum(np.asarray(z, dtype=float) ** 2, axis=-1) ** geometry.alpha / rho2a


def horiz_gauge_grad_sq(G, g):
    """psi = |grad_H rho|^2 = (|z|^6 + 16 |J(t)z|^2) / rho^6 at the point g,
    through the structure matrices J: valid on every step-2 group, and equal
    to |z|^2 / rho^2 on H-type groups."""
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


def pfaffian_at(G, t):
    """Pf(J(t)) at a rational point t from its definition: the sum over the
    perfect matchings M of {0, ..., m-1} of (-1)^(crossings of M) times
    prod_{(i, j) in M} J(t)_ij, with no form in t and no alternating signs."""
    a = [[sum(Fraction(x) * mat[i][j] for x, mat in zip(t, G.J)) for j in range(G.m)]
         for i in range(G.m)]
    total = Fraction(0)
    for match in _perfect_matchings(tuple(range(G.m))):
        crossings = sum(i < p < j < q for i, j in match for p, q in match)
        total += (-1) ** crossings * math.prod(a[i][j] for i, j in match)
    return total


def _perfect_matchings(free):
    if not free:
        yield ()
    for j in free[1:]:
        for rest in _perfect_matchings(tuple(x for x in free[1:] if x != j)):
            yield ((free[0], j),) + rest


def random_polynomial(rng, m, k, tweight=2, max_degree=5, n_terms=6):
    """Random sparse polynomial with small integer coefficients."""
    terms = {}
    for _ in range(n_terms):
        a = tuple(int(rng.integers(0, max_degree + 1)) for _ in range(m))
        b = tuple(int(rng.integers(0, max_degree // tweight + 1)) for _ in range(k))
        coeff = int(rng.integers(-9, 10))
        if coeff:
            terms[(a, b)] = terms.get((a, b), 0) + coeff
    return Polynomial(m, k, tweight, terms)


def _jz(G):
    """The polynomials <J_l z, e_i>, indexed [l][i]."""
    zero = Polynomial.zero(G.m, G.k)
    return [[sum((Polynomial.z_var(G.m, G.k, j) * Fraction(G.J[ell][i][j])
                  for j in range(G.m)), zero) for i in range(G.m)] for ell in range(G.k)]


def sublaplacian_by_contraction(G, p):
    """Delta_z + (1/4) sum <J_l z, J_l' z> d_{t_l} d_{t_l'} + sum d_{t_l} Theta_l,
    with Theta_l = sum_i <J_l z, e_i> d_{z_i}: Delta_H expanded by hand."""
    zero = Polynomial.zero(G.m, G.k)
    jz = _jz(G)
    result = sum((p.diff_z(i).diff_z(i) for i in range(G.m)), zero)
    for l1 in range(G.k):
        for l2 in range(G.k):
            inner = sum((jz[l1][i] * jz[l2][i] for i in range(G.m)), zero)
            result = result + inner * p.diff_t(l1).diff_t(l2) * Fraction(1, 4)
        result = result + sum((jz[l1][i] * p.diff_t(l1).diff_z(i) for i in range(G.m)), zero)
    return result


def baouendi_by_products(alpha, p):
    """Delta_z p + (|z|^(2 alpha) / 4) Delta_t p for an integer alpha, by
    Polynomial products."""
    zero = Polynomial.zero(p.m, p.k, p.tweight)
    zn = Polynomial.z_norm_sq(p.m, p.k, p.tweight)
    lap_z = sum((p.diff_z(i).diff_z(i) for i in range(p.m)), zero)
    lap_t = sum((p.diff_t(ell).diff_t(ell) for ell in range(p.k)), zero)
    return lap_z + zn ** alpha * lap_t * Fraction(1, 4)


def horizontal_field_by_products(G, i, p):
    """X_i p = d_{z_i} p + (1/2) sum_l <J_l z, e_i> d_{t_l} p, by Polynomial
    products."""
    jz = _jz(G)
    return p.diff_z(i) + sum((jz[ell][i] * p.diff_t(ell) for ell in range(G.k)),
                             Polynomial.zero(G.m, G.k)) * Fraction(1, 2)


def grad_sq_by_fields(G, p):
    """|grad_H p|^2 = sum_i (X_i p)^2 on the group G, from the fields
    (`apply_X`) instead of the sub-Laplacian."""
    return sum((apply_X(G, i, p) ** 2 for i in range(G.m)), Polynomial.zero(G.m, G.k))


def grad_sq_by_partials(spec, p):
    """|grad_H p|^2 = |d_z p|^2 + (|z|^(2 alpha) / 4) |d_t p|^2 for B_a of an
    integer alpha, from the partials instead of the operator."""
    zero = Polynomial.zero(p.m, p.k, p.tweight)
    weight = Polynomial.z_norm_sq(p.m, p.k, p.tweight) ** int(spec.alpha) * Fraction(1, 4)
    return (sum((p.diff_z(i) ** 2 for i in range(p.m)), zero)
            + weight * sum((p.diff_t(j) ** 2 for j in range(p.k)), zero))


def theta_by_products(G, ell, p):
    """Theta_l p = sum_i <J_l z, e_i> d_{z_i} p, by Polynomial products."""
    jz = _jz(G)
    return sum((jz[ell][i] * p.diff_z(i) for i in range(G.m)), Polynomial.zero(G.m, G.k))


def discrepancy_by_products(G, p):
    """sum_l t_l Theta_l p, by Polynomial products."""
    return sum((Polynomial.t_var(G.m, G.k, ell) * theta_by_products(G, ell, p)
                for ell in range(G.k)), Polynomial.zero(G.m, G.k))


def harmonic_with_discrepancy(G):
    """x + y t - x |z|^2 / 8 on H^1: harmonic, nonzero discrepancy, and the
    discrepancy surface term in the first variation does not integrate to
    zero (unlike for the bare coordinate function x)."""
    x = poly_x(G)
    y = poly_y(G)
    t = poly_t(G)
    zn = Polynomial.z_norm_sq(G.m, G.k)
    u = x + y * t - x * zn * Fraction(1, 8)
    assert sublaplacian(G, u).is_zero()
    return u


def callable_handle(context, value, label=""):
    """FunctionHandle of the black-box function value(z, t), whose jet takes
    the partials as central differences with step FD_STEP * (1 + |g|) at the
    point g (2(m+k) + 1 evaluations of value)."""
    m = context.m

    def jet(z, t):
        g = np.concatenate([z, t], axis=1)
        h = FD_STEP * (1.0 + np.sqrt(np.sum(g ** 2, axis=1)))
        d = []
        for e in np.eye(g.shape[1]):
            up, down = g + h[:, None] * e, g - h[:, None] * e
            d.append((value(up[:, :m], up[:, m:]) - value(down[:, :m], down[:, m:]))
                     / (2.0 * h))
        return value(z, t), d[:m], d[m:]

    return FunctionHandle(context, jet, label=label)


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


def dilated(p, lam):
    """p(lam z, lam^w t) for exact rational lam and layer weight w, by
    substituting the dilated variables."""
    lam = Fraction(lam)
    z = [Polynomial.z_var(p.m, p.k, i, p.tweight) * lam for i in range(p.m)]
    t = [Polynomial.t_var(p.m, p.k, j, p.tweight) * lam ** p.tweight for j in range(p.k)]
    return p.substitute(z, t)


# left multiplication by the unit quaternions i, j, k on R^4: an H-type group
QUATERNIONIC_J = [[[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]],
                  [[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]],
                  [[0, 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]]


def gauss_jacobi_scipy(n, a, b):
    """Gauss-Jacobi nodes and weights of n points for (1 - x)^a (1 + x)^b
    from `scipy.special.roots_jacobi`, which `quadrature` used before it
    built its rules in numpy."""
    from scipy.special import roots_jacobi

    return roots_jacobi(n, a, b)


def gauss_jacobi_mp(n, a, b, nodes, dps=40):
    """Gauss-Jacobi nodes and weights of n points for (1 - x)^a (1 + x)^b at
    `dps` digits (mpmath), as two lists of mpf.  Each float node of `nodes`
    takes one Newton step on P_n at that precision (its error squares, to
    about 1e-27 from a 1e-16 start); the weight is then
    2^(a+b+1) Gamma(n+a+1) Gamma(n+b+1) / (Gamma(n+a+b+1) n!)
    / ((1 - x^2) P_n'(x)^2) (Szego, Orthogonal Polynomials, (15.3.1)), with
    P_n and P_(n-1) from the three-term recurrence and (1 - x^2) P_n' from
    both (Szego (4.5.7))."""
    with mpmath.workdps(dps):
        a, b = mpmath.mpf(a), mpmath.mpf(b)
        # P_j = (A_j x + B_j) P_(j-1) - C_j P_(j-2)
        coeffs = []
        for j in range(2, n + 1):
            c = 2 * j + a + b
            den = 2 * j * (j + a + b) * (c - 2)
            coeffs.append(((c - 1) * c * (c - 2) / den, (c - 1) * (a * a - b * b) / den,
                           2 * (j + a - 1) * (j + b - 1) * c / den))
        c = 2 * n + a + b

        def slope(x):
            """P_n(x) and (1 - x^2) P_n'(x)."""
            prev, p = mpmath.mpf(1), (a - b + (a + b + 2) * x) / 2
            for ca, cb, cc in coeffs:
                prev, p = p, (ca * x + cb) * p - cc * prev
            return p, (n * (a - b - c * x) * p + 2 * (n + a) * (n + b) * prev) / c

        scale = 2 ** (a + b + 1) * mpmath.gamma(n + a + 1) * mpmath.gamma(n + b + 1) \
            / (mpmath.gamma(n + a + b + 1) * mpmath.gamma(n + 1))
        xs, ws = [], []
        for x in map(mpmath.mpf, nodes):
            p, d = slope(x)
            x -= p * (1 - x * x) / d
            xs.append(x)
            ws.append(scale * (1 - x * x) / slope(x)[1] ** 2)
        return xs, ws


def random_skew_group(m, k, seed):
    """The group of k seeded random integer skew-symmetric m x m matrices."""
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(k):
        a = rng.integers(-3, 4, size=(m, m))
        mats.append((a - a.T).tolist())
    return make_group(m, k, mats)


def fd_sparse_solution(spec, box, grid_sizes, boundary_fn):
    """Nodal solution of the centred B_a scheme (5-point in 2-D, 7-point in
    3-D) on a tensor grid: the interior equations
    sum_i d2_{z_i} u + |z|^(2a)/4 d2_t u = 0 are assembled entry by entry as a
    scipy.sparse matrix, the Dirichlet data `boundary_fn(z, t)` moved to the
    right-hand side, and solved by `spsolve`.  Returns the full-grid array."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.linalg import spsolve

    axes = [np.linspace(lo, hi, n) for (lo, hi), n in zip(box, grid_sizes)]
    shape = tuple(grid_sizes)
    index = np.indices(shape).reshape(len(shape), -1).T  # (nodes, axes)
    coords = np.stack([axes[a][index[:, a]] for a in range(len(shape))], axis=1)
    on_edge = np.any((index == 0) | (index == np.array(shape) - 1), axis=1)
    u = np.zeros(len(index))
    u[on_edge] = boundary_fn(coords[on_edge, :spec.m], coords[on_edge, spec.m:])
    unknown = np.full(len(index), -1)
    inner = np.flatnonzero(~on_edge)
    unknown[inner] = np.arange(len(inner))
    c = np.sum(coords[inner, :spec.m] ** 2, axis=1) ** spec.alpha / 4.0

    rows, cols, vals = [], [], []
    rhs = np.zeros(len(inner))
    strides = [math.prod(shape[a + 1:]) for a in range(len(shape))]
    for a, stride in enumerate(strides):
        h = axes[a][1] - axes[a][0]
        w = np.full(len(inner), 1.0 / h ** 2) * (c if a >= spec.m else 1.0)
        rows.append(np.arange(len(inner)))
        cols.append(np.arange(len(inner)))
        vals.append(-2.0 * w)
        for neighbour in (inner - stride, inner + stride):
            free = unknown[neighbour] >= 0
            rows.append(np.flatnonzero(free))
            cols.append(unknown[neighbour[free]])
            vals.append(w[free])
            rhs[~free] -= w[~free] * u[neighbour[~free]]
    n = len(inner)
    matrix = coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                        shape=(n, n)).tocsc()
    u[inner] = spsolve(matrix, rhs)
    return u.reshape(shape)


def differentiation_matrix(nodes):
    """The first-derivative matrix of polynomial interpolation on any
    distinct nodes, from the barycentric weights
    w_j = 1 / prod_{k != j} (x_j - x_k) (Berrut & Trefethen, SIAM Review 46,
    2004), with the diagonal as minus the off-diagonal row sums."""
    x = np.asarray(nodes, dtype=float)
    diff = x[:, None] - x[None, :]
    np.fill_diagonal(diff, 1.0)
    w = 1.0 / np.prod(diff, axis=1)
    d = w[None, :] / w[:, None] / diff
    np.fill_diagonal(d, 0.0)
    np.fill_diagonal(d, -d.sum(axis=1))
    return d


def collocation_sparse_solution(spec, axes, boundary_fn):
    """Nodal solution of the collocation scheme on the tensor grid of the
    node arrays `axes`: the interior equations
    sum_i D2_{z_i} u + |z|^(2a)/4 D2_t u = 0, D2 the square of
    `differentiation_matrix` on each axis, assembled from Kronecker
    products as a scipy.sparse matrix, the Dirichlet data `boundary_fn(z, t)`
    moved to the right-hand side, and solved by `spsolve`.  Returns the
    full-grid array."""
    from functools import reduce

    from scipy.sparse import diags, identity, kron
    from scipy.sparse.linalg import spsolve

    shape = tuple(len(ax) for ax in axes)
    index = np.indices(shape).reshape(len(shape), -1).T  # (nodes, axes)
    coords = np.stack([axes[a][index[:, a]] for a in range(len(shape))], axis=1)
    on_edge = np.any((index == 0) | (index == np.array(shape) - 1), axis=1)
    c = np.sum(coords[:, :spec.m] ** 2, axis=1) ** spec.alpha / 4.0
    operator = 0
    for a, ax in enumerate(axes):
        d = differentiation_matrix(ax)
        factors = [identity(n) for n in shape]
        factors[a] = d @ d
        term = reduce(kron, factors)
        operator = operator + (diags(c) @ term if a >= spec.m else term)
    operator = operator.tocsr()[~on_edge]
    u = np.zeros(len(index))
    u[on_edge] = boundary_fn(coords[on_edge, :spec.m], coords[on_edge, spec.m:])
    u[~on_edge] = spsolve(operator[:, ~on_edge].tocsc(), -(operator[:, on_edge] @ u[on_edge]))
    return u.reshape(shape)


def pole_solution(spec, pole=1.6):
    """(value, jet) of u = rho(z, t - pole)^(2-Q) - rho(0, -pole)^(2-Q) (k = 1),
    from `Geometry.rho_power`: the fundamental solution of B_a, up to its
    constant, moved to the pole (0, pole) (B_a commutes with translations in
    t) and shifted to vanish at the origin.  It is B_a-harmonic off the
    pole, so on [-1, 1]^N for pole > 1, and no polynomial.  The jet's
    partials are exact: u = S^p + const with S = |z|^(2(a+1)) +
    4 (a+1)^2 (t - pole)^2 and p = (2 - Q) / (2 (a+1)), so
    du = p S^(p-1) dS with S^(p-1) = rho^(2 - Q - 2(a+1))."""
    a1 = spec.alpha + 1.0
    q = 2.0 - spec.Q
    offset = spec.rho_power(np.zeros(spec.m), np.array([-pole]), q)

    def value(z, t):
        return spec.rho_power(z, t - pole, q) - offset

    def jet(z, t):
        s = t - pole
        outer = q / (2.0 * a1) * spec.rho_power(z, s, q - 2.0 * a1)
        radial = 2.0 * a1 * np.sum(z ** 2, axis=1) ** (a1 - 1.0)
        return (value(z, t), [outer * radial * z[:, i] for i in range(spec.m)],
                [outer * 8.0 * a1 ** 2 * s[:, 0]])

    return value, jet
