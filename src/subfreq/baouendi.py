"""The degenerate operators B_a = Delta_z + (|z|^(2a)/4) Delta_t.

The spec is a `Geometry` (gauge, weight and dilations), so the
Almgren/Weiss/Monneau functionals of the frequency module apply to it
unchanged, as to the group case alpha = 1.  This module adds the Euler
operator; quadratic solid harmonics with the symbolically derived
constant; and a finite-difference Dirichlet solver that produces honest
non-polynomial solutions at desk scale.
"""

import json
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import solveh_banded
from scipy.sparse.linalg import LinearOperator, cg

from . import constants
from .constants import Geometry
from .errors import (
    BadGrid,
    DimensionMismatch,
    NoConvergence,
    NonIntegerAlpha,
    ParseError,
)
from .frequency import FunctionHandle
from .polynomials import Polynomial, baouendi_apply, euler


@dataclass(frozen=True)
class BaouendiSpec(Geometry):
    """The geometry (m, k, alpha) of B_a, with Q = m + (alpha+1) k."""

    def __post_init__(self):
        if self.m < 1 or self.k < 1:
            raise DimensionMismatch("m and k must be positive")
        if not self.alpha > 0:
            raise DimensionMismatch("alpha must be > 0")
        super().__post_init__()

    def integer_alpha(self):
        a = self.alpha
        if isinstance(a, int):
            return a
        if isinstance(a, float) and a.is_integer():
            return int(a)
        raise NonIntegerAlpha(f"operation needs integer alpha, got {a}")


def z_alpha_apply(spec, u):
    """Euler operator Z_a = sum z_i d_{z_i} + (a+1) sum t_j d_{t_j}.

    Exact on polynomials with matching layer weight; on anything carrying a
    .zu evaluator (FunctionHandle / GridSolution handles) delegates to it.
    """
    if isinstance(u, Polynomial):
        a = spec.integer_alpha()
        if u.tweight != a + 1:
            raise DimensionMismatch("polynomial layer weight does not match alpha+1")
        return euler(u)
    if isinstance(u, FunctionHandle):
        return u.zu
    raise TypeError("expected a Polynomial or FunctionHandle")


def solid_harmonic_quadratic(spec):
    """P = |z|^(2(a+1)) - A |t|^2 with A derived from B_a P = 0.

    The constant is not hard-coded: it is the exact ratio of the two
    symbolic images B_a(|z|^(2(a+1))) and B_a(|t|^2), and the result is
    verified to be annihilated exactly.
    """
    a = spec.integer_alpha()
    tweight = a + 1
    znorm = Polynomial.z_norm_sq(spec.m, spec.k, tweight)
    tnorm = Polynomial.t_norm_sq(spec.m, spec.k, tweight)
    lead = znorm ** (a + 1)
    img_lead = baouendi_apply(spec, lead)      # c * |z|^(2a)
    img_tn = baouendi_apply(spec, tnorm)       # (k/2) * |z|^(2a)
    ratio = None
    for key, c in img_lead.terms.items():
        other = img_tn.terms.get(key)
        if other is None:
            raise ArithmeticError("unexpected monomial structure in B_a images")
        if ratio is None:
            ratio = c / other
        elif ratio != c / other:
            raise ArithmeticError("B_a images are not proportional")
    big_a = ratio
    p = lead - tnorm * big_a
    assert baouendi_apply(spec, p).is_zero()
    return p


def derived_quadratic_constant(spec):
    """The exact A of solid_harmonic_quadratic, as a Fraction."""
    p = solid_harmonic_quadratic(spec)
    tn_key = next(iter(Polynomial.t_norm_sq(spec.m, spec.k,
                                            spec.integer_alpha() + 1).terms))
    return -p.terms[tn_key]


def orthogonality_check(spec, p, p_prime, r, rule):
    """Surface inner product int_{S_r} P P' psi_a dH/|grad rho_a|.

    Vanishes for solid harmonics of distinct homogeneity degrees."""
    from .quadrature import surface_integral

    hp = p if isinstance(p, FunctionHandle) else FunctionHandle.from_polynomial(spec, p)
    hq = (p_prime if isinstance(p_prime, FunctionHandle)
          else FunctionHandle.from_polynomial(spec, p_prime))
    return surface_integral(lambda z, t: hp.value(z, t) * hq.value(z, t),
                            r, rule, weighted=True)


def normalization_constant(spec, samples=200_000, seed=0):
    """The constant C_a of Gamma = C_a rho_a^(2-Q), by two estimators.

    Returns {"value": deterministic quadrature, "mc": MC value,
    "mc_stderr": its standard error}."""
    det = constants.gauge_constant(spec.m, spec.k, float(spec.alpha))
    mc, err = constants.gauge_constant_mc(spec.m, spec.k, float(spec.alpha),
                                          samples=samples, seed=seed)
    return {"value": det, "mc": mc, "mc_stderr": err}


# -- finite-difference Dirichlet solver ------------------------------------


@dataclass
class GridSolution:
    """Nodal solution of B_a u = 0 on a tensor grid over (z, t)."""

    spec: BaouendiSpec
    box: tuple          # ((lo, hi), ...) per axis, z axes first
    axes: tuple         # per-axis node arrays
    values: np.ndarray  # full grid including boundary
    residual: float     # ||A u - b|| / ||b|| of the assembled system
    iterations: int     # CG iterations

    def as_handle(self):
        """FunctionHandle evaluating by multilinear interpolation.

        Derivative evaluators come from second-order central differences on
        the grid, interpolated the same way."""
        from scipy.interpolate import RegularGridInterpolator

        interp = RegularGridInterpolator(self.axes, self.values, method="linear",
                                         bounds_error=True)
        grads = np.gradient(self.values, *self.axes, edge_order=2)
        if self.values.ndim == 1:
            grads = [grads]
        ginterp = [RegularGridInterpolator(self.axes, g, method="linear",
                                           bounds_error=True) for g in grads]
        m, k = self.spec.m, self.spec.k
        alpha = float(self.spec.alpha)

        def pts(z, t):
            return np.concatenate([z, t], axis=1)

        value = lambda z, t: interp(pts(z, t))

        def grad_sq(z, t):
            p = pts(z, t)
            total = np.zeros(len(p))
            for i in range(m):
                total += ginterp[i](p) ** 2
            coeff = np.sum(z ** 2, axis=1) ** alpha / 4.0
            for j in range(k):
                total += coeff * ginterp[m + j](p) ** 2
            return total

        def zu(z, t):
            p = pts(z, t)
            out = np.zeros(len(p))
            for i in range(m):
                out += z[:, i] * ginterp[i](p)
            for j in range(k):
                out += (alpha + 1.0) * t[:, j] * ginterp[m + j](p)
            return out

        return FunctionHandle(self.spec, value, grad_sq, zu, label="fd-solution")


def _second_difference(n, h):
    """Sparse 1-D second difference on n interior nodes, Dirichlet ends."""
    main = np.full(n, -2.0 / h ** 2)
    off = np.full(n - 1, 1.0 / h ** 2)
    return sp.diags([off, main, off], [-1, 0, 1], format="csr")


def fd_solve(spec, box, grid_sizes, boundary_fn, tol=1e-10):
    """Solve B_a u = 0 with Dirichlet data, by preconditioned conjugate gradients.

    Second-order centered stencil; the degenerate coefficient |z|^(2a)/4
    multiplies only t-differences between nodes sharing their z-slot, so
    the (negated) system is symmetric positive definite.  The coefficient
    depends on z only and the t axis is uniform with Dirichlet ends, so an
    orthonormal DST-I in t diagonalises the t-difference (fast
    diagonalisation, Lynch, Rice & Thomas 1964) and leaves one banded SPD
    system in z per t-mode.  Those solves form the exact inverse, which
    preconditions CG on the assembled stencil: CG stops after one or two
    iterations, and the assembled matrix alone defines the scheme and the
    residual.  Supports N = m + k in {2, 3} with at most 257 nodes per
    axis."""
    from scipy.fft import dst

    m, k = spec.m, spec.k
    ndim = m + k
    if ndim not in (2, 3) or k != 1:
        raise BadGrid("solver supports m in {1, 2} with k = 1")
    if len(box) != ndim or len(grid_sizes) != ndim:
        raise BadGrid("box/grid must have one entry per axis")
    if any(n < 5 or n > 257 for n in grid_sizes):
        raise BadGrid("grid sizes must be in [5, 257]")

    axes = tuple(np.linspace(lo, hi, n) for (lo, hi), n in zip(box, grid_sizes))
    steps = [ax[1] - ax[0] for ax in axes]
    shape = tuple(grid_sizes)

    full = np.zeros(shape)
    mesh = np.meshgrid(*axes, indexing="ij")
    pts_z = np.stack([mesh[i].ravel() for i in range(m)], axis=1)
    pts_t = np.stack([mesh[m + j].ravel() for j in range(k)], axis=1)
    bvals = boundary_fn(pts_z, pts_t).reshape(shape)
    mask = np.zeros(shape, dtype=bool)
    for axis in range(ndim):
        sl = [slice(None)] * ndim
        sl[axis] = 0
        mask[tuple(sl)] = True
        sl[axis] = -1
        mask[tuple(sl)] = True
    full[mask] = bvals[mask]

    interior_axes = [ax[1:-1] for ax in axes]
    ni = [len(ax) for ax in interior_axes]
    zmesh = np.meshgrid(*interior_axes[:m], indexing="ij")
    coeff = sum(z ** 2 for z in zmesh) ** spec.alpha / 4.0
    c = coeff.ravel()

    # op = lap_zz (x) I_t + diag(c) (x) d2_t, with lap_zz the Kronecker sum
    # over the z axes (the last axis varies fastest)
    d2 = [_second_difference(n, h) for n, h in zip(ni, steps)]
    lap_zz = d2[0]
    for d in d2[1:m]:
        lap_zz = sp.kronsum(d, lap_zz)
    n_t = ni[-1]
    op = (sp.kron(lap_zz, sp.identity(n_t)) + sp.kron(sp.diags(c), d2[-1])).tocsr()

    # right-hand side from boundary values entering the stencil
    rhs = np.zeros(ni)
    interior = tuple(slice(1, -1) for _ in range(ndim))
    for axis in range(ndim):
        h2 = steps[axis] ** 2
        lo = [slice(1, -1)] * ndim
        hi = [slice(1, -1)] * ndim
        lo[axis] = 0
        hi[axis] = -1
        tgt_lo = [slice(None)] * ndim
        tgt_hi = [slice(None)] * ndim
        tgt_lo[axis] = 0
        tgt_hi[axis] = -1
        contrib_lo = full[tuple(lo)] / h2
        contrib_hi = full[tuple(hi)] / h2
        if axis >= m:
            contrib_lo = contrib_lo * coeff
            contrib_hi = contrib_hi * coeff
        rhs[tuple(tgt_lo)] -= contrib_lo
        rhs[tuple(tgt_hi)] -= contrib_hi

    # exact inverse: d2_t = S diag(lam) S with S the orthonormal DST-I, so
    # t-mode j leaves the SPD system -(lap_zz + lam_j diag(c)), banded with
    # half-bandwidth bw, kept in upper band storage
    nz = len(c)
    bw = nz // ni[0]
    lam = -(2.0 / steps[-1] * np.sin(np.arange(1, n_t + 1) * np.pi / (2 * (n_t + 1)))) ** 2
    upper = sp.triu(-lap_zz, format="coo")
    bands = np.zeros((bw + 1, nz))
    bands[bw + upper.row - upper.col, upper.col] = upper.data

    def exact_inverse(r):
        modes = dst(r.reshape(nz, n_t), type=1, norm="ortho", axis=1)
        for j in range(n_t):
            ab = bands.copy()
            ab[bw] -= lam[j] * c
            modes[:, j] = solveh_banded(ab, modes[:, j], overwrite_ab=True,
                                        check_finite=False)
        return dst(modes, type=1, norm="ortho", axis=1).ravel()

    b = -rhs.ravel()
    a_mat = -op  # SPD
    precond = LinearOperator(a_mat.shape, matvec=exact_inverse, dtype=float)
    iterations = 0

    def count(xk):
        nonlocal iterations
        iterations += 1

    sol, info = cg(a_mat, b, x0=np.zeros(a_mat.shape[0]), rtol=1e-12, atol=0.0,
                   maxiter=20000, M=precond, callback=count)
    resid = float(np.linalg.norm(a_mat @ sol - b)) / (float(np.linalg.norm(b)) or 1.0)
    if info != 0 or resid > tol:
        raise NoConvergence(
            f"CG stopped (info={info}) after {iterations} iterations with "
            f"residual {resid:.3e}, tolerance {tol}",
            iterations=iterations, residual=resid)

    full[interior] = sol.reshape(ni)
    return GridSolution(spec=spec, box=tuple(tuple(b_) for b_ in box),
                        axes=axes, values=full, residual=resid,
                        iterations=iterations)


# -- problem files ---------------------------------------------------------


def problem_from_json(data, poly_loader=None):
    """Parse a solver problem description.

    Format: {"m":1,"k":1,"alpha":2,"box":[[-1,1],[-1,1]],"grid":[129,129],
    "boundary":"poly:<polynomial-file>"}."""
    try:
        if isinstance(data, str):
            data = json.loads(data)
        spec = BaouendiSpec(int(data["m"]), int(data["k"]), data["alpha"])
        box = [tuple(float(x) for x in pair) for pair in data["box"]]
        grid = [int(n) for n in data["grid"]]
        boundary = data["boundary"]
        if not (isinstance(boundary, str) and boundary.startswith("poly:")):
            raise ParseError("boundary must be 'poly:<polynomial-file>'")
        path = boundary[len("poly:"):]
        loader = poly_loader or _load_poly_file
        a = spec.integer_alpha()
        poly = loader(path, spec.m, spec.k, a + 1)
        return spec, box, grid, poly
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, (ParseError, DimensionMismatch, NonIntegerAlpha)):
            raise
        raise ParseError(f"bad problem file: {exc}") from exc


def _load_poly_file(path, m, k, tweight):
    with open(path, encoding="utf-8") as fh:
        return Polynomial.from_json(fh.read(), m=m, k=k, tweight=tweight)
