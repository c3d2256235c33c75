"""The degenerate operators B_a = Delta_z + (|z|^(2a)/4) Delta_t.

The spec is a `Geometry` (gauge, weight and dilations), so the
Almgren/Weiss/Monneau functionals of the frequency module apply to it
unchanged, as to the group case alpha = 1, and its `tweight` and
`laplacian` give the solid harmonics of `polynomials`.  This module adds
their surface orthogonality and a finite-difference Dirichlet solver that
produces honest non-polynomial solutions at desk scale.
"""

import json
import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .constants import Geometry
from .errors import (
    BadGrid,
    DimensionMismatch,
    NoConvergence,
    NonIntegerAlpha,
    ParseError,
    json_int,
    json_number,
    parsing,
)
from .frequency import FunctionHandle
from .polynomials import (
    Polynomial,
    _baouendi_operator,
    _check_calculus,
    baouendi_apply,
    solid_harmonic_quadratic,
)


@dataclass(frozen=True)
class BaouendiSpec(Geometry):
    """The geometry (m, k, alpha) of B_a, with Q = m + (alpha+1) k."""

    def __post_init__(self):
        if self.m < 1 or self.k < 1:
            raise DimensionMismatch("m and k must be positive")
        if not 0 < self.alpha < math.inf:
            raise DimensionMismatch(f"alpha must be finite and > 0, got {self.alpha}")
        super().__post_init__()

    @property
    def tweight(self):
        """The layer weight alpha + 1 of the symbolic calculus, which needs an
        integer alpha (so that |z|^(2 alpha) is polynomial)."""
        a = self.alpha
        if not (isinstance(a, int) or isinstance(a, float) and a.is_integer()):
            raise NonIntegerAlpha(f"operation needs integer alpha, got {a}")
        return int(a) + 1

    @cached_property
    def laplacian_operator(self):
        """B_a as an exact operator, built once (`polynomials._baouendi_operator`)."""
        return _baouendi_operator(self)

    def laplacian(self, p):
        """B_a p (`baouendi_apply`), exactly."""
        return baouendi_apply(self, p)

    def horizontal_grad_sq(self, dz, dt, z):
        """|grad_H u|^2 = |d_z u|^2 + |z|^(2a)/4 |d_t u|^2 at the points z
        from the arrays of Euclidean partials dz = [d_{z_i} u] and
        dt = [d_{t_j} u] there.  The exact form of a Polynomial is
        `carre_du_champ`."""
        weight = np.sum(z ** 2, axis=1) ** float(self.alpha) / 4.0
        return sum(d * d for d in dz) + weight * sum(d * d for d in dt)

    def discrepancy(self, p=None):
        """The discrepancy E_u vanishes identically for B_a: the zero numerator,
        in the layer weight alpha + 1 of the symbolic calculus."""
        return Polynomial.zero(self.m, self.k, self.alpha + 1)


def orthogonality_check(spec, p, p_prime, r, rule):
    """Surface inner product int_{S_r} P P' psi_a dH/|grad rho_a| of two
    Polynomials in the symbolic calculus of B_a (alpha an integer, layer
    weight alpha + 1).

    Vanishes for solid harmonics of distinct homogeneity degrees."""
    from .quadrature import surface_integral

    for q in (p, p_prime):
        _check_calculus(spec, q)
    return surface_integral(p * p_prime, r, rule, weighted=True)


def relative_orthogonality(spec, r, rule):
    """(inner, |inner| / (|p| |p'|)) from `orthogonality_check` for the solid
    harmonics p = z_1 and p' = `solid_harmonic_quadratic` of degrees 1 and
    2(alpha + 1)."""
    p = Polynomial.z_var(spec.m, spec.k, 0, tweight=spec.tweight)
    p_prime = solid_harmonic_quadratic(spec)
    inner = orthogonality_check(spec, p, p_prime, r, rule)
    n1 = abs(orthogonality_check(spec, p, p, r, rule)) ** 0.5
    n2 = abs(orthogonality_check(spec, p_prime, p_prime, r, rule)) ** 0.5
    return inner, abs(inner) / (n1 * n2)


# -- finite-difference Dirichlet solver ------------------------------------


@dataclass
class GridSolution:
    """Nodal solution of B_a u = 0 on a tensor grid over (z, t)."""

    spec: BaouendiSpec
    axes: tuple           # per-axis node arrays, z axes first; their ends are the box
    channels: np.ndarray  # (*grid, N + 1): u on the full grid, then room for d_1 u, ..., d_N u
    residual: float       # |stencil(u)| / |stencil(boundary data)| at the interior nodes
    iterations: int       # CG iterations

    @property
    def values(self):
        """u on the full grid, boundary included (a view of channel 0)."""
        return self.channels[..., 0]

    def as_handle(self):
        """FunctionHandle evaluating by multilinear interpolation.

        The kernel (`_multilinear`) reads the channel array, which holds u
        once: this fills channels 1.. with the second-order central
        differences d_1 u, ..., one axis at a time.  Value and partials come
        from one call per point set (the handle's `jet`)."""
        data = self.channels
        for axis, nodes in enumerate(self.axes):
            data[..., axis + 1] = np.gradient(self.values, nodes, axis=axis, edge_order=2)
        flat = data.reshape(-1, data.shape[-1])  # a view: one row of channels per node
        m = self.spec.m
        lo, hi = np.array([(nodes[0], nodes[-1]) for nodes in self.axes]).T

        def jet(z, t):
            x = np.empty((len(lo), len(z)))  # one contiguous row of coordinates per axis
            x[:m], x[m:] = z.T, t.T
            # NaN fails both tests; initial= lets an empty point set through
            if not ((x.min(1, initial=np.inf) >= lo).all()
                    and (x.max(1, initial=-np.inf) <= hi).all()):
                outside = ~np.all((x.T >= lo) & (x.T <= hi), axis=1)
                box = " x ".join(f"[{a:g}, {b:g}]" for a, b in zip(lo, hi))
                raise BadGrid(f"point {x.T[outside][0]} lies outside the FD solution box {box}")
            c = _multilinear(self.axes, flat, x)
            return c[:, 0], list(c[:, 1:m + 1].T), list(c[:, m + 1:].T)

        u = FunctionHandle(self.spec, jet, label="fd-solution")
        u._rellich = True  # B_a u = 0 on the grid, so curves read D = I / r
        return u


def _multilinear(axes, flat, x):
    """Multilinear interpolation at the points with coordinates x (one row
    per axis, inside the box of the axes) of the channels flat (one row per
    grid node, in C order), bit for bit as scipy's
    RegularGridInterpolator(method="linear"): the same cell (closed on the
    right at the last node), the same fractions and weight products, and
    the corners summed in its order (first axis slowest) from 0.  All 2^N
    corners of all channels come from one gather."""
    strides = [math.prod(len(ax) for ax in axes[d + 1:]) for d in range(len(axes))]
    base = np.zeros(x.shape[1], dtype=np.intp)
    offsets = np.zeros(1, dtype=np.intp)
    weights = np.ones((1, x.shape[1]))
    for ax, xd, stride in zip(axes, x, strides):
        i = np.minimum(np.searchsorted(ax, xd, side="right") - 1, len(ax) - 2)
        f = (xd - ax[i]) / (ax[i + 1] - ax[i])
        base += i * stride
        offsets = (offsets[:, None] + np.array([0, stride])).ravel()
        weights = (weights[:, None] * np.stack([1.0 - f, f])).reshape(len(offsets), -1)
    corners = np.take(flat, base + offsets[:, None], axis=0)  # (2^N, points, channels)
    corners *= weights[..., None]
    out = np.zeros(corners.shape[1:])
    for term in corners:
        out += term
    return out


def cg(*args, **kwargs):
    """scipy's conjugate gradients, imported on the first call so that the
    package imports no scipy; `fd_solve` calls it by this module name."""
    from scipy.sparse.linalg import cg as scipy_cg
    return scipy_cg(*args, **kwargs)


def fd_solve(spec, box, grid_sizes, boundary_fn, tol=1e-10):
    """Solve B_a u = 0 with Dirichlet data, by preconditioned conjugate gradients.

    `stencil` is the scheme: the second-order centred B_a stencil at the
    interior nodes of a full-grid array, with the degenerate coefficient
    |z|^(2a)/4 on the t-differences only, so the (negated) operator is
    symmetric positive definite.  It gives the right-hand side (the stencil
    of the boundary data), the matrix-free CG operator and the residual.
    The coefficient depends on z only and the t axis is uniform with
    Dirichlet ends, so an orthonormal DST-I in t diagonalises the
    t-difference (fast diagonalisation, Lynch, Rice & Thomas 1964) and
    leaves one SPD system in z per t-mode.  Where the coefficient separates,
    c(z) = sum_i c_i(z_i) (m = 1, or alpha = 1), the z_2 axis is diagonalised
    too and all z_1 systems are one tridiagonal solve
    (`_separable_mode_solver`), refined once against the stencil when z_2
    is diagonalised; otherwise (m = 2, alpha != 1) each mode is one banded
    Cholesky solve with half-bandwidth n_2 (`_banded_mode_solver`).  Either is the exact inverse, which
    preconditions CG: it stops after one or two iterations.  Supports
    N = m + k in {2, 3} with at most 257 nodes per axis."""
    from scipy.fft import dst
    from scipy.sparse.linalg import LinearOperator

    m, k = spec.m, spec.k
    ndim = m + k
    if ndim not in (2, 3) or k != 1:
        raise BadGrid("solver supports m in {1, 2} with k = 1")
    if len(box) != ndim or len(grid_sizes) != ndim:
        raise BadGrid("box/grid must have one entry per axis")
    if any(n < 5 or n > 257 for n in grid_sizes):
        raise BadGrid("grid sizes must be in [5, 257]")
    if not all(lo < hi for lo, hi in box):
        raise BadGrid(f"every box axis needs lo < hi, got {box}")

    axes = tuple(np.linspace(lo, hi, n) for (lo, hi), n in zip(box, grid_sizes))
    steps = [ax[1] - ax[0] for ax in axes]
    shape = tuple(grid_sizes)
    ni = tuple(n - 2 for n in shape)
    interior = (slice(1, -1),) * ndim

    mesh = [np.broadcast_to(x, shape) for x in np.meshgrid(*axes, indexing="ij", sparse=True)]
    edge = np.ones(shape, dtype=bool)
    edge[interior] = False
    full = np.zeros(shape)  # the boundary data, evaluated on the boundary nodes only
    pts_z = np.stack([mesh[i][edge] for i in range(m)], axis=1)
    full[edge] = np.asarray(boundary_fn(pts_z, mesh[m][edge].reshape(-1, 1)), dtype=float).ravel()

    zmesh = np.meshgrid(*[ax[1:-1] for ax in axes[:m]], indexing="ij")
    coeff = (sum(z ** 2 for z in zmesh) ** spec.alpha / 4.0)[..., None]

    def stencil(g):
        # the centred B_a stencil of the full-grid array g at the interior
        # nodes: per axis (g_lo - 2 g + g_hi) / h^2, in place in one temporary
        out = np.zeros(ni)
        d2 = np.empty(ni)
        for axis, h in enumerate(steps):
            lo, hi = list(interior), list(interior)
            lo[axis], hi[axis] = slice(None, -2), slice(2, None)
            np.multiply(g[interior], 2.0, out=d2)
            np.subtract(g[tuple(lo)], d2, out=d2)
            np.add(d2, g[tuple(hi)], out=d2)
            np.divide(d2, h ** 2, out=d2)
            if axis >= m:
                np.multiply(coeff, d2, out=d2)
            out += d2
        return out

    # exact inverse: d2_t = S diag(lam) S with S the orthonormal DST-I, so
    # t-mode j leaves the SPD system -lap_zz - lam_j diag(c) in z
    n_t = ni[-1]
    lam = -(2.0 / steps[-1] * np.sin(np.arange(1, n_t + 1) * np.pi / (2 * (n_t + 1)))) ** 2
    if m == 1 or spec.alpha == 1:
        # c(z) = sum_i c_i(z_i) with c_i = |z_i|^(2a)/4
        terms = [(ax[1:-1] ** 2) ** spec.alpha / 4.0 for ax in axes[:m]]
        solve_modes = _separable_mode_solver(steps[:m], terms, lam)
    else:
        solve_modes = _banded_mode_solver(steps[:m], coeff[..., 0], lam)

    def inverse(r):
        modes = dst(r.reshape(-1, n_t), type=1, norm="ortho", axis=1)
        return dst(solve_modes(modes), type=1, norm="ortho", axis=1).ravel()

    work = np.zeros(shape)  # zero boundary, interior overwritten by each matvec

    def negated_stencil(x):
        work[interior] = x.reshape(ni)
        return -stencil(work).ravel()

    def refined_inverse(r):
        # the z_2 eigenvectors are backward stable only normwise, where the
        # Cholesky solves are componentwise: one step of iterative refinement
        # against the stencil wins back the digits this costs on smooth data
        x = inverse(r)
        return x + inverse(r - negated_stencil(x))

    n = math.prod(ni)
    a_op = LinearOperator((n, n), matvec=negated_stencil, dtype=float)  # SPD
    exact_inverse = refined_inverse if m == 2 and spec.alpha == 1 else inverse
    precond = LinearOperator((n, n), matvec=exact_inverse, dtype=float)
    b = stencil(full).ravel()
    iterates = []  # one entry per CG iteration
    sol, info = cg(a_op, b, x0=np.zeros(n), rtol=1e-12, atol=0.0,
                   maxiter=20000, M=precond, callback=iterates.append)
    iterations = len(iterates)
    full[interior] = sol.reshape(ni)
    resid = float(np.linalg.norm(stencil(full))) / (float(np.linalg.norm(b)) or 1.0)
    if info != 0 or resid > tol:
        raise NoConvergence(
            f"CG stopped (info={info}) after {iterations} iterations with "
            f"residual {resid:.3e}, tolerance {tol}",
            iterations=iterations, residual=resid)

    channels = np.empty(shape + (ndim + 1,))
    channels[..., 0] = full
    return GridSolution(spec=spec, axes=axes, channels=channels, residual=resid,
                        iterations=iterations)


def _separable_mode_solver(steps, terms, lam):
    """Exact solver of the t-modes for a separable coefficient
    c(z) = sum_i c_i(z_i), given as the arrays c_i = terms[i] on the interior
    z_i nodes (m = 1, or m = 2 with alpha = 1).  It maps the array of modes
    (rows: z nodes with z_1 slowest, columns: t-modes j) to the solutions of
    -lap_zz - lam_j diag(c).

    For m = 2 the z_2 operator -d^2/h_2^2 - lam_j diag(c_2) of each mode is
    V_j diag(e_j) V_j^T (`eigh_tridiagonal`), and one batched matmul moves
    the modes into that basis.  Every pair (j, q) then leaves the
    tridiagonal z_1 system -d^2/h_1^2 - lam_j diag(c_1) + e_jq; all of them
    form one block-diagonal SPD matrix (zero couplings at the block ends),
    solved by one banded Cholesky call with kd = 1."""
    from scipy.linalg import eigh_tridiagonal, solveh_banded
    h1, n1 = steps[0], len(terms[0])
    diag = (2.0 / h1 ** 2 - lam[:, None] * terms[0])[:, None, :]  # (n_t, 1, n_1)
    vecs = None
    if len(terms) == 2:
        n2 = len(terms[1])
        off = np.full(n2 - 1, -1.0 / steps[1] ** 2)
        vecs = np.empty((len(lam), n2, n2))
        eigenvalues = np.empty((len(lam), n2, 1))
        for j, lam_j in enumerate(lam):
            eigenvalues[j, :, 0], vecs[j] = eigh_tridiagonal(
                2.0 / steps[1] ** 2 - lam_j * terms[1], off, check_finite=False)
        diag = diag + eigenvalues  # (n_t, n_2, n_1)

    def solve(modes):
        # b views modes as (n_t, n_2 or 1, n_1); the solutions overwrite it
        b = modes.reshape(n1, -1, len(lam)).transpose(2, 1, 0)
        rhs = b.copy() if vecs is None else np.matmul(vecs.transpose(0, 2, 1), b)
        ab = np.empty((2, diag.size))  # upper band storage
        ab[0] = -1.0 / h1 ** 2
        ab[0, ::n1] = 0.0  # no coupling across block ends
        ab[1] = diag.ravel()
        x = solveh_banded(ab, rhs.ravel(), overwrite_ab=True, overwrite_b=True,
                          check_finite=False).reshape(rhs.shape)
        b[...] = x if vecs is None else vecs @ x
        return modes

    return solve


def _banded_mode_solver(steps, c, lam):
    """Exact solver of the t-modes for a coefficient c that does not separate
    (m = 2, alpha != 1), c given on the interior z nodes: per t-mode j one
    banded Cholesky solve of -lap_zz - lam_j diag(c), whose half-bandwidth bw
    is the stride of z axis 0, in upper band storage."""
    from scipy.linalg import solveh_banded
    nz, bw = c.size, c.size // c.shape[0]
    bands = np.zeros((bw + 1, nz))
    bands[bw] = sum(2.0 / h ** 2 for h in steps)
    for i, h in enumerate(steps):
        # -1/h_i^2 couples each node to its neighbour one stride s_i back along z_i
        stride = math.prod(c.shape[i + 1:])
        band = bands[bw - stride].reshape(c.shape)
        band[(slice(None),) * i + (slice(1, None),)] = -1.0 / h ** 2
    c = c.ravel()

    def solve(modes):
        for j, lam_j in enumerate(lam):
            ab = bands.copy()
            ab[bw] -= lam_j * c
            modes[:, j] = solveh_banded(ab, modes[:, j], overwrite_ab=True,
                                        check_finite=False)
        return modes

    return solve


# -- problem files ---------------------------------------------------------


def problem_from_json(data, directory=""):
    """Parse a solver problem description.

    Format: {"m":1,"k":1,"alpha":2,"box":[[-1,1],[-1,1]],"grid":[129,129],
    "boundary":"poly:<polynomial-file>"}, a relative polynomial file being
    read from `directory` (that of the problem file).  The boundary
    polynomial, of layer weight alpha + 1 for any alpha > 0, is only
    evaluated (by `fd_solve`): no exact operation runs on it."""
    with parsing("problem file"):
        if isinstance(data, str):
            data = json.loads(data)
        spec = BaouendiSpec(json_int(data["m"], "m"), json_int(data["k"], "k"),
                            json_number(data["alpha"], "alpha"))
        box = [tuple(float(json_number(x, "a box bound")) for x in pair) for pair in data["box"]]
        if any(len(pair) != 2 for pair in box):
            raise ParseError(f"every box axis is a pair [lo, hi], got {data['box']}")
        grid = [json_int(n, "a grid size") for n in data["grid"]]
        boundary = data["boundary"]
        if not (isinstance(boundary, str) and boundary.startswith("poly:")):
            raise ParseError("boundary must be 'poly:<polynomial-file>'")
        with open(os.path.join(directory, boundary[len("poly:"):]), encoding="utf-8") as fh:
            poly = Polynomial.from_json(fh.read(), spec.m, spec.k, spec.alpha + 1)
        return spec, box, grid, poly
