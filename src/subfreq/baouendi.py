"""The degenerate operators B_a = Delta_z + (|z|^(2a)/4) Delta_t.

The spec is a `Geometry` (gauge, weight and dilations), so the
Almgren/Weiss/Monneau functionals of the frequency module apply to it
unchanged, as to the group case alpha = 1, and its `tweight` and
`laplacian` give the solid harmonics of `polynomials`.  This module adds
their surface orthogonality and a Dirichlet solver (Chebyshev collocation
at integer alpha, finite differences otherwise) that produces honest
non-polynomial solutions at desk scale.
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


# The most factors (alpha + 1) and monomials of |z|^(2 alpha) that `tweight`
# admits; `ortho` takes about 1 s at the bound (m = 2, alpha 256; m = 3, 21).
SYMBOLIC_SIZE = 257


@dataclass(frozen=True)
class BaouendiSpec(Geometry):
    """The geometry (m, k, alpha) of B_a, with Q = m + (alpha+1) k."""

    def __post_init__(self):
        if self.m < 1 or self.k < 1:
            raise DimensionMismatch("m and k must be positive")
        if not 0 < self.alpha < math.inf:
            raise DimensionMismatch(f"alpha must be finite and > 0, got {self.alpha}")
        super().__post_init__()
        if not math.isfinite(self.Q * self.Q):  # a sphere rule's gamma is Q^2 / (Q - 2)
            raise DimensionMismatch(f"alpha = {self.alpha} makes Q^2 overflow a float")

    @property
    def tweight(self):
        """The layer weight alpha + 1 of the symbolic calculus, which needs an
        integer alpha (so that |z|^(2 alpha) is polynomial) within SYMBOLIC_SIZE."""
        a = self.alpha
        if not (isinstance(a, int) or isinstance(a, float) and a.is_integer()):
            raise NonIntegerAlpha(f"operation needs integer alpha, got {a}")
        if max(a + 1, math.comb(int(a) + self.m - 1, self.m - 1)) > SYMBOLIC_SIZE:
            raise DimensionMismatch(f"alpha = {a} at m = {self.m} is too large for the symbolic "
                                    f"calculus: over {SYMBOLIC_SIZE} factors or monomials")
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


# -- Dirichlet solvers: Chebyshev collocation and finite differences -------

# The largest total size in bytes of the z-system matrices of one batched
# collocation solve (`_system_bytes`).  It caps n before anything is
# allocated; the solve holds about twice this at its peak.
COLLOCATION_BYTES = 2 ** 27

# A collocation series is resolved when its top two degrees on every axis
# are below this fraction of its largest coefficient (`_resolved`): above
# the round-off cut of `_chop` for n <= 67, so above the solve's round-off.
RESOLVED = 1e-12


@dataclass
class GridSolution:
    """Nodal solution of B_a u = 0 on a tensor grid over (z, t)."""

    spec: BaouendiSpec
    axes: tuple           # per-axis node arrays, ascending, z axes first; their ends are the box
    channels: np.ndarray  # (*grid, C): u on the full grid, then (FD) room for d_1 u, ..., d_N u
    residual: float       # |scheme(u)| / |scheme(boundary data)| at the interior nodes
    iterations: int       # 1 (FD: one exact solve), or collocation solves (Chebyshev)
    series: np.ndarray = None  # the chopped tensor Chebyshev coefficients of u (Chebyshev)

    @property
    def values(self):
        """u on the full grid, boundary included (a view of channel 0)."""
        return self.channels[..., 0]

    def as_handle(self):
        """FunctionHandle whose value and partials come from one kernel call
        per point set (the handle's `jet`).

        A collocation solution is read from its chopped tensor Chebyshev
        series, the partials from `chebder` of it (`_series_jet`).  An FD
        solution is read by multilinear interpolation (`_multilinear`) of the
        channel array, which holds u once: this fills channels 1.. with the
        second-order central differences d_1 u, ..., one axis at a time.
        The jet holds these arrays, not the solution."""
        m = self.spec.m
        axes = self.axes
        lo, hi = np.array([(nodes[0], nodes[-1]) for nodes in axes]).T
        flat = stack = None
        if self.series is None:
            data = self.channels
            for axis, nodes in enumerate(axes):
                data[..., axis + 1] = np.gradient(self.values, nodes, axis=axis, edge_order=2)
            flat = data.reshape(-1, data.shape[-1])  # a view: one row of channels per node
        else:
            stack = _derivative_stack(self.series, lo, hi)

        def jet(z, t):
            x = np.empty((len(lo), len(z)))  # one contiguous row of coordinates per axis
            x[:m], x[m:] = z.T, t.T
            # NaN fails both tests; initial= lets an empty point set through
            if not ((x.min(1, initial=np.inf) >= lo).all()
                    and (x.max(1, initial=-np.inf) <= hi).all()):
                outside = ~np.all((x.T >= lo) & (x.T <= hi), axis=1)
                box = " x ".join(f"[{a:g}, {b:g}]" for a, b in zip(lo, hi))
                raise BadGrid(f"point {x.T[outside][0]} lies outside the FD solution box {box}")
            c = _multilinear(axes, flat, x) if stack is None else _series_jet(stack, lo, hi, x)
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


def _derivative_stack(series, lo, hi):
    """(N + 1, *series.shape): the tensor Chebyshev series of u on the box
    [lo, hi], then those of d_1 u, ..., d_N u (`chebder`, zero-padded)."""
    from numpy.polynomial.chebyshev import chebder

    stack = np.zeros((series.ndim + 1,) + series.shape)
    stack[0] = series
    for axis in range(series.ndim):
        d = chebder(series, scl=2.0 / (hi[axis] - lo[axis]), axis=axis)
        stack[(axis + 1,) + (slice(None),) * axis + (slice(0, d.shape[axis]),)] = d
    return stack


def _series_jet(stack, lo, hi, x):
    """The series of `_derivative_stack` summed at the points with
    coordinates x (one row per axis, inside the box [lo, hi]): one row of
    channels per point.  The t axis is contracted first, over the distinct
    t of the points only (a sphere rule has few), then the z axes, last
    first, on blocks of points that gather at most 2^20 coefficients."""
    from numpy.polynomial.chebyshev import chebvander

    s = (2.0 * x - (lo + hi)[:, None]) / (hi - lo)[:, None]  # the points in [-1, 1]^N
    t_values, where = np.unique(s[-1], return_inverse=True)
    at_t = np.tensordot(chebvander(t_values, stack.shape[-1] - 1), stack, axes=(1, -1))
    vander = [chebvander(sd, n - 1) for sd, n in zip(s[:-1], stack.shape[1:-1])]
    out = np.empty((x.shape[1], len(stack)))
    block = max(1, 2 ** 20 // math.prod(at_t.shape[1:]))
    for start in range(0, x.shape[1], block):
        part = slice(start, start + block)
        b = at_t[where[part]]  # (points, channels, *z lengths)
        for v in reversed(vander):
            b = np.einsum("p...i,pi->p...", b, v[part])
        out[part] = b
    return out


def cg(*args, **kwargs):
    """scipy's conjugate gradients, imported on the first call.  No solver
    calls it; `bench/tracing.py` wraps it by this name (`Tracer.install`)."""
    from scipy.sparse.linalg import cg as scipy_cg
    return scipy_cg(*args, **kwargs)


def fd_solve(spec, box, grid_sizes, boundary_fn, tol=1e-10):
    """Solve B_a u = 0 on a box with Dirichlet data `boundary_fn`, for
    N = m + k in {2, 3} (k = 1) and 5 to 257 nodes per axis.

    At integer alpha the coefficient |z|^(2a)/4 is a polynomial and B_a is
    hypoelliptic, so u is analytic inside the box, and tensor Chebyshev
    collocation (`_collocation_solve`) converges spectrally wherever the
    data let u be analytic up to the boundary.  When its series does not
    resolve within the caps that grid_sizes sets, and at any other alpha (u
    only finitely smooth at z = 0), the solution is the second-order FD
    scheme on exactly grid_sizes nodes (`_fd_scheme_solve`).  A relative residual above `tol` raises
    NoConvergence."""
    ndim = spec.m + spec.k
    if ndim not in (2, 3) or spec.k != 1:
        raise BadGrid("solver supports m in {1, 2} with k = 1")
    if len(box) != ndim or len(grid_sizes) != ndim:
        raise BadGrid("box/grid must have one entry per axis")
    if any(n < 5 or n > 257 for n in grid_sizes):
        raise BadGrid("grid sizes must be in [5, 257]")
    if not all(lo < hi for lo, hi in box):
        raise BadGrid(f"every box axis needs lo < hi, got {box}")
    if float(spec.alpha).is_integer():
        sol = _collocation_solve(spec, box, grid_sizes, boundary_fn, tol)
        if sol is not None:
            return sol
    return _fd_scheme_solve(spec, box, grid_sizes, boundary_fn, tol)


def _boundary_grid(axes, m, boundary_fn):
    """The full-grid array over the axes holding boundary_fn on the boundary
    nodes, where alone it is evaluated, and 0 at the interior nodes."""
    shape = tuple(len(ax) for ax in axes)
    mesh = [np.broadcast_to(x, shape) for x in np.meshgrid(*axes, indexing="ij", sparse=True)]
    edge = np.ones(shape, dtype=bool)
    edge[(slice(1, -1),) * len(axes)] = False
    full = np.zeros(shape)
    pts_z = np.stack([mesh[i][edge] for i in range(m)], axis=1)
    full[edge] = np.asarray(boundary_fn(pts_z, mesh[m][edge].reshape(-1, 1)), dtype=float).ravel()
    return full


def _collocation_solve(spec, box, grid_sizes, boundary_fn, tol):
    """Tensor Chebyshev-Lobatto collocation (Trefethen, Spectral Methods in
    MATLAB, SIAM 2000, ch. 6-7) on n + 1 nodes per axis, n doubled from 8
    until the series is resolved (`_resolved`), or None if it is not within
    the caps: per axis max(8, (size - 1) // 8), at most size - 1, so that
    the solves spent on data that does not resolve cost less than FD on
    `size` nodes per axis, and COLLOCATION_BYTES."""
    caps = [min(size - 1, max(8, (size - 1) // 8)) for size in grid_sizes]

    def sizes(n):
        return [min(n, cap) for cap in caps]

    n, solves = 8, 0
    while True:
        axes, full, resid = _collocation(spec, box, sizes(n), boundary_fn)
        solves += 1
        coeffs = _coefficients(full)
        if _resolved(coeffs):
            break
        bigger = 2 * n
        while bigger > n and _system_bytes(sizes(bigger)) > COLLOCATION_BYTES:
            bigger -= 1
        if sizes(bigger) == sizes(n):
            return None
        n = bigger
    if not resid <= tol:
        raise NoConvergence(
            f"collocation on {[len(ax) for ax in axes]} nodes left residual {resid:.3e} "
            f"after {solves} iterations (one solve per n), tolerance {tol}",
            iterations=solves, residual=resid)
    return GridSolution(spec=spec, axes=tuple(axes), channels=full[..., None], residual=resid,
                        iterations=solves, series=_chop(coeffs))


def _system_bytes(sizes):
    """Bytes of the z-system matrices that one collocation solve on n + 1
    nodes per axis (`sizes`: the n) stacks for its batched solve."""
    *nz, nt = [n - 1 for n in sizes]
    return 8 * nt * math.prod(nz) ** 2


def _chebyshev_axis(n, lo, hi):
    """The n + 1 Chebyshev-Lobatto nodes of [lo, hi], ascending and with the
    ends exactly lo and hi, and the differentiation matrix on them
    (Trefethen 2000, ch. 6, with the diagonal as minus the off-diagonal
    row sums)."""
    x = np.sin(np.pi * np.arange(-n, n + 1, 2) / (2 * n))  # -cos(j pi / n), symmetric
    c = np.ones(n + 1)
    c[[0, -1]] = 2.0
    c[1::2] *= -1.0
    d = np.outer(c, 1.0 / c) / (x[:, None] - x + np.eye(n + 1))
    d -= np.diag(d.sum(axis=1))
    nodes = (lo + hi) / 2.0 + (hi - lo) / 2.0 * x
    nodes[[0, -1]] = lo, hi
    return nodes, d * (2.0 / (hi - lo))


def _collocation(spec, box, sizes, boundary_fn):
    """One collocation solve on sizes[i] + 1 nodes per axis: returns the
    axes, u on the full grid and the relative residual of the scheme."""
    m = spec.m
    axes, d2 = [], []
    for n, (lo, hi) in zip(sizes, box):
        nodes, d = _chebyshev_axis(n, lo, hi)
        axes.append(nodes)
        d2.append(d @ d)
    full = _boundary_grid(axes, m, boundary_fn)
    interior = (slice(1, -1),) * len(axes)
    zs = np.meshgrid(*[ax[1:-1] for ax in axes[:m]], indexing="ij")
    coeff = sum(z ** 2 for z in zs) ** int(spec.alpha) / 4.0

    def scheme(g):
        # B_a of the full-grid array g at the interior nodes: the interior
        # rows of each axis's second-derivative matrix, applied along it
        out = np.zeros(coeff.shape + (sizes[-1] - 1,))
        for axis, mat in enumerate(d2):
            index = list(interior)
            index[axis] = slice(None)
            term = np.moveaxis(np.tensordot(mat[1:-1], g[tuple(index)], axes=(1, axis)), 0, axis)
            out += coeff[..., None] * term if axis >= m else term
        return out

    rhs = -scheme(full)
    full[interior] = _mode_solve([mat[1:-1, 1:-1] for mat in d2], coeff, rhs)
    resid = float(np.linalg.norm(scheme(full))) / (float(np.linalg.norm(rhs)) or 1.0)
    return axes, full, resid


def _mode_solve(blocks, coeff, rhs):
    """The interior u of the collocation system sum_i A_i u + c(z) A_t u =
    rhs, each interior second-derivative block A applied along its axis.
    A_t = V diag(lam) V^-1 (`eig`; real for Chebyshev), so t-mode j leaves
    (A_z + lam_j diag(c)) w_j = (rhs V^-T)_j, and all of them are one
    batched `solve`."""
    *a_z, a_t = blocks
    lam, vec = np.linalg.eig(a_t)
    modes = rhs @ np.linalg.inv(vec).T  # (*z, t-modes)
    lap = a_z[0]
    if len(a_z) == 2:
        lap = np.kron(a_z[0], np.eye(len(a_z[1]))) + np.kron(np.eye(len(a_z[0])), a_z[1])
    flat = modes.reshape(-1, len(lam)).T[..., None]
    w = np.linalg.solve(_shifted(lap, lam[:, None] * coeff.ravel()), flat)
    return (w[..., 0].T.reshape(modes.shape) @ vec.T).real


def _shifted(base, diagonals):
    """The stack of base + diag(d) over the rows d of `diagonals`, built in
    one allocation."""
    out = np.empty(diagonals.shape[:-1] + base.shape, dtype=np.result_type(base, diagonals))
    out[...] = base
    i = np.arange(len(base))
    out[..., i, i] += diagonals
    return out


def _coefficients(values):
    """The tensor Chebyshev coefficients of u from its values on the
    ascending Lobatto nodes: a DCT-I per axis, by FFT."""
    c = values
    for axis in range(values.ndim):
        v = np.moveaxis(c, axis, -1)
        n = v.shape[-1] - 1
        f = np.fft.rfft(np.concatenate([v, v[..., -2:0:-1]], axis=-1)).real / n
        f[..., [0, n]] /= 2.0
        f[..., 1::2] *= -1.0  # ascending nodes: T_k(-x) = (-1)^k T_k(x)
        c = np.moveaxis(f, -1, axis)
    return c


def _resolved(c):
    """Whether the series c resolves u: on every axis the coefficients of
    the two highest degrees (one of each parity) are at most RESOLVED
    max|c|.  As any test on a finite series, a gap in u's spectrum that
    aliases onto low degrees can fool it."""
    top = RESOLVED * np.max(np.abs(c))
    return all(np.max(np.abs(np.moveaxis(c, axis, 0)[-2:])) <= top for axis in range(c.ndim))


def _chop(c):
    """The coefficients c cut where round-off begins (Aurentz & Trefethen,
    ACM TOMS 43, 2017): each axis after its last index holding a
    coefficient above eps n^2 max|c| (n the largest degree), and every
    coefficient below that set to 0.  The round-off measured in these
    coefficients on polynomial data, n = 8 ... 256 in 2-D and to 48 in
    3-D, is 2e-16 ... 4e-13, 9x or more below the cut."""
    big = np.abs(c) > np.finfo(float).eps * (max(c.shape) - 1) ** 2 * np.max(np.abs(c))
    lengths = []
    for axis in range(c.ndim):
        kept = np.flatnonzero(big.any(axis=tuple(a for a in range(c.ndim) if a != axis)))
        lengths.append(kept[-1] + 1 if kept.size else 1)
    return np.where(big, c, 0.0)[tuple(slice(0, n) for n in lengths)]


def _fd_scheme_solve(spec, box, grid_sizes, boundary_fn, tol):
    """The FD path of `fd_solve`: one application of the scheme's exact
    inverse, counted as one iteration.

    `stencil` is the scheme: the second-order centred B_a stencil at the
    interior nodes of a full-grid array, with the degenerate coefficient
    |z|^(2a)/4 on the t-differences only, so the (negated) operator is
    symmetric positive definite.  It gives the right-hand side (the stencil
    of the boundary data) and the residual.  The coefficient depends on z
    only and the t axis is uniform with Dirichlet ends, so an orthonormal
    DST-I in t (`_dst`) diagonalises the t-difference (fast
    diagonalisation, Lynch, Rice & Thomas 1964) and leaves one SPD system
    in z per t-mode: all z_1 systems are one tridiagonal solve where the
    coefficient separates, c(z) = sum_i c_i(z_i) (m = 1, or alpha = 1,
    with z_2 diagonalised too: `_separable_mode_solver`), else per mode one
    banded Cholesky solve (`_banded_mode_solver`)."""
    m = spec.m
    ndim = m + spec.k
    axes = tuple(np.linspace(lo, hi, n) for (lo, hi), n in zip(box, grid_sizes))
    steps = [ax[1] - ax[0] for ax in axes]
    ni = tuple(n - 2 for n in grid_sizes)
    interior = (slice(1, -1),) * ndim

    full = _boundary_grid(axes, m, boundary_fn)

    zmesh = np.meshgrid(*[ax[1:-1] for ax in axes[:m]], indexing="ij")
    coeff = (sum(z ** 2 for z in zmesh) ** spec.alpha / 4.0)[..., None]

    def stencil(g):
        # the centred B_a stencil of the full-grid array g at the interior
        # nodes: per axis (g_lo - 2 g + g_hi) / h^2, in place in one temporary
        out, d2 = np.zeros(ni), np.empty(ni)
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

    # exact inverse of the negated stencil: d2_t = S diag(lam) S with S the
    # orthonormal DST-I, so t-mode j leaves the SPD system -lap_zz - lam_j diag(c) in z
    n_t = ni[-1]
    lam = -(2.0 / steps[-1] * np.sin(np.arange(1, n_t + 1) * np.pi / (2 * (n_t + 1)))) ** 2
    if m == 1 or spec.alpha == 1:
        # c(z) = sum_i c_i(z_i) with c_i = |z_i|^(2a)/4
        terms = [(ax[1:-1] ** 2) ** spec.alpha / 4.0 for ax in axes[:m]]
        solve_modes = _separable_mode_solver(steps[:m], terms, lam)
    else:
        solve_modes = _banded_mode_solver(steps[:m], coeff[..., 0], lam)

    def inverse(r):
        return _dst(solve_modes(_dst(r.reshape(-1, n_t)))).reshape(ni)

    b = stencil(full)
    full[interior] = inverse(b)
    if m == 2 and spec.alpha == 1:
        # the z_2 eigenvectors are backward stable only normwise: one step of
        # iterative refinement against the stencil wins back the digits lost
        full[interior] += inverse(stencil(full))
    resid = float(np.linalg.norm(stencil(full))) / (float(np.linalg.norm(b)) or 1.0)
    if not resid <= tol:
        raise NoConvergence(f"the FD solve left residual {resid:.3e} after 1 iterations "
                            f"(one exact solve), tolerance {tol}", iterations=1, residual=resid)

    channels = np.empty(full.shape + (ndim + 1,))
    channels[..., 0] = full
    return GridSolution(spec=spec, axes=axes, channels=channels, residual=resid, iterations=1)


def _dst(x):
    """The orthonormal DST-I of the rows of x, its own inverse: one `rfft` of
    their odd extensions, as `_coefficients` computes the DCT-I."""
    n, zero = x.shape[-1], np.zeros(x.shape[:-1] + (1,))
    f = np.fft.rfft(np.concatenate([zero, x, zero, -x[..., ::-1]], axis=-1))
    return f.imag[..., 1:n + 1] * -math.sqrt(0.5 / (n + 1))


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
