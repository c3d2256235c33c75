import gc
import weakref
from fractions import Fraction

import numpy as np
import pytest

import oracles
import subfreq as sf
from subfreq import fixtures
from subfreq.errors import (
    BadGrid,
    DimensionMismatch,
    NoConvergence,
    NonIntegerAlpha,
    OriginSingularity,
    ParseError,
)
from subfreq.frequency import FunctionHandle
from subfreq.polynomials import Polynomial


def mixed_fixture(spec):
    t = Polynomial.t_var(spec.m, spec.k, 0, tweight=spec.tweight)
    return t + sf.solid_harmonic_quadratic(spec) * Fraction(1, 10)


def test_spec_validation():
    with pytest.raises(DimensionMismatch):
        sf.BaouendiSpec(0, 1, 1)
    with pytest.raises(DimensionMismatch):
        sf.BaouendiSpec(1, 1, -2.0)
    spec = sf.BaouendiSpec(1, 2, 2)
    assert spec.N == 3
    assert spec.Q == 1 + 3 * 2


def test_integer_alpha_gate():
    assert sf.BaouendiSpec(1, 1, 2.0).tweight == 3
    with pytest.raises(NonIntegerAlpha):
        sf.BaouendiSpec(1, 1, 1.5).tweight


def test_polynomial_handle_needs_integer_alpha_and_matching_weight():
    # |grad_H t|^2 = |z|^3 / 4 for a = 1.5: no polynomial handle, and the
    # alpha is not truncated to 1 (which would give |z|^2 / 4)
    spec = sf.BaouendiSpec(1, 1, 1.5)
    with pytest.raises(NonIntegerAlpha):
        FunctionHandle.from_polynomial(spec, Polynomial.t_var(1, 1, 0, tweight=2))
    with pytest.raises(DimensionMismatch):
        FunctionHandle.from_polynomial(sf.BaouendiSpec(1, 1, 2),
                                       Polynomial.t_var(1, 1, 0, tweight=2))
    box = oracles.callable_handle(spec, lambda z, t: t[:, 0])
    assert box.grad_sq(np.array([[0.5]]), np.array([[0.0]]))[0] == pytest.approx(
        0.5 ** 3 / 4.0, rel=1e-7)


@pytest.mark.parametrize("dims", [(2, 1, 1), (1, 1, 2)])
def test_polynomial_handle_center_needs_group_law(dims):
    # B_a has no group law, so there is no left translation to a center
    from subfreq.groups import Point
    spec = sf.BaouendiSpec(*dims)
    p = Polynomial.z_var(spec.m, 1, 0, tweight=spec.tweight)
    with pytest.raises(DimensionMismatch, match="no group law"):
        FunctionHandle.from_polynomial(spec, p, center=Point((0,) * spec.m, (1,)))


@pytest.mark.parametrize("dims", [(1, 1, 1), (1, 1, 2), (2, 1, 1)])
def test_horizontal_grad_sq_is_carre_du_champ(dims):
    # (B_a(p^2) - 2 p B_a p) / 2 = |d_z p|^2 + |z|^(2a)/4 |d_t p|^2, exactly,
    # on non-harmonic p; the numeric horizontal_grad_sq agrees with it
    spec = sf.BaouendiSpec(*dims)
    rng = np.random.default_rng(5)
    z, t = rng.uniform(-1.0, 1.0, (16, spec.m)), rng.uniform(-1.0, 1.0, (16, spec.k))
    for _ in range(4):
        p = oracles.random_polynomial(rng, spec.m, spec.k, tweight=spec.alpha + 1,
                                      max_degree=4, n_terms=4)
        assert not sf.baouendi_apply(spec, p).is_zero()
        grad_sq = sf.carre_du_champ(spec, p)
        assert grad_sq == oracles.grad_sq_by_partials(spec, p)
        numeric = spec.horizontal_grad_sq([p.diff_z(i).evaluate(z, t) for i in range(spec.m)],
                                          [p.diff_t(j).evaluate(z, t) for j in range(spec.k)],
                                          z)
        np.testing.assert_allclose(numeric, grad_sq.evaluate(z, t), rtol=1e-12, atol=1e-12)


def test_gauge_homogeneity(ba112):
    z = np.array([[0.4], [1.0]])
    t = np.array([[0.3], [-0.2]])
    rho = ba112.rho(z, t)
    for lam in (0.5, 2.0):
        zl, tl = ba112.dilate(lam, z, t)
        np.testing.assert_allclose(ba112.rho(zl, tl), lam * rho,
                                   rtol=1e-12)


def test_gauge_reduces_to_group_case(h1, ba211):
    # alpha = 1 gauge on R^2 x R coincides with the H^1 Koranyi gauge
    from subfreq.groups import Point
    rng = np.random.default_rng(0)
    z = rng.normal(size=(10, 2))
    t = rng.normal(size=(10, 1))
    rho = ba211.rho(z, t)
    for i in range(10):
        assert rho[i] == pytest.approx(
            sf.gauge(h1, Point(tuple(z[i]), tuple(t[i]))), rel=1e-12)
    # one geometry: the H^1 rule and the (2, 1, 1) rule are the same rule
    for res in (8, 16, 32):
        group_rule = sf.build_sphere_rule(h1, res)
        spec_rule = sf.build_sphere_rule(ba211, res)
        for name in ("z", "t", "weights", "psi"):
            assert np.array_equal(getattr(group_rule, name), getattr(spec_rule, name))
        assert group_rule.Q == spec_rule.Q
        assert group_rule.gamma == spec_rule.gamma


def test_psi_alpha_range_and_singularity(ba112):
    z = np.array([[0.5], [0.01]])
    t = np.array([[0.1], [0.9]])
    psi = oracles.psi(ba112, z, t)
    assert np.all((psi >= 0.0) & (psi <= 1.0))
    with pytest.raises(OriginSingularity):
        oracles.psi(ba112, np.array([[0.0]]), np.array([[0.0]]))


def test_solid_harmonic_quadratic_constants():
    # derived, not hard-coded: P = |z|^(2(alpha+1)) - A |t|^2 with
    # A = 4(alpha+1)(2 alpha + m)/k
    for dims, A in (((1, 1, 2), 60), ((2, 1, 1), 32), ((3, 2, 1), 20)):
        m, k, alpha = dims
        lead = Polynomial.z_norm_sq(m, k, alpha + 1) ** (alpha + 1)
        t_sq = Polynomial.t_norm_sq(m, k, alpha + 1)
        assert sf.solid_harmonic_quadratic(sf.BaouendiSpec(*dims)) == lead - t_sq * A


def test_solid_harmonic_annihilated(ba112):
    p = sf.solid_harmonic_quadratic(ba112)
    assert sf.baouendi_apply(ba112, p).is_zero()
    assert sf.euler(p) == p * (2 * ba112.tweight)


def test_alpha_one_matches_group_quartic(h1, ba211):
    # the alpha=1 quadratic solid harmonic is the cylindrical quartic
    from subfreq import fixtures
    assert sf.solid_harmonic_quadratic(ba211) == fixtures.quartic_cylindrical(h1)


def test_z_alpha_on_homogeneous(ba112):
    # Z_a = z . d_z + (a+1) t . d_t, exactly and as the handle's Zu
    p = sf.solid_harmonic_quadratic(ba112)
    assert FunctionHandle.from_polynomial(ba112, p).zu == sf.euler(p) == p * 6


def test_orthogonality(ba112, rule_ba112):
    p1 = Polynomial.z_var(1, 1, 0, tweight=3)
    pq = sf.solid_harmonic_quadratic(ba112)
    inner = sf.orthogonality_check(ba112, p1, pq, 1.0, rule_ba112)
    n1 = abs(sf.orthogonality_check(ba112, p1, p1, 1.0, rule_ba112)) ** 0.5
    n2 = abs(sf.orthogonality_check(ba112, pq, pq, 1.0, rule_ba112)) ** 0.5
    assert abs(inner) <= 1e-10 * n1 * n2


def test_orthogonality_rejects_polynomials_outside_the_spec(ba112, rule_ba112):
    pq = sf.solid_harmonic_quadratic(ba112)
    for wrong in (Polynomial.z_var(1, 1, 0),                # layer weight 2, not 3
                  Polynomial.z_var(2, 1, 0, tweight=3),     # m = 2, not 1
                  Polynomial.t_var(1, 2, 0, tweight=3)):    # k = 2, not 1
        with pytest.raises(DimensionMismatch):
            sf.orthogonality_check(ba112, wrong, pq, 1.0, rule_ba112)
        with pytest.raises(DimensionMismatch):
            sf.orthogonality_check(ba112, pq, wrong, 1.0, rule_ba112)
    with pytest.raises(NonIntegerAlpha):
        sf.orthogonality_check(sf.BaouendiSpec(1, 1, 1.5), pq, pq, 1.0, rule_ba112)


def test_frequency_of_solid_harmonics(ba112, rule_ba112):
    cases = [(Polynomial.z_var(1, 1, 0, tweight=3), 1),
             (Polynomial.t_var(1, 1, 0, tweight=3), 3),
             (sf.solid_harmonic_quadratic(ba112), 6)]
    for p, kappa in cases:
        for r in (0.4, 1.0):
            u = FunctionHandle.from_polynomial(ba112, p)
            assert sf.frequency(u, r, rule_ba112) == pytest.approx(kappa, rel=1e-9)


def test_weiss_derivative_identity(ba112, rule_ba112):
    radii = sf.geometric_radii(0.3, 1.0, 16)
    res = sf.check_weiss_derivative(
        FunctionHandle.from_polynomial(ba112, mixed_fixture(ba112)),
        3, radii, rule_ba112)
    assert np.max(res["residuals"]) < 1e-2


def test_monneau_derivative_and_monotone(ba112, rule_ba112):
    radii = sf.geometric_radii(0.3, 1.0, 16)
    t = Polynomial.t_var(1, 1, 0, tweight=3)
    res = sf.check_monneau_derivative(
        FunctionHandle.from_polynomial(ba112, mixed_fixture(ba112)),
        FunctionHandle.from_polynomial(ba112, t), 3, radii, rule_ba112)
    assert np.max(res["residuals"]) < 1e-2
    assert np.all(np.diff(res["M"]) >= -1e-5)
    assert res["nondecreasing"]


def test_d_variation_without_discrepancy_term(ba112, ba211, rule_ba112, rule_ba211):
    # E_u vanishes identically for B_a, so the first variation holds without it
    radii = sf.geometric_radii(0.5, 1.0, 16)
    for spec, rule in ((ba112, rule_ba112), (ba211, rule_ba211)):
        u = FunctionHandle.from_polynomial(spec, mixed_fixture(spec))
        assert np.max(sf.check_D_variation(u, radii, rule)["residuals"]) <= 1e-2


def test_discrepancy_numerator_has_the_layer_weight(ba112):
    u = FunctionHandle.from_polynomial(ba112, mixed_fixture(ba112))
    assert (u.zu * u.disc).is_zero()
    assert u.disc.tweight == u.poly.tweight
    # a callable handle still builds for a non-integer alpha
    box = oracles.callable_handle(sf.BaouendiSpec(1, 1, 1.5), lambda z, t: t[:, 0])
    assert box.disc.is_zero()


def test_normalization_constant_estimators_agree(ba112):
    value = sf.gauge_constant(ba112.m, ba112.k, float(ba112.alpha))
    mc, mc_stderr = oracles.gauge_constant_mc(ba112.m, ba112.k, float(ba112.alpha),
                                              samples=300_000, seed=3)
    assert abs(mc - value) < 4.0 * mc_stderr + 1e-4 * value


# -- finite-difference solver ----------------------------------------------


def test_fd_solver_guards(ba112):
    with pytest.raises(BadGrid):
        sf.fd_solve(sf.BaouendiSpec(3, 1, 1), [(-1, 1)] * 4, [9] * 4,
                    lambda z, t: np.zeros(len(z)))
    with pytest.raises(BadGrid):
        sf.fd_solve(ba112, [(-1, 1)] * 2, [9, 300], lambda z, t: np.zeros(len(z)))
    with pytest.raises(BadGrid):
        sf.fd_solve(ba112, [(-1, 1)], [9, 9], lambda z, t: np.zeros(len(z)))

    def boundary(z, t):
        raise AssertionError("boundary data evaluated on a degenerate box")

    # empty and reversed axes are rejected before anything is allocated
    for box in ([(0, 0), (-1, 1)], [(1, -1), (-1, 1)], [(-1, 1), (1, 1)]):
        with pytest.raises(BadGrid, match="lo < hi"):
            sf.fd_solve(ba112, box, [9, 9], boundary)


def _nodal_error(sol, exact):
    """max |u - exact| over the nodes of a grid solution."""
    mesh = np.meshgrid(*sol.axes, indexing="ij")
    m = sol.spec.m
    zs = np.stack([mesh[i].ravel() for i in range(m)], axis=1)
    ts = np.stack([x.ravel() for x in mesh[m:]], axis=1)
    return np.max(np.abs(sol.values - np.reshape(exact(zs, ts), sol.values.shape)))


def _quadratic_jet(spec, c=0.1):
    """The jet of t + c (|z|^(2(a+1)) - A t^2), A = 4 (a+1) (2a + m) (k = 1):
    the B_a-harmonic `mixed_fixture` at any alpha, with exact partials (no
    Polynomial off the integers)."""
    a = spec.alpha
    big_a = 4.0 * (a + 1.0) * (2.0 * a + spec.m)

    def jet(z, t):
        z2 = np.sum(z ** 2, axis=1)
        value = t[:, 0] + c * (z2 ** (a + 1.0) - big_a * t[:, 0] ** 2)
        dz = [2.0 * c * (a + 1.0) * z2 ** a * z[:, i] for i in range(spec.m)]
        return value, dz, [1.0 - 2.0 * c * big_a * t[:, 0]]

    return jet


def _quadratic_solution(spec, c=0.1):
    """The value of `_quadratic_jet`."""
    jet = _quadratic_jet(spec, c)
    return lambda z, t: jet(z, t)[0]


@pytest.mark.parametrize("dims, sizes", [((1, 1, 2), (33, 65)), ((2, 1, 1), (17, 33))],
                         ids=["ba112", "ba211"])
def test_fd_reproduces_exact_solution(dims, sizes):
    # manufactured solution in the kernel of B_a, boundary data and exact
    # reference at once.  Integer alpha: collocation reproduces the
    # polynomial to round-off on at most 17 nodes per axis, whatever the
    # grid.  alpha + 1/2: FD converges at second order
    spec = sf.BaouendiSpec(*dims)
    exact = mixed_fixture(spec).evaluate
    box = [(-1.0, 1.0)] * spec.N
    for n in sizes:
        sol = sf.fd_solve(spec, box, [n] * spec.N, exact)
        assert sol.series is not None and max(len(ax) for ax in sol.axes) <= 17
        assert _nodal_error(sol, exact) <= 1e-13 * np.max(np.abs(sol.values))
    half = sf.BaouendiSpec(spec.m, spec.k, spec.alpha + 0.5)
    exact = _quadratic_solution(half)
    errs = [_nodal_error(sf.fd_solve(half, box, [n] * spec.N, exact), exact) for n in sizes]
    assert errs[1] < 1e-3
    assert errs[0] / errs[1] > 3.0


def test_fd_solver_3d(ba211):
    exact = Polynomial.z_var(2, 1, 0, tweight=2)  # harmonic, trivially
    box = [(-0.8, 0.8)] * 3
    sol = sf.fd_solve(ba211, box, [17, 17, 17], exact.evaluate)
    mesh = np.meshgrid(*sol.axes, indexing="ij")
    zs = np.stack([mesh[0].ravel(), mesh[1].ravel()], axis=1)
    ts = mesh[2].ravel()[:, None]
    ref = exact.evaluate(zs, ts).reshape(sol.values.shape)
    assert np.max(np.abs(sol.values - ref)) < 1e-8


def test_fd_handle_minus_polynomial_reads_the_handle_partials(ba112, rule_ba112):
    # Zu of u - P is Zu - ZP: the FD handle's interpolated partials minus the
    # exact partials of P, not differences of the piecewise-linear u - P
    sol = sf.fd_solve(ba112, [(-1.0, 1.0)] * 2, [33, 33], mixed_fixture(ba112).evaluate)
    u = sol.as_handle()
    p = FunctionHandle.from_polynomial(ba112, Polynomial.t_var(1, 1, 0, tweight=3))
    z, t = ba112.dilate(0.5, rule_ba112.z, rule_ba112.t)
    diff = u.shifted_by(p)
    np.testing.assert_allclose(diff.value(z, t), u.value(z, t) - p.value(z, t), rtol=0, atol=1e-15)
    np.testing.assert_allclose(diff.zu(z, t), u.zu(z, t) - p.zu(z, t), rtol=0, atol=1e-14)


def test_fd_handle_minus_itself_is_exactly_zero(ba112, rule_ba112):
    # the difference of two equal jets: value, partials and so |grad_H u|^2
    # and Zu vanish bit for bit
    u = sf.fd_solve(ba112, [(-1.0, 1.0)] * 2, [17, 17], mixed_fixture(ba112).evaluate).as_handle()
    zero = u.shifted_by(u)
    z, t = ba112.dilate(0.5, rule_ba112.z, rule_ba112.t)
    for f in (zero.value, zero.grad_sq, zero.zu):
        assert np.array_equal(f(z, t), np.zeros(len(rule_ba112)))


def _generic_boundary(z, t):
    # not B_a-harmonic, so the interior solution is no polynomial
    return np.exp(z[:, 0] - 0.5 * z[:, -1]) + np.sin(3.0 * t[:, 0])


def _stencil_residual(spec, sol):
    """Relative residual of the FD scheme on the interior nodes,
    independently of the solver: the centred B_a stencil applied to
    sol.values by slicing, relative to the larger of its two terms."""
    u = sol.values
    inner = (slice(1, -1),) * u.ndim

    def second_difference(axis):
        lo, hi = list(inner), list(inner)
        lo[axis], hi[axis] = slice(None, -2), slice(2, None)
        h = sol.axes[axis][1] - sol.axes[axis][0]
        return (u[tuple(lo)] - 2.0 * u[inner] + u[tuple(hi)]) / h ** 2

    zs = np.meshgrid(*[ax[1:-1] for ax in sol.axes[:spec.m]], indexing="ij")
    coeff = (sum(z ** 2 for z in zs) ** spec.alpha / 4.0)[..., None]
    lap_z = sum(second_difference(i) for i in range(spec.m))
    lap_t = coeff * sum(second_difference(spec.m + j) for j in range(spec.k))
    scale = max(np.max(np.abs(lap_z)), np.max(np.abs(lap_t)))
    return np.max(np.abs(lap_z + lap_t)) / scale


@pytest.mark.parametrize("dims, alpha, box, grid", [
    ((1, 1), 2, [(-1.0, 1.0), (-0.5, 0.7)], [33, 65]),
    ((1, 1), 1.5, [(-1.0, 1.0), (-0.5, 0.7)], [33, 65]),
    ((1, 1), 0.75, [(-1.0, 1.0), (-0.5, 0.7)], [33, 65]),
    ((2, 1), 1, [(-1.0, 1.0), (-0.6, 0.8), (-0.5, 0.7)], [17, 9, 21]),
    ((2, 1), 3, [(-1.0, 1.0), (-0.6, 0.8), (-0.5, 0.7)], [17, 9, 21]),
])
def test_fd_solution_satisfies_stencil(dims, alpha, box, grid):
    # generic data leave corner singularities, which no Chebyshev series on
    # these grids resolves, so integer alpha takes the FD scheme too
    spec = sf.BaouendiSpec(*dims, alpha)
    sol = sf.fd_solve(spec, box, grid, _generic_boundary)
    assert sol.series is None and [len(ax) for ax in sol.axes] == grid
    assert _stencil_residual(spec, sol) <= 1e-10


@pytest.mark.parametrize("dims, grid", [((1, 1, 2.5), [257, 257]), ((2, 1, 2.5), [33, 33, 65]),
                                        ((2, 1, 1.5), [33, 33, 65])])
def test_fd_solver_converges_in_one_or_two_iterations(dims, grid):
    # the FD path (non-integer alpha) applies the exact inverse of the
    # scheme once; a wrong mode eigenvalue or band shows here as a residual
    # far above round-off
    spec = sf.BaouendiSpec(*dims)
    sol = sf.fd_solve(spec, [(-1.0, 1.0)] * len(grid), grid, _generic_boundary)
    assert sol.iterations == 1
    assert sol.residual <= 1e-13


@pytest.mark.parametrize("dims, box, grid", [
    ((1, 1, 2), [(-1.0, 0.8), (-0.5, 0.7)], [33, 41]),
    ((2, 1, 1), [(-1.0, 0.8), (-0.6, 0.9), (-0.5, 0.7)], [17, 11, 21]),
    ((2, 1, 3), [(-1.0, 0.8), (-0.6, 0.9), (-0.5, 0.7)], [17, 11, 21]),
    ((1, 1, 2.5), [(-1.0, 0.8), (-0.5, 0.7)], [33, 41]),
    ((2, 1, 1.5), [(-1.0, 0.8), (-0.6, 0.9), (-0.5, 0.7)], [17, 11, 21]),
    ((2, 1, 3.5), [(-1.0, 0.8), (-0.6, 0.9), (-0.5, 0.7)], [17, 11, 21]),
], ids=["ba112", "ba211", "ba213", "ba1-1-2.5", "ba2-1-1.5", "ba2-1-3.5"])
def test_fd_solve_matches_sparse_direct_solve(dims, box, grid):
    # non-symmetric boxes and unequal grids, against the FD scheme assembled
    # as a sparse matrix and solved directly (generic data take the FD
    # scheme at every alpha)
    spec = sf.BaouendiSpec(*dims)
    sol = sf.fd_solve(spec, box, grid, _generic_boundary)
    ref = oracles.fd_sparse_solution(spec, box, grid, _generic_boundary)
    assert np.max(np.abs(sol.values - ref)) <= 1e-12 * np.max(np.abs(ref))


def _forbid_fd(monkeypatch):
    """Make the FD fallback of fd_solve fail: a series that does not resolve
    would otherwise be solved by FD on a large grid."""
    from subfreq import baouendi

    def no_fd(*args):
        raise AssertionError("the Chebyshev series did not resolve")

    monkeypatch.setattr(baouendi, "_fd_scheme_solve", no_fd)


@pytest.mark.parametrize("dims, box, grid", [
    ((1, 1, 2), [(-1.0, 0.8), (-0.5, 0.7)], [129, 113]),
    ((2, 1, 1), [(-1.0, 0.8), (-0.6, 0.9), (-0.5, 0.7)], [129, 113, 137]),
    ((2, 1, 3), [(-1.0, 0.8), (-0.6, 0.9), (-0.5, 0.7)], [129, 113, 137]),
], ids=["ba112", "ba211", "ba213"])
def test_collocation_solve_matches_sparse_direct_solve(monkeypatch, dims, box, grid):
    # the same boxes, unequal node counts (caps 16, 14 and 17 per axis), and
    # analytic data (the pole solution, its pole far off), against the
    # collocation scheme on the solution's own nodes assembled as a sparse
    # matrix and solved directly
    _forbid_fd(monkeypatch)
    spec = sf.BaouendiSpec(*dims)
    value, _ = oracles.pole_solution(spec, pole=30.0)
    sol = sf.fd_solve(spec, box, grid, value)
    assert len({len(ax) for ax in sol.axes}) == 2
    ref = oracles.collocation_sparse_solution(spec, sol.axes, value)
    assert np.max(np.abs(sol.values - ref)) <= 1e-12 * np.max(np.abs(ref))


def _band_rows_of_solves(monkeypatch, spec, grid):
    """The number of band rows of every `solveh_banded` call of one fd_solve
    (the mode solvers import it from scipy.linalg when they are built)."""
    import scipy.linalg

    rows = []
    solve = scipy.linalg.solveh_banded

    def recording(ab, b, **kwargs):
        rows.append(len(ab))
        return solve(ab, b, **kwargs)

    monkeypatch.setattr(scipy.linalg, "solveh_banded", recording)
    sf.fd_solve(spec, [(-1.0, 1.0)] * len(grid), grid, _generic_boundary)
    return rows


def test_separable_coefficient_takes_the_tridiagonal_path(monkeypatch):
    # the FD scheme (generic data, which no series resolves here): where the
    # coefficient separates (m = 1, or alpha = 1) every z_1 system is
    # tridiagonal (2 band rows); m = 2 at any other alpha takes one banded
    # Cholesky per t-mode, kd = n_2
    for dims in ((1, 1, 1.5), (1, 1, 2)):
        rows = _band_rows_of_solves(monkeypatch, sf.BaouendiSpec(*dims), [13, 17])
        assert rows and max(rows) <= 2
    rows = _band_rows_of_solves(monkeypatch, sf.BaouendiSpec(2, 1, 1), [13, 11, 17])
    assert rows and max(rows) <= 2
    for alpha in (1.5, 2):
        rows = _band_rows_of_solves(monkeypatch, sf.BaouendiSpec(2, 1, alpha), [13, 11, 17])
        assert rows and set(rows) == {11 - 2 + 1}


def test_collocation_solves_all_t_modes_in_one_batched_call(monkeypatch):
    # each collocation solve is one batched solve of one z system of size
    # n_1 n_2 per t-mode, at alpha 1 and 2 alike
    sizes = []
    solve = np.linalg.solve

    def recording(a, b):
        sizes.append((a.shape[:-2], a.shape[-1]))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", recording)
    for alpha in (1, 2):
        spec = sf.BaouendiSpec(2, 1, alpha)
        value, _ = oracles.pole_solution(spec, pole=10.0)
        sizes.clear()
        sol = sf.fd_solve(spec, [(-1.0, 1.0)] * 3, [129, 113, 137], value)
        n1, n2, nt = (len(ax) - 2 for ax in sol.axes)
        assert sol.series is not None and len(sizes) == sol.iterations >= 2
        assert sizes[-1] == ((nt,), n1 * n2)


def test_diagonalised_z2_path_is_refined_to_round_off():
    # the FD scheme at alpha = 1 (generic data, which no series resolves
    # here): the z_2 eigenvectors are backward stable only normwise; one
    # refinement step against the stencil brings the residual to about
    # 6e-16 here (about 4e-15 without it), within the one exact solve
    sol = sf.fd_solve(sf.BaouendiSpec(2, 1, 1), [(-1.0, 1.0)] * 3, [33, 33, 65],
                      _generic_boundary)
    assert sol.series is None
    assert sol.iterations == 1
    assert sol.residual <= 1.5e-15


def test_fd_no_convergence_carries_iterations_and_residual(ba112):
    with pytest.raises(NoConvergence) as exc:
        sf.fd_solve(ba112, [(-1.0, 1.0)] * 2, [33, 33], _generic_boundary, tol=0.0)
    assert exc.value.residual > 0.0
    assert exc.value.iterations == 1
    assert "iterations" in str(exc.value) and "residual" in str(exc.value)


def test_grid_solution_frequency_close_to_exact(ba112, rule_ba112):
    exact = mixed_fixture(ba112)
    sol = sf.fd_solve(ba112, [(-1.0, 1.0), (-1.0, 1.0)], [129, 129],
                      exact.evaluate)
    u_fd = sol.as_handle()
    u_ex = FunctionHandle.from_polynomial(ba112, exact)
    for r in (0.3, 0.5):
        n_fd = sf.frequency(u_fd, r, rule_ba112)
        n_ex = sf.frequency(u_ex, r, rule_ba112)
        assert n_fd == pytest.approx(n_ex, rel=0.05)


def test_fd_curve_frequency_from_spheres_is_closer_than_from_the_ball():
    # the FD path (non-integer alpha), on the benchmark's 129^2 problem and
    # radii with alpha 2.5: N = I / H (the curve of a grid solution) is
    # nowhere farther from the exact curve than N = r D / H with the ball D
    # of `dirichlet`
    spec = sf.BaouendiSpec(1, 1, 2.5)
    rule = sf.build_sphere_rule(spec, 32)
    jet = _quadratic_jet(spec, 1.0 / 3.0)
    u = sf.fd_solve(spec, [(-1.0, 1.0)] * 2, [129, 129], lambda z, t: jet(z, t)[0]).as_handle()
    radii = sf.geometric_radii(0.25, 0.7, 5)
    n_exact = sf.frequency_curve(FunctionHandle(spec, jet), rule, radii).N
    curve = sf.frequency_curve(u, rule, radii)
    n_ball = radii * sf.dirichlet(u, radii, rule) / curve.H
    assert np.all(np.abs(curve.N - n_exact) <= np.abs(n_ball - n_exact))


def test_grid_handle_holds_u_once():
    # the FD path (non-integer alpha) stores u as channel 0 of the array the
    # kernel reads, so building the handle copies no grid: it keeps less
    # than a tenth of one grid array and peaks at the temporaries of one
    # np.gradient call
    import tracemalloc

    sol = sf.fd_solve(sf.BaouendiSpec(2, 1, 1.5), [(-1.0, 1.0)] * 3, [33] * 3,
                      _generic_boundary)
    assert np.shares_memory(sol.values, sol.channels)
    tracemalloc.start()
    try:
        u = sol.as_handle()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    grid = sol.values.nbytes
    assert kept <= 0.1 * grid
    assert peak <= 3.0 * grid
    node = (5, 7, 9)
    z = np.array([[sol.axes[0][5], sol.axes[1][7]]])
    t = np.array([[sol.axes[2][9]]])
    assert u.value(z, t)[0] == pytest.approx(sol.values[node], rel=1e-12)


@pytest.mark.parametrize("shape, channels", [((9, 13), 1), ((9, 13), 4),
                                             ((7, 5, 9), 1), ((7, 5, 9), 4)])
def test_multilinear_kernel_is_scipy_linear_bit_for_bit(shape, channels):
    # compared as bytes with RegularGridInterpolator(method="linear"): random
    # points, every node, points on each face of the box, and both corners,
    # where x == hi lies in the last cell, closed on the right
    from scipy.interpolate import RegularGridInterpolator

    from subfreq.baouendi import _multilinear

    rng = np.random.default_rng(10 * len(shape) + channels)
    axes = tuple(np.linspace(-1.0, 0.5 + d, n) for d, n in enumerate(shape))
    lo, hi = np.array([ax[0] for ax in axes]), np.array([ax[-1] for ax in axes])
    data = rng.standard_normal(shape + (channels,))
    inside = rng.uniform(lo, hi, (500, len(shape)))
    nodes = np.stack([x.ravel() for x in np.meshgrid(*axes, indexing="ij")], axis=1)
    on_face = [np.where(np.arange(len(shape)) == d, bound, inside[:50])
               for d in range(len(shape)) for bound in (lo, hi)]
    points = np.concatenate([inside, nodes, *on_face, hi[None], lo[None]])
    expected = RegularGridInterpolator(axes, data, method="linear")(points)
    got = _multilinear(axes, data.reshape(-1, channels), np.ascontiguousarray(points.T))
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1.5],
                         ids=["nan", "inf", "-inf", "outside"])
def test_grid_handle_rejects_points_outside_the_box(ba112, bad):
    # searchsorted puts NaN past the last node: unchecked, it would read
    # the clipped last cell
    u = sf.fd_solve(ba112, [(-1.0, 1.0)] * 2, [9, 9], lambda z, t: t[:, 0]).as_handle()
    z, t = np.array([[0.0], [0.5]]), np.array([[0.0], [bad]])
    with pytest.raises(BadGrid, match="outside the FD solution box"):
        u.value(z, t)
    assert u.value(z[:1], t[:1]) == [0.0]
    assert u.value(z[:0], t[:0]).shape == (0,)


def _kernel_calls(monkeypatch):
    """The number of points of every call of the collocation handle's
    kernel (`_series_jet`), appended as it is called."""
    import subfreq.baouendi as baouendi

    kernel, sizes = baouendi._series_jet, []

    def counted(stack, lo, hi, x):
        sizes.append(x.shape[1])
        return kernel(stack, lo, hi, x)

    monkeypatch.setattr(baouendi, "_series_jet", counted)
    return sizes


def test_weiss_check_evaluates_the_fd_handle_once_per_integrand(ba112, rule_ba112,
                                                                monkeypatch):
    # the curve's u^2 (the H column), |grad_H u|^2, u Zu and (Zu - kappa u)^2
    # on the nodes of all the radii: one kernel call each, value and partials
    # from the same call, and no call on the nodes of one sphere
    u = sf.fd_solve(ba112, [(-1.0, 1.0)] * 2, [17, 17], mixed_fixture(ba112).evaluate).as_handle()
    sizes = _kernel_calls(monkeypatch)
    radii = np.array([0.3, 0.4, 0.5])
    sf.check_weiss_derivative(u, 3, radii, rule_ba112)
    assert sizes.count(len(radii) * len(rule_ba112)) == 4
    assert len(rule_ba112) not in sizes


@pytest.mark.parametrize("shells_per_call", [None, 3], ids=["default", "chunks-of-3"])
def test_fd_curve_calls_the_kernel_once_per_column(ba112, rule_ba112, monkeypatch,
                                                   shells_per_call):
    # an FD solution solves B_a u = 0, so its curve reads D = I / r: H and
    # I = int u Zu psi are one call each on the nodes of all the spheres, and
    # no radial shell of a ball is read, whatever SHELL_POINTS is; the
    # discrepancy of B_a vanishes in closed form
    from subfreq import quadrature

    if shells_per_call is not None:
        monkeypatch.setattr(quadrature, "SHELL_POINTS", shells_per_call * len(rule_ba112))
    u = sf.fd_solve(ba112, [(-1.0, 1.0)] * 2, [17, 17], mixed_fixture(ba112).evaluate).as_handle()
    sizes = _kernel_calls(monkeypatch)
    radii = np.array([0.3, 0.5, 0.4, 0.2, 0.45])
    curve = sf.frequency_curve(u, rule_ba112, radii, kappa=3)
    assert sizes == [len(radii) * len(rule_ba112)] * 2
    i_col = sf.surface_integral(u.value_zu, radii, rule_ba112)
    np.testing.assert_array_equal(curve.D, i_col / radii)
    np.testing.assert_array_equal(curve.disc_norm, np.zeros(len(radii)))


def test_fd_h_identity_still_reads_the_ball(ba112, rule_ba112):
    # the curve's D = I / r would make the Rellich check read 0; it compares
    # the ball D of `dirichlet` with I instead.  The collocation handle's
    # value and partials come from one series, so the identity holds to
    # round-off (the linear FD grid handle read its interpolation mismatch,
    # above 1e-6)
    u = sf.fd_solve(ba112, [(-1.0, 1.0)] * 2, [33, 33], mixed_fixture(ba112).evaluate).as_handle()
    radii = np.array([0.3, 0.4, 0.5])
    res = sf.check_H_identity(u, radii, rule_ba112)
    h = sf.height(u, radii, rule_ba112)
    i_col = sf.surface_integral(u.value_zu, radii, rule_ba112)
    q1 = rule_ba112.Q - 1.0
    ball = q1 / radii * h + 2.0 * sf.dirichlet(u, radii, rule_ba112)
    np.testing.assert_array_equal(res["rhs"], ball)
    np.testing.assert_array_equal(res["lhs"], (q1 * h + 2.0 * i_col) / radii)
    expected = np.abs(res["lhs"] - ball) / np.maximum(np.abs(res["lhs"]), np.abs(ball))
    np.testing.assert_array_equal(res["residuals"], expected)
    assert np.all(res["residuals"] <= 1e-12)


def test_fd_d_variation_reads_the_ball(ba112, rule_ba112):
    # D' is the exact derivative of the ball D, so the right side must read
    # the ball D too: with the curve's D = I / r it read 3.9e-3 here
    p = Polynomial.t_var(1, 1, 0, tweight=3) + sf.solid_harmonic_quadratic(ba112) * Fraction(1, 3)
    u = sf.fd_solve(ba112, [(-1.0, 1.0)] * 2, [129, 129], p.evaluate).as_handle()
    radii = sf.geometric_radii(0.25, 0.7, 5)
    res = sf.check_D_variation(u, radii, rule_ba112)
    zu_sq = sf.surface_integral(u.integrand(lambda v, zu: zu * zu), radii, rule_ba112)
    ball = ((rule_ba112.Q - 2.0) / radii * sf.dirichlet(u, radii, rule_ba112)
            + 2.0 / radii ** 2 * zu_sq)
    np.testing.assert_array_equal(res["rhs"], ball)
    assert np.max(res["residuals"]) <= 2e-4


def test_monneau_check_evaluates_the_fd_difference_once(ba112, rule_ba112, monkeypatch):
    # D, H, W and M come from the curve; the check adds u Zu of u - P on the
    # nodes of all the radii, value and partials from one kernel call
    u = sf.fd_solve(ba112, [(-1.0, 1.0)] * 2, [33, 33], mixed_fixture(ba112).evaluate).as_handle()
    p = FunctionHandle.from_polynomial(ba112, Polynomial.t_var(1, 1, 0, tweight=3))
    calls = _kernel_calls(monkeypatch)
    radii = np.array([0.3, 0.4, 0.5])
    sf.frequency_curve(u, rule_ba112, radii, kappa=3, ref=p)
    curve_calls = len(calls)
    sf.check_monneau_derivative(u, p, 3, radii, rule_ba112)
    assert len(calls) == 2 * curve_calls + 1
    assert calls[-1] == len(radii) * len(rule_ba112)


def test_problem_from_json(tmp_path):
    poly_file = tmp_path / "p.json"
    poly_file.write_text('[{"coeff":"1","z":[0],"t":[1]}]')
    data = {"m": 1, "k": 1, "alpha": 2, "box": [[-1, 1], [-1, 1]],
            "grid": [33, 33], "boundary": f"poly:{poly_file}"}
    spec, box, grid, poly = sf.problem_from_json(data)
    assert spec.alpha == 2
    assert grid == [33, 33]
    assert poly == Polynomial.t_var(1, 1, 0, tweight=3)


def test_problem_from_json_errors():
    with pytest.raises(ParseError):
        sf.problem_from_json({"m": 1})
    with pytest.raises(ParseError):
        sf.problem_from_json({"m": 1, "k": 1, "alpha": 2,
                              "box": [[-1, 1], [-1, 1]], "grid": [33, 33],
                              "boundary": "notpoly"})


@pytest.mark.parametrize("field, value", [("m", 1.7), ("m", True), ("k", 1.0),
                                          ("grid", [33.9, 33]), ("grid", [33, True])],
                         ids=["m-float", "m-bool", "k-float", "grid-float", "grid-bool"])
def test_problem_from_json_rejects_non_integers(tmp_path, field, value):
    # int() used to read m: 1.7 as 1, grid [33.9, 33] as [33, 33] and true as 1
    poly_file = tmp_path / "p.json"
    poly_file.write_text('[{"coeff":"1","z":[0],"t":[1]}]')
    data = {"m": 1, "k": 1, "alpha": 2, "box": [[-1, 1], [-1, 1]],
            "grid": [33, 33], "boundary": f"poly:{poly_file}"}
    data[field] = value
    with pytest.raises(ParseError, match="must be an integer"):
        sf.problem_from_json(data)


@pytest.mark.parametrize("field, value, message", [
    ("alpha", True, "alpha must be a number"), ("alpha", "2", "alpha must be a number"),
    ("box", [[True, 1], [-1, 1]], "a box bound must be a number"),
    ("box", [[-1, 1], [-1, "0.5"]], "a box bound must be a number"),
    ("box", [[-1, 0, 1], [-1, 1]], "every box axis is a pair"),
    ("alpha", float("inf"), "alpha must be finite"),
    ("box", [[-1, 1], [float("-inf"), 1]], "a box bound must be finite"),
    ("box", [[-1, float("nan")], [-1, 1]], "a box bound must be finite")],
    ids=["alpha-bool", "alpha-string", "box-bool", "box-string", "box-triple", "alpha-inf",
         "box-inf", "box-nan"])
def test_problem_from_json_rejects_non_numbers(tmp_path, field, value, message):
    # alpha true used to read as alpha 1 with layer weight 2, the box
    # [[true, "0.5"], ...] as [(1.0, 0.5), ...], and a box axis of three
    # bounds ended in an uncaught ValueError
    poly_file = tmp_path / "p.json"
    poly_file.write_text('[{"coeff":"1","z":[0],"t":[1]}]')
    data = {"m": 1, "k": 1, "alpha": 2, "box": [[-1, 1], [-1, 1]],
            "grid": [33, 33], "boundary": f"poly:{poly_file}"}
    data[field] = value
    with pytest.raises(ParseError, match=message):
        sf.problem_from_json(data)


@pytest.mark.parametrize("alpha", [0, -1, float("inf"), float("nan")])
def test_spec_needs_a_finite_positive_alpha(alpha):
    with pytest.raises(DimensionMismatch, match="alpha must be finite and > 0"):
        sf.BaouendiSpec(1, 1, alpha)


def test_fd_handle_is_freed_by_reference_counting(ba112):
    # the handle's closures hold its jet, and the jet the arrays it reads,
    # not the handle or the solution: no cycle keeps the solution's arrays
    # alive until the cyclic GC runs, on the collocation (alpha 2) and the
    # FD (alpha 1.5) path, and the handle outlives the solution
    for spec in (ba112, sf.BaouendiSpec(1, 1, 1.5)):
        sol = sf.fd_solve(spec, [(-1.0, 1.0)] * 2, [17, 17], _quadratic_solution(spec))
        assert (sol.series is None) == (spec.alpha == 1.5)
        u = sol.as_handle()
        z, t = np.array([[0.25], [-0.5]]), np.array([[0.5], [0.125]])
        assert all(np.all(np.isfinite(f(z, t))) for f in (u.zu, u.value_zu, u.value_sq))
        handle, solution = weakref.ref(u), weakref.ref(sol)
        gc.disable()
        try:
            del sol
            assert solution() is None
            assert np.all(np.isfinite(u.value(z, t)))
            del u
            assert handle() is None
        finally:
            gc.enable()


@pytest.mark.parametrize("dims", [(1, 1, 1), (1, 1, 2), (2, 1, 1), (2, 1, 2)])
def test_collocation_converges_spectrally_on_a_pole_solution(monkeypatch, dims):
    # u = rho(z, t - 1.6)^(2-Q) - const is B_a-harmonic on [-1, 1]^N and no
    # polynomial; its pole at distance 0.6 from the box bounds the
    # Chebyshev coefficients by about 2.85^-n, so the series resolves at
    # n = 28 to 32.  Grids whose caps (size - 1) // 8 allow that: 257 per
    # axis (33 nodes, 29 in 3-D by COLLOCATION_BYTES) and 225 per z axis
    # (29 z nodes, 33 t nodes).  The nodal error, N between the two, N
    # against the exact jet, and N nondecreasing as the paper proves for
    # every B_a-harmonic function
    _forbid_fd(monkeypatch)
    spec = sf.BaouendiSpec(*dims)
    value, jet = oracles.pole_solution(spec)
    box = [(-1.0, 1.0)] * spec.N
    coarse, fine = (sf.fd_solve(spec, box, grid, value)
                    for grid in ([225] * spec.m + [257], [257] * spec.N))
    assert [len(ax) for ax in coarse.axes] != [len(ax) for ax in fine.axes]
    assert _nodal_error(fine, value) <= 1e-10
    rule = sf.build_sphere_rule(spec, 16)
    radii = sf.geometric_radii(0.1, 0.7, 16)
    n_coarse, n_fine = (sf.frequency_curve(sol.as_handle(), rule, radii).N
                        for sol in (coarse, fine))
    assert np.max(np.abs(n_fine - n_coarse)) <= 1e-9
    n_exact = sf.frequency_curve(FunctionHandle(spec, jet), rule, radii).N
    assert np.max(np.abs(n_fine - n_exact)) <= 1e-9
    assert np.all(np.diff(n_fine) >= 0.0)


@pytest.mark.parametrize("dims", [(1, 1, 2), (2, 1, 1)])
def test_collocation_handle_reads_the_exact_jet_on_any_box(monkeypatch, dims):
    # value and every partial from the series, mapped from a box that is
    # neither [-1, 1] nor symmetric, against the exact jet of the pole
    # solution at random points inside it
    _forbid_fd(monkeypatch)
    spec = sf.BaouendiSpec(*dims)
    value, jet = oracles.pole_solution(spec)
    box = [(-0.9, 0.6), (-0.4, 0.7), (-0.8, 0.5)][-spec.N:]
    u = sf.fd_solve(spec, box, [257] * spec.N, value).as_handle()
    rng = np.random.default_rng(2)
    x = rng.uniform([lo for lo, _ in box], [hi for _, hi in box], (200, spec.N))
    z, t = x[:, :spec.m], x[:, spec.m:]
    got, want = u.jet(z, t), jet(z, t)
    np.testing.assert_allclose(got[0], want[0], rtol=0.0, atol=1e-12)
    for a, b in zip(got[1] + got[2], want[1] + want[2]):
        np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("dims, grid", [((1, 1, 2), [129, 129]), ((1, 1, 2), [257, 257]),
                                        ((2, 1, 1), [65, 65, 65])])
@pytest.mark.parametrize("c", [Fraction(1, 3), Fraction(-1, 3)])
def test_benchmark_polynomial_problems_stop_at_9_nodes(dims, grid, c):
    # the fd-curves problems t + c P, of degree at most 6 per axis: at
    # n = 8 the top two degrees of the series are round-off, so the first
    # solve is resolved, whatever the grid; a test below the solve's
    # round-off would double to the caps and fall back to FD
    spec = sf.BaouendiSpec(*dims)
    exact = Polynomial.t_var(spec.m, 1, 0, tweight=spec.tweight) \
        + sf.solid_harmonic_quadratic(spec) * c
    sol = sf.fd_solve(spec, [(-1.0, 1.0)] * spec.N, grid, exact.evaluate)
    assert [len(ax) for ax in sol.axes] == [9] * spec.N
    assert sol.iterations == 1
    assert sol.series.shape == (2 * spec.tweight + 1,) * spec.m + (3,)
    assert _nodal_error(sol, exact.evaluate) <= 1e-13 * np.max(np.abs(sol.values))


def test_integer_alpha_solves_by_collocation_without_cg(monkeypatch):
    # |z|^(2a) is a polynomial at integer alpha (2 or 2.0), and only then:
    # on data whose series resolves, no FD scheme, Chebyshev-Lobatto nodes
    # (ends exactly the box), and the chopped series kept; alpha 1.5 takes
    # the uniform FD grid
    _forbid_fd(monkeypatch)
    for alpha in (2, 2.0):
        spec = sf.BaouendiSpec(1, 1, alpha)
        value, _ = oracles.pole_solution(spec, pole=10.0)
        sol = sf.fd_solve(spec, [(-1.0, 0.5), (-0.5, 0.7)], [129, 129], value)
        assert sol.series is not None and sol.iterations >= 2
        for ax, (lo, hi) in zip(sol.axes, [(-1.0, 0.5), (-0.5, 0.7)]):
            n = len(ax) - 1
            x = lo + (hi - lo) * (1.0 - np.cos(np.pi * np.arange(n + 1) / n)) / 2.0
            np.testing.assert_allclose(ax, x, rtol=0.0, atol=1e-15)
            assert (ax[0], ax[-1]) == (lo, hi)
    with pytest.raises(AssertionError, match="did not resolve"):
        sf.fd_solve(sf.BaouendiSpec(1, 1, 1.5), [(-1.0, 1.0)] * 2, [9, 9], _generic_boundary)


@pytest.mark.parametrize("dims, grid, caps", [((1, 1, 2), [257, 129], [[8, 8], [16, 16], [32, 16]]),
                                              ((2, 1, 1), [65, 33, 129], [[8, 8, 8], [8, 8, 16]])])
def test_unresolved_series_falls_back_to_fd_on_the_grid(monkeypatch, dims, grid, caps):
    # t^2 is not B_a-harmonic: the solution has corner singularities, its
    # Chebyshev coefficients decay algebraically, and no series within the
    # caps (size - 1) // 8 resolves it.  Then the solve is FD on exactly
    # the problem's grid, the solution FD gave before collocation existed,
    # after one collocation solve per doubling of n up to the caps
    from subfreq import baouendi

    solves = []
    collocation = baouendi._collocation
    monkeypatch.setattr(baouendi, "_collocation",
                        lambda *args: solves.append(args[2]) or collocation(*args))
    spec = sf.BaouendiSpec(*dims)
    box = [(-1.0, 1.0)] * spec.N
    sol = sf.fd_solve(spec, box, grid, lambda z, t: t[:, 0] ** 2)
    assert sol.series is None and sol.iterations == 1
    for ax, (lo, hi), n in zip(sol.axes, box, grid):
        np.testing.assert_array_equal(ax, np.linspace(lo, hi, n))
    assert solves == caps


def test_symbolic_calculus_bounds_the_size_of_the_coefficient():
    # |z|^(2 alpha) has alpha + 1 factors and C(alpha + m - 1, m - 1)
    # monomials, each at most SYMBOLIC_SIZE = 257; the spec itself is built
    for m, largest in ((1, 256), (2, 256), (3, 21), (4, 9)):
        assert sf.BaouendiSpec(m, 1, largest).tweight == largest + 1
        with pytest.raises(DimensionMismatch, match="too large for the symbolic calculus"):
            sf.BaouendiSpec(m, 1, largest + 1).tweight


def test_spec_rejects_an_alpha_whose_q_squared_overflows():
    # Q^2 / (Q - 2) is the rule's gamma: at alpha 1e300 it ended in an
    # uncaught OverflowError
    with pytest.raises(DimensionMismatch, match=r"makes Q\^2 overflow"):
        sf.BaouendiSpec(1, 1, 1e300)
    assert sf.BaouendiSpec(1, 1, 1e150).Q == 1e150 + 2.0
