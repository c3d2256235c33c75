from fractions import Fraction

import numpy as np
import pytest

import subfreq as sf
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
    t = Polynomial.t_var(spec.m, spec.k, 0, tweight=spec.integer_alpha() + 1)
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
    assert sf.BaouendiSpec(1, 1, 2.0).integer_alpha() == 2
    with pytest.raises(NonIntegerAlpha):
        sf.BaouendiSpec(1, 1, 1.5).integer_alpha()


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
    psi = ba112.psi(z, t)
    assert np.all((psi >= 0.0) & (psi <= 1.0))
    with pytest.raises(OriginSingularity):
        ba112.psi(np.array([[0.0]]), np.array([[0.0]]))


def test_solid_harmonic_quadratic_constants():
    # derived, not hard-coded: A = 4(alpha+1)(2 alpha + m)/k
    assert sf.derived_quadratic_constant(sf.BaouendiSpec(1, 1, 2)) == 60
    assert sf.derived_quadratic_constant(sf.BaouendiSpec(2, 1, 1)) == 32
    assert sf.derived_quadratic_constant(sf.BaouendiSpec(3, 2, 1)) == 20


def test_solid_harmonic_annihilated(ba112):
    p = sf.solid_harmonic_quadratic(ba112)
    assert sf.baouendi_apply(ba112, p).is_zero()
    assert p.is_homogeneous(2 * (ba112.integer_alpha() + 1))


def test_alpha_one_matches_group_quartic(h1, ba211):
    # the alpha=1 quadratic solid harmonic is the cylindrical quartic
    from subfreq import fixtures
    assert sf.solid_harmonic_quadratic(ba211) == fixtures.quartic_cylindrical(h1)


def test_z_alpha_on_homogeneous(ba112):
    p = sf.solid_harmonic_quadratic(ba112)
    assert sf.z_alpha_apply(ba112, p) == p * 6


def test_orthogonality(ba112, rule_ba112):
    p1 = Polynomial.z_var(1, 1, 0, tweight=3)
    pq = sf.solid_harmonic_quadratic(ba112)
    inner = sf.orthogonality_check(ba112, p1, pq, 1.0, rule_ba112)
    n1 = abs(sf.orthogonality_check(ba112, p1, p1, 1.0, rule_ba112)) ** 0.5
    n2 = abs(sf.orthogonality_check(ba112, pq, pq, 1.0, rule_ba112)) ** 0.5
    assert abs(inner) <= 1e-10 * n1 * n2


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


def test_d_variation_without_discrepancy_term(ba112, ba211, rule_ba112, rule_ba211):
    # E_u vanishes identically for B_a, so the first variation holds without it
    radii = sf.geometric_radii(0.5, 1.0, 16)
    for spec, rule in ((ba112, rule_ba112), (ba211, rule_ba211)):
        u = FunctionHandle.from_polynomial(spec, mixed_fixture(spec))
        assert np.max(sf.check_D_variation(u, radii, rule)["residuals"]) <= 1e-2


def test_normalization_constant_estimators_agree(ba112):
    out = sf.normalization_constant(ba112, samples=300_000, seed=3)
    assert abs(out["mc"] - out["value"]) < 4.0 * out["mc_stderr"] + 1e-4 * out["value"]


# -- finite-difference solver ----------------------------------------------


def test_fd_solver_guards(ba112):
    with pytest.raises(BadGrid):
        sf.fd_solve(sf.BaouendiSpec(3, 1, 1), [(-1, 1)] * 4, [9] * 4,
                    lambda z, t: np.zeros(len(z)))
    with pytest.raises(BadGrid):
        sf.fd_solve(ba112, [(-1, 1)] * 2, [9, 300], lambda z, t: np.zeros(len(z)))
    with pytest.raises(BadGrid):
        sf.fd_solve(ba112, [(-1, 1)], [9, 9], lambda z, t: np.zeros(len(z)))


def test_fd_reproduces_exact_solution(ba112):
    # manufactured solution: polynomial in the kernel of B_alpha supplies
    # both the boundary data and the exact reference
    exact = mixed_fixture(ba112)
    box = [(-1.0, 1.0), (-1.0, 1.0)]
    errs = []
    for n in (33, 65):
        sol = sf.fd_solve(ba112, box, [n, n], exact.evaluate)
        mesh = np.meshgrid(*sol.axes, indexing="ij")
        zs = mesh[0].ravel()[:, None]
        ts = mesh[1].ravel()[:, None]
        ref = exact.evaluate(zs, ts).reshape(sol.values.shape)
        errs.append(np.max(np.abs(sol.values - ref)))
    assert errs[1] < 1e-3
    # second-order convergence
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


def _generic_boundary(z, t):
    # not B_a-harmonic, so the interior solution is no polynomial
    return np.exp(z[:, 0] - 0.5 * z[:, -1]) + np.sin(3.0 * t[:, 0])


def _stencil_residual(spec, sol):
    """Relative residual of the centered B_a stencil on the interior nodes,
    applied to sol.values by slicing, without the solver's sparse matrix."""
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
    spec = sf.BaouendiSpec(*dims, alpha)
    sol = sf.fd_solve(spec, box, grid, _generic_boundary)
    assert _stencil_residual(spec, sol) <= 1e-10


@pytest.mark.parametrize("dims, grid", [((1, 1), [257, 257]), ((2, 1), [33, 33, 65])])
def test_fd_solver_converges_in_one_or_two_iterations(dims, grid):
    # the preconditioner is the exact inverse; a wrong mode eigenvalue or
    # band shows here as extra iterations, not as a wrong solution
    spec = sf.BaouendiSpec(*dims, 2)
    sol = sf.fd_solve(spec, [(-1.0, 1.0)] * len(grid), grid, _generic_boundary)
    assert sol.iterations <= 2
    assert sol.residual <= 1e-13


def test_fd_no_convergence_carries_iterations_and_residual(ba112):
    with pytest.raises(NoConvergence) as exc:
        sf.fd_solve(ba112, [(-1.0, 1.0)] * 2, [33, 33], _generic_boundary, tol=0.0)
    assert exc.value.residual > 0.0
    assert exc.value.iterations >= 1
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
