import math
import sys
from fractions import Fraction

import numpy as np
import pytest

import oracles
import subfreq as sf
from subfreq import fixtures
from subfreq.errors import (
    DimensionMismatch,
    DiscrepancyNonzero,
    DiscrepancyUnknown,
    ZeroDenominator,
    ZeroHeight,
)
from subfreq.frequency import CSV_HEADER, FunctionHandle, _identity_check, polynomial_jet
from subfreq.groups import Point
from subfreq.polynomials import Polynomial, harmonic_basis


def handle(h1, p, **kw):
    return FunctionHandle.from_polynomial(h1, p, **kw)


@pytest.mark.parametrize("context, p, other", [
    # t on B_a(1,1,2) read on a (1,1,1) rule used to give N(0.5) = 0.2605
    (sf.BaouendiSpec(1, 1, 2), Polynomial.t_var(1, 1, 0, tweight=3), sf.BaouendiSpec(1, 1, 1)),
    # t on H^1 read on a (2,1,2) rule used to give N(0.5) = 19.96
    (sf.heisenberg(1), Polynomial.t_var(2, 1, 0), sf.BaouendiSpec(2, 1, 2)),
], ids=["ba112-on-111", "h1-on-212"])
def test_functionals_reject_a_rule_of_another_geometry(context, p, other):
    own, rule = sf.build_sphere_rule(context, 8), sf.build_sphere_rule(other, 8)
    u = handle(context, p)
    assert sf.frequency(u, 0.5, own) == pytest.approx(context.tweight)  # t has degree w
    box = oracles.callable_handle(context, p.evaluate)
    for v in (u, box):
        with pytest.raises(DimensionMismatch, match="read on a rule of"):
            sf.frequency_curve(v, rule, [0.5, 1.0], kappa=1.0, ref=v)
        for functional in (sf.frequency, sf.dirichlet, sf.height, sf.doubling_ratio):
            with pytest.raises(DimensionMismatch):
                functional(v, 0.5, rule)
        with pytest.raises(DimensionMismatch):
            sf.monneau(u, v, 1.0, 0.5, rule)
    # a bare Polynomial integrates on any rule
    assert sf.surface_integral(p * p, 0.5, rule) > 0.0


def test_u_minus_p_rejects_a_reference_of_another_context(h1):
    # jets of t on (2,1,1) and (1,1,2): zip dropped the second z partial and
    # the Monneau check read residuals [0, 0]
    ba211 = sf.BaouendiSpec(2, 1, 1)
    rule_211, rule = sf.build_sphere_rule(ba211, 8), sf.build_sphere_rule(h1, 8)
    t_211 = Polynomial.t_var(2, 1, 0, tweight=2)
    u = FunctionHandle(ba211, polynomial_jet(t_211))
    ref = FunctionHandle(sf.BaouendiSpec(1, 1, 2),
                         polynomial_jet(Polynomial.t_var(1, 1, 0, tweight=3)))
    with pytest.raises(DimensionMismatch, match="u - P of a function on"):
        sf.check_monneau_derivative(u, ref, 2, [0.3, 0.5], rule_211)
    # x on H^1 has nonzero discrepancy; as a B_a(2,1,1) handle it skipped
    # that hypothesis, and M read 3.308 at r = 1
    t, x = handle(h1, fixtures.poly_t(h1)), fixtures.poly_x(h1)
    with pytest.raises(DiscrepancyNonzero):
        sf.monneau(t, handle(h1, x), 2, 1.0, rule)
    with pytest.raises(DimensionMismatch, match="u - P of a function on"):
        sf.monneau(t, handle(ba211, x), 2, 1.0, rule)
    # an equal context built on its own is the same context
    same = FunctionHandle(sf.BaouendiSpec(2, 1, 1.0), polynomial_jet(t_211))
    assert np.all(sf.check_monneau_derivative(u, same, 2, [0.3, 0.5], rule_211)["M"] == 0.0)
    assert sf.monneau(t, handle(sf.heisenberg(1), fixtures.poly_t(h1)), 2, 1.0, rule) == 0.0


def test_height_of_constant(h1, rule_h1):
    # H(1, r) = r^(Q-1) * Q^2/(Q-2); on H^1 this is 8 r^3
    u = handle(h1, Polynomial.constant(2, 1, 1))
    for r in (0.5, 1.0, 2.0):
        assert sf.height(u, r, rule_h1) == pytest.approx(8.0 * r ** 3, rel=1e-12)


def test_dirichlet_of_coordinate(h1, rule_h1):
    # |grad_H x|^2 = 1, so D(x, r) = |B_r| = pi r^4 on H^1
    u = handle(h1, fixtures.poly_x(h1))
    for r in (0.5, 1.5):
        assert sf.dirichlet(u, r, rule_h1) == pytest.approx(math.pi * r ** 4,
                                                            rel=1e-12)


def test_frequency_of_homogeneous_harmonics(h1, rule_h1):
    cases = [(fixtures.poly_x(h1), 1), (fixtures.poly_t(h1), 2),
             (fixtures.poly_x2_minus_y2(h1), 2),
             (fixtures.quartic_cylindrical(h1), 4)]
    for p, kappa in cases:
        u = handle(h1, p)
        for r in (0.3, 1.0, 1.7):
            assert sf.frequency(u, r, rule_h1) == pytest.approx(kappa, rel=1e-10)


def test_frequency_h2_degree_4_at_res_16(h2):
    rule = sf.build_sphere_rule(h2, 16)
    u = handle(h2, harmonic_basis(h2, 4)[-1])
    assert sf.frequency(u, 1.0, rule) == pytest.approx(4.0, abs=1e-12)


def test_frequency_h3_harmonics():
    h3 = sf.heisenberg(3)
    rule = sf.build_sphere_rule(h3, 8)
    for kappa in (1, 2, 3):
        u = handle(h3, harmonic_basis(h3, kappa)[-1])
        for r in (0.5, 1.3):
            assert sf.frequency(u, r, rule) == pytest.approx(kappa, abs=1e-12)


def test_polynomial_curve_builds_no_nodes(h1):
    # D, H, N, the W and M columns and the discrepancy norm of a polynomial
    # are closed forms: they read the rule's geometry and gamma, never a node
    rule = sf.build_sphere_rule(h1, 32)
    u = handle(h1, fixtures.mixed_cylindrical(h1))
    ref = handle(h1, fixtures.poly_t(h1))
    curve = sf.frequency_curve(u, rule, sf.geometric_radii(0.4, 1.2, 8), kappa=2, ref=ref)
    assert np.all(np.isfinite(curve.W)) and np.all(np.isfinite(curve.M))
    assert "_nodes" not in vars(rule)
    assert len(rule.psi) == len(rule)  # built on the first node access


def test_frequency_scaling_exact(h1, rule_h1):
    p = fixtures.mixed_cylindrical(h1)
    u = handle(h1, p)
    lam = Fraction(7, 5)
    ud = handle(h1, oracles.dilated(p, lam))
    for r in (0.4, 0.9):
        assert sf.frequency(ud, r, rule_h1) == pytest.approx(
            sf.frequency(u, float(lam) * r, rule_h1), rel=1e-11)


def test_translation_invariance(h1, rule_h1):
    # frequency of u centered at g0 equals frequency of the translated
    # polynomial centered at the identity, by construction; check that the
    # two evaluation paths agree numerically
    p = fixtures.poly_x2_minus_y2(h1)
    g0 = Point((Fraction(1, 2), Fraction(1, 3)), (Fraction(1, 5),))
    u1 = handle(h1, p, center=g0)
    u2 = handle(h1, sf.left_translate(h1, p, g0))
    for r in (0.5, 1.0):
        assert sf.frequency(u1, r, rule_h1) == pytest.approx(
            sf.frequency(u2, r, rule_h1), rel=1e-12)


def test_zero_height_raises(h1, rule_h1):
    u = handle(h1, Polynomial.zero(2, 1))
    with pytest.raises(ZeroHeight):
        sf.frequency(u, 1.0, rule_h1)


def test_doubling_zero_denominator(h1, rule_h1):
    u = handle(h1, Polynomial.zero(2, 1))
    with pytest.raises(ZeroDenominator):
        sf.doubling_ratio(u, 1.0, rule_h1)


def test_doubling_of_homogeneous(h1, rule_h1):
    for p, kappa in ((fixtures.poly_x(h1), 1), (fixtures.poly_t(h1), 2)):
        u = handle(h1, p)
        assert sf.doubling_ratio(u, 0.5, rule_h1) == pytest.approx(
            2.0 ** (rule_h1.Q + 2 * kappa), rel=1e-12)


def test_weiss_vanishes_on_matching_harmonic(h1, rule_h1):
    u = handle(h1, fixtures.poly_t(h1))
    for r in (0.5, 1.3):
        assert abs(sf.weiss(u, 2, r, rule_h1)) < 1e-12 * sf.height(u, r, rule_h1)


def test_monneau_requires_vanishing_discrepancy(h1, rule_h1):
    u = handle(h1, fixtures.poly_x(h1))
    ref = handle(h1, fixtures.poly_t(h1))
    with pytest.raises(DiscrepancyNonzero):
        sf.monneau(u, ref, 1, 1.0, rule_h1)


def test_d_variation_needs_discrepancy_data(h1, rule_h1):
    u = oracles.callable_handle(h1, lambda z, t: z[:, 0])
    radii = sf.geometric_radii(0.5, 1.5, 8)
    with pytest.raises(DiscrepancyUnknown):
        sf.check_D_variation(u, radii, rule_h1)


def _baouendi_mixed(spec):
    t = Polynomial.t_var(spec.m, spec.k, 0, tweight=spec.tweight)
    return t + sf.solid_harmonic_quadratic(spec) * Fraction(1, 10)


@pytest.mark.parametrize("context, make", [("h1", fixtures.poly_x2_minus_y2),
                                           ("ba112", _baouendi_mixed),
                                           ("ba211", _baouendi_mixed)],
                         ids=["h1", "ba112", "ba211"])
def test_callable_handle_matches_polynomial(context, make, request):
    ctx = request.getfixturevalue(context)
    rule = request.getfixturevalue(f"rule_{context}")
    p = make(ctx)
    exact = handle(ctx, p)
    box = oracles.callable_handle(ctx, p.evaluate)
    for r in (0.5, 1.0):
        assert sf.frequency(box, r, rule) == pytest.approx(
            sf.frequency(exact, r, rule), rel=1e-7)
        z, t = rule.geometry.dilate(r, rule.z, rule.t)
        want = exact.zu(z, t)
        assert np.max(np.abs(box.zu(z, t) - want)) <= 1e-7 * np.max(np.abs(want))


def test_log_grid_derivative_accuracy():
    radii = sf.geometric_radii(0.5, 2.0, 40)
    vals = radii ** 3.5
    r_in, dv, inner = oracles.log_grid_derivative(vals, radii)
    np.testing.assert_allclose(dv, 3.5 * r_in ** 2.5, rtol=1e-4)


def test_log_grid_derivative_guards():
    with pytest.raises(ValueError):
        oracles.log_grid_derivative([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        oracles.log_grid_derivative(np.ones(6), np.linspace(1.0, 2.0, 6))


def test_h_identity_residuals_small(h1, rule_h1):
    radii = sf.geometric_radii(0.5, 1.5, 16)
    for p in (fixtures.poly_x(h1), fixtures.poly_t(h1)):
        res = sf.check_H_identity(handle(h1, p), radii, rule_h1)
        assert np.max(res["residuals"]) < 1e-2


def test_d_variation_discrepancy_term_matters(h1, rule_h1):
    # for this fixture the boundary discrepancy term is genuinely nonzero,
    # so dropping it must visibly break the first-variation identity
    u = handle(h1, oracles.harmonic_with_discrepancy(h1))
    radii = sf.geometric_radii(0.5, 1.5, 16)
    full = np.max(sf.check_D_variation(u, radii, rule_h1)["residuals"])
    trunc = np.max(sf.check_D_variation(u, radii, rule_h1,
                                        include_discrepancy=False)["residuals"])
    assert full < 1e-2
    assert trunc > 10.0 * full


def test_radial_exponential_fixture(rule_h1):
    for r in (0.5, 1.0, 1.5):
        expected = 0.5 / math.sqrt(r)
        val = sf.frequency_radial_exponential(0.5, r, rule_h1)
        assert val == pytest.approx(expected, rel=1e-10)


def test_discrepancy_surface_norm(h1, rule_h1):
    assert sf.discrepancy_surface_norm(handle(h1, fixtures.poly_t(h1)),
                                       1.0, rule_h1) == 0.0
    assert sf.discrepancy_surface_norm(handle(h1, fixtures.poly_x(h1)),
                                       1.0, rule_h1) > 0.0
    box = oracles.callable_handle(h1, lambda z, t: z[:, 0])
    assert math.isnan(sf.discrepancy_surface_norm(box, 1.0, rule_h1))


def test_frequency_curve_csv(h1, rule_h1):
    u = handle(h1, fixtures.mixed_cylindrical(h1))
    ref = handle(h1, fixtures.poly_t(h1))
    radii = sf.geometric_radii(0.5, 1.0, 6)
    curve = sf.frequency_curve(u, rule_h1, radii, kappa=2, ref=ref)
    text = curve.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 7
    # determinism: a second run is byte-identical
    again = sf.frequency_curve(u, rule_h1, radii, kappa=2, ref=ref).to_csv()
    assert text == again


def test_polynomial_curve_evaluates_u_on_no_node(h1, rule_h1, monkeypatch):
    # ZeroHeight is decided by H <= 0, so no column of a polynomial curve
    # reads u at the rule's nodes
    radii = sf.geometric_radii(0.5, 1.0, 6)
    expected = sf.frequency_curve(handle(h1, fixtures.mixed_cylindrical(h1)), rule_h1, radii,
                                  kappa=2, ref=handle(h1, fixtures.poly_t(h1))).to_csv()

    def not_reached(*args):
        raise AssertionError("a polynomial curve evaluated u")

    monkeypatch.setattr(Polynomial, "evaluate", not_reached)
    curve = sf.frequency_curve(handle(h1, fixtures.mixed_cylindrical(h1)), rule_h1, radii,
                               kappa=2, ref=handle(h1, fixtures.poly_t(h1)))
    assert curve.to_csv() == expected


def test_identity_residual_is_zero_where_both_sides_vanish(h1, rule_h1):
    # W_3 of a degree-3 harmonic vanishes identically, and so does
    # (Zu - 3u)^2: both sides of the Weiss identity are round-off
    u = handle(h1, harmonic_basis(h1, 3)[1])
    res = sf.check_weiss_derivative(u, 3, sf.geometric_radii(0.4, 1.2, 16), rule_h1)
    assert np.max(np.abs(res["lhs"])) < 1e-12
    assert np.max(res["residuals"]) == 0.0


def test_identity_checks_read_the_curve_columns(h1, rule_h1, monkeypatch):
    # each check computes D, H, W and M once: the W and M checks as one
    # frequency_curve on their radii, the H and D checks from the ball
    # `dirichlet` (the definition of D on every handle); its left-hand side is
    # the exact radial derivative of one column, which the 5-point
    # differences of that column match to their 1e-3 floor (on this grid; 9
    # radii leave them 10% off for H)
    u = handle(h1, fixtures.mixed_cylindrical(h1))
    ref = handle(h1, fixtures.poly_t(h1))
    radii = sf.geometric_radii(0.4, 1.2, 33)
    curve = sf.frequency_curve(u, rule_h1, radii, kappa=2, ref=ref)
    frequency = sys.modules["subfreq.frequency"]  # `subfreq.frequency` is the function N(r)
    curves = []
    monkeypatch.setattr(frequency, "frequency_curve",
                        lambda *args, **kw: curves.append(kw) or sf.frequency_curve(*args, **kw))
    checks = {"H": frequency.check_H_identity(u, radii, rule_h1),
              "D": frequency.check_D_variation(u, radii, rule_h1),
              "W": frequency.check_weiss_derivative(u, 2, radii, rule_h1),
              "M": frequency.check_monneau_derivative(u, ref, 2, radii, rule_h1)}
    assert len(curves) == 2
    for column, res in checks.items():
        np.testing.assert_array_equal(res["radii"], radii)
        _, differences, inner = oracles.log_grid_derivative(getattr(curve, column), radii)
        np.testing.assert_allclose(res["lhs"][inner], differences, rtol=1e-3)
    np.testing.assert_array_equal(
        checks["H"]["rhs"], (rule_h1.Q - 1.0) / radii * curve.H + 2.0 * curve.D)
    np.testing.assert_array_equal(checks["M"]["rhs"], 2.0 / radii * curve.W)
    np.testing.assert_array_equal(checks["M"]["M"], curve.M)
    assert checks["M"]["nondecreasing"] == bool(np.all(np.diff(curve.M) >= -1e-5))


@pytest.mark.parametrize("box", [False, True], ids=["polynomial", "callable"])
def test_curve_rows_are_the_one_radius_functionals(h1, rule_h1, box):
    # each row of a column is the value of the one-radius call, bit for bit
    p = fixtures.mixed_cylindrical(h1)
    u = oracles.callable_handle(h1, p.evaluate) if box else handle(h1, p)
    ref = handle(h1, fixtures.poly_t(h1))
    radii = [0.3, 1.1, 0.5, 0.9]
    curve = sf.frequency_curve(u, rule_h1, radii, kappa=2, ref=ref)
    for column, one in ((curve.D, lambda r: sf.dirichlet(u, r, rule_h1)),
                        (curve.H, lambda r: sf.height(u, r, rule_h1)),
                        (curve.N, lambda r: sf.frequency(u, r, rule_h1)),
                        (curve.W, lambda r: sf.weiss(u, 2, r, rule_h1)),
                        (curve.M, lambda r: sf.monneau(u, ref, 2, r, rule_h1)),
                        (curve.disc_norm, lambda r: sf.discrepancy_surface_norm(u, r, rule_h1))):
        np.testing.assert_array_equal(column, [one(r) for r in radii])


def test_monneau_check_builds_the_difference_once(h1, rule_h1, monkeypatch):
    # M and I_(u-P) come from one handle of u - P; D, H and W from the curve
    shifted_by, calls = FunctionHandle.shifted_by, []
    monkeypatch.setattr(FunctionHandle, "shifted_by",
                        lambda self, other: calls.append(other) or shifted_by(self, other))
    u = handle(h1, fixtures.mixed_cylindrical(h1))
    ref = handle(h1, fixtures.poly_t(h1))
    sf.check_monneau_derivative(u, ref, 2, sf.geometric_radii(0.4, 1.2, 16), rule_h1)
    assert calls == [ref]


@pytest.mark.parametrize("radii", [[0.7], [0.3, 0.5, 1.1, 0.9]], ids=["one", "not-geometric"])
def test_identity_checks_on_any_radii(h1, rule_h1, radii):
    # the derivatives are exact, so any radii do: one, or an unordered list
    u = handle(h1, fixtures.mixed_cylindrical(h1))
    ref = handle(h1, fixtures.poly_t(h1))
    for res in (sf.check_H_identity(u, radii, rule_h1),
                sf.check_D_variation(u, radii, rule_h1),
                sf.check_weiss_derivative(u, 2, radii, rule_h1),
                sf.check_monneau_derivative(u, ref, 2, radii, rule_h1)):
        np.testing.assert_array_equal(res["radii"], radii)
        assert res["residuals"].shape == (len(radii),)
        assert np.max(res["residuals"]) <= 1e-12


def test_identity_checks_exact_on_callable_handles(h1, rule_h1, ba112, rule_ba112):
    # the fixtures of `verify` as callables: the central-difference partials of
    # `callable_handle` are the only error, and the Monneau difference of a
    # callable and a polynomial subtracts their partials
    box = lambda ctx, p: oracles.callable_handle(ctx, p.evaluate)
    radii = [0.4, 0.9, 1.5]
    checks = [sf.check_H_identity(box(h1, p), radii, rule_h1)
              for p in (fixtures.poly_x(h1), fixtures.poly_t(h1), fixtures.poly_x2_minus_y2(h1))]
    checks += [sf.check_weiss_derivative(box(h1, p), kappa, radii, rule_h1)
               for p, kappa in ((fixtures.one_plus_t(h1), 0), (fixtures.mixed_cylindrical(h1), 2))]
    checks.append(sf.check_monneau_derivative(box(h1, fixtures.mixed_cylindrical(h1)),
                                              handle(h1, fixtures.poly_t(h1)), 2, radii, rule_h1))
    # the first variation needs the discrepancy, known to vanish on B_a
    checks.append(sf.check_D_variation(box(ba112, _baouendi_mixed(ba112)), radii, rule_ba112))
    worst = [float(np.max(res["residuals"])) for res in checks]
    assert max(worst) <= 1e-8, worst


def test_identity_residual_is_nan_where_a_side_is_not_finite():
    # a NaN or infinite side used to read as residual 0, as both sides below
    # 1e-12 do; no RuntimeWarning is raised
    lhs = np.array([1.0, 0.0, 1e-13, np.inf, 1.0, np.nan, 2.0])
    rhs = np.array([np.nan, 0.0, -1e-13, np.inf, -np.inf, 0.0, 1.5])
    np.testing.assert_array_equal(_identity_check(lhs, lhs, rhs)["residuals"],
                                  [np.nan, 0.0, 0.0, np.nan, np.nan, np.nan, 0.25])


def test_frequency_curve_zero_function(h1, rule_h1):
    u = handle(h1, Polynomial.zero(2, 1))
    curve = sf.frequency_curve(u, rule_h1, sf.geometric_radii(0.5, 1.0, 5))
    assert np.all(np.isnan(curve.N))
    assert np.all(curve.H == 0.0)
