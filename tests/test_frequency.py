import math
from fractions import Fraction

import numpy as np
import pytest

import subfreq as sf
from subfreq import fixtures
from subfreq.errors import DiscrepancyNonzero, DiscrepancyUnknown, ZeroDenominator, ZeroHeight
from subfreq.frequency import CSV_HEADER, FunctionHandle, log_grid_derivative
from subfreq.groups import Point
from subfreq.polynomials import Polynomial, harmonic_basis


def handle(h1, p, **kw):
    return FunctionHandle.from_polynomial(h1, p, **kw)


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


def test_frequency_scaling_exact(h1, rule_h1):
    p = fixtures.mixed_cylindrical(h1)
    u = handle(h1, p)
    lam = Fraction(7, 5)
    ud = handle(h1, p.compose_dilation(lam))
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
    u = FunctionHandle.from_callable(h1, lambda z, t: z[:, 0])
    radii = sf.geometric_radii(0.5, 1.5, 8)
    with pytest.raises(DiscrepancyUnknown):
        sf.check_D_variation(u, radii, rule_h1)


def test_callable_handle_matches_polynomial(h1, rule_h1):
    p = fixtures.poly_x2_minus_y2(h1)
    exact = handle(h1, p)
    box = FunctionHandle.from_callable(h1, p.evaluate)
    for r in (0.5, 1.0):
        assert sf.frequency(box, r, rule_h1) == pytest.approx(
            sf.frequency(exact, r, rule_h1), rel=1e-7)


def test_log_grid_derivative_accuracy():
    radii = sf.geometric_radii(0.5, 2.0, 40)
    vals = radii ** 3.5
    r_in, dv, inner = log_grid_derivative(vals, radii)
    np.testing.assert_allclose(dv, 3.5 * r_in ** 2.5, rtol=1e-4)


def test_log_grid_derivative_guards():
    with pytest.raises(ValueError):
        log_grid_derivative([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(AssertionError):
        log_grid_derivative(np.ones(6), np.linspace(1.0, 2.0, 6))


def test_h_identity_residuals_small(h1, rule_h1):
    radii = sf.geometric_radii(0.5, 1.5, 16)
    for p in (fixtures.poly_x(h1), fixtures.poly_t(h1)):
        res = sf.check_H_identity(handle(h1, p), radii, rule_h1)
        assert np.max(res["residuals"]) < 1e-2


def test_d_variation_discrepancy_term_matters(h1, rule_h1):
    # for this fixture the boundary discrepancy term is genuinely nonzero,
    # so dropping it must visibly break the first-variation identity
    u = handle(h1, fixtures.harmonic_with_discrepancy(h1))
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
    box = FunctionHandle.from_callable(h1, lambda z, t: z[:, 0])
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


def test_frequency_curve_zero_function(h1, rule_h1):
    u = handle(h1, Polynomial.zero(2, 1))
    curve = sf.frequency_curve(u, rule_h1, sf.geometric_radii(0.5, 1.0, 5))
    assert np.all(np.isnan(curve.N))
    assert np.all(curve.H == 0.0)
