import itertools
import math
import re
import tracemalloc

import mpmath
import numpy as np
import pytest

import oracles
import subfreq as sf
from oracles import InsufficientSamples
from subfreq import constants, fixtures, quadrature
from subfreq.errors import (
    DimensionMismatch,
    NotHType,
    ResolutionTooLarge,
    ResolutionTooSmall,
)
from subfreq.groups import Point
from subfreq.polynomials import Polynomial
from subfreq.quadrature import MAX_RULE_NODES, unit_sphere_rule


def test_nodes_lie_on_unit_gauge_sphere(rule_h1, rule_ba112):
    for rule in (rule_h1, rule_ba112):
        a1 = rule.alpha + 1.0
        rho = (np.sum(rule.z ** 2, axis=1) ** a1
               + 4.0 * a1 ** 2 * np.sum(rule.t ** 2, axis=1)) ** (1.0 / (2.0 * a1))
        assert np.max(np.abs(rho - 1.0)) < 1e-12


def test_rule_is_its_geometry(h1, ba112, rule_h1, rule_ba112):
    # a SphereRule is a Geometry: (m, k, alpha) once, Q and rho from it
    for context, rule in ((h1, rule_h1), (ba112, rule_ba112)):
        assert isinstance(rule, constants.Geometry) and rule.geometry is rule
        assert (rule.m, rule.k, rule.alpha, rule.Q) == (
            context.m, context.k, float(context.geometry.alpha), context.geometry.Q)
        np.testing.assert_array_equal(rule.rho(rule.z, rule.t),
                                      context.geometry.rho(rule.z, rule.t))


@pytest.mark.parametrize("resolution", [4, 8, 13])
@pytest.mark.parametrize("context", [sf.heisenberg(1), sf.heisenberg(2), sf.example_group_6d(),
                                     sf.BaouendiSpec(1, 1, 2), sf.BaouendiSpec(2, 1, 1)],
                         ids=["h1", "h2", "g6", "ba112", "ba211"])
def test_rule_length_is_its_node_count(context, resolution):
    # len(rule) is the count 4 R (R // 2 + 1)^(m+k-2), known before any node
    rule = sf.build_sphere_rule(context, resolution)
    n = len(rule)
    assert n == 4 * resolution * (resolution // 2 + 1) ** (rule.m + rule.k - 2)
    assert "_nodes" not in vars(rule)
    assert rule.z.shape == (n, rule.m) and rule.t.shape == (n, rule.k)
    assert rule.weights.shape == rule.psi.shape == (n,)


def test_calibration_sum(rule_h1, rule_h2, rule_ba112, rule_ba211):
    for rule in (rule_h1, rule_h2, rule_ba112, rule_ba211):
        target = rule.Q ** 2 / (rule.Q - 2.0)
        assert float(np.dot(rule.weights, rule.psi)) == pytest.approx(target, rel=1e-12)


def test_calibration_sum_6d_group():
    rule = sf.build_sphere_rule(sf.example_group_6d(), 16)
    assert float(np.dot(rule.weights, rule.psi)) == pytest.approx(
        rule.Q ** 2 / (rule.Q - 2.0), rel=1e-12)


def test_surface_psi_integral_h1_oracle():
    # hand-derived: int_{S_1} psi dmu_raw = pi on H^1 (psi = s^2 on S_1)
    assert constants.polar_moment(2, 1, 1.0, 2.0) == pytest.approx(math.pi, rel=1e-12)


def test_unit_ball_volume_h1_oracle():
    # hand-derived: |B_1| = int_{S_1} dmu_raw / Q = pi^2 / 8 on H^1
    assert constants.polar_moment(2, 1, 1.0, 0.0) / 4 == pytest.approx(math.pi ** 2 / 8.0, rel=1e-12)


def test_calibrated_ball_volume_h1(h1, rule_h1):
    # gamma = 8/pi on H^1, so the calibrated |B_r| is pi r^4
    one = lambda z, t: np.ones(len(z))
    for r in (0.5, 1.0, 2.0):
        val = sf.volume_integral(one, r, rule_h1)
        assert val == pytest.approx(math.pi * r ** 4, rel=1e-12)


@pytest.mark.parametrize("shells_per_call", [None, 3], ids=["one-call", "chunks-of-3"])
def test_volume_integral_calls_a_callable_once_per_chunk(h1, monkeypatch, shells_per_call):
    rule = sf.build_sphere_rule(h1, 8)
    steps = quadrature.RADIAL_STEPS
    if shells_per_call is not None:
        monkeypatch.setattr(quadrature, "SHELL_POINTS", shells_per_call * len(rule))
    per_call = shells_per_call or steps  # the whole rule fits in one call by default
    calls = []

    def f(z, t):
        calls.append(len(z))
        return np.cos(z[:, 0]) * np.exp(t[:, 0]) + z[:, 1] ** 2

    r = 0.8
    v, wv = quadrature._radial_rule(rule.Q)
    by_shell = r ** rule.Q * sum(
        wi * float(np.dot(rule.weights, f(*rule.geometry.dilate(r * vi, rule.z, rule.t))))
        for vi, wi in zip(v, wv))
    calls.clear()
    value = sf.volume_integral(f, r, rule)
    assert len(calls) == math.ceil(steps / per_call)
    assert sum(calls) == steps * len(rule)
    assert abs(value - by_shell) <= 1e-14 * abs(by_shell)


@pytest.mark.parametrize("flip", [False, True], ids=["rule", "psi-flipped"])
@pytest.mark.parametrize("kind", ["polynomial", "callable"])
@pytest.mark.parametrize("rule_name", ["rule_h1", "rule_ba112"])
def test_integrals_on_a_radius_column_are_the_one_radius_integrals(rule_name, kind, flip,
                                                                   request):
    # an unordered array of radii gives, bit for bit, the one-radius floats
    from subfreq.verify import _flip_psi

    rule = request.getfixturevalue(rule_name)
    rule = _flip_psi(rule) if flip else rule
    p = oracles.random_polynomial(np.random.default_rng(7), rule.m, rule.k)
    f = p if kind == "polynomial" else p.evaluate
    radii = [0.3, 1.1, 0.5, 0.9]
    for integral, kw in ((sf.volume_integral, {}), (sf.surface_integral, {}),
                         (sf.surface_integral, {"weighted": False})):
        one = [integral(f, r, rule, **kw) for r in radii]
        assert all(type(x) is float for x in one)
        column = integral(f, radii, rule, **kw)
        assert isinstance(column, np.ndarray)
        np.testing.assert_array_equal(column, one)


def test_a_single_degree_column_is_the_one_radius_closed_form_bit_for_bit(h1, rule_h1):
    # u^2 = x^2 on H^1 has the one sphere degree d = [2.], where a broadcast
    # radii[:, None] ** d takes numpy's array-to-scalar power (x * x) and
    # differs in the last bit from the power r ** d of one radius
    radii, rule = sf.geometric_radii(0.25, 2.0, 32), rule_h1
    f = fixtures.poly_x(h1) ** 2
    for weighted in (True, False):
        d, c = f.sphere_series(rule.alpha, 2.0 * rule.alpha if weighted else 0.0)
        assert d.tolist() == [2.0]
        gamma = rule.psi_sign * rule.gamma if weighted else rule.gamma
        one = [gamma * r ** (rule.Q - 1.0) * np.sum(c * r ** d) for r in radii]
        np.testing.assert_array_equal(sf.surface_integral(f, radii, rule, weighted), one)
    d, c = f.sphere_series(rule.alpha, 0.0)
    one = [rule.gamma * np.sum(c * r ** (rule.Q + d) / (rule.Q + d)) for r in radii]
    np.testing.assert_array_equal(sf.volume_integral(f, radii, rule), one)


def test_equal_polynomials_integrate_to_equal_floats(h1, rule_h1):
    # the closed forms read a polynomial's value, not its term order: a
    # curve's integrands rebuilt with their terms reversed give the same
    # floats on every radius
    radii = sf.geometric_radii(0.25, 2.0, 32)
    inputs = [p for kappa in (2, 3, 4) for p in sf.harmonic_basis(h1, kappa)]
    for p in inputs + [fixtures.mixed_cylindrical(h1)]:
        u = sf.FunctionHandle.from_polynomial(h1, p)
        for f in (u.grad_sq, u.value_sq, u.value_zu):
            g = Polynomial(f.m, f.k, f.tweight,
                           {(key[:f.m], key[f.m:]): c
                            for key, c in reversed(oracles.coefficients(f).items())})
            assert g == f
            for integral in (sf.volume_integral, sf.surface_integral):
                np.testing.assert_array_equal(integral(g, radii, rule_h1),
                                              integral(f, radii, rule_h1))


def test_weighted_ball_integral_pins_mean_value(rule_h1):
    # int_{B_r} psi = Q/(Q-2) r^Q under the calibrated measure
    alpha = rule_h1.alpha
    a1 = alpha + 1.0

    def psi(z, t):
        rho2a = (np.sum(z ** 2, axis=1) ** a1
                 + 4.0 * a1 ** 2 * np.sum(t ** 2, axis=1)) ** (alpha / a1)
        return np.sum(z ** 2, axis=1) ** alpha / rho2a

    q = rule_h1.Q
    for r in (0.7, 1.3):
        val = sf.volume_integral(psi, r, rule_h1)
        assert val == pytest.approx(q / (q - 2.0) * r ** q, rel=1e-12)


def test_mean_value_constant(h1, rule_h1):
    one = lambda z, t: np.ones(len(z))
    for r in (0.5, 1.0, 2.0):
        assert sf.mean_value(h1, one, h1.identity(), r, rule_h1) == pytest.approx(
            1.0, abs=1e-12)


def test_mean_value_of_harmonic_polynomial(h1, rule_h1):
    p = (Polynomial.z_var(2, 1, 0) ** 2 - Polynomial.z_var(2, 1, 1) ** 2)
    g = Point((0.5, -0.25), (0.125,))
    expected = p.evaluate(np.array([[0.5, -0.25]]), np.array([[0.125]]))[0]
    for r in (0.4, 1.1):
        val = sf.mean_value(h1, p.evaluate, g, r, rule_h1)
        assert val == pytest.approx(expected, rel=1e-10)


def test_mean_value_rejects_a_rule_of_another_geometry(h1):
    # the quartic harmonic at ((0.3, 0.1), (0.2)) is -1.27; read on a
    # (2, 1, 2) rule its mean value used to be -1.2464, with no error
    q = fixtures.quartic_cylindrical(h1)
    with pytest.raises(DimensionMismatch, match="read on a rule of"):
        sf.mean_value(h1, q.evaluate, Point((0.3, 0.1), (0.2,)), 0.5,
                      sf.build_sphere_rule(sf.BaouendiSpec(2, 1, 2), 8))


def test_mean_value_rejects_a_baouendi_spec(rule_ba112):
    # the solid mean value translates by the group law, which B_a has not
    spec = sf.BaouendiSpec(1, 1, 2)
    with pytest.raises(NotHType, match="mean_value is a group-side operation"):
        sf.mean_value(spec, lambda z, t: np.ones(len(z)), Point((0.1,), (0.2,)), 0.5, rule_ba112)


def test_mean_value_of_fundamental_solution(h1, rule_h1):
    # Gamma is harmonic away from its pole, so its solid average over a
    # ball avoiding the pole reproduces the center value
    c = sf.gauge_constant(2, 1, 1.0)

    def gamma(z, t):
        rho = (np.sum(z ** 2, axis=1) ** 2 + 16.0 * np.sum(t ** 2, axis=1)) ** 0.25
        return c * rho ** (2.0 - 4.0)

    g = Point((1.0, 0.3), (0.1,))
    center = gamma(np.array([[1.0, 0.3]]), np.array([[0.1]]))[0]
    val = sf.mean_value(h1, gamma, g, 0.35, rule_h1)
    assert val == pytest.approx(center, rel=1e-6)


def test_surface_integral_polynomial_exactness(rule_h1):
    # surface integral of a delta-homogeneous p over S_r scales as r^(Q-1+deg)
    p = Polynomial.z_norm_sq(2, 1)
    base = sf.surface_integral(p.evaluate, 1.0, rule_h1)
    for r in (0.5, 2.0):
        val = sf.surface_integral(p.evaluate, r, rule_h1)
        assert val == pytest.approx(base * r ** (rule_h1.Q - 1.0 + 2.0), rel=1e-12)


def test_surface_vs_mc_oracle(rule_h1):
    f = lambda z, t: 1.0 + z[:, 0] ** 2 + np.sin(t[:, 0])
    det = sf.surface_integral(f, 1.0, rule_h1, weighted=True)
    mc = oracles.mc_thin_shell(f, 1.0, 0.05, 400_000, 42, rule_h1, weighted=True)
    assert abs(mc["value"] - det) < 4.0 * mc["stderr"] + 1e-3 * abs(det)


def test_surface_vs_mc_oracle_baouendi(rule_ba112):
    f = lambda z, t: np.exp(z[:, 0]) + t[:, 0] ** 2
    det = sf.surface_integral(f, 0.8, rule_ba112, weighted=False)
    mc = oracles.mc_thin_shell(f, 0.8, 0.04, 400_000, 7, rule_ba112, weighted=False)
    assert abs(mc["value"] - det) < 4.0 * mc["stderr"] + 1e-3 * abs(det)


def test_mc_guards(rule_h1):
    f = lambda z, t: np.ones(len(z))
    with pytest.raises(InsufficientSamples):
        oracles.mc_thin_shell(f, 1.0, 0.05, 10, 0, rule_h1)
    with pytest.raises(InsufficientSamples):
        oracles.mc_thin_shell(f, 1.0, 2.0, 10_000, 0, rule_h1)


def test_resolution_guard(h1):
    with pytest.raises(ResolutionTooSmall):
        sf.build_sphere_rule(h1, 2)


def test_non_htype_group_rejected():
    with pytest.raises(NotHType):
        sf.build_sphere_rule(sf.example_group_metivier(), 16)


def test_resolution_too_large_raises_before_allocating():
    # H^3 at res 32 needs 4 * 32 * 17^5 (about 182M) nodes; the first node
    # access raises
    assert 4 * 32 * 17 ** 5 > MAX_RULE_NODES
    tracemalloc.start()
    try:
        rule = sf.build_sphere_rule(sf.heisenberg(3), 32)
        with pytest.raises(ResolutionTooLarge):
            rule.z
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_resolution_too_large_names_largest_fitting_resolution():
    def n_nodes(m, k, res):
        return 4 * res * (res // 2 + 1) ** (m + k - 2)

    with pytest.raises(ResolutionTooLarge) as exc:
        sf.build_sphere_rule(sf.heisenberg(3), 32).weights
    match = re.search(r"largest resolution within it is (\d+)", str(exc.value))
    assert match is not None
    best = int(match.group(1))
    assert n_nodes(6, 1, best) <= MAX_RULE_NODES < n_nodes(6, 1, best + 1)
    # H^7: even the smallest resolution needs 16 * 3^13 nodes
    with pytest.raises(ResolutionTooLarge, match="no resolution >= 4"):
        sf.build_sphere_rule(sf.heisenberg(7), 32).psi


def _folland_moment(a, d):
    """int_{S^(d-1)} x^a dsigma = 2 prod Gamma((a_i+1)/2) / Gamma((|a|+d)/2)."""
    if any(x % 2 for x in a):
        return 0.0
    return 2.0 * math.prod(math.gamma((x + 1) / 2.0) for x in a) \
        / math.gamma((sum(a) + d) / 2.0)


@pytest.mark.parametrize("d,resolution",
                         [(d, res) for d in range(1, 7) for res in (4, 7, 8)]
                         + [(d, 16) for d in range(1, 5)])
def test_unit_sphere_rule_exact_to_resolution(d, resolution):
    pts, w = unit_sphere_rule(d, resolution)
    assert len(w) == 2 * (resolution // 2 + 1) ** (d - 1)
    powers = pts[:, :, None] ** np.arange(resolution + 1)  # (node, axis, exponent)
    for a in itertools.product(range(resolution + 1), repeat=d):
        if sum(a) <= resolution:
            val = float(np.prod(powers[:, np.arange(d), a], axis=1) @ w)
            assert abs(val - _folland_moment(a, d)) <= 1e-13


def test_sphere_rules_antipodally_symmetric():
    for d in (1, 2, 3, 4, 5, 6):
        pts, w = unit_sphere_rule(d, 16)
        assert np.allclose(np.sum(pts ** 2, axis=1), 1.0)
        assert w.sum() == pytest.approx(constants.sphere_area(d), rel=1e-12)
        # first moment cancels exactly by symmetry of the node set
        assert np.max(np.abs(pts.T @ w)) < 1e-12


# (a, b) of every family of Gauss-Jacobi rules the package builds: the sphere
# factors ((d-3)/2, (d-3)/2) for d = 2, 3, 4, 6; the radial-angular factor
# ((k-2)/2, m/2-1) for (m, k) = (1, 1), (2, 1), (2, 2), (1, 2), (1, 3), (4, 1);
# the radii (0, Q-1) for Q = 3, 3.5, 4, 8
GAUSS_JACOBI_PAIRS = [(-0.5, -0.5), (0.0, 0.0), (0.5, 0.5), (1.5, 1.5),
                      (-0.5, 0.0), (0.0, -0.5), (0.5, -0.5), (-0.5, 1.0),
                      (0.0, 2.0), (0.0, 2.5), (0.0, 3.0), (0.0, 7.0)]


@pytest.mark.parametrize("n, a, b", [(n, a, b) for n in (1, 2, 17, 32, 64)
                                     for a, b in GAUSS_JACOBI_PAIRS]
                         + [(257, 0.5, -0.5), (257, 0.0, 7.0)])
def test_gauss_jacobi_rule_matches_a_40_digit_reference(n, a, b):
    x, w = quadrature._gauss_jacobi(n, a, b)
    x_sp, w_sp = oracles.gauss_jacobi_scipy(n, a, b)
    x_mp, w_mp = oracles.gauss_jacobi_mp(n, a, b, x_sp)

    def errors(x, w):
        """Largest absolute node error and relative weight error."""
        return (max(abs(mpmath.mpf(xi) - ref) for xi, ref in zip(x, x_mp)),
                max(abs(mpmath.mpf(wi) / ref - 1) for wi, ref in zip(w, w_mp)))

    node_err, weight_err = errors(x, w)
    assert node_err <= 4.4e-16
    if n <= 64:
        assert weight_err <= 1e-13
    # never further off than scipy's rule, up to a floor of 16 ulp: at n <= 2
    # both weights are the rounded mass 2^(a+b+1) B(a+1, b+1)
    assert weight_err <= max(errors(x_sp, w_sp)[1], 16 * np.finfo(float).eps)


@pytest.mark.parametrize("n", [1, 2, 5, 17, 64])
@pytest.mark.parametrize("a", [-0.5, 0.0, 0.5, 1.5])
def test_symmetric_gauss_jacobi_rule_is_symmetric_bit_for_bit(n, a):
    x, w = quadrature._gauss_jacobi(n, a, a)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    assert not x.flags.writeable and not w.flags.writeable


def test_gauge_constant_h1_oracle():
    # frozen oracle: C = 1/(2 pi) on H^1
    assert sf.gauge_constant(2, 1, 1.0) == pytest.approx(1.0 / (2.0 * math.pi),
                                                         rel=1e-8)


@pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 2.0])
def test_gauge_constant_m2_k1_closed_form(alpha):
    # for m = 2, k = 1 the Beta factors of the closed form cancel: C = 1/(2 pi)
    assert sf.gauge_constant(2, 1, alpha) == pytest.approx(1.0 / (2.0 * math.pi),
                                                           rel=1e-12)


def test_gauge_constant_mc_agrees():
    for (m, k, alpha) in ((2, 1, 1.0), (1, 1, 2.0), (1, 1, 0.5), (1, 1, 1.5)):
        det = sf.gauge_constant(m, k, alpha)
        mc, err = oracles.gauge_constant_mc(m, k, alpha, samples=400_000, seed=11)
        assert abs(mc - det) < 4.0 * err + 1e-4 * det


def test_gauge_constant_mc_needs_samples():
    with pytest.raises(InsufficientSamples):
        oracles.gauge_constant_mc(2, 1, 1.0, samples=10)


# -- closed-form moments of polynomial integrands --------------------------


def _moment_cases():
    """(context, rule resolution, polynomial): non-homogeneous, so that the
    doubling ratio mixes several powers of r."""
    h1, h2, g6 = sf.heisenberg(1), sf.heisenberg(2), sf.example_group_6d()
    cases = [(h1, 32, sf.harmonic_basis(h1, kappa)[0] + Polynomial.t_var(2, 1, 0))
             for kappa in (1, 2, 3, 4)]
    cases += [(h2, 12, sf.harmonic_basis(h2, kappa)[-1] + Polynomial.z_var(4, 1, 1))
              for kappa in (2, 4)]
    cases.append((g6, 6, sf.harmonic_basis(g6, 3)[0] + Polynomial.t_var(4, 2, 1)))
    for m, k, alpha in ((1, 1, 2), (2, 1, 1)):
        spec, tw = sf.BaouendiSpec(m, k, alpha), alpha + 1
        cases.append((spec, 32, sf.solid_harmonic_quadratic(spec)
                      + Polynomial.t_var(m, k, 0, tweight=tw)
                      + Polynomial.z_var(m, k, 0, tweight=tw) ** 3))
    # the Zu E_u term of the first variation does not integrate to zero here
    # (criterion 3 drops it and fails)
    cases.append((h1, 32, oracles.harmonic_with_discrepancy(h1)))
    return cases


@pytest.mark.parametrize("context,resolution,p", _moment_cases(),
                         ids=["h1-k1", "h1-k2", "h1-k3", "h1-k4", "h2-k2", "h2-k4",
                              "g6-k3", "ba112", "ba211", "h1-disc"])
def test_moments_match_quadrature(context, resolution, p):
    rule = sf.build_sphere_rule(context, resolution)
    u = sf.FunctionHandle.from_polynomial(context, p)
    assert isinstance(u.grad_sq, Polynomial) and isinstance(u.value_sq, Polynomial)
    grad_sq = lambda z, t: u.grad_sq.evaluate(z, t)
    u_sq = lambda z, t: p.evaluate(z, t) ** 2
    e_sq = lambda z, t: (4.0 * u.disc.evaluate(z, t)) ** 2
    zu_e = lambda z, t: u.zu.evaluate(z, t) * u.disc.evaluate(z, t)
    # p p' with p' = Zu, through `orthogonality_check` where it applies (B_a)
    if isinstance(context, sf.BaouendiSpec):
        p_zu = lambda r: sf.orthogonality_check(context, p, u.zu, r, rule)
    else:
        p_zu = lambda r: sf.surface_integral(p * u.zu, r, rule)

    def cauchy_schwarz(f, g, r, weighted=True):
        # |int f g| <= this, the scale of two integrals of f g that may vanish
        return math.sqrt(sf.surface_integral(f * f, r, rule, weighted)
                         * sf.surface_integral(g * g, r, rule, weighted))

    for r in (0.6, 1.7):
        pairs = [
            (sf.dirichlet(u, r, rule), sf.volume_integral(grad_sq, r, rule)),
            (sf.height(u, r, rule), sf.surface_integral(u_sq, r, rule)),
            (sf.doubling_ratio(u, r, rule),
             sf.volume_integral(u_sq, 2 * r, rule) / sf.volume_integral(u_sq, r, rule)),
            (sf.discrepancy_surface_norm(u, r, rule),
             math.sqrt(sf.surface_integral(e_sq, r, rule, weighted=False)) / r ** 3),
        ]
        pairs = [(moment, quad, abs(quad)) for moment, quad in pairs]
        pairs.append((p_zu(r), sf.surface_integral(lambda z, t: p(z, t) * u.zu(z, t), r, rule),
                      cauchy_schwarz(p, u.zu, r)))
        if not u.disc.is_zero():  # E_u vanishes identically for B_a
            pairs.append((sf.surface_integral(u.zu * u.disc, r, rule, weighted=False),
                          sf.surface_integral(zu_e, r, rule, weighted=False),
                          cauchy_schwarz(u.zu, u.disc, r, weighted=False)))
        for moment, quad, scale in pairs:
            assert abs(moment - quad) <= 1e-12 * scale


def test_monomial_moment_against_mc_shell():
    # the gauge shell r - h < rho < r + h holds
    # (V(r + h) - V(r - h)) / (2 h) with V(r) = int_{B_r} f, all in closed form
    g6 = sf.example_group_6d()
    rule = sf.build_sphere_rule(g6, 4)
    p = Polynomial.monomial(4, 2, (2, 0, 2, 0), (0, 2))
    r, h = 1.0, 0.05
    exact = (sf.volume_integral(p, r + h, rule) - sf.volume_integral(p, r - h, rule)) / (2 * h)
    mc = oracles.mc_thin_shell(p.evaluate, r, h, 400_000, 3, rule, weighted=False)
    assert abs(mc["value"] - exact) < 4.0 * mc["stderr"]


def test_odd_monomials_integrate_to_exact_zero(rule_h1, rule_ba211):
    assert constants.polar_moment(4, 2, 1.0, 2.0, (1, 2, 0, 0), (0, 0)) == 0.0
    assert constants.polar_moment(4, 2, 1.0, 0.0, (2, 2, 0, 0), (0, 3)) == 0.0
    for p, rule in ((Polynomial.monomial(2, 1, (3, 2), (0,)), rule_h1),
                    (Polynomial.monomial(2, 1, (2, 2), (1,)), rule_h1),
                    (Polynomial.monomial(2, 1, (1, 1), (2,)), rule_ba211)):
        assert sf.surface_integral(p, 0.7, rule) == 0.0
        assert sf.surface_integral(p, 0.7, rule, weighted=False) == 0.0
        assert sf.volume_integral(p, 0.7, rule) == 0.0


@pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 1.5, 2.0, 3.0])
def test_polar_moment_is_the_zero_monomial_moment(alpha):
    for m, k in itertools.product(range(1, 7), range(1, 4)):
        for e in (0.0, 2.0 * alpha):
            raw = constants.polar_moment(m, k, alpha, e)
            assert raw == constants.polar_moment(m, k, alpha, e, (0,) * m, (0,) * k)
            # the Gamma-function form that fixes every rule's gamma
            a1 = alpha + 1.0
            beta = math.gamma((m + e) / (2 * a1)) * math.gamma(k / 2.0) \
                / math.gamma((m + e) / (2 * a1) + k / 2.0)
            assert raw == constants.sphere_area(m) * constants.sphere_area(k) * beta \
                / (2.0 * (2.0 * a1) ** (k - 1) * 2.0 * a1)


def test_polar_moment_against_radial_quadrature():
    # Folland's sphere moments times the s-integral, done by adaptive quadrature
    from scipy.integrate import quad

    for m, k, alpha, a, b in ((2, 1, 1.0, (2, 4), (2,)), (4, 2, 1.0, (2, 0, 2, 2), (2, 4)),
                              (1, 1, 2.0, (6,), (2,)), (2, 1, 0.5, (0, 2), (4,))):
        a1 = alpha + 1.0
        for e in (0.0, 2.0 * alpha):
            radial, _ = quad(lambda s: s ** (m - 1 + sum(a) + e)
                             * (1.0 - s ** (2 * a1)) ** ((k - 2 + sum(b)) / 2.0), 0.0, 1.0,
                             epsabs=0.0, epsrel=1e-13)
            want = (_folland_moment(a, m) * _folland_moment(b, k) * radial
                    / (2.0 * (2.0 * a1) ** (k - 1) * (2.0 * a1) ** sum(b)))
            assert constants.polar_moment(m, k, alpha, e, a, b) == pytest.approx(want, rel=1e-12)


def test_psi_sign_reaches_closed_form(rule_h1):
    from subfreq.verify import _flip_psi

    flipped = _flip_psi(rule_h1)
    np.testing.assert_array_equal(flipped.psi, -rule_h1.psi)
    p = Polynomial.monomial(2, 1, (2, 0), (2,)) + Polynomial.constant(2, 1, 1)
    assert sf.surface_integral(p, 0.9, flipped) == -sf.surface_integral(p, 0.9, rule_h1)
    assert sf.surface_integral(p, 0.9, flipped, weighted=False) \
        == sf.surface_integral(p, 0.9, rule_h1, weighted=False)


def test_polynomial_integrand_must_match_rule(rule_h1):
    with pytest.raises(DimensionMismatch):
        sf.surface_integral(Polynomial.z_var(4, 1, 0), 1.0, rule_h1)


def test_closed_form_reads_dilations_from_rule(rule_ba112):
    # z^a t^b has degree |a| + (alpha+1)|b| under the rule's dilations,
    # whatever layer weight the polynomial carries (2 here, alpha + 1 = 3)
    p = Polynomial.monomial(1, 1, (2,), (2,))
    for weighted in (True, False):
        quad = sf.surface_integral(lambda z, t: p.evaluate(z, t), 0.7, rule_ba112, weighted)
        assert abs(sf.surface_integral(p, 0.7, rule_ba112, weighted) - quad) <= 1e-12 * abs(quad)
