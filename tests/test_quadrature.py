import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

import subfreq as sf
from subfreq import constants
from subfreq.errors import (
    InsufficientSamples,
    NotHType,
    ResolutionTooLarge,
    ResolutionTooSmall,
)
from subfreq.groups import Point
from subfreq.polynomials import Polynomial
from subfreq.quadrature import (
    MAX_RULE_NODES,
    surface_psi_integral,
    unit_ball_volume_raw,
    unit_sphere_rule,
)


def test_nodes_lie_on_unit_gauge_sphere(rule_h1, rule_ba112):
    for rule in (rule_h1, rule_ba112):
        a1 = rule.alpha + 1.0
        rho = (np.sum(rule.z ** 2, axis=1) ** a1
               + 4.0 * a1 ** 2 * np.sum(rule.t ** 2, axis=1)) ** (1.0 / (2.0 * a1))
        assert np.max(np.abs(rho - 1.0)) < 1e-12


def test_calibration_sum(rule_h1, rule_h2, rule_ba112, rule_ba211):
    for rule in (rule_h1, rule_h2, rule_ba112, rule_ba211):
        target = rule.Q ** 2 / (rule.Q - 2.0)
        assert float(np.dot(rule.weights, rule.psi)) == pytest.approx(target, rel=1e-12)


def test_calibration_sum_6d_group():
    rule = sf.build_sphere_rule(sf.example_group_6d(), 16)
    assert float(np.dot(rule.weights, rule.psi)) == pytest.approx(
        rule.Q ** 2 / (rule.Q - 2.0), rel=1e-12)


def test_surface_psi_integral_h1_oracle():
    # hand-derived: int_{S_1} psi dmu_raw = pi on H^1
    assert surface_psi_integral(2, 1, 1.0) == pytest.approx(math.pi, rel=1e-12)


def test_unit_ball_volume_h1_oracle():
    # hand-derived: |B_1| = pi^2 / 8 for the raw polar measure on H^1
    assert unit_ball_volume_raw(2, 1, 1.0) == pytest.approx(math.pi ** 2 / 8.0, rel=1e-12)


def test_calibrated_ball_volume_h1(h1, rule_h1):
    # gamma = 8/pi on H^1, so the calibrated |B_r| is pi r^4
    one = lambda z, t: np.ones(len(z))
    for r in (0.5, 1.0, 2.0):
        val = sf.volume_integral(one, r, rule_h1)
        assert val == pytest.approx(math.pi * r ** 4, rel=1e-12)


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
    mc = sf.mc_thin_shell(f, 1.0, 0.05, 400_000, 42, rule_h1, weighted=True)
    assert abs(mc["value"] - det) < 4.0 * mc["stderr"] + 1e-3 * abs(det)


def test_surface_vs_mc_oracle_baouendi(rule_ba112):
    f = lambda z, t: np.exp(z[:, 0]) + t[:, 0] ** 2
    det = sf.surface_integral(f, 0.8, rule_ba112, weighted=False)
    mc = sf.mc_thin_shell(f, 0.8, 0.04, 400_000, 7, rule_ba112, weighted=False)
    assert abs(mc["value"] - det) < 4.0 * mc["stderr"] + 1e-3 * abs(det)


def test_mc_guards(rule_h1):
    f = lambda z, t: np.ones(len(z))
    with pytest.raises(InsufficientSamples):
        sf.mc_thin_shell(f, 1.0, 0.05, 10, 0, rule_h1)
    with pytest.raises(InsufficientSamples):
        sf.mc_thin_shell(f, 1.0, 2.0, 10_000, 0, rule_h1)


def test_resolution_guard(h1):
    with pytest.raises(ResolutionTooSmall):
        sf.build_sphere_rule(h1, 2)


def test_non_htype_group_rejected():
    with pytest.raises(NotHType):
        sf.build_sphere_rule(sf.example_group_metivier(), 16)


def test_resolution_too_large_raises_before_allocating():
    # H^3 at res 32 needs 4 * 32 * 17^5 (about 182M) nodes
    assert 4 * 32 * 17 ** 5 > MAX_RULE_NODES
    tracemalloc.start()
    try:
        with pytest.raises(ResolutionTooLarge):
            sf.build_sphere_rule(sf.heisenberg(3), 32)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_resolution_too_large_names_largest_fitting_resolution():
    def n_nodes(m, k, res):
        return 4 * res * (res // 2 + 1) ** (m + k - 2)

    with pytest.raises(ResolutionTooLarge) as exc:
        sf.build_sphere_rule(sf.heisenberg(3), 32)
    match = re.search(r"largest resolution within it is (\d+)", str(exc.value))
    assert match is not None
    best = int(match.group(1))
    assert n_nodes(6, 1, best) <= MAX_RULE_NODES < n_nodes(6, 1, best + 1)
    # H^7: even the smallest resolution needs 16 * 3^13 nodes
    with pytest.raises(ResolutionTooLarge, match="no resolution >= 4"):
        sf.build_sphere_rule(sf.heisenberg(7), 32)


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


def test_gauge_constant_h1_oracle():
    # frozen oracle: C = 1/(2 pi) on H^1
    assert sf.gauge_constant(2, 1, 1.0) == pytest.approx(1.0 / (2.0 * math.pi),
                                                         rel=1e-8)


def test_gauge_constant_mc_agrees():
    for (m, k, alpha) in ((2, 1, 1.0), (1, 1, 2.0)):
        det = sf.gauge_constant(m, k, alpha)
        mc, err = sf.gauge_constant_mc(m, k, alpha, samples=400_000, seed=11)
        assert abs(mc - det) < 4.0 * err + 1e-4 * det


def test_gauge_constant_mc_needs_samples():
    with pytest.raises(InsufficientSamples):
        sf.gauge_constant_mc(2, 1, 1.0, samples=10)
