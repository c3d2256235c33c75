"""End-to-end acceptance suite.

Each test evaluates one numbered criterion at its stated tolerance and
prints exactly one PASS/FAIL line (run pytest with -s to see them all).

Two criteria concern the discrepancy E u = 4 sum_l t_l Theta_l u / rho^3:

- criterion 3 checks the first variation of D(r) on a fixture whose E_u
  boundary term is nonzero, and that dropping the term breaks it;
- criterion 8 checks that a group-harmonic polynomial with vanishing
  discrepancy is B_1-harmonic (Delta_H = B_1 + sum_l d_{t_l} Theta_l),
  and that the converse fails on x and y.
"""

from fractions import Fraction

import numpy as np
import pytest

import oracles
import subfreq as sf
from subfreq import fixtures
from subfreq.frequency import FunctionHandle
from subfreq.polynomials import Polynomial


def report(num, passed, detail):
    print(f"\n[criterion {num:2d}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, detail


@pytest.fixture(scope="module")
def ba112_mixed(ba112):
    t = Polynomial.t_var(1, 1, 0, tweight=3)
    return t + sf.solid_harmonic_quadratic(ba112) * Fraction(1, 10)


def test_criterion_01_mean_value_calibration(h1, h2, rule_h1, rule_h2):
    worst = 0.0
    one = lambda z, t: np.ones(len(z))
    for g, rule in ((h1, rule_h1), (h2, rule_h2)):
        for r in (0.5, 1.0, 2.0):
            worst = max(worst, abs(sf.mean_value(g, one, g.identity(), r, rule) - 1.0))
    report(1, worst <= 1e-4, f"max |M_r(1) - 1| = {worst:.2e} on H^1 and H^2")


def test_criterion_02_constant_frequency_of_harmonics(h1, rule_h1):
    radii = sf.geometric_radii(0.25, 2.0, 32)
    worst_rel = 0.0
    for kappa in (1, 2, 3, 4):
        for p in sf.harmonic_basis(h1, kappa):
            u = FunctionHandle.from_polynomial(h1, p)
            err = max(abs(sf.frequency(u, r, rule_h1) - kappa) for r in radii)
            worst_rel = max(worst_rel, err / (1e-3 * kappa))
    report(2, worst_rel <= 1.0,
           f"worst |N - kappa| / (1e-3 kappa) = {worst_rel:.2e} over kappa=1..4")


def test_criterion_03_h_prime_and_first_variation(h1, rule_h1):
    radii = sf.geometric_radii(0.5, 1.5, 16)
    # the E_u boundary terms of x, t and x^2 - y^2 integrate to zero on
    # every gauge sphere by parity; that of x + yt - x|z|^2/8 does not
    polys = [fixtures.poly_x(h1), fixtures.poly_t(h1),
             fixtures.poly_x2_minus_y2(h1),
             oracles.harmonic_with_discrepancy(h1)]
    worst_h = worst_d = 0.0
    for p in polys:
        u = FunctionHandle.from_polynomial(h1, p)
        worst_h = max(worst_h, float(np.max(
            sf.check_H_identity(u, radii, rule_h1)["residuals"])))
        worst_d = max(worst_d, float(np.max(
            sf.check_D_variation(u, radii, rule_h1)["residuals"])))
    # negative control: without the E_u term the D' identity must break
    ud = FunctionHandle.from_polynomial(h1, oracles.harmonic_with_discrepancy(h1))
    full = float(np.max(sf.check_D_variation(ud, radii, rule_h1)["residuals"]))
    trunc = float(np.max(sf.check_D_variation(
        ud, radii, rule_h1, include_discrepancy=False)["residuals"]))
    ratio = trunc / full
    passed = worst_h <= 1e-2 and worst_d <= 1e-2 and ratio >= 10.0
    report(3, passed,
           f"H' residual {worst_h:.2e}, D' residual {worst_d:.2e}, "
           f"truncated/full ratio for u=x+yt-x|z|^2/8 is {ratio:.2f} "
           f"(need >= 10)")


def test_criterion_04_frequency_monotonicity(h1, rule_h1, ba112, rule_ba112,
                                             ba112_mixed):
    slack = 1e-5
    details = []
    ok = True

    radii_g = sf.geometric_radii(0.3, 1.2, 20)
    for p, name in ((fixtures.one_plus_t(h1), "1+t"),
                    (fixtures.mixed_cylindrical(h1), "t+cP4")):
        u = FunctionHandle.from_polynomial(h1, p)
        vals = [sf.frequency(u, r, rule_h1) for r in radii_g]
        good = bool(np.all(np.diff(vals) >= -slack))
        ok &= good
        details.append(f"group {name}: {'ok' if good else 'violated'}")

    radii_b = sf.geometric_radii(0.3, 1.0, 20)
    tweight = ba112.tweight
    bfix = [(Polynomial.z_var(1, 1, 0, tweight=tweight), "z"),
            (Polynomial.t_var(1, 1, 0, tweight=tweight), "t"),
            (sf.solid_harmonic_quadratic(ba112), "P6"),
            (ba112_mixed, "t+cP6")]
    for p, name in bfix:
        u = FunctionHandle.from_polynomial(ba112, p)
        vals = [sf.frequency(u, r, rule_ba112) for r in radii_b]
        good = bool(np.all(np.diff(vals) >= -slack))
        ok &= good
        details.append(f"Ba {name}: {'ok' if good else 'violated'}")

    t = Polynomial.t_var(1, 1, 0, tweight=tweight)
    mix = t + sf.solid_harmonic_quadratic(ba112)
    sol = sf.fd_solve(ba112, [(-1.0, 1.0), (-1.0, 1.0)], [257, 257],
                      mix.evaluate)
    u_fd = sol.as_handle()
    vals = [sf.frequency(u_fd, r, rule_ba112)
            for r in sf.geometric_radii(0.25, 0.7, 12)]
    good = bool(np.all(np.diff(vals) >= -slack))
    ok &= good
    details.append(f"Ba FD mixed: {'ok' if good else 'violated'}")
    report(4, ok, "; ".join(details))


def test_criterion_05_weiss_derivative(h1, rule_h1, ba112, rule_ba112,
                                       ba112_mixed):
    u_b = FunctionHandle.from_polynomial(ba112, ba112_mixed)
    res_b = sf.check_weiss_derivative(u_b, 3, sf.geometric_radii(0.3, 1.0, 16),
                                      rule_ba112)
    worst_b = float(np.max(res_b["residuals"]))

    worst_g = 0.0
    for p, kappa in ((fixtures.one_plus_t(h1), 0),
                     (fixtures.mixed_cylindrical(h1), 2)):
        u = FunctionHandle.from_polynomial(h1, p)
        res = sf.check_weiss_derivative(u, kappa,
                                        sf.geometric_radii(0.4, 1.2, 16), rule_h1)
        worst_g = max(worst_g, float(np.max(res["residuals"])))
    passed = worst_b <= 1e-2 and worst_g <= 1e-2
    report(5, passed,
           f"dW/dr residual: Baouendi mixed {worst_b:.2e}, group {worst_g:.2e}")


def test_criterion_06_monneau(h1, rule_h1, ba112, rule_ba112, ba112_mixed):
    t = Polynomial.t_var(1, 1, 0, tweight=3)
    u = FunctionHandle.from_polynomial(ba112, ba112_mixed, label="mix")
    ref = FunctionHandle.from_polynomial(ba112, t, label="t")
    radii = sf.geometric_radii(0.3, 1.0, 16)
    res = sf.check_monneau_derivative(u, ref, 3, radii, rule_ba112)
    worst = float(np.max(res["residuals"]))
    mono = bool(np.all(np.diff(res["M"]) >= -1e-5))

    # W(u, r) = W(u - P_kappa, r)
    worst_ww = 0.0
    for r in radii:
        w1 = sf.weiss(u, 3, r, rule_ba112)
        w2 = sf.weiss(u.shifted_by(ref), 3, r, rule_ba112)
        worst_ww = max(worst_ww, abs(w1 - w2) / max(abs(w1), abs(w2), 1e-300))
    gm = FunctionHandle.from_polynomial(h1, fixtures.mixed_cylindrical(h1),
                                        label="gm")
    gref = FunctionHandle.from_polynomial(h1, fixtures.poly_t(h1), label="t")
    for r in sf.geometric_radii(0.4, 1.2, 8):
        w1 = sf.weiss(gm, 2, r, rule_h1)
        w2 = sf.weiss(gm.shifted_by(gref), 2, r, rule_h1)
        worst_ww = max(worst_ww, abs(w1 - w2) / max(abs(w1), abs(w2), 1e-300))

    passed = worst <= 1e-2 and mono and worst_ww <= 1e-3
    report(6, passed,
           f"dM/dr residual {worst:.2e}, M nondecreasing {mono}, "
           f"WW identity max rel {worst_ww:.2e}")


def test_criterion_07_orthogonality(ba211, rule_ba211, ba112, rule_ba112):
    worst = 0.0
    for spec, rule in ((ba211, rule_ba211), (ba112, rule_ba112)):
        tweight = spec.tweight
        p1 = Polynomial.z_var(spec.m, spec.k, 0, tweight=tweight)
        pq = sf.solid_harmonic_quadratic(spec)
        inner = sf.orthogonality_check(spec, p1, pq, 1.0, rule)
        n1 = abs(sf.orthogonality_check(spec, p1, p1, 1.0, rule)) ** 0.5
        n2 = abs(sf.orthogonality_check(spec, pq, pq, 1.0, rule)) ** 0.5
        worst = max(worst, abs(inner) / (n1 * n2))
    report(7, worst <= 1e-6,
           f"max relative inner product {worst:.2e} for (alpha,m,k)=(1,2,1),(2,1,1)")


def test_criterion_08_symbolic_suite(h1, h2):
    rng = np.random.default_rng(2024)
    details = []

    # Lemma-style Euler identities on 100 random polynomials, exact
    zprop_ok = True
    for _ in range(100):
        p = oracles.random_polynomial(rng, 2, 1)
        for i in range(2):
            comm = (sf.apply_X(h1, i, sf.euler_Z(h1, p))
                    - sf.euler_Z(h1, sf.apply_X(h1, i, p)))
            zprop_ok &= comm == sf.apply_X(h1, i, p)
        lhs = sf.sublaplacian(h1, sf.euler_Z(h1, p))
        rhs = sf.euler_Z(h1, sf.sublaplacian(h1, p)) + sf.sublaplacian(h1, p) * 2
        zprop_ok &= lhs == rhs
    # divergence of the Euler field is the homogeneous dimension
    div = sum(Polynomial.z_var(2, 1, i).diff_z(i)
              for i in range(2)) + 2 * Polynomial.t_var(2, 1, 0).diff_t(0)
    zprop_ok &= div == Polynomial.constant(2, 1, h1.Q)
    details.append(f"Euler identities {'ok' if zprop_ok else 'BROKEN'}")

    # <J_l z, J_l' z> = |z|^2 delta as exact polynomials
    def ip_identity(g):
        from subfreq.polynomials import _jz_component
        zn = Polynomial.z_norm_sq(g.m, g.k)
        for l1 in range(g.k):
            for l2 in range(g.k):
                acc = Polynomial.zero(g.m, g.k)
                for i in range(g.m):
                    acc = acc + _jz_component(g, l1, i) * _jz_component(g, l2, i)
                want = zn if l1 == l2 else Polynomial.zero(g.m, g.k)
                if acc != want:
                    return False
        return True

    ip_ok = all(ip_identity(g) for g in (h1, h2, sf.example_group_6d()))
    details.append(f"J-pencil identity {'ok' if ip_ok else 'BROKEN'}")

    g6 = sf.example_group_6d()
    u6 = Polynomial.z_var(4, 2, 0) ** 2 + Polynomial.z_var(4, 2, 2) ** 2
    expected = (Polynomial.t_var(4, 2, 0)
                * (Polynomial.z_var(4, 2, 0) * Polynomial.z_var(4, 2, 1)
                   + Polynomial.z_var(4, 2, 2) * Polynomial.z_var(4, 2, 3)) * (-2))
    six_ok = sf.discrepancy_poly(g6, u6) == expected
    details.append(f"six-dim fixture {'ok' if six_ok else 'BROKEN'}")

    # vanishing discrepancy => B_1-harmonic, for group-harmonic p on H^1:
    # t Theta p = 0 forces Theta p = 0, so Delta_H p = B_1 p.  Among the
    # harmonic basis elements of degrees 1-4 only t has vanishing
    # discrepancy, so the cylindrical fixtures exercise it as well.
    ba = sf.BaouendiSpec(2, 1, 1)
    basis = [p for kappa in range(1, 5) for p in sf.harmonic_basis(h1, kappa)]
    cylindrical = [fixtures.poly_t(h1), fixtures.one_plus_t(h1),
                   fixtures.quartic_cylindrical(h1),
                   fixtures.mixed_cylindrical(h1)]
    impl_ok = all(sf.sublaplacian(h1, p).is_zero()
                  and sf.discrepancy_poly(h1, p).is_zero()
                  for p in cylindrical)
    witnesses = [repr(p) for p in basis + cylindrical
                 if sf.discrepancy_poly(h1, p).is_zero()
                 and not sf.baouendi_apply(ba, p).is_zero()]
    impl_ok &= not witnesses
    details.append(
        "discrepancy 0 => B_1 p = 0 ok" if impl_ok else
        f"discrepancy 0 => B_1 p = 0 BROKEN (witnesses: {witnesses[:2]})")

    # the converse fails: x and y are B_1-harmonic, with discrepancy
    # numerators t Theta x = -t y and t Theta y = t x
    x, y, t = fixtures.poly_x(h1), fixtures.poly_y(h1), fixtures.poly_t(h1)
    conv_ok = (sf.discrepancy_poly(h1, x) == t * y * -1
               and sf.discrepancy_poly(h1, y) == t * x
               and sf.baouendi_apply(ba, x).is_zero()
               and sf.baouendi_apply(ba, y).is_zero())
    details.append(f"converse fails on x, y {'ok' if conv_ok else 'BROKEN'}")

    met_ok = not sf.groups._is_htype(sf.example_group_metivier())
    details.append(f"Metivier non-H-type {'ok' if met_ok else 'BROKEN'}")

    passed = zprop_ok and ip_ok and six_ok and impl_ok and conv_ok and met_ok
    report(8, passed, "; ".join(details))


def test_criterion_09_radial_exponential(rule_h1):
    eps = 0.5
    worst = max(
        abs(sf.frequency_radial_exponential(eps, r, rule_h1) - eps / r ** eps)
        / (eps / r ** eps)
        for r in (0.5, 1.0, 1.5))
    report(9, worst <= 1e-3, f"max rel error {worst:.2e} for eps=0.5")


def test_criterion_10_scaling_and_doubling(h1, rule_h1):
    lam = Fraction(7, 5)
    worst_scale = 0.0
    for p in (fixtures.poly_x(h1), fixtures.mixed_cylindrical(h1)):
        u = FunctionHandle.from_polynomial(h1, p)
        ud = FunctionHandle.from_polynomial(h1, oracles.dilated(p, lam))
        for r in (0.4, 0.8):
            n1 = sf.frequency(ud, r, rule_h1)
            n2 = sf.frequency(u, float(lam) * r, rule_h1)
            worst_scale = max(worst_scale, abs(n1 - n2) / abs(n2))
    worst_double = 0.0
    for p, kappa in ((fixtures.poly_x(h1), 1), (fixtures.poly_t(h1), 2),
                     (fixtures.quartic_cylindrical(h1), 4)):
        u = FunctionHandle.from_polynomial(h1, p)
        ratio = sf.doubling_ratio(u, 0.5, rule_h1)
        target = 2.0 ** (rule_h1.Q + 2 * kappa)
        worst_double = max(worst_double, abs(ratio - target) / target)
    passed = worst_scale <= 1e-3 and worst_double <= 1e-3
    report(10, passed,
           f"scaling max rel {worst_scale:.2e}, doubling max rel {worst_double:.2e}")
