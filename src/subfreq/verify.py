"""Self-contained verification battery behind `subfreq verify`.

Each check returns (passed, detail); the battery has no random input, so
it is deterministic for a fixed resolution.  Residuals are folded with
`np.maximum`, so a NaN residual fails its check.
"""

import dataclasses
import math

import numpy as np

from . import fixtures
from .baouendi import BaouendiSpec, relative_orthogonality
from .frequency import (
    FunctionHandle,
    check_D_variation,
    check_H_identity,
    check_monneau_derivative,
    check_weiss_derivative,
    geometric_radii,
    radial_exponential_integrals,
)
from .groups import example_group_6d, example_group_metivier, heisenberg
from .polynomials import Polynomial, commutator_identities, discrepancy_poly
from .quadrature import build_sphere_rule, mean_value


def _flip_psi(rule):
    """Negative-control hook: inject a sign error into the psi weight."""
    return dataclasses.replace(rule, psi_sign=-rule.psi_sign)


def run_battery(resolution=32, flip_psi=False):
    """Run all checks; returns a list of {name, passed, detail} dicts."""
    g1 = heisenberg(1)
    rule = build_sphere_rule(g1, resolution)
    results = []

    def record(name, passed, detail):
        results.append({"name": name, "passed": bool(passed), "detail": detail})

    # the Euler and bracket identities of the fields, exact on the operators
    g6 = example_group_6d()
    record("euler-commutator-identities", all(map(commutator_identities, (g1, g6))),
           "exact on the operators of H^1 and the 6-d group")

    # mean-value calibration
    const = FunctionHandle.from_polynomial(g1, Polynomial.constant(g1.m, g1.k, 1))
    errs = [abs(mean_value(g1, const.value, g1.identity(), r, rule) - 1.0)
            for r in (0.5, 1.0, 2.0)]
    record("mean-value-calibration", np.max(errs) <= 1e-4, f"max err {np.max(errs):.2e}")

    # the injected psi fault reaches only the frequency functionals below;
    # the mean-value check above reads the true rule.psi
    if flip_psi:
        rule = _flip_psi(rule)

    # H' identity and full first variation
    radii = geometric_radii(0.5, 1.5, 16)
    polys = {"x": fixtures.poly_x(g1), "t": fixtures.poly_t(g1),
             "x2-y2": fixtures.poly_x2_minus_y2(g1)}
    worst_h = worst_d = 0.0
    for p in polys.values():
        u = FunctionHandle.from_polynomial(g1, p)
        worst_h = np.maximum(worst_h, np.max(check_H_identity(u, radii, rule)["residuals"]))
        worst_d = np.maximum(worst_d, np.max(check_D_variation(u, radii, rule)["residuals"]))
    record("H-prime-identity", worst_h <= 1e-2, f"max residual {worst_h:.2e}")
    record("first-variation-full", worst_d <= 1e-2, f"max residual {worst_d:.2e}")

    # Weiss derivative identity on vanishing-discrepancy fixtures
    worst_w = 0.0
    for p, kappa in ((fixtures.one_plus_t(g1), 0), (fixtures.mixed_cylindrical(g1), 2)):
        u = FunctionHandle.from_polynomial(g1, p)
        res = check_weiss_derivative(u, kappa, geometric_radii(0.4, 1.2, 16), rule)
        worst_w = np.maximum(worst_w, np.max(res["residuals"]))
    record("weiss-derivative", worst_w <= 1e-2, f"max residual {worst_w:.2e}")

    # Monneau: derivative identity and monotonicity
    u = FunctionHandle.from_polynomial(g1, fixtures.mixed_cylindrical(g1), label="t+cP4")
    pref = FunctionHandle.from_polynomial(g1, fixtures.poly_t(g1), label="t")
    res = check_monneau_derivative(u, pref, 2, geometric_radii(0.4, 1.2, 16), rule)
    worst_m = float(np.max(res["residuals"]))
    record("monneau", worst_m <= 1e-2 and res["nondecreasing"],
           f"max residual {worst_m:.2e}, nondecreasing={res['nondecreasing']}")

    # Baouendi orthogonality (alpha=1, m=2, k=1)
    spec = BaouendiSpec(2, 1, 1)
    brule = build_sphere_rule(spec, resolution)
    if flip_psi:
        brule = _flip_psi(brule)
    _, rel = relative_orthogonality(spec, 1.0, brule)
    record("baouendi-orthogonality", rel <= 1e-6, f"relative inner product {rel:.2e}")

    # six-dimensional example group: exact discrepancy fixture
    x1sq_x3sq = (Polynomial.z_var(4, 2, 0) ** 2 + Polynomial.z_var(4, 2, 2) ** 2)
    disc = discrepancy_poly(g6, x1sq_x3sq)
    expected = (Polynomial.t_var(4, 2, 0)
                * (Polynomial.z_var(4, 2, 0) * Polynomial.z_var(4, 2, 1)
                   + Polynomial.z_var(4, 2, 2) * Polynomial.z_var(4, 2, 3)) * (-2))
    record("six-dim-discrepancy-fixture", disc == expected, "exact")

    # radial exponential fixture: N = eps / r^eps on any rule, and H against
    # its closed form exp(-2 r^-eps) r^(Q-1) Q^2/(Q-2), which reads psi
    eps, q = 0.5, rule.Q
    worst_n = worst_h = 0.0
    radii = (0.5, 1.0, 1.5)
    for r, i, h in zip(radii, *radial_exponential_integrals(eps, np.array(radii), rule)):
        h_exact = math.exp(-2.0 * r ** -eps) * r ** (q - 1.0) * q ** 2 / (q - 2.0)
        worst_n = np.maximum(worst_n, abs(i / h - eps / r ** eps) / (eps / r ** eps))
        worst_h = np.maximum(worst_h, abs(h - h_exact) / h_exact)
    record("radial-exponential-frequency", np.maximum(worst_n, worst_h) <= 1e-3,
           f"max rel err N {worst_n:.2e}, H {worst_h:.2e}")

    # the Metivier example group is not of Heisenberg type
    cls = example_group_metivier().classification
    record("metivier-example-classification",
           cls["is_metivier"] and not cls["is_htype"], str(cls))

    return results
