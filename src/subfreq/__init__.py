"""Frequency functions for harmonic functions on step-2 Carnot groups and
for the degenerate operators B_alpha.

Public surface: group construction and classification, exact polynomial
calculus for the horizontal operators, calibrated gauge-sphere quadrature,
the Almgren/Weiss/Monneau functionals with their derivative identities,
and the Baouendi machinery including a finite-difference Dirichlet solver.
"""

from .baouendi import (
    BaouendiSpec,
    GridSolution,
    fd_solve,
    orthogonality_check,
    problem_from_json,
)
from .constants import Geometry, gauge_constant
from .errors import SubfreqError
from .frequency import (
    FrequencyCurve,
    FunctionHandle,
    check_D_variation,
    check_H_identity,
    check_monneau_derivative,
    check_weiss_derivative,
    dirichlet,
    doubling_ratio,
    discrepancy_surface_norm,
    frequency,
    frequency_curve,
    frequency_radial_exponential,
    geometric_radii,
    height,
    monneau,
    weiss,
)
from .groups import (
    GroupSpec,
    Point,
    classify,
    dilate,
    example_group_6d,
    example_group_metivier,
    fundamental_solution,
    gauge,
    group_from_json,
    group_product,
    group_to_json,
    heisenberg,
    inverse,
    left_translate,
    make_group,
)
from .polynomials import (
    Polynomial,
    apply_X,
    apply_theta,
    baouendi_apply,
    carre_du_champ,
    discrepancy_poly,
    euler,
    euler_Z,
    harmonic_basis,
    solid_harmonic_quadratic,
    sublaplacian,
)
from .quadrature import (
    SphereRule,
    build_sphere_rule,
    mean_value,
    surface_integral,
    volume_integral,
)
from .verify import run_battery

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
