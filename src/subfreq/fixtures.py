"""Named test functions used by the verification battery and the tests."""

from fractions import Fraction

from .polynomials import Polynomial, solid_harmonic_quadratic


def poly_x(G):
    return Polynomial.z_var(G.m, G.k, 0)


def poly_y(G):
    return Polynomial.z_var(G.m, G.k, 1)


def poly_t(G):
    return Polynomial.t_var(G.m, G.k, 0)


def poly_x2_minus_y2(G):
    x = poly_x(G)
    y = poly_y(G)
    return x * x - y * y


# |z|^4 - A |t|^2 on a group: harmonic, cylindrically symmetric, hence with
# vanishing discrepancy
quartic_cylindrical = solid_harmonic_quadratic


def one_plus_t(G):
    return Polynomial.constant(G.m, G.k, 1) + poly_t(G)


def mixed_cylindrical(G, c=Fraction(1, 10)):
    """t + c * (quartic cylindrical harmonic): non-homogeneous, harmonic,
    vanishing discrepancy."""
    return poly_t(G) + quartic_cylindrical(G) * c
