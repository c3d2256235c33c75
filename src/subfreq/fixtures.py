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


def random_polynomial(rng, m, k, tweight=2, max_degree=5, n_terms=6):
    """Random sparse polynomial with small integer coefficients."""
    terms = {}
    for _ in range(n_terms):
        a = tuple(int(rng.integers(0, max_degree + 1)) for _ in range(m))
        b = tuple(int(rng.integers(0, max_degree // tweight + 1)) for _ in range(k))
        coeff = int(rng.integers(-9, 10))
        if coeff:
            terms[(a, b)] = terms.get((a, b), 0) + coeff
    return Polynomial(m, k, tweight, terms)

