"""Exact linear algebra over the rationals.

Determinants, null spaces and the real roots of a pencil are computed by
sympy's DomainMatrix over QQ (the null space fraction-free over ZZ),
imported on first use, so that importing the package does not load sympy.
Inputs and results are Fractions.
"""

from fractions import Fraction
from math import gcd


def to_fraction(x):
    """Convert ints, Fractions, "p/q" strings, and floats to Fraction; a float
    reads as the decimal it prints as (0.1 is 1/10, 1e-13 is 1/10^13)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(repr(x))
    raise TypeError(f"cannot convert {type(x).__name__} to Fraction")


def _domain_matrix(rows, ncols):
    """Sparse DomainMatrix over QQ holding the sparse rows {column: entry}
    of ints or Fractions, with at least one row."""
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    elements = {}
    for i, row in enumerate(rows):
        entries = {j: QQ(x.numerator, x.denominator) for j, x in row.items() if x != 0}
        if entries:
            elements[i] = entries
    return DomainMatrix(elements, (max(len(rows), 1), ncols), QQ)


def _square(rows):
    """The DomainMatrix of a dense square matrix."""
    return _domain_matrix([dict(enumerate(row)) for row in rows], len(rows))


def kernel_basis(rows, ncols):
    """Basis of the null space of the matrix with the sparse rows
    {column: entry}, as sparse primitive integer vectors {column: Fraction}.

    One vector per free column of the reduced matrix, in increasing column
    order, divided by the gcd of its entries and signed so that its first
    nonzero entry is positive.  Scaling a row to integers keeps the null
    space, which sympy then computes fraction-free over ZZ.
    """
    _, numerators = _domain_matrix(rows, ncols).clear_denoms_rowwise(convert=True)
    basis = []
    for _, vec in sorted(numerators.nullspace().to_sdm().items()):
        entries = sorted((j, int(x)) for j, x in vec.items())
        g = gcd(*(x for _, x in entries)) * (1 if entries[0][1] > 0 else -1)
        basis.append({j: Fraction(x // g) for j, x in entries})
    return basis


def det(rows):
    """Exact determinant of a square matrix."""
    q = _square(rows).det()
    return Fraction(q.numerator, q.denominator)


def pencil_has_real_root(a, b):
    """Whether det(x a + b) = 0 for some real x, or a is singular, for square
    matrices a and b: true exactly when a is singular or a^-1 b has a real
    eigenvalue (the roots are x = -lambda)."""
    from sympy import QQ
    from sympy.polys.polyclasses import DMP

    a = _square(a)
    if a.det() == 0:
        return True
    return DMP(a.inv().matmul(_square(b)).charpoly(), QQ).count_real_roots() > 0
