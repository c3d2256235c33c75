"""Exact linear algebra over the rationals.

The determinant is computed by sympy's DomainMatrix over QQ, and the
kernel is sympy's null space over ZZ (imported on first use, so that
importing the package does not load sympy).  Inputs and results are
Fractions.
"""

from fractions import Fraction
from math import gcd


def to_fraction(x):
    """Convert ints, Fractions, "p/q" strings, and floats to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x).limit_denominator(10 ** 12) if not x.is_integer() else Fraction(int(x))
    raise TypeError(f"cannot convert {type(x).__name__} to Fraction")


def _domain_matrix(rows):
    """Sparse DomainMatrix over QQ holding a nonempty list of rows."""
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    elements = {}
    for i, row in enumerate(rows):
        fracs = {j: to_fraction(x) for j, x in enumerate(row) if x != 0}
        if fracs:
            elements[i] = {j: QQ(x.numerator, x.denominator) for j, x in fracs.items()}
    return DomainMatrix(elements, (len(rows), len(rows[0])), QQ)


def _fraction(q):
    return Fraction(q.numerator, q.denominator)


def kernel_basis(rows, ncols):
    """Basis of the null space of the matrix, as primitive integer vectors.

    One vector per free column of the reduced matrix, in increasing column
    order, divided by the gcd of its entries and signed so that its first
    nonzero entry is positive.  Scaling a row to integers keeps the null
    space, which sympy then computes fraction-free over ZZ.
    """
    _, numerators = _domain_matrix(rows or [[0] * ncols]).clear_denoms_rowwise(convert=True)
    basis = []
    for vec in numerators.nullspace().to_list():
        vec = [int(x) for x in vec]
        g = gcd(*vec) if next(x for x in vec if x) > 0 else -gcd(*vec)
        basis.append([Fraction(x // g) for x in vec])
    return basis


def det(rows):
    """Exact determinant of a square matrix."""
    return _fraction(_domain_matrix(rows).det())
