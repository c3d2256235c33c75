"""Exact linear algebra over the rationals.

Row reduction, rank and determinant are computed by sympy's DomainMatrix
over QQ (imported on first use, so that importing the package does not
load sympy).  Inputs and results are Fractions.
"""

from fractions import Fraction
from math import gcd, lcm


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


def rref(rows):
    """Reduced row echelon form. Returns (new_rows, pivot_columns).

    The RREF of a matrix is unique, so neither depends on how it is computed.
    """
    if not rows:
        return [], []
    reduced, pivots = _domain_matrix(rows).rref()
    return [[_fraction(x) for x in row] for row in reduced.to_list()], list(pivots)


def rank(rows):
    return _domain_matrix(rows).rank() if rows else 0


def kernel_basis(rows, ncols):
    """Basis of the null space of the matrix, as integer-cleared vectors.

    One basis vector per free column, in increasing column order; each vector
    has entry +denominator-cleared 1-slot at its free column.
    """
    reduced, pivots = rref(rows)
    pivot_set = set(pivots)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free_cols:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -reduced[r][fc]
        basis.append(clear_denominators(vec))
    return basis


def clear_denominators(vec):
    """Scale a rational vector to coprime integers with positive leading sign."""
    denoms = [x.denominator for x in vec if x != 0]
    if not denoms:
        return [Fraction(0)] * len(vec)
    mult = lcm(*denoms) if len(denoms) > 1 else denoms[0]
    ints = [x * mult for x in vec]
    g = 0
    for x in ints:
        g = gcd(g, int(x))
    if g > 1:
        ints = [x / g for x in ints]
    lead = next(x for x in ints if x != 0)
    if lead < 0:
        ints = [-x for x in ints]
    return ints


def det(rows):
    """Exact determinant of a square matrix."""
    return _fraction(_domain_matrix(rows).det())
