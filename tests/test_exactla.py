import os
import subprocess
import sys
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from subfreq import exactla


fracs = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def kernel(rows, ncols):
    """`kernel_basis` of dense rows, as dense vectors."""
    sparse = [{j: x for j, x in enumerate(row) if x != 0} for row in rows]
    return [[vec.get(j, Fraction(0)) for j in range(ncols)]
            for vec in exactla.kernel_basis(sparse, ncols)]


def test_to_fraction_forms():
    assert exactla.to_fraction(3) == Fraction(3)
    assert exactla.to_fraction("3/4") == Fraction(3, 4)
    assert exactla.to_fraction(Fraction(1, 7)) == Fraction(1, 7)
    assert exactla.to_fraction(0.25) == Fraction(1, 4)


def test_to_fraction_reads_a_float_as_the_decimal_it_prints_as():
    # limit_denominator(10**12) used to round 1e-13 to 0
    assert exactla.to_fraction(1e-13) == Fraction(1, 10 ** 13)
    assert exactla.to_fraction(0.1) == Fraction(1, 10)
    assert exactla.to_fraction(-2.5e-7) == Fraction(-1, 4_000_000)


def test_rank_and_rref():
    rows = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert oracles.rank(rows) == 1


def test_kernel_known():
    rows = [[Fraction(1), Fraction(1), Fraction(0)]]
    basis = kernel(rows, 3)
    assert len(basis) == 2
    for vec in basis:
        assert sum(r * v for r, v in zip(rows[0], vec)) == 0
    # no rows, or only zero rows: every column is free
    identity = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    assert kernel([], 3) == identity
    assert kernel([[Fraction(0)] * 3] * 2, 3) == identity


def test_kernel_full_rank_empty():
    rows = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    assert kernel(rows, 2) == []


def test_det_known():
    assert exactla.det([[Fraction(0), Fraction(-1)],
                        [Fraction(1), Fraction(0)]]) == 1
    assert exactla.det([[Fraction(1), Fraction(2)],
                        [Fraction(2), Fraction(4)]]) == 0


def test_pencil_has_real_root():
    one = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    rot = [[Fraction(0), Fraction(-1)], [Fraction(1), Fraction(0)]]
    # a singular
    assert exactla.pencil_has_real_root([[Fraction(1), Fraction(2)],
                                         [Fraction(2), Fraction(4)]], one)
    # det(x rot + 2 rot) = (x + 2)^2: a double real root
    assert exactla.pencil_has_real_root(rot, [[2 * x for x in row] for row in rot])
    # det(x I + rot) = x^2 + 1: no real root
    assert not exactla.pencil_has_real_root(one, rot)
    # eigenvalues +-i and 3 of a^-1 b: one real root among complex ones
    b = [[Fraction(int(v)) for v in row]
         for row in ((0, -1, 0), (1, 0, 0), (0, 0, 3))]
    eye = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    assert exactla.pencil_has_real_root(eye, b)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(fracs, min_size=4, max_size=4), min_size=2, max_size=4))
def test_kernel_vectors_annihilated(rows):
    basis = kernel([list(r) for r in rows], 4)
    assert len(basis) == 4 - oracles.rank([list(r) for r in rows])
    for vec in basis:
        for row in rows:
            assert sum(r * v for r, v in zip(row, vec)) == 0


@settings(max_examples=30, deadline=None)
@given(st.lists(st.lists(fracs, min_size=3, max_size=3), min_size=3, max_size=3))
def test_det_vanishes_iff_rank_deficient(rows):
    d = exactla.det([list(r) for r in rows])
    assert (d == 0) == (oracles.rank([list(r) for r in rows]) < 3)


def test_kernel_vectors_integer_cleared():
    rows = [[Fraction(1, 2), Fraction(1, 3), Fraction(0)]]
    basis = kernel(rows, 3)
    for vec in basis:
        assert all(c.denominator == 1 for c in vec)


def test_import_does_not_load_sympy():
    # nor scipy: the Gauss-Jacobi rules are numpy's, and the FD solver
    # imports scipy itself
    code = ("import sys, subfreq; assert 'sympy' not in sys.modules; "
            "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
