import os
import subprocess
import sys
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from subfreq import exactla


fracs = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def test_to_fraction_forms():
    assert exactla.to_fraction(3) == Fraction(3)
    assert exactla.to_fraction("3/4") == Fraction(3, 4)
    assert exactla.to_fraction(Fraction(1, 7)) == Fraction(1, 7)
    assert exactla.to_fraction(0.25) == Fraction(1, 4)


def test_rank_and_rref():
    rows = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert oracles.rank(rows) == 1


def test_kernel_known():
    rows = [[Fraction(1), Fraction(1), Fraction(0)]]
    basis = exactla.kernel_basis(rows, 3)
    assert len(basis) == 2
    for vec in basis:
        assert sum(r * v for r, v in zip(rows[0], vec)) == 0
    # no rows, or only zero rows: every column is free
    identity = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    assert exactla.kernel_basis([], 3) == identity
    assert exactla.kernel_basis([[Fraction(0)] * 3] * 2, 3) == identity


def test_kernel_full_rank_empty():
    rows = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    assert exactla.kernel_basis(rows, 2) == []


def test_det_known():
    assert exactla.det([[Fraction(0), Fraction(-1)],
                        [Fraction(1), Fraction(0)]]) == 1
    assert exactla.det([[Fraction(1), Fraction(2)],
                        [Fraction(2), Fraction(4)]]) == 0


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(fracs, min_size=4, max_size=4), min_size=2, max_size=4))
def test_kernel_vectors_annihilated(rows):
    basis = exactla.kernel_basis([list(r) for r in rows], 4)
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
    basis = exactla.kernel_basis(rows, 3)
    for vec in basis:
        assert all(c.denominator == 1 for c in vec)


def test_import_does_not_load_sympy():
    code = "import sys, subfreq; assert 'sympy' not in sys.modules"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
