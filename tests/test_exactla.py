import os
import subprocess
import sys
from fractions import Fraction
from math import lcm

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from subfreq import exactla
from subfreq.errors import IntegerOverflow, PrimesExhausted


fracs = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def integer_rows(rows):
    """Each rational row times the lcm of its denominators: the same null space."""
    return [[int(x * lcm(*(Fraction(y).denominator for y in row))) for x in row] for row in rows]


def kernel(rows, ncols):
    """`kernel_basis` of dense rational rows, as dense vectors."""
    return [[vec.get(j, Fraction(0)) for j in range(ncols)]
            for vec in exactla.kernel_basis(integer_rows(rows), ncols)]


def sympy_kernel(rows, ncols):
    """The oracle's kernel of dense rational rows, as dense vectors."""
    sparse = [{j: Fraction(x) for j, x in enumerate(row) if x} for row in rows]
    return [[vec.get(j, Fraction(0)) for j in range(ncols)]
            for vec in oracles.kernel_basis_sympy(sparse, ncols)]


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


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 7).flatmap(lambda n: st.lists(
    st.lists(st.one_of(st.just(Fraction(0)), fracs), min_size=n, max_size=n),
    min_size=0, max_size=6)), st.integers(0, 2))
def test_kernel_matches_sympy_on_random_rational_matrices(rows, repeat):
    # rows repeated (and scaled) make the rank deficient more often
    ncols = len(rows[0]) if rows else 3
    rows = rows + [[3 * x for x in row] for row in rows[:repeat]]
    assert kernel(rows, ncols) == sympy_kernel(rows, ncols)


def test_primes_are_the_largest_primes_below_2_to_the_31():
    primes = exactla.PRIMES
    assert primes[0] == 2 ** 31 - 1 and list(primes) == sorted(set(primes), reverse=True)
    assert all(sympy.isprime(p) for p in primes)
    assert list(sympy.primerange(primes[-1], 2 ** 31)) == sorted(primes)


@pytest.mark.parametrize("rows", [[[3, 1, 1], [0, 0, 0]], [[3, 0, 5], [0, 1, 2]],
                                  [[1, 2, 0, 1], [2, 1, 3, 2], [0, 3, 3, 0]]],
                         ids=["later-pivot", "lower-rank", "rank-2-mod-3"])
def test_an_unlucky_first_prime_leaves_the_kernel_unchanged(rows, monkeypatch):
    # modulo 3 a pivot of these matrices vanishes: the certificate fails and
    # the next prime, with more or earlier pivots, restarts the combination
    ncols = len(rows[0])
    expected = exactla.kernel_basis(rows, ncols)
    true_pivots = exactla._rref_mod(np.array(rows), exactla.PRIMES[0])[0]
    assert exactla._rref_mod(np.array(rows), 3)[0] != true_pivots
    monkeypatch.setattr(exactla, "PRIMES", (3,) + exactla.PRIMES)
    assert exactla.kernel_basis(rows, ncols) == expected
    assert kernel(rows, ncols) == sympy_kernel(rows, ncols)


def test_running_out_of_primes_raises(monkeypatch):
    monkeypatch.setattr(exactla, "PRIMES", ())
    with pytest.raises(PrimesExhausted):
        exactla.kernel_basis([[1, 1]], 2)
    # an unlucky prime alone is never certified
    monkeypatch.setattr(exactla, "PRIMES", (3,))
    with pytest.raises(PrimesExhausted):
        exactla.kernel_basis([[3, 1, 1]], 3)


def test_entries_outside_int64_raise():
    with pytest.raises(IntegerOverflow):
        exactla.kernel_basis([[2 ** 70, 1]], 2)


def test_kernel_with_many_primes_and_a_modular_certificate():
    # entries of about 2^30 give null vectors of about 2^87: several primes,
    # Python-int residues and a certificate modulo primes below 2^20
    big = [2 ** 30 + 3, 2 ** 30 - 35, 2 ** 29 + 11]
    rows = [[big[0], big[1], 0, 7], [0, big[2], big[0], 1], [5, 0, big[1], big[2]]]
    assert kernel(rows, 4) == sympy_kernel(rows, 4)


def square_pairs(n):
    square = st.lists(st.lists(fracs, min_size=n, max_size=n), min_size=n, max_size=n)
    return st.tuples(square, square)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4).flatmap(square_pairs))
def test_det_and_pencil_match_sympy(pair):
    a, b = pair
    det_a = sympy.Matrix(a).det()
    assert exactla.det(a) == Fraction(str(det_a))
    # det(x a + b) = det(a) det(x I + a^-1 b)
    real = det_a == 0 or sympy.Matrix(a).LUsolve(sympy.Matrix(b)).charpoly().count_roots() > 0
    assert exactla.pencil_has_real_root(a, b) == real


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
