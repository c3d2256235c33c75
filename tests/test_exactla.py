import os
import subprocess
import sys
from fractions import Fraction
from math import lcm, prod

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
    # a pencil x J_1 + J_2 of skew matrices is singular at a real x exactly
    # when Pf(x J_1 + J_2), a polynomial of degree m/2, has a real root
    rot = [[Fraction(0), Fraction(-1)], [Fraction(1), Fraction(0)]]
    j1, j2 = ([[Fraction(v) for v in row] for row in mat] for mat in (
        [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]],
        [[0, 0, 1, 0], [0, 0, 0, -1], [-1, 0, 0, 0], [0, 1, 0, 0]]))
    # -(x + 2); x^2 + 1 for the 6-d H-type pair; (x + 1)^2, one double root
    for a, b, f, roots in [(rot, [[2 * x for x in row] for row in rot], [-1, -2], 1),
                           (j1, j2, [1, 0, 1], 0), (j1, j1, [1, 2, 1], 1)]:
        assert pencil_pfaffian(a, b) == f
        assert exactla.count_real_roots(pencil_pfaffian(a, b)) == roots
    # x (x^2 + 1) (x - 3): two real roots among complex ones
    assert exactla.count_real_roots([Fraction(c) for c in (1, -3, 1, -3, 0)]) == 2


def pencil_pfaffian(a, b):
    """The coefficients of Pf(x a + b), highest degree first."""
    form = exactla.pfaffian_form([a, b])
    return [form.get((i, len(a) // 2 - i), 0) for i in range(len(a) // 2, -1, -1)]


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


def test_kernel_with_many_primes_and_a_python_int_certificate():
    # entries of about 2^30 give null vectors of about 2^87: several primes,
    # Python-int residues and a certificate in Python ints, past the int64
    # bound, which rejects the basis with one entry changed
    big = [2 ** 30 + 3, 2 ** 30 - 35, 2 ** 29 + 11]
    rows = [[big[0], big[1], 0, 7], [0, big[2], big[0], 1], [5, 0, big[1], big[2]]]
    assert kernel(rows, 4) == sympy_kernel(rows, 4)
    a = np.array(rows)
    v = np.array([[int(vec.get(j, 0)) for vec in exactla.kernel_basis(rows, 4)]
                  for j in range(4)], dtype=object)
    assert int(np.abs(a).max()) * int(np.abs(v).max()) * 4 >= 2 ** 62
    assert exactla._certified(a, v)
    v[2, 0] += 1
    assert not exactla._certified(a, v)


def test_cleared_is_the_least_common_denominator_times_the_matrix():
    d, rows = exactla.cleared([[Fraction(1, 2), "2/3", 0], [3, 0.25, Fraction(-5, 6)]])
    assert (d, rows) == (12, [[6, 8, 0], [36, 3, -10]])
    assert all(type(x) is int for row in rows for x in row)
    assert exactla.cleared([]) == (1, [])


def test_det_and_pfaffian_compute_on_cleared_integers(monkeypatch):
    # each clears the denominators once; Bareiss and the expansion see only
    # Python ints, and the results are rescaled exactly
    seen, inner = [], exactla.cleared

    def spy(rows):
        d, ints = inner(rows)
        seen.append(ints)
        return d, ints

    monkeypatch.setattr(exactla, "cleared", spy)
    half = Fraction(1, 2)
    assert exactla.det([[half, 1], [Fraction(1, 3), 2]]) == Fraction(2, 3)
    assert exactla.pfaffian_form([[[0, half], [-half, 0]]]) == {(1,): half}
    assert len(seen) == 2 and all(type(x) is int for ints in seen for row in ints for x in row)


def square_pairs(n):
    square = st.lists(st.lists(fracs, min_size=n, max_size=n), min_size=n, max_size=n)
    return st.tuples(square, square)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4).flatmap(square_pairs))
def test_det_and_pencil_match_sympy(pair):
    a, b = pair
    assert exactla.det(a) == Fraction(str(sympy.Matrix(a).det()))
    # the skew pencil x A + B of the pair: Pf^2 is sympy's determinant at
    # n + 1 points x, so as polynomials of degree <= n, and the Sturm count
    # is sympy's count of the distinct real roots
    A, B = ([[x - y for x, y in zip(row, col)] for row, col in zip(m, zip(*m))] for m in pair)
    f = pencil_pfaffian(A, B)
    for x in range(len(A) + 1):
        pf = sum(c * x ** i for i, c in enumerate(reversed(f)))
        det = sympy.Matrix([[str(x * p + q) for p, q in zip(*rows)] for rows in zip(A, B)]).det()
        assert pf ** 2 == Fraction(str(det))
    if f[0]:
        x = sympy.Symbol("x")
        assert exactla.count_real_roots(f) \
            == sympy.Poly([sympy.Rational(str(c)) for c in f], x).count_roots()


@settings(max_examples=60, deadline=None)
@given(st.lists(fracs, min_size=2, max_size=7).filter(lambda f: f[0] != 0))
def test_count_real_roots_matches_sympy(f):
    x = sympy.Symbol("x")
    assert exactla.count_real_roots(f) \
        == sympy.Poly([sympy.Rational(str(c)) for c in f], x).count_roots()


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("m", [4, 6, 8])
def test_pfaffian_form_squares_to_the_determinant(m, k):
    # Pf(J(t))^2 = det J(t) at random rational t, for seeded random skew J_l
    rng = np.random.default_rng(10 * m + k)
    mats = []
    for _ in range(k):
        a = rng.integers(-3, 4, size=(m, m))
        mats.append([[Fraction(int(x), 2) for x in row] for row in a - a.T])
    form = exactla.pfaffian_form(mats)
    assert all(sum(e) == m // 2 for e in form)
    for _ in range(5):
        t = [Fraction(int(p), int(q)) for p, q in zip(rng.integers(-9, 10, k),
                                                      rng.integers(1, 10, k))]
        pf = sum(c * prod(map(pow, t, e)) for e, c in form.items())
        jt = sympy.Matrix(m, m, lambda i, j: sympy.Rational(str(sum(
            x * mat[i][j] for x, mat in zip(t, mats)))))
        assert pf ** 2 == Fraction(str(jt.det()))


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
