import hashlib
import itertools
import json
import math
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import subfreq as sf
from subfreq.errors import (
    DimensionMismatch,
    IndexOutOfRange,
    NonIntegerAlpha,
    NotHType,
    ParseError,
)
from subfreq.groups import Point
from subfreq.cli import entry
from subfreq.polynomials import Polynomial, json_lines


def small_polys(m=2, k=1, tweight=2):
    coeff = st.integers(min_value=-4, max_value=4)
    key = st.tuples(
        st.tuples(*[st.integers(0, 3)] * m),
        st.tuples(*[st.integers(0, 1)] * k))
    return st.dictionaries(key, coeff, max_size=4).map(
        lambda terms: Polynomial(m, k, tweight, terms))


def rational_polys(m=2, k=1, tweight=2):
    coeff = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    key = st.tuples(
        st.tuples(*[st.integers(0, 3)] * m),
        st.tuples(*[st.integers(0, 1)] * k))
    return st.dictionaries(key, coeff, max_size=5).map(
        lambda terms: Polynomial(m, k, tweight, terms))


def assert_integer_form(p):
    """p = content * terms with a positive Fraction content and nonzero
    coprime int terms (content 1 for 0)."""
    assert type(p.content) is Fraction and p.content > 0
    assert all(type(n) is int and n for n in p.terms.values())
    assert math.gcd(*p.terms.values()) == 1 or (p.is_zero() and p.content == 1)


def x_y_t():
    m, k = 2, 1
    return (Polynomial.z_var(m, k, 0), Polynomial.z_var(m, k, 1),
            Polynomial.t_var(m, k, 0))


@settings(max_examples=50, deadline=None)
@given(small_polys(), small_polys(), small_polys())
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r
    assert (p - p).is_zero()
    # results are built without the constructor's checks, so each must be
    # what reading it back from its file gives, in the integer form
    for res in (p + q, p * q, p - q, p.diff_z(0), p.diff_t(0), p ** 2, sf.euler(p)):
        assert res == Polynomial.from_json(json.dumps(res.to_json()), 2, 1, 2)
        assert_integer_form(res)


@settings(max_examples=60, deadline=None)
@given(rational_polys(), rational_polys(), st.fractions(-3, 3, max_denominator=5))
def test_every_result_is_in_the_integer_form(p, q, c):
    # one form per polynomial: each result and what reading its file gives
    # are equal, hash alike and write the same file
    results = [p, q, p + q, p - q, p * q, p * c, p + c, -p, p.diff_z(1), p.diff_t(0),
               sf.euler(q), p ** 2 - q * p, Polynomial.from_json(json.dumps(p.to_json()), 2, 1, 2)]
    for res in results:
        back = Polynomial.from_json(json.dumps(res.to_json()), 2, 1, 2)
        for r in (res, back):
            assert_integer_form(r)
        assert back == res and hash(back) == hash(res) and back.to_json() == res.to_json()
    assert (p + q) - q == p and hash((p + q) - q) == hash(p)


@pytest.mark.parametrize("name, kappa", [("h2", 4), ("h2", 5), ("g6", 4), ("ba211", 6)])
def test_the_calculus_keeps_the_integer_form(name, kappa):
    # harmonic bases, operator images and the carre du champ, with a rational
    # content: each is in the one form, so a rebuilt copy hashes alike
    context = CONTEXTS[name]()
    basis = sf.harmonic_basis(context, kappa)
    p = sum((q * Fraction(i + 1, 3) for i, q in enumerate(basis)), Polynomial.zero(
        context.m, context.k, context.tweight))
    for res in basis + [p, context.laplacian(p * p), sf.carre_du_champ(context, p)]:
        assert_integer_form(res)
        coeffs = oracles.coefficients(res)
        copy = Polynomial(res.m, res.k, res.tweight,
                          {(key[:res.m], key[res.m:]): c for key, c in coeffs.items()})
        assert copy == res and hash(copy) == hash(res)


FRACTION_OPS = ("__new__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                "__truediv__", "__rtruediv__", "__floordiv__", "__mod__", "__neg__", "__abs__",
                "__pow__", "__eq__", "__lt__", "__hash__", "__float__", "__int__")


def test_products_and_operators_multiply_ints(monkeypatch):
    # *, _apply and _compose run no Fraction arithmetic in their inner loops:
    # on H^2 inputs of dozens of terms with a rational content each call runs
    # the same few Fraction operations, on the contents
    from subfreq.polynomials import _apply, _compose
    G = sf.heisenberg(2)
    ops, lap = G.operators, G.laplacian_operator
    p, q = (sum((b * Fraction(i + 1, 3) for i, b in enumerate(sf.harmonic_basis(G, kappa))),
                Polynomial.zero(G.m, G.k)) * Fraction(5, 7) for kappa in (4, 3))
    assert min(len(p.terms), len(q.terms), len(lap.terms)) >= 6 and len(p.terms) >= 30
    calls = []

    def counted(name, original):
        def count(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return count

    for name in FRACTION_OPS:
        monkeypatch.setattr(Fraction, name, counted(name, getattr(Fraction, name)))
    work = {"p * q": lambda: p * q, "Delta_H p": lambda: _apply(lap, p),
            "X_0 q": lambda: _apply(ops.X[0], q), "Delta_H X_1": lambda: _compose(lap, ops.X[1]),
            "disc Delta_H": lambda: _compose(ops.discrepancy, lap)}
    for what, call in work.items():
        calls.clear()
        call()
        assert len(calls) <= 4, f"{what}: {len(calls)} Fraction operations {sorted(set(calls))}"


@settings(max_examples=30, deadline=None)
@given(small_polys(), small_polys())
def test_evaluate_is_ring_hom(p, q):
    z = np.array([[0.3, -1.2], [2.0, 0.5]])
    t = np.array([[0.7], [-0.4]])
    np.testing.assert_allclose((p * q).evaluate(z, t),
                               p.evaluate(z, t) * q.evaluate(z, t),
                               rtol=1e-10, atol=1e-10)
    np.testing.assert_allclose((p + q).evaluate(z, t),
                               p.evaluate(z, t) + q.evaluate(z, t),
                               rtol=1e-10, atol=1e-10)


def test_equal_polynomials_evaluate_to_equal_floats(h1, rule_h1):
    # evaluate sums the terms in key order, not insertion order: the |grad_H p|^2
    # of H^1 degree-4 harmonics and their reversed-term copies agree bit for
    # bit on every node of the res-32 rule
    for p in sf.harmonic_basis(h1, 4):
        f = sf.FunctionHandle.from_polynomial(h1, p).grad_sq
        g = Polynomial(f.m, f.k, f.tweight,
                       {(key[:f.m], key[f.m:]): c
                        for key, c in reversed(oracles.coefficients(f).items())})
        assert g == f and list(g.terms) != list(f.terms)
        np.testing.assert_array_equal(g.evaluate(rule_h1.z, rule_h1.t),
                                      f.evaluate(rule_h1.z, rule_h1.t))


def test_diff_product_rule():
    x, y, t = x_y_t()
    p = x * x * y + t * x
    q = y * t - x
    lhs = (p * q).diff_z(0)
    rhs = p.diff_z(0) * q + p * q.diff_z(0)
    assert lhs == rhs
    assert (p * q).diff_t(0) == p.diff_t(0) * q + p * q.diff_t(0)


def test_diff_index_bounds():
    p = Polynomial.z_var(2, 1, 0)
    with pytest.raises(IndexOutOfRange):
        p.diff_z(2)
    with pytest.raises(IndexOutOfRange):
        p.diff_t(1)


def test_degree_structure():
    # Euler's identity: p is homogeneous of degree kappa iff Z p = kappa p,
    # and Z multiplies the degree-kappa part of any p by kappa
    x, y, t = x_y_t()
    p = x * y + t
    assert sf.euler(p) == p * 2
    assert all(sf.euler(p + x) != (p + x) * kappa for kappa in range(4))
    assert sf.euler(p + x) - (p + x) * 2 == -x
    # a real layer weight (the boundary data of a B_a problem) keeps exact coefficients
    t_real = Polynomial.t_var(1, 1, 0, tweight=2.5)
    assert sf.euler(t_real).to_json() == [{"coeff": "5/2", "z": [0], "t": [1]}]


def test_compose_dilation_homogeneity():
    x, y, t = x_y_t()
    p = x * x * y - t * y  # degree 3
    lam = Fraction(3, 2)
    assert oracles.dilated(p, lam) == p * lam ** 3


def test_horizontal_fields_h1(h1):
    x, y, t = x_y_t()
    # X_1 = d_x - (y/2) d_t, X_2 = d_y + (x/2) d_t
    assert sf.apply_X(h1, 0, t) == y * Fraction(-1, 2)
    assert sf.apply_X(h1, 1, t) == x * Fraction(1, 2)
    assert sf.apply_X(h1, 0, x) == Polynomial.constant(2, 1, 1)
    # Theta = x d_y - y d_x
    assert sf.apply_theta(h1, 0, x) == -y
    assert sf.apply_theta(h1, 0, y) == x


def test_field_commutator_gives_center(h1):
    # [X_1, X_2] p = d_t p for all polynomials
    rng = np.random.default_rng(3)
    for _ in range(10):
        p = oracles.random_polynomial(rng, 2, 1)
        comm = (sf.apply_X(h1, 0, sf.apply_X(h1, 1, p))
                - sf.apply_X(h1, 1, sf.apply_X(h1, 0, p)))
        assert comm == p.diff_t(0)


QUATERNIONIC = [[[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]],
                [[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]],
                [[0, 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]]


def test_sublaplacian_as_sum_of_squares():
    # the image of every monomial under the cached operator sum_i X_i X_i
    # against the J-contraction formula, up to each group's degree
    from subfreq.polynomials import _monomials_of_degree
    groups = ((sf.heisenberg(1), 6), (sf.heisenberg(2), 8), (sf.heisenberg(3), 6),
              (sf.example_group_6d(), 6), (sf.example_group_metivier(), 6),
              (sf.make_group(4, 3, QUATERNIONIC), 5))
    for G, kappa_max in groups:
        for kappa in range(kappa_max + 1):
            for a, b in _monomials_of_degree(G.m, G.k, 2, kappa):
                p = Polynomial.monomial(G.m, G.k, a, b)
                assert sf.sublaplacian(G, p) == oracles.sublaplacian_by_contraction(G, p)


def test_composed_operators_apply_as_their_factors():
    # (P Q) f = P (Q f) for the Leibniz composition, on operators whose
    # coefficients the second factor differentiates
    from subfreq.polynomials import _apply, _compose
    G = sf.example_group_6d()
    ops = G.operators
    pairs = [(ops.X[0], ops.X[1]), (ops.X[2], ops.Z), (ops.Z, ops.theta[1]),
             (ops.discrepancy, ops.X[3]), (G.laplacian_operator, ops.discrepancy)]
    rng = np.random.default_rng(31)
    for _ in range(5):
        f = oracles.random_polynomial(rng, G.m, G.k, max_degree=4)
        for p, q in pairs:
            assert _apply(_compose(p, q), f) == _apply(p, _apply(q, f))


@pytest.mark.parametrize("dims", [(1, 1, 2), (2, 1, 1), (1, 1, 3)],
                         ids=["ba112", "ba211", "ba113"])
def test_baouendi_images_match_the_product_formula(dims):
    # B_a of every monomial up to degree 2(a+1) + 4 against
    # Delta_z + |z|^(2a)/4 Delta_t by Polynomial products
    from subfreq.polynomials import _monomials_of_degree
    spec = sf.BaouendiSpec(*dims)
    m, k, w = spec.m, spec.k, spec.tweight
    for kappa in range(2 * w + 5):
        for a, b in _monomials_of_degree(m, k, w, kappa):
            p = Polynomial.monomial(m, k, a, b, tweight=w)
            assert sf.baouendi_apply(spec, p) == oracles.baouendi_by_products(dims[2], p)


@pytest.mark.parametrize("G", [sf.heisenberg(1), sf.heisenberg(2), sf.example_group_6d(),
                               sf.example_group_metivier()],
                         ids=["h1", "h2", "g6", "metivier"])
def test_field_operators_match_the_polynomial_products(G):
    # X_i, Theta_l and Z as cached operators against the Polynomial
    # arithmetic of d_{z_i} + (1/2) <J_l z, e_i> d_{t_l}, of
    # <J_l z, e_i> d_{z_i} and of `euler`
    rng = np.random.default_rng(23)
    for _ in range(10):
        p = oracles.random_polynomial(rng, G.m, G.k, max_degree=4)
        for i in range(G.m):
            assert sf.apply_X(G, i, p) == oracles.horizontal_field_by_products(G, i, p)
        for ell in range(G.k):
            assert sf.apply_theta(G, ell, p) == oracles.theta_by_products(G, ell, p)
        assert sf.euler_Z(G, p) == sf.euler(p)


@pytest.mark.parametrize("G", [sf.heisenberg(1), sf.heisenberg(2), sf.example_group_6d(),
                               sf.make_group(4, 3, QUATERNIONIC)],
                         ids=["h1", "h2", "g6", "quaternionic"])
def test_discrepancy_keeps_the_term_order_of_the_products(G):
    # the numerator equals the Polynomial products as a value; its term
    # order is free, since the closed forms read a polynomial's value
    rng = np.random.default_rng(29)
    for _ in range(50):
        p = oracles.random_polynomial(rng, G.m, G.k, max_degree=4, n_terms=12)
        assert sf.discrepancy_poly(G, p) == oracles.discrepancy_by_products(G, p)


def test_scalars_read_as_their_decimals_and_other_operands_raise():
    # int, Fraction and float operands are one coercion (0.1 is 1/10)
    p = Polynomial.z_var(1, 1, 0)
    tenth = Polynomial.constant(1, 1, Fraction(1, 10))
    assert p - 0.1 == p + -0.1 == p - tenth
    assert p + 0.1 == 0.1 + p == p + tenth
    assert p * 0.5 == 0.5 * p == p * Fraction(1, 2)
    assert p + 1 == 1 + p == p + Fraction(1)
    assert p * 0 == p * 0.0 == Polynomial.zero(1, 1)
    for other in ("1", [1], None, np.array([1.0])):
        for op in (lambda q: q + other, lambda q: q - other, lambda q: q * other):
            with pytest.raises(TypeError):
                op(p)


def test_known_harmonic_polynomials(h1):
    x, y, t = x_y_t()
    for p in (x, y, t, x * y, x * x - y * y):
        assert sf.sublaplacian(h1, p).is_zero()
    assert not sf.sublaplacian(h1, x * x).is_zero()


def test_quartic_cylindrical_harmonic(h1):
    from subfreq import fixtures
    p = fixtures.quartic_cylindrical(h1)
    zn = Polynomial.z_norm_sq(2, 1)
    t = Polynomial.t_var(2, 1, 0)
    assert p == zn * zn - t * t * 32
    assert sf.sublaplacian(h1, p).is_zero()
    assert sf.discrepancy_poly(h1, p).is_zero()


def test_quartic_cylindrical_needs_proportional_images():
    # on the Metivier group Delta_H |z|^4 is not a multiple of Delta_H |t|^2
    from subfreq import fixtures
    with pytest.raises(ArithmeticError):
        fixtures.quartic_cylindrical(sf.example_group_metivier())


def test_cylindrical_harmonic_needs_matching_monomials():
    # the identity maps |z|^4 and |t|^2 to themselves: different monomials
    stub = types.SimpleNamespace(m=2, k=1, tweight=2, laplacian=lambda q: q)
    with pytest.raises(ArithmeticError, match="different monomials"):
        sf.solid_harmonic_quadratic(stub)


def test_quartic_cylindrical_is_the_group_quadratic_harmonic(h1):
    from subfreq import fixtures
    assert sf.solid_harmonic_quadratic(h1) == fixtures.quartic_cylindrical(h1)


@pytest.mark.parametrize("dims", [(1, 1, 1), (1, 1, 2), (2, 1, 1), (1, 2, 1)])
def test_harmonic_basis_of_baouendi_spec(dims):
    # the kernel of B_a in each degree kappa: every element is annihilated
    # and homogeneous, and the dimension is the number of monomials of degree
    # kappa minus the dense sympy rank of their images
    spec = sf.BaouendiSpec(*dims)
    m, k, w = spec.m, spec.k, dims[2] + 1
    dims_found = []
    for kappa in range(9):
        basis = sf.harmonic_basis(spec, kappa)
        for p in basis:
            assert (p.m, p.k, p.tweight) == (m, k, w)
            assert sf.baouendi_apply(spec, p).is_zero()
            assert sf.euler(p) == p * kappa
        source = [(a, b) for a in itertools.product(range(kappa + 1), repeat=m)
                  for b in itertools.product(range(kappa // w + 1), repeat=k)
                  if sum(a) + w * sum(b) == kappa]
        images = [sf.baouendi_apply(spec, Polynomial.monomial(m, k, a, b, tweight=w))
                  for a, b in source]
        keys = sorted({key for q in images for key in q.terms})
        rows = [[q.terms.get(key, Fraction(0)) for q in images] for key in keys]
        assert len(basis) == len(source) - oracles.rank(rows)
        dims_found.append(len(basis))
    if dims == (1, 1, 2):
        assert dims_found == [1, 1, 0, 1, 1, 0, 1, 1, 0]
    assert oracles.in_span(sf.solid_harmonic_quadratic(spec), sf.harmonic_basis(spec, 2 * w))


def test_harmonic_basis_of_baouendi_spec_needs_integer_alpha():
    with pytest.raises(NonIntegerAlpha):
        sf.harmonic_basis(sf.BaouendiSpec(1, 1, 1.5), 3)


def test_harmonic_basis_dimensions(h1):
    dims = [len(sf.harmonic_basis(h1, kappa)) for kappa in range(5)]
    assert dims == [1, 2, 3, 4, 5]


def test_harmonic_basis_elements_are_harmonic(h1):
    for kappa in range(1, 5):
        for p in sf.harmonic_basis(h1, kappa):
            assert sf.euler(p) == p * kappa
            assert sf.sublaplacian(h1, p).is_zero()


def test_harmonic_basis_spans_known_elements(h1):
    x, y, t = x_y_t()
    assert oracles.in_span(x * y, sf.harmonic_basis(h1, 2))
    assert oracles.in_span(t, sf.harmonic_basis(h1, 2))
    assert not oracles.in_span(x * x, sf.harmonic_basis(h1, 2))


def test_harmonic_basis_deterministic(h1):
    assert sf.harmonic_basis(h1, 3) == sf.harmonic_basis(h1, 3)


@pytest.mark.parametrize("group, kappa, digest", [
    ("h2", 6, "48d4db0dba0f6103f00bbcd697e6afa28ecf2d539a28df8ef7cda9c301a79b49"),
    ("g6", 4, "83691b7ac846e93760003c3978d8da0ed92368ab858c9f52a779c2334df8e84a"),
], ids=["h2-6", "g6-4"])
def test_harmonic_basis_pinned(group, kappa, digest, tmp_path, capsys):
    # the order, sign and scaling of the basis are part of `harmonics --json`:
    # the library's JSON and the CLI's bytes, on stdout and through --out
    G = sf.heisenberg(2) if group == "h2" else sf.example_group_6d()
    path, out = tmp_path / "group.json", tmp_path / "basis.json"
    path.write_text(json.dumps(sf.group_to_json(G)), encoding="utf-8")
    argv = ["harmonics", "--group", str(path), "--degree", str(kappa), "--json"]
    assert entry(argv) == 0 and entry(argv + ["--out", str(out)]) == 0
    printed, written = capsys.readouterr().out, out.read_text(encoding="utf-8")
    assert printed.endswith("\n") and written == printed
    payload = json.dumps([p.to_json() for p in sf.harmonic_basis(G, kappa)])
    for text in (payload, printed[:-1], written[:-1]):
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def json_polys(m, k, tweight):
    # rational and negative coefficients and ints far beyond int64
    coeff = st.one_of(st.fractions(min_value=-4, max_value=4, max_denominator=6),
                      st.integers(min_value=-2 ** 100, max_value=2 ** 100))
    key = st.tuples(
        st.tuples(*[st.integers(0, 3)] * m),
        st.tuples(*[st.integers(0, 2)] * k))
    return st.dictionaries(key, coeff, max_size=5).map(
        lambda terms: Polynomial(m, k, tweight, terms))


# (m, k, tweight): groups with k = 1 and 2, B_a at alpha = 2 and a problem
# file's boundary data at alpha = 1.5
JSON_DIMS = [(2, 1, 2), (4, 2, 2), (1, 2, 2), (2, 1, 3), (1, 1, 2.5)]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(JSON_DIMS).flatmap(lambda dims: json_polys(*dims)), max_size=4))
def test_json_lines_are_json_dumps_of_to_json(polys):
    # one list may mix contexts: the shared z/t texts are kept per m
    assert json_lines(polys) == [json.dumps(p.to_json()) for p in polys]


def test_json_lines_of_the_edge_cases():
    t_real = sf.euler(Polynomial.t_var(1, 1, 0, tweight=2.5))
    wide = sf.harmonic_basis(sf.heisenberg(1), 60)  # coefficients near 1e29
    assert max(abs(n) for p in wide for n in p.terms.values()) > 2 ** 63
    assert json_lines([]) == []
    assert json_lines([Polynomial.zero(2, 1)]) == ["[]"]
    assert json_lines([t_real]) == ['[{"coeff": "5/2", "z": [0], "t": [1]}]']
    assert json_lines(wide) == [json.dumps(p.to_json()) for p in wide]


CONTEXTS = {"h1": lambda: sf.heisenberg(1), "h2": lambda: sf.heisenberg(2),
            "g6": sf.example_group_6d, "metivier": sf.example_group_metivier,
            "ba211": lambda: sf.BaouendiSpec(2, 1, 1), "ba212": lambda: sf.BaouendiSpec(2, 1, 2),
            "ba121": lambda: sf.BaouendiSpec(1, 2, 1)}


@pytest.mark.parametrize("name, kappa", [
    ("h1", 4), ("h1", 8), ("h1", 12), ("h2", 6), ("h2", 7), ("h2", 8), ("g6", 4), ("g6", 6),
    ("metivier", 6), ("ba211", 8), ("ba212", 9), ("ba121", 8)],
    ids=lambda x: str(x))
def test_harmonic_basis_is_sympys_bit_for_bit(name, kappa):
    # the modular kernel against sympy's null space of the same operator,
    # applied one monomial at a time: same vectors, order, scale and sign
    context = CONTEXTS[name]()
    basis = sf.harmonic_basis(context, kappa)
    expected = oracles.harmonic_basis_sympy(context, kappa)
    assert [p.to_json() for p in basis] == [p.to_json() for p in expected]
    assert all(p.content == 1 and all(type(n) is int for n in p.terms.values()) for p in basis)


@pytest.mark.parametrize("name, kappas", [("h1", range(9)), ("h2", range(7)), ("ba211", [6])],
                         ids=["h1", "h2", "ba211"])
def test_harmonic_basis_is_the_cauchy_data_recursion_bit_for_bit(name, kappas):
    # no kernel at all: one harmonic per monomial of the Cauchy data on
    # z_s = 0, reduced from the right to the kernel's free-column shape
    context = CONTEXTS[name]()
    for kappa in kappas:
        assert [p.to_json() for p in sf.harmonic_basis(context, kappa)] \
            == [p.to_json() for p in oracles.harmonic_basis_by_cauchy_data(context, kappa)]


@pytest.mark.parametrize("name, kappa", [("h1", 6), ("h2", 5), ("g6", 4), ("ba212", 9)])
def test_operator_matrix_columns_are_the_scaled_images(name, kappa):
    from subfreq.polynomials import _apply, _monomials_of_degree, _operator_matrix

    context = CONTEXTS[name]()
    m, k, w = context.m, context.k, context.tweight
    op = context.laplacian_operator
    source = [a + b for a, b in _monomials_of_degree(m, k, w, kappa)]
    matrix, targets, scale = _operator_matrix(op, np.array(source))
    denominators = [(op.content * n).denominator for n in op.terms.values()]
    assert scale == np.lcm.reduce(denominators) and matrix.dtype == np.int64
    assert len({tuple(t) for t in targets.tolist()}) == len(targets) == len(matrix)
    for col, key in enumerate(source):
        image = _apply(op, Polynomial._make(m, k, w, Fraction(1), {key: 1}))
        column = {tuple(t): int(x) for t, x in zip(targets.tolist(), matrix[:, col]) if x}
        assert column == {key: c * scale for key, c in oracles.coefficients(image).items()}


def test_operator_matrix_refuses_entries_beyond_int64():
    from subfreq.errors import IntegerOverflow
    from subfreq.polynomials import _operator, _operator_matrix

    # d^2 / 3 times 2^60: x^2 -> 2^61, x^3 -> 3 2^61 x
    op = _operator({((0,), (2,)): Fraction(2 ** 60, 3)})
    assert _operator_matrix(op, np.array([[1], [2]]))[0].tolist() == [[0, 2 ** 61]]
    with pytest.raises(IntegerOverflow):
        _operator_matrix(op, np.array([[2], [3]]))


def test_discrepancy_fixtures(h1):
    x, y, t = x_y_t()
    assert sf.discrepancy_poly(h1, x) == -(t * y)
    assert sf.discrepancy_poly(h1, t).is_zero()
    assert sf.discrepancy_poly(h1, x * x - y * y) == t * x * y * (-4)


def test_discrepancy_requires_htype():
    g = sf.example_group_metivier()
    with pytest.raises(NotHType):
        sf.discrepancy_poly(g, Polynomial.z_var(4, 1, 0))


def test_six_dim_discrepancy_fixture():
    g = sf.example_group_6d()
    u = Polynomial.z_var(4, 2, 0) ** 2 + Polynomial.z_var(4, 2, 2) ** 2
    disc = sf.discrepancy_poly(g, u)
    expected = (Polynomial.t_var(4, 2, 0)
                * (Polynomial.z_var(4, 2, 0) * Polynomial.z_var(4, 2, 1)
                   + Polynomial.z_var(4, 2, 2) * Polynomial.z_var(4, 2, 3))
                * (-2))
    assert disc == expected


def test_substitute_needs_a_polynomial_for_every_variable():
    # zip stopped at the shorter list: x y t with [x] for z and [t] for t was
    # z1 t1, and with [x, y] and no t it was z1 z2
    x, y, t = x_y_t()
    for z_subs, t_subs in (([x], [t]), ([x, y], []), ([x, y, t], [t])):
        with pytest.raises(DimensionMismatch, match="substitute takes 2 z and 1 t"):
            (x * y * t).substitute(z_subs, t_subs)
    assert (x * y * t).substitute([y, x], [t * 2]) == x * y * t * 2


def test_left_translate_matches_group_law(h1):
    rng = np.random.default_rng(5)
    g0 = Point((Fraction(1, 2), Fraction(-1, 3)), (Fraction(2, 5),))
    for _ in range(5):
        p = oracles.random_polynomial(rng, 2, 1)
        shifted = sf.left_translate(h1, p, g0)
        for _ in range(5):
            h = Point(tuple(rng.normal(size=2)), tuple(rng.normal(size=1)))
            prod = sf.group_product(h1, g0, h)
            lhs = shifted.evaluate(np.array([h.z], float), np.array([h.t], float))[0]
            rhs = p.evaluate(np.array([[float(v) for v in prod.z]]),
                             np.array([[float(v) for v in prod.t]]))[0]
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


def test_left_translations_compose_exactly():
    # p(g0 * (g0^-1 * h)) = p(h): the group law on Polynomial coordinates is
    # exact, here on a group with two vertical coordinates
    G = sf.example_group_6d()
    rng = np.random.default_rng(8)
    g0 = Point((Fraction(1, 2), Fraction(-1, 3), Fraction(3, 4), 2), (Fraction(2, 5), -1))
    for _ in range(3):
        p = oracles.random_polynomial(rng, 4, 2, max_degree=3)
        shifted = sf.left_translate(G, p, g0)
        assert shifted != p
        assert sf.left_translate(G, shifted, sf.inverse(G, g0)) == p


def test_sublaplacian_left_invariant(h1):
    rng = np.random.default_rng(6)
    g0 = Point((Fraction(1), Fraction(2)), (Fraction(-1, 2),))
    for _ in range(5):
        p = oracles.random_polynomial(rng, 2, 1)
        lhs = sf.sublaplacian(h1, sf.left_translate(h1, p, g0))
        rhs = sf.left_translate(h1, sf.sublaplacian(h1, p), g0)
        assert lhs == rhs


def test_euler_on_homogeneous(h1):
    x, y, t = x_y_t()
    p = x * x * y + x * t  # homogeneous of degree 3
    assert sf.euler_Z(h1, p) == p * 3


def _euler_by_products(p):
    """Z p = sum_i z_i d_{z_i} p + w sum_l t_l d_{t_l} p, by Polynomial products."""
    result = Polynomial.zero(p.m, p.k, p.tweight)
    for i in range(p.m):
        result = result + Polynomial.z_var(p.m, p.k, i, p.tweight) * p.diff_z(i)
    for ell in range(p.k):
        result = result + (Polynomial.t_var(p.m, p.k, ell, p.tweight)
                           * p.diff_t(ell) * p.tweight)
    return result


@pytest.mark.parametrize("m, k, tweight", [(2, 1, 2), (4, 1, 2), (4, 2, 2), (1, 1, 3)],
                         ids=["h1", "h2", "g6", "ba112"])
def test_euler_by_degree_matches_product_formula(m, k, tweight, monkeypatch):
    rng = np.random.default_rng(17)
    polys = [oracles.random_polynomial(rng, m, k, tweight=tweight) + 7 for _ in range(20)]
    expected = [_euler_by_products(p) for p in polys]

    def no_product(self, other):
        raise AssertionError("euler multiplied Polynomials")

    monkeypatch.setattr(Polynomial, "__mul__", no_product)
    for p, want in zip(polys, expected):
        assert not want.is_zero()
        assert sf.euler(p) == want


def test_baouendi_apply_oracles():
    # B_a |z|^(2(a+1)) = 2(a+1)(2a+m) |z|^(2a), B_a |t|^2 = (k/2) |z|^(2a)
    spec = sf.BaouendiSpec(1, 1, 2)
    zn = Polynomial.z_norm_sq(1, 1, tweight=3)
    tn = Polynomial.t_norm_sq(1, 1, tweight=3)
    assert sf.baouendi_apply(spec, zn ** 3) == zn ** 2 * 30
    assert sf.baouendi_apply(spec, tn) == zn ** 2 * Fraction(1, 2)


def test_baouendi_apply_rejects_fractional_alpha():
    spec = sf.BaouendiSpec(1, 1, 1.5)
    p = Polynomial.z_var(1, 1, 0, tweight=2)
    with pytest.raises(NonIntegerAlpha):
        sf.baouendi_apply(spec, p)


def test_baouendi_apply_layer_weight_mismatch():
    spec = sf.BaouendiSpec(1, 1, 2)
    p = Polynomial.z_var(1, 1, 0, tweight=2)  # needs tweight 3
    with pytest.raises(DimensionMismatch):
        sf.baouendi_apply(spec, p)


def test_context_mismatch_raises(h1):
    p = Polynomial.z_var(3, 1, 0)
    with pytest.raises(DimensionMismatch):
        sf.apply_X(h1, 0, p)


def test_arithmetic_across_contexts_and_negative_powers_raise():
    x, _, _ = x_y_t()
    with pytest.raises(DimensionMismatch, match="polynomial contexts differ"):
        x + Polynomial.z_var(1, 1, 0)
    with pytest.raises(DimensionMismatch, match="polynomial contexts differ"):
        x * Polynomial.z_var(2, 1, 0, tweight=3)
    with pytest.raises(ValueError, match="negative power"):
        x ** -1


def test_field_and_layer_indices_out_of_range_raise(h1):
    x, _, _ = x_y_t()
    with pytest.raises(IndexOutOfRange, match=r"field index 2 outside 0\.\.1"):
        sf.apply_X(h1, 2, x)
    with pytest.raises(IndexOutOfRange, match=r"field index -1 outside 0\.\.1"):
        sf.apply_X(h1, -1, x)
    with pytest.raises(IndexOutOfRange, match=r"layer index 1 outside 0\.\.0"):
        sf.apply_theta(h1, 1, x)


@pytest.mark.parametrize("context", [sf.heisenberg(1), sf.BaouendiSpec(1, 1, 2)])
def test_harmonic_basis_rejects_a_negative_degree(context):
    with pytest.raises(DimensionMismatch, match="kappa must be >= 0"):
        sf.harmonic_basis(context, -1)


def test_json_round_trip():
    x, y, t = x_y_t()
    p = x * x * y * Fraction(3, 4) - t + Polynomial.constant(2, 1, 2)
    data = json.dumps(p.to_json())
    assert Polynomial.from_json(data) == p


def test_from_json_errors():
    with pytest.raises(ParseError):
        Polynomial.from_json("[{]")
    with pytest.raises(ParseError):
        Polynomial.from_json([{"coeff": "x", "z": [1, 0], "t": [0]}])
    with pytest.raises(ParseError):
        Polynomial.from_json([])
    with pytest.raises(DimensionMismatch):
        Polynomial.from_json([{"coeff": "1", "z": [1, 0], "t": [0]},
                              {"coeff": "1", "z": [1], "t": [0]}])


def test_from_json_reads_a_float_coefficient_as_its_decimal():
    # as a group J entry or a --center coordinate reads (exactla.to_fraction):
    # 0.1 is 1/10, not the binary 3602879701896397/36028797018963968
    from subfreq.exactla import to_fraction

    p = Polynomial.from_json(json.dumps([{"coeff": 0.1, "z": [1], "t": [0]},
                                         {"coeff": 2.5e-13, "z": [0], "t": [1]},
                                         {"coeff": 3, "z": [0], "t": [0]}]))
    coeffs = oracles.coefficients(p)
    assert coeffs == {(1, 0): Fraction(1, 10), (0, 1): Fraction(1, 4 * 10 ** 12),
                      (0, 0): Fraction(3)}
    assert coeffs[1, 0] == to_fraction(0.1) != Fraction(0.1)


@pytest.mark.parametrize("z, t", [([1.5, 0], [0.9]), ([-1, 0], [0]), ([True, 0], [0]),
                                  (["1", 0], [0]), ([1, 0], [1.0])],
                         ids=["float", "negative", "bool", "string", "float-t"])
def test_from_json_rejects_exponents_that_are_not_integers(z, t):
    # int() used to truncate 1.5 to 1, and -1 gave a Laurent monomial
    with pytest.raises(ParseError, match="exponent must be an integer >= 0"):
        Polynomial.from_json([{"coeff": "1", "z": z, "t": t}])
