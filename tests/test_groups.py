import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import subfreq as sf
from subfreq import exactla, groups
from subfreq.errors import (
    DimensionMismatch,
    NonPositiveLambda,
    NonSkewSymmetric,
    NotHType,
    OriginSingularity,
)
from subfreq.groups import Point, _is_htype
from subfreq.polynomials import harmonic_basis


QUATERNIONIC = oracles.QUATERNIONIC_J


def scaled(mat, c):
    return [[c * x for x in row] for row in mat]


def doubled_blocks(mat):
    """block_diag(mat, mat)."""
    n = len(mat)
    return [row + [0] * n for row in mat] + [[0] * n + row for row in mat]


def fractional_skew_group(m, k, seed):
    """k seeded random skew-symmetric m x m matrices of fractions p/q, q <= 6."""
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(k):
        a = [[Fraction(int(p), int(q)) for p, q in zip(*rows)]
             for rows in zip(rng.integers(-3, 4, (m, m)), rng.integers(1, 7, (m, m)))]
        mats.append([[a[i][j] - a[j][i] for j in range(m)] for i in range(m)])
    return sf.make_group(m, k, mats)


def rational_points(m, k):
    frac = st.fractions(min_value=-3, max_value=3,
                        max_denominator=8)
    return st.builds(
        Point,
        st.tuples(*[frac] * m),
        st.tuples(*[frac] * k))


def test_make_group_rejects_non_skew():
    with pytest.raises(NonSkewSymmetric):
        sf.make_group(2, 1, [[[0, 1], [1, 0]]])


def test_make_group_rejects_wrong_shapes():
    with pytest.raises(DimensionMismatch):
        sf.make_group(2, 2, [[[0, -1], [1, 0]]])
    with pytest.raises(DimensionMismatch):
        sf.make_group(3, 1, [[[0, -1], [1, 0]]])


def test_make_group_and_heisenberg_reject_non_positive_dimensions():
    for m, k in ((0, 1), (2, 0)):
        with pytest.raises(DimensionMismatch, match="m and k must be positive"):
            sf.make_group(m, k, [])
    with pytest.raises(DimensionMismatch, match="n must be >= 1"):
        sf.heisenberg(0)


def test_make_group_names_an_entry_that_is_a_list():
    with pytest.raises(TypeError, match=r"J_1\[0\]\[1\] is \[1\]: cannot convert list to Fraction"):
        sf.make_group(2, 1, [[[0, [1]], [-1, 0]]])


def test_heisenberg_basic(h1):
    assert (h1.m, h1.k, h1.N, h1.Q) == (2, 1, 3, 4)
    assert h1.classification == {"is_htype": True, "is_metivier": True}


def test_heisenberg2(h2):
    assert (h2.m, h2.k, h2.Q) == (4, 1, 6)
    assert h2.classification["is_htype"]


def test_example_6d():
    g = sf.example_group_6d()
    assert (g.m, g.k, g.Q) == (4, 2, 8)
    assert g.classification["is_htype"]
    assert g.classification["is_metivier"]


def test_metivier_example_not_htype():
    g = sf.example_group_metivier()
    assert not g.classification["is_htype"]
    assert g.classification["is_metivier"]


def test_htype_over_a_common_denominator(monkeypatch):
    # O^T J O for H^2 and the orthogonal O that turns the planes (z_1, z_3)
    # and (z_2, z_4) by R = [[3/5, -4/5], [4/5, 3/5]] and R^T: H-type, with
    # common denominator 25; the same J halved is not.  Both the H-type test
    # and the Pfaffian clear the denominators first
    r = [[Fraction(3, 5), Fraction(-4, 5)], [Fraction(4, 5), Fraction(3, 5)]]
    o = [[Fraction(0)] * 4 for _ in range(4)]
    for plane, rot in (((0, 2), r), ((1, 3), [list(col) for col in zip(*r)])):
        for a, i in enumerate(plane):
            for b, j in enumerate(plane):
                o[i][j] = rot[a][b]
    (j,) = sf.heisenberg(2).J
    turned = [[sum(o[a][i] * j[a][b] * o[b][c] for a in range(4) for b in range(4))
               for c in range(4)] for i in range(4)]
    assert exactla.cleared(turned)[0] == 25
    seen, inner = [], exactla.cleared
    monkeypatch.setattr(exactla, "cleared", lambda rows: seen.append(rows) or inner(rows))
    assert sf.make_group(4, 1, [turned]).classification == {"is_htype": True,
                                                            "is_metivier": True}
    assert sf.make_group(4, 1, [scaled(turned, Fraction(1, 2))]).classification \
        == {"is_htype": False, "is_metivier": True}
    assert len(seen) == 3  # _is_htype twice, the Pfaffian of the halved J once


def test_tiny_float_entries_keep_their_value():
    # float entries used to be rounded to denominators <= 10^12, which
    # stored this nonsingular J as the zero matrix: not Metivier
    g = sf.make_group(2, 1, [[[0, -1e-13], [1e-13, 0]]])
    assert g.J[0][1][0] == Fraction(1, 10 ** 13)
    assert g.classification == {"is_htype": False, "is_metivier": True}


def test_quaternionic_classification_emits_no_warning():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        info = sf.make_group(4, 3, QUATERNIONIC).classification
    assert caught == []
    assert info == {"is_htype": True, "is_metivier": True}


@pytest.mark.parametrize("make", [lambda: sf.heisenberg(1), lambda: sf.heisenberg(3),
                                  sf.example_group_6d,
                                  lambda: sf.make_group(4, 3, QUATERNIONIC)],
                         ids=["h1", "h3", "g6", "quaternionic"])
def test_htype_groups_are_metivier_by_theorem(make, monkeypatch):
    def not_reached(G):
        raise AssertionError("the Metivier check ran on an H-type group")

    monkeypatch.setattr(groups, "_is_metivier", not_reached)
    assert make().classification == {"is_htype": True, "is_metivier": True}


def test_classifying_quaternionic_loads_neither_sympy_nor_scipy_stats():
    # nor any scipy module, also off H-type: a k = 2 pencil (Q_2 doubled) and
    # a random m = 8, k = 3 group read the Pfaffian form in Fractions and numpy
    specs = [sf.group_to_json(sf.make_group(4, 3, QUATERNIONIC)),
             sf.group_to_json(sf.make_group(4, 2, [QUATERNIONIC[0],
                                                   scaled(QUATERNIONIC[1], 2)])),
             sf.group_to_json(oracles.random_skew_group(8, 3, 5))]
    code = ("import sys, subfreq; "
            f"info = [subfreq.group_from_json(s).classification for s in {specs!r}]; "
            "assert [(i['is_htype'], i['is_metivier']) for i in info] "
            "== [(True, True), (False, True), (False, False)]; "
            "assert 'sympy' not in sys.modules; "
            "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_repeated_quaternion_is_not_metivier():
    # J(t) = (t_1 + t_3) Q_1 + t_2 Q_2 vanishes at t = (1, 0, -1) / sqrt(2)
    g = sf.make_group(4, 3, [QUATERNIONIC[0], QUATERNIONIC[1], QUATERNIONIC[0]])
    assert g.classification == {"is_htype": False, "is_metivier": False}


def test_m_2_mod_4_with_k_at_least_2_is_not_metivier():
    # Pf(J(t)) is a cubic form in t, odd, so it vanishes on every circle; the
    # witness points come in pairs t, -t, so the sign test sees both signs
    g = oracles.random_skew_group(6, 3, seed=6)
    assert g.classification == {"is_htype": False, "is_metivier": False}
    low, high = groups._sign_witnesses(exactla.pfaffian_form(g.J), g.k)
    assert oracles.pfaffian_at(g, low) < 0 < oracles.pfaffian_at(g, high)


def test_pencil_path_for_k_2():
    j1, j2 = sf.example_group_6d().J
    assert sf.make_group(4, 2, [j1, scaled(j2, 2)]).classification \
        == {"is_htype": False, "is_metivier": True}
    assert sf.make_group(4, 2, [j1, j1]).classification \
        == {"is_htype": False, "is_metivier": False}


def test_pfaffian_form_for_m_4():
    # Pf(J(t)) = t_1^2 + t_2^2 + 4 t_3^2: positive definite; swapping z_1 and
    # z_2 negates the Pfaffian, so the form becomes negative definite
    mats = QUATERNIONIC[:2] + [scaled(QUATERNIONIC[2], 2)]
    swapped = [[[mat[i][j] for j in (1, 0, 2, 3)] for i in (1, 0, 2, 3)] for mat in mats]
    for J in (mats, swapped):
        assert sf.make_group(4, 3, J).classification == {"is_htype": False, "is_metivier": True}


def test_one_sign_answers_true_for_m_8_k_3(monkeypatch):
    # Pf(J(t)) = (t_1^2 + t_2^2 + 4 t_3^2)^2 is positive at every witness
    # point; no determinant is taken and no warning raised
    mats = [doubled_blocks(q) for q in QUATERNIONIC]
    mats[2] = scaled(mats[2], 2)

    def not_reached(rows):
        raise AssertionError("a determinant was taken for m = 8, k = 3")

    monkeypatch.setattr(exactla, "det", not_reached)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        info = sf.make_group(8, 3, mats).classification
    assert caught == []
    assert info == {"is_htype": False, "is_metivier": True}


def test_a_vanishing_pfaffian_answers_false_before_any_evaluation(monkeypatch):
    # block_diag(Q_l, 0_4): every J(t) vanishes on the last four coordinates,
    # so Pf(J(t)) = 0 identically and no point is evaluated
    mats = [[row + [0] * 4 for row in q] + [[0] * 8 for _ in range(4)] for q in QUATERNIONIC]

    def not_reached(form, k):
        raise AssertionError("a vanishing Pfaffian was evaluated")

    monkeypatch.setattr(groups, "_sign_witnesses", not_reached)
    G = sf.make_group(8, 3, mats)
    assert exactla.pfaffian_form(G.J) == {}
    assert G.classification == {"is_htype": False, "is_metivier": False}


@pytest.mark.parametrize("make", [
    lambda: oracles.random_skew_group(8, 3, 5),
    lambda: oracles.random_skew_group(8, 3, 11),
    lambda: sf.make_group(8, 3, [[row + [0] * 4 for row in q] + [[0] * 8] * 4
                                 for q in QUATERNIONIC]),
    lambda: fractional_skew_group(8, 3, 4),
], ids=["random-5", "random-11", "zero-block", "fractional"])
def test_pfaffian_form_matches_the_matching_sum(make, monkeypatch):
    # the memoised form, evaluated at integer witness points, against Pf(J(t))
    # summed over perfect matchings at each point; the expansion holds only
    # the Python ints of the cleared J_l
    results, inner = [], exactla._pfaffian

    def spy(mats, index, memo):
        results.append(inner(mats, index, memo))
        return results[-1]

    monkeypatch.setattr(exactla, "_pfaffian", spy)
    G = make()
    form = exactla.pfaffian_form(G.J)
    assert all(type(v) is int for minor in results for v in minor.values())
    for t in groups._witness_points(G.k)[::97]:
        t = [int(x) for x in t]
        assert sum(c * math.prod(map(pow, t, e)) for e, c in form.items()) \
            == oracles.pfaffian_at(G, t)


@pytest.mark.parametrize("make", [
    *[lambda s=s: oracles.random_skew_group(8, 3, s) for s in (1, 2, 3, 5, 11)],
    lambda: sf.make_group(8, 3, [doubled_blocks(q) for q in (QUATERNIONIC[0], QUATERNIONIC[1],
                                                             QUATERNIONIC[0])]),
    lambda: oracles.random_skew_group(12, 3, 1),
], ids=["random-1", "random-2", "random-3", "random-5", "random-11", "repeated-doubled",
        "random-m12"])
def test_sign_change_proves_not_metivier(make):
    # two integer points t != 0 where Pf(J(t)), summed over perfect matchings
    # without the form, vanishes or takes both signs: t != 0 is connected for
    # k >= 2, so J(t) is singular at some t != 0
    G = make()
    low, high = groups._sign_witnesses(exactla.pfaffian_form(G.J), G.k)
    assert all(isinstance(x, int) for x in low + high) and any(low) and any(high)
    assert oracles.pfaffian_at(G, low) <= 0 <= oracles.pfaffian_at(G, high)
    assert G.classification == {"is_htype": False, "is_metivier": False}


def test_witness_points_stay_within_the_budget():
    # the whole cube {-1, 0, 1}^k fits up to k = 8; past it the points with
    # the fewest nonzero entries come first, and m = 8, k = 12 classifies
    budget = 2 ** groups.METIVIER_SAMPLES_LOG2
    for k in range(1, 13):
        points = groups._witness_points(k)
        assert len(points) <= budget and np.array_equal(points, np.round(points))
        assert np.abs(points).max(axis=1).min() == 1  # no t = 0
        assert len(np.unique(points, axis=0)) == len(points)
        in_cube = np.abs(points).max(axis=1) == 1
        assert in_cube.sum() == (3 ** k - 1 if k <= 8 else budget)
    assert np.count_nonzero(groups._witness_points(12), axis=1).max() == 4
    assert oracles.random_skew_group(8, 12, 1).classification \
        == {"is_htype": False, "is_metivier": False}


def test_odd_horizontal_dimension_never_metivier():
    g = sf.make_group(3, 1, [[[0, -1, 0], [1, 0, 0], [0, 0, 0]]])
    assert not g.classification["is_metivier"]


def test_abelian_factor_breaks_metivier():
    j = [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
    g = sf.make_group(4, 1, [j])
    assert not g.classification["is_metivier"]
    assert not g.classification["is_htype"]


@settings(max_examples=40, deadline=None)
@given(rational_points(2, 1), rational_points(2, 1), rational_points(2, 1))
def test_group_law_associative(g, h, p):
    G = sf.heisenberg(1)
    left = sf.group_product(G, sf.group_product(G, g, h), p)
    right = sf.group_product(G, g, sf.group_product(G, h, p))
    assert left == right


@settings(max_examples=40, deadline=None)
@given(rational_points(4, 2))
def test_inverse_and_identity(g):
    G = sf.example_group_6d()
    e = G.identity()
    assert sf.group_product(G, g, e) == g
    assert sf.group_product(G, e, g) == g
    prod = sf.group_product(G, g, sf.inverse(G, g))
    assert prod == e


def test_dilation_is_automorphism(h1):
    g = Point((Fraction(1), Fraction(1, 2)), (Fraction(2),))
    h = Point((Fraction(-1, 3), Fraction(2)), (Fraction(1, 5),))
    lam = 3
    lhs = sf.dilate(h1, lam, sf.group_product(h1, g, h))
    rhs = sf.group_product(h1, sf.dilate(h1, lam, g), sf.dilate(h1, lam, h))
    assert lhs == rhs


def test_dilate_rejects_nonpositive(h1):
    with pytest.raises(NonPositiveLambda):
        sf.dilate(h1, 0.0, h1.identity())


def test_gauge_homogeneity(h1):
    g = Point((0.3, -0.7), (0.2,))
    for lam in (0.5, 2.0, 7.0):
        scaled = sf.dilate(h1, lam, g)
        assert sf.gauge(h1, scaled) == pytest.approx(lam * sf.gauge(h1, g))


def test_gauge_requires_htype():
    g = sf.example_group_metivier()
    with pytest.raises(NotHType):
        sf.gauge(g, g.identity())


def test_psi_reduces_on_htype(h1):
    # on H-type groups |grad_H rho|^2 = |z|^2 / rho^2, and psi through J
    # agrees with the gauge formula of psi for the geometry
    rng = np.random.default_rng(7)
    for _ in range(20):
        g = Point(tuple(rng.normal(size=2)), tuple(rng.normal(size=1)))
        rho = sf.gauge(h1, g)
        expected = sum(x ** 2 for x in g.z) / rho ** 2
        psi_j = oracles.horiz_gauge_grad_sq(h1, g)
        assert psi_j == pytest.approx(expected, rel=1e-12)
        assert psi_j == pytest.approx(oracles.psi(h1.geometry, g.z, g.t), rel=1e-12)


def test_psi_bounded_on_general_group():
    g = sf.example_group_metivier()
    rng = np.random.default_rng(8)
    for _ in range(20):
        p = Point(tuple(rng.normal(size=4)), tuple(rng.normal(size=1)))
        val = oracles.horiz_gauge_grad_sq(g, p)
        assert val >= 0.0


def test_psi_origin_singularity(h1):
    with pytest.raises(OriginSingularity):
        oracles.horiz_gauge_grad_sq(h1, h1.identity())


def test_fundamental_solution_constant_h1(h1):
    # frozen oracle: the normalizing constant on H^1 is 1/(2 pi)
    g = Point((1.0, 0.0), (0.0,))
    val = sf.fundamental_solution(h1, g)
    assert val == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-8)


def test_fundamental_solution_homogeneity(h1):
    g = Point((0.4, 0.9), (-0.3,))
    for lam in (0.5, 3.0):
        scaled = sf.dilate(h1, lam, g)
        assert sf.fundamental_solution(h1, scaled) == pytest.approx(
            lam ** (2 - h1.Q) * sf.fundamental_solution(h1, g), rel=1e-10)


def test_fundamental_solution_pole(h1):
    with pytest.raises(OriginSingularity):
        sf.fundamental_solution(h1, h1.identity())


def test_json_round_trip():
    for g in (sf.heisenberg(1), sf.example_group_6d(), sf.example_group_metivier()):
        payload = json.dumps(sf.group_to_json(g))
        back = sf.group_from_json(payload)
        assert back == g


def test_group_from_json_errors():
    from subfreq.errors import ParseError
    with pytest.raises(ParseError):
        sf.group_from_json("{not json")
    with pytest.raises(ParseError):
        sf.group_from_json({"m": 2, "k": 1})
    with pytest.raises(NonSkewSymmetric):
        sf.group_from_json({"m": 2, "k": 1, "J": [[[0, 1], [1, 0]]]})
    for m, k in ((2.0, 1), (2, True)):
        with pytest.raises(ParseError, match="must be an integer"):
            sf.group_from_json({"m": m, "k": k, "J": [[[0, -1], [1, 0]]]})
    # a "p/0" entry raised ZeroDivisionError, which no reader caught
    with pytest.raises(ParseError, match="bad group spec"):
        sf.group_from_json({"m": 2, "k": 1, "J": [[[0, "-1/0"], ["1/0", 0]]]})
    with pytest.raises(ParseError, match="bad polynomial data"):
        sf.Polynomial.from_json([{"coeff": "1/0", "z": [1, 0], "t": [0]}])


def test_htype_identity_matrix_form():
    # direct statement of the defining identity on the 6-dim example
    g = sf.example_group_6d()
    j = [np.array(mat, dtype=float) for mat in g.J]
    for l1 in range(2):
        for l2 in range(2):
            prod = j[l1].T @ j[l2] + j[l2].T @ j[l1]
            target = 2.0 * np.eye(4) if l1 == l2 else np.zeros((4, 4))
            assert np.array_equal(prod, target)
    assert _is_htype(g)


@pytest.mark.parametrize("make, max_kappa", [(lambda: sf.heisenberg(1), 4),
                                             (lambda: sf.heisenberg(2), 3),
                                             (sf.example_group_6d, 2)],
                         ids=["h1", "h2", "g6"])
def test_horizontal_grad_sq_is_carre_du_champ(make, max_kappa):
    # (Delta_H(p^2) - 2 p Delta_H p) / 2 = sum_i (X_i p)^2, exactly, on
    # harmonic and non-harmonic p; the numeric horizontal_grad_sq agrees
    # with it at sample points
    G = make()
    rng = np.random.default_rng(3)
    z, t = rng.uniform(-1.0, 1.0, (16, G.m)), rng.uniform(-1.0, 1.0, (16, G.k))
    for kappa in range(1, max_kappa + 1):
        other = oracles.random_polynomial(rng, G.m, G.k, max_degree=kappa + 1, n_terms=4)
        for p in harmonic_basis(G, kappa) + [other]:
            grad_sq = sf.carre_du_champ(G, p)
            assert grad_sq == oracles.grad_sq_by_fields(G, p)
            numeric = G.horizontal_grad_sq([p.diff_z(i).evaluate(z, t) for i in range(G.m)],
                                           [p.diff_t(ell).evaluate(z, t) for ell in range(G.k)],
                                           z)
            np.testing.assert_allclose(numeric, grad_sq.evaluate(z, t), rtol=1e-12, atol=1e-12)
