import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import subfreq as sf
from subfreq.errors import (
    DimensionMismatch,
    NonPositiveLambda,
    NonSkewSymmetric,
    NotHType,
    OriginSingularity,
)
from subfreq.groups import Point, _is_htype


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


def test_quaternionic_classification_emits_no_warning():
    # k = 3 takes the Sobol path of the Metivier check
    quaternionic = [[[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]],
                    [[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]],
                    [[0, 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        info = sf.make_group(4, 3, quaternionic).classification
    assert caught == []
    assert info == {"is_htype": True, "is_metivier": True}


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
    # on H-type groups |grad_H rho|^2 = |z|^2 / rho^2
    rng = np.random.default_rng(7)
    for _ in range(20):
        g = Point(tuple(rng.normal(size=2)), tuple(rng.normal(size=1)))
        rho = sf.gauge(h1, g)
        expected = sum(x ** 2 for x in g.z) / rho ** 2
        assert sf.horiz_gauge_grad_sq(h1, g) == pytest.approx(expected, rel=1e-12)


def test_psi_bounded_on_general_group():
    g = sf.example_group_metivier()
    rng = np.random.default_rng(8)
    for _ in range(20):
        p = Point(tuple(rng.normal(size=4)), tuple(rng.normal(size=1)))
        val = sf.horiz_gauge_grad_sq(g, p)
        assert val >= 0.0


def test_psi_origin_singularity(h1):
    with pytest.raises(OriginSingularity):
        sf.horiz_gauge_grad_sq(h1, h1.identity())


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
