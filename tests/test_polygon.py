from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from puiseuxform import (
    CloudPoint,
    MalformedFormError,
    OneForm,
    PuiseuxPoly,
    multiplicity,
    newton_polygon,
    polygon_of,
    support,
    y_order,
)
from reference import poly_from_pairs

X = PuiseuxPoly.monomial(1, 1)
Y = PuiseuxPoly.monomial(1, 0, 1)

CUSP = OneForm(-3 * X**2, 2 * Y)


def pts(*pairs):
    return tuple(CloudPoint(Fraction(i), j) for i, j in pairs)


def test_cloud_of_cusp_form():
    assert polygon_of(CUSP).cloud == pts((-1, 2), (2, 0))


def test_cloud_merges_a_and_b_contributions():
    # a = x*y contributes (1,1); b = x*y contributes (0,2)
    w = OneForm(X * Y, X * Y)
    assert polygon_of(w).cloud == pts((0, 2), (1, 1))


def test_cloud_rejects_abscissa_below_minus_one():
    bad = poly_from_pairs([(-2, 1, 1)])
    with pytest.raises(MalformedFormError):
        polygon_of(OneForm(bad, PuiseuxPoly()))


def test_hull_drops_dominated_and_interior_points():
    np = newton_polygon(pts((0, 3), (1, 1), (3, 0), (2, 2)))
    assert np.vertices == pts((0, 3), (1, 1), (3, 0))
    assert [s.coslope for s in np.sides] == [Fraction(1, 2), Fraction(2)]


def test_hull_keeps_collinear_point_in_cloud_only():
    np = newton_polygon(pts((0, 2), (1, 1), (2, 0)))
    assert np.vertices == pts((0, 2), (2, 0))
    assert len(np.sides) == 1
    assert np.sides[0].coslope == 1
    con = support(np, 1)
    assert con.kind == "side"
    assert con.points == pts((0, 2), (1, 1), (2, 0))
    assert con.highest == CloudPoint(Fraction(0), 2)


def test_single_point_hull():
    np = newton_polygon(pts((0, 1)))
    assert np.vertices == pts((0, 1))
    assert np.sides == ()


def test_support_on_cusp():
    np = polygon_of(CUSP)
    side = support(np, Fraction(3, 2))
    assert side.kind == "side"
    assert side.tau == 2
    assert side.points == pts((-1, 2), (2, 0))
    assert side.highest == CloudPoint(Fraction(-1), 2)

    vert = support(np, 1)
    assert vert.kind == "vertex"
    assert vert.tau == 1
    assert vert.points == pts((-1, 2))


def test_support_rejects_coslope_below_one():
    np = polygon_of(CUSP)
    with pytest.raises(ValueError):
        support(np, Fraction(1, 2))


def test_y_order_values():
    assert y_order(CUSP) == 2
    assert y_order(OneForm(Y, -X)) == 1
    assert y_order(OneForm(PuiseuxPoly(), Y**3)) == 4


def test_multiplicity_values():
    assert multiplicity(CUSP) == 2
    assert multiplicity(OneForm(Y, -X)) == 2
    assert multiplicity(OneForm(X * Y + Y**2, -(X**2) - X * Y)) == 3


def test_multiplicity_rejects_zero_form():
    with pytest.raises(ValueError):
        multiplicity(OneForm(PuiseuxPoly(), PuiseuxPoly()))


def test_multiplicity_rejects_fractional_exponents():
    p = poly_from_pairs([(Fraction(3, 2), 0, 1)])
    with pytest.raises(ValueError):
        multiplicity(OneForm(p, PuiseuxPoly()))


cloud_points = st.lists(
    st.tuples(
        st.fractions(min_value=-1, max_value=6, max_denominator=3),
        st.integers(0, 6),
    ),
    min_size=1,
    max_size=12,
).map(lambda ps: pts(*ps))

coslopes = st.fractions(min_value=1, max_value=5, max_denominator=4)


@settings(deadline=None)
@given(cloud_points, coslopes)
def test_support_line_is_a_lower_bound(points, mu):
    np = newton_polygon(points)
    con = support(np, mu)
    values = [p.i + mu * p.j for p in np.cloud]
    assert con.tau == min(values)
    for p in np.cloud:
        assert p.i + mu * p.j >= con.tau
    for p in con.points:
        assert p.i + mu * p.j == con.tau
    assert con.highest == max(con.points, key=lambda p: p.j)
    assert con.kind == ("side" if len(con.points) > 1 else "vertex")


@settings(deadline=None)
@given(cloud_points)
def test_polygon_invariants(points):
    np = newton_polygon(points)
    assert set(np.vertices) <= set(np.cloud)
    slopes = [s.coslope for s in np.sides]
    assert all(u < v for u, v in zip(slopes, slopes[1:]))
    # walking the vertices: abscissa increases, ordinate decreases
    for v1, v2 in zip(np.vertices, np.vertices[1:]):
        assert v1.i < v2.i and v1.j > v2.j
    # every vertex is undominated: no cloud point is <= in both coordinates
    for v in np.vertices:
        for p in np.cloud:
            if p != v:
                assert not (p.i <= v.i and p.j <= v.j)
