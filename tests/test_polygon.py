import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from puiseuxform import (
    CloudPoint,
    MalformedFormError,
    OneForm,
    PuiseuxPoly,
    cloud,
    multiplicity,
    order,
    polygon_of,
    support,
    transform_form,
    y_order,
)
from puiseuxform.polygon import cloud_pair
from reference import brute_hull, poly_from_pairs

X = PuiseuxPoly.monomial(1, 1)
Y = PuiseuxPoly.monomial(1, 0, 1)

CUSP = OneForm(-3 * X**2, 2 * Y)


def polygon_of_points(points):
    """The polygon of the form whose dx coefficient has one term per point."""
    return polygon_of(OneForm(PuiseuxPoly(dict.fromkeys(points, 1)), PuiseuxPoly()))


def pts(*pairs):
    return tuple(CloudPoint(Fraction(i), j) for i, j in pairs)


def test_cloud_of_cusp_form():
    assert cloud(CUSP) == pts((-1, 2), (2, 0))
    assert polygon_of(CUSP).staircase == pts((-1, 2), (2, 0))


def test_cloud_merges_a_and_b_contributions():
    # a = x*y contributes (1,1); b = x*y contributes (0,2)
    w = OneForm(X * Y, X * Y)
    assert cloud(w) == pts((0, 2), (1, 1))


def test_staircase_drops_dominated_points_but_cloud_keeps_them():
    # a = x^2 + x*y + x^3*y + y^2 + x*y^2: (1, 1) is below-left of (3, 1)
    # and (1, 2), and (0, 2) is below-left of (1, 2)
    w = OneForm(X**2 + X * Y + X**3 * Y + Y**2 + X * Y**2, PuiseuxPoly())
    assert cloud(w) == pts((0, 2), (1, 1), (1, 2), (2, 0), (3, 1))
    assert polygon_of(w).staircase == pts((0, 2), (1, 1), (2, 0))


def test_newton_polygon_reads_abscissas_as_rationals():
    # compared as strings, "10" would sort before "9"
    assert polygon_of_points([("10", 0), ("9", 0)]).vertices == pts((9, 0))
    np = polygon_of_points(
        [("1/2", 3), (2, 1), (Fraction(3, 2), 1), ("10", 0), (9, 0), ("3", 2)]
    )
    assert np.staircase == pts((Fraction(1, 2), 3), (Fraction(3, 2), 1), (9, 0))
    assert np.vertices == np.staircase
    assert [s.coslope for s in np.sides] == [Fraction(1, 2), Fraction(15, 2)]


def test_malformed_cloud_names_its_least_point():
    # the least abscissa, and the least ordinate among ties
    cloud_pts = [(-3, 2), ("-5/2", 0), (-3, 1), (Fraction(-2), 0), (0, 5)]
    with pytest.raises(MalformedFormError) as exc:
        polygon_of_points(cloud_pts)
    assert str(exc.value) == "cloud point (-3, 1) lies left of i = -1"


def test_cloud_rejects_abscissa_below_minus_one():
    bad = poly_from_pairs([(-2, 1, 1)])
    with pytest.raises(MalformedFormError):
        polygon_of(OneForm(bad, PuiseuxPoly()))


def test_hull_drops_dominated_and_interior_points():
    np = polygon_of_points(pts((0, 3), (1, 1), (3, 0), (2, 2)))
    assert np.vertices == pts((0, 3), (1, 1), (3, 0))
    assert [s.coslope for s in np.sides] == [Fraction(1, 2), Fraction(2)]


def test_hull_keeps_collinear_point_in_cloud_only():
    np = polygon_of_points(pts((0, 2), (1, 1), (2, 0)))
    assert np.vertices == pts((0, 2), (2, 0))
    assert len(np.sides) == 1
    assert np.sides[0].coslope == 1
    con = support(np, 1)
    assert con.kind == "side"
    assert con.points == pts((0, 2), (1, 1), (2, 0))
    assert con.highest == CloudPoint(Fraction(0), 2)


def test_single_point_hull():
    np = polygon_of_points(pts((0, 1)))
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


def test_support_takes_every_positive_coslope():
    np = polygon_of(CUSP)
    for mu in (0, Fraction(-1, 2)):
        with pytest.raises(ValueError, match="mu > 0"):
            support(np, mu)
    vert = support(np, Fraction(1, 2))
    assert (vert.kind, vert.points, vert.tau) == ("vertex", pts((-1, 2)), 0)


def test_y_order_values():
    assert y_order(CUSP) == 2
    assert y_order(OneForm(Y, -X)) == 1
    assert y_order(OneForm(PuiseuxPoly(), Y**3)) == 4


def test_y_order_of_the_zero_form_raises():
    with pytest.raises(ValueError):
        y_order(OneForm(PuiseuxPoly(), PuiseuxPoly()))


def test_a_cloud_left_of_minus_one():
    # x^-2*y dx puts the cloud point (-2, 1) left of i = -1: polygon_of
    # refuses it, while the y-order and multiplicity read the lowest-degree terms
    w = OneForm(poly_from_pairs([(-2, 1, 1)]), PuiseuxPoly())
    with pytest.raises(MalformedFormError):
        polygon_of(w)
    assert y_order(w) == 1
    assert multiplicity(w) == 0


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
    np = polygon_of_points(points)
    con = support(np, mu)
    values = [p.i + mu * p.j for p in points]
    assert con.tau == min(values)
    # the contact is the whole argmin set over the input, in abscissa order
    assert con.points == tuple(sorted({p for p in points if p.i + mu * p.j == con.tau}))
    assert con.highest == max(con.points, key=lambda p: p.j)
    assert con.kind == ("side" if len(con.points) > 1 else "vertex")


terms = st.dictionaries(
    st.tuples(st.integers(0, 5), st.integers(0, 4)), st.integers(-3, 3), max_size=8
).map(PuiseuxPoly)


@settings(deadline=None)
@given(terms, terms)
def test_staircase_of_a_form_is_its_undominated_cloud(a, b):
    w = OneForm(a, b)
    points = cloud(w)
    if not points:
        return
    undominated = [
        v for v in points
        if not any(p != v and p.i <= v.i and p.j <= v.j for p in points)
    ]
    assert polygon_of(w).staircase == tuple(undominated)


# x-exponents n/k for n in -3..24 and k in 1..6: a b term at ex = 0 sits at
# abscissa -1, one at ex < 0 (or an a term at ex < -1) left of it
ramified_terms = st.dictionaries(
    st.tuples(st.builds(Fraction, st.integers(-3, 24), st.integers(1, 6)), st.integers(0, 4)),
    st.fractions(min_value=-3, max_value=3, max_denominator=5).filter(bool),
    max_size=8,
).map(PuiseuxPoly)


@settings(deadline=None)
@given(ramified_terms, ramified_terms)
def test_polygon_of_a_ramified_form_is_the_polygon_of_its_cloud(a, b):
    w = OneForm(a, b)
    if a.is_zero() and b.is_zero():
        return
    try:
        expected = polygon_of_points(cloud(w))
    except MalformedFormError as e:
        with pytest.raises(MalformedFormError, match="^%s$" % re.escape(str(e))):
            polygon_of(w)
        return
    got = polygon_of(w)
    assert (got.staircase, got.vertices, got.sides) == expected
    assert all(type(p.i) is Fraction for p in got.staircase)


def _well_formed_cloud(w):
    """``cloud(w)``, or ``None`` when it is empty or has a point left of i = -1."""
    points = cloud(w)
    return points if points and points[0].i >= -1 else None


@settings(deadline=None)
@given(ramified_terms, ramified_terms)
def test_polygon_of_a_ramified_form_matches_the_brute_force_hull(a, b):
    w = OneForm(a, b)
    if (points := _well_formed_cloud(w)) is None:
        return
    vertices, coslopes = brute_hull(points)
    np = polygon_of(w)
    assert np.vertices == vertices
    assert tuple(s.coslope for s in np.sides) == coslopes
    assert all(type(s.coslope) is Fraction for s in np.sides)


@settings(deadline=None)
@given(ramified_terms, ramified_terms)
def test_cloud_is_the_rule_on_the_fraction_terms(a, b):
    # a's x^i y^j and b's x^(i+1) y^(j-1) put the point (i, j) in the cloud
    rule = {*a.terms, *((ex - 1, ey + 1) for ex, ey in b.terms)}
    points = cloud(OneForm(a, b))
    assert points == tuple(sorted(CloudPoint(i, j) for i, j in rule))
    assert all(type(p.i) is Fraction for p in points)


# co-slopes with denominators 1..6, shallow ones (mu < 1) included
support_coslopes = st.fractions(min_value=0, max_value=8, max_denominator=6).filter(bool)


@settings(deadline=None)
@given(ramified_terms, ramified_terms, support_coslopes)
def test_a_support_contact_is_a_side_exactly_at_a_side_coslope(a, b, mu):
    # lemma_checks reads L2's hypothesis off the sides, not off a support call
    w = OneForm(a, b)
    if _well_formed_cloud(w) is None:
        return
    np = polygon_of(w)
    coslopes = [s.coslope for s in np.sides]
    for m in (mu, *coslopes):
        assert (support(np, m).kind == "side") == (m in coslopes)


@settings(deadline=None)
@given(ramified_terms, ramified_terms, support_coslopes)
def test_support_of_a_ramified_form_is_the_argmin_over_its_cloud(a, b, mu):
    w = OneForm(a, b)
    if (points := _well_formed_cloud(w)) is None:
        return
    heights = [p.i + mu * p.j for p in points]
    tau = min(heights)
    con = support(polygon_of(w), mu)
    assert type(con.tau) is Fraction and con.tau == tau
    assert con.points == tuple(p for p, h in zip(points, heights) if h == tau)
    assert con.highest == con.points[0]


ramified_forms = st.builds(OneForm, ramified_terms, ramified_terms)
# a node's form: the shift y -> c*x^mu + y of a ramified form
shifted_forms = st.builds(
    transform_form,
    ramified_forms,
    st.fractions(min_value=-2, max_value=2, max_denominator=3),
    st.fractions(min_value=1, max_value=3, max_denominator=4),
)


@settings(deadline=None)
@given(st.one_of(ramified_forms, shifted_forms))
def test_y_order_is_the_highest_contact_of_the_coslope_1_line(w):
    if _well_formed_cloud(w) is None:
        return
    assert y_order(w) == support(polygon_of(w), Fraction(1)).highest.j


# integer exponents -2..5: a negative one puts a point left of i = -1
signed_terms = st.dictionaries(
    st.tuples(st.integers(-2, 5), st.integers(0, 4)), st.integers(-3, 3), max_size=8
).map(PuiseuxPoly)


@settings(deadline=None)
@given(signed_terms, signed_terms)
def test_multiplicity_is_the_least_order_plus_one(a, b):
    if a.is_zero() and b.is_zero():
        return
    assert multiplicity(OneForm(a, b)) == min(order(a), order(b)) + 1


@settings(deadline=None)
@given(terms, terms)
def test_y_order_reaches_multiplicity_exactly_when_b_has_y_to_the_nu(a, b):
    # the highest point of least degree nu is (-1, nu + 1) exactly when b
    # has y^nu; with exponents >= 0 every other one is lower
    w = OneForm(a, b)
    if a.is_zero() and b.is_zero():
        return
    m = multiplicity(w)
    if b.coeff(0, m - 1):
        assert y_order(w) == m
    else:
        assert y_order(w) < m


# abscissas with denominators 1..7: one over 7 is on no grid these forms use
probe_abscissas = st.fractions(min_value=-2, max_value=8, max_denominator=7)


@settings(deadline=None)
@given(ramified_terms, ramified_terms, probe_abscissas, st.integers(0, 5))
def test_cloud_pair_reads_the_two_terms_at_a_cloud_point(a, b, i, j):
    """``cloud_pair`` gives the numerators of ``a``'s ``x^i y^j`` and ``b``'s
    ``x^(i+1) y^(j-1)``: on every cloud and staircase point, off the grid, and
    in row 0, where ``b`` has no term; it is nonzero exactly on the cloud."""
    w = OneForm(a, b)
    points = cloud(w)
    stair = polygon_of(w).staircase if _well_formed_cloud(w) else ()
    for p in (*points, *stair, CloudPoint(i, j), CloudPoint(i, 0)):
        pair = cloud_pair(w, p.i, p.j)
        assert pair == (a.coeff(p.i, p.j) * a.den, b.coeff(p.i + 1, p.j - 1) * b.den)
        assert all(type(v) is int for v in pair)
        assert any(pair) == (p in points)


@settings(deadline=None)
@given(cloud_points)
def test_polygon_invariants(points):
    np = polygon_of_points(points)
    assert set(np.vertices) <= set(np.staircase) <= set(points)
    # the staircase is exactly the undominated input points, by abscissa
    undominated = {
        v for v in points
        if not any(p != v and p.i <= v.i and p.j <= v.j for p in points)
    }
    assert np.staircase == tuple(sorted(undominated))
    slopes = [s.coslope for s in np.sides]
    assert all(u < v for u, v in zip(slopes, slopes[1:]))
    # walking the vertices: abscissa increases, ordinate decreases
    for v1, v2 in zip(np.vertices, np.vertices[1:]):
        assert v1.i < v2.i and v1.j > v2.j
    # every vertex is undominated: no input point is <= in both coordinates
    for v in np.vertices:
        for p in points:
            if p != v:
                assert not (p.i <= v.i and p.j <= v.j)
