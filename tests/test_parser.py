from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from puiseuxform import PuiseuxPoly
from puiseuxform.cli.parser import (
    FormError,
    ParseError,
    parse_form,
    parse_poly,
    poly_to_text,
)
from reference import poly_from_pairs

X = PuiseuxPoly.monomial(1, 1)
Y = PuiseuxPoly.monomial(1, 0, 1)


def test_parse_simple_terms():
    assert parse_poly("x") == X
    assert parse_poly("y^3") == Y**3
    assert parse_poly("-3*x^2") == -3 * X**2
    assert parse_poly("2*y") == 2 * Y
    assert parse_poly("0") == PuiseuxPoly()
    assert parse_poly("x - x") == PuiseuxPoly()


def test_parse_sums_and_signs():
    assert parse_poly("x + y") == X + Y
    assert parse_poly("-x - y") == -X - Y
    assert parse_poly("+x") == X
    assert parse_poly("x - 2*y + 3") == X - 2 * Y + PuiseuxPoly.monomial(3)


def test_parse_juxtaposition_multiplies():
    assert parse_poly("2x") == 2 * X
    assert parse_poly("3x^2y") == 3 * X**2 * Y
    assert parse_poly("x y") == X * Y
    assert parse_poly("2 3") == PuiseuxPoly.monomial(6)


def test_parse_fractions():
    assert parse_poly("1/2*x") == Fraction(1, 2) * X
    assert parse_poly("x + 1/3") == X + PuiseuxPoly.monomial(Fraction(1, 3))
    with pytest.raises(ParseError):
        parse_poly("1/0")


def test_parse_parentheses():
    assert parse_poly("(x + y)^2") == X**2 + 2 * X * Y + Y**2
    assert parse_poly("-(x - y)") == -X + Y
    assert parse_poly("2*(y - x)(y + x)") == 2 * (Y**2 - X**2)
    assert parse_poly("x^0") == PuiseuxPoly.monomial(1)


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse_poly("x^")
    assert err.value.pos == 2
    with pytest.raises(ParseError) as err:
        parse_poly("x +")
    assert err.value.pos == 3
    with pytest.raises(ParseError) as err:
        parse_poly("z")
    assert err.value.pos == 0
    with pytest.raises(ParseError):
        parse_poly("")
    with pytest.raises(ParseError):
        parse_poly("(x")
    with pytest.raises(ParseError):
        parse_poly("x)")
    with pytest.raises(ParseError):
        parse_poly("x^-2")
    with pytest.raises(ParseError):
        parse_poly("x/2")
    with pytest.raises(ParseError) as err:
        parse_poly("x ? y")
    assert "?" in str(err.value) and err.value.pos == 2


def test_parse_form_accepts_singular():
    w = parse_form("-3*x^2", "2*y")
    assert w.a == -3 * X**2
    assert w.b == 2 * Y


def test_parse_form_rejects_constant_terms():
    with pytest.raises(FormError):
        parse_form("1 + x", "y")
    with pytest.raises(FormError):
        parse_form("x", "2")


def test_parse_form_rejects_zero_form():
    with pytest.raises(FormError):
        parse_form("0", "0")


def test_poly_to_text_frozen():
    assert poly_to_text(PuiseuxPoly()) == "0"
    assert poly_to_text(-3 * X**2 + Y) == "y - 3*x^2"
    assert poly_to_text(Y**2 - X**3) == "y^2 - x^3"
    assert poly_to_text(X - Y) == "-y + x"
    assert poly_to_text(PuiseuxPoly.monomial(Fraction(-1, 2))) == "-1/2"
    assert poly_to_text(Fraction(1, 2) * X * Y**2) == "1/2*x*y^2"


def test_poly_to_text_rejects_fractional_exponents():
    p = poly_from_pairs([(Fraction(3, 2), 0, 1)])
    with pytest.raises(ValueError):
        poly_to_text(p)


int_polys = st.lists(
    st.tuples(
        st.integers(0, 5),
        st.integers(0, 4),
        st.fractions(min_value=-4, max_value=4, max_denominator=6),
    ),
    max_size=6,
).map(lambda ts: poly_from_pairs(ts))


@settings(deadline=None)
@given(int_polys)
def test_text_round_trip(p):
    assert parse_poly(poly_to_text(p)) == p
