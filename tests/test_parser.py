import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from puiseuxform import PuiseuxPoly
from puiseuxform.cli.parser import (
    _MAX_BITS,
    _MAX_WORK,
    FormError,
    ParseError,
    _power_work,
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


@pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 31, 32])
def test_power_work_counts_the_term_products_of_a_power(n, monkeypatch):
    # every monomial of degree <= n appears in (x+y+1)^n, so the bound is met
    pairs = []
    mul = PuiseuxPoly.__mul__

    def counting(self, other):
        pairs.append(len(self.terms) * len(other.terms))
        return mul(self, other)

    monkeypatch.setattr(PuiseuxPoly, "__mul__", counting)
    (X + Y + 1) ** n
    assert sum(pairs) == _power_work(3, n)


def test_one_parse_charges_all_its_expansions_to_one_budget():
    one = "(x+1*y+1)^32"
    assert _power_work(3, 32) + 1 <= _MAX_WORK < 2 * _power_work(3, 32)
    assert len(parse_poly(one).terms) == 561
    with pytest.raises(ParseError, match="term products, above the limit %d" % _MAX_WORK):
        parse_poly(one + " + (x+2*y+1)^32")


def test_power_coefficient_bits_are_limited():
    assert parse_poly("(2*x)^%d" % _MAX_BITS) == PuiseuxPoly.monomial(2**_MAX_BITS, _MAX_BITS)
    assert parse_poly("(-x)^1000000001") == -PuiseuxPoly.monomial(1, 1000000001)
    with pytest.raises(ParseError, match="coefficient of %d bits" % (_MAX_BITS + 1)):
        parse_poly("(2*x)^%d" % (_MAX_BITS + 1))
    with pytest.raises(ParseError, match="coefficient of 1280 bits"):
        parse_poly("(x + 1/%d*y)^32" % 2**40)


def test_a_long_sum_parses_in_linear_time():
    # adding each term to the running polynomial copied it: 9 s at 2000 terms
    text = " + ".join("%d*x^%d*y" % (k, k) for k in range(1, 2001))
    start = time.perf_counter()
    p = parse_poly(text)
    assert time.perf_counter() - start < 1
    assert len(p.terms) == 2000 and p.coeff(2000, 1) == 2000
