import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from puiseuxform import PuiseuxPoly
from puiseuxform.algebra import _record
from puiseuxform.cli.parser import (
    _MAX_BITS,
    _MAX_WORK,
    FormError,
    ParseError,
    _Parser,
    _power_work,
    _tokenize,
    parse_form,
    parse_poly,
    poly_to_text,
)
from puiseuxform.oracle import STANDARD_SIGNATURES, gen_case
from reference import ProductParser, poly_from_pairs

X = PuiseuxPoly({(1, 0): 1})
Y = PuiseuxPoly({(0, 1): 1})


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
    assert parse_poly("x - 2*y + 3") == X - 2 * Y + PuiseuxPoly({(0, 0): 3})


def test_parse_juxtaposition_multiplies():
    assert parse_poly("2x") == 2 * X
    assert parse_poly("3x^2y") == 3 * X**2 * Y
    assert parse_poly("x y") == X * Y
    assert parse_poly("2 3") == PuiseuxPoly({(0, 0): 6})


def test_parse_fractions():
    assert parse_poly("1/2*x") == Fraction(1, 2) * X
    assert parse_poly("x + 1/3") == X + PuiseuxPoly({(0, 0): Fraction(1, 3)})
    with pytest.raises(ParseError):
        parse_poly("1/0")


def test_parse_parentheses():
    assert parse_poly("(x + y)^2") == X**2 + 2 * X * Y + Y**2
    assert parse_poly("-(x - y)") == -X + Y
    assert parse_poly("2*(y - x)(y + x)") == 2 * (Y**2 - X**2)
    assert parse_poly("x^0") == PuiseuxPoly({(0, 0): 1})


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
    assert poly_to_text(PuiseuxPoly({(0, 0): Fraction(-1, 2)})) == "-1/2"
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
    assert parse_poly("(2*x)^%d" % _MAX_BITS) == PuiseuxPoly({(_MAX_BITS, 0): 2**_MAX_BITS})
    assert parse_poly("(-x)^1000000001") == -PuiseuxPoly({(1000000001, 0): 1})
    # a term whose stored integers share a factor powers as its reduced coefficient
    for text in ("(1/2*x + 1/2*x)^1000000001", "(2/3*3/2*x)^1000000001"):
        assert parse_poly(text) == PuiseuxPoly({(1000000001, 0): 1})
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


def _work(text):
    """The poly of ``text`` and the term products its parse charges."""
    parser = _Parser(text)
    poly = parser.parse_expr()
    assert parser.peek() == "end"
    return poly, parser.work


@pytest.mark.parametrize("text", [
    poly_to_text(gen_case(STANDARD_SIGNATURES[5], 1).curve),  # 32 terms
    "%d*x" % 10**399,  # a coefficient of 1326 bits
    " + ".join("x^%d" % k for k in range(1, 1002)),  # 1001 terms
    " + ".join("x^%d*y" % k for k in range(1, 40)),  # 39 products
], ids=["curve-32-terms", "coefficient-1326-bits", "sum-1001-terms", "products-39"])
def test_a_parenthesized_factor_without_a_power_is_its_inner_poly(text):
    # each went through "power 1": a product, the power limits and its charge
    assert _work("(%s)" % text) == _work(text)
    # a product with it is charged its term count, as for any sum
    assert _work("(%s)*y" % text)[1] == _work(text)[1] + len(parse_poly(text).grid)


@pytest.mark.parametrize("template", ["0*%s", "(x + y)*0*%s", "(x - x)*%s"])
def test_a_zero_factor_makes_no_later_products(template):
    # each product after a zero factor is charged 0, so it must cost nothing:
    # five products of 1000-term sums are about 10**7 term products
    sums = "*".join(["(%s)" % " + ".join("x^%d" % k for k in range(1000))] * 5)
    text = template % ((sums,) * template.count("%s"))
    start = time.perf_counter()
    assert parse_poly(text) == PuiseuxPoly()
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("text, char, pos",
                         [("x^²", "²", 2), ("³x", "³", 0), ("2*x + 1²", "²", 7)])
def test_non_decimal_digits_are_unexpected_characters(text, char, pos):
    # str.isdigit() accepts superscripts, which int() refuses
    with pytest.raises(ParseError) as err:
        parse_poly(text)
    assert str(err.value) == "unexpected character %r (at position %d)" % (char, pos)


def test_decimal_digits_of_other_scripts_parse():
    assert parse_poly("٣*x") == 3 * X
    assert parse_poly("x^٢ + १/२") == X**2 + PuiseuxPoly({(0, 0): Fraction(1, 2)})


@pytest.mark.parametrize("text, pos", [
    ("x + %s", 4),
    ("x + 1/%s", 6),
    ("x^%s", 2),
    ("(x + 1)^%s", 8),
])
def test_over_long_integer_literals_are_parse_errors(text, pos):
    digits = "1" * 5000  # above the interpreter's str -> int limit of 4300 digits
    with pytest.raises(ParseError, match="integer literal of 5000 digits") as err:
        parse_poly(text % digits)
    assert err.value.pos == pos


# ASCII and other decimal digits, superscripts (digits to str.isdigit() only),
# tab, newline, no-break space and stray letters
token_texts = st.text(st.sampled_from(list("xy+-*/^()0123456789 ") + [
    "\u0663", "\u0967", "\uff17", "\u00b2", "\u00b3", "\u2082",
    "\t", "\n", "\u00a0", "z", "X", "\u00e9"]), max_size=24)


def _tokens_or_error(tokenize, text):
    try:
        return tokenize(text)
    except ParseError as err:
        return str(err), err.pos


@settings(deadline=None, max_examples=500)
@given(token_texts)
def test_tokens_match_the_character_loop(text):
    expected = _tokens_or_error(reference.tokenize, text)
    # the loop passes a digit that int() cannot read; the parser stops at it
    stray = next((i for i, ch in enumerate(text) if ch.isdigit() and not ch.isdecimal()), None)
    failed_before = isinstance(expected, tuple) and stray is not None and expected[1] < stray
    if stray is not None and not failed_before:
        expected = "unexpected character %r (at position %d)" % (text[stray], stray), stray
    assert _tokens_or_error(_tokenize, text) == expected


@st.composite
def term_texts(draw):
    factors = draw(st.lists(st.sampled_from([
        "x", "y", "x^2", "y^3", "x^0", "2", "0", "3/4", "1/1", "6/4",
        "(x + y)", "(x - x)", "(1 + 2*y)^2", "(x*y - 1)", "(0)",
    ]), min_size=1, max_size=7))
    glue = draw(st.lists(st.sampled_from(["*", " ", ""]), min_size=len(factors),
                         max_size=len(factors)))
    return "".join(f + g for f, g in zip(factors, glue)).rstrip("* ")


@st.composite
def product_texts(draw):
    terms = draw(st.lists(term_texts(), min_size=1, max_size=4))
    signs = draw(st.lists(st.sampled_from([" + ", " - "]), min_size=len(terms),
                          max_size=len(terms)))
    return "".join(s + t for s, t in zip(signs, terms)).strip()


def _charges(parser_class, text):
    """``(charges, poly or error)`` of one parse: every ``(work, position)`` charged."""
    parser = parser_class(text)
    charges = []
    charge = parser.charge
    parser.charge = lambda work, pos: (charges.append((work, pos)), charge(work, pos))
    try:
        poly = parser.parse_expr()
        outcome = poly if parser.peek() == "end" else parser.here()
    except ParseError as err:
        outcome = str(err)
    return charges, outcome


@settings(deadline=None, max_examples=300)
@given(product_texts())
def test_parses_charge_and_give_what_one_product_per_factor_does(text):
    assert _charges(_Parser, text) == _charges(ProductParser, text)


def test_a_run_of_monomial_factors_charges_one_per_product():
    text = "*".join(["2", "x", "y", "3"] * 12501)  # 50003 products of monomials
    charges, error = _charges(_Parser, text)
    assert (charges, error) == _charges(ProductParser, text)
    assert charges == [(1, 2 * k) for k in range(1, _MAX_WORK + 2)]
    assert error == ("expanding the input takes %d term products, above the limit %d "
                     "(at position %d)" % (_MAX_WORK + 1, _MAX_WORK, 2 * (_MAX_WORK + 1)))
    # a zero factor makes every later product of the term charge 0; (x + y)^1 is
    # charged the 2 products of its power when it is read, (x + y) nothing
    assert _charges(_Parser, "2*x*0*y*(x + y)^1*3")[0] == [
        (1, 2), (0, 4), (0, 6), (2, 15), (0, 8), (0, 18)]
    assert _charges(_Parser, "2*x*0*y*(x + y)*3")[0] == [
        (1, 2), (0, 4), (0, 6), (0, 8), (0, 16)]


pairs = st.lists(st.tuples(
    st.sampled_from([0, 1, 2, 5, Fraction(1, 2)]),
    st.integers(0, 4),
    st.one_of(st.sampled_from([1, -1]), st.integers(-9, 9),
              st.fractions(min_value=-4, max_value=4, max_denominator=6)),
), max_size=6)


@settings(deadline=None, max_examples=300)
@given(pairs, st.integers(1, 4), st.integers(1, 3))
def test_text_matches_the_fraction_renderer(pairs, content, widen):
    p = poly_from_pairs(pairs)
    # the same poly on a wider grid and with a content that is not 1
    wide = _record(p.d * widen, p.den * content,
                   {(n * widen, ey): v * content for (n, ey), v in p.grid.items()})
    for q in (p, wide):
        try:
            expected = reference.poly_to_text(q)
        except ValueError as err:
            with pytest.raises(ValueError, match=re.escape(str(err))):
                poly_to_text(q)
        else:
            assert poly_to_text(q) == expected
