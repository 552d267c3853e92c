import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from puiseuxform import (
    INFINITY,
    OneForm,
    PuiseuxPoly,
    differential,
    order,
    rat_str,
    substitute_shift,
    transform_form,
)
from reference import eval_ramified, poly_from_pairs

X = PuiseuxPoly.monomial(1, 1)
Y = PuiseuxPoly.monomial(1, 0, 1)


def test_rat_str_forms():
    assert rat_str(Fraction(3, 2)) == "3/2"
    assert rat_str(Fraction(-1, 2)) == "-1/2"
    assert rat_str(2) == "2"
    assert rat_str(Fraction(0)) == "0"
    assert rat_str(Fraction(4, 2)) == "2"


def test_infinity_sentinel_ordering():
    assert INFINITY > 5
    assert INFINITY >= Fraction(10**9)
    assert not (INFINITY < 5)
    assert not (INFINITY <= 5)
    assert INFINITY <= INFINITY
    assert INFINITY >= INFINITY
    assert repr(INFINITY) == "infinity"


def test_poly_drops_zero_coefficients():
    p = poly_from_pairs([(1, 0, 1), (1, 0, -1), (0, 1, 2)])
    assert p == 2 * Y
    assert p.coeff(1, 0) == 0
    assert p.coeff(0, 1) == 2


def test_poly_rejects_negative_y_exponent():
    with pytest.raises(ValueError):
        PuiseuxPoly({(Fraction(0), -1): Fraction(1)})


def test_poly_coeff_absent_is_zero():
    p = X + Y
    assert p.coeff(2, 0) == 0
    assert p.coeff(0, -1) == 0


def test_ramification_follows_exponent_denominators():
    # x^(3/2) + x^(1/3)*y lies on the grid 1/6, not on 1/4
    p = poly_from_pairs([(Fraction(3, 2), 0, 1), (Fraction(1, 3), 1, 1)])
    assert eval_ramified(p, 2, 3, 6) == 2**9 + 2**2 * 3
    with pytest.raises(ValueError):
        eval_ramified(p, 2, 3, 4)


def test_arithmetic_identities():
    p = 2 * X**2 - Y + 1 * X * Y
    assert p - p == PuiseuxPoly()
    assert p + PuiseuxPoly() == p
    assert p * PuiseuxPoly.monomial(1) == p
    assert -(-p) == p
    assert p**0 == PuiseuxPoly.monomial(1)
    assert p**3 == p * p * p
    assert 1 - Y == PuiseuxPoly.monomial(1) - Y


@pytest.mark.parametrize("n, products", [(1, 1), (32, 6)])
def test_power_squares_only_while_bits_remain(n, products, monkeypatch):
    # p**32 is five squarings and one product with 1; a sixth square is waste
    p = X + Y
    calls = []
    mul = PuiseuxPoly.__mul__

    def counting(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(PuiseuxPoly, "__mul__", counting)
    p**n
    assert len(calls) == products


def test_power_equals_repeated_multiplication():
    p = X - 2 * Y + Fraction(1, 3) * X * Y
    acc = PuiseuxPoly.monomial(1)
    for n in range(10):
        assert p**n == acc
        acc = acc * p


def test_diff_x_uses_true_fractional_derivative():
    p = poly_from_pairs([(Fraction(3, 2), 0, 1)])  # x^(3/2)
    assert p.diff_x() == poly_from_pairs([(Fraction(1, 2), 0, Fraction(3, 2))])
    # constants disappear
    assert PuiseuxPoly.monomial(7).diff_x() == PuiseuxPoly()


def test_diff_y_basic():
    p = X * Y**2
    assert p.diff_y() == 2 * X * Y


def test_order_values():
    assert order(Y**2 - X**3) == 2
    assert order(PuiseuxPoly()) is INFINITY
    assert order(PuiseuxPoly.monomial(5)) == 0


def test_substitute_shift_frozen_example():
    # y^2 under y -> x^(3/2) + y
    p = Y**2
    q = substitute_shift(p, 1, Fraction(3, 2))
    expected = poly_from_pairs(
        [(3, 0, 1), (Fraction(3, 2), 1, 2), (0, 2, 1)]
    )
    assert q == expected


def test_substitute_shift_zero_coefficient_is_identity():
    p = Y**2 + X
    assert substitute_shift(p, 0, Fraction(3, 2)) == p


def test_substitute_shift_rejects_small_mu():
    with pytest.raises(ValueError):
        substitute_shift(Y, 1, Fraction(1, 2))


def test_transform_form_cusp_step():
    w = OneForm(-3 * X**2, 2 * Y)
    w2 = transform_form(w, 1, Fraction(3, 2))
    assert w2.a == poly_from_pairs([(Fraction(1, 2), 1, 3)])
    assert w2.b == poly_from_pairs([(Fraction(3, 2), 0, 2), (0, 1, 2)])


def test_differential_of_cusp_curve():
    w = differential(Y**2 - X**3)
    assert w.a == -3 * X**2
    assert w.b == 2 * Y


def test_eval_ramified_frozen():
    p = poly_from_pairs([(Fraction(3, 2), 0, 1)])
    assert eval_ramified(p, 2, 0, 2) == 8  # x = t^2 = 4, x^(3/2) = t^3
    q = X + Y
    assert eval_ramified(q, 3, 5, 1) == 8


def _terms():
    return st.lists(
        st.tuples(
            st.integers(0, 4),
            st.sampled_from([1, 2, 3, 4]),
            st.integers(0, 3),
            st.fractions(min_value=-3, max_value=3, max_denominator=4),
        ),
        max_size=4,
    )


def _poly_from(ts) -> PuiseuxPoly:
    return poly_from_pairs((Fraction(n, d), ey, c) for n, d, ey, c in ts)


def _grid(*polys, mu=1) -> int:
    """lcm of the x-exponent denominators of ``polys`` and of ``mu``."""
    dens = (ex.denominator for p in polys for (ex, _ey) in p.terms)
    return math.lcm(Fraction(mu).denominator, *dens)


polys = _terms().map(_poly_from)
points = st.tuples(
    st.fractions(min_value=-2, max_value=2, max_denominator=3),
    st.fractions(min_value=-2, max_value=2, max_denominator=3),
)


@settings(deadline=None)
@given(polys, polys, points)
def test_evaluation_is_ring_homomorphism(p, q, pt):
    t0, y0 = pt
    ram = _grid(p, q)
    pv = eval_ramified(p, t0, y0, ram)
    qv = eval_ramified(q, t0, y0, ram)
    assert eval_ramified(p + q, t0, y0, ram) == pv + qv
    assert eval_ramified(p * q, t0, y0, ram) == pv * qv


@settings(deadline=None)
@given(polys, polys)
def test_product_rule_for_derivatives(p, q):
    assert (p * q).diff_x() == p.diff_x() * q + p * q.diff_x()
    assert (p * q).diff_y() == p.diff_y() * q + p * q.diff_y()


@settings(deadline=None)
@given(polys, polys)
def test_order_is_multiplicative(p, q):
    if p.is_zero() or q.is_zero():
        assert order(p * q) is INFINITY
    else:
        assert order(p * q) == order(p) + order(q)


@settings(deadline=None)
@given(
    polys,
    st.fractions(min_value=-2, max_value=2, max_denominator=2),
    st.fractions(min_value=1, max_value=3, max_denominator=4),
    points,
)
def test_shift_substitution_matches_evaluation(p, c, mu, pt):
    t0, y0 = pt
    shifted = substitute_shift(p, c, mu)
    ram = _grid(p, mu=mu)
    lhs = eval_ramified(shifted, t0, y0, ram)
    rhs = eval_ramified(p, t0, c * t0 ** int(mu * ram) + y0, ram)
    assert lhs == rhs
