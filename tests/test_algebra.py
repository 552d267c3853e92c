import math
from collections.abc import Mapping
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from puiseuxform import (
    INFINITY,
    BranchStep,
    OneForm,
    PuiseuxBranch,
    PuiseuxPoly,
    differential,
    expand_branches,
    invariance_residual,
    lemma_checks,
    multiplicity,
    order,
    rat_str,
    substitute_shift,
    transform_form,
    y_order,
)
from puiseuxform.algebra import _record, _to_grid, _transform_on_grid
from puiseuxform.cli.parser import parse_poly, poly_to_text
from reference import (
    binomial_shift, eval_ramified, poly_from_pairs, replayed_residual,
    substituted_residual, term_product,
)

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


def test_poly_coeff_reads_strings_and_refuses_floats():
    p = PuiseuxPoly({("3/2", 1): 5})
    assert p.coeff("3/2", 1) == p.coeff(Fraction(3, 2), 1) == 5
    assert p.coeff("1/2", 1) == 0
    with pytest.raises(ValueError):
        p.coeff(1.5, 1)  # 1.5 == 3/2: a plain lookup would find the term


@pytest.mark.parametrize("terms", [
    {(1, Fraction(3, 2)): 1},  # became y^1
    {(0, "1/2"): 1},
    {(0.5, 1): 1},
    {(1, 2.0): 1},
    {(1, 1): 0.1},  # stored 3602879701896397/36028797018963968
    {(1, 1): 0.0},
])
def test_poly_rejects_inexact_or_fractional_y_input(terms):
    with pytest.raises(ValueError):
        PuiseuxPoly(terms)
    ((ex, ey), coeff), = terms.items()
    with pytest.raises(ValueError):
        PuiseuxPoly.monomial(coeff, ex, ey)


def test_poly_normalises_exact_outside_input():
    p = PuiseuxPoly({("3/2", Fraction(2)): "1/3", (1, 0): 0})
    ((ex, ey), c), = p.terms.items()
    assert (ex, ey, c) == (Fraction(3, 2), 2, Fraction(1, 3))
    assert (type(ex), type(ey), type(c)) == (Fraction, int, Fraction)
    assert PuiseuxPoly({(1, 0): 1, ("1", 0): -1}).is_zero()
    # an integral-valued y-exponent of another type still finds its term;
    # 5/2 is no y-exponent and has no coefficient, not the y^2 one
    q = X * Y**2
    assert q.coeff(1, 2) == q.coeff(Fraction(1), Fraction(2)) == 1
    assert q.coeff(1, Fraction(5, 2)) == q.coeff(1, 2.5) == 0


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


def test_power_stores_only_its_reduced_coefficients_bits():
    # (x/2 + x/2) sits as 2/2 and 2/3 * 3/2 * x as 6/6; powering the stored
    # integers as they are would hold 2**n over 2**n
    for p in (Fraction(1, 2) * X + Fraction(1, 2) * X, Fraction(2, 3) * X * Fraction(3, 2)):
        assert p.den > 1
        q = p**64
        assert q == X**64 and (q.den, set(q.grid.values())) == (1, {1})


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


def test_transform_form_guard_order():
    w = OneForm(-3 * X**2, 2 * Y)
    assert transform_form(w, 0, Fraction(1, 2)) is w  # c = 0 before mu < 1
    with pytest.raises(ValueError):
        transform_form(w, 1, Fraction(1, 2))
    a = Y**2 + X
    w2 = transform_form(OneForm(a, PuiseuxPoly()), 2, Fraction(3, 2))
    assert w2 == (substitute_shift(a, 2, Fraction(3, 2)), PuiseuxPoly())


def test_differential_of_cusp_curve():
    w = differential(Y**2 - X**3)
    assert w.a == -3 * X**2
    assert w.b == 2 * Y


def test_eval_ramified_frozen():
    p = poly_from_pairs([(Fraction(3, 2), 0, 1)])
    assert eval_ramified(p, 2, 0, 2) == 8  # x = t^2 = 4, x^(3/2) = t^3
    q = X + Y
    assert eval_ramified(q, 3, 5, 1) == 8


def _terms(top=4, dens=(1, 2, 3, 4), max_ey=3, size=4,
           coeffs=st.fractions(min_value=-3, max_value=3, max_denominator=4)):
    return st.lists(
        st.tuples(
            st.integers(0, top),
            st.sampled_from(dens),
            st.integers(0, max_ey),
            coeffs,
        ),
        max_size=size,
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


def _keeps_term_invariant(p: PuiseuxPoly) -> bool:
    return all(
        type(ex) is Fraction and type(ey) is int and ey >= 0
        and type(c) is Fraction and c != 0
        for (ex, ey), c in p.terms.items()
    )


@settings(deadline=None)
@given(
    polys,
    polys,
    st.integers(0, 3),
    st.fractions(min_value=-2, max_value=2, max_denominator=2),
    st.fractions(min_value=1, max_value=3, max_denominator=4),
    points,
)
def test_arithmetic_keeps_the_term_invariant_and_evaluates(p, q, n, c, mu, pt):
    t0, y0 = pt
    ram = _grid(p, q, mu=mu)
    pv = eval_ramified(p, t0, y0, ram)
    qv = eval_ramified(q, t0, y0, ram)
    shift = c * t0 ** int(mu * ram)  # c*x^mu at x = t0**ram
    w = transform_form(OneForm(p, q), c, mu)
    composed = substitute_shift(p, c, mu) + substitute_shift(q, c, mu) * (
        PuiseuxPoly.monomial(mu * c, mu - 1))
    results = [
        (p + q, pv + qv),
        (p - q, pv - qv),
        (-p, -pv),
        (p * q, pv * qv),
        (p**n, pv**n),
        (substitute_shift(p, c, mu), eval_ramified(p, t0, shift + y0, ram)),
        (w.b, eval_ramified(q, t0, shift + y0, ram)),
        (w.a, eval_ramified(p, t0, shift + y0, ram)
         + mu * c * t0 ** int((mu - 1) * ram) * eval_ramified(q, t0, shift + y0, ram)),
    ]
    for r, value in results:
        assert _keeps_term_invariant(r)
        assert eval_ramified(r, t0, y0, ram) == value
    assert w.a == composed


def _rationals(dens):
    """Signed numerators up to 10**6 over ``dens``."""
    return st.builds(Fraction, st.integers(-10**6, 10**6), st.sampled_from(dens))


# Coefficient denominators include the coprime primes 999983 and 2**61 - 1,
# so a common denominator that drops or doubles a factor cannot cancel by
# luck; 1000003 and 5 divide no coefficient's denominator.
BIG_PRIME = 2**61 - 1
wide_coeffs = _rationals((1, 2, 3, 6, 999983, BIG_PRIME, 3 * BIG_PRIME))
wide_cs = _rationals((1, 2, 5, 1000003, 999983, BIG_PRIME))
# x-exponent denominators 1-6 and y-exponents up to 6
wide_polys = st.one_of(
    st.just(PuiseuxPoly()),
    _terms(12, range(1, 7), 6, 6, wide_coeffs).map(_poly_from))
# 1 + k/den: a denominator of 7 or 8 divides no x-exponent denominator
wide_mus = st.tuples(st.integers(1, 8), st.integers(0, 16)).map(
    lambda t: 1 + Fraction(t[1], t[0]))


@settings(deadline=None)
@given(
    wide_polys,
    wide_polys,
    wide_cs,
    wide_mus,
    st.sampled_from(["plain", "shifted back", "a' cancels"]),
)
def test_grid_shift_equals_per_term_shift(p, q, c, mu, how):
    """The grid shift gives exactly the per-term shift's terms."""
    orig = q
    if how == "shifted back":  # shifting by c cancels down to p and q
        p, q = binomial_shift(p, -c, mu), binomial_shift(q, -c, mu)
    elif how == "a' cancels":  # a = -mu c x^(mu-1) b makes a' zero
        p = -(q * PuiseuxPoly.monomial(mu * c, mu - 1))
    shifted = substitute_shift(p, c, mu)
    assert shifted.terms == binomial_shift(p, c, mu).terms
    assert _keeps_term_invariant(shifted)
    w = transform_form(OneForm(p, q), c, mu)
    b2 = binomial_shift(q, c, mu)
    a2 = binomial_shift(p, c, mu) + term_product(b2, PuiseuxPoly.monomial(mu * c, mu - 1))
    assert (w.a.terms, w.b.terms) == (a2.terms, b2.terms)
    assert _keeps_term_invariant(w.a) and _keeps_term_invariant(w.b)
    if how == "shifted back":
        assert w.b.terms == orig.terms
    elif how == "a' cancels" and c:
        assert w.a.is_zero()


@settings(deadline=None)
@given(wide_polys, wide_polys)
def test_grid_product_equals_per_term_product(p, q):
    """The grid product gives exactly the per-term product's terms, also
    where cross terms cancel and where a factor is zero."""
    for f, g in [(p, q), (p + q, p - q), (p, PuiseuxPoly()), (PuiseuxPoly(), q)]:
        r = f * g
        assert r.terms == term_product(f, g).terms
        assert _keeps_term_invariant(r)
    # (p + q)(p - q) = p^2 - q^2: the cross terms p*q and -q*p cancel
    assert (p + q) * (p - q) == term_product(p, p) - term_product(q, q)


def test_grid_product_cancels_to_its_terms():
    """Terms that cancel in the grid sum leave no zero coefficient behind."""
    h = Fraction(-3, BIG_PRIME)
    p = PuiseuxPoly({("1/2", 0): h, (0, 1): 1})
    q = PuiseuxPoly({("1/3", 1): h, ("5/6", 0): -h * h})
    # h x^(1/2) * h x^(1/3) y and y * -h^2 x^(5/6) cancel at x^(5/6) y
    assert (p * q).terms == {(Fraction(4, 3), 0): -h**3, (Fraction(1, 3), 2): h}
    assert (p * q).terms == term_product(p, q).terms


# Chains of up to four steps: mu = 1 + k/den with den 1-6, so the grid
# widens mid-chain, and c = 0 steps, whose mu may fall below 1.
chain_steps = st.lists(st.one_of(
    st.tuples(st.tuples(st.integers(1, 6), st.integers(0, 12)).map(
        lambda t: 1 + Fraction(t[1], t[0])), wide_cs),
    st.tuples(st.fractions(min_value=Fraction(1, 6), max_value=3, max_denominator=6),
              st.just(Fraction(0))),
), max_size=4)
chain_polys = st.one_of(
    st.just(PuiseuxPoly()),
    _terms(6, range(1, 7), 3, 4, wide_coeffs).map(_poly_from))


@settings(deadline=None)
@given(chain_polys, chain_polys, chain_steps)
def test_chained_grid_transforms_equal_composed_transforms(p, q, steps):
    """k kernel calls on one grid, each turned back, give exactly the terms
    of k composed ``transform_form`` calls and of k per-term transforms; the
    replayed residual is the substituted one and that of the composed forms."""
    g, w, ref = _to_grid(p, q), OneForm(p, q), OneForm(p, q)
    for mu, c in steps:
        g, w = _transform_on_grid(g, c, mu), transform_form(w, c, mu)
        if c:
            b2 = binomial_shift(ref.b, c, mu)
            ref = OneForm(binomial_shift(ref.a, c, mu)
                          + term_product(b2, PuiseuxPoly.monomial(mu * c, mu - 1)), b2)
        d, den, a, b = g
        chained = (_record(d, den, a).terms, _record(d, den, b).terms)
        assert chained == (w.a.terms, w.b.terms) == (ref.a.terms, ref.b.terms)
    branch = PuiseuxBranch(tuple(BranchStep(mu, c, 1, None, False) for mu, c in steps), None)
    residual = invariance_residual(OneForm(p, q), branch)
    assert residual == replayed_residual(OneForm(p, q), branch)
    assert residual == substituted_residual(OneForm(p, q), branch)


def test_a_chained_kernel_call_divides_out_its_input_content():
    """A call first divides the content out of the record it is given, so a
    chain's integers stay as small as one call's: a record scaled by any
    constant leads to the same next record."""
    w = OneForm(PuiseuxPoly({(0, 2): Fraction(1, 3), (1, 0): 1}), PuiseuxPoly({(0, 1): 2}))
    d, den, a, b = once = _transform_on_grid(_to_grid(*w), Fraction(1, 2), Fraction(3, 2))
    assert math.gcd(den, *a.values(), *b.values()) == 4  # q^top = 4 divides every numerator

    def scaled(f):
        return d, f(den), {key: f(v) for key, v in a.items()}, {key: f(v) for key, v in b.items()}

    records = [_transform_on_grid(g, 5, Fraction(7, 3))
               for g in (once, scaled(lambda v: v // 4), scaled(lambda v: v * 7))]
    assert records[0] == records[1] == records[2]
    d, den, a, b = records[0]
    twice = transform_form(transform_form(w, Fraction(1, 2), Fraction(3, 2)), 5, Fraction(7, 3))
    assert (_record(d, den, a), _record(d, den, b)) == twice


# -- one polynomial, whatever route built it ---------------------------------

HALF = PuiseuxPoly.monomial(1, "1/2")
FIFTH = PuiseuxPoly.monomial(1, "1/5")


def _same(p: PuiseuxPoly, q: PuiseuxPoly) -> bool:
    """``p == q`` both ways round, with the same sorted terms and repr."""
    return p == q and q == p and p.items() == q.items() and repr(p) == repr(q)


@settings(deadline=None)
@given(wide_polys, wide_polys, wide_cs.filter(bool), wide_cs, wide_mus)
def test_routes_to_one_poly_compare_equal(p, s, k, c, mu):
    """The constructor, ``*``, ``**``, ``+``, ``diff_x`` and ``transform_form``
    build equal polys whatever grid and denominator each route lands on."""
    K = PuiseuxPoly.monomial(k)
    routes = [
        PuiseuxPoly(dict(p.terms)),
        p * K * PuiseuxPoly.monomial(1 / k),  # content scaled up, then down
        p * HALF**2 * FIFTH**5 * PuiseuxPoly.monomial(1, -2),  # x^(1/2)^2 x^(1/5)^5 x^-2
        p + s * K - K * s,
        (p * X).diff_x() - X * p.diff_x(),  # (xp)' - xp' = p
        transform_form(transform_form(OneForm(p, s), c, mu), -c, mu).a,
    ]
    for r in routes:
        assert _same(r, p)
    if len(p.terms) == 1:
        ((ex, ey), v), = p.items()
        assert _same((p * HALF) ** 2, PuiseuxPoly({(2 * ex + 1, 2 * ey): v * v}))
    assert dict((p * s).terms) == dict(term_product(p, s).terms)
    assert dict(substitute_shift(p, c, mu).terms) == dict(binomial_shift(p, c, mu).terms)


@settings(deadline=None)
@given(wide_polys, wide_cs.filter(bool))
def test_coeff_reads_every_key_form_on_any_grid(p, k):
    """``coeff`` finds a term by an int, a ``Fraction`` or a ``"p/q"`` string,
    on a poly whose grid and content are wider than its terms need; an
    exponent off the grid or a fractional y-exponent finds none."""
    wide = p * HALF**2 * PuiseuxPoly.monomial(k, -1) * PuiseuxPoly.monomial(1 / k)
    for q in (p, wide):
        for (ex, ey), v in p.items():
            assert q.coeff(ex, ey) == q.coeff(rat_str(ex), ey) == v
            if ex.denominator == 1:
                assert q.coeff(int(ex), ey) == v
            assert q.coeff(ex + Fraction(1, 7), ey) == 0  # off every grid of 1-6
            assert q.coeff(ex, ey + Fraction(1, 2)) == 0
            with pytest.raises(ValueError):
                q.coeff(float(ex), ey)


def test_integer_exponents_on_a_wider_grid_are_integer_exponents():
    """Every x below is written ``(x^(1/2))^2``, so a form's integer exponents
    may sit on the grid 2: the form must read as the one from integer keys."""
    xx = HALF**2
    narrow = differential((Y - X) ** 2 + X * Y**2 - X**3)
    assert narrow == OneForm(2 * X - 2 * Y + Y**2 - 3 * X**2, 2 * Y - 2 * X + 2 * X * Y)
    wides = [differential((Y - xx) ** 2 + xx * Y**2 - xx**3),
             OneForm(2 * xx - 2 * Y + Y**2 - 3 * xx**2, 2 * Y - 2 * xx + 2 * xx * Y)]
    expected = expand_branches(narrow)
    assert expected.branches
    for w in wides:
        assert w == narrow
        assert multiplicity(w) == multiplicity(narrow) == 2
        assert y_order(w) == y_order(narrow)
        assert order(w.a) == order(narrow.a) == 1 and type(order(w.a)) is Fraction
        texts = [poly_to_text(p) for p in w]
        assert texts == [poly_to_text(p) for p in narrow]
        assert OneForm(*map(parse_poly, texts)) == narrow
        got = expand_branches(w)
        assert got == expected
        assert [lemma_checks(t) for t in got.traces] == [
            lemma_checks(t) for t in expected.traces]
        assert [invariance_residual(w, b) for b in got.branches] == [
            invariance_residual(narrow, b) for b in expected.branches]


def test_terms_is_a_read_only_mapping_view():
    p = PuiseuxPoly({("3/2", 1): "5/4", (0, 2): -3, (2, 0): 1})
    want = {(Fraction(3, 2), 1): Fraction(5, 4), (Fraction(0), 2): Fraction(-3),
            (Fraction(2), 0): Fraction(1)}
    for q in (p, p * HALF**2 * PuiseuxPoly.monomial(7, -1) * Fraction(1, 7)):
        t = q.terms
        assert isinstance(t, Mapping) and len(t) == 3
        assert sorted(t) == sorted(want) == sorted(t.keys())
        assert all(type(ex) is Fraction and type(ey) is int for ex, ey in t)
        assert all(type(c) is Fraction for c in t.values())
        assert sorted(t.values()) == sorted(want.values())
        assert sorted(t.items()) == sorted(want.items()) == list(q.items())
        assert t == want and want == t and dict(t) == want
        assert t != {} and {} != t and t != dict(want, **{"x": 1})
        assert (Fraction(3, 2), 1) in t and (2, 0) in t
        assert (Fraction(1, 2), 1) not in t and (2, 1) not in t and ("3/2", 1) not in t
        assert t[(Fraction(3, 2), 1)] == t.get((Fraction(3, 2), 1)) == Fraction(5, 4)
        assert t.get((1, 1)) is None and t.get((1, 1), 0) == 0
        assert 5 not in t and (1, 2, 3) not in t and t.get("abc") is None
        with pytest.raises(KeyError):
            t[(Fraction(7, 3), 0)]
        with pytest.raises(TypeError):
            t[(Fraction(1), 0)] = Fraction(1)
        with pytest.raises(TypeError):
            del t[(Fraction(2), 0)]
        assert q.terms == want  # unchanged


def test_a_record_need_not_be_minimal():
    """``x^(1/2) * x^(1/2)`` stays on the grid 2 and ``2/3 * 3/2`` over 6;
    both are the polys the constructor puts on the least grid."""
    xx, one = HALF * HALF, PuiseuxPoly.monomial("2/3") * PuiseuxPoly.monomial("3/2")
    assert (xx.d, xx.den, xx.grid) == (2, 1, {(2, 0): 1})
    assert (one.d, one.den, one.grid) == (1, 6, {(0, 0): 6})
    assert xx == X and one == 1 and xx.terms == X.terms and one.terms == {(0, 0): 1}
    assert (X.d, X.den, X.grid) == (1, 1, {(1, 0): 1})
    narrow, wide = differential(Y**2 - X**3), differential(Y**2 - xx**3)
    assert wide == narrow and (wide.a.d, wide.b.d) == (2, 2)


def test_no_operation_writes_into_a_grid_it_is_handed():
    """On one grid and denominator, ``_to_grid`` hands ``+`` and the shift
    kernel the polys' own dicts; neither may write into them."""
    p = PuiseuxPoly({(0, 2): 3, (1, 0): -2, ("1/2", 1): 1})
    q = PuiseuxPoly({(0, 2): -3, ("5/2", 1): 5, ("1/2", 1): 7})
    assert (p.d, p.den) == (q.d, q.den) == (2, 1)
    before = [p.items(), q.items()]

    def results():
        return [r.items() for r in (p + q, q + p, p - q, q - p, -p, p * q, p**3, p.diff_x(),
                                     p.diff_y(), substitute_shift(p, 2, 2))]

    first = results()
    w = OneForm(p, q)
    for c, mu in [(2, 2), (3, Fraction(3, 2)), (Fraction(1, 2), 2)]:
        w1 = transform_form(w, c, mu)  # c = 2, mu = 2 lifts nothing and widens nothing
        g = _to_grid(*w1)
        assert g[2] is w1.a.grid and g[3] is w1.b.grid
        _transform_on_grid(g, 2, 2)
        assert transform_form(w, c, mu) == w1 and w1 == transform_form(w, c, mu)
        assert [w1.a.items(), w1.b.items()] == [r.items() for r in transform_form(w, c, mu)]
    assert [p.items(), q.items()] == before
    assert results() == first
