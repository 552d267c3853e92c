import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from puiseuxform import (
    INFINITY,
    Limits,
    OneForm,
    PuiseuxPoly,
    STANDARD_SIGNATURES,
    branch_to_curve,
    differential,
    expand_branches,
    gen_case,
    polygon_of,
    verify_bound,
)
from reference import (
    brute_hull, eval_ramified, order, separatrix_balance, substituted_residual, y_shifted,
)

X = PuiseuxPoly({(1, 0): 1})
Y = PuiseuxPoly({(0, 1): 1})


def test_branch_to_curve_cusp():
    assert branch_to_curve({3: Fraction(1)}, 2) == Y**2 - X**3


def test_branch_to_curve_line():
    assert branch_to_curve({1: Fraction(2)}, 1) == Y - 2 * X


def test_branch_to_curve_two_term_frozen():
    # y = x^(3/2) + x^2: f = (y - x^(3/2) - x^2)(y + x^(3/2) - x^2)
    f = branch_to_curve({3: Fraction(1), 4: Fraction(1)}, 2)
    assert f == Y**2 - 2 * X**2 * Y + X**4 - X**3


def test_branch_to_curve_is_monic_of_degree_m():
    f = branch_to_curve({4: Fraction(1, 2), 5: Fraction(-2)}, 3)
    assert f.coeff(0, 3) == 1
    assert max(ey for (_ex, ey) in f.terms) == 3
    assert order(f) == 3


def test_branch_to_curve_validation():
    with pytest.raises(ValueError):
        branch_to_curve({}, 2)
    with pytest.raises(ValueError):
        branch_to_curve({3: Fraction(0)}, 2)  # all terms zero
    with pytest.raises(ValueError):
        branch_to_curve({1: Fraction(1)}, 2)  # exponent below 1
    with pytest.raises(ValueError):
        branch_to_curve({4: Fraction(1)}, 2)  # gcd(2, 4) = 2, not primitive
    with pytest.raises(ValueError):
        branch_to_curve({1: Fraction(1)}, 0)


def test_curve_vanishes_on_parametrisation():
    import math

    rng = random.Random(7)
    checked = 0
    while checked < 25:
        m = rng.choice([1, 2, 3, 4])
        ks = rng.sample(range(m, 4 * m + 1), rng.randint(1, 3))
        coeffs = {k: Fraction(rng.randint(-3, 3)) for k in ks}
        coeffs = {k: c for k, c in coeffs.items() if c != 0}
        if not coeffs or math.gcd(m, *coeffs) != 1:
            continue
        f = branch_to_curve(coeffs, m)
        for _ in range(10):
            t0 = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            x0 = t0**m
            y0 = sum((c * t0**k for k, c in coeffs.items()), Fraction(0))
            assert eval_ramified(f, x0, y0, 1) == 0
        checked += 1


def test_branch_to_curve_matches_resultant():
    # independent reference: f = Res_t(t^m - x, y - g(t)), g(t) = sum f_k t^k,
    # up to a sign that depends on sympy's convention
    import math

    sympy = pytest.importorskip("sympy")
    t, x, y = sympy.symbols("t x y")
    rng = random.Random(11)
    for m in (1, 2, 3, 4, 5, 6, 8) * 3:
        coeffs = {}
        while not coeffs or math.gcd(m, *coeffs) != 1:
            ks = rng.sample(range(m, 3 * m + 1), rng.randint(1, 3))
            coeffs = {k: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for k in ks}
            coeffs = {k: c for k, c in coeffs.items() if c != 0}
        g = sum(
            sympy.Rational(c.numerator, c.denominator) * t**k for k, c in coeffs.items()
        )
        res = sympy.Poly(sympy.resultant(t**m - x, y - g, t), x, y)
        sign = res.coeff_monomial(y**m)
        assert sign in (1, -1)
        res = res * sign
        want = {
            (Fraction(ex), ey): Fraction(int(c.p), int(c.q)) for (ex, ey), c in res.terms()
        }
        assert branch_to_curve(coeffs, m).terms == want, (m, coeffs)


def test_gen_case_is_deterministic():
    a = gen_case((Fraction(3, 2),), 5)
    b = gen_case((Fraction(3, 2),), 5)
    assert a.form == b.form
    assert a.curve == b.curve
    assert a.branch == b.branch
    assert gen_case((Fraction(3, 2),), 6).seed == 6


def test_gen_case_signature_validation():
    with pytest.raises(ValueError):
        gen_case((Fraction(1, 2),), 0)  # not above 1
    with pytest.raises(ValueError):
        gen_case((Fraction(2),), 0)  # integer: denominator does not grow
    with pytest.raises(ValueError):
        gen_case((Fraction(3, 2), Fraction(4, 3)), 0)  # not increasing
    with pytest.raises(ValueError):
        gen_case((Fraction(4, 3), Fraction(3, 2)), 0)  # 2 not a multiple of 3
    with pytest.raises(ValueError):
        gen_case((Fraction(3, 2), Fraction(5, 2)), 0)  # grid does not grow


@pytest.mark.parametrize("call, err", [
    (lambda: gen_case((1.5,), 0), r"^floats are not exact: 1\.5$"),
    (lambda: gen_case(("3/2", 1.75), 0), r"^floats are not exact: 1\.75$"),
    (lambda: gen_case(("3/2", "1e-3000000"), 0),
     "^decimal exponent -3000000 is above the limit 1000$"),
    (lambda: branch_to_curve({3: 0.5, 2: 1}, 2), r"^floats are not exact: 0\.5$"),
    (lambda: branch_to_curve({3: 1, 5: 0.0}, 2), r"^floats are not exact: 0\.0$"),
    (lambda: branch_to_curve({2.5: 1, 3: 1}, 2), r"^exponent numerator 2\.5 is not an int$"),
    (lambda: branch_to_curve({Fraction(3): 1}, 2),
     r"^exponent numerator Fraction\(3, 1\) is not an int$"),
], ids=["gen_case float", "gen_case second float", "gen_case huge exponent",
        "coefficient float", "zero float", "key float", "key Fraction"])
def test_the_oracle_reads_its_rationals_exactly(call, err):
    # the floats were used as their binary values, and int(2.5) made the key 2
    with pytest.raises(ValueError, match=err):
        call()


@pytest.mark.parametrize("seed, err", [
    (1.5, r"^floats are not exact: 1\.5$"),
    (Fraction(3, 2), "^3/2 is not a whole number$"),
    ("5/2", "^5/2 is not a whole number$"),
], ids=["1.5", "Fraction 3/2", "text 5/2"])
def test_gen_case_reads_its_seed_as_a_whole_number(seed, err):
    # "%d" % 1.5 keyed the RNG as seed 1 while the case reported seed=1.5
    with pytest.raises(ValueError, match=err):
        gen_case((Fraction(3, 2),), seed)


def test_gen_case_takes_a_whole_seed_of_any_exact_type():
    case = gen_case((Fraction(3, 2),), 3)
    for seed in (Fraction(3), "3", "6/2"):
        same = gen_case((Fraction(3, 2),), seed)
        assert same == case and type(same.seed) is int


def test_the_oracle_reads_rational_strings():
    assert gen_case(("3/2", "7/4"), 3) == gen_case((Fraction(3, 2), Fraction(7, 4)), 3)
    assert branch_to_curve({3: "1/2", 4: "-2"}, 2) == branch_to_curve(
        {3: Fraction(1, 2), 4: Fraction(-2)}, 2)


def test_gen_case_plants_the_signature():
    sig = (Fraction(3, 2), Fraction(7, 4))
    case = gen_case(sig, 3)
    char_steps = [s.mu for s in case.branch.steps if s.characteristic]
    assert char_steps == list(sig)
    assert case.branch.r == 2
    assert case.branch.exact
    # the planted branch is exactly invariant for the generated form
    assert substituted_residual(case.form, case.branch) is INFINITY


def test_gen_case_smooth_needs_extra_line():
    case = gen_case((), 1)
    assert case.extra_line is not None
    lead = [s.c for s in case.branch.steps if s.mu == 1]
    if lead:
        assert case.extra_line != lead[0]
    assert substituted_residual(case.form, case.branch) is INFINITY


def test_gen_case_ramified_has_no_extra_line():
    assert gen_case((Fraction(3, 2),), 0).extra_line is None


def test_standard_signatures_cover_r_zero_to_three():
    rs = {len(sig) for sig in STANDARD_SIGNATURES}
    assert rs == {0, 1, 2, 3}
    for sig in STANDARD_SIGNATURES:
        gen_case(sig, 0)  # all valid towers


def test_expansion_recovers_planted_branch_sample():
    for sig in (STANDARD_SIGNATURES[1], STANDARD_SIGNATURES[4]):
        case = gen_case(sig, 2)
        res = expand_branches(case.form)
        want = [(s.mu, s.c, s.characteristic) for s in case.branch.steps]
        assert any(
            b.exact and [(s.mu, s.c, s.characteristic) for s in b.steps] == want
            for b in res.branches
        )


def test_brute_hull_frozen_example():
    vertices, coslopes = brute_hull([(0, 3), (1, 1), (3, 0), (2, 2)])
    assert [(v.i, v.j) for v in vertices] == [(0, 3), (1, 1), (3, 0)]
    assert coslopes == (Fraction(1, 2), Fraction(2))


def test_brute_hull_guards():
    with pytest.raises(ValueError):
        brute_hull([])
    with pytest.raises(ValueError):
        brute_hull([(i, 0) for i in range(60)])


cloud_points = st.lists(
    st.tuples(
        st.fractions(min_value=-1, max_value=6, max_denominator=3),
        st.integers(0, 6),
    ),
    min_size=1,
    max_size=12,
)


@settings(deadline=None)
@given(cloud_points)
def test_hull_matches_brute_force(points):
    from puiseuxform import CloudPoint

    pts = tuple(CloudPoint(Fraction(i), j) for i, j in points)
    np = polygon_of(OneForm(PuiseuxPoly(dict.fromkeys(pts, 1)), PuiseuxPoly()))
    vertices, coslopes = brute_hull(points)
    assert np.vertices == vertices
    assert tuple(s.coslope for s in np.sides) == coslopes


def test_every_corpus_case_balances_its_separatrices():
    for sig in STANDARD_SIGNATURES:
        for seed in range(13):
            w = gen_case(sig, seed).form
            found, mult, decided = separatrix_balance(w, expand_branches(w))
            assert decided and found == mult, (sig, seed)


@settings(deadline=None)
@given(st.sampled_from(STANDARD_SIGNATURES), st.integers(13, 10**6))
def test_planted_cases_beyond_the_corpus_balance_their_separatrices(sig, seed):
    w = gen_case(sig, seed).form
    found, mult, decided = separatrix_balance(w, expand_branches(w))
    assert decided and found == mult


# every x^i y^j with 2 <= i + j <= 6: no f built from them has a linear term,
# so each df is singular
LOW_MONOMIALS = [(i, n - i) for n in range(2, 7) for i in range(n + 1)]


def random_exact_forms(seed, count):
    """``count`` forms ``df`` drawn by ``random.Random(seed)``: each ``f`` has 2 to 4
    distinct monomials of ``LOW_MONOMIALS``, with coefficients in +-{1, 2, 3}."""
    rng = random.Random(seed)
    for _ in range(count):
        monomials = rng.sample(LOW_MONOMIALS, rng.randint(2, 4))
        yield differential(PuiseuxPoly({m: rng.choice((-3, -2, -1, 1, 2, 3)) for m in monomials}))


def test_random_exact_forms_show_no_surplus_and_pin_the_balanced_count():
    # the measure of completeness: items 2 and 4 of the roadmap raise the count
    balances = [separatrix_balance(w, expand_branches(w, Limits(max_exponent=12)))
                for w in random_exact_forms(0, 400)]
    assert [b for b in balances if b.found > b.multiplicity] == []
    balanced = [b for b in balances if b.found == b.multiplicity]
    assert (len(balanced), sum(b.decided for b in balanced)) == (24, 6)


@pytest.mark.parametrize("w, balance", [
    (differential(X**2 - Y**3), (0, 2, True)),  # x^2 = y^3 is tangent to x = 0
    (OneForm(-2 * X, Y), (0, 2, True)),  # y = +-sqrt(2) x is irrational
    (differential(X * Y * (X - Y)), (2, 3, True)),  # x = 0 is not a graph over x
    (differential((X**2 - Y**3) * (Y**2 - X**3)), (2, 4, True)),  # y^2 = x^3 counted once
    (differential(Y**3 - 2 * X**4), (0, 3, True)),  # y = 2^(1/3) x^(4/3)
    (OneForm(X - Y, X**2), (1, 2, False)),  # Euler's divergent branch is truncated
], ids=["x^2 - y^3", "-2x dx + y dy", "xy(x - y)", "(x^2 - y^3)(y^2 - x^3)", "y^3 - 2x^4",
        "Euler"])
def test_separatrices_the_search_cannot_find_show_as_a_deficit(w, balance):
    assert separatrix_balance(w, expand_branches(w)) == balance


_MONOMIALS = [(i, j) for i in range(5) for j in range(5) if 1 <= i + j <= 4]


def _random_form(rng: random.Random) -> OneForm:
    """1-4 terms per coefficient, of degree 1-4, with coefficients +-1, +-2, +-3."""
    def coefficient():
        picked = rng.sample(_MONOMIALS, rng.randint(1, 4))
        return PuiseuxPoly({key: rng.choice((1, -1, 2, -2, 3, -3)) for key in picked})
    return OneForm(coefficient(), coefficient())


def _series(branch) -> PuiseuxPoly:
    return PuiseuxPoly({(s.mu, 0): s.c for s in branch.steps})


def test_a_shift_y_to_y_plus_c_x_to_the_k_keeps_the_bound_and_the_branches():
    # a metamorphic relation: y -> y + c x^k, k >= 2, is a change of coordinates
    # that keeps the lowest-degree terms, so it keeps the y-order, the
    # multiplicity and each branch's characteristic exponents
    rng = random.Random("y -> y + c x^k")
    limits = Limits(max_exponent=12)
    seen = Counter()
    for _ in range(300):
        w = _random_form(rng)
        k, c = rng.choice((2, 3)), rng.choice((1, -2, Fraction(1, 2)))
        w2 = y_shifted(w, c, k)
        before, after = (expand_branches(f, limits) for f in (w, w2))
        if any(e.step.dicritical for res in (before, after) for tr in res.traces for e in tr):
            seen["skipped"] += 1  # the samples stand for a family, not one branch
            continue
        case = (w, c, k)
        assert verify_bound(w, before.branches) == verify_bound(w2, after.branches), case
        assert sorted(b.r for b in before.branches) == sorted(b.r for b in after.branches), case
        if all(b.exact for b in before.branches):
            seen["exact"] += 1
            shift = PuiseuxPoly({(k, 0): c})
            assert all(b.exact for b in after.branches), case
            assert (sorted((_series(b) - shift).items() for b in before.branches)
                    == sorted(_series(b).items() for b in after.branches)), case
        else:
            seen["truncated"] += 1
    assert seen["exact"] >= 100 and seen["truncated"] >= 50 and seen["skipped"] <= 30, seen
