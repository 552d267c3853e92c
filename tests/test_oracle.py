import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from puiseuxform import (
    INFINITY,
    PuiseuxPoly,
    STANDARD_SIGNATURES,
    branch_to_curve,
    brute_hull,
    eval_ramified,
    expand_branches,
    gen_case,
    newton_polygon,
    order,
)
from puiseuxform.oracle import substituted_residual

X = PuiseuxPoly.monomial(1, 1)
Y = PuiseuxPoly.monomial(1, 0, 1)


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
            assert eval_ramified(f, x0, y0) == 0
        checked += 1


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


def test_gen_case_plants_the_signature():
    sig = (Fraction(3, 2), Fraction(7, 4))
    case = gen_case(sig, 3)
    char_steps = [s.mu for s in case.branch.steps if s.characteristic]
    assert char_steps == list(sig)
    assert case.r == 2
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
    np = newton_polygon(pts)
    vertices, coslopes = brute_hull(points)
    assert np.vertices == vertices
    assert tuple(s.coslope for s in np.sides) == coslopes
