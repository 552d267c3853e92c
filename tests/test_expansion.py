import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from puiseuxform import (
    INFINITY,
    BranchStep,
    CloudPoint,
    Limits,
    OneForm,
    PuiseuxBranch,
    PuiseuxPoly,
    SupportContact,
    TraceStep,
    admissible_steps,
    characteristic_poly,
    differential,
    expand_branches,
    invariance_residual,
    lemma_checks,
    order,
    polygon_of,
    rational_roots,
    series_text,
    support,
    verify_bound,
)
from reference import poly_from_pairs, substituted_residual

X = PuiseuxPoly.monomial(1, 1)
Y = PuiseuxPoly.monomial(1, 0, 1)

CUSP = OneForm(-3 * X**2, 2 * Y)  # d(y^2 - x^3)
RADIAL = OneForm(Y, -X)  # y dx - x dy
NO_RATIONAL = OneForm(-2 * X, Y)  # Phi(c) = c^2 - 2
DICRITICAL_SIDE = OneForm(X * Y + Y**2, -(X**2) - X * Y)
VERTEX_CHAR = OneForm(3 * Y, -2 * X)  # 3y dx - 2x dy


def step_tuples(branch):
    return [(s.mu, s.c, s.characteristic) for s in branch.steps]


def test_rational_roots_frozen():
    assert rational_roots([(0, -3), (2, 3)]) == (-1, 1)
    assert rational_roots([(0, -2), (2, 1)]) == ()
    assert rational_roots([(1, Fraction(-1, 2)), (3, Fraction(1, 2))]) == (-1, 1)
    assert rational_roots([(1, 1), (2, 1)]) == (-1,)  # c = 0 excluded
    assert rational_roots([(2, 5)]) == ()
    assert rational_roots([(0, 2), (1, -7), (2, 6)]) == (Fraction(1, 2), Fraction(2, 3))


def test_rational_roots_near_the_lifting_bound():
    # lead * root is within a factor 2 of B = |lead| + max|a_i|: lifting only
    # to a modulus above B, or above 2 * max|a_i|, recovers a wrong residue
    assert rational_roots([(0, 106), (1, 107), (2, 1)]) == (-106, -1)
    assert rational_roots([(0, -1), (1, -2), (2, 3)]) == (Fraction(-1, 3), 1)


def _poly_mul(f, g):
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


_BIG = st.integers(10**19, 10**22)
_LINEAR = st.tuples(  # the root +-u/v and its multiplicity
    st.one_of(_BIG, st.integers(1, 9)), st.one_of(_BIG, st.just(1)),
    st.booleans(), st.integers(1, 2),
)
_QUADRATIC = st.tuples(st.booleans(), st.one_of(_BIG, st.integers(1, 9)))


def test_rational_roots_match_sympy_on_large_coefficients():
    sympy = pytest.importorskip("sympy")
    c = sympy.Symbol("c")

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_LINEAR, max_size=3), st.lists(_QUADRATIC, max_size=2),
           st.integers(0, 3), _BIG, _BIG)
    def check(linears, quadratics, jmin, num, den):
        f = [Fraction(num, den)]
        for u, v, negative, mult in linears:
            for _ in range(mult):
                f = _poly_mul(f, [Fraction(u if negative else -u), Fraction(v)])
        for minus, s in quadratics:
            # c^2 - (s^2 + 1) and c^2 + s have no rational root
            f = _poly_mul(f, [Fraction(-(s * s + 1) if minus else s), 0, 1])
        pairs = [(j + jmin, a) for j, a in enumerate(f) if a != 0]
        expected = sorted(
            Fraction(int(r.p), int(r.q))
            for r in sympy.Poly(
                [sympy.Rational(a.numerator, a.denominator) for a in reversed(f)], c
            ).ground_roots()
            if r != 0
        )
        assert rational_roots(pairs) == tuple(expected)
        planted = {Fraction(-u if negative else u, v) for u, v, negative, _ in linears}
        assert planted <= set(expected)

    check()


def test_rational_roots_rejects_zero_polynomial():
    with pytest.raises(ValueError):
        rational_roots([(2, 0)])


def test_characteristic_poly_of_cusp_side():
    np = polygon_of(CUSP)
    phi = characteristic_poly(CUSP, support(np, Fraction(3, 2)))
    assert phi == ((0, Fraction(-3)), (2, Fraction(3)))
    values = [sum(co * Fraction(c) ** j for j, co in phi) for c in (1, -1, 2)]
    assert values == [0, 0, 9]


def test_characteristic_poly_dicritical_side():
    np = polygon_of(DICRITICAL_SIDE)
    phi = characteristic_poly(DICRITICAL_SIDE, support(np, 1))
    assert phi == ()


def test_admissible_steps_on_cusp():
    steps = admissible_steps(CUSP).steps
    assert [(s.mu, s.c) for s in steps] == [
        (Fraction(3, 2), Fraction(-1)),
        (Fraction(3, 2), Fraction(1)),
    ]
    for s in steps:
        assert s.contact_kind == "side"
        assert s.characteristic
        assert not s.dicritical
        assert (s.q_before, s.q_after) == (1, 2)


def test_admissible_steps_vertex_dicritical():
    steps = admissible_steps(VERTEX_CHAR).steps
    assert len(steps) == 1
    s = steps[0]
    assert (s.mu, s.c) == (Fraction(3, 2), Fraction(1))
    assert s.contact_kind == "vertex"
    assert s.dicritical and s.characteristic


def test_admissible_steps_respects_mu_minimum():
    assert admissible_steps(CUSP, after=1).steps != []
    assert admissible_steps(CUSP, after=Fraction(3, 2)).steps == []
    assert admissible_steps(CUSP, after=2).steps == []


def test_admissible_steps_rejects_mu_min_below_one():
    with pytest.raises(ValueError):
        admissible_steps(CUSP, after=Fraction(1, 2))


def test_cusp_expansion():
    res = expand_branches(CUSP)
    assert [series_text(b.steps) for b in res.branches] == ["-x^(3/2)", "x^(3/2)"]
    for b in res.branches:
        assert b.exact
        assert b.r == 1 == sum(s.characteristic for s in b.steps)
        assert b.truncated_at is None
        assert invariance_residual(CUSP, b) is INFINITY
    assert res.notes == []
    report = verify_bound(CUSP, res.branches)
    assert (report.max_r, report.y_order, report.multiplicity) == (1, 2, 2)
    assert report.ok


def test_radial_expansion_keeps_one_representative():
    res = expand_branches(RADIAL)
    assert [series_text(b.steps) for b in res.branches] == ["x"]
    b = res.branches[0]
    assert b.exact and b.r == 0
    assert b.steps[0].dicritical
    assert b.steps[0].contact_kind == "vertex"
    assert invariance_residual(RADIAL, b) is INFINITY
    report = verify_bound(RADIAL, res.branches)
    assert (report.max_r, report.y_order, report.multiplicity) == (0, 1, 2)
    assert report.ok


def test_radial_with_custom_dicritical_samples():
    limits = Limits(dicritical_samples=(Fraction(2), Fraction(-1)))
    res = expand_branches(RADIAL, limits)
    assert [series_text(b.steps) for b in res.branches] == ["-x", "2*x"]
    for b in res.branches:
        assert invariance_residual(RADIAL, b) is INFINITY


def test_no_rational_root_is_a_note_not_a_branch():
    res = expand_branches(NO_RATIONAL)
    assert res.branches == []
    assert len(res.notes) == 1
    assert "no rational continuation" in res.notes[0]
    assert verify_bound(NO_RATIONAL, res.branches).ok


def test_dicritical_side_samples_are_exactly_invariant():
    limits = Limits(dicritical_samples=(Fraction(1), Fraction(3), Fraction(-2)))
    res = expand_branches(DICRITICAL_SIDE, limits)
    assert [series_text(b.steps) for b in res.branches] == ["-2*x", "x", "3*x"]
    for b in res.branches:
        assert b.exact
        assert invariance_residual(DICRITICAL_SIDE, b) is INFINITY


def test_tangent_smooth_pair_emits_both_branches():
    f = (Y - X) * (Y - X - X**2)
    w = differential(f)
    res = expand_branches(w)
    assert [series_text(b.steps) for b in res.branches] == ["x", "x + x^2"]
    for b in res.branches:
        assert b.exact
        assert invariance_residual(w, b) is INFINITY


def test_exponents_increase_strictly_along_a_branch():
    f = (Y**2 - X**3) * (Y**2 - 2 * X**2 * Y + X**4 - X**3)
    res = expand_branches(differential(f))
    assert len(res.branches) == 4
    for b in res.branches:
        mus = [s.mu for s in b.steps]
        assert all(u < v for u, v in zip(mus, mus[1:]))
        qs = [s.q_before for s in b.steps] + [b.steps[-1].q_after]
        assert all(u <= v for u, v in zip(qs, qs[1:]))


def test_truncation_by_ramification_limit():
    # branch x^(3/2) + ... x^(7/4)... cannot pass q = 2
    from puiseuxform import gen_case

    case = gen_case((Fraction(3, 2), Fraction(7, 4)), 0)
    limits = Limits(max_ramification=2)
    res = expand_branches(case.form, limits)
    truncated = [b for b in res.branches if not b.exact]
    assert truncated
    for b in truncated:
        assert b.truncated_at == Fraction(3, 2)
        residual = invariance_residual(case.form, b)
        assert residual is not INFINITY
    assert any("ramification" in n and "pruned" in n for n in res.notes)


def test_truncation_by_exponent_limit_at_root():
    limits = Limits(max_exponent=Fraction(1))
    res = expand_branches(CUSP, limits)
    assert len(res.branches) == 1
    b = res.branches[0]
    assert not b.exact and b.steps == () and b.truncated_at is None
    assert any("exponent beyond limit" in n for n in res.notes)


def test_branch_cap_stops_enumeration():
    limits = Limits(max_branches=1)
    res = expand_branches(CUSP, limits)
    assert len(res.branches) == 1
    assert any("branch limit" in n for n in res.notes)


TWO_VERTEX_DICRITICAL = OneForm(5 * Y**3 + 7 * X**3 * Y, -4 * X * Y**2 - 3 * X**4)


@pytest.mark.parametrize("samples", [(0,), (0, 1)])
def test_a_zero_term_does_not_enlarge_the_grid(samples):
    # the c = 0 members of the vertex families are the smooth branch y = 0;
    # they counted r = 2 and r = 1 when a zero term enlarged the grid
    res = expand_branches(
        TWO_VERTEX_DICRITICAL, Limits(dicritical_samples=tuple(map(Fraction, samples)))
    )
    assert res.branches
    for b in res.branches:
        q, enlargements = 1, 0
        for s in b.steps:
            if s.c != 0 and math.lcm(q, s.mu.denominator) > q:
                q, enlargements = math.lcm(q, s.mu.denominator), enlargements + 1
        assert b.r == enlargements, series_text(b.steps)
    assert all(b.r == 0 for b in res.branches if series_text(b.steps) == "0")


@pytest.mark.parametrize("w", [TWO_VERTEX_DICRITICAL, RADIAL, DICRITICAL_SIDE])
@pytest.mark.parametrize("samples", [(0,), (0, 1), (1,), (1, 0, -1)])
def test_no_two_branches_share_a_step_list(w, samples):
    # a c = 0 step left the form as it was, so its subtree repeated the
    # node's own search: =0 reported y = 0 twice on the two-vertex form
    limits = Limits(Fraction(8), dicritical_samples=tuple(map(Fraction, samples)))
    res = expand_branches(w, limits)
    lists = [tuple((s.mu, s.c) for s in b.steps) for b in res.branches]
    assert len(set(lists)) == len(lists), [series_text(b.steps) for b in res.branches]
    assert len(set(res.notes)) == len(res.notes)
    assert all(s.c != 0 for b in res.branches for s in b.steps)
    assert sum(1 for b in res.branches if not b.steps) == (0 in samples)  # y = 0
    if w is TWO_VERTEX_DICRITICAL and samples in ((0,), (0, 1)):
        assert len(res.branches) == {(0,): 1, (0, 1): 3}[samples]


def test_residual_grows_with_each_term():
    from puiseuxform import BranchStep, PuiseuxBranch

    res = expand_branches(CUSP)
    full = res.branches[1]
    empty = PuiseuxBranch((), 2)
    assert invariance_residual(CUSP, empty) == 2  # ord_x of a(x, 0)
    assert invariance_residual(CUSP, full) is INFINITY


def _planted(*steps):
    return PuiseuxBranch(tuple(BranchStep(Fraction(mu), Fraction(c), 1, None, False)
                               for mu, c in steps), None)


@pytest.mark.parametrize("steps, residual", [
    ((), 2),  # ord_x a(x, 0) of a = -3 x^2
    (((Fraction(1, 2), 0),), 2),  # c = 0 is checked before mu: no shift, no error
    (((Fraction(1, 2), 0), (Fraction(3, 2), 1)), INFINITY),
    (((Fraction(3, 2), 1), (Fraction(1, 3), 0), (Fraction(7, 4), 5)), Fraction(9, 4)),
])
def test_replay_checks_c_before_mu(steps, residual):
    assert invariance_residual(CUSP, _planted(*steps)) == residual


@pytest.mark.parametrize("steps", [
    ((Fraction(1, 2), 1),),
    ((Fraction(3, 2), 1), (Fraction(1, 2), 2)),
])
def test_replay_rejects_a_shift_below_one(steps):
    with pytest.raises(ValueError, match="^shift exponent mu must be >= 1$"):
        invariance_residual(CUSP, _planted(*steps))


def test_expand_rejects_bad_input():
    with pytest.raises(ValueError):
        expand_branches(OneForm(PuiseuxPoly(), PuiseuxPoly()))
    with pytest.raises(ValueError):
        expand_branches(OneForm(PuiseuxPoly.monomial(1), Y))
    frac = poly_from_pairs([(Fraction(3, 2), 0, 1)])
    with pytest.raises(ValueError):
        expand_branches(OneForm(frac, Y))


def test_lemma_checks_on_cusp_trace():
    res = expand_branches(CUSP)
    assert len(res.traces) == 2
    for tr in res.traces:
        rep = lemma_checks(tr)
        assert rep.ok
        (entry,) = rep.steps
        assert entry.l1.status == "vacuous"
        assert entry.l2.status == "pass"
        assert entry.l3.status == "pass"
        assert entry.corollary.status == "pass"


def test_lemma_l2_vacuous_when_contact_becomes_vertex():
    # after the first step of d((y-x)^2 - x^3) the used line meets a vertex
    f = (Y - X) ** 2 - X**3
    res = expand_branches(differential(f))
    assert [series_text(b.steps) for b in res.branches] == [
        "x - x^(3/2)",
        "x + x^(3/2)",
    ]
    for tr in res.traces:
        rep = lemma_checks(tr)
        assert rep.ok
        first, second = rep.steps
        assert first.mu == 1
        assert first.l2.status == "vacuous"
        assert second.mu == Fraction(3, 2)
        assert second.l2.status == "pass"


def test_lemma_l3_and_corollary_on_height_four_jump():
    # first step drops the contact from height 4 to height 2, within the
    # allowed range (bound 3), below the top survivor predicted by L3
    f = (Y**2 - X**3) * (Y**2 - 2 * X**2 * Y + X**4 - X**3)
    w = differential(f)
    res = expand_branches(w)
    assert verify_bound(w, res.branches).ok
    seen = 0
    for tr in res.traces:
        rep = lemma_checks(tr)
        assert rep.ok
        first = rep.steps[0]
        if first.mu == Fraction(3, 2):
            seen += 1
            assert first.l3.status == "pass"
            assert "(-1, 4)" in first.l3.detail and "(1/2, 3)" in first.l3.detail
            assert first.corollary.status == "pass"
            assert "height 2 vs bound 3" in first.corollary.detail
    assert seen > 0


def _l3_after(form_after):
    # a hand-built characteristic step mu = 3/2 (q 1 -> 2) from the contact
    # top P = (-1, 2): L3 expects P and the survivor (1/2, 1) in the cloud
    # of form_after
    P = CloudPoint(Fraction(-1), 2)
    contact = SupportContact(
        Fraction(3, 2), Fraction(2), (P, CloudPoint(Fraction(2), 0)), "side", P
    )
    step = BranchStep(Fraction(3, 2), Fraction(1), 1, contact, False)
    (entry,) = lemma_checks([TraceStep(step, form_after, polygon_of(form_after))]).steps
    return entry.l3


def test_lemma_l3_finds_a_survivor_above_the_staircase():
    # b = y gives P = (-1, 2); a = x^(1/2)*y gives the survivor (1/2, 1),
    # which a = y, at (0, 1), lies below-left of
    a = PuiseuxPoly({(Fraction(1, 2), 1): 1, (0, 1): 1})
    w = OneForm(a, Y)
    assert CloudPoint(Fraction(1, 2), 1) not in polygon_of(w).staircase
    l3 = _l3_after(w)
    assert l3.status == "pass"
    assert l3.detail == "expected (-1, 2) and (1/2, 1) in transformed cloud"


def test_lemma_l3_fails_without_the_survivor():
    assert _l3_after(OneForm(Y, Y)).status == "fail"


def test_lemma_report_never_raises_on_failure_shapes():
    # a hand-built report entry with a failing check is an entry, not an error
    from puiseuxform import CheckOutcome, StepLemmaReport

    entry = StepLemmaReport(
        Fraction(3, 2),
        CheckOutcome("fail", "x"),
        CheckOutcome("pass", ""),
        CheckOutcome("vacuous", ""),
        CheckOutcome("pass", ""),
    )
    assert not entry.ok


def test_verify_bound_tight_cases():
    # r = y-order on the vertex-characteristic fixture
    res = expand_branches(VERTEX_CHAR)
    report = verify_bound(VERTEX_CHAR, res.branches)
    assert (report.max_r, report.y_order, report.multiplicity) == (1, 1, 2)
    assert report.ok


singular_polys = st.lists(
    st.tuples(
        st.integers(0, 3),
        st.integers(0, 3),
        st.integers(-3, 3),
    ),
    min_size=1,
    max_size=5,
).map(
    lambda ts: poly_from_pairs(
        (ex, ey, c) for ex, ey, c in ts if (ex, ey) != (0, 0)
    )
)


@settings(deadline=None, max_examples=60)
@given(singular_polys)
def test_exact_forms_are_never_dicritical(f):
    if f.is_zero() or order(f) < 2:
        return
    w = differential(f)
    if w.a.is_zero() and w.b.is_zero():
        return
    for s in admissible_steps(w).steps:
        assert not s.dicritical


def test_replayed_residual_matches_substitution():
    # limit-truncated branches are the only source of finite residuals here;
    # the CLI relies on a searched branch being exact iff its residual is infinite
    from puiseuxform import STANDARD_SIGNATURES, gen_case

    checked = truncated = 0
    for limits in (Limits(max_ramification=2), Limits(max_exponent=Fraction(3, 2))):
        for sig in STANDARD_SIGNATURES:
            for seed in range(4):
                w = gen_case(sig, seed).form
                for b in expand_branches(w, limits).branches:
                    res = invariance_residual(w, b)
                    assert res == substituted_residual(w, b)
                    assert b.residual == res
                    assert b.exact == (res is INFINITY)
                    checked += 1
                    truncated += not b.exact
    assert (checked, truncated) == (92, 58)
