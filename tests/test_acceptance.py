"""Acceptance suite.

Each criterion is one test that prints a single PASS/FAIL line (visible
with ``pytest -v -s`` or in the captured output of a failing run) and
asserts the same condition, so ``pytest -v`` also yields one pass/fail
row per criterion.
"""

import json
import math
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from puiseuxform import (
    INFINITY,
    BoundReport,
    CloudPoint,
    Limits,
    OneForm,
    PuiseuxPoly,
    STANDARD_SIGNATURES,
    characteristic_poly,
    cloud,
    expand_branches,
    gen_case,
    lemma_checks,
    multiplicity,
    newton_polygon,
    polygon_of,
    series_text,
    substitute_shift,
    support,
    verify_bound,
    y_order,
)
from puiseuxform.cli.main import run
from reference import brute_hull, eval_ramified, poly_from_pairs, substituted_residual

X = PuiseuxPoly.monomial(1, 1)
Y = PuiseuxPoly.monomial(1, 0, 1)


def report(number: int, name: str, ok: bool, detail: str) -> None:
    print("ACCEPTANCE %d (%s): %s - %s" % (number, name, "PASS" if ok else "FAIL", detail))
    assert ok, "acceptance criterion %d (%s) failed: %s" % (number, name, detail)


@pytest.fixture(scope="module")
def corpus():
    cases = []
    for sig in STANDARD_SIGNATURES:
        for seed in range(13):
            case = gen_case(sig, seed)
            cases.append((case, expand_branches(case.form)))
    assert len(cases) >= 100
    return cases


def test_criterion_1_cusp_fixture(capsys):
    w = OneForm(-3 * X**2, 2 * Y)
    problems = []

    np = polygon_of(w)
    if set(cloud(w)) != {CloudPoint(Fraction(2), 0), CloudPoint(Fraction(-1), 2)}:
        problems.append("cloud mismatch")
    if len(np.sides) != 1 or np.sides[0].coslope != Fraction(3, 2):
        problems.append("side co-slope mismatch")
    phi = characteristic_poly(w, support(np, Fraction(3, 2)))
    if phi != ((0, Fraction(-3)), (2, Fraction(3))):
        problems.append("characteristic polynomial is not 3c^2 - 3")

    res = expand_branches(w)
    series = sorted(series_text(b.steps) for b in res.branches)
    if series != ["-x^(3/2)", "x^(3/2)"]:
        problems.append("branches are not +-x^(3/2)")
    for b in res.branches:
        if not b.exact or substituted_residual(w, b) is not INFINITY:
            problems.append("branch %s not exactly invariant" % series_text(b.steps))
        if b.r != 1:
            problems.append("r != 1")
    if y_order(w) != 2:
        problems.append("y-order != 2")
    if multiplicity(w) != 2:
        problems.append("multiplicity != 2")
    if not verify_bound(w, res.branches).ok:
        problems.append("bound check failed")
    if run(["verify", "--a", "-3*x^2", "--b", "2*y"]) != 0:
        problems.append("CLI verify exit code nonzero")
    capsys.readouterr()

    with capsys.disabled():
        report(
            1, "cusp fixture", not problems,
            "; ".join(problems) if problems else
            "cloud {(2,0),(-1,2)}, side 3/2, Phi=3c^2-3, branches +-x^(3/2) "
            "exact, r=1, y-order=2, multiplicity=2, verify PASS",
        )


def test_criterion_2_radial_dicritical_fixture(capsys):
    w = OneForm(Y, -X)
    problems = []

    res = expand_branches(w)
    if len(res.branches) != 1:
        problems.append("expected one representative branch")
    else:
        b = res.branches[0]
        step = b.steps[0]
        if not (step.dicritical and step.mu == 1):
            problems.append("no dicritical step at mu=1")
        if series_text(b.steps) != "x":
            problems.append("representative branch is not y = x")
        if not b.exact or substituted_residual(w, b) is not INFINITY:
            problems.append("branch not exactly invariant")
        if b.r != 0:
            problems.append("r != 0")
    if y_order(w) != 1:
        problems.append("y-order != 1")
    if multiplicity(w) != 2:
        problems.append("multiplicity != 2")
    if not verify_bound(w, res.branches).ok:
        problems.append("bound check failed")
    if run(["verify", "--a", "y", "--b", "-x"]) != 0:
        problems.append("CLI verify exit code nonzero")
    capsys.readouterr()

    with capsys.disabled():
        report(
            2, "radial dicritical fixture", not problems,
            "; ".join(problems) if problems else
            "dicritical step mu=1, branch y=x exact, r=0, y-order=1, "
            "multiplicity=2, verify PASS",
        )


def test_criterion_3_planted_corpus(corpus, capsys):
    bound_failures = 0
    recovery_failures = 0
    for case, result in corpus:
        if not verify_bound(case.form, result.branches).ok:
            bound_failures += 1
        want = [(s.mu, s.c, s.characteristic) for s in case.branch.steps]
        hit = any(
            b.exact and [(s.mu, s.c, s.characteristic) for s in b.steps] == want
            for b in result.branches
        )
        planted_chars = [s.mu for s in case.branch.steps if s.characteristic]
        if not hit or planted_chars != list(case.signature):
            recovery_failures += 1
    ok = bound_failures == 0 and recovery_failures == 0

    with capsys.disabled():
        report(
            3, "planted corpus", ok,
            "%d cases (r in {0,1,2,3}): %d bound failures, %d recovery failures"
            % (len(corpus), bound_failures, recovery_failures),
        )


def test_deep_tower_r4():
    # r = 4, beyond the corpus: the m = 16 tower 3/2, 7/4, 15/8, 31/16
    case = gen_case(tuple(Fraction(e) for e in ("3/2", "7/4", "15/8", "31/16")), 1)
    result = expand_branches(case.form, Limits(max_ramification=32))
    want = [(s.mu, s.c, s.characteristic) for s in case.branch.steps]
    hits = [
        b for b in result.branches
        if b.exact and [(s.mu, s.c, s.characteristic) for s in b.steps] == want
    ]
    assert len(hits) == 1 and hits[0].r == case.branch.r == 4
    assert verify_bound(case.form, result.branches) == BoundReport(4, 16, 16, True)
    assert all(lemma_checks(trace).ok for trace in result.traces)


def test_criterion_4_lemma_instrumentation(corpus, capsys):
    checked = 0
    failures = 0
    for _case, result in corpus:
        for trace in result.traces:
            rep = lemma_checks(trace)
            for entry in rep.steps:
                for outcome in (entry.l1, entry.l2, entry.l3, entry.corollary):
                    checked += 1
                    if outcome.status == "fail":
                        failures += 1
    ok = failures == 0 and checked > 0

    with capsys.disabled():
        report(
            4, "lemma instrumentation", ok,
            "%d lemma checks over %d expansions, %d failures"
            % (checked, len(corpus), failures),
        )


def test_criterion_5_hull_oracle_equivalence(capsys):
    rng = random.Random(505)
    mismatches = 0
    for _ in range(200):
        n = rng.randint(1, 15)
        points = []
        for _ in range(n):
            den = rng.choice([1, 2, 3])
            num = rng.randint(-den, 8 * den)
            points.append((Fraction(num, den), rng.randint(0, 8)))
        np = newton_polygon([CloudPoint(i, j) for i, j in points])
        vertices, coslopes = brute_hull(points)
        if np.vertices != vertices or tuple(s.coslope for s in np.sides) != coslopes:
            mismatches += 1
    ok = mismatches == 0

    with capsys.disabled():
        report(
            5, "hull oracle equivalence", ok,
            "200 random clouds of <= 15 points, %d mismatches" % mismatches,
        )


def test_criterion_6_substitution_identity(capsys):
    rng = random.Random(606)
    failures = 0
    for _ in range(100):
        terms = [
            (
                Fraction(rng.randint(0, 8), rng.choice([1, 2, 3])),
                rng.randint(0, 4),
                Fraction(rng.randint(-6, 6), rng.randint(1, 3)),
            )
            for _ in range(rng.randint(1, 5))
        ]
        p = poly_from_pairs(terms)
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 2))
        mu = 1 + Fraction(rng.randint(0, 8), rng.choice([1, 2, 3, 4]))
        t0 = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        y0 = Fraction(rng.randint(-5, 5), rng.randint(1, 3))

        shifted = substitute_shift(p, c, mu)
        ram = math.lcm(mu.denominator, *(ex.denominator for (ex, _ey) in p.terms))
        lhs = eval_ramified(shifted, t0, y0, ram)
        rhs = eval_ramified(p, t0, c * t0 ** int(mu * ram) + y0, ram)
        if lhs != rhs:
            failures += 1
    ok = failures == 0

    with capsys.disabled():
        report(
            6, "substitution identity", ok,
            "100 random (p, c, mu, point) tuples, %d failures" % failures,
        )


def test_criterion_7_y_order_bounded_by_multiplicity(capsys):
    rng = random.Random(707)
    failures = 0
    checked = 0
    while checked < 100:
        def rand_poly():
            return poly_from_pairs(
                (rng.randint(0, 4), rng.randint(0, 4), rng.randint(-3, 3))
                for _ in range(rng.randint(0, 5))
            )

        a, b = rand_poly(), rand_poly()
        a = a - PuiseuxPoly.monomial(a.coeff(0, 0))
        b = b - PuiseuxPoly.monomial(b.coeff(0, 0))
        if a.is_zero() and b.is_zero():
            continue
        w = OneForm(a, b)
        if y_order(w) > multiplicity(w):
            failures += 1
        checked += 1
    ok = failures == 0

    with capsys.disabled():
        report(
            7, "y-order <= multiplicity", ok,
            "100 random singular forms, %d violations" % failures,
        )


def test_criterion_8_deterministic_json(capsys, child_env):
    inputs = [
        ["verify", "--a=-3*x^2", "--b=2*y", "--json"],
        ["verify", "--a=y", "--b=-x", "--json"],
    ]
    case = gen_case(STANDARD_SIGNATURES[4], 7)
    from puiseuxform.cli.parser import poly_to_text

    inputs.append(
        ["verify", "--a=" + poly_to_text(case.form.a),
         "--b=" + poly_to_text(case.form.b), "--json"]
    )

    stable = True
    for argv in inputs:
        outputs = set()
        for hashseed in ("0", "4242"):
            env = dict(child_env, PYTHONHASHSEED=hashseed)
            proc = subprocess.run(
                [sys.executable, "-m", "puiseuxform", *argv],
                capture_output=True,
                env=env,
            )
            if proc.returncode != 0:
                stable = False
            outputs.add(proc.stdout)
        if len(outputs) != 1:
            stable = False
        json.loads(outputs.pop())  # well-formed JSON

    with capsys.disabled():
        report(
            8, "deterministic json", stable,
            "3 inputs x 2 hash seeds of 'verify --json', byte-identical",
        )
