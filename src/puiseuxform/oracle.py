"""Independent cross-checks for the expansion pipeline.

The expansion code decides admissible exponents from a Newton polygon and
coefficients from characteristic polynomials.  Everything here goes the
other way around, so agreement is meaningful:

* ``branch_to_curve`` rebuilds, by exact linear algebra, the monic curve
  f(x, y) whose root the branch is, as the characteristic polynomial of
  the multiplication-by-g operator on Q[x][t] / (t^m - x).  The expansion
  of d(f) must then rediscover the branch term by term.
* ``gen_case`` plants a branch with a prescribed ladder of characteristic
  exponents and hands back the differential form, the curve, and the
  expected step list, so the step classifier (characteristic or not) and
  the count r can be tested against a known answer.
* ``brute_hull`` finds polygon vertices by brute-force minimisation over
  a finite set of probe co-slopes instead of a chain algorithm.
* ``substituted_residual`` computes a branch's invariance residual by
  substituting the series into the form, not by replaying its shifts.

Nothing in this module calls the polygon hull or the branch search.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .algebra import INFINITY, OneForm, PuiseuxPoly, differential
from .expansion import BranchStep, PuiseuxBranch
from .polygon import CloudPoint


def branch_to_curve(coeffs: dict[int, Fraction], m: int) -> PuiseuxPoly:
    """Monic degree-m curve vanishing on ``y = sum f_k x^(k/m)``.

    ``coeffs`` maps k to f_k; every k must be an integer >= m (so the
    branch has order >= 1) and the representation must be primitive:
    gcd(m, k over nonzero f_k) == 1.

    Writing g(t) = sum f_k t^k, the matrix M of multiplication by g on
    the Q[x]-module Q[x][t] / (t^m - x) with basis 1, t, ..., t^(m-1)
    has the branch conjugates g(zeta * x^(1/m)) as eigenvalues, so

        f(x, y) = det(y * I - M)

    is the product of (y - conjugate) over all m conjugates.
    """
    if m < 1:
        raise ValueError("ramification m must be a positive integer")
    cleaned = {int(k): Fraction(f) for k, f in coeffs.items() if f != 0}
    if not cleaned:
        raise ValueError("branch must have at least one nonzero term")
    for k in cleaned:
        if k < m:
            raise ValueError("exponent %d/%d is below 1" % (k, m))
    if math.gcd(m, *cleaned) != 1:
        raise ValueError("non-primitive parametrisation: gcd(m, k's) > 1")

    y = PuiseuxPoly.monomial(1, 0, 1)
    matrix = [[PuiseuxPoly.zero() for _ in range(m)] for _ in range(m)]
    for a in range(m):
        matrix[a][a] = matrix[a][a] + y
        for k, f in cleaned.items():
            b = (k + a) % m
            matrix[b][a] = matrix[b][a] - PuiseuxPoly.monomial(f, (k + a) // m)

    cache: dict[frozenset[int], PuiseuxPoly] = {}

    def minor(rows: frozenset[int]) -> PuiseuxPoly:
        if not rows:
            return PuiseuxPoly.const(1)
        if rows in cache:
            return cache[rows]
        col = m - len(rows)
        acc = PuiseuxPoly.zero()
        for pos, row in enumerate(sorted(rows)):
            entry = matrix[row][col]
            if entry.is_zero():
                continue
            term = entry * minor(rows - {row})
            acc = acc + (term if pos % 2 == 0 else -term)
        cache[rows] = acc
        return acc

    return minor(frozenset(range(m)))


@dataclass(frozen=True)
class GeneratedCase:
    signature: tuple[Fraction, ...]
    seed: int
    form: OneForm
    curve: PuiseuxPoly
    branch: PuiseuxBranch
    r: int
    extra_line: Fraction | None  # slope of a smooth factor added when m = 1


_COEFF_POOL = (
    Fraction(1), Fraction(-1), Fraction(2), Fraction(-2),
    Fraction(3), Fraction(-3), Fraction(1, 2), Fraction(-1, 2),
)


def _validate_signature(signature: tuple[Fraction, ...]) -> int:
    q = 1
    prev = Fraction(1)
    for e in signature:
        e = Fraction(e)
        if e <= prev:
            raise ValueError("characteristic exponents must increase from 1")
        if e.denominator % q != 0 or e.denominator == q:
            raise ValueError(
                "denominator of %s must properly enlarge the grid (q = %d)" % (e, q)
            )
        q = e.denominator
        prev = e
    return q


def _grid_between(lo: Fraction, hi: Fraction, q: int) -> list[Fraction]:
    out = []
    k = math.floor(lo * q) + 1
    while Fraction(k, q) < hi:
        out.append(Fraction(k, q))
        k += 1
    return out


def gen_case(signature, seed: int) -> GeneratedCase:
    """A differential form with a planted branch of known signature.

    ``signature`` lists the characteristic exponents in order; each must
    be > 1 with a denominator that properly enlarges the ramification
    built so far.  Filler terms on the current grid are sprinkled between
    them (at most two per gap) from a deterministic seeded RNG.  For the
    unramified case (empty signature) the curve is smooth, so a second
    transverse line is multiplied in to make the differential singular.
    """
    signature = tuple(Fraction(e) for e in signature)
    m = _validate_signature(signature)
    rng = random.Random("gen_case:%s:%d" % (signature, seed))

    exponents: list[Fraction] = []
    anchors = [Fraction(1)] + list(signature)
    q = 1
    if not signature:
        exponents.append(Fraction(1))
    else:
        if rng.random() < 0.5:
            exponents.append(Fraction(1))
        for t, e in enumerate(signature):
            gap = _grid_between(anchors[t], e, q)
            take = rng.randint(0, min(2, len(gap)))
            exponents.extend(sorted(rng.sample(gap, take)))
            exponents.append(e)
            q = e.denominator
    tail = _grid_between(anchors[-1], anchors[-1] + 2, m)
    take = rng.randint(0, min(2, len(tail)))
    exponents.extend(sorted(rng.sample(tail, take)))

    terms = [(e, rng.choice(_COEFF_POOL)) for e in exponents]
    coeffs = {int(e * m): c for e, c in terms}
    curve = branch_to_curve(coeffs, m)

    extra_line = None
    if m == 1:
        gamma_lin = dict(terms).get(Fraction(1), Fraction(0))
        extra_line = next(d for d in _COEFF_POOL if d != gamma_lin)
        curve = curve * (
            PuiseuxPoly.monomial(1, 0, 1) - PuiseuxPoly.monomial(extra_line, 1)
        )
    form = differential(curve)

    steps = []
    q = 1
    for e, c in terms:
        q_after = math.lcm(q, e.denominator)
        steps.append(BranchStep(e, c, q, q_after, q_after > q, "unknown", False))
        q = q_after
    branch = PuiseuxBranch(tuple(steps), len(signature), None, True)
    return GeneratedCase(signature, seed, form, curve, branch, len(signature), extra_line)


STANDARD_SIGNATURES: tuple[tuple[Fraction, ...], ...] = (
    (),
    (Fraction(3, 2),),
    (Fraction(5, 2),),
    (Fraction(4, 3),),
    (Fraction(3, 2), Fraction(7, 4)),
    (Fraction(3, 2), Fraction(13, 6)),
    (Fraction(4, 3), Fraction(17, 6)),
    (Fraction(3, 2), Fraction(7, 4), Fraction(15, 8)),
)


def brute_hull(points) -> tuple[tuple[CloudPoint, ...], tuple[Fraction, ...]]:
    """Lower-left hull by exhaustive support-line probing.

    A point is a vertex exactly when it is the unique minimiser of
    i + mu * j for some co-slope mu > 0.  Probing every pairwise
    critical co-slope, the midpoints between consecutive ones, and one
    value beyond each end finds them all, because the minimiser set is
    constant on the open intervals between critical values.  Quadratic
    and only for tests; refuses more than 50 points.
    """
    pts = sorted(set(CloudPoint(Fraction(i), int(j)) for i, j in points))
    if not pts:
        raise ValueError("empty cloud")
    if len(pts) > 50:
        raise ValueError("brute_hull is for small test clouds only")

    crit = sorted(
        {
            Fraction(q.i - p.i, p.j - q.j)
            for p in pts
            for q in pts
            if p.j != q.j and Fraction(q.i - p.i, p.j - q.j) > 0
        }
    )
    probes = set(crit)
    for u, v in zip(crit, crit[1:]):
        probes.add((u + v) / 2)
    if crit:
        probes.add(crit[0] / 2)
        probes.add(crit[-1] + 1)
    else:
        probes.add(Fraction(1))

    vertices = set()
    for mu in sorted(probes):
        best = min(p.i + mu * p.j for p in pts)
        argmin = [p for p in pts if p.i + mu * p.j == best]
        if len(argmin) == 1:
            vertices.add(argmin[0])

    ordered = tuple(sorted(vertices))
    coslopes = tuple(
        Fraction(v2.i - v1.i, v1.j - v2.j) for v1, v2 in zip(ordered, ordered[1:])
    )
    return ordered, coslopes


def substituted_residual(w: OneForm, branch: PuiseuxBranch):
    """x-valuation of ``a(x, Gamma) + b(x, Gamma) * Gamma'(x)``.

    Returns ``INFINITY`` when the branch is exactly invariant.
    """
    gamma = PuiseuxPoly.zero()
    dgamma = PuiseuxPoly.zero()
    for s in branch.steps:
        if s.c == 0:
            continue
        gamma = gamma + PuiseuxPoly.monomial(s.c, s.mu)
        dgamma = dgamma + PuiseuxPoly.monomial(s.c * s.mu, s.mu - 1)
    total = _substitute_y(w.a, gamma) + _substitute_y(w.b, gamma) * dgamma
    if total.is_zero():
        return INFINITY
    return min(ex for (ex, _ey) in total.terms)


def _substitute_y(p: PuiseuxPoly, gamma: PuiseuxPoly) -> PuiseuxPoly:
    powers = {0: PuiseuxPoly.const(1)}
    acc = PuiseuxPoly.zero()
    for (ex, ey), coeff in p.items():
        if ey not in powers:
            powers[ey] = gamma**ey
        acc = acc + PuiseuxPoly.monomial(coeff, ex) * powers[ey]
    return acc
