"""Reference implementations that only the tests use.

Each one computes what a pipeline function computes, by another route, so
agreement between the two is meaningful:

* ``brute_hull`` finds polygon vertices by brute-force minimisation over
  a finite set of probe co-slopes instead of a chain algorithm.
* ``substituted_residual`` computes a branch's invariance residual by
  substituting the series into the form, not by replaying its shifts.
* ``replayed_residual`` computes it by replaying the branch's steps
  through the public ``transform_form``, one form per step, where the
  pipeline chains the shift kernel on one record with no form in between.
* ``eval_ramified`` evaluates a polynomial at a point of the ramified
  grid, so identities can be checked numerically.
* ``poly_from_pairs`` builds a polynomial from ``(ex, ey, coeff)`` triples.
* ``binomial_shift`` is the per-term form of ``substitute_shift``: it
  evaluates ``C(ey, l) * c**l`` and ``ex + mu*l`` for every term and every
  ``l``, with ``Fraction`` exponents, where the pipeline shifts once on an
  integer exponent grid.
* ``term_product`` is the per-term form of ``PuiseuxPoly.__mul__``: it
  multiplies ``Fraction`` coefficients and adds ``Fraction`` exponents
  pair by pair, where the pipeline multiplies int numerators on an
  integer exponent grid.

Nothing here calls the polygon hull or the branch search.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

from puiseuxform.algebra import (
    INFINITY, OneForm, PuiseuxPoly, RatLike, TermKey, _sum_terms, _wrap, transform_form,
)
from puiseuxform.expansion import PuiseuxBranch, _axis_order
from puiseuxform.polygon import CloudPoint

_ZERO = Fraction(0)


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
    gamma = PuiseuxPoly()
    dgamma = PuiseuxPoly()
    for s in branch.steps:
        if s.c == 0:
            continue
        gamma = gamma + PuiseuxPoly.monomial(s.c, s.mu)
        dgamma = dgamma + PuiseuxPoly.monomial(s.c * s.mu, s.mu - 1)
    total = _substitute_y(w.a, gamma) + _substitute_y(w.b, gamma) * dgamma
    if total.is_zero():
        return INFINITY
    return min(ex for (ex, _ey) in total.terms)


def replayed_residual(w: OneForm, branch: PuiseuxBranch):
    """x-valuation of ``a(x, Gamma) + b(x, Gamma) * Gamma'(x)``.

    Replays the branch's steps through ``transform_form``: after
    ``y -> Gamma + y`` the dx coefficient at ``y = 0`` is exactly that sum.
    Every step must have ``mu >= 1``, as ``transform_form`` requires.
    Returns ``INFINITY`` when the branch is exactly invariant.
    """
    form = w
    for s in branch.steps:
        form = transform_form(form, s.c, s.mu)
    return _axis_order(form)


def _substitute_y(p: PuiseuxPoly, gamma: PuiseuxPoly) -> PuiseuxPoly:
    powers = {0: PuiseuxPoly.monomial(1)}
    acc = PuiseuxPoly()
    for (ex, ey), coeff in p.items():
        if ey not in powers:
            powers[ey] = gamma**ey
        acc = acc + PuiseuxPoly.monomial(coeff, ex) * powers[ey]
    return acc


def eval_ramified(p: PuiseuxPoly, t0: RatLike, y0: RatLike, ram: int) -> Fraction:
    """Evaluate ``p`` at ``x = t0**ram, y = y0``; each ``ex * ram`` must be whole."""
    t0 = Fraction(t0)
    y0 = Fraction(y0)
    total = Fraction(0)
    for (ex, ey), coeff in p.terms.items():
        k = ex * ram
        if k.denominator != 1:
            raise ValueError("exponent %s is off the grid 1/%d" % (ex, ram))
        total += coeff * t0**k.numerator * y0**ey
    return total


def poly_from_pairs(pairs: Iterable[tuple[RatLike, int, RatLike]]) -> PuiseuxPoly:
    """Build a polynomial from ``(ex, ey, coeff)`` triples, summed."""
    acc: dict[TermKey, Fraction] = {}
    for ex, ey, coeff in pairs:
        key = (Fraction(ex), int(ey))
        s = acc.get(key, _ZERO) + Fraction(coeff)
        if s:
            acc[key] = s
        else:
            acc.pop(key, None)
    return PuiseuxPoly(acc)


def binomial_shift(p: PuiseuxPoly, c: RatLike, mu: RatLike) -> PuiseuxPoly:
    """``p(x, c*x**mu + y)``, expanded binomially, one term at a time."""
    c = Fraction(c)
    mu = Fraction(mu)
    if mu < 1:
        raise ValueError("shift exponent mu must be >= 1")
    if c == 0:
        return p
    # (c x^mu + y)^ey = sum_l C(ey, l) c^l x^(mu l) y^(ey - l)
    return _wrap(_sum_terms(
        ((ex + mu * l, ey - l), coeff * math.comb(ey, l) * c**l)
        for (ex, ey), coeff in p.terms.items()
        for l in range(ey + 1)
    ))


def term_product(p: PuiseuxPoly, q: PuiseuxPoly) -> PuiseuxPoly:
    """``p * q``, one ``Fraction`` product per pair of terms."""
    return _wrap(_sum_terms(
        ((ex1 + ex2, ey1 + ey2), c1 * c2)
        for (ex1, ey1), c1 in p.terms.items()
        for (ex2, ey2), c2 in q.terms.items()
    ))
