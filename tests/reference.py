"""Reference implementations that only the tests use.

Each one computes what a pipeline function computes, by another route, so
agreement between the two is meaningful:

* ``brute_hull`` finds polygon vertices by brute-force minimisation over
  a finite set of probe co-slopes instead of a chain algorithm.
* ``substituted_residual`` computes a branch's invariance residual by
  substituting the series into the form, not by replaying its shifts.
* ``eval_ramified`` evaluates a polynomial at a point of the ramified
  grid, so identities can be checked numerically.
* ``poly_from_pairs`` builds a polynomial from ``(ex, ey, coeff)`` triples.
* ``binomial_shift`` is the per-term form of ``p(x, c*x**mu + y)``, the
  ``a`` of ``transform_form(OneForm(p, PuiseuxPoly()), c, mu)``: it
  evaluates ``C(ey, l) * c**l`` and ``ex + mu*l`` for every term and every
  ``l``, with ``Fraction`` exponents, where the pipeline shifts once on an
  integer exponent grid.
* ``term_product`` is the per-term form of ``PuiseuxPoly.__mul__``: it
  multiplies ``Fraction`` coefficients and adds ``Fraction`` exponents
  pair by pair, where the pipeline multiplies int numerators on an
  integer exponent grid.
* ``tokenize`` splits a text into the parser's tokens with a character
  loop, where the parser uses one regular expression.  It reads a digit by
  ``str.isdigit()``, so a superscript passes it as a digit, which the
  parser refuses as an unexpected character.
* ``ProductParser`` is the parser with one poly product per factor of a
  term, where the parser keeps a term's number and variable factors as one
  int monomial and stops multiplying once the product is zero.
* ``poly_to_text`` renders from the ``Fraction`` view ``items()``, where
  the pipeline renders from the integer grid.
* ``separatrix_balance`` weighs the branches a search found against the
  form's multiplicity, which the pipeline never compares them with.
* ``y_shifted`` is the form after ``y -> y + c*x**k``, built term by term
  from ``binomial_shift`` and ``term_product``, where the search chains
  ``transform_form``.  A search of it must find the same bound and
  branches, each series less ``c*x**k``.

Nothing here calls the polygon hull or the branch search.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, NamedTuple

from puiseuxform.algebra import (
    INFINITY,
    OneForm,
    PuiseuxPoly,
    RatLike,
    TermKey,
    _monomial,
    _sum_terms,
    power_text,
    rat_str,
    signed_sum,
)
from puiseuxform.cli.parser import _MAX_TERMS, ParseError, _Parser
from puiseuxform.expansion import ExpansionResult, PuiseuxBranch
from puiseuxform.polygon import CloudPoint, multiplicity

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
    return PuiseuxPoly(_sum_terms(
        ((ex + mu * l, ey - l), coeff * math.comb(ey, l) * c**l)
        for (ex, ey), coeff in p.terms.items()
        for l in range(ey + 1)
    ))


def term_product(p: PuiseuxPoly, q: PuiseuxPoly) -> PuiseuxPoly:
    """``p * q``, one ``Fraction`` product per pair of terms."""
    return PuiseuxPoly(_sum_terms(
        ((ex1 + ex2, ey1 + ey2), c1 * c2)
        for (ex1, ey1), c1 in p.terms.items()
        for (ex2, ey2), c2 in q.terms.items()
    ))


_SYMBOLS = {"+", "-", "*", "/", "^", "(", ")"}


def tokenize(text: str) -> list[tuple[str, str, int]]:
    """``(kind, text, position)`` tokens, one character at a time."""
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            start = i
            while i < len(text) and text[i].isdigit():
                i += 1
            tokens.append(("int", text[start:i], start))
        elif ch in "xy":
            tokens.append(("var", ch, i))
            i += 1
        elif ch in _SYMBOLS:
            tokens.append((ch, ch, i))
            i += 1
        else:
            raise ParseError("unexpected character %r" % ch, i)
    tokens.append(("end", "", len(text)))
    return tokens


class ProductParser(_Parser):
    """The parser with every factor of a term made a poly and multiplied in."""

    def parse_term(self) -> PuiseuxPoly:
        acc = self.parse_poly_factor()
        while self.peek() in ("*", "int", "var", "("):
            if self.peek() == "*":
                self.next()
            pos = self.here()
            factor = self.parse_poly_factor()
            t1, t2 = len(acc.grid), len(factor.grid)
            if min(t1, t2) > 1 and t1 * t2 > _MAX_TERMS:
                raise ParseError(
                    "product of a %d-term and a %d-term sum can have %d terms, "
                    "above the limit %d" % (t1, t2, t1 * t2, _MAX_TERMS), pos
                )
            self.charge(t1 * t2, pos)
            acc = acc * factor
        return acc

    def parse_poly_factor(self) -> PuiseuxPoly:
        factor = self.parse_factor()
        if isinstance(factor, PuiseuxPoly):
            return factor
        num, den, ex, ey = factor
        return _monomial(Fraction(num, den), ex, ey)


def poly_to_text(p: PuiseuxPoly) -> str:
    """The text of ``p`` from its ``Fraction`` terms, in ``items()`` order."""
    terms = []
    for (ex, ey), coeff in p.items():
        if ex.denominator != 1:
            raise ValueError("cannot render fractional exponent %s" % rat_str(ex))
        parts = (power_text("x", ex), power_text("y", ey))
        terms.append((coeff, "*".join(part for part in parts if part)))
    return signed_sum(terms)


class Balance(NamedTuple):
    found: int  # the sum of q over the branches, a conjugate pair counted once
    multiplicity: int
    decided: bool  # no branch is truncated or takes a dicritical step


def separatrix_balance(w: OneForm, result: ExpansionResult) -> Balance:
    """The branches of ``result``, each weighed by its ramification ``q`` (its
    last step's ``q_after``, 1 for ``y = 0``), against ``multiplicity(w)``.

    For even ``q`` the conjugation ``x^(1/q) -> -x^(1/q)`` maps the series
    ``sum c_t x^mu_t`` to ``sum (-1)^(mu_t q) c_t x^mu_t``, one curve branch
    of multiplicity ``q`` that the search reports twice, so the two are
    counted once.  Where every separatrix is a found branch, ``found`` equals
    the multiplicity.  The sum is undecided when a branch is truncated or takes
    a dicritical step, since the search then stands for more than it shows.
    """
    classes = {}
    for b in result.branches:
        q = b.steps[-1].q_after if b.steps else 1
        series = tuple((s.mu, s.c) for s in b.steps)
        conjugate = tuple((mu, -c if q % 2 == 0 and (mu * q).numerator % 2 else c)
                          for mu, c in series)
        classes[min(series, conjugate)] = q
    decided = all(b.exact and not any(s.dicritical for s in b.steps) for b in result.branches)
    return Balance(sum(classes.values()), multiplicity(w), decided)


def y_shifted(w: OneForm, c: RatLike, k: int) -> OneForm:
    """``w`` after ``y -> y + c*x**k``: ``a(x, y + c x^k) + k c x^(k-1) b(x, y + c x^k)``
    and ``b(x, y + c x^k)``.  For an integer ``k >= 2`` the change keeps the
    lowest-degree terms, so the y-order and the multiplicity, and a branch
    ``y = Gamma`` of ``w`` is the branch ``y = Gamma - c x^k`` of the result,
    with the same characteristic exponents."""
    a, b = binomial_shift(w.a, c, k), binomial_shift(w.b, c, k)
    return OneForm(a + term_product(PuiseuxPoly.monomial(k * Fraction(c), k - 1), b), b)
