"""Exact arithmetic for ramified plane polynomials and 1-forms.

Everything in this package is computed over the rationals: coefficients are
`fractions.Fraction` values, x-exponents are rationals and y-exponents are
nonnegative integers.  No floats appear anywhere.

A :class:`PuiseuxPoly` is a finite sum ``sum coeff * x**ex * y**ey`` stored
sparsely; a :class:`OneForm` is ``a(x, y) dx + b(x, y) dy``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Tuple, Union

RatLike = Union[int, str, Fraction]

_ZERO = Fraction(0)


def rat_str(value: RatLike) -> str:
    """Render a rational as ``"p"`` or ``"p/q"`` (reduced; ``"0"`` for zero)."""
    f = Fraction(value)
    if f.denominator == 1:
        return str(f.numerator)
    return "%d/%d" % (f.numerator, f.denominator)


def power_text(var: str, e: RatLike) -> str:
    """Render ``var**e``: ``""`` for e = 0, else ``x``, ``x^2`` or ``x^(3/2)``."""
    e = Fraction(e)
    if e.denominator > 1:
        return "%s^(%s)" % (var, rat_str(e))
    return "" if e == 0 else var if e == 1 else "%s^%d" % (var, e)


def signed_sum(terms: Iterable[tuple[Fraction, str]]) -> str:
    """Render ``(coeff, monomial_text)`` pairs as a sum, e.g. ``3*c^2 - 3``.

    A unit coefficient is dropped before a monomial; an empty monomial
    text stands for 1.  No terms render as ``"0"``.
    """
    chunks = []
    for coeff, mono in terms:
        mag = abs(coeff)
        if not mono:
            body = rat_str(mag)
        elif mag == 1:
            body = mono
        else:
            body = "%s*%s" % (rat_str(mag), mono)
        if not chunks:
            chunks.append(body if coeff > 0 else "-" + body)
        else:
            chunks.append((" + " if coeff > 0 else " - ") + body)
    return "".join(chunks) or "0"


class _Infinity:
    """Valuation sentinel strictly greater than every rational.

    Deliberately not a float, so it can never leak into arithmetic.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return "infinity"

    def __lt__(self, other) -> bool:
        return False

    def __le__(self, other) -> bool:
        return other is self

    def __gt__(self, other) -> bool:
        return other is not self

    def __ge__(self, other) -> bool:
        return True


INFINITY = _Infinity()

TermKey = Tuple[Fraction, int]


class PuiseuxPoly:
    """Sparse polynomial in x and y with rational x-exponents.

    ``terms`` maps ``(ex, ey)`` to a nonzero rational coefficient; the zero
    polynomial has no terms.  ``ex`` is rational and ``ey`` is a
    nonnegative integer.  Instances are treated as immutable: all
    operations return new polynomials.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[TermKey, RatLike] | None = None):
        clean: dict[TermKey, Fraction] = {}
        if terms:
            for (ex, ey), coeff in terms.items():
                ex = Fraction(ex)
                ey = int(ey)
                if ey < 0:
                    raise ValueError("y-exponents must be nonnegative")
                c = Fraction(coeff)
                if c == 0:
                    continue
                clean[(ex, ey)] = c
        self.terms = clean

    @classmethod
    def monomial(cls, coeff: RatLike, ex: RatLike = 0, ey: int = 0) -> "PuiseuxPoly":
        return cls({(Fraction(ex), int(ey)): Fraction(coeff)})

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, ex: RatLike, ey: int) -> Fraction:
        """Coefficient of ``x**ex * y**ey`` (zero when the term is absent)."""
        return self.terms.get((Fraction(ex), int(ey)), _ZERO)

    def items(self) -> tuple[tuple[TermKey, Fraction], ...]:
        """Terms sorted by ``(ex, ey)`` — the deterministic iteration order."""
        return tuple(sorted(self.terms.items()))

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(value) -> "PuiseuxPoly | None":
        if isinstance(value, PuiseuxPoly):
            return value
        if isinstance(value, (int, Fraction)):
            return PuiseuxPoly.monomial(value)
        return None

    def __add__(self, other) -> "PuiseuxPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        acc = dict(self.terms)
        for key, c in other.terms.items():
            s = acc.get(key, _ZERO) + c
            if s:
                acc[key] = s
            else:
                acc.pop(key, None)
        return PuiseuxPoly(acc)

    __radd__ = __add__

    def __neg__(self) -> "PuiseuxPoly":
        return PuiseuxPoly({k: -c for k, c in self.terms.items()})

    def __sub__(self, other) -> "PuiseuxPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "PuiseuxPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "PuiseuxPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        acc: dict[TermKey, Fraction] = {}
        for (ex1, ey1), c1 in self.terms.items():
            for (ex2, ey2), c2 in other.terms.items():
                key = (ex1 + ex2, ey1 + ey2)
                s = acc.get(key, _ZERO) + c1 * c2
                if s:
                    acc[key] = s
                else:
                    acc.pop(key, None)
        return PuiseuxPoly(acc)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "PuiseuxPoly":
        n = int(n)
        if n < 0:
            raise ValueError("negative powers are not defined")
        result = PuiseuxPoly.monomial(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self) -> str:
        body = ", ".join(
            "(%s, %d): %s" % (ex, ey, c) for (ex, ey), c in self.items()
        )
        return "PuiseuxPoly({%s})" % body

    # -- calculus ----------------------------------------------------------

    def diff_x(self) -> "PuiseuxPoly":
        """True derivative in x: ``x**ex`` contributes the factor ``ex``."""
        acc = {
            (ex - 1, ey): c * ex
            for (ex, ey), c in self.terms.items()
            if ex != 0
        }
        return PuiseuxPoly(acc)

    def diff_y(self) -> "PuiseuxPoly":
        acc = {
            (ex, ey - 1): c * ey
            for (ex, ey), c in self.terms.items()
            if ey != 0
        }
        return PuiseuxPoly(acc)


class OneForm(NamedTuple):
    """The 1-form ``a(x, y) dx + b(x, y) dy``."""

    a: PuiseuxPoly
    b: PuiseuxPoly


def order(p: PuiseuxPoly):
    """Minimum of ``ex + ey`` over the terms; ``INFINITY`` for the zero poly."""
    if p.is_zero():
        return INFINITY
    return min(ex + ey for (ex, ey) in p.terms)


def substitute_shift(p: PuiseuxPoly, c: RatLike, mu: RatLike) -> PuiseuxPoly:
    """``p(x, c*x**mu + y)``, expanded binomially, exactly.

    ``mu`` must be at least 1.  ``c = 0`` returns ``p`` unchanged.
    """
    c = Fraction(c)
    mu = Fraction(mu)
    if mu < 1:
        raise ValueError("shift exponent mu must be >= 1")
    if c == 0:
        return p
    acc: dict[TermKey, Fraction] = {}
    for (ex, ey), coeff in p.terms.items():
        # (c x^mu + y)^ey = sum_l C(ey, l) c^l x^(mu l) y^(ey - l)
        for l in range(ey + 1):
            key = (ex + mu * l, ey - l)
            s = acc.get(key, _ZERO) + coeff * math.comb(ey, l) * c**l
            if s:
                acc[key] = s
            else:
                acc.pop(key, None)
    return PuiseuxPoly(acc)


def transform_form(w: OneForm, c: RatLike, mu: RatLike) -> OneForm:
    """The form after the coordinate change ``y -> c*x**mu + y``.

    Substituting into ``a dx + b dy`` and using ``d(c x^mu) = mu c x^(mu-1) dx``
    gives ``a' = a(x, c x^mu + y) + mu c x^(mu-1) b(x, c x^mu + y)`` and
    ``b' = b(x, c x^mu + y)``.
    """
    c = Fraction(c)
    mu = Fraction(mu)
    if c == 0:
        return w
    a2 = substitute_shift(w.a, c, mu)
    b2 = substitute_shift(w.b, c, mu)
    dshift = PuiseuxPoly.monomial(mu * c, mu - 1)
    return OneForm(a2 + b2 * dshift, b2)


def differential(f: PuiseuxPoly) -> OneForm:
    """``df = f_x dx + f_y dy``."""
    return OneForm(f.diff_x(), f.diff_y())

