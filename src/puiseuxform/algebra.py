"""Exact arithmetic for ramified plane polynomials and 1-forms.

Everything in this package is computed over the rationals: coefficients are
rationals, read as `fractions.Fraction` values, x-exponents are rationals and
y-exponents are nonnegative integers.  No floats appear anywhere.

A :class:`PuiseuxPoly` is a finite sum ``sum coeff * x**ex * y**ey`` stored
sparsely on an integer grid, so its arithmetic is on ints, with ``terms`` a
read-only ``Fraction`` view; a :class:`OneForm` is ``a(x, y) dx + b(x, y) dy``.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Mapping
from fractions import Fraction
from typing import Hashable, Iterable, NamedTuple, Tuple, Union

RatLike = Union[int, str, Fraction]

_ZERO = Fraction(0)


# Largest decimal exponent a rational string may give: Fraction("1e3000000")
# builds a 10-million-bit integer, so the exponent is checked before it.
_MAX_DECIMAL_EXPONENT = 1000


def _rational(value: RatLike, name: str | None = None) -> int | Fraction:
    """The one reader of a rational argument: an int or a ``Fraction`` as it is,
    a float a ``ValueError`` (it is not exact), anything else ``Fraction(value)``,
    so ``"p/q"`` strings are read exactly, and a string's decimal exponent
    above 1000 in absolute value is refused before the number is built.
    With a ``name``, every error is a ``ValueError`` that starts with it."""
    if isinstance(value, (int, Fraction)):
        return value
    try:
        if isinstance(value, float):
            raise ValueError("floats are not exact: %r" % value)
        if isinstance(value, str):
            _mantissa, e, exponent = value.lower().rpartition("e")
            try:
                too_big = bool(e) and abs(int(exponent)) > _MAX_DECIMAL_EXPONENT
            except ValueError:  # no exponent that int() reads: Fraction reports the text
                too_big = False
            if too_big:
                raise ValueError("decimal exponent %s is above the limit %d"
                                 % (exponent.strip(), _MAX_DECIMAL_EXPONENT))
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        if name is None:
            raise
        raise ValueError("%s: %s" % (name, exc)) from None


def rat_str(value: RatLike) -> str:
    """Render a rational as ``"p"`` or ``"p/q"`` (reduced; ``"0"`` for zero); a
    part past ``sys.get_int_max_str_digits()`` digits is a ``ValueError``."""
    f = _rational(value)
    try:
        if f.denominator == 1:
            return str(f.numerator)
        return "%d/%d" % (f.numerator, f.denominator)
    except ValueError:  # the interpreter's int -> str limit
        raise ValueError("cannot render a number of more than %d digits"
                         % sys.get_int_max_str_digits()) from None


def power_text(var: str, e: RatLike) -> str:
    """Render ``var**e``: ``""`` for e = 0, else ``x``, ``x^2`` or ``x^(3/2)``."""
    e = _rational(e)
    if e.denominator > 1:
        return "%s^(%s)" % (var, rat_str(e))
    return "" if e == 0 else var if e == 1 else "%s^%d" % (var, e)


def signed_sum(terms: Iterable[tuple[int | Fraction, str]]) -> str:
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
    """Sparse polynomial in x and y with rational x-exponents, on an integer grid.

    ``grid`` maps ``(ex*d, ey)`` to the nonzero int numerator of the term's
    coefficient over ``den > 0``; neither ``d`` nor the content
    ``gcd(den, *numerators)`` need be minimal.  ``terms`` is the read-only
    view ``(ex, ey) -> coeff``: ``ex`` a ``Fraction``, ``ey`` an int >= 0,
    ``coeff`` a reduced nonzero ``Fraction``.  Instances are immutable: every
    operation returns a new polynomial and none writes into a grid it is handed.
    """

    __slots__ = ("d", "den", "grid")

    def __init__(self, terms: Mapping[TermKey, RatLike] | None = None):
        """Check outside input: floats, and y-exponents that are not nonnegative
        integers, raise ``ValueError``; zero coefficients are dropped."""
        pairs = []
        for (ex, ey), coeff in (terms or {}).items():
            ex, ey, c = _rational(ex), _rational(ey), _rational(coeff)
            if ey.denominator != 1 or ey < 0:
                raise ValueError("y-exponents must be nonnegative integers: %s" % ey)
            if c:
                pairs.append(((ex, int(ey)), c))
        terms = _sum_terms(pairs)
        self.d = d = math.lcm(*(ex.denominator for ex, _ey in terms))
        self.den = den = math.lcm(*(c.denominator for c in terms.values()))
        self.grid = {(ex.numerator * (d // ex.denominator), ey):
                     c.numerator * (den // c.denominator) for (ex, ey), c in terms.items()}

    @classmethod
    def monomial(cls, coeff: RatLike, ex: RatLike = 0, ey: int = 0) -> "PuiseuxPoly":
        return cls({(ex, ey): coeff})

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> Mapping[TermKey, Fraction]:
        return _Terms(self)

    def is_zero(self) -> bool:
        return not self.grid

    def _numerator(self, n: int, q: int, ey: int) -> int | None:
        """The numerator of ``x**(n/q) * y**ey``, or ``None`` when the term is absent."""
        d = self.d
        return None if d % q else self.grid.get((n * (d // q), ey))

    def coeff(self, ex: RatLike, ey: int) -> Fraction:
        """Coefficient of ``x**ex * y**ey`` (zero when the term is absent).

        A ``"p/q"`` string finds its term; a float raises ``ValueError``.
        """
        return self.terms.get((_rational(ex), ey), _ZERO)

    def items(self) -> tuple[tuple[TermKey, Fraction], ...]:
        """Terms sorted by ``(ex, ey)`` — the deterministic iteration order."""
        return tuple(sorted(self.terms.items()))

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(value) -> "PuiseuxPoly | None":
        if isinstance(value, PuiseuxPoly):
            return value
        if isinstance(value, (int, Fraction)):
            return _monomial(Fraction(value))
        return None

    def __add__(self, other) -> "PuiseuxPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _sum(self, other)

    __radd__ = __add__

    def __neg__(self) -> "PuiseuxPoly":
        return _record(self.d, self.den, {k: -v for k, v in self.grid.items()})

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
        d = math.lcm(self.d, other.d)  # over den1 * den2: no numerator is lifted
        g1, g2 = _rescale(self.grid, d // self.d), _rescale(other.grid, d // other.d)
        return _record(d, self.den * other.den, _sum_terms(
            ((n1 + n2, ey1 + ey2), v1 * v2)
            for (n1, ey1), v1 in g1.items()
            for (n2, ey2), v2 in g2.items()
        ))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "PuiseuxPoly":
        n = int(n)
        if n < 0:
            raise ValueError("negative powers are not defined")
        result = _monomial(Fraction(1))
        # without the content gcd(den, *numerators), a term's powers hold its reduced bits
        k = math.gcd(self.den, *self.grid.values())
        base = self if k == 1 else _record(self.d, self.den // k,
                                           {key: v // k for key, v in self.grid.items()})
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
        _d, _den, g1, g2 = _to_grid(self, other)
        return g1 == g2

    def __repr__(self) -> str:
        body = ", ".join(
            "(%s, %d): %s" % (ex, ey, c) for (ex, ey), c in self.items()
        )
        return "PuiseuxPoly({%s})" % body

    # -- calculus ----------------------------------------------------------

    def diff_x(self) -> "PuiseuxPoly":
        """True derivative in x: ``x**ex`` contributes the factor ``ex``."""
        d, g = self.d, self.grid
        return _record(d, self.den * d, {(n - d, ey): v * n for (n, ey), v in g.items() if n})

    def diff_y(self) -> "PuiseuxPoly":
        return _record(self.d, self.den,
                       {(n, ey - 1): v * ey for (n, ey), v in self.grid.items() if ey})


class _Terms(Mapping):
    """The read-only ``(Fraction, int) -> Fraction`` view of a poly's grid: ``len``
    is the grid's, and a key or coefficient becomes a ``Fraction`` only when read."""

    __slots__ = ("_p",)

    def __init__(self, p: PuiseuxPoly):
        self._p = p

    def __len__(self) -> int:
        return len(self._p.grid)

    def __iter__(self):
        d = self._p.d
        return ((Fraction(n, d), ey) for n, ey in self._p.grid)

    def __getitem__(self, key) -> Fraction:
        ex, ey = key if isinstance(key, tuple) and len(key) == 2 else (None, None)
        v = (self._p._numerator(ex.numerator, ex.denominator, ey)
             if isinstance(ex, (int, Fraction)) else None)
        if v is None:
            raise KeyError(key)
        return Fraction(v, self._p.den)


def _record(d: int, den: int, grid: dict) -> PuiseuxPoly:
    """The poly of ``grid`` on ``d`` over ``den``, unvalidated; it takes ``grid`` over."""
    p = object.__new__(PuiseuxPoly)
    p.d, p.den, p.grid = d, den, grid
    return p


def _monomial(coeff: Fraction, ex: int = 0, ey: int = 0) -> PuiseuxPoly:
    """``coeff * x**ex * y**ey`` from exact parts, unvalidated; 0 gives the zero poly."""
    return _record(1, coeff.denominator, {(ex, ey): coeff.numerator} if coeff else {})


def _sum_terms(pairs: Iterable[tuple[Hashable, Fraction | int]],
               acc: dict | None = None) -> dict:
    """The sum of ``(key, coeff)`` pairs, added into ``acc``, which it takes over.

    Keys are grid keys ``(int, int)`` with nonzero int numerators, as in
    :func:`_sum` and :func:`transform_form`, or the constructor's
    ``(rational, int >= 0)`` terms with nonzero rationals; any exact
    number type sums the same way.
    """
    acc = {} if acc is None else acc
    for key, c in pairs:
        s = acc.get(key)
        if s is None:
            acc[key] = c
        elif s := s + c:
            acc[key] = s
        else:
            del acc[key]  # a sum of zero drops its term
    return acc


def _sum(*polys: PuiseuxPoly) -> PuiseuxPoly:
    """The sum of one or more polys on one grid, added into a copy of the first
    one's: a sum of n terms makes one dict, not a copy of each partial sum."""
    d, den, first, *rest = _to_grid(*polys)
    acc = dict(first)
    for g in rest:
        _sum_terms(g.items(), acc)
    return _record(d, den, acc)


class OneForm(NamedTuple):
    """The 1-form ``a(x, y) dx + b(x, y) dy``."""

    a: PuiseuxPoly
    b: PuiseuxPoly


def order(p: PuiseuxPoly):
    """Minimum of ``ex + ey`` over the terms; ``INFINITY`` for the zero poly."""
    if p.is_zero():
        return INFINITY
    return Fraction(min(n + ey * p.d for (n, ey) in p.grid), p.d)


def _rescale(grid: dict, widen: int, lift: int = 1) -> dict:
    """``grid`` with each key ``(n, ey)`` moved to ``(n*widen, ey)`` and each
    numerator times ``lift``: ``grid`` itself when both are 1."""
    if widen > 1:
        return {(n * widen, ey): v * lift for (n, ey), v in grid.items()}
    return {key: v * lift for key, v in grid.items()} if lift > 1 else grid


def _to_grid(*polys: PuiseuxPoly) -> tuple:
    """``d`` and ``den``, the lcms of the polys' own, and each poly's grid on
    them, so that sums need no gcd.  A poly already on them gives its own
    grid, which the caller must not write into."""
    d = math.lcm(*(p.d for p in polys))
    den = math.lcm(*(p.den for p in polys))
    return d, den, *[_rescale(p.grid, d // p.d, den // p.den) for p in polys]


def transform_form(w: OneForm, c: RatLike, mu: RatLike) -> OneForm:
    """The form after the coordinate change ``y -> c*x**mu + y``.

    Substituting into ``a dx + b dy`` and using ``d(c x^mu) = mu c x^(mu-1) dx``
    gives ``a' = a(x, c x^mu + y) + mu c x^(mu-1) b(x, c x^mu + y)`` and
    ``b' = b(x, c x^mu + y)``.  ``c = 0`` returns ``w``; otherwise ``mu``
    must be at least 1.  The search and the residual replay both chain it,
    and ``transform_form(OneForm(p, PuiseuxPoly()), c, mu).a`` is
    ``p(x, c x^mu + y)``, expanded binomially.

    ``a`` and ``b`` go on one grid (a form this made is on one already, so
    nothing is copied) and their content ``gcd(den, *numerators)`` is divided
    out, so a chain of calls keeps its integers small.  The grid widens to
    ``lcm(d, mu.denominator)``.  For ``c = p/q`` and ``top`` the top
    y-exponent, each row factor ``C(ey, l) * c**l`` is the int
    ``C(ey, l) * p**l * q**(top-l)``; both results share ``d`` and ``den``.
    """
    c, mu = _rational(c), _rational(mu)
    if c == 0:
        return w
    if mu < 1:
        raise ValueError("shift exponent mu must be >= 1")
    d, den, a, b = _to_grid(w.a, w.b)
    k = math.gcd(den, *a.values(), *b.values())  # 1 on a constructed poly
    if k > 1:
        den, a, b = den // k, *({key: v // k for key, v in h.items()} for h in (a, b))
    widen = math.lcm(d, mu.denominator) // d
    d, a, b = d * widen, _rescale(a, widen), _rescale(b, widen)
    step, up, scale = int(mu * d), int((mu - 1) * d), mu * c
    top = max((ey for h in (a, b) for _n, ey in h), default=0)
    p, q, m = c.numerator, c.denominator, scale.denominator
    # (c x^mu + y)^ey = sum_l C(ey, l) c^l x^(mu l) y^(ey - l), times q^top
    rows = [[(l, step * l, math.comb(ey, l) * p**l * q**(top - l)) for l in range(1, ey + 1)]
            for ey in range(top + 1)]
    lift = q**top
    a, b = (_sum_terms(  # into a copy of the input's own l = 0 terms, times q^top
        (((n + off, ey - l), v * f) for (n, ey), v in h.items() for l, off, f in rows[ey]),
        {key: v * lift for key, v in h.items()}) for h in (a, b))
    # a' = a(x, c x^mu + y) + mu c x^(mu-1) b' and b' over den q^top m
    a = _rescale(a, 1, m)
    _sum_terms((((n + up, ey), scale.numerator * v) for (n, ey), v in b.items()), a)
    den = den * lift * m
    return OneForm(_record(d, den, a), _record(d, den, _rescale(b, 1, m)))


def differential(f: PuiseuxPoly) -> OneForm:
    """``df = f_x dx + f_y dy``."""
    return OneForm(f.diff_x(), f.diff_y())

