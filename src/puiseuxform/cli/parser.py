"""Parse polynomial expressions like ``-3*x^2 + x*y`` into exact polynomials."""

from __future__ import annotations

import math
from fractions import Fraction

from ..algebra import (
    OneForm, PuiseuxPoly, _monomial, _record, _sum_terms, _to_grid, power_text, rat_str,
    signed_sum,
)


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__("%s (at position %d)" % (message, pos))
        self.pos = pos


class FormError(ValueError):
    pass


_SYMBOLS = {"+", "-", "*", "/", "^", "(", ")"}

_MAX_NESTING = 200  # three stack frames a level: well below the recursion limit
# Expanding a power of a sum costs more than linear time in the exponent;
# a power of a single term costs only the bits of its coefficient.
_MAX_POWER = 32
# Most terms a power of a sum or a product of two sums may have, counted
# before multiplying: (x+y+1)^32 has 561.
_MAX_TERMS = 1000
# Most term products one parse may make over all its products and powers:
# (x+y+1)^32 makes at most 26265, so two of them are refused.
_MAX_WORK = 50000
# Most bits a power may give a coefficient: (2*x)^1000 needs 1000.
_MAX_BITS = 1000


def _power_work(t: int, n: int) -> int:
    """Most term products ``p ** n`` makes for a ``t``-term sum ``p``.

    It squares and multiplies as ``PuiseuxPoly.__pow__`` does, and
    ``p ** k`` has at most ``comb(t + k - 1, k)`` terms.
    """
    work, have, k = 0, 0, 1  # the result is p ** have, the base p ** k
    while n:
        if n & 1:
            work += math.comb(t + have - 1, have) * math.comb(t + k - 1, k)
            have += k
        n >>= 1
        if n:
            work += math.comb(t + k - 1, k) ** 2
            k *= 2
    return work


def _tokenize(text: str) -> list[tuple[str, str, int]]:
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


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0  # parentheses currently open
        self.work = 0  # term products charged so far

    def charge(self, work: int, pos: int) -> None:
        self.work += work
        if self.work > _MAX_WORK:
            raise ParseError(
                "expanding the input takes %d term products, above the limit %d"
                % (self.work, _MAX_WORK), pos
            )

    def peek(self) -> str:
        return self.tokens[self.pos][0]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def here(self) -> int:
        return self.tokens[self.pos][2]

    def expect(self, kind: str) -> tuple[str, str, int]:
        if self.peek() != kind:
            raise ParseError(
                "expected %r, found %r" % (kind, self.tokens[self.pos][1] or "end"),
                self.here(),
            )
        return self.next()

    def parse_expr(self) -> PuiseuxPoly:
        # one dict sums the terms: adding each term to a polynomial copies
        # the polynomial, so a sum of n terms took time quadratic in n
        terms = []
        sign = -1 if self.peek() == "-" else 1
        if self.peek() in ("+", "-"):
            self.next()
        while True:
            terms.append(self.parse_term() if sign > 0 else -self.parse_term())
            if self.peek() not in ("+", "-"):
                d, den, *grids = _to_grid(*terms)
                return _record(d, den, _sum_terms(kv for g in grids for kv in g.items()))
            sign = -1 if self.next()[0] == "-" else 1

    def parse_term(self) -> PuiseuxPoly:
        acc = self.parse_factor()
        while self.peek() in ("*", "int", "var", "("):
            if self.peek() == "*":
                self.next()
            pos = self.here()
            factor = self.parse_factor()
            t1, t2 = len(acc.grid), len(factor.grid)
            if min(t1, t2) > 1 and t1 * t2 > _MAX_TERMS:
                raise ParseError(
                    "product of a %d-term and a %d-term sum can have %d terms, "
                    "above the limit %d" % (t1, t2, t1 * t2, _MAX_TERMS), pos
                )
            self.charge(t1 * t2, pos)
            acc = acc * factor
        return acc

    def parse_factor(self) -> PuiseuxPoly:
        kind = self.peek()
        if kind == "int":
            num = int(self.next()[1])
            if self.peek() == "/":
                self.next()
                pos = self.here()
                den = int(self.expect("int")[1])
                if den == 0:
                    raise ParseError("zero denominator", pos)
                return _monomial(Fraction(num, den))
            return _monomial(Fraction(num))
        if kind == "var":
            var = self.next()[1]
            exp = self.parse_exponent()
            return _monomial(Fraction(1), exp if var == "x" else 0, exp if var == "y" else 0)
        if kind == "(":
            if self.depth == _MAX_NESTING:
                raise ParseError("parentheses nested deeper than %d" % _MAX_NESTING,
                                 self.here())
            self.next()
            self.depth += 1
            inner = self.parse_expr()
            self.expect(")")
            self.depth -= 1
            pos = self.here()
            exp = self.parse_exponent()
            t = len(inner.grid)
            if exp > _MAX_POWER and t > 1:
                raise ParseError(
                    "power %d of a sum is above the limit %d" % (exp, _MAX_POWER), pos
                )
            bound = math.comb(t + exp - 1, exp)
            if t > 1 and bound > _MAX_TERMS:
                raise ParseError(
                    "power %d of a %d-term sum can have %d terms, above the limit %d"
                    % (exp, t, bound, _MAX_TERMS), pos
                )
            # ceil(log2 |v|) is (|v| - 1).bit_length(), so a coefficient
            # of absolute value 1 stays 1 under any power
            bits = exp * max(
                ((abs(v) - 1).bit_length() for c in inner.terms.values()
                 for v in (c.numerator, c.denominator)), default=0)
            if bits > _MAX_BITS:
                raise ParseError(
                    "power %d can give a coefficient of %d bits, above the limit %d"
                    % (exp, bits, _MAX_BITS), pos
                )
            if t > 1:
                self.charge(_power_work(t, exp), pos)
            return inner ** exp
        raise ParseError(
            "expected a number, variable or '(', found %r"
            % (self.tokens[self.pos][1] or "end"),
            self.here(),
        )

    def parse_exponent(self) -> int:
        if self.peek() != "^":
            return 1
        self.next()
        return int(self.expect("int")[1])


def parse_poly(text: str) -> PuiseuxPoly:
    parser = _Parser(text)
    poly = parser.parse_expr()
    if parser.peek() != "end":
        raise ParseError(
            "unexpected %r" % parser.tokens[parser.pos][1], parser.here()
        )
    return poly


def parse_form(a_text: str, b_text: str) -> OneForm:
    a = parse_poly(a_text)
    b = parse_poly(b_text)
    if a.is_zero() and b.is_zero():
        raise FormError("both coefficients are zero")
    if a.coeff(0, 0) != 0 or b.coeff(0, 0) != 0:
        raise FormError("form is not singular at the origin (constant term present)")
    return OneForm(a, b)


def poly_to_text(p: PuiseuxPoly) -> str:
    """Deterministic rendering; ``parse_poly`` inverts it."""
    terms = []
    for (ex, ey), coeff in p.items():
        if ex.denominator != 1:
            raise ValueError("cannot render fractional exponent %s" % rat_str(ex))
        parts = (power_text("x", ex), power_text("y", ey))
        terms.append((coeff, "*".join(part for part in parts if part)))
    return signed_sum(terms)
