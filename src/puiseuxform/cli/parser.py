"""Parse polynomial expressions like ``-3*x^2 + x*y`` into exact polynomials."""

from __future__ import annotations

import math
import re
from fractions import Fraction

from ..algebra import OneForm, PuiseuxPoly, _monomial, _sum, power_text, rat_str, signed_sum


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


# A token is a run of decimal digits (of any script: the ones int() reads, and
# not superscripts, which str.isdigit() accepts) or any other non-space
# character; whitespace matches nothing, so finditer skips it.
_TOKEN = re.compile(r"\d+|\S")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for m in _TOKEN.finditer(text):
        tok = m.group()
        if tok.isdecimal():
            kind = "int"
        elif tok in "xy":
            kind = "var"
        elif tok in _SYMBOLS:
            kind = tok
        else:
            raise ParseError("unexpected character %r" % tok, m.start())
        tokens.append((kind, tok, m.start()))
    tokens.append(("end", "", len(text)))
    return tokens


# A monomial ``num/den * x**ex * y**ey`` of a term, kept as ints.
Monomial = tuple[int, int, int, int]


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

    def integer(self) -> int:
        _kind, digits, pos = self.expect("int")
        try:
            return int(digits)
        except ValueError:  # longer than the interpreter's str -> int limit
            raise ParseError("integer literal of %d digits is too long" % len(digits),
                             pos) from None

    def parse_expr(self) -> PuiseuxPoly:
        terms = []
        sign = -1 if self.peek() == "-" else 1
        if self.peek() in ("+", "-"):
            self.next()
        while True:
            terms.append(self.parse_term() if sign > 0 else -self.parse_term())
            if self.peek() not in ("+", "-"):
                return _sum(*terms)
            sign = -1 if self.next()[0] == "-" else 1

    def parse_term(self) -> PuiseuxPoly:
        """A product of factors.  Its number and variable factors multiply into
        one monomial; only a parenthesized factor makes a poly product, and
        none once the product is zero.  Each product after the first factor is
        charged ``t1 * t2``, the term counts of the product so far and of the
        factor (1 for a nonzero monomial)."""
        num, den, ex, ey = 1, 1, 0, 0
        poly = None  # the product of the parenthesized factors
        factor = self.parse_factor()
        while True:
            if isinstance(factor, tuple):
                f_num, f_den, f_ex, f_ey = factor
                num, den, ex, ey = num * f_num, den * f_den, ex + f_ex, ey + f_ey
            elif num:  # a product charged 0 must cost nothing
                poly = factor if poly is None else poly * factor
            if self.peek() not in ("*", "int", "var", "("):
                break
            if self.peek() == "*":
                self.next()
            pos = self.here()
            # a nonzero monomial factor moves terms but never merges them
            t1 = (1 if poly is None else len(poly.grid)) if num else 0
            factor = self.parse_factor()
            t2 = (1 if factor[0] else 0) if isinstance(factor, tuple) else len(factor.grid)
            if min(t1, t2) > 1 and t1 * t2 > _MAX_TERMS:
                raise ParseError(
                    "product of a %d-term and a %d-term sum can have %d terms, "
                    "above the limit %d" % (t1, t2, t1 * t2, _MAX_TERMS), pos
                )
            self.charge(t1 * t2, pos)
        monomial = _monomial(Fraction(num, den), ex, ey)
        return monomial if poly is None or not num else poly * monomial

    def parse_factor(self) -> Monomial | PuiseuxPoly:
        kind = self.peek()
        if kind == "int":
            num = self.integer()
            if self.peek() != "/":
                return (num, 1, 0, 0)
            self.next()
            pos = self.here()
            den = self.integer()
            if den == 0:
                raise ParseError("zero denominator", pos)
            return (num, den, 0, 0)
        if kind == "var":
            var = self.next()[1]
            exp = self.parse_exponent()
            return (1, 1, exp, 0) if var == "x" else (1, 1, 0, exp)
        if kind == "(":
            if self.depth == _MAX_NESTING:
                raise ParseError("parentheses nested deeper than %d" % _MAX_NESTING,
                                 self.here())
            self.next()
            self.depth += 1
            inner = self.parse_expr()
            self.expect(")")
            self.depth -= 1
            if self.peek() != "^":  # not a power: no product, limit or charge
                return inner
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
            # a coefficient v/den has the bits of its larger reduced part, and
            # ceil(log2 |u|) is (|u| - 1).bit_length(): 1 stays 1 under any power
            den = inner.den
            bits = exp * max(((max(abs(v), den) // math.gcd(v, den) - 1).bit_length()
                              for v in inner.grid.values()), default=0)
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
        return self.integer()


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
    if (0, 0) in a.grid or (0, 0) in b.grid:
        raise FormError("form is not singular at the origin (constant term present)")
    return OneForm(a, b)


def poly_to_text(p: PuiseuxPoly) -> str:
    """Deterministic rendering; ``parse_poly`` inverts it."""
    d, den = p.d, p.den
    terms = []
    for (n, ey), v in sorted(p.grid.items()):
        if n % d:
            raise ValueError("cannot render fractional exponent %s" % rat_str(Fraction(n, d)))
        parts = (power_text("x", n // d), power_text("y", ey))
        coeff = v // den if v % den == 0 else Fraction(v, den)
        terms.append((coeff, "*".join(part for part in parts if part)))
    return signed_sum(terms)
