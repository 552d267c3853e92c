"""Parse polynomial expressions like ``-3*x^2 + x*y`` into exact polynomials."""

from __future__ import annotations

from fractions import Fraction

from ..algebra import OneForm, PuiseuxPoly, rat_str, signed_sum


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__("%s (at position %d)" % (message, pos))
        self.pos = pos


class FormError(ValueError):
    pass


_SYMBOLS = {"+", "-", "*", "/", "^", "(", ")"}


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
        acc = PuiseuxPoly.zero()
        sign = Fraction(1)
        if self.peek() in ("+", "-"):
            sign = Fraction(-1) if self.next()[0] == "-" else Fraction(1)
        acc = acc + sign * self.parse_term()
        while self.peek() in ("+", "-"):
            sign = Fraction(-1) if self.next()[0] == "-" else Fraction(1)
            acc = acc + sign * self.parse_term()
        return acc

    def parse_term(self) -> PuiseuxPoly:
        acc = self.parse_factor()
        while True:
            kind = self.peek()
            if kind == "*":
                self.next()
                acc = acc * self.parse_factor()
            elif kind in ("int", "var", "("):
                acc = acc * self.parse_factor()
            else:
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
                return PuiseuxPoly.const(Fraction(num, den))
            return PuiseuxPoly.const(num)
        if kind == "var":
            var = self.next()[1]
            exp = self.parse_exponent()
            return PuiseuxPoly.monomial(1, exp if var == "x" else 0, exp if var == "y" else 0)
        if kind == "(":
            self.next()
            inner = self.parse_expr()
            self.expect(")")
            return inner ** self.parse_exponent()
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
        parts = []
        if ex != 0:
            parts.append("x" if ex == 1 else "x^%d" % ex)
        if ey != 0:
            parts.append("y" if ey == 1 else "y^%d" % ey)
        terms.append((coeff, "*".join(parts)))
    return signed_sum(terms)
