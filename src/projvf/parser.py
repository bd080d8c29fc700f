"""One-pattern lexer and recursive-descent parser for polynomial text.

Grammar, tightest binding first:

    factor  :=  { '-' } atom [ '^' INTEGER ]
    term    :=  factor { ('*' | '/') factor }
    expr    :=  term { ('+' | '-') term }
    atom    :=  INTEGER | NAME | '(' expr ')'

Implicit multiplication is rejected, exponents must be nonnegative integer
literals of at most ``MAX_EXPONENT``, a power or a product may expand to at
most ``MAX_TERMS`` terms, no coefficient may exceed ``MAX_COEFFICIENT_BITS``
bits (checked at each power, product, quotient and sum), and '/' only accepts a
nonzero constant divisor (coefficients such as 1/2). Parentheses nest at
most ``MAX_NESTING`` deep, so the recursion stays far from Python's limit.
Every error carries the offset of the offending character.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import NamedTuple

from .errors import ParseError
from .polyring import Polynomial, VarContext

#: one token after optional whitespace (``\s`` is exactly ``str.isspace``): an
#: integer literal, which a name may not follow at once, a name, a symbol, or
#: any other character, which is an error. Digits and names are ASCII only, so
#: that ``int`` never sees another script's digits or a superscript and a
#: letter or digit of another script is an unexpected character where it stands
_TOKEN = re.compile(
    r"\s*(?:(?P<int>[0-9]+)(?P<glued>[A-Za-z_])?|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<symbol>[-+*/^()])|(?P<other>\S))"
)

#: deepest parenthesis nesting accepted (each level costs four Python frames)
MAX_NESTING = 50
#: largest exponent literal accepted; the power is checked before it is expanded
MAX_EXPONENT = 100
#: most terms a power or a product may expand to, bounded before expanding: a
#: power by the number of monomials of degree n in len(base) symbols, a
#: product by len(a) * len(b) (committed inputs reach 15)
MAX_TERMS = 1_000
#: most bits in a numerator or denominator of a parsed polynomial. Powers,
#: products and quotients are bounded before they are built, by n * bits(base)
#: and bits(a) + bits(b), since nested powers of constants would otherwise grow
#: coefficients exponentially in the text length. A sum is checked at each '+'
#: or '-' on the coefficients it changed, and the result once more. The bound
#: keeps every coefficient inside the 4,300 decimal digits that str() converts
#: (about 14,000 bits)
MAX_COEFFICIENT_BITS = 10_000


class Token(NamedTuple):
    kind: str  # "int" | "name" | one of the symbols | "end"
    text: str
    pos: int


def tokenize(text: str) -> list[Token]:
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        pos = m.start(kind)
        if kind == "glued":
            raise ParseError("implicit multiplication is not allowed (insert '*')", pos)
        if kind == "other":
            raise ParseError(f"unexpected character {m[kind]!r}", pos)
        tokens.append(Token(m[kind] if kind == "symbol" else kind, m[kind], pos))
    tokens.append(Token("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent over the tokens. Every level returns a Polynomial
    built by the ring; only ``expr`` sums in place, into one term dict."""

    def __init__(self, tokens: list[Token], ctx: VarContext):
        self.tokens = tokens
        self.ctx = ctx
        self.i = 0
        self.depth = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expr(self) -> Polynomial:
        # in place, so that a long sum stays linear in time and each '+' or
        # '-' measures only the coefficients it changed
        terms = dict(self.term()._terms)
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            negate = op.kind == "-"
            for m, c in self.term()._terms.items():
                s = terms.get(m)
                if s is None:
                    s = -c if negate else c
                else:
                    s = s - c if negate else s + c
                if not s:
                    del terms[m]
                    continue
                if _bits(s) > MAX_COEFFICIENT_BITS:
                    raise ParseError(f"a coefficient has more than {MAX_COEFFICIENT_BITS} bits", op.pos)
                terms[m] = s
        return Polynomial._trusted(self.ctx, terms)

    def term(self) -> Polynomial:
        value = self.factor()
        while self.peek().kind in ("*", "/"):
            op = self.advance()
            rhs = self.factor()
            if op.kind == "*":
                if len(value) * len(rhs) > MAX_TERMS:
                    raise ParseError(f"product may expand to more than {MAX_TERMS} terms", op.pos)
                if _coefficient_bits(value) + _coefficient_bits(rhs) > MAX_COEFFICIENT_BITS:
                    raise ParseError(f"product may build coefficients over {MAX_COEFFICIENT_BITS} bits", op.pos)
                value = value * rhs
            else:
                if not rhs.is_constant():
                    raise ParseError("division by a non-constant expression", op.pos)
                if not rhs:
                    raise ParseError("division by zero", op.pos)
                divisor = rhs.constant_value()
                if _coefficient_bits(value) + _bits(divisor) > MAX_COEFFICIENT_BITS:
                    raise ParseError(f"quotient may build coefficients over {MAX_COEFFICIENT_BITS} bits", op.pos)
                value = value * (1 / divisor)
        return value

    def factor(self) -> Polynomial:
        """{'-'} atom ['^' INTEGER]: the unary minus binds looser than '^'."""
        negate = False
        while self.peek().kind == "-":
            self.advance()
            negate = not negate
        value = self.atom()
        if self.peek().kind == "^":
            value = self.power(value)
        return -value if negate else value

    def power(self, base: Polynomial) -> Polynomial:
        caret = self.advance()
        exp = self.peek()
        if exp.kind == "-":
            raise ParseError("negative exponents are not allowed", exp.pos)
        if exp.kind != "int":
            raise ParseError("exponent must be a nonnegative integer literal", caret.pos)
        self.advance()
        n = _integer(exp)
        if n > MAX_EXPONENT:
            raise ParseError(f"exponent exceeds the maximum of {MAX_EXPONENT}", exp.pos)
        if len(base) > 1 and math.comb(len(base) + n - 1, n) > MAX_TERMS:
            raise ParseError(f"power may expand to more than {MAX_TERMS} terms", caret.pos)
        if _coefficient_bits(base) * n > MAX_COEFFICIENT_BITS:
            raise ParseError(f"power may build coefficients over {MAX_COEFFICIENT_BITS} bits", caret.pos)
        return base**n

    def atom(self) -> Polynomial:
        tok = self.advance()
        if tok.kind == "int":
            return self.ctx.constant(_integer(tok))
        if tok.kind == "name":
            if tok.text not in self.ctx.names:
                raise ParseError(f"undeclared identifier {tok.text!r}", tok.pos)
            return self.ctx.variable(tok.text)
        if tok.kind == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nest deeper than {MAX_NESTING} levels", tok.pos)
            self.depth += 1
            value = self.expr()
            self.depth -= 1
            closing = self.advance()
            if closing.kind != ")":
                raise ParseError("expected closing parenthesis", closing.pos)
            return value
        if tok.kind == "end":
            raise ParseError("unexpected end of input", tok.pos)
        raise ParseError(f"unexpected token {tok.text!r}", tok.pos)


def _bits(c: Fraction) -> int:
    """Bits in the larger of c's numerator and denominator."""
    return (abs(c.numerator) | c.denominator).bit_length()


def _coefficient_bits(p: Polynomial) -> int:
    """Bits in the largest numerator or denominator among p's coefficients
    (0 for the zero polynomial)."""
    return max(map(_bits, p._terms.values()), default=0)


def _integer(tok: Token) -> int:
    try:
        return int(tok.text)
    except ValueError:  # more digits than int() converts
        raise ParseError("integer literal is too long", tok.pos) from None


def parse_poly(text: str, ctx: VarContext) -> Polynomial:
    """Parse polynomial text against a declared variable context."""
    parser = _Parser(tokenize(text), ctx)
    value = parser.expr()
    trailing = parser.peek()
    if trailing.kind != "end":
        raise ParseError(f"unexpected token {trailing.text!r}", trailing.pos)
    # each operator measures what it builds; a literal that none measured,
    # such as a sum's first term, is measured here
    if _coefficient_bits(value) > MAX_COEFFICIENT_BITS:
        raise ParseError(f"a coefficient has more than {MAX_COEFFICIENT_BITS} bits", 0)
    return value
