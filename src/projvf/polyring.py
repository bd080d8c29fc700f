"""Sparse multivariate polynomials over exact rationals.

A :class:`VarContext` fixes the variables once and splits them into projective
coordinates (``x0 .. xn``) and parameter names (symbolic constants such as
``a`` or ``c``). Monomials are dense exponent tuples covering every declared
name, projective slots first. Parameters count as degree zero for
homogeneity but are otherwise ordinary commuting variables.

The single global monomial order is graded reverse lexicographic over the
full exponent tuple, with earlier-declared names larger
(``x0 > x1 > ... > xn > parameters``). Term iteration and printing always
follow it, so output is deterministic.

Polynomials are immutable values: no operation modifies its operands. The
ring operators build each result once, through the trusted constructor: they
accumulate exact coefficients into one dict, drop zero terms at the end and
never re-check a term they built themselves.

A form's value and gradient at a coordinate vertex are read off the
coefficients of its vertex monomials (``_vertex_monomials``); the ring has
no evaluation or differentiation of its own.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import add
from typing import Iterable, Mapping

from .errors import InputError

Monomial = tuple[int, ...]

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*\Z")
#: shared constants; Fractions are immutable, so one object serves every term
_ZERO = Fraction(0)
_ONE = Fraction(1)


def order_key(m: Monomial):
    """Sort key realising the global order: larger key means larger monomial."""
    return (sum(m), tuple(-e for e in reversed(m)))


@dataclass(frozen=True)
class VarContext:
    """The fixed variable universe a polynomial lives in."""

    projective: tuple[str, ...]
    parameters: tuple[str, ...] = ()

    def __post_init__(self):
        names = self.projective + self.parameters
        if len(self.projective) < 2:
            raise InputError("a variable context needs at least two projective variables")
        if len(set(names)) != len(names):
            raise InputError("variable names must be distinct")
        for name in names:
            if not _NAME_RE.match(name):
                raise InputError(f"invalid variable name: {name!r}")

    @cached_property
    def names(self) -> tuple[str, ...]:
        return self.projective + self.parameters

    @property
    def nproj(self) -> int:
        return len(self.projective)

    @cached_property
    def nvars(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise InputError(f"unknown variable {name!r}") from None

    def unit_monomial(self) -> Monomial:
        return (0,) * self.nvars

    def monomial(self, exponents: Mapping[str, int]) -> Monomial:
        exps = [0] * self.nvars
        for name, e in exponents.items():
            if e < 0:
                raise InputError(f"negative exponent for {name!r}")
            exps[self.index(name)] = e
        return tuple(exps)

    def is_projective_monomial(self, m: Monomial) -> bool:
        return all(e == 0 for e in m[self.nproj :])

    def constant(self, value) -> "Polynomial":
        c = value if isinstance(value, Fraction) else Fraction(value)
        return Polynomial._trusted(self, {self.unit_monomial(): c} if c else {})

    def zero(self) -> "Polynomial":
        return Polynomial._trusted(self, {})

    def one(self) -> "Polynomial":
        return self.constant(1)

    def variable(self, name: str) -> "Polynomial":
        return Polynomial._trusted(self, {self.monomial({name: 1}): _ONE})

    def monomial_str(self, m: Monomial) -> str:
        s = _factor_str(self, m)
        return s if s else "1"


class Polynomial:
    """Immutable sparse polynomial attached to a :class:`VarContext`."""

    __slots__ = ("context", "_terms")

    def __init__(self, context: VarContext, terms: Mapping[Monomial, Fraction]):
        width = context.nvars
        clean: dict[Monomial, Fraction] = {}
        for m, c in terms.items():
            if len(m) != width or min(m) < 0:
                raise InputError("monomial does not fit the variable context")
            if not isinstance(c, Fraction):
                c = Fraction(c)
            if c:
                clean[m] = c
        self.context = context
        self._terms = clean

    @classmethod
    def _trusted(cls, context: VarContext, terms: dict[Monomial, Fraction]) -> "Polynomial":
        """Adopt ``terms`` as is: every key a monomial of the context's width,
        every value a nonzero Fraction. Skips the checks of ``__init__``."""
        p = object.__new__(cls)
        p.context = context
        p._terms = terms
        return p

    # -- inspection ------------------------------------------------------

    def items(self) -> list[tuple[Monomial, Fraction]]:
        """Terms sorted descending in the global monomial order."""
        return sorted(self._terms.items(), key=lambda t: order_key(t[0]), reverse=True)

    def coefficient(self, m: Monomial) -> Fraction:
        """Raw coefficient of the exact monomial ``m`` (zero if absent)."""
        return self._terms.get(m, _ZERO)

    def leading_term(self) -> tuple[Monomial, Fraction]:
        if not self._terms:
            raise InputError("the zero polynomial has no leading term")
        m = max(self._terms, key=order_key)
        return m, self._terms[m]

    def is_constant(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and self.context.unit_monomial() in self._terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise InputError(f"not a constant polynomial: {self}")
        return self.coefficient(self.context.unit_monomial())

    def is_parameter_only(self) -> bool:
        nproj = self.context.nproj
        return not any(any(m[:nproj]) for m in self._terms)

    def is_parameter_free(self) -> bool:
        nproj = self.context.nproj
        return not any(any(m[nproj:]) for m in self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    # -- arithmetic ------------------------------------------------------

    def _check_context(self, other: "Polynomial"):
        if self.context != other.context:
            raise InputError("polynomials belong to different variable contexts")

    def _coerce(self, value) -> "Polynomial":
        if isinstance(value, Polynomial):
            self._check_context(value)
            return value
        if isinstance(value, (int, Fraction)):
            return self.context.constant(value)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self._terms)
        for m, c in other._terms.items():
            s = terms.get(m)
            if s is None:
                terms[m] = c
            elif s := s + c:  # only a sum of two terms can vanish
                terms[m] = s
            else:
                del terms[m]
        return Polynomial._trusted(self.context, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._trusted(self.context, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        acc: dict[Monomial, Fraction] = {}
        get = acc.get
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                m = tuple(map(add, m1, m2))
                s = get(m)
                acc[m] = c1 * c2 if s is None else s + c1 * c2
        return Polynomial._trusted(self.context, {m: c for m, c in acc.items() if c})

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise InputError("polynomial powers take nonnegative integer exponents")
        if len(self._terms) == 1:  # (c*x^m)^n = c^n * x^(n*m), every x_i^k the parser meets
            ((m, c),) = self._terms.items()
            return Polynomial._trusted(self.context, {tuple(e * n for e in m): c**n})
        result = self.context.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- comparison / display ---------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.context.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.context == other.context and self._terms == other._terms

    def __hash__(self):
        return hash((self.context, frozenset(self._terms.items())))

    def __str__(self) -> str:
        return _signed_sum((c, _factor_str(self.context, m)) for m, c in self.items())

    def __repr__(self) -> str:
        return f"Polynomial({str(self)!r})"


def _factor_str(ctx: VarContext, m: Monomial) -> str:
    names = ctx.names
    factors = []
    # parameters print first: they act as coefficients
    order = list(range(ctx.nproj, ctx.nvars)) + list(range(ctx.nproj))
    for idx in order:
        e = m[idx]
        if e == 1:
            factors.append(names[idx])
        elif e > 1:
            factors.append(f"{names[idx]}^{e}")
    return "*".join(factors)


def _signed_sum(terms: Iterable[tuple[Fraction, str]]) -> str:
    """Join nonzero (coefficient, factor text) terms, in print order, into a
    signed sum such as "-2*x0^2 + x1 - 1/2": "0" when there are none, and a
    magnitude of 1 left out before factors."""
    pieces: list[str] = []
    for c, factors in terms:
        mag = abs(c)
        if not factors:
            text = str(mag)
        elif mag == 1:
            text = factors
        else:
            text = f"{mag}*{factors}"
        if not pieces:
            pieces.append(f"-{text}" if c < 0 else text)
        else:
            pieces.append(f"- {text}" if c < 0 else f"+ {text}")
    return " ".join(pieces) if pieces else "0"


# -- operations --------------------------------------------------------------


def coefficient_of(p: Polynomial, m: Monomial) -> Polynomial:
    """Coefficient of the projective monomial ``m``, as a parameter polynomial.

    Collects every term of ``p`` whose projective part equals ``m`` and strips
    ``m`` off, leaving the parameter content.
    """
    ctx = p.context
    if len(m) != ctx.nvars:
        raise InputError("monomial does not fit the variable context")
    if not ctx.is_projective_monomial(m):
        raise InputError("coefficient extraction takes a projective monomial")
    nproj = ctx.nproj
    target = m[:nproj]
    unit = (0,) * nproj
    terms: dict[Monomial, Fraction] = {}
    for mm, c in p._terms.items():
        if mm[:nproj] == target:
            terms[unit + mm[nproj:]] = c
    return Polynomial(ctx, terms)


def monomials_of_degree(ctx: VarContext, degree: int) -> list[Monomial]:
    """All projective monomials of the given degree (parameter exponents 0),
    sorted descending in the order."""
    if degree < 0:
        raise InputError("degree must be nonnegative")
    width = ctx.nproj
    pad = (0,) * (ctx.nvars - width)
    combinations = itertools.combinations_with_replacement(range(width), degree)
    return sorted((tuple(map(c.count, range(width))) + pad for c in combinations), key=order_key, reverse=True)


def _vertex_monomials(ctx: VarContext, k: int, d: int) -> tuple[Monomial, ...]:
    """The monomials x_j*x_k^(d-1) for each projective j != k, and x_k^d in
    slot k (d >= 1).

    They read a degree-d form h at the coordinate vertex e_k off its
    coefficients: h(e_k) is the coefficient of x_k^d, and dh/dx_j(e_k) is the
    coefficient of slot j, times d when j = k.
    """
    base = (0,) * k + (d - 1,) + (0,) * (ctx.nvars - k - 1)
    return tuple(base[:j] + (base[j] + 1,) + base[j + 1 :] for j in range(ctx.nproj))
