"""Polynomial ideals: Buchberger's algorithm, membership, smoothness, zero loci.

The Groebner layer works over the plain rationals: generators must be free of
parameter variables. Pair selection is the normal strategy (minimal lcm
degree first) with both classical pair-skipping criteria; the output is the
unique reduced basis for the global graded reverse lexicographic order, so
re-running on permuted generators reproduces it verbatim.

Radical membership goes through the standard ring extension by a fresh
variable appended after all existing ones: f lies in the radical of I exactly
when 1 lies in I + (1 - t*f). The extension variable never leaks into output.
Smoothness does not use radical membership: one Groebner basis decides it.

Inside the engine every polynomial has primitive integer coefficients:
generators are cleared of denominators on entry, each new basis element is
stored with its content divided out and a positive leading coefficient, and
Fractions reappear only when the reduced basis is made monic (and in the
one rational scale factor that :func:`normal_form` applies to its result).
Reduction is fraction-free: to cancel a leading coefficient c with a divisor
whose leading coefficient is l, the running polynomial is scaled by
l/gcd(c, l). It works on one mutable term dict of the running polynomial
plus a heap of its monomials for the leading term; a step touches only the
divisor's terms. Results are wrapped with the trusted constructor
(``Polynomial._trusted``), since they are clean by construction. The divisor
is always the first basis element whose leading monomial divides the current
leading term, so every remainder is a nonzero multiple of the one textbook
division over Q gives, after the same sequence of steps.

Every reduction step draws one unit from a step budget (default generous);
exhausting it raises :class:`ResourceLimitError` rather than truncating
silently.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, le, sub
from typing import Iterable, Sequence

from .derivations import Derivation
from .errors import DEFAULT_MAX_STEPS, InputError, ResourceLimitError
from .polyring import (
    Monomial,
    Polynomial,
    VarContext,
    homogeneous_degree,
    order_key,
    partial_derivative,
)


class _Budget:
    __slots__ = ("remaining",)

    def __init__(self, limit: int):
        self.remaining = limit

    def spend(self, n: int = 1):
        self.remaining -= n
        if self.remaining < 0:
            raise ResourceLimitError("computation exceeded the configured step budget")


@dataclass(frozen=True)
class Ideal:
    """Finitely generated ideal; the zero ideal is the empty generator tuple."""

    context: VarContext
    generators: tuple[Polynomial, ...]

    def __post_init__(self):
        for g in self.generators:
            if g.context != self.context:
                raise InputError("ideal generators belong to different variable contexts")
            if not g:
                raise InputError("ideal generators must be nonzero (the zero ideal is the empty tuple)")

    @classmethod
    def spanned_by(cls, context: VarContext, generators: Iterable[Polynomial]) -> "Ideal":
        """Build an ideal, silently dropping zero generators."""
        return cls(context, tuple(g for g in generators if g))

    def is_zero(self) -> bool:
        return not self.generators


@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced Groebner basis for the global order; unique for the ideal."""

    context: VarContext
    basis: tuple[Polynomial, ...]
    order: str = "grevlex"

    def contains_one(self) -> bool:
        return len(self.basis) == 1 and self.basis[0] == self.context.one()


def _lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(max, a, b))


def _divides(a: Monomial, b: Monomial) -> bool:
    return all(map(le, a, b))


def _coprime(a: Monomial, b: Monomial) -> bool:
    return all(x == 0 or y == 0 for x, y in zip(a, b))


def _sub(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(sub, a, b))


def _add_scaled(terms: dict, addend, shift: Monomial, q) -> list[Monomial]:
    """terms += q * x^shift * addend in place, over int or Fraction values;
    returns the monomials it created."""
    created = []
    for m, c in addend:
        t = tuple(map(add, m, shift))
        d = c * q
        v = terms.get(t)
        if v is None:
            terms[t] = d
            created.append(t)
        else:
            v += d
            if v:
                terms[t] = v
            else:
                del terms[t]
    return created


def _primitive(p: Polynomial) -> Polynomial:
    """The primitive integer multiple of nonzero p (int or Fraction values):
    coprime integer coefficients and a positive leading coefficient."""
    den = math.lcm(*(c.denominator for c in p._terms.values()))
    ints = {m: c.numerator * (den // c.denominator) for m, c in p._terms.items()}
    content = math.gcd(*ints.values())
    if p.leading_term()[1] < 0:
        content = -content
    return Polynomial._trusted(p.context, {m: c // content for m, c in ints.items()})


def _monic(p: Polynomial) -> Polynomial:
    """The integer polynomial p divided by its leading coefficient, over Q."""
    lc = p.leading_term()[1]
    return Polynomial._trusted(p.context, {m: Fraction(c, lc) for m, c in p._terms.items()})


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """u * x^a * f - v * x^b * g, where x^a lm(f) = x^b lm(g) = lcm(lm(f), lm(g))
    and u lc(f) = v lc(g), so that the leading terms cancel.

    Over Q, u = 1/lc(f) and v = 1/lc(g): the classical S-polynomial. On the
    engine's integer polynomials, u and v are the least positive integers that
    cancel, so the result stays integral.
    """
    mf, cf = f.leading_term()
    mg, cg = g.leading_term()
    if type(cf) is int:
        d = math.gcd(cf, cg)
        u, v = cg // d, cf // d
    else:
        u, v = 1 / cf, 1 / cg
    lcm = _lcm(mf, mg)
    terms: dict = {}
    _add_scaled(terms, f._terms.items(), _sub(lcm, mf), u)
    _add_scaled(terms, g._terms.items(), _sub(lcm, mg), -v)
    return Polynomial._trusted(f.context, terms)


def _row(g: Polynomial) -> tuple:
    """The reduction row of g: leading monomial, leading coefficient, other terms."""
    lm, lc = g.leading_term()
    return lm, lc, [(m, c) for m, c in g._terms.items() if m != lm]


def _reduce(f: Polynomial, rows: Sequence[tuple], budget: _Budget) -> tuple[Polynomial, int]:
    """Fraction-free full normal form of the integer polynomial f against the
    rows of primitive integer polynomials.

    Returns (r, u) with r = u * NF(f) an integer polynomial and u a positive
    integer. The running polynomial is one mutable term dict; a heap of its
    monomials (entries of cancelled terms are skipped when popped) yields its
    leading term c x^m. Each step spends one budget unit and either moves that
    term to the remainder or cancels it with the first row (lm, lc, tail)
    whose lm divides m: with d = gcd(c, lc), the running dict and the
    remainder are scaled by lc/d when that is not 1, and -(c/d) x^(m-lm) tail
    is added, touching only that row's other terms.
    """
    p = dict(f._terms)
    # (-degree, reversed exponents) orders monomials opposite to order_key,
    # so the min-heap pops the largest monomial first
    heap = [(-sum(m), m[::-1], m) for m in p]
    heapq.heapify(heap)
    remainder: dict[Monomial, int] = {}
    scale = 1
    while heap:
        m = heapq.heappop(heap)[2]
        c = p.pop(m, None)
        if c is None:
            continue
        budget.spend()
        for lm, lc, tail in rows:
            if all(map(le, lm, m)):
                d = math.gcd(c, lc)
                u = lc // d
                if u != 1:
                    scale *= u
                    p = {t: v * u for t, v in p.items()}
                    remainder = {t: v * u for t, v in remainder.items()}
                for t in _add_scaled(p, tail, _sub(m, lm), -(c // d)):
                    heapq.heappush(heap, (-sum(t), t[::-1], t))
                break
        else:
            remainder[m] = c
    return Polynomial._trusted(f.context, remainder), scale


def _groebner(generators: Sequence[Polynomial], context: VarContext, budget: _Budget) -> list[Polynomial]:
    """Reduced Groebner basis of arbitrary (possibly zero) generators.

    The basis under construction holds primitive integer polynomials; only
    the returned basis is over Q, made monic.
    """
    basis = [_primitive(g) for g in generators if g]
    if not basis:
        return []
    rows = [_row(g) for g in basis]

    heap: list[tuple[int, tuple, int, int]] = []
    pending: set[tuple[int, int]] = set()

    def push(i: int, j: int):
        lcm = _lcm(rows[i][0], rows[j][0])
        heapq.heappush(heap, (sum(lcm), order_key(lcm), i, j))
        pending.add((i, j))

    for j in range(len(basis)):
        for i in range(j):
            push(i, j)

    while heap:
        _, _, i, j = heapq.heappop(heap)
        if (i, j) not in pending:
            continue
        pending.discard((i, j))
        lti = rows[i][0]
        ltj = rows[j][0]
        if _coprime(lti, ltj):
            continue
        lcm = _lcm(lti, ltj)
        skip = False
        for k, (ltk, _, _) in enumerate(rows):
            if k in (i, j):
                continue
            if not _divides(ltk, lcm):
                continue
            pik = (min(i, k), max(i, k))
            pjk = (min(j, k), max(j, k))
            if pik not in pending and pjk not in pending:
                skip = True
                break
        if skip:
            continue
        remainder = _reduce(s_polynomial(basis[i], basis[j]), rows, budget)[0]
        if remainder:
            basis.append(_primitive(remainder))
            rows.append(_row(basis[-1]))
            new = len(basis) - 1
            for k in range(new):
                push(k, new)

    # minimalise: drop elements whose leading term another element divides
    minimal: list[int] = []
    for i, (lt, _, _) in enumerate(rows):
        redundant = False
        for k, (lo, _, _) in enumerate(rows):
            if k == i:
                continue
            if _divides(lo, lt) and (lo != lt or k < i):
                redundant = True
                break
        if not redundant:
            minimal.append(i)

    # inter-reduce tails for the unique reduced basis
    reduced: list[Polynomial] = []
    for i in minimal:
        others = [rows[k] for k in minimal if k != i]
        reduced.append(_monic(_reduce(basis[i], others, budget)[0] if others else basis[i]))
    reduced.sort(key=lambda p: order_key(p.leading_term()[0]), reverse=True)
    return reduced


def _require_parameter_free(polys: Iterable[Polynomial], what: str):
    for p in polys:
        if not p.is_parameter_free():
            raise InputError(f"{what} must be free of parameter variables: {p}")


def buchberger(I: Ideal, max_steps: int = DEFAULT_MAX_STEPS) -> GroebnerBasis:
    """The unique reduced Groebner basis of I for the global order."""
    _require_parameter_free(I.generators, "Groebner basis generators")
    basis = _groebner(I.generators, I.context, _Budget(max_steps))
    return GroebnerBasis(context=I.context, basis=tuple(basis))


def normal_form(f: Polynomial, G: GroebnerBasis, max_steps: int = DEFAULT_MAX_STEPS) -> Polynomial:
    """Unique remainder of multivariate division by G; zero iff f lies in the ideal."""
    if f.context != G.context:
        raise InputError("polynomial and basis belong to different variable contexts")
    if not G.basis or not f:
        return f
    prim = _primitive(f)
    r, scale = _reduce(prim, [_row(_primitive(g)) for g in G.basis], _Budget(max_steps))
    # f = (lc(f) / lc(prim)) * prim and r = scale * NF(prim)
    k = f.leading_term()[1] / (prim.leading_term()[1] * scale)
    return Polynomial._trusted(f.context, {m: c * k for m, c in r._terms.items()})


def ideal_member(f: Polynomial, I: Ideal, max_steps: int = DEFAULT_MAX_STEPS) -> bool:
    return not normal_form(f, buchberger(I, max_steps), max_steps)


def _fresh_name(ctx: VarContext) -> str:
    name = "t"
    while name in ctx.names:
        name += "_"
    return name


def _append_variable(ctx: VarContext, name: str) -> VarContext:
    return VarContext(projective=ctx.projective, parameters=ctx.parameters + (name,))


def _lift(p: Polynomial, ctx_ext: VarContext) -> Polynomial:
    return Polynomial(ctx_ext, {m + (0,): c for m, c in p._terms.items()})


def radical_member(f: Polynomial, I: Ideal, max_steps: int = DEFAULT_MAX_STEPS) -> bool:
    """Decide f in sqrt(I) by the ring-extension membership test: 1 in I + (1 - t*f)."""
    if f.context != I.context:
        raise InputError("polynomial and ideal belong to different variable contexts")
    _require_parameter_free(I.generators, "radical membership generators")
    _require_parameter_free([f], "radical membership query")
    if not f:
        return True
    if I.is_zero():
        return False
    ctx_ext = _append_variable(I.context, _fresh_name(I.context))
    t = ctx_ext.variable(ctx_ext.parameters[-1])
    gens = [_lift(g, ctx_ext) for g in I.generators]
    gens.append(ctx_ext.one() - t * _lift(f, ctx_ext))
    basis = _groebner(gens, ctx_ext, _Budget(max_steps))
    return len(basis) == 1 and basis[0] == ctx_ext.one()


def is_smooth_projective(h: Polynomial, max_steps: int = DEFAULT_MAX_STEPS) -> bool:
    """Gradient criterion for smoothness of the hypersurface h = 0, from one basis.

    Smooth exactly when J = (h, dh/dx_0, ..., dh/dx_n) has no projective zero,
    i.e. every x_i lies in sqrt(J). x_i in sqrt(J) <=> x_i^k in J <=> some
    leading monomial of the reduced basis divides x_i^k: a pure power of x_i,
    or the unit monomial when the basis is {1} (a hyperplane).
    """
    _require_parameter_free([h], "smoothness input")
    deg = homogeneous_degree(h)
    if deg == "any" or deg is None or deg < 1:
        raise InputError("smoothness is defined for nonzero homogeneous polynomials of degree >= 1")
    ctx = h.context
    gens = [h] + [partial_derivative(h, v) for v in ctx.projective]
    gb = buchberger(Ideal.spanned_by(ctx, gens), max_steps)
    leading = [g.leading_term()[0] for g in gb.basis]
    return all(any(sum(m) == m[i] for m in leading) for i in range(ctx.nproj))


def zero_locus_ideal(D: Derivation) -> Ideal:
    """Ideal of the vanishing scheme of the induced field on projective space.

    Cut out by the 2x2 minors of the array with rows (x_0,...,x_n) and
    A^T x, where A is the derivation's entry matrix. The Euler derivation
    gives the zero ideal: its induced field vanishes everywhere.
    """
    A = D.constant_entries()
    ctx = D.context
    n = D.size
    xs = [ctx.variable(name) for name in ctx.projective]
    # j-th coordinate of A^T x
    v = [sum((xs[i] * A[i][j] for i in range(n)), ctx.zero()) for j in range(n)]
    minors = []
    for i in range(n):
        for j in range(i + 1, n):
            minors.append(xs[i] * v[j] - xs[j] * v[i])
    return Ideal.spanned_by(ctx, minors)


def vanishes_on(
    D: Derivation,
    I: Ideal,
    scheme_theoretic: bool = False,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> bool:
    """Decide whether the field induced by D vanishes on the zero set of I.

    Set-theoretic containment V(I) inside Z(D) by default (radical
    membership of every minor); ``scheme_theoretic=True`` demands plain ideal
    membership instead.
    """
    if D.context != I.context:
        raise InputError("derivation and ideal belong to different variable contexts")
    _require_parameter_free(I.generators, "vanishing-locus generators")
    Z = zero_locus_ideal(D)
    gb = buchberger(I, max_steps)
    reduced = Ideal(I.context, gb.basis)
    for g in Z.generators:
        if scheme_theoretic:
            if normal_form(g, gb, max_steps):
                return False
        else:
            if not radical_member(g, reduced, max_steps):
                return False
    return True
