"""Polynomial ideals: Buchberger's algorithm, membership, smoothness, zero loci.

The Groebner layer works over the plain rationals: generators must be free of
parameter variables. Pair selection is the normal strategy (minimal lcm
degree first) with both classical pair-skipping criteria; the output is the
unique reduced basis for the global graded reverse lexicographic order, so
re-running on permuted generators reproduces it verbatim.

Radical membership is the ring-extension test: f lies in the radical of I
exactly when 1 lies in I + (1 - t*f). The extension variable t exists only
as one more packed field after all the context's variables, so it has no
name to clash with, and the Buchberger run stops as soon as a constant joins
the basis.
Smoothness does not use radical membership: one Buchberger run on the
partials of h alone (h lies in their ideal by Euler's relation), taken on
packed rows without building a polynomial, decides it, stopped as soon as
every variable has a pure-power leading monomial and, when it completes,
never inter-reduced.

Inside the engine a polynomial is a term dict keyed by packed monomials:
one int per exponent vector, built so that integer order is the global
order, integer addition multiplies monomials and one mask test decides
divisibility (see :class:`_Packing`). The field width comes from the input:
a Groebner computation starts with room for twice the largest generator
degree, the degree of any pair's lcm, and widens the packing (re-encoding
its rows and pair queue between reductions) when a new basis element needs
more; a normal form gets room for the largest degree of f and the basis.
Only the returned basis or remainder is unpacked.

Coefficients are primitive integers: generators are cleared of denominators
on entry, each new basis element is stored with its content divided out and
a positive leading coefficient, and Fractions reappear only when the reduced
basis is made monic (and in the one rational scale factor that
:func:`normal_form` applies to its result). Reduction is fraction-free: to
cancel a leading coefficient c with a divisor whose leading coefficient is l,
the running polynomial is scaled by l/gcd(c, l). It works on one mutable term
dict of the running polynomial plus a heap of its monomials for the leading
term; a step touches only the divisor's terms. The divisor is always the
first basis element whose leading monomial divides the current leading term,
so every remainder is a nonzero multiple of the one textbook division over Q
gives, after the same sequence of steps.

Every reduction step draws one unit from a step budget (default generous);
exhausting it raises :class:`ResourceLimitError` rather than truncating
silently.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

from .derivations import Derivation
from .errors import DEFAULT_MAX_STEPS, InputError, _Budget
from .polyring import (
    Monomial,
    Polynomial,
    VarContext,
    homogeneous_degree,
)


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


@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced Groebner basis for the global order; unique for the ideal."""

    context: VarContext
    basis: tuple[Polynomial, ...]


#: narrowest variable field of a packing, so that a computation whose degrees
#: stay below 64 never widens its packing
_MIN_FIELD_BITS = 8


class _Packing:
    """Exponent vectors of ``nvars`` variables packed into one int each.

    The top field holds the total degree. Below it, one ``bits``-wide field
    per variable holds ``room - e_i``, the last variable most significant, so
    the integer order is the global order (:func:`order_key`). With ``room =
    2^(bits-1) - 1`` and every exponent at most ``room``, each field stays
    below ``2^bits``: a monomial product is ``a + b - zero`` (the product's
    exponents at most ``room`` too), and a divides b exactly when
    ``(b - a + zero) & mask`` is 0, because a field of ``b - a + zero`` holds
    ``room + e_i(a) - e_i(b)``, whose top bit (in ``mask``) is set exactly
    when e_i(a) > e_i(b).
    """

    __slots__ = ("nvars", "bits", "room", "zero", "mask")

    def __init__(self, nvars: int, room: int):
        self.nvars = nvars
        self.bits = max(_MIN_FIELD_BITS, room.bit_length() + 1)
        self.room = (1 << (self.bits - 1)) - 1
        self.zero = sum(self.room << (i * self.bits) for i in range(nvars))
        self.mask = sum(1 << ((i + 1) * self.bits - 1) for i in range(nvars))

    def pack(self, m: Monomial) -> int:
        k = sum(m)
        for e in reversed(m):
            k = (k << self.bits) | (self.room - e)
        return k

    def unpack(self, k: int) -> Monomial:
        field = (1 << self.bits) - 1
        exps = []
        for _ in range(self.nvars):
            exps.append(self.room - (k & field))
            k >>= self.bits
        return tuple(exps)

    def terms(self, p: Polynomial) -> dict:
        return {self.pack(m): c for m, c in p._terms.items()}


def _degree(p: Polynomial) -> int:
    # the order is degree-first, so this is the leading monomial's degree
    return max(map(sum, p._terms))


def _add_scaled(terms: dict, addend, shift: int, q: int) -> list[int]:
    """terms += q * x^shift * addend in place, on packed monomials (a term t
    of addend lands on t + shift); returns the monomials it created."""
    created = []
    for t, c in addend:
        t += shift
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


def _primitive(terms: dict) -> dict:
    """The primitive integer multiple of the nonzero packed term dict (int or
    Fraction values): coprime integer coefficients and a positive leading
    coefficient."""
    den = math.lcm(*(c.denominator for c in terms.values()))
    ints = {m: c.numerator * (den // c.denominator) for m, c in terms.items()}
    content = math.gcd(*ints.values())
    if ints[max(ints)] < 0:
        content = -content
    return {m: c // content for m, c in ints.items()}


def _row(terms: dict) -> tuple:
    """The reduction row of a packed term dict: leading monomial, leading
    coefficient, other terms."""
    lm = max(terms)
    return lm, terms[lm], [(m, c) for m, c in terms.items() if m != lm]


def _monic(terms: dict, packing: _Packing, context: VarContext) -> Polynomial:
    """The packed integer term dict divided by its leading coefficient, over Q."""
    lc = terms[max(terms)]
    return Polynomial._trusted(context, {packing.unpack(m): Fraction(c, lc) for m, c in terms.items()})


def _s_pair(first: tuple, second: tuple, lcm: int) -> dict:
    """The S-polynomial of two rows with packed leading-monomial lcm, scaled by
    the least positive integers that cancel the leading terms, so that it
    stays integral."""
    lm1, lc1, tail1 = first
    lm2, lc2, tail2 = second
    d = math.gcd(lc1, lc2)
    terms: dict = {}
    _add_scaled(terms, tail1, lcm - lm1, lc2 // d)
    _add_scaled(terms, tail2, lcm - lm2, -(lc1 // d))
    return terms


def _reduce(p: dict, rows: Sequence[tuple], budget: _Budget, packing: _Packing) -> tuple[dict, int]:
    """Fraction-free full normal form of the packed integer term dict p, which
    it consumes, against the rows of primitive integer polynomials.

    Returns (r, u) with r = u * NF(p) a packed integer term dict and u a
    positive integer. A heap of p's monomials (entries of cancelled terms are
    skipped when popped) yields its leading term c x^m. Each step spends one
    budget unit and either moves that term to the remainder or cancels it
    with the first row (lm, lc, tail) whose lm divides m: with d = gcd(c, lc),
    p and the remainder are scaled by lc/d when that is not 1, and
    -(c/d) x^(m-lm) tail is added, touching only that row's other terms.
    Every monomial involved has degree at most that of p's leading monomial,
    which the packing must have room for.
    """
    zero, mask = packing.zero, packing.mask
    # negated, so that the min-heap pops the largest monomial first
    heap = [-m for m in p]
    heapq.heapify(heap)
    remainder: dict[int, int] = {}
    scale = 1
    while heap:
        m = -heapq.heappop(heap)
        c = p.pop(m, None)
        if c is None:
            continue
        budget.spend()
        mz = m + zero
        for lm, lc, tail in rows:
            if not (mz - lm) & mask:
                d = math.gcd(c, lc)
                u = lc // d
                if u != 1:
                    scale *= u
                    p = {t: v * u for t, v in p.items()}
                    remainder = {t: v * u for t, v in remainder.items()}
                for t in _add_scaled(p, tail, m - lm, -(c // d)):
                    heapq.heappush(heap, -t)
                break
        else:
            remainder[m] = c
    return remainder, scale


def _groebner(
    pk: _Packing,
    rows: list[tuple],
    budget: _Budget,
    stop: Callable[[Monomial], bool],
) -> tuple[_Packing, list[tuple]] | None:
    """Buchberger's algorithm on the rows, stopped early by ``stop``.

    ``rows``, which the engine takes over, holds primitive integer
    polynomials (:func:`_row`) on packed monomials of ``pk``, which must
    have room for twice their largest leading degree, the degree of any
    pair's lcm; the packing is widened between reductions when a new basis
    element needs more. ``stop`` is shown every leading monomial as it joins
    the basis (the rows' first): the result is None as soon as it returns
    True, and otherwise, when the pair queue empties, the final packing and
    the rows of a Groebner basis, the input rows first, neither minimalised
    nor inter-reduced.
    """
    leads = [pk.unpack(lm) for lm, _, _ in rows]
    if any(map(stop, leads)):
        return None

    heap: list[tuple[int, int, int]] = []
    pending: set[tuple[int, int]] = set()

    def push(i: int, j: int):
        heapq.heappush(heap, (pk.pack(tuple(map(max, leads[i], leads[j]))), i, j))
        pending.add((i, j))

    for j in range(len(rows)):
        for i in range(j):
            push(i, j)

    while heap:
        lcm, i, j = heapq.heappop(heap)
        pending.discard((i, j))
        lcm_z, mask = lcm + pk.zero, pk.mask
        if lcm_z == rows[i][0] + rows[j][0]:  # coprime leading monomials
            continue
        skip = False
        for k, (ltk, _, _) in enumerate(rows):
            if (lcm_z - ltk) & mask or k == i or k == j:
                continue
            pik = (min(i, k), max(i, k))
            pjk = (min(j, k), max(j, k))
            if pik not in pending and pjk not in pending:
                skip = True
                break
        if skip:
            continue
        remainder = _reduce(_s_pair(rows[i], rows[j], lcm), rows, budget, pk)[0]
        if remainder:
            terms = _primitive(remainder)
            lead = pk.unpack(max(terms))
            if 2 * sum(lead) > pk.room:
                old, pk = pk, _Packing(pk.nvars, 2 * sum(lead))

                def move(k: int) -> int:
                    return pk.pack(old.unpack(k))

                rows = [(move(lm), lc, [(move(t), c) for t, c in tail]) for lm, lc, tail in rows]
                heap = [(move(key), a, b) for key, a, b in heap]
                heapq.heapify(heap)
                terms = {move(m): c for m, c in terms.items()}
            rows.append(_row(terms))
            leads.append(lead)
            if stop(lead):
                return None
            new = len(rows) - 1
            for k in range(new):
                push(k, new)
    return pk, rows


def _require_parameter_free(polys: Iterable[Polynomial], what: str):
    for p in polys:
        if not p.is_parameter_free():
            raise InputError(f"{what} must be free of parameter variables: {p}")


def _check_hypersurface(h: Polynomial) -> int:
    """The degree of the hypersurface equation h, which must be free of
    parameters, nonzero and homogeneous of degree >= 1."""
    if not h.is_parameter_free():
        raise InputError("hypersurface equations must be free of parameter variables")
    deg = homogeneous_degree(h)
    if deg == "any" or deg is None or deg < 1:
        raise InputError("hypersurface equations must be nonzero and homogeneous of degree >= 1")
    return deg


def buchberger(I: Ideal, max_steps: int = DEFAULT_MAX_STEPS) -> GroebnerBasis:
    """The unique reduced Groebner basis of I for the global order."""
    _require_parameter_free(I.generators, "Groebner basis generators")
    budget = _Budget(max_steps)
    pk = _Packing(I.context.nvars, 2 * max(map(_degree, I.generators), default=0))
    pk, rows = _groebner(pk, [_row(_primitive(pk.terms(g))) for g in I.generators], budget, lambda lead: False)

    # minimalise: keep an element unless the leading monomial of one kept
    # before divides its own; a divisor is never larger than what it divides,
    # and the stable sort keeps the first of equal leading monomials
    minimal: list[int] = []
    for i in sorted(range(len(rows)), key=lambda i: rows[i][0]):
        if all((rows[i][0] + pk.zero - rows[k][0]) & pk.mask for k in minimal):
            minimal.append(i)
    minimal.sort()

    # inter-reduce tails for the unique reduced basis
    reduced: list[dict] = []
    for i in minimal:
        lm, lc, tail = rows[i]
        terms = dict(tail)
        terms[lm] = lc
        others = [rows[k] for k in minimal if k != i]
        reduced.append(_reduce(terms, others, budget, pk)[0] if others else terms)
    reduced.sort(key=max, reverse=True)
    return GroebnerBasis(context=I.context, basis=tuple(_monic(terms, pk, I.context) for terms in reduced))


def normal_form(f: Polynomial, G: GroebnerBasis, max_steps: int = DEFAULT_MAX_STEPS) -> Polynomial:
    """Unique remainder of multivariate division by G; zero iff f lies in the ideal."""
    if f.context != G.context:
        raise InputError("polynomial and basis belong to different variable contexts")
    if not G.basis or not f:
        return f
    pk = _Packing(f.context.nvars, max(map(_degree, (f, *G.basis))))
    prim = _primitive(pk.terms(f))
    # f = (lc(f) / lc(prim)) * prim and r = scale * NF(prim)
    k = f.leading_term()[1] / prim[max(prim)]
    r, scale = _reduce(prim, [_row(_primitive(pk.terms(g))) for g in G.basis], _Budget(max_steps), pk)
    k /= scale
    return Polynomial._trusted(f.context, {pk.unpack(m): c * k for m, c in r.items()})


def ideal_member(f: Polynomial, I: Ideal, max_steps: int = DEFAULT_MAX_STEPS) -> bool:
    return not normal_form(f, buchberger(I, max_steps), max_steps)


def radical_member(f: Polynomial, I: Ideal, max_steps: int = DEFAULT_MAX_STEPS) -> bool:
    """Decide f in sqrt(I) by the ring-extension test: 1 in I + (1 - t*f).

    The generators and 1 - t*f enter the engine as rows packed with one more
    field, for t, than the context has variables, with room for twice the
    largest of their degrees. The run stops with True as soon as a constant
    joins the basis; when the pair queue empties first, 1 is not in the
    extended ideal and the result is False.
    """
    if f.context != I.context:
        raise InputError("polynomial and ideal belong to different variable contexts")
    _require_parameter_free(I.generators, "radical membership generators")
    _require_parameter_free([f], "radical membership query")
    if not f:
        return True
    pk = _Packing(f.context.nvars + 1, 2 * max([_degree(f) + 1, *map(_degree, I.generators)]))
    extension = {pk.pack(m + (1,)): -c for m, c in f._terms.items()}
    extension[pk.zero] = 1
    terms = [{pk.pack(m + (0,)): c for m, c in g._terms.items()} for g in I.generators] + [extension]
    return _groebner(pk, [_row(_primitive(t)) for t in terms], _Budget(max_steps), lambda lead: not any(lead)) is None


def _gradient_rows(h: Polynomial, d: int) -> tuple[_Packing, list[tuple]]:
    """The rows of the nonzero partials dh/dx_i of h, homogeneous of degree
    d, in the order of the projective variables, and their packing, which has
    room for twice the partials' degree (and for h).

    h is packed and made primitive once; each partial is taken on the packed
    monomials: a term c x^m with e_i = room - field_i(m) > 0 becomes c e_i at
    m + 2^(i bits) - 2^(nvars bits), which raises field i by one and lowers
    the degree field by one.
    """
    pk = _Packing(h.context.nvars, max(d, 2 * d - 2))
    terms = _primitive(pk.terms(h))
    field = (1 << pk.bits) - 1
    rows = []
    for i in range(h.context.nproj):
        shift = i * pk.bits
        step = (1 << shift) - (1 << (pk.nvars * pk.bits))
        partial = {}
        for m, c in terms.items():
            e = pk.room - ((m >> shift) & field)
            if e:
                partial[m + step] = c * e
        if partial:
            rows.append(_row(_primitive(partial)))
    return pk, rows


def is_smooth_projective(h: Polynomial, max_steps: int = DEFAULT_MAX_STEPS) -> bool:
    """Gradient criterion for smoothness of the hypersurface h = 0.

    Smooth exactly when J = (h, dh/dx_0, ..., dh/dx_n) has no projective
    zero. Over Q, Euler's relation d h = sum x_i dh/dx_i for h homogeneous of
    degree d puts h in the ideal of its partials, so J = (dh/dx_0, ...,
    dh/dx_n) and only the partials enter Buchberger. J has no projective zero
    exactly when S/J has finite length, which holds exactly when LT(J)
    contains a power of every x_i (the finiteness theorem). A leading
    monomial of any element of J lies in LT(J), so the verdict is "smooth"
    as soon as Buchberger's running basis has, for every x_i, a leading
    monomial dividing a power of x_i: a pure power of x_i, or the unit
    monomial when 1 lies in J (a hyperplane). The leading monomials of a
    completed basis generate LT(J), so when the pair queue empties with
    some x_i still uncovered, no power of it lies in LT(J) and h is singular.
    """
    d = _check_hypersurface(h)
    uncovered = set(range(h.context.nproj))

    def covers_all(lead: Monomial) -> bool:
        # lead divides a power of x_i exactly when its degree is its x_i exponent
        e = sum(lead)
        uncovered.difference_update([i for i in uncovered if lead[i] == e])
        return not uncovered

    return _groebner(*_gradient_rows(h, d), _Budget(max_steps), covers_all) is None


def _minors(D: Derivation) -> Iterator[Polynomial]:
    """The minors of :func:`zero_locus_ideal` in its order, each built when
    drawn; the entry matrix is read at once, so a symbolic D raises here."""
    A = D.constant_entries()
    ctx = D.context
    n = D.size
    units = [ctx.monomial({name: 1}) for name in ctx.projective]
    x = [ctx.variable(name) for name in ctx.projective]
    # the j-th coordinate of A^T x as one term dict, then each minor
    # x_i v_j - x_j v_i through the ring's product
    v = [Polynomial(ctx, {units[i]: A[i][j] for i in range(n)}) for j in range(n)]
    return (x[i] * v[j] - x[j] * v[i] for i in range(n) for j in range(i + 1, n))


def zero_locus_ideal(D: Derivation) -> Ideal:
    """Ideal of the vanishing scheme of the induced field on projective space.

    Cut out by the 2x2 minors of the array with rows (x_0,...,x_n) and
    A^T x, where A is the derivation's entry matrix. The Euler derivation
    gives the zero ideal: its induced field vanishes everywhere.
    """
    return Ideal.spanned_by(D.context, _minors(D))


def vanishes_on(
    D: Derivation,
    I: Ideal,
    scheme_theoretic: bool = False,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> bool:
    """Decide whether the field induced by D vanishes on the zero set of I.

    Set-theoretic containment V(I) inside Z(D) by default (radical
    membership of every minor); ``scheme_theoretic=True`` demands plain ideal
    membership instead. A minor that reduces to 0 modulo GB(I) lies in I,
    and so in its radical, without an extension basis. ``max_steps`` bounds
    each Groebner computation and normal form on its own, not their sum.
    """
    if D.context != I.context:
        raise InputError("derivation and ideal belong to different variable contexts")
    _require_parameter_free(I.generators, "vanishing-locus generators")
    minors = _minors(D)
    gb = buchberger(I, max_steps)
    reduced = Ideal(I.context, gb.basis)
    for g in minors:
        if g and normal_form(g, gb, max_steps) and (scheme_theoretic or not radical_member(g, reduced, max_steps)):
            return False
    return True
