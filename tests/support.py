"""Shared helpers for the test suite: random generators and independent oracles.

The oracles are the benchmark's exact dict arithmetic in ``bench/exact.py``
(and its stabilizer count in ``bench/oracles.py``), which ``conftest.py``
makes importable and which import nothing from projvf. A ``Polynomial``'s
``_terms`` is already such a dict, from exponent tuples to Fractions, so each
helper here only unwraps its arguments, calls those routines, and wraps the
result: products, derivatives, values, ranks and null spaces never go
through the code under test.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import reduce

from exact import mat_vec, matmul, monomials, null_space, padd, pdiff, peval, pmul, rank, unit, upoly_mul
from oracles import stabilizer_dimension
from projvf import (
    Derivation,
    GroebnerBasis,
    Ideal,
    InputError,
    Polynomial,
    RatMatrix,
    UnivariatePoly,
    VarContext,
    order_key,
)

#: test-only contexts; the paper's fixtures live in projvf.verify
SMALL = VarContext(("x0", "x1", "x2"))
P4C = VarContext(("x0", "x1", "x2", "x3", "x4"), ("a", "c"))


def rand_fraction(rng: random.Random, span: int = 9) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def rand_poly(
    rng: random.Random,
    ctx: VarContext,
    max_degree: int = 3,
    max_terms: int = 4,
    projective_only: bool = True,
) -> Polynomial:
    terms = {}
    width = ctx.nproj if projective_only else ctx.nvars
    for _ in range(rng.randint(1, max_terms)):
        m = [0] * ctx.nvars
        for _ in range(rng.randint(0, max_degree)):
            m[rng.randrange(width)] += 1
        c = rand_fraction(rng)
        if c:
            terms[tuple(m)] = terms.get(tuple(m), Fraction(0)) + c
    return Polynomial(ctx, {m: c for m, c in terms.items() if c})


def rand_homogeneous(rng: random.Random, ctx: VarContext, degree: int, max_terms: int = 4) -> Polynomial:
    monos = all_monomials(ctx, degree, ctx.nproj)
    terms = {}
    for m in rng.sample(monos, min(max_terms, len(monos))):
        c = rand_fraction(rng)
        if c:
            terms[m] = c
    return Polynomial(ctx, terms)


def rand_matrix(rng: random.Random, rows: int, cols: int, span: int = 5):
    return [[Fraction(rng.randint(-span, span)) for _ in range(cols)] for _ in range(rows)]


def all_monomials(ctx: VarContext, degree: int, width: int | None = None) -> list:
    """Every monomial of the given total degree in the context's first
    ``width`` variables (all of them, parameters included, by default),
    padded to the context's width and sorted descending in the order."""
    width = ctx.nvars if width is None else width
    pad = (0,) * (ctx.nvars - width)
    return sorted((m + pad for m in monomials(width, degree)), key=order_key, reverse=True)


# -- matrices and polynomials in t ----------------------------------------------


def matrix_from_strings(rows) -> RatMatrix:
    """Row-major matrix of rational strings (``p/q`` or ``p``)."""
    return RatMatrix([[Fraction(v) for v in row] for row in rows])


def zeros(rows: int, cols: int) -> RatMatrix:
    return RatMatrix([[0] * cols for _ in range(rows)])


def diagonal(values) -> RatMatrix:
    n = len(values)
    return RatMatrix([[values[i] if i == j else 0 for j in range(n)] for i in range(n)])


def identity(n: int) -> RatMatrix:
    return diagonal([1] * n)


def mat_add(A: RatMatrix, B: RatMatrix) -> RatMatrix:
    assert (A.rows, A.cols) == (B.rows, B.cols), "matrix shapes differ"
    return RatMatrix([[a + b for a, b in zip(r, s)] for r, s in zip(A.entries, B.entries)])


def mat_scale(A: RatMatrix, c) -> RatMatrix:
    return RatMatrix([[v * c for v in row] for row in A.entries])


def mat_mul(A: RatMatrix, B: RatMatrix) -> RatMatrix:
    return RatMatrix(matmul(A.entries, B.entries))


def mul_vec(M: RatMatrix, v) -> tuple[Fraction, ...]:
    """The product M v over Q, for a vector v as long as M is wide."""
    return tuple(mat_vec(M.entries, v))


def poly_mul(p: UnivariatePoly, q: UnivariatePoly) -> UnivariatePoly:
    return UnivariatePoly.of(upoly_mul(p.coeffs, q.coeffs))


def spans(sol, A: RatMatrix, lam) -> bool:
    """Whether the pair (A, lam) lies in the span of a stabilizer solution's basis."""
    if not sol.pairs:
        return False
    rows = [[*(v for row in m.entries for v in row), c] for m, c in sol.pairs]
    return rank(rows) == rank(rows + [[*(v for row in A.entries for v in row), lam]])


# -- polynomials as term dicts --------------------------------------------------


def terms_rank(rows) -> int:
    """Rank of term dicts read as coefficient rows, one column per monomial."""
    columns = {m: k for k, m in enumerate({m for row in rows for m in row})}
    dense = []
    for row in rows:
        dense.append([0] * len(columns))
        for m, c in row.items():
            dense[-1][columns[m]] = c
    return rank(dense)


def euler(ctx: VarContext) -> Derivation:
    """The Euler derivation sum_i x_i d/dx_i, whose matrix is the identity."""
    return Derivation.diagonal(ctx, [1] * ctx.nproj)


def zero_locus_reference(D: Derivation) -> Ideal:
    """The 2x2 minors x_i v_j - x_j v_i of the rows x and v = A^T x, for the
    constant entry matrix A of D."""
    A = D.constant_entries()
    ctx = D.context
    n = D.size
    x = [{unit(ctx.nvars, i): 1} for i in range(n)]
    v = [{unit(ctx.nvars, i): A[i][j] for i in range(n) if A[i][j]} for j in range(n)]
    minors = [padd(pmul(x[i], v[j]), pmul(x[j], v[i]), -1) for i in range(n) for j in range(i + 1, n)]
    return Ideal.spanned_by(ctx, [Polynomial(ctx, m) for m in minors])


def mul_reference(p: Polynomial, q: Polynomial) -> Polynomial:
    return Polynomial(p.context, pmul(p._terms, q._terms))


def pow_reference(p: Polynomial, n: int) -> Polynomial:
    """p**n as n products, starting from 1."""
    return Polynomial(p.context, reduce(pmul, [p._terms] * n, {p.context.unit_monomial(): 1}))


def apply_reference(D: Derivation, f: Polynomial) -> Polynomial:
    """D(f) = sum_ij a_ij * x_i * df/dx_j, entries a_ij symbolic or constant."""
    ctx = D.context
    total: dict = {}
    for j in range(ctx.nproj):
        df = pdiff(f._terms, j)
        for i in range(ctx.nproj):
            total = padd(total, pmul(D.entries[i][j]._terms, pmul({unit(ctx.nvars, i): 1}, df)))
    return Polynomial(ctx, total)


def evaluate(p: Polynomial, point) -> Fraction:
    """Exact value of p at ``point``, a mapping that assigns every variable of
    the context."""
    missing = [n for n in p.context.names if n not in point]
    if missing:
        raise InputError(f"missing assignment for {', '.join(missing)}")
    return peval(p._terms, [point[n] for n in p.context.names])


def partial_derivative(p: Polynomial, var: str) -> Polynomial:
    """Formal partial derivative with respect to any declared variable. The
    terms keep p's own order, as ``ideals._gradient_rows`` does, so that
    packed rows compare equal."""
    return Polynomial(p.context, pdiff(p._terms, p.context.index(var)))


def mul_term(p: Polynomial, m, c=1) -> Polynomial:
    """p times the single term c*x^m."""
    return Polynomial(p.context, pmul(p._terms, {m: c}))


def substitute(p: Polynomial, assignment) -> Polynomial:
    """p with polynomials or constants put in for a subset of the variables,
    a mapping from names to values: each term c*x^m becomes c times the
    powers of the assigned values times the unassigned rest of x^m."""
    ctx = p.context
    subs = {
        ctx.index(name): v._terms if isinstance(v, Polynomial) else {ctx.unit_monomial(): v}
        for name, v in assignment.items()
    }
    total: dict = {}
    for m, c in p._terms.items():
        term = {tuple(0 if i in subs else e for i, e in enumerate(m)): c}
        for i, value in subs.items():
            term = reduce(pmul, [value] * m[i], term)
        total = padd(total, term)
    return Polynomial(ctx, total)


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """x^a f / lc(f) - x^b g / lc(g), where x^a lm(f) = x^b lm(g) =
    lcm(lm(f), lm(g)), so that the leading terms cancel."""
    (mf, cf), (mg, cg) = f.leading_term(), g.leading_term()
    lcm = tuple(map(max, mf, mg))
    shift = lambda m: tuple(a - b for a, b in zip(lcm, m))
    return Polynomial(f.context, padd(pmul(f._terms, {shift(mf): 1 / cf}), pmul(g._terms, {shift(mg): 1 / cg}), -1))


def contains_one(gb: GroebnerBasis) -> bool:
    """Whether the reduced basis is {1}, that is, the ideal is the whole ring."""
    return gb.basis == (gb.context.one(),)


# -- linear-algebra oracles ----------------------------------------------------


def stabilizer_reference(h: Polynomial) -> tuple:
    """The pairs (A, c) of ``stabilizer_algebra``: the null-space basis of the
    system D_A h = c*h, one column x_i * dh/dx_j per unknown A_ij in
    row-major order, then -h for c."""
    ctx = h.context
    n = ctx.nproj
    columns = [pmul({unit(ctx.nvars, i): 1}, pdiff(h._terms, j)) for i in range(n) for j in range(n)]
    columns.append({m: -c for m, c in h._terms.items()})
    monos = sorted({m for col in columns for m in col})
    basis = null_space([[col.get(m, 0) for col in columns] for m in monos], len(columns))
    return tuple((RatMatrix([v[i * n : (i + 1) * n] for i in range(n)]), v[-1]) for v in basis)


def brute_force_stabilizer_dimension(h: Polynomial) -> int:
    return stabilizer_dimension(h.context.nproj, h._terms)


def brute_force_member(f: Polynomial, generators, extra_degree: int = 4) -> bool:
    """Degree-truncated linear-algebra membership oracle: whether f lies in
    the span of m*g over the generators g and the monomials m of degree at
    most B = deg f + 2 + extra_degree, tried for B = 0, 1, ... in turn. The
    span grows with B for good (x0^B times a generator of top degree is new),
    so there is no earlier point at which a miss is final."""
    gens = [g._terms for g in generators if g]
    if not gens:
        return not f
    rows: list = []
    for b in range(max(map(sum, f._terms), default=0) + 3 + extra_degree):
        rows += [pmul(g, {m: 1}) for m in all_monomials(f.context, b) for g in gens]
        if terms_rank(rows + [f._terms]) == terms_rank(rows):
            return True
    return False


def macaulay_smooth(h: Polynomial) -> bool:
    """Smoothness of a parameter-free form h of degree d >= 2 in N projective
    variables, by linear algebra alone (Macaulay 1916). If h is smooth, its
    partials form a regular sequence, and the Jacobian ring vanishes above
    its socle degree N(d - 2); if h is singular, the ring is nonzero in every
    degree. So h is smooth exactly when the partials, each times every
    monomial of degree D - d + 1, span all C(D + N - 1, N - 1) monomials of
    degree D = N(d - 2) + 1."""
    ctx = h.context
    n = ctx.nproj
    degrees = {sum(m) for m in h._terms}
    assert len(degrees) == 1 and min(degrees) >= 2, "the oracle takes a nonzero form of degree >= 2"
    (d,) = degrees
    top = n * (d - 2) + 1
    shifts = all_monomials(ctx, top - d + 1, n)
    rows = [pmul(pdiff(h._terms, i), {m: 1}) for i in range(n) for m in shifts]
    return terms_rank(rows) == math.comb(top + n - 1, n - 1)
