"""Shared helpers for the test suite: random generators and independent oracles.

The oracles here deliberately avoid the library's reduction machinery: span
membership is decided with a local sparse Gaussian elimination over plain
dicts, so Groebner results are checked against a second, unrelated route.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from operator import sub

from projvf import (
    Derivation,
    GroebnerBasis,
    Ideal,
    InputError,
    Polynomial,
    RatMatrix,
    UnivariatePoly,
    VarContext,
    homogeneous_degree,
    kernel_basis,
    monomials_of_degree,
    order_key,
    rref,
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
    monos = monomials_of_degree(ctx, degree)
    terms = {}
    for m in rng.sample(monos, min(max_terms, len(monos))):
        c = rand_fraction(rng)
        if c:
            terms[m] = c
    return Polynomial(ctx, terms)


def rand_matrix(rng: random.Random, rows: int, cols: int, span: int = 5):
    return [[Fraction(rng.randint(-span, span)) for _ in range(cols)] for _ in range(rows)]


def mul_vec(M: RatMatrix, v) -> tuple[Fraction, ...]:
    """The product M v over Q, for a vector v as long as M is wide."""
    assert len(v) == M.cols, "vector length does not match matrix width"
    return tuple(sum((a * Fraction(x) for a, x in zip(row, v)), Fraction(0)) for row in M.entries)


def matrix_from_strings(rows) -> RatMatrix:
    """Row-major matrix of rational strings (``p/q`` or ``p``)."""
    return RatMatrix([[Fraction(v) for v in row] for row in rows])


# -- reference matrix and polynomial arithmetic --------------------------------


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
    assert A.cols == B.rows, "matrix shapes do not allow multiplication"
    cols = list(zip(*B.entries))
    return RatMatrix([[sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in cols] for row in A.entries])


def poly_mul(p: UnivariatePoly, q: UnivariatePoly) -> UnivariatePoly:
    """The product of two polynomials in t, by the schoolbook convolution."""
    out = [Fraction(0)] * (len(p.coeffs) + len(q.coeffs))
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            out[i + j] += a * b
    return UnivariatePoly.of(out)


def spans(sol, A: RatMatrix, lam) -> bool:
    """Whether the pair (A, lam) lies in the span of a stabilizer solution's basis."""
    if not sol.pairs:
        return False
    rows = [[*(v for row in m.entries for v in row), c] for m, c in sol.pairs]
    target = [*(v for row in A.entries for v in row), Fraction(lam)]
    return rref(RatMatrix(rows))[1] == rref(RatMatrix(rows + [target]))[1]


def euler(ctx: VarContext) -> Derivation:
    """The Euler derivation sum_i x_i d/dx_i, whose matrix is the identity."""
    return Derivation.diagonal(ctx, [1] * ctx.nproj)


def zero_locus_reference(D: Derivation) -> Ideal:
    """The 2x2 minors x_i v_j - x_j v_i of the rows x and v = A^T x, for the
    constant entry matrix A of D, built from full Polynomial products."""
    A = D.constant_entries()
    ctx = D.context
    n = D.size
    xs = [ctx.variable(name) for name in ctx.projective]
    v = [sum((xs[i] * A[i][j] for i in range(n)), ctx.zero()) for j in range(n)]
    return Ideal.spanned_by(ctx, [xs[i] * v[j] - xs[j] * v[i] for i in range(n) for j in range(i + 1, n)])


def mul_reference(p: Polynomial, q: Polynomial) -> Polynomial:
    """p*q by the schoolbook double loop, each coefficient summed from a
    Fraction(0) default and dropped as soon as it cancels."""
    acc: dict = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            s = acc.get(m, Fraction(0)) + c1 * c2
            if s:
                acc[m] = s
            else:
                acc.pop(m, None)
    return Polynomial(p.context, acc)


def pow_reference(p: Polynomial, n: int) -> Polynomial:
    """p**n by binary powering over :func:`mul_reference`, one-term bases included."""
    result, base = p.context.one(), p
    while n:
        if n & 1:
            result = mul_reference(result, base)
        base = mul_reference(base, base) if n > 1 else base
        n >>= 1
    return result


def apply_reference(D: Derivation, f: Polynomial) -> Polynomial:
    """D(f) = sum_ij a_ij * x_i * df/dx_j, from whole partial derivatives and
    :func:`mul_reference` products, one column j at a time."""
    ctx = D.context
    result = ctx.zero()
    for j, name in enumerate(ctx.projective):
        df = partial_derivative(f, name)
        for i, xi in enumerate(ctx.projective):
            if D.entries[i][j] and df:
                result = result + mul_reference(D.entries[i][j], mul_reference(ctx.variable(xi), df))
    return result


# -- reference computations on Polynomial values -------------------------------


def evaluate(p: Polynomial, point) -> Fraction:
    """Exact value of p at ``point``, a mapping that assigns every variable of
    the context."""
    ctx = p.context
    missing = [n for n in ctx.names if n not in point]
    if missing:
        raise InputError(f"missing assignment for {', '.join(missing)}")
    values = [Fraction(point[n]) for n in ctx.names]
    total = Fraction(0)
    for m, c in p.items():
        v = c
        for e, x in zip(m, values):
            if e:
                v *= x**e
        total += v
    return total


def partial_derivative(p: Polynomial, var: str) -> Polynomial:
    """Formal partial derivative with respect to any declared variable, term
    by term: c*x^m becomes c*m_i*x^(m - e_i). The terms keep p's own order,
    as ``ideals._gradient_rows`` does, so that packed rows compare equal."""
    idx = p.context.index(var)
    terms = {}
    for m, c in p._terms.items():
        if m[idx]:
            terms[m[:idx] + (m[idx] - 1,) + m[idx + 1 :]] = c * m[idx]
    return Polynomial(p.context, terms)


def substitute(p: Polynomial, assignment) -> Polynomial:
    """p with polynomials or constants put in for a subset of the variables,
    a mapping from names to values: each term c*x^m becomes c times the
    powers of the assigned values times the unassigned rest of x^m."""
    ctx = p.context
    subs = {ctx.index(name): v if isinstance(v, Polynomial) else ctx.constant(v) for name, v in assignment.items()}
    result = ctx.zero()
    for m, c in p.items():
        residual = list(m)
        factor = ctx.constant(c)
        for idx, value in subs.items():
            if residual[idx]:
                factor = factor * value ** residual[idx]
                residual[idx] = 0
        result = result + factor.mul_term(tuple(residual), 1)
    return result


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """x^a f / lc(f) - x^b g / lc(g), where x^a lm(f) = x^b lm(g) =
    lcm(lm(f), lm(g)), so that the leading terms cancel."""
    mf, cf = f.leading_term()
    mg, cg = g.leading_term()
    lcm = tuple(map(max, mf, mg))
    return f.mul_term(tuple(map(sub, lcm, mf)), 1 / cf) - g.mul_term(tuple(map(sub, lcm, mg)), 1 / cg)


def contains_one(gb: GroebnerBasis) -> bool:
    """Whether the reduced basis is {1}, that is, the ideal is the whole ring."""
    return gb.basis == (gb.context.one(),)


# -- independent sparse elimination over monomial-keyed dicts -----------------


def _pivot(row: dict) -> tuple:
    return max(row)


def echelon_insert(basis: dict, row: dict) -> bool:
    """Reduce a sparse row against an echelon set; insert if independent."""
    row = dict(row)
    while row:
        piv = _pivot(row)
        if piv in basis:
            c = row[piv]
            other = basis[piv]
            for m, v in other.items():
                s = row.get(m, Fraction(0)) - c * v
                if s:
                    row[m] = s
                else:
                    row.pop(m, None)
        else:
            c = row[piv]
            basis[piv] = {m: v / c for m, v in row.items()}
            return True
    return False


def in_span(basis: dict, row: dict) -> bool:
    return not echelon_insert(dict(basis), row) if row else True


def poly_row(p: Polynomial) -> dict:
    return {m: c for m, c in p.items()}


def dict_rows_rank(rows) -> int:
    """Rank of a list of sparse rows (dicts keyed by orderable column labels)."""
    basis: dict = {}
    for row in rows:
        echelon_insert(basis, {k: Fraction(v) for k, v in row.items() if v})
    return len(basis)


def all_monomials(ctx: VarContext, degree: int) -> list:
    """Every monomial of the given total degree in all of the context's
    variables, parameters included, sorted descending in the order."""
    return monomials_of_degree(VarContext(ctx.names), degree)


def stabilizer_columns(h: Polynomial) -> list[Polynomial]:
    """The columns of the system D_A h = c*h as Polynomial products: x_i times
    dh/dx_j for the unknown A_ij, (i, j) in row-major order, then -h for c."""
    ctx = h.context
    partials = [partial_derivative(h, v) for v in ctx.projective]
    columns = [d.mul_term(ctx.monomial({xi: 1}), 1) for xi in ctx.projective for d in partials]
    return columns + [-h]


def stabilizer_reference(h: Polynomial) -> tuple:
    """The pairs (A, c) of ``stabilizer_algebra`` from the Polynomial columns,
    one row per monomial that occurs in them, sorted descending in the order,
    with each entry looked up by ``coefficient``."""
    n = h.context.nproj
    columns = stabilizer_columns(h)
    monomials = sorted({m for p in columns for m, _ in p.items()}, key=order_key, reverse=True)
    matrix = RatMatrix([[p.coefficient(m) for p in columns] for m in monomials])
    return tuple((RatMatrix([v[i * n : (i + 1) * n] for i in range(n)]), v[-1]) for v in kernel_basis(matrix))


def brute_force_stabilizer_dimension(h: Polynomial) -> int:
    """Independent stabilizer count: corank of the full coefficient-matching
    system over every monomial of the right degree, eliminated locally."""
    ctx = h.context
    n = ctx.nproj
    degree = max(sum(m[:n]) for m, _ in h.items())
    columns = stabilizer_columns(h)
    rows = []
    for m in monomials_of_degree(ctx, degree):
        row = {k: p.coefficient(m) for k, p in enumerate(columns) if p.coefficient(m)}
        rows.append(row)
    return n * n + 1 - dict_rows_rank(rows)


def brute_force_member(f: Polynomial, generators, extra_degree: int = 4) -> bool:
    """Degree-truncated linear-algebra membership oracle.

    Builds the span of m*g over all monomials m of degree <= B and tests
    whether f reduces to zero against it, raising B until the span stops
    growing past a safe floor.
    """
    ctx = f.context
    gens = [g for g in generators if g]
    if not gens:
        return not f
    target = poly_row(f)
    if not target:
        return True
    f_degree = max(sum(m) for m in target)
    floor = f_degree + 2
    basis: dict = {}
    dim = 0
    stable = 0
    bound = floor + extra_degree
    for b in range(bound + 1):
        for m in all_monomials(ctx, b):
            for g in gens:
                echelon_insert(basis, poly_row(g.mul_term(m, 1)))
        if in_span(basis, target):
            return True
        stable = stable + 1 if len(basis) == dim else 0
        dim = len(basis)
        if b >= floor and stable >= 2:
            return False
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
    d = homogeneous_degree(h)
    assert isinstance(d, int) and d >= 2, "the oracle takes a nonzero form of degree >= 2"
    top = n * (d - 2) + 1
    shifts = monomials_of_degree(ctx, top - d + 1)
    rows = [poly_row(partial_derivative(h, v).mul_term(m, 1)) for v in ctx.projective for m in shifts]
    return dict_rows_rank(rows) == math.comb(top + n - 1, n - 1)
