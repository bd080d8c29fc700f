"""Exact dense linear algebra over the rationals.

Everything here is deterministic. Row reduction, the characteristic
polynomial and the rational root search compute on integers, with Fractions
only in inputs and results; row reduction is fraction-free elimination that
keeps each new row primitive and takes the first nonzero pivot (exact
arithmetic needs no magnitude pivoting). Kernel bases set free variables to one in column order, and only
rational eigenvalues are materialised; the rest of the spectrum is the
unfactored residual of the characteristic polynomial, never approximated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DEFAULT_MAX_STEPS, InputError, _Budget
from .polyring import _signed_sum

#: the zero every result shares; Fractions are immutable
_ZERO = Fraction(0)


@dataclass(frozen=True)
class UnivariatePoly:
    """Polynomial in one variable ``t``; coefficients ascending, no trailing zeros."""

    coeffs: tuple[Fraction, ...]

    @classmethod
    def of(cls, coeffs: Iterable) -> "UnivariatePoly":
        cs = [Fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        return cls(tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_one(self) -> bool:
        return self.coeffs == (Fraction(1),)

    def __str__(self) -> str:
        terms = [(c, "" if e == 0 else "t" if e == 1 else f"t^{e}") for e, c in enumerate(self.coeffs) if c]
        return _signed_sum(reversed(terms))


class RatMatrix:
    """Dense matrix of rationals."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence]):
        grid = tuple(tuple(v if isinstance(v, Fraction) else Fraction(v) for v in row) for row in entries)
        if not grid or not grid[0]:
            raise InputError("matrix must have at least one row and one column")
        if any(len(row) != len(grid[0]) for row in grid):
            raise InputError("matrix rows must all have the same length")
        self.entries = grid
        self.rows = len(grid)
        self.cols = len(grid[0])

    def transpose(self) -> "RatMatrix":
        return RatMatrix([[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)])

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def to_strings(self) -> list[list[str]]:
        return [[str(v) for v in row] for row in self.entries]

    def __str__(self) -> str:
        return "[" + "; ".join(", ".join(str(v) for v in row) for row in self.entries) + "]"

    def __repr__(self) -> str:
        return f"RatMatrix({[list(map(str, row)) for row in self.entries]})"


def rref(M: RatMatrix) -> tuple[RatMatrix, int]:
    """Reduced row echelon form and rank; first-nonzero pivoting.

    Fraction-free: M is scaled to integers by the lcm of its denominators, a
    row is cleared in a pivot column as u*row - w*pivot, u and w the two
    entries there divided by their gcd, and its content is divided out; each
    row is divided by its pivot entry only in the result."""
    den = math.lcm(*(v.denominator for row in M.entries for v in row))
    grid = [[v.numerator * (den // v.denominator) for v in row] for row in M.entries]
    rank = 0
    for col in range(M.cols):
        sel = next((r for r in range(rank, M.rows) if grid[r][col]), None)
        if sel is None:
            continue
        grid[rank], grid[sel] = grid[sel], grid[rank]
        pivot = grid[rank]
        for r, row in enumerate(grid):
            if r != rank and row[col]:
                g = math.gcd(pivot[col], row[col])
                u, w = pivot[col] // g, row[col] // g
                new = [u * a - w * b for a, b in zip(row, pivot)]
                c = math.gcd(*new)
                grid[r] = [v // c for v in new] if c > 1 else new
        rank += 1
    leads = [next((v for v in row if v), 1) for row in grid]
    return RatMatrix([[Fraction(v, p) if v else _ZERO for v in row] for row, p in zip(grid, leads)]), rank


def kernel_basis(M: RatMatrix) -> list[tuple[Fraction, ...]]:
    """Canonical basis of the right null space (free variables set to 1 in order)."""
    R, rank = rref(M)
    pivots = {next(c for c, v in enumerate(row) if v): row for row in R.entries[:rank]}
    basis = []
    for fc in (c for c in range(M.cols) if c not in pivots):
        v = [_ZERO] * M.cols
        v[fc] = Fraction(1)
        for pc, row in pivots.items():
            v[pc] = -row[fc]
        basis.append(tuple(v))
    return basis


def char_poly(M: RatMatrix) -> UnivariatePoly:
    """Characteristic polynomial det(tI - M), monic, by the Faddeev-LeVerrier recurrence.

    The recurrence runs on the integer matrix A = den*M, den the lcm of M's
    denominators: N_1 = I, c_k = -tr(A N_k)/k, N_(k+1) = A N_k + c_k I. The
    c_k are the integer coefficients of det(tI - A), so each division is
    exact, and the coefficient of t^(n-k) in det(tI - M) is c_k/den^k.
    """
    if M.rows != M.cols:
        raise InputError("characteristic polynomial of a non-square matrix")
    n = M.rows
    den = math.lcm(*(v.denominator for row in M.entries for v in row))
    A = [[v.numerator * (den // v.denominator) for v in row] for row in M.entries]
    N = [[int(i == j) for j in range(n)] for i in range(n)]
    coeffs = [Fraction(1)]
    for k in range(1, n + 1):
        AN = [[sum(a * b for a, b in zip(row, col)) for col in zip(*N)] for row in A]
        c = -sum(AN[i][i] for i in range(n)) // k
        coeffs.append(Fraction(c, den**k))
        for i in range(n):
            AN[i][i] += c
        N = AN
    return UnivariatePoly.of(reversed(coeffs))


@dataclass(frozen=True)
class EigenPair:
    value: Fraction
    space: tuple[tuple[Fraction, ...], ...]
    multiplicity: int


@dataclass(frozen=True)
class EigenDecomposition:
    pairs: tuple[EigenPair, ...]
    residual: UnivariatePoly


def _divisors(n: int) -> list[int]:
    """Positive divisors of n != 0, by isqrt(|n|) trial divisions."""
    small = [d for d in range(1, math.isqrt(abs(n)) + 1) if n % d == 0]
    return sorted({*small, *(abs(n) // d for d in small)})


def _divide_out(Q: list[int], num: int, den: int) -> list[int] | None:
    """Q/(den*t - num) if num/den, in lowest terms, is a root of the integer
    polynomial Q (ascending), else None. Top coefficient first, each
    S_(k-1) = (Q_k + num*S_k)/den must be exact and Q_0 + num*S_0 must be 0;
    by Gauss's lemma a root leaves an integral quotient."""
    S = [0] * (len(Q) - 1)
    s = 0
    for k in range(len(Q) - 1, 0, -1):
        s, r = divmod(Q[k] + num * s, den)
        if r:
            return None
        S[k - 1] = s
    return None if Q[0] + num * s else S


def _rational_roots(q: UnivariatePoly, max_steps: int) -> tuple[list[tuple[Fraction, int]], UnivariatePoly]:
    """All rational roots with multiplicities, plus the unfactored remainder.

    q is scaled once to the integer polynomial Q = scale*q; each candidate
    ±num/den, num and den divisors of Q's constant and leading coefficients,
    is divided out while it is a root, and the remainder is Q made monic.
    Each trial division and each candidate root costs one step; both are
    charged before the work starts, and a search over ``max_steps`` raises
    :class:`ResourceLimitError`.
    """
    scale = math.lcm(*(c.denominator for c in q.coeffs))
    Q = [c.numerator * (scale // c.denominator) for c in q.coeffs]
    zero_mult = next(k for k, c in enumerate(Q) if c)
    del Q[:zero_mult]
    found = [(0, 1, zero_mult)] if zero_mult else []
    if len(Q) > 1:
        budget = _Budget(max_steps, "rational root search")
        budget.spend(math.isqrt(abs(Q[0])) + math.isqrt(abs(Q[-1])))
        nums, dens = _divisors(Q[0]), _divisors(Q[-1])
        budget.spend(2 * len(nums) * len(dens))
        # each candidate once, in lowest terms
        for num, den in ((sign * n, d) for d in dens for n in nums if math.gcd(n, d) == 1 for sign in (1, -1)):
            mult = 0
            while len(Q) > 1 and (S := _divide_out(Q, num, den)) is not None:
                Q = S
                mult += 1
            if mult:
                found.append((num, den, mult))
    roots = sorted((Fraction(num, den), mult) for num, den, mult in found)
    return roots, UnivariatePoly(tuple(Fraction(c, Q[-1]) for c in Q))


def rational_eigen(M: RatMatrix, max_steps: int = DEFAULT_MAX_STEPS) -> EigenDecomposition:
    """Rational eigenvalues with exact eigenspaces; the rest stays as a residual factor.

    Roots are found with the rational-root theorem on the integer-scaled
    characteristic polynomial (exhaustive divisor search, within
    ``max_steps``); eigenspaces come from :func:`kernel_basis` of
    M - lambda*I.
    """
    roots, residual = _rational_roots(char_poly(M), max_steps)
    pairs = []
    for value, mult in roots:
        shifted = [[v - value if i == j else v for j, v in enumerate(row)] for i, row in enumerate(M.entries)]
        pairs.append(EigenPair(value=value, space=tuple(kernel_basis(RatMatrix(shifted))), multiplicity=mult))
    return EigenDecomposition(pairs=tuple(pairs), residual=residual)
