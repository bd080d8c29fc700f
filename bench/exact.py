"""Exact arithmetic owned by the benchmark, independent of projvf.

The generators build their inputs with these helpers and the correctness
checks verify outputs with them, so a change to projvf can neither move the
corpus nor vouch for its own answers. Polynomials are dicts from exponent
tuples to Fractions; matrices are lists of rows of Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations


def monomials(nvars: int, degree: int) -> list[tuple[int, ...]]:
    """All exponent tuples of the given total degree, in a fixed order."""
    out = []
    for bars in combinations(range(degree + nvars - 1), nvars - 1):
        exps, prev = [], -1
        for b in bars:
            exps.append(b - prev - 1)
            prev = b
        exps.append(degree + nvars - 2 - prev)
        out.append(tuple(exps))
    return out


def unit(nvars: int, i: int) -> tuple[int, ...]:
    return tuple(int(k == i) for k in range(nvars))


def padd(a: dict, b: dict, scale=1) -> dict:
    out = dict(a)
    for m, c in b.items():
        v = out.get(m, 0) + scale * c
        if v:
            out[m] = v
        else:
            out.pop(m, None)
    return out


def pmul(a: dict, b: dict) -> dict:
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            v = out.get(m, 0) + c1 * c2
            if v:
                out[m] = v
            else:
                out.pop(m, None)
    return out


def pdiff(p: dict, i: int) -> dict:
    out: dict = {}
    for m, c in p.items():
        if m[i]:
            mm = m[:i] + (m[i] - 1,) + m[i + 1 :]
            out[mm] = out.get(mm, 0) + c * m[i]
    return {m: c for m, c in out.items() if c}


def peval(p: dict, point) -> Fraction:
    total = Fraction(0)
    for m, c in p.items():
        v = Fraction(c)
        for x, e in zip(point, m):
            if e:
                v *= Fraction(x) ** e
        total += v
    return total


def linear_substitute(p: dict, P) -> dict:
    """p(P y): substitute x_i = sum_j P[i][j] * y_j."""
    n = len(P)
    lin = [{unit(n, j): Fraction(P[i][j]) for j in range(n) if P[i][j]} for i in range(n)]
    out: dict = {}
    for m, c in p.items():
        term = {(0,) * n: Fraction(c)}
        for i, e in enumerate(m):
            for _ in range(e):
                term = pmul(term, lin[i])
        out = padd(out, term)
    return out


def apply_field(A, p: dict) -> dict:
    """sum_ij A[i][j] * x_i * dp/dx_j, the derivation with matrix A."""
    n = len(A)
    out: dict = {}
    for j in range(n):
        dp = pdiff(p, j)
        for i in range(n):
            if A[i][j]:
                shifted = {tuple(e + (k == i) for k, e in enumerate(m)): c * A[i][j] for m, c in dp.items()}
                out = padd(out, shifted)
    return out


def poly_text(p: dict) -> str:
    """Canonical text: terms sorted by exponent tuple, coefficients as p/q."""
    return " + ".join(f"{c}*{list(m)}" for m, c in sorted(p.items())) or "0"


def matrix_text(M) -> str:
    return "[" + "; ".join(", ".join(str(Fraction(v)) for v in row) for row in M) + "]"


# -- matrices ---------------------------------------------------------------


def matmul(A, B):
    return [[sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(len(B[0]))] for i in range(len(A))]


def transpose(A):
    return [list(row) for row in zip(*A)]


def mat_vec(A, v):
    return [sum(a * x for a, x in zip(row, v)) for row in A]


def inverse(M):
    n = len(M)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(M)]
    for c in range(n):
        r = next(r for r in range(c, n) if aug[r][c])
        aug[c], aug[r] = aug[r], aug[c]
        piv = aug[c][c]
        aug[c] = [v / piv for v in aug[c]]
        for r in range(n):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[c])]
    return [row[n:] for row in aug]


def rank(rows) -> int:
    """Rank of a list of vectors, by elimination on sparse dict rows."""
    basis: dict = {}
    for row in rows:
        r = {k: Fraction(v) for k, v in enumerate(row) if v}
        while r:
            piv = min(r)
            if piv not in basis:
                c = r[piv]
                basis[piv] = {k: v / c for k, v in r.items()}
                break
            c = r[piv]
            for k, v in basis[piv].items():
                s = r.get(k, 0) - c * v
                if s:
                    r[k] = s
                else:
                    r.pop(k, None)
    return len(basis)


def null_space(rows, ncols: int):
    """A basis of {v : row . v = 0 for every row}."""
    grid = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        sel = next((i for i in range(r, len(grid)) if grid[i][c]), None)
        if sel is None:
            continue
        grid[r], grid[sel] = grid[sel], grid[r]
        piv = grid[r][c]
        grid[r] = [v / piv for v in grid[r]]
        for i in range(len(grid)):
            if i != r and grid[i][c]:
                f = grid[i][c]
                grid[i] = [a - f * b for a, b in zip(grid[i], grid[r])]
        pivots.append(c)
        r += 1
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -grid[i][free]
        basis.append(v)
    return basis


def unimodular(shape, signs, n: int, nonzeros: int):
    """L*U with unit triangular L, U carrying `nonzeros` entries of +-1 each;
    `shape` places the entries and `signs` draws their signs."""
    L = [[int(i == j) for j in range(n)] for i in range(n)]
    U = [row[:] for row in L]
    below = [(i, j) for i in range(n) for j in range(i)]
    for i, j in shape.sample(below, nonzeros):
        L[i][j] = signs.choice((-1, 1))
    for i, j in shape.sample(below, nonzeros):
        U[j][i] = signs.choice((-1, 1))
    return matmul(L, U)


def upoly_mul(a, b):
    """Product of univariate polynomials given as ascending coefficient lists."""
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out
