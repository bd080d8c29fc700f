"""Seeded case generators, owned by the benchmark.

Each generator takes the run seed and returns plain data (exponent dicts and
rational matrices), never projvf objects, so that no edit to projvf or its
tests can move the corpus. Each case also carries the facts its correctness
check needs: planted truths, certificates, or the raw input for an
independent oracle.

The shape of every case (which monomials appear, sizes, kinds) comes from a
fixed structure seed; the run seed draws the numbers (coefficients, weights,
points, conjugating matrices). The cost of a Groebner computation is set
mostly by the monomial support, so drawing supports per seed made the
latency percentiles of a 192-case smoothness corpus move by about 40% from
seed to seed, more than any change worth measuring.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

from exact import (
    inverse,
    linear_substitute,
    matmul,
    matrix_text,
    monomials,
    padd,
    peval,
    poly_text,
    transpose,
    unimodular,
    unit,
    upoly_mul,
)

STRUCTURE_SEED = 20010417

#: Step budget of every Groebner computation in smooth-dense and vanishes-ci.
#: No case of either exhausts it; the evidence is in bench/README.md.
MAX_STEPS = 2400
#: Budget of smooth-quartic, where a case can need more steps than any budget
#: that keeps a pass short; about half of its cases exhaust this one.
QUARTIC_MAX_STEPS = 600

NONZERO = [c for c in range(-9, 10) if c]


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def _structure(name: str) -> random.Random:
    return random.Random(f"{STRUCTURE_SEED}:{name}")


def _values(name: str, seed: int) -> random.Random:
    return random.Random(f"{seed}:{name}")


# -- smooth-dense -----------------------------------------------------------------

SMOOTH_BLOCKS = 3


def _hypersurfaces(name: str, seed: int, degrees) -> list[dict]:
    """One block holds one support for every (variables, degree, terms)
    triple, 3-10 terms in P^3 and P^4. Coefficients are nonzero integers in
    [-9, 9]."""
    shape, vals = _structure(name), _values(name, seed)
    cases = []
    for _ in range(SMOOTH_BLOCKS):
        for nvars in (4, 5):
            for degree in degrees:
                for nterms in range(3, 11):
                    support = shape.sample(monomials(nvars, degree), nterms)
                    terms = {m: Fraction(vals.choice(NONZERO)) for m in support}
                    cases.append({"label": f"P{nvars - 1}-d{degree}-t{nterms}", "nvars": nvars, "h": terms})
    return cases


def smooth_dense(seed: int) -> list[dict]:
    """Hypersurfaces in P^3 and P^4 of degree 2-3: 96 cases."""
    return _hypersurfaces("smooth-dense", seed, (2, 3))


def smooth_quartic(seed: int) -> list[dict]:
    """Quartics in P^3 and P^4: 48 cases."""
    return _hypersurfaces("smooth-quartic", seed, (4,))


def smooth_dense_text(case: dict) -> str:
    return f"{case['nvars']}: {poly_text(case['h'])}"


# -- vanishes-ci --------------------------------------------------------------------

VANISH_CASES = 160
N = 5  # P^4


def _form_through(shape, vals, nvars_used: int, degree: int, nterms: int, point) -> dict:
    """Random form in the first `nvars_used` variables that vanishes at `point`."""
    population = monomials(nvars_used, degree)
    support = shape.sample(population, min(nterms, len(population)))
    f = {m + (0,) * (N - nvars_used): Fraction(vals.choice(NONZERO)) for m in support}
    lead = (degree,) + (0,) * (N - 1)
    full = list(point) + [0] * (N - len(point))
    f = padd(f, {lead: peval(f, full) / Fraction(point[0]) ** degree}, -1)
    return f


def vanishes_ci(seed: int) -> list[dict]:
    """Linear fields and complete-intersection curves in P^4, half of them true.

    In the original coordinates the field is diagonal with a repeated weight
    `a` on an eigenspace E, and the curve is cut out by linear forms that
    define E (or a hyperplane of it) plus forms through a rational point p:
      plane: E = {x3 = x4 = 0}, curve V(x3, x4, f), deg f in {2, 3};
      space: E = {x4 = 0}, curve V(x4, f, g), deg f = 2, deg g in {2, 3}.
    A false case replaces x4 by the near miss x4 - lam*x0, which moves the
    curve off E; (p, lam*p0) is then a curve point where the field does not
    vanish. Field and curve are conjugated by a random unimodular integer
    matrix P (x = P y).
    """
    shape, vals = _structure("vanishes-ci"), _values("vanishes-ci", seed)
    cases = []
    for k in range(VANISH_CASES):
        kind = ("plane", "space")[k % 2]
        truth = (k // 2) % 2 == 0
        lam = vals.choice((1, -1, 2, -2))
        x4 = {unit(N, 4): Fraction(1)}
        line4 = x4 if truth else padd(x4, {unit(N, 0): Fraction(lam)}, -1)
        if kind == "plane":
            a, b, c = vals.sample(range(-3, 4), 3)
            weights = [a, a, a, b, c]
            point = [vals.choice((1, 2, -1)), vals.randint(-2, 2), vals.randint(-2, 2)]
            degree = shape.choice((2, 3))
            gens = [{unit(N, 3): Fraction(1)}, line4, _form_through(shape, vals, 3, degree, shape.randint(4, 8), point)]
            witness = point + [0, 0 if truth else lam * point[0]]
        else:
            a, c = vals.sample(range(-3, 4), 2)
            weights = [a, a, a, a, c]
            point = [vals.choice((1, 2, -1))] + [vals.randint(-2, 2) for _ in range(3)]
            gens = [
                line4,
                _form_through(shape, vals, 4, 2, shape.randint(4, 8), point),
                _form_through(shape, vals, 4, shape.choice((2, 3)), shape.randint(4, 8), point),
            ]
            witness = point + [0 if truth else lam * point[0]]
        P = unimodular(shape, vals, N, 3)
        P_inv = inverse(P)
        W = [[weights[i] if i == j else 0 for j in range(N)] for i in range(N)]
        # x = P y turns the field x' = W x into y' = P^-1 W P y; the
        # derivation matrix is the transpose of that map.
        field = transpose(matmul(matmul(P_inv, W), P))
        cases.append(
            {
                "label": f"{kind}-{'true' if truth else 'false'}",
                "truth": truth,
                "gens": [linear_substitute(g, P) for g in gens],
                "field": [[Fraction(v) for v in row] for row in field],
                "eigenvalue": Fraction(a),
                "witness": [sum(P_inv[i][j] * witness[j] for j in range(N)) for i in range(N)],
            }
        )
    return cases


def vanishes_ci_text(case: dict) -> str:
    return matrix_text(case["field"]) + " | " + " ; ".join(poly_text(g) for g in case["gens"])


# -- stabilizer-eigen ----------------------------------------------------------------

STAB_BLOCKS = 6
#: Irreducible residual factors over Q (no rational roots), ascending coefficients.
IRRATIONAL_FACTORS = ([-2, 0, 1], [-3, 0, 1], [1, 0, 1], [1, 1, 1], [-5, 0, 1], [-2, 0, 0, 1])
#: Keeps the characteristic polynomial's constant term far from the range where
#: the trial-division root search of rational_eigen stops finishing.
MAX_CONSTANT_TERM = 10**6


def _planted_matrix(shape, vals, n: int, irrational: bool):
    """S J S^-1 with J block diagonal: rational Jordan blocks, then companion blocks."""
    factors = []
    if irrational:
        factors = [shape.choice(IRRATIONAL_FACTORS)]
        if n >= 8:
            factors.append(shape.choice(IRRATIONAL_FACTORS))
    size_rational = n - sum(len(f) - 1 for f in factors)
    J = [[Fraction(0)] * n for _ in range(n)]
    spectrum: dict = {}  # eigenvalue -> [algebraic, geometric]
    i = 0
    while i < size_rational:
        block = min(shape.choice((1, 1, 1, 2)), size_rational - i)
        value = Fraction(vals.randint(-3, 3))
        for k in range(block):
            J[i + k][i + k] = value
            if k:
                J[i + k - 1][i + k] = Fraction(1)
        alg_geo = spectrum.setdefault(value, [0, 0])
        alg_geo[0] += block
        alg_geo[1] += 1
        i += block
    residual = [Fraction(1)]
    for f in factors:
        d = len(f) - 1
        for k in range(1, d):  # companion matrix of the monic factor
            J[i + k][i + k - 1] = Fraction(1)
        for k in range(d):
            J[i + k][i + d - 1] = Fraction(-f[k])
        residual = upoly_mul(residual, [Fraction(c) for c in f])
        i += d
    S = unimodular(shape, vals, n, n)
    M = matmul(matmul(S, J), inverse(S))
    constant = residual[0]  # of the characteristic polynomial once zero roots are divided out
    for value, (alg, _) in spectrum.items():
        if value:
            constant *= value**alg
    if abs(constant) > MAX_CONSTANT_TERM:
        raise ValueError("planted spectrum exceeds the constant-term bound")
    return M, {v: tuple(ag) for v, ag in spectrum.items()}, residual


def stabilizer_eigen(seed: int) -> list[dict]:
    """Dense hypersurfaces (every monomial present) of degree 2-4 in P^3 and P^4,
    and 5x5 to 10x10 matrices with a planted spectrum, rational or with an
    irrational residual factor. One block: 6 hypersurfaces and 12 matrices."""
    shape, vals = _structure("stabilizer-eigen"), _values("stabilizer-eigen", seed)
    cases = []
    for _ in range(STAB_BLOCKS):
        for nvars in (4, 5):
            for degree in (2, 3, 4):
                terms = {m: Fraction(vals.choice(NONZERO)) for m in monomials(nvars, degree)}
                cases.append({"label": f"stabilizer-P{nvars - 1}-d{degree}", "kind": "stabilizer", "nvars": nvars, "h": terms})
        for n in range(5, 11):
            for irrational in (False, True):
                M, spectrum, residual = _planted_matrix(shape, vals, n, irrational)
                cases.append(
                    {
                        "label": f"eigen-{n}x{n}-{'irrational' if irrational else 'rational'}",
                        "kind": "eigen",
                        "matrix": M,
                        "spectrum": spectrum,
                        "residual": residual,
                    }
                )
    return cases


def stabilizer_eigen_text(case: dict) -> str:
    if case["kind"] == "stabilizer":
        return f"{case['nvars']}: {poly_text(case['h'])}"
    return matrix_text(case["matrix"])
