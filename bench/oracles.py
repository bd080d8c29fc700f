"""Independent correctness routes, run outside the timed region.

Each check takes a case's generated data and the plain form of projvf's
answer and returns whether the answer is right. None of them calls projvf:
smoothness goes to sympy's Groebner bases, the vanishing and eigen cases are
decided by their planted truth and certificates, stabilizers are verified
with the benchmark's own exact arithmetic, and CLI output is compared byte
for byte with the output recorded from the seed code.
"""

from __future__ import annotations

from fractions import Fraction

from exact import apply_field, mat_vec, null_space, padd, pdiff, peval, rank, unit

# -- smooth-dense: sympy --------------------------------------------------------


def sympy_smooth(nvars: int, h: dict) -> bool:
    """Smooth iff every variable has a pure power among the leading monomials
    of a grevlex Groebner basis of (h, dh/dx0, ..., dh/dxn)."""
    from sympy import QQ
    from sympy.polys.groebnertools import groebner
    from sympy.polys.orderings import grevlex
    from sympy.polys.rings import ring

    R, *xs = ring(",".join(f"x{i}" for i in range(nvars)), QQ, grevlex)
    f = R.from_dict({m: QQ(c.numerator, c.denominator) for m, c in h.items()})
    gens = [g for g in [f] + [f.diff(x) for x in xs] if g]
    leading = [g.LM for g in groebner(gens, R)]
    return all(any(m[i] and sum(m) == m[i] for m in leading) for i in range(nvars))


def smooth_ok(case: dict, verdict: bool) -> bool:
    return verdict == sympy_smooth(case["nvars"], case["h"])


# -- vanishes-ci: planted truth -------------------------------------------------------


def _parallel(u, v) -> bool:
    return all(u[i] * v[j] == u[j] * v[i] for i in range(len(u)) for j in range(i + 1, len(u)))


def vanishing_truth(case: dict):
    """Re-derive the planted verdict from its certificate; None if it fails.

    True: the linear generators cut out a subspace on which the field's
    linear map (transpose of the derivation matrix) is the eigenvalue times
    the identity, so the field vanishes on the whole curve. False: the
    witness lies on the curve and the field there is not parallel to it.
    """
    field_map = [list(col) for col in zip(*case["field"])]
    n = len(field_map)
    if case["truth"]:
        linear = [g for g in case["gens"] if all(sum(m) == 1 for m in g)]
        rows = [[g.get(unit(n, j), 0) for j in range(n)] for g in linear]
        lam = case["eigenvalue"]
        holds = all(mat_vec(field_map, v) == [lam * x for x in v] for v in null_space(rows, n))
        return True if holds else None
    q = case["witness"]
    on_curve = any(q) and all(peval(g, q) == 0 for g in case["gens"])
    return False if on_curve and not _parallel(mat_vec(field_map, q), q) else None


def vanishes_ok(case: dict, verdict: bool) -> bool:
    return verdict == case["truth"] == vanishing_truth(case)


# -- stabilizer-eigen: own arithmetic and planted spectra --------------------------------


def stabilizer_dimension(nvars: int, h: dict) -> int:
    """Corank of the coefficient-matching system  D_A h - c*h = 0."""
    columns = []
    for i in range(nvars):
        for j in range(nvars):
            dh = pdiff(h, j)
            columns.append({tuple(e + (k == i) for k, e in enumerate(m)): c for m, c in dh.items()})
    columns.append({m: -c for m, c in h.items()})
    monos = sorted({m for col in columns for m in col})
    return len(columns) - rank([[col.get(m, 0) for col in columns] for m in monos])


def stabilizer_ok(case: dict, pairs) -> bool:
    """pairs: [(matrix rows, scaling)]. A basis of the right size whose every
    pair satisfies the equation spans the whole solution space."""
    h = case["h"]
    for A, lam in pairs:
        if padd(apply_field(A, h), h, -lam):
            return False
    flat = [[v for row in A for v in row] + [lam] for A, lam in pairs]
    return rank(flat) == len(pairs) == stabilizer_dimension(case["nvars"], h)


def eigen_ok(case: dict, decomposition) -> bool:
    """decomposition: ([(value, multiplicity, [vectors])], residual coefficients)."""
    pairs, residual = decomposition
    M = case["matrix"]
    if {value: (mult, len(space)) for value, mult, space in pairs} != case["spectrum"]:
        return False
    for value, _, space in pairs:
        for v in space:
            if not any(v) or mat_vec(M, v) != [value * x for x in v]:
                return False
        if rank(space) != len(space):
            return False
    return list(residual) == [Fraction(c) for c in case["residual"]]


def cli_ok(expected: dict, result) -> bool:
    code, stdout = result
    return code == expected["exit"] and stdout == expected["stdout"]
