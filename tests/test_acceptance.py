"""Acceptance suite: the package's release gate, one test per criterion.

Every check is exact (rational arithmetic, zero tolerance) and the criteria
with runtime budgets assert them. The golden fixtures are the ones
``projvf verify-paper`` runs, imported from ``projvf.verify``; a criterion
that states what one of its checks computes runs that check, and adds only
the assertions that take another route (the brute-force oracles, explicit
eigenvectors, point evaluations). One PASS/FAIL line per criterion is printed
straight to the terminal, bypassing capture.
"""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from projvf import (
    Ideal,
    RatMatrix,
    VarContext,
    buchberger,
    char_poly,
    coefficient_identity,
    degree_case_table,
    fano_genus,
    ideal_member,
    nonexistence_check,
    parse_poly,
    rational_eigen,
    zero_locus_ideal,
)
from projvf.verify import CHECKS, FERMAT, LINE_FIELD, P3, QUADRIC
from support import (
    SMALL,
    brute_force_member,
    brute_force_stabilizer_dimension,
    evaluate,
    identity,
    mat_add,
    mat_mul,
    mat_scale,
    partial_derivative,
    rand_homogeneous,
    rand_matrix,
    rand_poly,
    zeros,
)


@contextmanager
def criterion(capsys, number, name, limit=None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"criterion {number:2d} FAIL  {name}")
        raise
    elapsed = time.monotonic() - start
    if limit is not None:
        assert elapsed < limit, f"criterion {number} took {elapsed:.2f}s (limit {limit}s)"
    with capsys.disabled():
        print(f"criterion {number:2d} PASS  {name} ({elapsed:.3f}s)")


def run_check(name):
    """Run the ``verify-paper`` check of that name and assert that it passes."""
    ok, detail = dict(CHECKS)[name]()
    assert ok, f"{name}: {detail}"


def test_c01_quadric_golden_case(capsys):
    with criterion(capsys, 1, "quadric derivative vanishes exactly", limit=0.1):
        run_check("quadric-derivative-vanishes")


def test_c02_quadric_vanishing_verdict(capsys):
    with criterion(capsys, 2, "quadric curve verdict (stabilizes, smooth, vanishes)", limit=5.0):
        run_check("quadric-curve-verdict")


def test_c03_coefficient_identities(capsys):
    with criterion(capsys, 3, "scaling identities for degrees 2, 3, 4"):
        for d in (2, 3, 4):
            rep = coefficient_identity(d)
            assert rep.top_holds, f"degree {d}: top identity"
            assert rep.bottom_holds, f"degree {d}: bottom identity"
            ctx = rep.top_expected.context
            c, a = ctx.variable("c"), ctx.variable("a")
            assert rep.top_expected == c * (d - 1) + c * a
            assert rep.bottom_expected == c * (1 - (d - 1) ** 2)


def test_c04_nonexistence_certificates(capsys):
    with criterion(capsys, 4, "nonexistence certificates for degrees 3 and 4"):
        for d, expected_weights in ((3, (-4, -4, -4, -3, -6)), (4, (-9, -9, -9, -8, -12))):
            cert = nonexistence_check(d)
            assert cert.valid
            assert cert.no_forbidden_allowed
            assert tuple(w for _, w in cert.forbidden_weights) == expected_weights
            assert all(w != 0 for _, w in cert.forbidden_weights)
            assert cert.vertex_value_zero and cert.vertex_gradient_zero


def test_c05_line_pair_golden_case(capsys):
    with criterion(capsys, 5, "zero locus of the line-pair field in four variables"):
        # the minor ideal is the two-line ideal, the eigenspaces have dimension 2
        run_check("line-pair-zero-locus")

        eigen = rational_eigen(RatMatrix(LINE_FIELD.constant_entries()).transpose())
        spaces = {pair.value: set(pair.space) for pair in eigen.pairs}
        assert spaces == {
            Fraction(0): {(1, 0, 0, 0), (0, 1, 0, 0)},
            Fraction(1): {(0, 0, 1, 0), (0, 0, 0, 1)},
        }

        # rational spot check: the minors vanish exactly on the two lines
        locus = zero_locus_ideal(LINE_FIELD)
        for point in itertools.product((-1, 0, 1), repeat=4):
            if not any(point):
                continue
            on_locus = all(
                evaluate(g, dict(zip(P3.names, point))) == 0 for g in locus.generators
            )
            on_lines = (point[2] == point[3] == 0) or (point[0] == point[1] == 0)
            assert on_locus == on_lines


def test_c06_fano_genus_table(capsys):
    with criterion(capsys, 6, "index/genus table, all 18 rows"):
        rows = [
            (4, 1), (3, 2), (2, 1), (2, 2), (2, 3), (2, 4), (2, 5),
            (1, 2), (1, 4), (1, 4), (1, 6), (1, 8), (1, 10), (1, 12),
            (1, 14), (1, 16), (1, 18), (1, 22),
        ]
        expected = [33, 28, 5, 9, 13, 17, 21, 2, 3, 3, 4, 5, 6, 7, 8, 9, 10, 12]
        assert [fano_genus(r, cube) for r, cube in rows] == expected


def test_c07_degree_case_table(capsys):
    with criterion(capsys, 7, "degree case table, all four groups"):
        rows = degree_case_table()
        grouped = {}
        for c in rows:
            grouped.setdefault(c.gen_cube, []).append((c.degree, c.fano_index, c.verdict))
        assert grouped[4] == [(1, 1, "quartic")]
        assert grouped[3] == [(1, 2, "cubic")]
        assert grouped[2] == [(1, 3, "quadric"), (2, 2, "quadric"), (3, 1, "quadric")]
        assert grouped[1] == [(1, 4, "P^3"), (2, 4, "P^3"), (3, 4, "P^3")]
        for c in rows:
            assert c.divisor_index == 4 - c.gen_cube * c.degree
            assert c.fano_index == c.divisor_index + c.degree >= 1


def test_c08_smoothness_criterion(capsys):
    with criterion(capsys, 8, "smoothness of diagonal hypersurfaces, singularity of the cone", limit=10.0):
        run_check("smoothness-criterion")


def test_c09_groebner_oracle_equivalence(capsys):
    with criterion(capsys, 9, "ideal membership agrees with the truncated linear oracle", limit=60.0):
        rng = random.Random(90125)
        ideals = 0
        queries = 0
        while ideals < 24:
            gens = [
                rand_poly(rng, P3, max_degree=rng.randint(1, 3), max_terms=3)
                for _ in range(rng.randint(1, 3))
            ]
            gens = [g for g in gens if g]
            if not gens:
                continue
            ideal = Ideal.spanned_by(P3, gens)
            ideals += 1
            for _ in range(5):
                if rng.random() < 0.5:
                    f = sum(
                        (rand_poly(rng, P3, max_degree=1, max_terms=2) * g for g in gens),
                        P3.zero(),
                    )
                else:
                    f = rand_poly(rng, P3, max_degree=3, max_terms=3)
                expected = brute_force_member(f, gens)
                assert ideal_member(f, ideal) == expected
                queries += 1
        assert ideals >= 20 and queries >= 100


def test_c10_stabilizer_dimensions(capsys):
    with criterion(capsys, 10, "stabilizer dimensions: quadric 11, diagonal cubic 1"):
        run_check("stabilizer-dimensions")
        assert brute_force_stabilizer_dimension(QUADRIC) == 11
        assert brute_force_stabilizer_dimension(FERMAT[3]) == 1


def test_c11_property_suites(capsys):
    with criterion(capsys, 11, "five randomized property suites, 200 cases each", limit=60.0):
        params = VarContext(("x0", "x1"), ("a", "c"))

        rng = random.Random(11_01)
        for _ in range(200):  # Leibniz rule
            p = rand_poly(rng, SMALL, max_degree=3, max_terms=3)
            q = rand_poly(rng, SMALL, max_degree=3, max_terms=3)
            var = rng.choice(SMALL.projective)
            lhs = partial_derivative(p * q, var)
            assert lhs == partial_derivative(p, var) * q + p * partial_derivative(q, var)

        rng = random.Random(11_02)
        for _ in range(200):  # Euler identity
            degree = rng.randint(1, 4)
            p = rand_homogeneous(rng, SMALL, degree)
            total = SMALL.zero()
            for v in SMALL.projective:
                total = total + SMALL.variable(v) * partial_derivative(p, v)
            assert total == degree * p

        rng = random.Random(11_03)
        for _ in range(200):  # Cayley-Hamilton
            n = rng.randint(1, 4)
            M = RatMatrix(rand_matrix(rng, n, n, span=4))
            acc = zeros(n, n)
            power = identity(n)
            for c in char_poly(M).coeffs:
                acc = mat_add(acc, mat_scale(power, c))
                power = mat_mul(power, M)
            assert acc == zeros(n, n)

        rng = random.Random(11_04)
        for _ in range(200):  # reduced-basis uniqueness under permutation
            gens = [rand_poly(rng, SMALL, max_degree=2, max_terms=3) for _ in range(2)]
            gens = [g for g in gens if g]
            if not gens:
                continue
            results = {
                tuple(str(p) for p in buchberger(Ideal.spanned_by(SMALL, perm)).basis)
                for perm in itertools.permutations(gens)
            }
            assert len(results) == 1

        rng = random.Random(11_05)
        for _ in range(200):  # parse/print round trip
            ctx = params if rng.random() < 0.5 else SMALL
            p = rand_poly(rng, ctx, max_degree=4, max_terms=5, projective_only=False)
            assert parse_poly(str(p), ctx) == p
