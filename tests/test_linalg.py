import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from projvf import (
    InputError,
    RatMatrix,
    ResourceLimitError,
    UnivariatePoly,
    char_poly,
    kernel_basis,
    rational_eigen,
    rref,
)
from support import (
    diagonal,
    identity,
    mat_add,
    mat_mul,
    mat_scale,
    matrix_from_strings,
    mul_vec,
    poly_mul,
    rand_fraction,
    rand_matrix,
    zeros,
)


class TestRref:
    def test_identity(self):
        M = identity(4)
        R, rank = rref(M)
        assert R == M and rank == 4

    def test_zero(self):
        M = zeros(3, 3)
        R, rank = rref(M)
        assert R == M and rank == 0

    def test_rank_one(self):
        R, rank = rref(RatMatrix([[1, 2], [2, 4]]))
        assert R == RatMatrix([[1, 2], [0, 0]]) and rank == 1

    def test_agrees_with_sympy_rref(self):
        sympy = pytest.importorskip("sympy")
        for M in elimination_corpus():
            ours = [[sympy.Rational(v.numerator, v.denominator) for v in row] for row in M.entries]
            theirs, pivots = sympy.Matrix(ours).rref()
            R, rank = rref(M)
            assert R == RatMatrix([[Fraction(int(x.p), int(x.q)) for x in row] for row in theirs.tolist()])
            assert rank == len(pivots)


def elimination_corpus():
    """Seeded rational matrices for row reduction: tall, wide and square, each
    of full rank, rank-deficient (a product through a narrower factor) and with
    zero rows, in three entry mixes: small integers with many zeros, p/q with
    |p|, q <= 9, and p/q with |p|, q <= 10^6."""
    rng = random.Random(1968)
    mixes = (
        lambda: Fraction(rng.choice((0, 0, 0, 1, -1, 2, -3))),
        lambda: rand_fraction(rng),
        lambda: Fraction(rng.randint(-(10**6), 10**6), rng.randint(1, 10**6)),
    )
    corpus = []
    for entry in mixes:

        def grid(rows, cols):
            return [[entry() for _ in range(cols)] for _ in range(rows)]

        for rows, cols in ((1, 1), (1, 5), (5, 1), (7, 3), (3, 7), (5, 5), (9, 6)):
            corpus.append(RatMatrix(grid(rows, cols)))
            inner = max(1, min(rows, cols) - 2)
            corpus.append(mat_mul(RatMatrix(grid(rows, inner)), RatMatrix(grid(inner, cols))))
            with_zeros = grid(rows, cols)
            for r in rng.sample(range(rows), (rows + 1) // 2):
                with_zeros[r] = [Fraction(0)] * cols
            corpus.append(RatMatrix(with_zeros))
    return corpus


class TestKernel:
    def test_zero_matrix(self):
        basis = kernel_basis(zeros(3, 3))
        assert basis == [
            (1, 0, 0),
            (0, 1, 0),
            (0, 0, 1),
        ]

    def test_identity(self):
        assert kernel_basis(identity(3)) == []

    def test_single_row(self):
        basis = kernel_basis(RatMatrix([[1, 1, 0]]))
        assert len(basis) == 2
        for v in basis:
            assert v[0] + v[1] == 0 or v == (0, 0, 1)

    @given(st.integers(0, 10**9), st.integers(1, 5), st.integers(1, 5))
    @settings(max_examples=100)
    def test_rank_nullity(self, seed, rows, cols):
        M = RatMatrix(rand_matrix(random.Random(seed), rows, cols))
        _, rank = rref(M)
        assert rank + len(kernel_basis(M)) == cols

    @given(st.integers(0, 10**9), st.integers(2, 4))
    @settings(max_examples=60)
    def test_kernel_vectors_annihilate(self, seed, n):
        M = RatMatrix(rand_matrix(random.Random(seed), n, n))
        for v in kernel_basis(M):
            assert mul_vec(M, v) == (Fraction(0),) * n


class TestCharPoly:
    def test_weight_diagonal(self):
        # t^3 (t-1)(t+1) = t^5 - t^3
        M = diagonal([0, 0, 0, 1, -1])
        assert char_poly(M) == UnivariatePoly.of([0, 0, 0, -1, 0, 1])

    def test_identity(self):
        assert char_poly(identity(2)) == UnivariatePoly.of([1, -2, 1])

    def test_zero(self):
        assert char_poly(zeros(4, 4)) == UnivariatePoly.of([0, 0, 0, 0, 1])

    def test_non_square(self):
        with pytest.raises(InputError, match="^characteristic polynomial of a non-square matrix$"):
            char_poly(zeros(2, 3))

    @given(st.integers(0, 10**9), st.integers(1, 4))
    @settings(max_examples=80)
    def test_cayley_hamilton(self, seed, n):
        M = RatMatrix(rand_matrix(random.Random(seed), n, n))
        p = char_poly(M)
        acc = zeros(n, n)
        power = identity(n)
        for c in p.coeffs:
            acc = mat_add(acc, mat_scale(power, c))
            power = mat_mul(power, M)
        assert acc == zeros(n, n)

    def test_cayley_hamilton_with_denominators(self):
        for M in rational_corpus():
            n = M.rows
            acc = zeros(n, n)
            power = identity(n)
            for c in char_poly(M).coeffs:
                acc = mat_add(acc, mat_scale(power, c))
                power = mat_mul(power, M)
            assert acc == zeros(n, n)

    def test_agrees_with_sympy_charpoly(self):
        sympy = pytest.importorskip("sympy")
        t = sympy.Symbol("t")
        for M in rational_corpus():
            theirs = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row] for row in M.entries])
            expected = [Fraction(int(c.p), int(c.q)) for c in reversed(theirs.charpoly(t).all_coeffs())]
            assert char_poly(M) == UnivariatePoly.of(expected)


def rational_corpus():
    """Six seeded matrices of each size 1x1 to 7x7, with entries p/q, |p| <= 9
    and 1 <= q <= 9, and at least two distinct denominators above 1 (one for a
    1x1), so that the integer recurrence must rescale its coefficients by den^k."""
    rng = random.Random(2718)
    corpus = []
    for n in range(1, 8):
        while len(corpus) < 6 * n:
            M = RatMatrix([[rand_fraction(rng) for _ in range(n)] for _ in range(n)])
            if len({v.denominator for row in M.entries for v in row} - {1}) >= min(n, 2):
                corpus.append(M)
    return corpus


class TestRationalEigen:
    def test_weight_diagonal(self):
        M = diagonal([0, 0, 0, 1, -1])
        eigen = rational_eigen(M)
        assert eigen.residual.is_one()
        by_value = {p.value: p for p in eigen.pairs}
        assert set(by_value) == {Fraction(-1), Fraction(0), Fraction(1)}
        assert len(by_value[Fraction(0)].space) == 3
        assert by_value[Fraction(1)].space == ((0, 0, 0, 1, 0),)
        assert by_value[Fraction(-1)].space == ((0, 0, 0, 0, 1),)

    def test_rotation_has_no_rational_spectrum(self):
        eigen = rational_eigen(RatMatrix([[0, -1], [1, 0]]))
        assert eigen.pairs == ()
        assert eigen.residual == UnivariatePoly.of([1, 0, 1])

    def test_line_pair_diagonal(self):
        eigen = rational_eigen(diagonal([0, 0, 1, 1]))
        dims = {p.value: len(p.space) for p in eigen.pairs}
        assert dims == {Fraction(0): 2, Fraction(1): 2}

    def test_fractional_eigenvalue(self):
        eigen = rational_eigen(RatMatrix([[Fraction(1, 2), 0], [1, 3]]))
        assert {p.value for p in eigen.pairs} == {Fraction(1, 2), Fraction(3)}

    @given(st.integers(0, 10**9), st.integers(2, 4))
    @settings(max_examples=60, deadline=None)
    def test_eigen_pairs_are_exact(self, seed, n):
        M = RatMatrix(rand_matrix(random.Random(seed), n, n, span=3))
        eigen = rational_eigen(M)
        total_mult = sum(p.multiplicity for p in eigen.pairs)
        assert total_mult + max(eigen.residual.degree, 0) == n
        for pair in eigen.pairs:
            shifted = mat_add(M, mat_scale(identity(n), -pair.value))
            assert pair.space
            for v in pair.space:
                assert mul_vec(shifted, v) == (Fraction(0),) * n
            # geometric multiplicity never exceeds algebraic
            assert len(pair.space) <= pair.multiplicity

    @given(st.integers(0, 10**9), st.integers(2, 4))
    @settings(max_examples=40, deadline=None)
    def test_factorisation_reconstructs_char_poly(self, seed, n):
        M = RatMatrix(rand_matrix(random.Random(seed), n, n, span=3))
        eigen = rational_eigen(M)
        product = eigen.residual if eigen.residual.coeffs else UnivariatePoly.of([1])
        for pair in eigen.pairs:
            linear = UnivariatePoly.of([-pair.value, 1])
            for _ in range(pair.multiplicity):
                product = poly_mul(product, linear)
        assert product == char_poly(M)

    def test_root_search_runs_under_the_step_budget(self):
        a0 = (10**15 + 37) * (10**3 + 9)
        with pytest.raises(ResourceLimitError):
            rational_eigen(RatMatrix([[0, 1], [-a0, 0]]))
        # t^2 + 36: isqrt(36) + isqrt(1) = 7 trial divisions, 2 * 9 * 1 = 18 candidates
        M = RatMatrix([[0, 1], [-36, 0]])
        assert rational_eigen(M, max_steps=25).residual == UnivariatePoly.of([36, 0, 1])
        with pytest.raises(ResourceLimitError):
            rational_eigen(M, max_steps=24)

    def test_root_search_on_a_matrix_with_denominators_charges_the_same_steps(self):
        # det(tI - M) = t^2 - 7/2 t + 3/2, scaled to 2t^2 - 7t + 3: isqrt(3) + isqrt(2) = 2 trial
        # divisions, 2 * 2 * 2 = 8 candidates
        M = RatMatrix([[Fraction(1, 2), 0], [1, 3]])
        eigen = rational_eigen(M, max_steps=10)
        assert [(p.value, p.multiplicity) for p in eigen.pairs] == [(Fraction(1, 2), 1), (3, 1)]
        with pytest.raises(ResourceLimitError):
            rational_eigen(M, max_steps=9)

    def test_default_budget_on_large_denominators(self):
        # I/1000: (1000t - 1)^5 has a constant term of -1 and a leading one of 10^15, whose
        # 31,622,776 trial divisions exceed the default budget
        with pytest.raises(ResourceLimitError):
            rational_eigen(RatMatrix([[Fraction(int(i == j), 1000) for j in range(5)] for i in range(5)]))
        # diag(1/10, 10^8, 1, 1, 1) is decided: (10t - 1)(t - 10^8)(t - 1)^3 has -10^8 and 10 at its ends
        eigen = rational_eigen(diagonal([Fraction(1, 10), 10**8, 1, 1, 1]))
        assert [(p.value, p.multiplicity) for p in eigen.pairs] == [(Fraction(1, 10), 1), (1, 3), (10**8, 1)]
        assert eigen.residual.is_one()

    @pytest.mark.parametrize("seed", range(60))
    def test_factorisation_with_denominators_reconstructs_char_poly(self, seed):
        rng = random.Random(seed)
        n = 2 + seed % 3
        dense = [[rand_fraction(rng) for _ in range(n)] for _ in range(n)]
        # an upper-triangular matrix has its diagonal, fractions included, as rational eigenvalues
        triangular = [[rand_fraction(rng) if j >= i else 0 for j in range(n)] for i in range(n)]
        for rows in (dense, triangular):
            M = RatMatrix(rows)
            eigen = rational_eigen(M)
            product = eigen.residual
            for pair in eigen.pairs:
                for _ in range(pair.multiplicity):
                    product = poly_mul(product, UnivariatePoly.of([-pair.value, 1]))
            assert product == char_poly(M)
        values = [p.value for p in rational_eigen(RatMatrix(triangular)).pairs for _ in range(p.multiplicity)]
        assert values == sorted(triangular[i][i] for i in range(n))

    def test_negative_budget_is_spent_only_by_a_root_search(self):
        # t^2 has only the root 0, which is split off before any search
        eigen = rational_eigen(RatMatrix([[0, 1], [0, 0]]), max_steps=-1)
        assert [(p.value, p.multiplicity) for p in eigen.pairs] == [(0, 2)]
        assert eigen.residual == UnivariatePoly.of([1])
        with pytest.raises(ResourceLimitError, match="^rational root search exceeded the configured step budget$"):
            rational_eigen(RatMatrix([[0, 1], [-36, 0]]), max_steps=-1)

    def test_agrees_with_sympy_eigenvects(self):
        sympy = pytest.importorskip("sympy")
        t = sympy.Symbol("t")
        for M in planted_corpus(sympy):
            eigen = rational_eigen(RatMatrix([[Fraction(int(x.p), int(x.q)) for x in row] for row in M.tolist()]))
            found = M.eigenvects()
            rational = [(value, mult, vecs) for value, mult, vecs in found if value.is_Rational]
            assert {p.value: (p.multiplicity, len(p.space)) for p in eigen.pairs} == {
                Fraction(int(value.p), int(value.q)): (mult, len(vecs)) for value, mult, vecs in rational
            }
            for pair in eigen.pairs:
                vecs = next(vecs for value, _, vecs in rational if value == sympy.Rational(pair.value))
                ours = sympy.Matrix([[sympy.Rational(x) for x in v] for v in pair.space])
                assert ours.rank() == sympy.Matrix.vstack(ours, *(v.T for v in vecs)).rank() == len(vecs)
            # the residual is exactly the product of (t - value)^mult over the other eigenvalues
            residual = sum(sympy.Rational(c) * t**k for k, c in enumerate(eigen.residual.coeffs))
            others = [(value, mult) for value, mult, _ in found if not value.is_Rational]
            assert eigen.residual.coeffs[-1] == 1
            assert eigen.residual.degree == sum(mult for _, mult in others)
            for value, mult in others:
                for k in range(mult):
                    assert sympy.expand(sympy.diff(residual, t, k).subs(t, value)) == 0


#: monic irreducible factors over Q of degree 2 and 3, ascending coefficients
IRREDUCIBLE = ([-2, 0, 1], [1, 0, 1], [1, 1, 1], [-3, 0, 1], [-2, 0, 0, 1])


def planted_corpus(sympy):
    """Seeded 3x3 to 6x6 matrices S J S^-1: S an integer matrix of determinant 1,
    J block diagonal with rational Jordan blocks of size 1-2 and, in half the
    cases, the companion block of an irreducible factor (irrational residual)."""
    rng = random.Random(5150)
    corpus = []
    for n in (3, 4, 5, 6):
        for case in range(6):
            blocks = []
            if case % 2:
                factor = rng.choice([f for f in IRREDUCIBLE if len(f) <= n])
                d = len(factor) - 1
                companion = sympy.zeros(d, d)
                for i in range(1, d):
                    companion[i, i - 1] = 1
                for i in range(d):
                    companion[i, d - 1] = -factor[i]
                blocks.append(companion)
            size = sum(b.rows for b in blocks)
            values = [rng.choice((-2, -1, 0, 1, 3, sympy.Rational(1, 2), sympy.Rational(-3, 2))) for _ in range(2)]
            while size < n:
                k = min(rng.randint(1, 2), n - size)
                jordan = sympy.eye(k) * rng.choice(values)
                if k == 2:
                    jordan[0, 1] = 1
                blocks.append(jordan)
                size += k
            S = sympy.eye(n)
            for _ in range(2 * n):
                i, j = rng.sample(range(n), 2)
                S[i, :] = S[i, :] + rng.choice((-2, -1, 1, 2)) * S[j, :]
            corpus.append(S * sympy.diag(*blocks) * S.inv())
    return corpus


class TestUnivariate:
    def test_str(self):
        assert str(UnivariatePoly.of([0, 0, 0, -1, 0, 1])) == "t^5 - t^3"
        assert str(UnivariatePoly.of([1, 0, 1])) == "t^2 + 1"
        assert str(UnivariatePoly.of([])) == "0"
        assert str(UnivariatePoly.of([Fraction(3, 2)])) == "3/2"


def test_matrix_string_round_trip():
    M = RatMatrix([[Fraction(1, 2), -3], [0, Fraction(7, 5)]])
    assert matrix_from_strings(M.to_strings()) == M
