import random
from fractions import Fraction

import pytest

from projvf import (
    ConeShapeError,
    Derivation,
    Ideal,
    InputError,
    RatMatrix,
    VarContext,
    char_poly,
    check_vanishing_on_curve,
    coefficient_identity,
    cone_shape,
    degree_case_table,
    fano_genus,
    is_smooth_projective,
    monomials_of_degree,
    nonexistence_check,
    parse_poly,
    stabilizer_algebra,
    structured_derivation,
    INDEX_GENUS_TABLE,
    Polynomial,
    UnivariatePoly,
)
from projvf.verify import FERMAT, P3, P4, QUADRIC, QUADRIC_CURVE as CURVE, QUADRIC_FIELD as FIELD
from support import (
    P4C,
    SMALL,
    brute_force_stabilizer_dimension,
    euler,
    identity,
    mat_mul,
    partial_derivative,
    rand_fraction,
    rand_homogeneous,
    spans,
    stabilizer_reference,
    substitute,
)


class TestStabilizer:
    def test_two_variable_product(self):
        ctx = VarContext(("x0", "x1"))
        sol = stabilizer_algebra(parse_poly("x0*x1", ctx))
        assert sol.dimension == 2
        for A, lam in sol.pairs:
            assert A.entries[0][1] == 0 and A.entries[1][0] == 0
            assert lam == A.entries[0][0] + A.entries[1][1]

    def test_quadric_dimension(self):
        sol = stabilizer_algebra(QUADRIC)
        assert sol.dimension == 11
        assert brute_force_stabilizer_dimension(QUADRIC) == 11

    def test_diagonal_cubic_dimension(self):
        sol = stabilizer_algebra(FERMAT[3])
        assert sol.dimension == 1
        assert brute_force_stabilizer_dimension(FERMAT[3]) == 1

    def test_every_pair_satisfies_the_equation(self):
        sol = stabilizer_algebra(QUADRIC)
        for A, lam in sol.pairs:
            D = Derivation.from_rows(P4, A.entries)
            assert D(QUADRIC) == lam * QUADRIC

    def test_euler_pair_in_span(self):
        for h, degree in ((QUADRIC, 2), (FERMAT[3], 3)):
            sol = stabilizer_algebra(h)
            assert spans(sol, identity(5), Fraction(degree))
            assert not spans(sol, identity(5), Fraction(degree + 1))

    @pytest.mark.parametrize("seed", [7, 19, 23])
    def test_dimension_invariant_under_coordinate_change(self, seed):
        rng = random.Random(seed)
        upper = [[Fraction(int(i == j)) for j in range(5)] for i in range(5)]
        lower = [[Fraction(int(i == j)) for j in range(5)] for i in range(5)]
        for i in range(5):
            for j in range(i + 1, 5):
                upper[i][j] = Fraction(rng.randint(-2, 2))
                lower[j][i] = Fraction(rng.randint(-2, 2))
        M = mat_mul(RatMatrix(upper), RatMatrix(lower))  # determinant one, invertible
        images = {
            name: sum((M.entries[i][j] * P4.variable(P4.projective[j]) for j in range(5)), P4.zero())
            for i, name in enumerate(P4.projective)
        }
        transformed = substitute(QUADRIC, images)
        assert stabilizer_algebra(transformed).dimension == 11

    def test_rejects_bad_input(self):
        with pytest.raises(InputError):
            stabilizer_algebra(parse_poly("x0 + x1^2", P4))

    def test_pairs_equal_the_polynomial_column_construction(self):
        rng = random.Random(1964)
        cases = [QUADRIC, FERMAT[3], FERMAT[4]]
        for ctx, degree in ((SMALL, 2), (SMALL, 3), (P3, 3), (P3, 4), (P4, 2), (P4, 3), (P4C, 3)):
            cases += [rand_homogeneous(rng, ctx, degree, max_terms=rng.randint(1, 8)) for _ in range(5)]
        for h in cases:
            assert stabilizer_algebra(h).pairs == stabilizer_reference(h), h

    @pytest.mark.parametrize("seed", [1, 7])
    def test_smooth_of_degree_at_least_three_has_only_the_euler_pair(self, seed):
        """Matsumura-Monsky (1964): a smooth hypersurface of degree d >= 3 has
        a finite group of linear automorphisms, so D_A h = c*h has only the
        Euler pair. This checks every smooth verdict by linear algebra alone."""
        rng = random.Random(seed)
        smooth = symmetric = 0
        for ctx, degree in ((P3, 3), (P4, 3), (P3, 4)):
            for terms in [*range(3, 13)] * 2:
                h = rand_homogeneous(rng, ctx, degree, max_terms=terms)
                dimension = stabilizer_algebra(h).dimension
                if is_smooth_projective(h):
                    assert dimension == 1, h
                    smooth += 1
                symmetric += dimension > 1
        # the corpus holds both sides of the rule
        assert smooth >= 5 and symmetric >= 5


class TestStructuredDerivation:
    def test_quadric_instance(self):
        D = structured_derivation(P4, (0, 0, 0, 0), -1)
        assert D == FIELD

    def test_general_degree_instance(self):
        for d in (3, 4):
            D = structured_derivation(P4, (0, 0, 0, 0), 1 - d)
            assert D == Derivation.diagonal(P4, (0, 0, 0, 1, 1 - d))

    def test_nilpotent_tail_char_poly(self):
        D = structured_derivation(P4, (5, -2, 7, 3), 0)
        M = RatMatrix(D.constant_entries()).transpose()
        assert char_poly(M) == UnivariatePoly.of([0, 0, 0, 0, -1, 1])  # t^4 (t - 1)

    def test_shape(self):
        D = structured_derivation(P4, (1, 2, 3, 4), 9)
        assert D.entries[3][3] == P4.one()
        assert [str(D.entries[4][j]) for j in range(5)] == ["1", "2", "3", "4", "9"]
        for i in range(3):
            assert all(not D.entries[i][j] for j in range(5))

    def test_symbolic_entries_equal_the_hand_built_grid(self):
        a = P4C.variable("a")
        stars = [P4C.variable("c"), 0, Fraction(-1, 3), a - 2]
        last = (stars[0], P4C.zero(), P4C.constant(Fraction(-1, 3)), stars[3], a)
        zero = (P4C.zero(),) * 5
        grid = (zero, zero, zero, (*zero[:3], P4C.one(), P4C.zero()), last)
        assert structured_derivation(P4C, stars, a).entries == grid

    def test_rejects_wrong_arity(self):
        with pytest.raises(InputError):
            structured_derivation(P4, (1, 2, 3), 0)
        with pytest.raises(InputError):
            structured_derivation(VarContext(("x0", "x1")), (0, 0, 0, 0), 0)


class TestConeShape:
    def test_quadric(self):
        shape = cone_shape(QUADRIC)
        assert shape.base == parse_poly("x0^2 + x1^2 + x2^2", P4)
        assert shape.cofactor == parse_poly("x3", P4)
        assert shape.x3_top == 1 and shape.x3_top_nonzero
        assert shape.x4_top == (0, 0, 0, 1, 0) and shape.x4_top_nonzero

    def test_cubic_example(self):
        h = parse_poly("x0^3 + x3^2*x4 + x3*x4^2", P4)
        shape = cone_shape(h)
        assert shape.base == parse_poly("x0^3", P4)
        assert shape.cofactor == parse_poly("x3^2 + x3*x4", P4)
        assert shape.x3_top == 1
        assert shape.x4_top == (0, 0, 0, 1, 0)
        assert shape.base + P4.variable("x4") * shape.cofactor == h

    def test_failure_reports_monomial(self):
        with pytest.raises(ConeShapeError) as err:
            cone_shape(parse_poly("x0^2 + x3^2", P4))
        assert err.value.monomial == "x3^2"

    @pytest.mark.parametrize(
        "text, x3_top, x4_top",
        [
            ("x0^3 + x1^2*x2 + 2*x3^2*x4 + 5*x0*x4^2 - 3*x3*x4^2 + 7*x4^3", 2, (5, 0, 0, -3, 7)),
            ("x1^4 + x0*x2^3 - 4*x3^3*x4 + x1*x4^3 + 2*x2*x4^3 + 6*x3*x4^3 - 9*x4^4", -4, (0, 1, 2, 6, -9)),
        ],
        ids=["cubic", "quartic"],
    )
    def test_top_coefficients_with_a_vertex_power(self, text, x3_top, x4_top):
        # the x4^d slot is h's raw coefficient, not the derivative d times it
        shape = cone_shape(parse_poly(text, P4))
        assert shape.x3_top == x3_top and shape.x4_top == x4_top

    def test_reconstruction(self):
        h = parse_poly("x0^2*x4^2 + x1^4 + x3^3*x4 + x4^4", P4)
        shape = cone_shape(h)
        assert shape.base + P4.variable("x4") * shape.cofactor == h


class TestCoefficientIdentity:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_identities_hold(self, d):
        rep = coefficient_identity(d)
        assert rep.top_holds and rep.bottom_holds and rep.holds
        assert rep.degenerate_coincidence == (d == 2)

    def test_expected_shapes(self):
        rep = coefficient_identity(3)
        ctx = rep.top_expected.context
        c, a = ctx.variable("c"), ctx.variable("a")
        assert rep.top_expected == c * 2 + c * a
        assert rep.bottom_expected == -3 * c
        rep4 = coefficient_identity(4)
        ctx4 = rep4.top_expected.context
        assert rep4.bottom_expected == -8 * ctx4.variable("c")

    def test_degenerate_quadric_case(self):
        rep = coefficient_identity(2)
        assert not rep.bottom_expected  # 1 - (d-1)^2 = 0 exactly when d = 2

    def test_unsupported_degree(self):
        with pytest.raises(InputError):
            coefficient_identity(5)


class TestNonexistence:
    @pytest.mark.parametrize("d,weights", [(3, (-4, -4, -4, -3, -6)), (4, (-9, -9, -9, -8, -12))])
    def test_certificates(self, d, weights):
        cert = nonexistence_check(d)
        assert cert.valid
        assert tuple(w for _, w in cert.forbidden_weights) == weights
        assert cert.vertex_value_zero and cert.vertex_gradient_zero
        assert cert.no_forbidden_allowed

    @pytest.mark.parametrize("d", [3, 4])
    def test_vertex_fields_match_the_evaluated_generic_polynomial(self, d):
        # the route taken before the fields were read off coefficients: one
        # parameter per allowed monomial, then value and gradient at (0:0:0:0:1)
        cert = nonexistence_check(d)
        params = tuple(f"q{k}" for k in range(len(cert.allowed)))
        ctx = VarContext(P4.projective, params)
        h_gen = sum((ctx.variable(q) * parse_poly(m, ctx) for q, m in zip(params, cert.allowed)), ctx.zero())
        vertex = {name: int(name == "x4") for name in P4.projective}
        value = substitute(h_gen, vertex)
        gradient = [substitute(partial_derivative(h_gen, v), vertex) for v in P4.projective]
        assert cert.vertex_value_zero == (not value)
        assert cert.vertex_gradient_zero == all(not g for g in gradient)

    def test_degree_two_refused(self):
        with pytest.raises(InputError, match="x3\\*x4"):
            nonexistence_check(2)

    def test_unsupported_degree(self):
        with pytest.raises(InputError):
            nonexistence_check(5)

    def test_allowed_monomial_counts(self):
        assert len(nonexistence_check(3).allowed) == 11  # ten cubics in x0..x2 plus x3^2*x4
        assert len(nonexistence_check(4).allowed) == 16

    @pytest.mark.parametrize("d", [3, 4])
    def test_weights_match_the_diagonal_field(self, d):
        # the route the certificate does not take: the diagonal field applied
        # to each monomial, which it multiplies by the monomial's weight
        cert = nonexistence_check(d)
        D = Derivation.diagonal(P4, cert.diagonal)
        monomials = [P4.monomial_str(m) for m in monomials_of_degree(P4, d)]
        assert cert.allowed == tuple(m for m in monomials if not D(parse_poly(m, P4)))
        for m, w in cert.forbidden_weights:
            assert D(parse_poly(m, P4)) == w * parse_poly(m, P4)

    def test_invariant_hypersurfaces_are_singular_samples(self):
        # consistency of the field's invariants with the smoothness decision
        D = Derivation.diagonal(P4, (0, 0, 0, 1, -2))
        allowed = [m for m in monomials_of_degree(P4, 3) if not D(Polynomial(P4, {m: 1}))]
        rng = random.Random(1234)
        checked = 0
        while checked < 20:
            terms = {m: rand_fraction(rng, 4) for m in allowed}
            h = Polynomial(P4, {m: c for m, c in terms.items() if c})
            if not h:
                continue
            assert not D(h) and not is_smooth_projective(h)
            checked += 1


class TestVanishingVerdict:
    def test_quadric_fixture(self):
        v = check_vanishing_on_curve(QUADRIC, FIELD, CURVE)
        assert (v.stabilizes, v.smooth, v.vanishes_on_curve) == (True, True, True)
        assert v.scaling == 0 and not v.euler_witness and v.all_pass
        assert v.failures == ()

    def test_euler_degenerate_witness(self):
        v = check_vanishing_on_curve(QUADRIC, euler(P4), CURVE)
        assert (v.stabilizes, v.smooth, v.vanishes_on_curve) == (True, True, True)
        assert v.scaling == 2 and v.euler_witness

    def test_diagonal_cubic_not_stabilized(self):
        curve = Ideal.spanned_by(
            P4, (parse_poly("x0^3 + x1^3 + x2^3", P4), parse_poly("x3", P4), parse_poly("x4", P4))
        )
        v = check_vanishing_on_curve(FERMAT[3], Derivation.diagonal(P4, (0, 0, 0, 1, -2)), curve)
        assert not v.stabilizes
        assert v.scaling is None
        assert any(f.startswith("stabilizes") for f in v.failures)

    def test_scaled_quadric_has_nonzero_scaling(self):
        D = Derivation.diagonal(P4, (1, 1, 1, 2, 0))
        v = check_vanishing_on_curve(QUADRIC, D, CURVE)
        assert v.stabilizes and v.scaling == 2


class TestIndexArithmetic:
    def test_degree_case_table_rows(self):
        rows = [(c.gen_cube, c.degree, c.divisor_index, c.fano_index, c.verdict) for c in degree_case_table()]
        assert rows == [
            (4, 1, 0, 1, "quartic"),
            (3, 1, 1, 2, "cubic"),
            (2, 1, 2, 3, "quadric"),
            (2, 2, 0, 2, "quadric"),
            (2, 3, -2, 1, "quadric"),
            (1, 1, 3, 4, "P^3"),
            (1, 2, 2, 4, "P^3"),
            (1, 3, 1, 4, "P^3"),
        ]

    def test_case_invariants(self):
        for c in degree_case_table():
            assert c.divisor_index == 4 - c.gen_cube * c.degree
            assert c.fano_index == c.divisor_index + c.degree
            assert c.fano_index >= 1

    def test_genus_examples(self):
        assert fano_genus(4, 1) == 33
        assert fano_genus(3, 2) == 28
        assert fano_genus(1, 22) == 12

    def test_full_table(self):
        for index, cube, genus in INDEX_GENUS_TABLE:
            assert fano_genus(index, cube) == genus
        assert len(INDEX_GENUS_TABLE) == 18
        assert [g for _, _, g in INDEX_GENUS_TABLE] == [
            33, 28, 5, 9, 13, 17, 21, 2, 3, 3, 4, 5, 6, 7, 8, 9, 10, 12,
        ]

    def test_parity_error(self):
        with pytest.raises(InputError):
            fano_genus(1, 1)
        with pytest.raises(InputError):
            fano_genus(3, 1)

    @pytest.mark.parametrize("index, cube", [(-2, 1), (0, 5), (0, 2), (2, 0), (1, -2)])
    def test_index_and_cube_must_be_positive(self, index, cube):
        # (-2, 1) once gave genus -3 and (0, 5) genus 1
        with pytest.raises(InputError, match="must be at least 1"):
            fano_genus(index, cube)
