import itertools
import math
import random
from fractions import Fraction

import pytest
from exact import pmul
from hypothesis import given, settings, strategies as st

from projvf import (
    InputError,
    Polynomial,
    VarContext,
    coefficient_of,
    monomials_of_degree,
    order_key,
    parse_poly,
)
from projvf.ideals import _check_hypersurface
from projvf.polyring import _vertex_monomials
from projvf.verify import P3, P4, QUADRIC
from support import (
    P4C,
    SMALL,
    all_monomials,
    evaluate,
    mul_reference,
    mul_term,
    partial_derivative,
    pow_reference,
    rand_fraction,
    rand_homogeneous,
    rand_poly,
    substitute,
)


def test_canonical_form_is_unique():
    # polynomial equality compares coefficients structurally, which relies on this
    assert Fraction(2, 4) == Fraction(1, 2)
    assert Fraction(-3, -6) == Fraction(1, 2)
    assert (Fraction(2, 4).numerator, Fraction(2, 4).denominator) == (1, 2)
    assert Fraction(0, 5) == Fraction(0, 1)
    assert Fraction(3, -6).denominator > 0


def small_polys(ctx=SMALL):
    return st.builds(
        lambda seed: rand_poly(random.Random(seed), ctx, max_degree=3, max_terms=4),
        st.integers(0, 10**9),
    )


class TestContext:
    def test_requires_two_projective_variables(self):
        with pytest.raises(InputError):
            VarContext(("x0",))

    def test_rejects_duplicate_names(self):
        with pytest.raises(InputError):
            VarContext(("x0", "x1"), ("x0",))

    def test_rejects_bad_names(self):
        with pytest.raises(InputError):
            VarContext(("x0", "2y"))

    def test_unknown_variable(self):
        with pytest.raises(InputError):
            SMALL.index("z9")


class TestArithmetic:
    def test_add_cancels(self):
        x0, x1 = SMALL.variable("x0"), SMALL.variable("x1")
        assert (x0 + x1) + (x0 - x1) == 2 * x0

    def test_add_identity_and_inverse(self):
        p = parse_poly("x0^2 - 3*x1", SMALL)
        assert p + SMALL.zero() == p
        assert QUADRIC + (-QUADRIC) == P4.zero()

    def test_product_of_conjugates(self):
        x0, x1 = SMALL.variable("x0"), SMALL.variable("x1")
        assert (x0 + x1) * (x0 - x1) == x0**2 - x1**2

    def test_single_monomial_product(self):
        assert P4.variable("x3") * P4.variable("x4") == parse_poly("x3*x4", P4)

    def test_mul_identity(self):
        p = parse_poly("x0^2 - x1*x2 + 7", SMALL)
        assert p * SMALL.one() == p

    def test_context_mismatch(self):
        with pytest.raises(InputError):
            SMALL.variable("x0") + P4.variable("x0")

    @pytest.mark.parametrize("c", [3, -2, 0, Fraction(-3, 7), True], ids=str)
    def test_scalar_products(self, c):
        """A scalar on either side scales every coefficient, as the product
        with the constant polynomial c does in the benchmark's dict arithmetic."""
        rng = random.Random(11)
        unit = SMALL.unit_monomial()
        for _ in range(20):
            p = rand_poly(rng, SMALL)
            expected = Polynomial(SMALL, pmul(p._terms, {unit: c}))
            assert p * c == expected and c * p == expected
            assert c or p * c == SMALL.zero()

    def test_product_with_a_foreign_type_or_context(self):
        with pytest.raises(TypeError):
            SMALL.variable("x0") * "x"
        with pytest.raises(InputError, match="^polynomials belong to different variable contexts$"):
            SMALL.variable("x0") * P4.variable("x0")

    def test_pow(self):
        x0 = SMALL.variable("x0")
        assert (x0 + 1) ** 3 == x0**3 + 3 * x0**2 + 3 * x0 + 1
        assert (x0 + 1) ** 0 == SMALL.one()


def parameter_polys(max_terms: int = 4):
    """Random polynomials of P4C over its projective variables and parameters a, c."""
    return st.builds(
        lambda seed: rand_poly(random.Random(seed), P4C, max_degree=3, max_terms=max_terms, projective_only=False),
        st.integers(0, 10**9),
    )


class TestAgainstReferences:
    """The ring operators against the schoolbook routes of tests/support.py."""

    @given(parameter_polys(), parameter_polys())
    @settings(deadline=None)
    def test_mul(self, p, q):
        assert p * q == mul_reference(p, q)

    @given(parameter_polys(max_terms=3), st.integers(0, 4))
    @settings(deadline=None)
    def test_pow(self, p, n):
        assert p**n == pow_reference(p, n)

    @given(st.integers(0, 10**9), st.integers(0, 7))
    @settings(deadline=None)
    def test_pow_of_one_negative_term(self, seed, n):
        rng = random.Random(seed)
        m = tuple(rng.randint(0, 2) for _ in range(P4C.nvars))
        term = Polynomial(P4C, {m: -abs(rand_fraction(rng)) or -1})
        power = term**n
        assert power == pow_reference(term, n)
        ((_, c),) = power.items()
        assert (c < 0) == (n % 2 == 1)

    def test_exponent_zero(self):
        for p in (P4C.zero(), P4C.constant(-3), P4C.variable("a"), parse_poly("-2*x0^3*c", P4C)):
            assert p**0 == P4C.one()

    def test_init_rejects_negative_exponent(self):
        with pytest.raises(InputError):
            Polynomial(SMALL, {(1, -1, 0): 1})

    def test_init_rejects_wrong_width(self):
        for m in ((1, 0), (1, 0, 0, 0)):
            with pytest.raises(InputError, match="^monomial does not fit the variable context$"):
                Polynomial(SMALL, {m: 1})


class TestDerivative:
    def test_product_monomial(self):
        assert partial_derivative(parse_poly("x3*x4", P4), "x3") == P4.variable("x4")

    def test_quadric_gradient_component(self):
        assert partial_derivative(QUADRIC, "x4") == P4.variable("x3")

    def test_constant_in_that_variable(self):
        assert partial_derivative(parse_poly("x1^3", P4), "x0") == P4.zero()

    def test_parameter_targets_allowed(self):
        p = parse_poly("c*x0 + a^2", P4C)
        assert partial_derivative(p, "a") == 2 * P4C.variable("a")

    def test_unknown_variable(self):
        with pytest.raises(InputError):
            partial_derivative(QUADRIC, "zz")

    @given(small_polys(), small_polys(), st.sampled_from(SMALL.projective))
    @settings(max_examples=60)
    def test_leibniz_rule(self, p, q, var):
        lhs = partial_derivative(p * q, var)
        rhs = partial_derivative(p, var) * q + p * partial_derivative(q, var)
        assert lhs == rhs

    @given(st.integers(0, 10**9), st.integers(1, 4))
    @settings(max_examples=60)
    def test_euler_identity(self, seed, degree):
        p = rand_homogeneous(random.Random(seed), SMALL, degree)
        total = SMALL.zero()
        for v in SMALL.projective:
            total = total + SMALL.variable(v) * partial_derivative(p, v)
        assert total == degree * p


class TestCoefficientOf:
    def test_plain(self):
        p = parse_poly("x0^2 + 3*x3*x4", P4)
        assert coefficient_of(p, P4.monomial({"x3": 1, "x4": 1})) == 3

    def test_parameter_passthrough(self):
        p = parse_poly("c*x3^2*x4 + x0^3", P4C)
        assert coefficient_of(p, P4C.monomial({"x3": 2, "x4": 1})) == P4C.variable("c")

    def test_absent_monomial(self):
        assert coefficient_of(QUADRIC, P4.monomial({"x3": 2})) == P4.zero()

    def test_rejects_parameter_monomial(self):
        with pytest.raises(InputError):
            coefficient_of(parse_poly("c*x0", P4C), P4C.monomial({"c": 1}))

    @given(st.integers(0, 10**9))
    @settings(max_examples=60)
    def test_reconstruction(self, seed):
        ctx = VarContext(("x0", "x1"), ("a",))
        p = rand_poly(random.Random(seed), ctx, max_degree=3, max_terms=5, projective_only=False)
        total = ctx.zero()
        seen = {m[: ctx.nproj] + (0,) * len(ctx.parameters) for m, _ in p.items()}
        for m in seen:
            total = total + mul_term(coefficient_of(p, m), m)
        assert total == p


NOT_HOMOGENEOUS = "hypersurface equations must be nonzero and homogeneous of degree >= 1"


class TestHomogeneity:
    @pytest.mark.parametrize(
        "h, outcome",
        [
            pytest.param(QUADRIC, 2, id="quadric"),
            pytest.param(parse_poly("x0^3 + 2*x1*x2*x4 - x3^2*x4", P4), 3, id="cubic"),
            pytest.param(parse_poly("x0 + x1^2", P4), NOT_HOMOGENEOUS, id="inhomogeneous"),
            pytest.param(P4.zero(), NOT_HOMOGENEOUS, id="zero"),
            pytest.param(P4.constant(3), NOT_HOMOGENEOUS, id="constant"),
            pytest.param(
                parse_poly("c*x3^2*x4 + x0^3", P4C),
                "hypersurface equations must be free of parameter variables",
                id="parametric",
            ),
        ],
    )
    def test_check_hypersurface(self, h, outcome):
        """The degree of a hypersurface equation, or the error that rejects it."""
        if isinstance(outcome, int):
            assert _check_hypersurface(h) == outcome
        else:
            with pytest.raises(InputError) as error:
                _check_hypersurface(h)
            assert str(error.value) == outcome


class TestEvaluate:
    def test_point_on_quadric(self):
        point = {"x0": 0, "x1": 0, "x2": 0, "x3": 0, "x4": 1}
        assert evaluate(QUADRIC, point) == 0

    def test_point_off_quadric(self):
        point = {"x0": 1, "x1": 0, "x2": 0, "x3": 0, "x4": 0}
        assert evaluate(QUADRIC, point) == 1

    def test_missing_assignment(self):
        with pytest.raises(InputError):
            evaluate(QUADRIC, {"x0": 1})

    @given(st.integers(0, 10**9), st.integers(1, 3))
    @settings(max_examples=40)
    def test_positive_degree_vanishes_at_origin(self, seed, degree):
        p = rand_homogeneous(random.Random(seed), SMALL, degree)
        assert evaluate(p, {v: 0 for v in SMALL.names}) == 0


class TestSubstitute:
    def test_partial_evaluation_keeps_parameters(self):
        p = parse_poly("c*x3^2*x4 + a*x0", P4C)
        got = substitute(p, {name: 0 for name in ("x0", "x1", "x2", "x3")} | {"x4": 1})
        assert got == P4C.zero()

    def test_linear_change(self):
        x0, x1 = SMALL.variable("x0"), SMALL.variable("x1")
        p = x0**2
        assert substitute(p, {"x0": x0 + x1}) == x0**2 + 2 * x0 * x1 + x1**2


class TestVertexMonomials:
    @pytest.mark.parametrize("ctx", [P3, P4], ids=["P3", "P4"])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_coefficients_are_value_and_gradient_at_the_vertex(self, ctx, d):
        rng = random.Random(10 * ctx.nproj + d)
        every_vertex_monomial = [m for k in range(ctx.nproj) for m in _vertex_monomials(ctx, k, d)]
        read = 0
        for _ in range(12):
            # random terms, plus a few vertex monomials so that the readings are not all zero
            planted = {m: rand_fraction(rng) for m in rng.sample(every_vertex_monomial, 3)}
            h = rand_homogeneous(rng, ctx, d, max_terms=6) + Polynomial(ctx, planted)
            for k in range(ctx.nproj):
                e_k = {name: int(i == k) for i, name in enumerate(ctx.projective)}
                coefficients = [h.coefficient(m) for m in _vertex_monomials(ctx, k, d)]
                assert coefficients[k] == evaluate(h, e_k)
                gradient = [evaluate(partial_derivative(h, v), e_k) for v in ctx.projective]
                assert gradient == [c * d if j == k else c for j, c in enumerate(coefficients)]
                read += any(coefficients)
        assert read

    def test_monomials_span_the_whole_context(self):
        assert _vertex_monomials(P4C, 4, 3) == tuple(
            P4C.monomial({v: 1, "x4": 2}) if v != "x4" else P4C.monomial({"x4": 3}) for v in P4C.projective
        )

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_planted_monomial_turns_the_gradient_reading_nonzero(self, d):
        vertex = _vertex_monomials(P4, 4, d)
        rng = random.Random(d)
        h = Polynomial(P4, {m: rand_fraction(rng) for m in monomials_of_degree(P4, d) if m not in vertex})
        e_4 = dict.fromkeys(P4.projective, 0) | {"x4": 1}
        assert not any(map(h.coefficient, vertex))
        assert not any(evaluate(partial_derivative(h, v), e_4) for v in P4.projective)
        planted = h + P4.variable("x0") * P4.variable("x4") ** (d - 1)
        assert [planted.coefficient(m) for m in vertex] == [1, 0, 0, 0, 0]


class TestOrderAndPrinting:
    def test_grevlex_examples(self):
        m_x0sq = P4.monomial({"x0": 2})
        m_x1sq = P4.monomial({"x1": 2})
        m_x3x4 = P4.monomial({"x3": 1, "x4": 1})
        assert order_key(m_x0sq) > order_key(m_x1sq) > order_key(m_x3x4)

    def test_canonical_string(self):
        assert str(QUADRIC) == "x0^2 + x1^2 + x2^2 + x3*x4"
        assert str(parse_poly("x1 - x0", P4)) == "-x0 + x1"
        assert str(P4.zero()) == "0"
        assert str(parse_poly("c*x3^2*x4", P4C)) == "c*x3^2*x4"

    def test_iteration_is_sorted(self):
        p = parse_poly("x3*x4 + x0^2 + x2^2 + x1^2", P4)
        keys = [order_key(m) for m, _ in p.items()]
        assert keys == sorted(keys, reverse=True)

    @given(small_polys())
    @settings(max_examples=100)
    def test_print_parse_round_trip(self, p):
        assert parse_poly(str(p), SMALL) == p

    @given(small_polys(VarContext(("x0", "x1"), ("a", "c"))))
    @settings(max_examples=60)
    def test_round_trip_with_parameters(self, p):
        assert parse_poly(str(p), VarContext(("x0", "x1"), ("a", "c"))) == p


class TestRingAxioms:
    @given(small_polys(), small_polys(), small_polys())
    @settings(max_examples=60)
    def test_associativity_and_distributivity(self, p, q, r):
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r


def test_monomials_of_degree_count():
    # 15 = number of degree-2 monomials in five variables
    assert len(monomials_of_degree(P4, 2)) == 15
    listed = monomials_of_degree(P4, 2)
    assert len(set(listed)) == 15
    keys = [order_key(m) for m in listed]
    assert keys == sorted(keys, reverse=True)
    for d in range(4):
        # parameters never enter: C(d+n-1, n-1) projective monomials, descending
        listed = monomials_of_degree(P4C, d)
        assert all(m[P4C.nproj :] == (0, 0) for m in listed)
        assert len(set(listed)) == len(listed) == math.comb(d + P4C.nproj - 1, P4C.nproj - 1)
        keys = [order_key(m) for m in listed]
        assert keys == sorted(keys, reverse=True)
        # the all-variable enumeration of the tests' oracles, against itertools
        oracle = {
            tuple(c.count(i) for i in range(P4C.nvars))
            for c in itertools.combinations_with_replacement(range(P4C.nvars), d)
        }
        assert all_monomials(P4C, d) == sorted(oracle, key=order_key, reverse=True)
