import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest
from exact import inverse, linear_substitute, pdiff, peval, unit
from hypothesis import given, settings, strategies as st

from projvf import (
    Derivation,
    Ideal,
    InputError,
    Polynomial,
    RatMatrix,
    ResourceLimitError,
    VarContext,
    buchberger,
    ideal_member,
    is_smooth_projective,
    monomials_of_degree,
    normal_form,
    order_key,
    parse_poly,
    radical_member,
    rational_eigen,
    rref,
    vanishes_on,
    zero_locus_ideal,
)
from projvf import ideals
from projvf.cli import load_problem
from projvf.polyring import _vertex_monomials
from projvf.verify import P3, P4, QUADRIC, QUADRIC_CURVE as CURVE, QUADRIC_FIELD as FIELD
from support import (
    SMALL,
    brute_force_member,
    contains_one,
    euler,
    evaluate,
    identity,
    macaulay_smooth,
    mat_mul,
    mul_term,
    partial_derivative,
    rand_homogeneous,
    rand_poly,
    s_polynomial,
    zero_locus_reference,
)

def ideal_of(ctx, *texts):
    return Ideal.spanned_by(ctx, tuple(parse_poly(t, ctx) for t in texts))


class TestBuchberger:
    def test_containment_collapse(self):
        gb = buchberger(ideal_of(SMALL, "x0^2", "x0"))
        assert [str(p) for p in gb.basis] == ["x0"]

    def test_linear_chain(self):
        gb = buchberger(ideal_of(SMALL, "x0 - x1", "x1 - x2"))
        assert [str(p) for p in gb.basis] == ["x0 - x2", "x1 - x2"]

    def test_principal_ideal_is_normalised(self):
        gb = buchberger(Ideal.spanned_by(P4, (3 * QUADRIC,)))
        assert gb.basis == (QUADRIC,)

    def test_zero_ideal(self):
        gb = buchberger(Ideal.spanned_by(SMALL, ()))
        assert gb.basis == ()
        # it takes no step, but a negative budget is exceeded before any
        assert buchberger(Ideal.spanned_by(SMALL, ()), max_steps=0).basis == ()
        with pytest.raises(ResourceLimitError):
            buchberger(Ideal.spanned_by(SMALL, ()), max_steps=-1)

    def test_rejects_parameters(self):
        ctx = VarContext(("x0", "x1"), ("c",))
        with pytest.raises(InputError):
            buchberger(Ideal.spanned_by(ctx, (parse_poly("c*x0", ctx),)))

    def test_resource_cap(self):
        ideal = ideal_of(SMALL, "x0^2 - x1*x2", "x1^2 - x0*x2", "x2^2 - x0*x1")
        with pytest.raises(ResourceLimitError):
            buchberger(ideal, max_steps=3)

    @given(st.integers(0, 10**9))
    @settings(max_examples=60, deadline=None)
    def test_unique_under_permutation(self, seed):
        rng = random.Random(seed)
        gens = [rand_poly(rng, SMALL, max_degree=2, max_terms=3) for _ in range(rng.randint(2, 3))]
        gens = [g for g in gens if g]
        reference = None
        for perm in itertools.permutations(gens):
            gb = buchberger(Ideal.spanned_by(SMALL, perm))
            if reference is None:
                reference = gb
            assert gb == reference

    @given(st.integers(0, 10**9))
    @settings(max_examples=40, deadline=None)
    def test_s_polynomials_reduce_to_zero(self, seed):
        rng = random.Random(seed)
        gens = [rand_poly(rng, SMALL, max_degree=2, max_terms=3) for _ in range(2)]
        gb = buchberger(Ideal.spanned_by(SMALL, gens))
        for f, g in itertools.combinations(gb.basis, 2):
            assert not normal_form(s_polynomial(f, g), gb)

    @given(st.integers(0, 10**9))
    @settings(max_examples=40, deadline=None)
    def test_reduced_basis_is_monic_and_interreduced(self, seed):
        rng = random.Random(seed)
        gens = [rand_poly(rng, SMALL, max_degree=2, max_terms=3) for _ in range(2)]
        gb = buchberger(Ideal.spanned_by(SMALL, gens))
        for i, p in enumerate(gb.basis):
            assert p.leading_term()[1] == 1
            for j, q in enumerate(gb.basis):
                if i == j:
                    continue
                lt_q = q.leading_term()[0]
                for m, _ in p.items():
                    assert not all(a <= b for a, b in zip(lt_q, m))

    def test_agrees_with_sympy_reduced_basis(self):
        sympy = pytest.importorskip("sympy")
        for gens in differential_corpus():
            ctx = gens[0].context
            ours = [dict(p._terms) for p in buchberger(Ideal.spanned_by(ctx, gens)).basis]
            assert ours == sympy_reduced_basis(sympy, gens)

    def test_agrees_with_sympy_on_large_coefficients(self):
        sympy = pytest.importorskip("sympy")
        for gens in coefficient_corpus():
            ctx = gens[0].context
            ours = [dict(p._terms) for p in buchberger(Ideal.spanned_by(ctx, gens)).basis]
            assert ours == sympy_reduced_basis(sympy, gens)


def differential_corpus():
    """Seeded gradient ideals and random ideals in P^3 and P^4, degree 1-3."""
    rng = random.Random(4417)
    corpus = []
    for ctx in (P3, P4):
        for degree in (1, 2, 3):
            for _ in range(4):
                h = rand_homogeneous(rng, ctx, degree, max_terms=rng.randint(2, 6))
                corpus.append([h] + [partial_derivative(h, v) for v in ctx.projective])
            for _ in range(4):
                count = rng.randint(2, 3)
                corpus.append([rand_poly(rng, ctx, max_degree=degree, max_terms=3) for _ in range(count)])
    return [[g for g in gens if g] for gens in corpus if any(gens)]


def big_coefficient(rng, kind):
    """A nonzero coefficient: an integer up to 10^12, or a fraction with a denominator up to 10^12."""
    num = 0
    while not num:
        num = rng.randint(-(10**12), 10**12) if kind == "int" else rng.randint(-(10**6), 10**6)
    return Fraction(num, 1 if kind == "int" else rng.randint(1, 10**12))


def coefficient_corpus():
    """Seeded P^3/P^4 ideals with large integer or rational coefficients, each
    generator with a negative leading coefficient: gradient ideals of
    homogeneous polynomials and pairs of homogeneous polynomials."""
    rng = random.Random(9021)

    def big(shape):
        g = Polynomial(shape.context, {m: big_coefficient(rng, kind) for m, _ in shape.items()})
        return g if g.leading_term()[1] < 0 else -g

    corpus = []
    for ctx in (P3, P4):
        for degree in (2, 3):
            for kind in ("int", "rat") * 2:
                h = big(rand_homogeneous(rng, ctx, degree, max_terms=rng.randint(3, 6)))
                corpus.append([big(g) for g in [h] + [partial_derivative(h, v) for v in ctx.projective] if g])
                pair = [rand_homogeneous(rng, ctx, rng.randint(1, degree), max_terms=3) for _ in range(2)]
                corpus.append([big(g) for g in pair if g])
    return [gens for gens in corpus if gens]


def sympy_reduced_basis(sympy, gens):
    """sympy's monic reduced grevlex basis as term dicts, leading term largest first."""
    xs = sympy.symbols(gens[0].context.projective)
    polys = [
        sympy.Poly.from_dict({m: sympy.Rational(c.numerator, c.denominator) for m, c in g.items()}, *xs, domain="QQ")
        for g in gens
    ]
    rows = []
    for p in sympy.groebner(polys, *xs, order="grevlex", domain="QQ").polys:
        row = {m: Fraction(int(c.p), int(c.q)) for m, c in p.terms()}
        lead = row[max(row, key=order_key)]
        rows.append({m: c / lead for m, c in row.items()})
    rows.sort(key=lambda row: order_key(max(row, key=order_key)), reverse=True)
    return rows


class TestNormalFormAndMembership:
    def test_normal_form_examples(self):
        gb = buchberger(ideal_of(SMALL, "x0"))
        assert not normal_form(parse_poly("x0^2", SMALL), gb)
        assert normal_form(parse_poly("x1", SMALL), gb) == SMALL.variable("x1")

    def test_stabilised_quadric_derivative(self):
        gb = buchberger(Ideal.spanned_by(P4, (QUADRIC,)))
        assert not normal_form(FIELD(QUADRIC), gb)

    def test_member_examples(self):
        assert ideal_member(parse_poly("x3*x4", P4), ideal_of(P4, "x3"))
        assert not ideal_member(parse_poly("x0", P4), ideal_of(P4, "x3", "x4"))

    def test_quadric_minors_lie_on_curve_ideal(self):
        minors = zero_locus_ideal(FIELD).generators
        # every minor carries a factor x3 or x4, so membership is forced
        i3, i4 = P4.index("x3"), P4.index("x4")
        for minor in minors:
            assert all(m[i3] > 0 or m[i4] > 0 for m, _ in minor.items())
            assert ideal_member(minor, CURVE)

    def test_context_mismatch(self):
        gb = buchberger(ideal_of(SMALL, "x0"))
        with pytest.raises(InputError):
            normal_form(parse_poly("x0", P4), gb)

    @given(st.integers(0, 10**9))
    @settings(max_examples=25, deadline=None)
    def test_agrees_with_linear_algebra_oracle(self, seed):
        rng = random.Random(seed)
        ctx = SMALL
        gens = [rand_poly(rng, ctx, max_degree=2, max_terms=3) for _ in range(2)]
        gens = [g for g in gens if g] or [ctx.variable("x0")]
        ideal = Ideal.spanned_by(ctx, gens)
        for _ in range(3):
            if rng.random() < 0.5:
                f = sum((rand_poly(rng, ctx, 1, 2) * g for g in gens), ctx.zero())
            else:
                f = rand_poly(rng, ctx, max_degree=3, max_terms=3)
            assert ideal_member(f, ideal) == brute_force_member(f, gens)

    @given(st.integers(0, 10**9))
    @settings(max_examples=25, deadline=None)
    def test_scaled_input_against_linear_algebra_oracle(self, seed):
        """Input with integer content >= 2 and a negative leading coefficient:
        f - NF(f) lies in the ideal and no term of NF(f) is divisible by a
        leading monomial of the basis, which pins NF(f) down; NF is linear."""
        rng = random.Random(seed)
        ctx = SMALL
        gens = [g for g in (rand_poly(rng, ctx, max_degree=2, max_terms=3) for _ in range(2)) if g]
        gens = gens or [ctx.variable("x0")]
        gb = buchberger(Ideal.spanned_by(ctx, gens))
        shape = rand_poly(rng, ctx, max_degree=3, max_terms=4) or ctx.variable("x1")
        content = rng.randint(2, 30)
        f = Polynomial(ctx, {m: content * rng.choice((-1, 1)) * rng.randint(1, 20) for m, _ in shape.items()})
        f = f if f.leading_term()[1] < 0 else -f
        r = normal_form(f, gb)
        assert_clean(r)
        assert brute_force_member(f - r, gens)
        leads = [g.leading_term()[0] for g in gb.basis]
        assert not any(all(a <= b for a, b in zip(lm, m)) for m, _ in r.items() for lm in leads)
        assert normal_form(f * Fraction(-5, 7), gb) == r * Fraction(-5, 7)


#: contexts with parameter variables that no input uses, and with declared
#: names that a named extension variable would have to avoid
WITH_PARAMETERS = VarContext(SMALL.projective, ("a", "b"))
DECLARED_T = VarContext(("t", "t_", "x0"))


def radical_corpus():
    """Seeded (f, I) pairs over SMALL, P^3 and the two contexts above, with
    members and non-members of sqrt(I): f = x^k g for a generator g (in I),
    f = p1 + p2 or p1 * q against I = (p1^2, p2^2) (in sqrt(I), usually not
    in I), and a random f (usually not in sqrt(I))."""
    rng = random.Random(8123)
    corpus = []
    for ctx in (SMALL, P3, WITH_PARAMETERS, DECLARED_T):
        x = [ctx.variable(v) for v in ctx.projective]
        for _ in range(3):
            gens = [g for g in (rand_poly(rng, ctx, max_degree=2, max_terms=3) for _ in range(2)) if g]
            if gens:
                ideal = Ideal.spanned_by(ctx, gens)
                corpus.append((rng.choice(x) ** rng.randint(0, 2) * rng.choice(gens), ideal))
                corpus.append((rand_poly(rng, ctx, max_degree=2, max_terms=3), ideal))
            p1, p2 = (rand_homogeneous(rng, ctx, 1, max_terms=2) for _ in range(2))
            if p1 and p2:
                powers = Ideal.spanned_by(ctx, (p1**2, p2**2))
                corpus.append((p1 + p2, powers))
                corpus.append((p1 * rand_poly(rng, ctx, max_degree=1, max_terms=2), powers))
                corpus.append((rand_homogeneous(rng, ctx, 1, max_terms=3), powers))
    return [(f, ideal) for f, ideal in corpus if f]


def lifted_ideal(f, ideal):
    """I + (1 - t*f) in a context with one more variable, t, named apart from
    the declared ones and ordered after them."""
    ctx = ideal.context
    name = "t"
    while name in ctx.names:
        name += "_"
    ext = VarContext(ctx.names + (name,))
    t = ext.variable(name)

    def lift(p):
        return Polynomial(ext, {m + (0,): c for m, c in p.items()})

    return Ideal(ext, tuple(lift(g) for g in ideal.generators) + (ext.one() - t * lift(f),))


def radical_by_lifted_basis(f, ideal):
    """Reference route: the reduced basis of the lifted ideal is {1}."""
    return contains_one(buchberger(lifted_ideal(f, ideal)))


def radical_by_sympy(sympy, f, ideal):
    """Reference route: sympy's grevlex basis of I + (1 - t*f) is [1]."""
    xs = sympy.symbols(ideal.context.names)
    t = sympy.Dummy("t")

    def expr(p):
        return sum(
            sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(x**e for x, e in zip(xs, m)))
            for m, c in p.items()
        )

    gens = [expr(g) for g in ideal.generators] + [1 - t * expr(f)]
    return sympy.groebner(gens, *xs, t, order="grevlex") == [1]


def recording_groebner_runs(monkeypatch):
    """Patch the engine so that the returned list grows by the packing and a
    copy of the input rows of each Buchberger run."""
    runs = []
    groebner = ideals._groebner

    def recording(pk, rows, *args):
        runs.append((pk, list(rows)))
        return groebner(pk, rows, *args)

    monkeypatch.setattr(ideals, "_groebner", recording)
    return runs


def counting_polynomials(monkeypatch):
    """Patch both Polynomial constructors so that the returned list grows by
    one entry per polynomial built."""
    built = []
    init, trusted = Polynomial.__init__, Polynomial._trusted.__func__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    def counting_trusted(cls, *args):
        built.append(args)
        return trusted(cls, *args)

    monkeypatch.setattr(Polynomial, "__init__", counting_init)
    monkeypatch.setattr(Polynomial, "_trusted", classmethod(counting_trusted))
    return built


class TestRadicalMembership:
    def test_examples(self):
        assert radical_member(parse_poly("x0", SMALL), ideal_of(SMALL, "x0^2"))
        assert not radical_member(parse_poly("x1", SMALL), ideal_of(SMALL, "x0^2"))
        assert radical_member(parse_poly("x0*x1", SMALL), ideal_of(SMALL, "x0^2*x1^3"))

    def test_zero_ideal(self):
        zero = Ideal.spanned_by(SMALL, ())
        assert radical_member(SMALL.zero(), zero)
        assert not radical_member(SMALL.variable("x0"), zero)
        # decided without a reduction step
        assert radical_member(SMALL.zero(), zero, max_steps=0)
        assert not radical_member(SMALL.variable("x0"), zero, max_steps=0)
        assert not radical_member(SMALL.constant(5), zero, max_steps=0)

    def test_extension_variable_dodges_declared_names(self):
        assert radical_member(parse_poly("t", DECLARED_T), ideal_of(DECLARED_T, "t^2"))
        assert not radical_member(parse_poly("x0", DECLARED_T), ideal_of(DECLARED_T, "t^2"))

    def test_corpus_has_members_and_non_members(self):
        corpus = radical_corpus()
        verdicts = [radical_member(f, ideal) for f, ideal in corpus]
        assert 0 < sum(verdicts) < len(verdicts)
        # some members of the radical lie outside the ideal itself
        assert any(v and not ideal_member(f, ideal) for v, (f, ideal) in zip(verdicts, corpus))

    def test_agrees_with_lifted_basis(self):
        corpus = radical_corpus()
        assert [radical_member(f, ideal) for f, ideal in corpus] == [
            radical_by_lifted_basis(f, ideal) for f, ideal in corpus
        ]

    def test_agrees_with_sympy(self):
        sympy = pytest.importorskip("sympy")
        corpus = radical_corpus()
        assert [radical_member(f, ideal) for f, ideal in corpus] == [
            radical_by_sympy(sympy, f, ideal) for f, ideal in corpus
        ]

    def test_engine_rows_are_the_lifted_ideal(self, monkeypatch):
        corpus = radical_corpus()
        runs = recording_groebner_runs(monkeypatch)
        for f, ideal in corpus:
            radical_member(f, ideal)
        assert len(runs) == len(corpus)
        for (pk, rows), (f, ideal) in zip(runs, corpus):
            assert pk.nvars == ideal.context.nvars + 1
            expected = [ideals._primitive(pk.terms(g)) for g in lifted_ideal(f, ideal).generators]
            assert [{lm: lc, **dict(tail)} for lm, lc, tail in rows] == expected

    def test_builds_no_polynomial(self, monkeypatch):
        member, non_member = (P4.variable("x3"), jacobian_ideal(CUBIC4)), (parse_poly("x0 - x1", SMALL), TWISTED)
        built = counting_polynomials(monkeypatch)
        assert radical_member(*member) and not radical_member(*non_member)
        assert not built

    @given(st.integers(0, 10**9))
    @settings(max_examples=25, deadline=None)
    def test_membership_implies_radical_membership(self, seed):
        rng = random.Random(seed)
        gens = [rand_poly(rng, SMALL, max_degree=2, max_terms=2) for _ in range(2)]
        gens = [g for g in gens if g] or [SMALL.variable("x0")]
        ideal = Ideal.spanned_by(SMALL, gens)
        f = sum((rand_poly(rng, SMALL, 1, 2) * g for g in gens), SMALL.zero())
        if ideal_member(f, ideal):
            assert radical_member(f, ideal)


CAYLEY_TEXT = "x1*x2*x3 + x0*x2*x3 + x0*x1*x3 + x0*x1*x2"
FERMAT3_TEXT = "x0^3 + x1^3 + x2^3 + x3^3"
CAYLEY = parse_poly(CAYLEY_TEXT, P3)
FERMAT3 = parse_poly(FERMAT3_TEXT, P3)
#: the Cayley cubic's four nodes are the coordinate points; the integer
#: change of coordinates x = MOVE y (its inverse is integral too) moves them
#: to the columns of MOVE's inverse, so that every coordinate point carries a
#: vertex monomial and a singular verdict has to come from the engine
MOVE = [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 2]]
MOVED_CAYLEY = Polynomial(P3, linear_substitute(CAYLEY._terms, MOVE))
#: smooth inputs whose gradients' own leading monomials are not all pure
#: powers, so that a verdict takes reduction steps
PERTURBED_FERMAT3 = parse_poly("x0^3 + x1^3 + x2^3 + x3^3 + x0*x1*x2", P3)
PENTAGON_QUADRIC = parse_poly("x0*x1 + x1*x2 + x2*x3 + x3*x4 + x4*x0", P4)


def jacobian_ideal(h):
    return Ideal.spanned_by(h.context, [h] + gradient(h))


def gradient(h):
    return [partial_derivative(h, v) for v in h.context.projective]


def smoothness_corpus():
    """Seeded random hypersurfaces of degree 2-3 in P^3 and P^4."""
    rng = random.Random(20240)
    cases = []
    for ctx in (P3, P4):
        for degree in (2, 3):
            for _ in range(8):
                h = rand_homogeneous(rng, ctx, degree, max_terms=rng.randint(3, 8))
                if h:
                    cases.append(h)
    return cases


def macaulay_corpus(seed):
    """Seeded random quadrics and cubics in P^3, 3-12 terms each."""
    rng = random.Random(f"macaulay:{seed}")
    cases = []
    for degree, count in ((2, 24), (3, 12)):
        for _ in range(count):
            h = rand_homogeneous(rng, P3, degree, max_terms=rng.randint(3, 12))
            if h:
                cases.append(h)
    return cases


def fermat_quartic_plus(k, seed):
    """x0^4 + ... + x4^4 plus k other quartic monomials with coefficients in
    +-{1, 2, 3}: a dense smooth quartic threefold for most draws."""
    rng = random.Random(seed)
    others = [m for m in monomials_of_degree(P4, 4) if max(m) < 4]
    terms = {m: Fraction(rng.choice((1, 2, 3)) * rng.choice((1, -1))) for m in rng.sample(others, k)}
    return parse_poly("x0^4 + x1^4 + x2^4 + x3^4 + x4^4", P4) + Polynomial(P4, terms)


def bare_vertices(h):
    """The k for which none of h's vertex monomials at e_k occurs in h: h(e_k)
    and every dh/dx_j(e_k) are coefficients of those monomials."""
    ctx, d = h.context, ideals._check_hypersurface(h)
    return [k for k in range(ctx.nproj) if not any(h.coefficient(m) for m in _vertex_monomials(ctx, k, d))]


def singular_at(h, point):
    """Whether h and all of its partials vanish at the point, read by the
    benchmark's dict arithmetic."""
    return all(peval(p, point) == 0 for p in [h._terms, *(pdiff(h._terms, i) for i in range(h.context.nproj))])


def smooth_by_reduced_basis(h):
    """Reference route: pure powers (or 1) among the leading monomials of the
    full reduced basis of (h, grad h)."""
    leading = [g.leading_term()[0] for g in buchberger(jacobian_ideal(h)).basis]
    return all(any(sum(m) == m[i] for m in leading) for i in range(h.context.nproj))


def counting_s_pairs(monkeypatch):
    """Patch the engine's S-pair so that the returned list grows by one entry
    per S-pair reduced."""
    calls = []
    s_pair = ideals._s_pair

    def counting(*args):
        calls.append(args)
        return s_pair(*args)

    monkeypatch.setattr(ideals, "_s_pair", counting)
    return calls


def smooth_by_radical_membership(h):
    """Reference route: every projective variable in the radical of GB(h, grad h)."""
    ctx = h.context
    reduced = Ideal(ctx, buchberger(jacobian_ideal(h)).basis)
    return all(radical_member(ctx.variable(v), reduced) for v in ctx.projective)


def smooth_by_sympy(sympy, h):
    """Reference route: pure powers among sympy's grevlex leading monomials."""
    xs = sympy.symbols(h.context.projective)
    gens = [
        sympy.Poly.from_dict({m: sympy.Rational(c.numerator, c.denominator) for m, c in g.items()}, *xs)
        for g in jacobian_ideal(h).generators
    ]
    leading = [p.monoms(order="grevlex")[0] for p in sympy.groebner(gens, *xs, order="grevlex").polys]
    return all(any(sum(m) == m[i] for m in leading) for i in range(len(xs)))


class TestSmoothness:
    def test_quadric_smooth(self):
        assert is_smooth_projective(QUADRIC)

    def test_cone_singular(self):
        assert not is_smooth_projective(parse_poly("x0^2 + x1^2 + x2^2", P4))

    def test_diagonal_quartic_smooth(self):
        assert is_smooth_projective(parse_poly("x0^4 + x1^4 + x2^4 + x3^4 + x4^4", P4))

    def test_rejects_inhomogeneous(self):
        with pytest.raises(InputError):
            is_smooth_projective(parse_poly("x0 + x1^2", P4))

    def test_rejects_parameters(self):
        ctx = VarContext(("x0", "x1"), ("c",))
        with pytest.raises(InputError):
            is_smooth_projective(parse_poly("c*x0^2 + x1^2", ctx))

    def test_rejects_zero(self):
        with pytest.raises(InputError):
            is_smooth_projective(P4.zero())

    def test_hyperplane_basis_is_one(self):
        h = parse_poly("x0 + x1", P4)
        assert contains_one(buchberger(jacobian_ideal(h)))
        assert is_smooth_projective(h)

    def test_cayley_nodal_cubic_singular(self):
        assert not is_smooth_projective(CAYLEY)

    def test_fermat_cubic_surface_smooth(self):
        assert is_smooth_projective(FERMAT3)

    @pytest.mark.parametrize("text", [CAYLEY_TEXT, FERMAT3_TEXT, "x0^2 + x1*x2", "x0*x1 + x2*x3"])
    def test_unused_parameter_keeps_verdict(self, text):
        with_param = VarContext(P3.projective, ("c",))
        verdict = is_smooth_projective(parse_poly(text, P3))
        assert is_smooth_projective(parse_poly(text, with_param)) == verdict

    @pytest.mark.parametrize("h", [CAYLEY, PERTURBED_FERMAT3, PENTAGON_QUADRIC, MOVED_CAYLEY])
    def test_tiny_budget_raises(self, h):
        with pytest.raises(ResourceLimitError):
            is_smooth_projective(h, max_steps=1)

    def test_agrees_with_radical_membership_route(self):
        cases = smoothness_corpus()
        verdicts = [is_smooth_projective(h) for h in cases]
        assert 0 < sum(verdicts) < len(verdicts)
        assert verdicts == [smooth_by_radical_membership(h) for h in cases]

    def test_agrees_with_sympy_leading_monomials(self):
        sympy = pytest.importorskip("sympy")
        cases = smoothness_corpus() + [CAYLEY, FERMAT3, QUADRIC, parse_poly("x0 + x1", P4)]
        verdicts = [is_smooth_projective(h) for h in cases]
        assert 0 < sum(verdicts) < len(verdicts)
        assert verdicts == [smooth_by_sympy(sympy, h) for h in cases]

    def test_early_exit_agrees_with_full_reduced_basis(self):
        cases = smoothness_corpus() + [CAYLEY, FERMAT3, QUADRIC, PERTURBED_FERMAT3, PENTAGON_QUADRIC]
        cases += [parse_poly("x0 + x1", P4), parse_poly("x0 - 2*x2", SMALL)]
        verdicts = [is_smooth_projective(h) for h in cases]
        assert 0 < sum(verdicts) < len(verdicts)
        assert verdicts == [smooth_by_reduced_basis(h) for h in cases]

    @pytest.mark.parametrize("seed", [0, 2, 3])
    def test_dense_quartic_threefolds(self, seed):
        # smooth, and decided only after hundreds of reduction steps
        sympy = pytest.importorskip("sympy")
        h = fermat_quartic_plus(4, seed)
        assert is_smooth_projective(h)
        assert smooth_by_reduced_basis(h) and smooth_by_sympy(sympy, h)
        with pytest.raises(ResourceLimitError):
            is_smooth_projective(h, max_steps=500)

    def test_smooth_stops_before_the_basis_completes(self, monkeypatch):
        calls = counting_s_pairs(monkeypatch)
        assert is_smooth_projective(CUBIC4)
        early = len(calls)
        buchberger(Ideal.spanned_by(P4, gradient(CUBIC4)))
        assert 0 < early < len(calls) - early

    def test_singular_runs_the_pair_queue_to_the_end(self, monkeypatch):
        calls = counting_s_pairs(monkeypatch)
        for h in (CAYLEY, MOVED_CAYLEY):
            calls.clear()
            assert not is_smooth_projective(h)
            singular = len(calls)
            buchberger(Ideal.spanned_by(P3, gradient(h)))
            assert singular == len(calls) - singular > 0

    def test_moved_cayley_has_a_vertex_monomial_at_every_coordinate_point(self):
        assert bare_vertices(CAYLEY) == [0, 1, 2, 3] and bare_vertices(MOVED_CAYLEY) == []
        assert all(singular_at(MOVED_CAYLEY, node) for node in zip(*inverse(MOVE)))

    def test_a_coordinate_point_without_vertex_monomials_is_singular(self):
        cases = smoothness_corpus() + macaulay_corpus(1) + macaulay_corpus(2)
        cases += [CAYLEY, MOVED_CAYLEY, FERMAT3, QUADRIC, CUBIC4, PERTURBED_FERMAT3, PENTAGON_QUADRIC]
        cases += [fermat_quartic_plus(4, seed) for seed in (0, 2, 3)]
        witnessed = []
        for h in cases:
            bare = bare_vertices(h)
            if bare:
                witnessed.append(h)
                assert not is_smooth_projective(h)
                assert all(singular_at(h, unit(h.context.nvars, k)) for k in bare)
        assert CAYLEY in witnessed and MOVED_CAYLEY not in witnessed and len(witnessed) > 1


#: P^3 with a parameter variable that no input uses
P3_PARAM = VarContext(P3.projective, ("c",))


@st.composite
def homogeneous_inputs(draw):
    """A homogeneous h of degree 1-4 with rational coefficients, in P^3, P^4
    or P^3 with a parameter variable, on a drawn subset of the projective
    variables (so that partials may vanish), and with a negative leading
    coefficient about half the time."""
    ctx = draw(st.sampled_from((P3, P4, P3_PARAM)))
    used = draw(st.sets(st.integers(0, ctx.nproj - 1), min_size=1))
    unused = [i for i in range(ctx.nproj) if i not in used]
    monomials = [m for m in monomials_of_degree(ctx, draw(st.integers(1, 4))) if not any(m[i] for i in unused)]
    coefficient = st.fractions(-30, 30, max_denominator=12).filter(bool)
    chosen = draw(st.lists(st.sampled_from(monomials), min_size=1, max_size=8, unique=True))
    h = Polynomial(ctx, {m: draw(coefficient) for m in chosen})
    if draw(st.booleans()) == (h.leading_term()[1] > 0):
        h = -h
    return h


class TestMacaulayOracle:
    """The engine's smoothness verdicts agree with the rank of the Macaulay
    matrix of the partials, a route with no Groebner basis."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_agrees_on_quadrics_and_cubics_in_p3(self, seed):
        verdicts = []
        for h in macaulay_corpus(seed):
            verdicts.append(is_smooth_projective(h))
            assert verdicts[-1] == macaulay_smooth(h), str(h)
        assert 0 < sum(verdicts) < len(verdicts)  # both verdicts occur


class TestPackedGradient:
    @given(homogeneous_inputs())
    @settings(max_examples=200, deadline=None)
    def test_rows_equal_the_reference_partials(self, h):
        pk, rows = ideals._gradient_rows(h, ideals._check_hypersurface(h))
        reference = [ideals._row(ideals._primitive(pk.terms(p))) for p in gradient(h) if p]
        assert rows == reference

    @given(homogeneous_inputs())
    @settings(max_examples=100, deadline=None)
    def test_euler_relation(self, h):
        # d h = sum x_i dh/dx_i: h lies in the ideal of its partials
        ctx = h.context
        euler = sum((ctx.variable(v) * p for v, p in zip(ctx.projective, gradient(h))), ctx.zero())
        assert euler == ideals._check_hypersurface(h) * h

    def test_builds_no_polynomial(self, monkeypatch):
        built = counting_polynomials(monkeypatch)
        assert is_smooth_projective(CUBIC4) and not is_smooth_projective(CAYLEY)
        assert not built


CUBIC4 = parse_poly("x0^3 + 2*x1^3 - x2^2*x3 + x3^3 + x4^3 - x0*x1*x4 + 3*x2*x3*x4", P4)
TWISTED = ideal_of(SMALL, "x0^2 - x1*x2", "x1^2 - x0*x2", "x2^2 - x0*x1")
TWISTED_CUBIC = ideal_of(P3, "x0*x2 - x1^2", "x0*x3 - x1*x2", "x1*x3 - x2^2")
#: a torus field that moves the points of the twisted cubic along it
TWISTED_CUBIC_FIELD = Derivation.diagonal(P3, (3, 1, -1, -3))
FAT_CURVE = ideal_of(P4, "x0^2", "x3^2", "x4^2")
#: the field and curve of the README's budget example
CONJUGATED = load_problem(str(Path(__file__).resolve().parent.parent / "bench" / "problems" / "conjugated.json"))

#: (computation under a step budget, exact number of budget steps it takes),
#: recorded before reduction moved onto a mutable term dict: the engine may
#: change its data representation but not its sequence of reduction steps.
#: A smoothness pin counts the steps up to the verdict: to the last missing
#: pure power when smooth, to the last S-pair when singular; the Fermat
#: cubic's partials 3*x_i^2 are pure powers already, so it takes none. A
#: smoothness check's generators are the partials alone, without h. A
#: radical pin likewise counts the steps up to the verdict: to the constant
#: that joins the basis of I + (1 - t*f) when f is in the radical, to the
#: last S-pair when it is not, with no minimalisation or inter-reduction.
#: A vanishing pin counts the steps of its largest computation, because the
#: budget bounds the curve basis, each minor's reduction against it and each
#: radical test on its own.
PINNED_STEPS = [
    pytest.param(lambda s: is_smooth_projective(FERMAT3, max_steps=s), 0, id="smooth-fermat-cubic"),
    pytest.param(lambda s: is_smooth_projective(CAYLEY, max_steps=s), 54, id="smooth-cayley-cubic"),
    pytest.param(lambda s: is_smooth_projective(MOVED_CAYLEY, max_steps=s), 118, id="smooth-moved-cayley-cubic"),
    pytest.param(lambda s: is_smooth_projective(CUBIC4, max_steps=s), 68, id="smooth-p4-cubic"),
    pytest.param(lambda s: buchberger(jacobian_ideal(CUBIC4), max_steps=s), 128, id="gb-p4-gradient"),
    pytest.param(
        lambda s: radical_member(P4.variable("x3"), jacobian_ideal(CUBIC4), max_steps=s), 60, id="radical-p4-gradient"
    ),
    pytest.param(
        lambda s: radical_member(parse_poly("x0 - x1", SMALL), TWISTED, max_steps=s), 36, id="radical-twisted"
    ),
    pytest.param(lambda s: vanishes_on(FIELD, CURVE, max_steps=s), 5, id="vanishes-quadric"),
    pytest.param(
        lambda s: vanishes_on(FIELD, CURVE, scheme_theoretic=True, max_steps=s), 5, id="vanishes-quadric-scheme"
    ),
    pytest.param(
        lambda s: vanishes_on(TWISTED_CUBIC_FIELD, TWISTED_CUBIC, max_steps=s), 12, id="vanishes-twisted-cubic"
    ),
    pytest.param(lambda s: vanishes_on(FIELD, FAT_CURVE, max_steps=s), 3, id="vanishes-fat"),
    pytest.param(
        lambda s: vanishes_on(FIELD, FAT_CURVE, scheme_theoretic=True, max_steps=s), 3, id="vanishes-fat-scheme"
    ),
    pytest.param(
        lambda s: vanishes_on(CONJUGATED.derivation, CONJUGATED.ideal, max_steps=s), 13, id="vanishes-conjugated"
    ),
]


#: S-pairs each computation of PINNED_STEPS reduces, in the same order,
#: recorded when the engine's S-pairs still went through ``s_polynomial``
#: (the moved Cayley cubic's 118 steps and 16 S-pairs, and the vanishing
#: pins, were recorded later)
PINNED_S_PAIRS = [0, 15, 16, 25, 45, 25, 11, 0, 0, 10, 21, 0, 1]

#: (generators in P^3, exact number of budget steps, reduced basis) for
#: generators that share a leading monomial: minimalisation keeps one element
#: per leading monomial, the first, and the inter-reduction steps depend on
#: which one it keeps. Recorded with a pairwise minimalisation loop.
TIED_LEADS = [
    pytest.param(
        ("x0^2 + x1^2", "x0^2 - x1*x2", "3*x0^2 + 3*x1^2"), 7, ["x0^2 - x1*x2", "x1^2 + x1*x2"], id="three-tied"
    ),
    pytest.param(("x0^2 + x1^2", "3*x0^2 + 3*x1^2"), 0, ["x0^2 + x1^2"], id="proportional"),
    pytest.param(
        ("x0*x1 - x2^2", "x0*x1 + x3^2", "x0^2 - x2*x3", "x0^2 + x1*x3"),
        54,
        [
            "x2*x3^3",
            "x3^4",
            "x0*x2*x3 - x3^3",
            "x0*x3^2 + x3^3",
            "x0^2 - x2*x3",
            "x0*x1 + x3^2",
            "x2^2 + x3^2",
            "x1*x3 + x2*x3",
        ],
        id="two-tied-pairs",
    ),
]


class TestStepSequence:
    """The budget is spent once per reduction step, so these counts are exact."""

    @pytest.mark.parametrize("compute, steps", PINNED_STEPS)
    def test_exact_budget(self, compute, steps):
        compute(steps)
        with pytest.raises(ResourceLimitError):
            compute(steps - 1)

    @pytest.mark.parametrize("pinned, pairs", zip(PINNED_STEPS, PINNED_S_PAIRS), ids=[p.id for p in PINNED_STEPS])
    def test_exact_s_pairs(self, pinned, pairs, monkeypatch):
        compute, steps = pinned.values
        calls = counting_s_pairs(monkeypatch)
        compute(steps)
        assert len(calls) == pairs

    @pytest.mark.parametrize("generators, steps, basis", TIED_LEADS)
    def test_tied_leading_monomials(self, generators, steps, basis):
        I = ideal_of(P3, *generators)
        assert [str(p) for p in buchberger(I, max_steps=steps).basis] == basis
        with pytest.raises(ResourceLimitError):
            buchberger(I, max_steps=steps - 1)

    def test_pinned_results(self):
        assert is_smooth_projective(CUBIC4) and not is_smooth_projective(CAYLEY)
        assert len(buchberger(jacobian_ideal(CUBIC4)).basis) == 16
        assert radical_member(P4.variable("x3"), jacobian_ideal(CUBIC4))
        assert not radical_member(parse_poly("x0 - x1", SMALL), TWISTED)
        assert vanishes_on(FIELD, CURVE) and vanishes_on(FIELD, CURVE, scheme_theoretic=True)
        assert not vanishes_on(TWISTED_CUBIC_FIELD, TWISTED_CUBIC)
        assert vanishes_on(FIELD, FAT_CURVE) and not vanishes_on(FIELD, FAT_CURVE, scheme_theoretic=True)
        assert vanishes_on(CONJUGATED.derivation, CONJUGATED.ideal)


def packing_and_exponents(data, nvars_max=6):
    """A packing with a drawn width, down to one bit per field, and a strategy
    for exponent vectors that fit it, biased towards the field limit."""
    nvars = data.draw(st.integers(1, nvars_max))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ideals, "_MIN_FIELD_BITS", data.draw(st.sampled_from((1, ideals._MIN_FIELD_BITS))))
        pk = ideals._Packing(nvars, data.draw(st.sampled_from((0, 1, 2, 6, 127, 128, 10**6))))
    exponent = st.integers(0, pk.room) | st.sampled_from((0, pk.room, max(pk.room - 1, 0), pk.room // 2))
    return pk, st.tuples(*[exponent] * nvars)


def tuple_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


class TestPacking:
    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_round_trip_order_and_divisibility(self, data):
        pk, exponents = packing_and_exponents(data)
        a, b = data.draw(exponents), data.draw(exponents)
        ka, kb = pk.pack(a), pk.pack(b)
        assert pk.unpack(ka) == a and pk.unpack(kb) == b
        assert (ka < kb) == (order_key(a) < order_key(b))
        assert (ka == kb) == (a == b)
        assert (not (kb - ka + pk.zero) & pk.mask) == tuple_divides(a, b)
        assert (not (ka - kb + pk.zero) & pk.mask) == tuple_divides(b, a)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_product_is_addition(self, data):
        pk, exponents = packing_and_exponents(data)
        a = data.draw(exponents)
        b = tuple(data.draw(st.integers(0, pk.room - e) | st.just(pk.room - e)) for e in a)
        product = tuple(x + y for x, y in zip(a, b))
        assert pk.pack(a) + pk.pack(b) - pk.zero == pk.pack(product)
        assert pk.zero == pk.pack((0,) * pk.nvars)

    def test_width_follows_the_degree(self):
        N = 10**6
        ctx = SMALL
        x0, x1 = ctx.variable("x0"), ctx.variable("x1")
        gb = buchberger(Ideal.spanned_by(ctx, (x0**N - x1**N, x0 * x1)))
        assert set(gb.basis) == {x0**N - x1**N, x0 * x1, x1 ** (N + 1)}
        assert normal_form(x0 ** (N + 1) + x1, gb) == x1

    def test_narrowest_start_widens_and_keeps_results(self, monkeypatch):
        """With fields no wider than the input degrees need, new basis
        elements outgrow the packing on ordinary inputs."""
        packings = []  # packings made by each top-level computation

        class Counted(ideals._Packing):
            def __init__(self, nvars, room):
                super().__init__(nvars, room)
                packings[-1] += 1

        monkeypatch.setattr(ideals, "_MIN_FIELD_BITS", 1)
        monkeypatch.setattr(ideals, "_Packing", Counted)
        for compute, steps in (p.values for p in PINNED_STEPS):
            packings.append(0)
            compute(steps)
            packings.append(0)
            with pytest.raises(ResourceLimitError):
                compute(steps - 1)
        assert max(packings) > 1
        sympy = pytest.importorskip("sympy")
        for gens in differential_corpus() + coefficient_corpus():
            ctx = gens[0].context
            ours = [dict(p._terms) for p in buchberger(Ideal.spanned_by(ctx, gens)).basis]
            assert ours == sympy_reduced_basis(sympy, gens)


def assert_clean(p):
    """p is exactly what the validating constructor would build from its terms."""
    ctx = p.context
    assert p == Polynomial(ctx, dict(p._terms))
    for m, c in p._terms.items():
        assert type(c) is Fraction and c != 0
        assert len(m) == ctx.nvars and all(type(e) is int and e >= 0 for e in m)


class TestTrustedConstruction:
    @given(st.integers(0, 10**9))
    @settings(max_examples=40, deadline=None)
    def test_engine_results_are_clean(self, seed):
        rng = random.Random(seed)
        ctx = rng.choice((SMALL, P3))
        gens = [g for g in (rand_poly(rng, ctx, max_degree=2, max_terms=3) for _ in range(3)) if g]
        if len(gens) < 2:
            return
        f, g = gens[0], gens[1]
        s = s_polynomial(f, g)
        assert_clean(s)
        (mf, cf), (mg, cg) = f.leading_term(), g.leading_term()
        lcm = tuple(max(a, b) for a, b in zip(mf, mg))
        shift = lambda m: tuple(a - b for a, b in zip(lcm, m))
        assert s == mul_term(f, shift(mf), 1 / cf) - mul_term(g, shift(mg), 1 / cg)
        gb = buchberger(Ideal.spanned_by(ctx, gens))
        for p in gb.basis:
            assert_clean(p)
        for p in (s, rand_poly(rng, ctx, max_degree=3, max_terms=4)):
            assert_clean(normal_form(p, gb))


class TestZeroLocus:
    def test_euler_field_vanishes_everywhere(self):
        locus = zero_locus_ideal(euler(P4))
        assert not locus.generators

    def test_quadric_field_components(self):
        locus = zero_locus_ideal(FIELD)
        expected = buchberger(
            ideal_of(P4, "x0*x3", "x1*x3", "x2*x3", "x0*x4", "x1*x4", "x2*x4", "x3*x4")
        )
        assert buchberger(locus) == expected
        # the plane x3 = x4 = 0 and the two coordinate points kill every minor
        for point in (
            {"x0": 1, "x1": -2, "x2": 3, "x3": 0, "x4": 0},
            {"x0": 0, "x1": 0, "x2": 0, "x3": 1, "x4": 0},
            {"x0": 0, "x1": 0, "x2": 0, "x3": 0, "x4": 1},
        ):
            for g in locus.generators:
                assert evaluate(g, point) == 0

    def test_line_pair_in_four_variables(self):
        D = Derivation.diagonal(P3, (0, 0, 1, 1))
        locus = zero_locus_ideal(D)
        expected = buchberger(ideal_of(P3, "x0*x2", "x0*x3", "x1*x2", "x1*x3"))
        assert buchberger(locus) == expected

    def test_rejects_symbolic_entries(self):
        ctx = VarContext(("x0", "x1"), ("c",))
        D = Derivation.diagonal(ctx, [ctx.variable("c"), 0])
        with pytest.raises(InputError):
            zero_locus_ideal(D)

    def test_minors_match_polynomial_products(self):
        """On seeded rational matrices the generators equal those of the
        Polynomial-product construction, in the same order and with the same
        sign (``zeros`` prints them); a multiple of the identity gives none."""
        rng = random.Random(1305)

        def entry():
            return 0 if rng.random() < 0.4 else Fraction(rng.randint(-3, 3), rng.randint(1, 4))

        for k in range(200):
            n = rng.randint(2, 5)
            names = tuple(f"x{i}" for i in range(n))
            ctx = VarContext(names, ("a",)) if rng.random() < 0.3 else VarContext(names)
            scalar = k % 10 == 0
            if scalar:
                D = Derivation.diagonal(ctx, [entry()] * n)
            else:
                D = Derivation.from_rows(ctx, [[entry() for _ in range(n)] for _ in range(n)])
            got = zero_locus_ideal(D)
            assert got == zero_locus_reference(D)
            assert not got.generators or not scalar

    @pytest.mark.parametrize("shear", [None, (0, 3), (1, 4), (2, 0)])
    def test_rational_points_match_eigenspaces(self, shear):
        # conjugating by I + E_ij keeps the matrix rationally diagonalizable
        A = [[Fraction(0)] * 5 for _ in range(5)]
        for i, w in enumerate((0, 0, 0, 1, -1)):
            A[i][i] = Fraction(w)
        if shear is not None:
            i, j = shear
            P = identity(5).entries
            P = [list(r) for r in P]
            P[i][j] += 1
            Pm = RatMatrix(P)
            P[i][j] -= 2
            Pinv = RatMatrix(P)
            A = mat_mul(mat_mul(Pm, RatMatrix(A)), Pinv).entries
        D = Derivation.from_rows(P4, A)
        locus = zero_locus_ideal(D)
        eigen = rational_eigen(RatMatrix(A).transpose())

        def on_eigenspace(v):
            for pair in eigen.pairs:
                rows = [list(b) for b in pair.space]
                _, r0 = rref(RatMatrix(rows))
                _, r1 = rref(RatMatrix(rows + [list(v)]))
                if r0 == r1:
                    return True
            return False

        for point in itertools.product((-1, 0, 1), repeat=5):
            if not any(point):
                continue
            assignment = dict(zip(P4.names, point))
            on_locus = all(evaluate(g, assignment) == 0 for g in locus.generators)
            assert on_locus == on_eigenspace(point)


class TestVanishesOn:
    def test_quadric_fixture(self):
        assert vanishes_on(FIELD, CURVE)

    def test_euler_vanishes_on_anything(self):
        assert vanishes_on(euler(P4), ideal_of(P4, "x0"))

    def test_failure_with_witness_point(self):
        hyperplane = ideal_of(P4, "x0")
        assert not vanishes_on(FIELD, hyperplane)
        # explicit witness: a point of V(x0) where a minor survives
        witness = {"x0": 0, "x1": 1, "x2": 0, "x3": 1, "x4": 1}
        minor = parse_poly("x1*x3", P4)
        assert any(g == minor or g == -minor for g in zero_locus_ideal(FIELD).generators)
        assert evaluate(minor, witness) != 0

    def test_scheme_theoretic_is_stricter(self):
        assert vanishes_on(FIELD, FAT_CURVE)
        assert not vanishes_on(FIELD, FAT_CURVE, scheme_theoretic=True)

    def test_minors_in_the_ideal_build_no_extension_basis(self, monkeypatch):
        runs = recording_groebner_runs(monkeypatch)
        assert vanishes_on(FIELD, CURVE)
        assert [pk.nvars for pk, _ in runs] == [P4.nvars]  # the curve basis only

    @pytest.mark.parametrize(
        "field, curve, scheme_theoretic, verdict",
        [
            pytest.param(FIELD, CURVE, False, True, id="quadric"),
            pytest.param(TWISTED_CUBIC_FIELD, TWISTED_CUBIC, False, False, id="twisted-cubic"),
            pytest.param(FIELD, FAT_CURVE, False, True, id="fat"),
            pytest.param(FIELD, FAT_CURVE, True, False, id="fat-scheme"),
        ],
    )
    def test_packs_the_curve_basis_once(self, monkeypatch, field, curve, scheme_theoretic, verdict):
        packings = []

        class Counted(ideals._Packing):
            def __init__(self, nvars, room):
                super().__init__(nvars, room)
                packings.append(nvars)

        monkeypatch.setattr(ideals, "_Packing", Counted)
        assert vanishes_on(field, curve, scheme_theoretic=scheme_theoretic) is verdict
        # the curve's Groebner run, then the rows of its basis with t's field,
        # which every minor and every extension test share
        nvars = curve.context.nvars
        assert packings == [nvars, nvars + 1]

    def test_extension_tests_share_the_basis_rows(self, monkeypatch):
        runs = recording_groebner_runs(monkeypatch)
        assert vanishes_on(FIELD, FAT_CURVE)
        (_, curve_rows), *extensions = runs
        # none of the seven nonzero minors x_i*x_j lies in (x0^2, x3^2, x4^2)
        assert len(extensions) == 7
        pk, rows = extensions[0]
        basis = rows[:-1]
        assert pk.nvars == P4.nvars + 1 and len(basis) == len(curve_rows) == 3
        for run_pk, run_rows in extensions:
            assert run_pk is pk
            assert len(run_rows) == len(basis) + 1
            assert all(a is b for a, b in zip(run_rows, basis))
            # the one extension row, 1 - t*g, leads with t times g's lead
            assert pk.unpack(run_rows[-1][0])[-1] == 1
        assert len({run_rows[-1][0] for _, run_rows in extensions}) == 7

    def test_a_minor_outside_the_ideal_builds_an_extension_basis(self, monkeypatch):
        runs = recording_groebner_runs(monkeypatch)
        assert not vanishes_on(TWISTED_CUBIC_FIELD, TWISTED_CUBIC)
        # the curve basis, then the extension basis of the first minor, x0*x1
        assert [pk.nvars for pk, _ in runs] == [P3.nvars, P3.nvars + 1]

    def test_builds_each_minor_when_it_tests_it(self, monkeypatch):
        """The minors come one at a time, and the first one outside the
        radical, x0*x1 of six, ends the check before the others are built."""
        built = counting_polynomials(monkeypatch)
        counts = [len(built)]
        for _ in ideals._minors(TWISTED_CUBIC_FIELD):
            counts.append(len(built))
        assert len(counts) == 7 and all(a < b for a, b in zip(counts, counts[1:]))
        first = zero_locus_ideal(TWISTED_CUBIC_FIELD).generators[0]
        drawn = []
        minors = ideals._minors
        monkeypatch.setattr(ideals, "_minors", lambda D: (drawn.append(g) or g for g in minors(D)))
        assert not vanishes_on(TWISTED_CUBIC_FIELD, TWISTED_CUBIC)
        assert drawn == [first]

    def test_symbolic_field_raises_before_any_groebner_work(self, monkeypatch):
        runs = recording_groebner_runs(monkeypatch)
        ctx = VarContext(P3.projective, ("c",))
        D = Derivation.diagonal(ctx, [ctx.variable("c"), 0, 0, 0])
        with pytest.raises(InputError, match="symbolic"):
            vanishes_on(D, ideal_of(ctx, "x0*x2 - x1^2"))
        assert not runs


class TestIdealType:
    def test_rejects_zero_generators(self):
        with pytest.raises(InputError):
            Ideal(SMALL, (SMALL.zero(),))

    def test_spanned_by_filters_zeros(self):
        ideal = Ideal.spanned_by(SMALL, (SMALL.zero(), SMALL.variable("x0")))
        assert len(ideal.generators) == 1

    def test_rejects_context_mixture(self):
        with pytest.raises(InputError):
            Ideal.spanned_by(SMALL, (P4.variable("x0"),))
