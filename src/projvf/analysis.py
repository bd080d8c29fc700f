"""Hypersurface analysis: stabilizers, cone decompositions, certificates.

This is the layer the command line exposes. It decides which linear vector
fields are tangent to a given hypersurface (the stabilizer algebra), breaks a
cone-shaped equation into its base and cofactor parts, verifies the two exact
coefficient identities that force the diagonal normal form, produces the
degree-3 and degree-4 nonexistence certificates, and evaluates the small
index/genus arithmetic for Fano threefolds of Picard rank one.

The nonexistence certificate's vertex fields and the cone split's top
coefficients read h and its gradient at a coordinate vertex off the
coefficients of the vertex monomials (``polyring._vertex_monomials``).

All verdicts carry machine-readable witnesses so the command line can print a
reason, never a bare boolean.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Optional, Sequence

from .derivations import Derivation
from .errors import InputError, ToolError
from .ideals import DEFAULT_MAX_STEPS, Ideal, _check_hypersurface, is_smooth_projective, vanishes_on
from .linalg import RatMatrix, kernel_basis
from .polyring import Monomial, Polynomial, VarContext, _vertex_monomials, coefficient_of, monomials_of_degree


# -- stabilizer algebras ------------------------------------------------------


@dataclass(frozen=True)
class StabilizerSolution:
    """Basis of the space of pairs (A, c) with  D_A h = c * h."""

    context: VarContext
    pairs: tuple[tuple[RatMatrix, Fraction], ...]

    @property
    def dimension(self) -> int:
        return len(self.pairs)


def stabilizer_algebra(h: Polynomial) -> StabilizerSolution:
    """Solve  D_A h = c * h  exactly for all matrices A and scalars c.

    Expands the condition into a linear system in the (n+1)^2 + 1 unknowns
    (entries of A, then c) by matching the coefficient of every monomial, and
    returns the canonical kernel basis. The Euler pair (identity, deg h)
    always lies in the span. A term b*x^k of h puts k_j*b at x^(k - e_j + e_i)
    in column (i, j), the only entry it gets there, and -b at x^k in column c.
    """
    _check_hypersurface(h)
    n = h.context.nproj
    system: dict[Monomial, list[Fraction]] = defaultdict(lambda: [Fraction(0)] * (n * n + 1))
    for k, b in h._terms.items():
        system[k][n * n] = -b
        for j in (j for j in range(n) if k[j]):
            lowered = k[:j] + (k[j] - 1,) + k[j + 1 :]
            for i in range(n):
                system[lowered[:i] + (lowered[i] + 1,) + lowered[i + 1 :]][i * n + j] = k[j] * b
    basis = kernel_basis(RatMatrix(list(system.values())))
    pairs = tuple((RatMatrix([vec[i * n : (i + 1) * n] for i in range(n)]), vec[-1]) for vec in basis)
    return StabilizerSolution(context=h.context, pairs=pairs)


# -- the structured normal form ----------------------------------------------


def structured_derivation(ctx: VarContext, star: Sequence, a) -> Derivation:
    """The 5x5 derivation that is zero except for a 1 in the fourth diagonal
    slot and a last row (star_0, star_1, star_2, star_3, a).

    ``star`` entries and ``a`` may be rationals or parameter polynomials.
    """
    if ctx.nproj != 5:
        raise InputError("the structured derivation lives in five projective variables")
    if len(star) != 4:
        raise InputError("star takes exactly four entries")
    zero = ctx.zero()
    rows = [[zero] * 5 for _ in range(4)] + [[*star, a]]
    rows[3][3] = 1
    return Derivation.from_rows(ctx, rows)


# -- cone-shaped equations -----------------------------------------------------


class ConeShapeError(ToolError):
    """The equation is not of cone shape; carries the offending monomial."""

    def __init__(self, monomial: str):
        super().__init__(
            f"not a cone-shaped equation: monomial {monomial} involves the fourth "
            "variable but not the fifth and lies outside the base part"
        )
        self.monomial = monomial


@dataclass(frozen=True)
class ConeShape:
    """Decomposition h = base(x0,x1,x2) + x4 * cofactor, with the two
    smoothness-critical coefficient groups."""

    base: Polynomial
    cofactor: Polynomial
    x3_top: Fraction
    x4_top: tuple[Fraction, ...]

    @property
    def x3_top_nonzero(self) -> bool:
        return bool(self.x3_top)

    @property
    def x4_top_nonzero(self) -> bool:
        return any(self.x4_top)


def cone_shape(h: Polynomial) -> ConeShape:
    """Split a cone-shaped degree-d equation into base and cofactor.

    Succeeds exactly when every monomial containing x3 also contains x4; the
    base collects the x3,x4-free terms and the cofactor is (h - base)/x4.
    Reports h's coefficient of x3^(d-1)*x4, which is dh/dx4 at e_3 and the
    coefficient of x3^(d-1) in the cofactor, and h's coefficients of the
    vertex monomials at e_4: x_i*x4^(d-1) for i < 4 and x4^d, the raw value
    h(e_4) with no factor d (both groups must survive for a smooth
    hypersurface with cone section and vertex outside the second hyperplane).
    """
    d = _check_hypersurface(h)
    ctx = h.context
    if ctx.nproj != 5:
        raise InputError("cone decomposition expects five projective variables")
    i3, i4 = 3, 4
    base_terms: dict[Monomial, Fraction] = {}
    cof_terms: dict[Monomial, Fraction] = {}
    for m, c in h.items():
        if m[i4] > 0:
            mm = m[:i4] + (m[i4] - 1,) + m[i4 + 1 :]
            cof_terms[mm] = c
        elif m[i3] > 0:
            raise ConeShapeError(ctx.monomial_str(m))
        else:
            base_terms[m] = c
    base = Polynomial(ctx, base_terms)
    cofactor = Polynomial(ctx, cof_terms)
    x3_top = h.coefficient(_vertex_monomials(ctx, i3, d)[i4])
    x4_top = tuple(map(h.coefficient, _vertex_monomials(ctx, i4, d)))
    return ConeShape(base=base, cofactor=cofactor, x3_top=x3_top, x4_top=x4_top)


# -- exact coefficient identities ----------------------------------------------


@dataclass(frozen=True)
class CoefficientIdentityReport:
    """The two symbolic identities behind the diagonal normal form, verified
    on a fully generic cone-shaped equation of the given degree."""

    degree: int
    top_extracted: Polynomial
    top_expected: Polynomial
    bottom_extracted: Polynomial
    bottom_expected: Polynomial
    degenerate_coincidence: bool

    @property
    def top_holds(self) -> bool:
        return self.top_extracted == self.top_expected

    @property
    def bottom_holds(self) -> bool:
        return self.bottom_extracted == self.bottom_expected

    @property
    def holds(self) -> bool:
        return self.top_holds and self.bottom_holds


def coefficient_identity(d: int) -> CoefficientIdentityReport:
    """Verify both scaling identities for degree d in {2, 3, 4}.

    Builds the generic cone-shaped equation (one fresh parameter per allowed
    monomial, the x3^(d-1)*x4 slot named c) and the structured derivation
    with symbolic last row (stars and a). The coefficient of x3^(d-1)*x4 in
    the derivative must equal c*(d-1+a) identically. Separately, the diagonal
    derivation with weights (0,0,0,1,1-d) scales c*x3*x4^(d-1) by 1-(d-1)^2.
    For d = 2 the two monomials coincide, the degenerate case that admits an
    invariant smooth quadric.
    """
    if d not in (2, 3, 4):
        raise InputError("coefficient identities are stated for degrees 2, 3 and 4")
    proj = ("x0", "x1", "x2", "x3", "x4")
    plain = VarContext(proj)
    cone_monos = [m for m in monomials_of_degree(plain, d) if m[3] == 0 or m[4] > 0]
    top_exp = plain.monomial({"x3": d - 1, "x4": 1})
    others = [m for m in cone_monos if m != top_exp]
    params = ("c", "a", "s0", "s1", "s2", "s3") + tuple(f"b{k}" for k in range(len(others)))
    ctx = VarContext(proj, params)

    def lift(m: Monomial, param: Optional[str] = None) -> Monomial:
        """m in ctx, times the parameter named ``param`` when given."""
        return m[:5] + tuple(int(name == param) for name in params)

    c = ctx.variable("c")
    a = ctx.variable("a")
    h_sym = Polynomial(ctx, {lift(top_exp, "c"): 1, **{lift(m, f"b{k}"): 1 for k, m in enumerate(others)}})

    D = structured_derivation(ctx, [ctx.variable(s) for s in ("s0", "s1", "s2", "s3")], a)
    top_extracted = coefficient_of(D(h_sym), lift(top_exp))
    top_expected = c * (d - 1) + c * a

    bottom = plain.monomial({"x3": 1, "x4": d - 1})
    D_diag = Derivation.diagonal(ctx, (0, 0, 0, 1, 1 - d))
    bottom_extracted = coefficient_of(D_diag(Polynomial(ctx, {lift(bottom, "c"): 1})), lift(bottom))
    bottom_expected = c * (1 - (d - 1) ** 2)

    return CoefficientIdentityReport(
        degree=d,
        top_extracted=top_extracted,
        top_expected=top_expected,
        bottom_extracted=bottom_extracted,
        bottom_expected=bottom_expected,
        degenerate_coincidence=(top_exp == bottom),
    )


# -- nonexistence certificates ---------------------------------------------------


@dataclass(frozen=True)
class NonexistenceCertificate:
    """Exact evidence that no smooth degree-d hypersurface is invariant under
    the diagonal derivation with weights (0,0,0,1,1-d), d in {3, 4}.

    The weight of a monomial is the dot product of ``diagonal`` with its
    exponents, read off that tuple with no derivation built. ``allowed``
    lists every degree-d monomial of weight zero; ``forbidden_weights`` gives
    the weights of the vertex monomials x_i*x4^(d-1) and x4^d, all nonzero,
    so none of them is allowed. Their coefficients are h and its gradient at
    the vertex (0:0:0:0:1), so the generic combination of the allowed
    monomials, which has a nonzero coefficient exactly at them, vanishes
    there with its whole gradient: ``vertex_value_zero`` says x4^d is not
    allowed, and ``vertex_gradient_zero`` that no vertex monomial is."""

    degree: int
    diagonal: tuple[Fraction, ...]
    allowed: tuple[str, ...]
    forbidden_weights: tuple[tuple[str, Fraction], ...]
    no_forbidden_allowed: bool
    vertex_value_zero: bool
    vertex_gradient_zero: bool

    @property
    def valid(self) -> bool:
        return self.no_forbidden_allowed and self.vertex_value_zero and self.vertex_gradient_zero


def nonexistence_check(d: int) -> NonexistenceCertificate:
    if d == 2:
        raise InputError(
            "degree 2 is excluded: x3*x4 has weight zero under (0,0,0,1,-1) "
            "and an invariant smooth quadric exists"
        )
    if d not in (3, 4):
        raise InputError("nonexistence certificates are stated for degrees 3 and 4")
    plain = VarContext(("x0", "x1", "x2", "x3", "x4"))
    weights = (Fraction(0), Fraction(0), Fraction(0), Fraction(1), Fraction(1 - d))
    weight = {m: sum(map(mul, weights, m)) for m in monomials_of_degree(plain, d)}
    allowed = [m for m, w in weight.items() if not w]
    allowed_set = set(allowed)
    vertex = _vertex_monomials(plain, 4, d)
    forbidden = [(m, weight[m]) for m in vertex]

    return NonexistenceCertificate(
        degree=d,
        diagonal=weights,
        allowed=tuple(plain.monomial_str(m) for m in allowed),
        forbidden_weights=tuple((plain.monomial_str(m), w) for m, w in forbidden),
        no_forbidden_allowed=all(w != 0 and m not in allowed_set for m, w in forbidden),
        vertex_value_zero=vertex[4] not in allowed_set,
        vertex_gradient_zero=allowed_set.isdisjoint(vertex),
    )


# -- combined hypersurface/curve verdict ----------------------------------------


@dataclass(frozen=True)
class VanishingVerdict:
    """Outcome of the three checks for a field vanishing on a curve:
    the derivation stabilizes the hypersurface, the hypersurface is smooth,
    and the field vanishes on the zero set of the curve ideal."""

    stabilizes: bool
    smooth: bool
    vanishes_on_curve: bool
    scaling: Optional[Fraction]
    euler_witness: bool
    failures: tuple[str, ...]

    @property
    def all_pass(self) -> bool:
        return self.stabilizes and self.smooth and self.vanishes_on_curve


def check_vanishing_on_curve(
    h: Polynomial,
    D: Derivation,
    curve: Ideal,
    scheme_theoretic: bool = False,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> VanishingVerdict:
    _check_hypersurface(h)
    if D.context != h.context or curve.context != h.context:
        raise InputError("hypersurface, derivation and ideal must share one variable context")
    if not D.is_parameter_free():
        raise InputError("the verdict needs a derivation with rational entries")
    A = D.constant_entries()
    # a scalar matrix, zero included, is a multiple of the Euler field
    euler_witness = all(a == (A[0][0] if i == j else 0) for i, row in enumerate(A) for j, a in enumerate(row))

    failures: list[str] = []
    Dh = D(h)
    m, c = h.leading_term()
    candidate = Dh.coefficient(m) / c
    diff = Dh - h * candidate
    if not diff:
        stabilizes, scaling = True, candidate
    else:
        stabilizes, scaling = False, None
        witness = diff.leading_term()[0]
        failures.append(
            f"stabilizes: derivative differs from every scalar multiple at {h.context.monomial_str(witness)}"
        )

    smooth = is_smooth_projective(h, max_steps)
    if not smooth:
        failures.append("smooth: the gradient has a common projective zero with the equation")

    vanishes = vanishes_on(D, curve, scheme_theoretic=scheme_theoretic, max_steps=max_steps)
    if not vanishes:
        vanishing_kind = "ideal" if scheme_theoretic else "radical"
        failures.append(f"vanishes_on_curve: some zero-locus minor fails {vanishing_kind} membership")

    return VanishingVerdict(
        stabilizes=stabilizes,
        smooth=smooth,
        vanishes_on_curve=vanishes,
        scaling=scaling,
        euler_witness=euler_witness,
        failures=tuple(failures),
    )


# -- index and genus arithmetic ---------------------------------------------------


@dataclass(frozen=True)
class DegreeCase:
    """One admissible pair of ample-generator cube and divisor degree."""

    gen_cube: int
    degree: int
    divisor_index: int
    fano_index: int
    verdict: str

    def __post_init__(self):
        if self.divisor_index != 4 - self.gen_cube * self.degree:
            raise InputError("divisor index must equal 4 - cube * degree")
        if self.fano_index != self.divisor_index + self.degree:
            raise InputError("total index must equal divisor index + degree")
        if self.fano_index < 1:
            raise InputError("the index of a Fano threefold is at least 1")


_CASE_VERDICTS = {4: "quartic", 3: "cubic", 2: "quadric", 1: "P^3"}


def degree_case_table() -> tuple[DegreeCase, ...]:
    """All pairs (cube, degree) with cube in 1..4 and positive resulting index.

    For cube = 1 the index is 4 for every degree; the enumeration is capped at
    degree 3 where all other cases stop.
    """
    rows = []
    for cube in (4, 3, 2, 1):
        for degree in (1, 2, 3):
            fano_index = 4 - (cube - 1) * degree
            if fano_index < 1:
                continue
            rows.append(
                DegreeCase(
                    gen_cube=cube,
                    degree=degree,
                    divisor_index=4 - cube * degree,
                    fano_index=fano_index,
                    verdict=_CASE_VERDICTS[cube],
                )
            )
    return tuple(rows)


def fano_genus(index: int, gen_cube: int) -> int:
    """Genus of a Fano threefold of the given index and ample-generator cube:
    half the anticanonical cube plus one."""
    if index < 1 or gen_cube < 1:
        raise InputError("the index and the generator cube must be at least 1")
    cube = index**3 * gen_cube
    if cube % 2:
        raise InputError("index^3 * cube must be even for an integral genus")
    return cube // 2 + 1


#: Classification rows (index, generator cube, genus) for Picard rank one.
INDEX_GENUS_TABLE: tuple[tuple[int, int, int], ...] = (
    (4, 1, 33),
    (3, 2, 28),
    (2, 1, 5),
    (2, 2, 9),
    (2, 3, 13),
    (2, 4, 17),
    (2, 5, 21),
    (1, 2, 2),
    (1, 4, 3),
    (1, 4, 3),
    (1, 6, 4),
    (1, 8, 5),
    (1, 10, 6),
    (1, 12, 7),
    (1, 14, 8),
    (1, 16, 9),
    (1, 18, 10),
    (1, 22, 12),
)
