"""Built-in verification suite: the golden computations the toolkit must reproduce.

Every fixture is embedded here so the suite runs with no external files. Each
check returns its name, a verdict and a one-line detail string; the command
line prints one PASS/FAIL line per check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .analysis import (
    INDEX_GENUS_TABLE,
    check_vanishing_on_curve,
    coefficient_identity,
    cone_shape,
    degree_case_table,
    fano_genus,
    nonexistence_check,
    stabilizer_algebra,
)
from .derivations import Derivation
from .ideals import Ideal, buchberger, is_smooth_projective, zero_locus_ideal
from .linalg import RatMatrix, rational_eigen
from .parser import parse_poly
from .polyring import VarContext


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


P4 = VarContext(("x0", "x1", "x2", "x3", "x4"))
P3 = VarContext(("x0", "x1", "x2", "x3"))

QUADRIC = parse_poly("x0^2 + x1^2 + x2^2 + x3*x4", P4)
QUADRIC_FIELD = Derivation.diagonal(P4, (0, 0, 0, 1, -1))
CONE = parse_poly("x0^2 + x1^2 + x2^2", P4)
QUADRIC_CURVE = Ideal.spanned_by(P4, (CONE, P4.variable("x3"), P4.variable("x4")))
FERMAT = {d: parse_poly(" + ".join(f"x{i}^{d}" for i in range(5)), P4) for d in (2, 3, 4)}
LINE_FIELD = Derivation.diagonal(P3, (0, 0, 1, 1))


def _quadric_annihilated() -> tuple[bool, str]:
    image = QUADRIC_FIELD(QUADRIC)
    return not image, f"derivative of the quadric equation = {image}"


def _quadric_verdict() -> tuple[bool, str]:
    v = check_vanishing_on_curve(QUADRIC, QUADRIC_FIELD, QUADRIC_CURVE)
    ok = v.all_pass and v.scaling == 0
    return ok, (
        f"stabilizes={v.stabilizes} smooth={v.smooth} vanishes={v.vanishes_on_curve} scaling={v.scaling}"
    )


def _identity_check(d: int) -> tuple[bool, str]:
    rep = coefficient_identity(d)
    return rep.holds, f"top: {rep.top_extracted} == {rep.top_expected}; bottom: {rep.bottom_extracted} == {rep.bottom_expected}"


def _nonexistence(d: int) -> tuple[bool, str]:
    cert = nonexistence_check(d)
    weights = ", ".join(f"{m}:{w}" for m, w in cert.forbidden_weights)
    return cert.valid, f"{len(cert.allowed)} allowed monomials; forbidden weights {weights}"


def _line_pair_locus() -> tuple[bool, str]:
    # the reduced basis of the monomial ideal of the lines x0 = x1 = 0 and x2 = x3 = 0
    basis = [str(p) for p in buchberger(zero_locus_ideal(LINE_FIELD)).basis]
    if basis != ["x0*x2", "x1*x2", "x0*x3", "x1*x3"]:
        return False, "minor ideal differs from the two-line ideal"
    eigen = rational_eigen(RatMatrix(LINE_FIELD.constant_entries()).transpose())
    values = {(p.value, len(p.space)) for p in eigen.pairs}
    ok = values == {(Fraction(0), 2), (Fraction(1), 2)} and eigen.residual.is_one()
    return ok, f"basis={basis}; eigenspace dims={sorted(values)}"


def _genus_table() -> tuple[bool, str]:
    bad = [(r, c, g, fano_genus(r, c)) for r, c, g in INDEX_GENUS_TABLE if fano_genus(r, c) != g]
    return not bad, f"{len(INDEX_GENUS_TABLE)} rows checked" + (f"; mismatches {bad}" if bad else "")


def _degree_cases() -> tuple[bool, str]:
    got = [(c.gen_cube, c.degree, c.fano_index, c.verdict) for c in degree_case_table()]
    expected = [
        (4, 1, 1, "quartic"),
        (3, 1, 2, "cubic"),
        (2, 1, 3, "quadric"),
        (2, 2, 2, "quadric"),
        (2, 3, 1, "quadric"),
        (1, 1, 4, "P^3"),
        (1, 2, 4, "P^3"),
        (1, 3, 4, "P^3"),
    ]
    return got == expected, f"{len(got)} cases enumerated"


def _smoothness() -> tuple[bool, str]:
    verdicts = {f"degree-{d} diagonal": is_smooth_projective(FERMAT[d]) for d in (2, 3, 4)}
    verdicts["cone over a conic"] = is_smooth_projective(CONE)
    ok = verdicts.pop("cone over a conic") is False and all(verdicts.values())
    return ok, "diagonal hypersurfaces smooth, the cone singular" if ok else f"unexpected: {verdicts}"


def _stabilizer_dimensions() -> tuple[bool, str]:
    dim_q = stabilizer_algebra(QUADRIC).dimension
    dim_c = stabilizer_algebra(FERMAT[3]).dimension
    return (dim_q, dim_c) == (11, 1), f"quadric: {dim_q} (want 11); diagonal cubic: {dim_c} (want 1)"


def _cone_decomposition() -> tuple[bool, str]:
    shape = cone_shape(QUADRIC)
    ok = (
        shape.base == CONE
        and shape.cofactor == P4.variable("x3")
        and shape.x3_top == 1
        and shape.x4_top == (Fraction(0), Fraction(0), Fraction(0), Fraction(1), Fraction(0))
    )
    tops = ", ".join(str(c) for c in shape.x4_top)
    return ok, f"base={shape.base}; cofactor={shape.cofactor}; tops={shape.x3_top} and ({tops})"


CHECKS = (
    ("quadric-derivative-vanishes", _quadric_annihilated),
    ("quadric-curve-verdict", _quadric_verdict),
    ("scaling-identities-degree-2", lambda: _identity_check(2)),
    ("scaling-identities-degree-3", lambda: _identity_check(3)),
    ("scaling-identities-degree-4", lambda: _identity_check(4)),
    ("nonexistence-degree-3", lambda: _nonexistence(3)),
    ("nonexistence-degree-4", lambda: _nonexistence(4)),
    ("line-pair-zero-locus", _line_pair_locus),
    ("index-genus-table", _genus_table),
    ("degree-case-table", _degree_cases),
    ("smoothness-criterion", _smoothness),
    ("stabilizer-dimensions", _stabilizer_dimensions),
    ("cone-decomposition", _cone_decomposition),
)


def run_all() -> list[CheckResult]:
    results = []
    for name, fn in CHECKS:
        try:
            ok, detail = fn()
        except Exception as exc:  # a crashing check is a failing check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(name=name, ok=ok, detail=detail))
    return results
