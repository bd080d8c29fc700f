"""Every precondition check raises its typed error with its own message.

One row per check that no other test reaches, or reaches only through a
random example: the callable that violates it and the exact message. The
type must be InputError itself, not a subclass such as ParseError.
"""

import pytest

from projvf import (
    DegreeCase,
    Derivation,
    Ideal,
    InputError,
    RatMatrix,
    check_vanishing_on_curve,
    coefficient_of,
    cone_shape,
    monomials_of_degree,
    parse_poly,
    radical_member,
    vanishes_on,
)
from projvf.verify import LINE_FIELD, P3, P4, QUADRIC, QUADRIC_CURVE, QUADRIC_FIELD
from support import P4C

P3_CURVE = Ideal.spanned_by(P3, (P3.variable("x3"),))
SYMBOLIC_FIELD = Derivation.diagonal(P4C, (P4C.variable("a"), 0, 0, 0, 0))
WRONG_WIDTH = "monomial does not fit the variable context"

CASES = {
    "vanishing verdict across contexts": (
        lambda: check_vanishing_on_curve(QUADRIC, QUADRIC_FIELD, P3_CURVE),
        "hypersurface, derivation and ideal must share one variable context",
    ),
    "vanishing verdict with a symbolic field": (
        lambda: check_vanishing_on_curve(
            parse_poly("x0^2 + x1^2 + x2^2 + x3*x4", P4C),
            SYMBOLIC_FIELD,
            Ideal.spanned_by(P4C, (P4C.variable("x3"),)),
        ),
        "the verdict needs a derivation with rational entries",
    ),
    "degree case with a wrong divisor index": (
        lambda: DegreeCase(gen_cube=2, degree=1, divisor_index=1, fano_index=2, verdict="quadric"),
        "divisor index must equal 4 - cube * degree",
    ),
    "degree case with a wrong total index": (
        lambda: DegreeCase(gen_cube=2, degree=1, divisor_index=2, fano_index=4, verdict="quadric"),
        "total index must equal divisor index + degree",
    ),
    "degree case of index zero": (
        lambda: DegreeCase(gen_cube=4, degree=2, divisor_index=-4, fano_index=-2, verdict="quartic"),
        "the index of a Fano threefold is at least 1",
    ),
    "cone decomposition in P^3": (
        lambda: cone_shape(P3.variable("x0") ** 2),
        "cone decomposition expects five projective variables",
    ),
    "diagonal with too few weights": (
        lambda: Derivation.diagonal(P4, (1, 2)),
        "diagonal needs one weight per projective variable",
    ),
    "radical membership across contexts": (
        lambda: radical_member(P3.variable("x0"), QUADRIC_CURVE),
        "polynomial and ideal belong to different variable contexts",
    ),
    "vanishing across contexts": (
        lambda: vanishes_on(LINE_FIELD, QUADRIC_CURVE),
        "derivation and ideal belong to different variable contexts",
    ),
    "empty matrix": (lambda: RatMatrix([]), "matrix must have at least one row and one column"),
    "matrix of empty rows": (lambda: RatMatrix([[]]), "matrix must have at least one row and one column"),
    "ragged matrix": (lambda: RatMatrix([[1, 2], [3]]), "matrix rows must all have the same length"),
    "negative exponent in a monomial": (lambda: P4.monomial({"x0": -1}), "negative exponent for 'x0'"),
    "leading term of zero": (lambda: P4.zero().leading_term(), "the zero polynomial has no leading term"),
    "constant value of a non-constant": (
        lambda: QUADRIC.constant_value(),
        "not a constant polynomial: x0^2 + x1^2 + x2^2 + x3*x4",
    ),
    "negative power": (lambda: QUADRIC**-1, "polynomial powers take nonnegative integer exponents"),
    "term product with a short monomial": (lambda: QUADRIC.mul_term((1, 0), 1), WRONG_WIDTH),
    "coefficient of a short monomial": (lambda: coefficient_of(QUADRIC, (2, 0)), WRONG_WIDTH),
    "monomials of negative degree": (lambda: monomials_of_degree(P4, -1), "degree must be nonnegative"),
}


@pytest.mark.parametrize("call, message", CASES.values(), ids=[name.replace(" ", "-") for name in CASES])
def test_raises_input_error_with_its_message(call, message):
    with pytest.raises(InputError) as err:
        call()
    assert type(err.value) is InputError
    assert str(err.value) == message
