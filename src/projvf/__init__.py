"""Exact symbolic toolkit for linear vector fields on projective hypersurfaces.

Rational-coefficient polynomial rings with parameters, weight-zero
derivations, exact linear algebra, Groebner-basis ideal machinery, and the
analysis layer that certifies which hypersurfaces carry fields vanishing on a
complete-intersection curve.
"""

from .analysis import (
    INDEX_GENUS_TABLE,
    CoefficientIdentityReport,
    ConeShape,
    ConeShapeError,
    DegreeCase,
    NonexistenceCertificate,
    StabilizerSolution,
    VanishingVerdict,
    check_vanishing_on_curve,
    coefficient_identity,
    cone_shape,
    degree_case_table,
    fano_genus,
    nonexistence_check,
    stabilizer_algebra,
    structured_derivation,
)
from .derivations import Derivation
from .errors import InputError, ParseError, ResourceLimitError, ToolError
from .ideals import (
    DEFAULT_MAX_STEPS,
    GroebnerBasis,
    Ideal,
    buchberger,
    ideal_member,
    is_smooth_projective,
    normal_form,
    radical_member,
    vanishes_on,
    zero_locus_ideal,
)
from .linalg import (
    EigenDecomposition,
    EigenPair,
    RatMatrix,
    UnivariatePoly,
    char_poly,
    kernel_basis,
    rational_eigen,
    rref,
)
from .parser import parse_poly, tokenize
from .polyring import (
    Monomial,
    Polynomial,
    VarContext,
    coefficient_of,
    homogeneous_degree,
    monomials_of_degree,
    order_key,
)

__version__ = "0.1.0"

__all__ = [
    "CoefficientIdentityReport",
    "ConeShape",
    "ConeShapeError",
    "DEFAULT_MAX_STEPS",
    "DegreeCase",
    "Derivation",
    "EigenDecomposition",
    "EigenPair",
    "GroebnerBasis",
    "INDEX_GENUS_TABLE",
    "Ideal",
    "InputError",
    "Monomial",
    "NonexistenceCertificate",
    "ParseError",
    "Polynomial",
    "RatMatrix",
    "ResourceLimitError",
    "StabilizerSolution",
    "ToolError",
    "UnivariatePoly",
    "VanishingVerdict",
    "VarContext",
    "buchberger",
    "char_poly",
    "check_vanishing_on_curve",
    "coefficient_identity",
    "coefficient_of",
    "cone_shape",
    "degree_case_table",
    "fano_genus",
    "homogeneous_degree",
    "ideal_member",
    "is_smooth_projective",
    "kernel_basis",
    "monomials_of_degree",
    "normal_form",
    "nonexistence_check",
    "order_key",
    "parse_poly",
    "radical_member",
    "rational_eigen",
    "rref",
    "stabilizer_algebra",
    "structured_derivation",
    "tokenize",
    "vanishes_on",
    "zero_locus_ideal",
]
