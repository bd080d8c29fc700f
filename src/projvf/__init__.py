"""Exact symbolic toolkit for linear vector fields on projective hypersurfaces.

Rational-coefficient polynomial rings with parameters, weight-zero
derivations, exact linear algebra, Groebner-basis ideal machinery, and the
analysis layer that certifies which hypersurfaces carry fields vanishing on a
complete-intersection curve.

Importing the package loads none of its modules: a public name, or one of the
modules in ``_EXPORTS``, is imported the first time it is read (PEP 562).
"""

import importlib

__version__ = "0.1.0"

#: each module with the public names it defines; a name is listed once, here
_EXPORTS = {
    "analysis": (
        "INDEX_GENUS_TABLE", "CoefficientIdentityReport", "ConeShape", "ConeShapeError", "DegreeCase",
        "NonexistenceCertificate", "StabilizerSolution", "VanishingVerdict", "check_vanishing_on_curve",
        "coefficient_identity", "cone_shape", "degree_case_table", "fano_genus", "nonexistence_check",
        "stabilizer_algebra", "structured_derivation",
    ),
    "derivations": ("Derivation",),
    "errors": ("InputError", "ParseError", "ResourceLimitError", "ToolError"),
    "ideals": (
        "DEFAULT_MAX_STEPS", "GroebnerBasis", "Ideal", "buchberger", "ideal_member", "is_smooth_projective",
        "normal_form", "radical_member", "vanishes_on", "zero_locus_ideal",
    ),
    "linalg": (
        "EigenDecomposition", "EigenPair", "RatMatrix", "UnivariatePoly", "char_poly", "kernel_basis",
        "rational_eigen", "rref",
    ),
    "parser": ("parse_poly", "tokenize"),
    "polyring": (
        "Monomial", "Polynomial", "VarContext", "coefficient_of", "monomials_of_degree", "order_key",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
        globals()[name] = value  # later reads find it without this call
        return value
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
