"""Degree-preserving derivations of the homogeneous coordinate ring.

A linear vector field on projective space is encoded by the square matrix
(a_ij) of the derivation  sum_ij a_ij * x_i * d/dx_j  acting on the projective
variables. Entries may mention parameter variables but never projective ones;
parameters are never differentiated. The Euler derivation (identity matrix)
multiplies a homogeneous polynomial by its degree and induces the zero field
on projective space, so derivations are compared modulo scalar multiples of
the identity (:func:`euler_reduce`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Sequence

from .errors import InputError
from .polyring import (
    Monomial,
    Polynomial,
    VarContext,
    monomials_of_degree,
)

#: a matrix entry; kept a string, because an evaluated typing.Union is cached by
#: the typing module and would keep this module alive after it is unloaded
Entry = "Polynomial | Fraction | int"


def _coerce_entry(ctx: VarContext, value: Entry) -> Polynomial:
    """A constant as a polynomial; a polynomial as is, its context checked by
    ``Derivation.__post_init__``."""
    return value if isinstance(value, Polynomial) else ctx.constant(value)


@dataclass(frozen=True)
class Derivation:
    """Matrix of a weight-zero derivation; entries are parameter polynomials."""

    context: VarContext
    entries: tuple[tuple[Polynomial, ...], ...]

    def __post_init__(self):
        n = self.context.nproj
        if len(self.entries) != n or any(len(row) != n for row in self.entries):
            raise InputError("derivation matrix must be square of size = number of projective variables")
        # equal entries of a loaded problem file share one polynomial; each is
        # checked once, in row-major order of first occurrence
        for p in {id(p): p for row in self.entries for p in row}.values():
            if p.context != self.context:
                raise InputError("derivation entry lives in a different context")
            if not p.is_parameter_only():
                raise InputError(f"derivation entries must not involve projective variables: {p}")

    @classmethod
    def from_rows(cls, ctx: VarContext, rows: Sequence[Sequence[Entry]]) -> "Derivation":
        return cls(ctx, tuple(tuple(_coerce_entry(ctx, e) for e in row) for row in rows))

    @classmethod
    def diagonal(cls, ctx: VarContext, weights: Sequence[Entry]) -> "Derivation":
        n = ctx.nproj
        if len(weights) != n:
            raise InputError("diagonal needs one weight per projective variable")
        zero = ctx.zero()
        rows = [[zero] * n for _ in range(n)]
        for i, w in enumerate(weights):
            rows[i][i] = _coerce_entry(ctx, w)
        return cls(ctx, tuple(tuple(row) for row in rows))

    @property
    def size(self) -> int:
        return self.context.nproj

    def is_diagonal(self) -> bool:
        return all(not self.entries[i][j] for i in range(self.size) for j in range(self.size) if i != j)

    def is_zero(self) -> bool:
        return all(not e for row in self.entries for e in row)

    def trace(self) -> Polynomial:
        t = self.context.zero()
        for i in range(self.size):
            t = t + self.entries[i][i]
        return t

    def constant_entries(self) -> tuple[tuple[Fraction, ...], ...]:
        """Entry grid as rationals; fails when any entry involves a parameter."""
        rows = []
        for row in self.entries:
            vals = []
            for p in row:
                if not p.is_constant():
                    raise InputError("derivation has symbolic (parameter) entries")
                vals.append(p.constant_value())
            rows.append(tuple(vals))
        return tuple(rows)

    def is_parameter_free(self) -> bool:
        return all(p.is_constant() for row in self.entries for p in row)

    def apply(self, f: Polynomial) -> Polynomial:
        """Act on a polynomial:  sum_ij a_ij * x_i * df/dx_j."""
        if f.context != self.context:
            raise InputError("polynomial belongs to a different variable context")
        # term by term: c*x^m contributes a_ij * m_j*c * x^(m - e_j + e_i)
        acc: dict[Monomial, Fraction] = {}
        get = acc.get
        for m, c in f._terms.items():
            for j in range(self.size):
                if not m[j]:
                    continue
                cj = c * m[j]
                for i, row in enumerate(self.entries):
                    if not row[j]:
                        continue
                    shifted = list(m)
                    shifted[j] -= 1
                    shifted[i] += 1
                    for p, b in row[j]._terms.items():
                        mm = tuple(map(add, shifted, p))
                        s = get(mm)
                        acc[mm] = cj * b if s is None else s + cj * b
        return Polynomial._trusted(self.context, {m: c for m, c in acc.items() if c})

    __call__ = apply

    def __str__(self) -> str:
        return "[" + "; ".join(", ".join(str(p) for p in row) for row in self.entries) + "]"


def euler_reduce(D: Derivation) -> Derivation:
    """Canonical representative modulo the Euler derivation.

    Subtracts the rational part of the average diagonal entry times the
    identity, so pure-rational matrices come out trace-free.
    """
    ctx = D.context
    avg = D.trace() * Fraction(1, D.size)
    shift = avg.coefficient(ctx.unit_monomial())
    if not shift:
        return D
    rows = [list(row) for row in D.entries]
    for i in range(D.size):
        rows[i][i] = rows[i][i] - ctx.constant(shift)
    return Derivation(ctx, tuple(tuple(row) for row in rows))


def monomial_weight(D: Derivation, m: Monomial) -> Polynomial:
    """Scaling weight of a monomial under a diagonal derivation.

    For diagonal D with diagonal entries w_i, applying D to a monomial with
    projective exponents e_i multiplies it by  sum_i e_i * w_i; that scalar
    (a parameter polynomial) is returned.
    """
    if not D.is_diagonal():
        raise InputError("monomial weights are defined for diagonal derivations only")
    ctx = D.context
    if len(m) != ctx.nvars:
        raise InputError("monomial does not fit the variable context")
    w = ctx.zero()
    for i in range(D.size):
        if m[i]:
            w = w + D.entries[i][i] * m[i]
    return w


def weight_zero_monomials(D: Derivation, degree: int) -> list[Monomial]:
    """All degree-d projective monomials of weight zero, sorted descending.

    Exactly the monomials allowed in an invariant polynomial h with D h = 0.
    Requires a diagonal derivation with rational diagonal.
    """
    if not D.is_diagonal():
        raise InputError("weight analysis is defined for diagonal derivations only")
    diag = [D.entries[i][i] for i in range(D.size)]
    if any(not w.is_constant() for w in diag):
        raise InputError("weight-zero enumeration needs a rational diagonal")
    weights = [w.constant_value() for w in diag]
    monomials = monomials_of_degree(D.context, degree)
    return [m for m in monomials if sum(w * e for w, e in zip(weights, m)) == 0]
