"""Degree-preserving derivations of the homogeneous coordinate ring.

A linear vector field on projective space is encoded by the square matrix
(a_ij) of the derivation  sum_ij a_ij * x_i * d/dx_j  acting on the projective
variables. Entries may mention parameter variables but never projective ones;
parameters are never differentiated. The Euler derivation (identity matrix)
multiplies a homogeneous polynomial by its degree and induces the zero field
on projective space, so derivations are compared modulo scalar multiples of
the identity (:func:`euler_reduce`). A diagonal derivation multiplies x^m by
the dot product of its diagonal with m, the weight of m.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Sequence

from .errors import InputError
from .polyring import Monomial, Polynomial, VarContext

#: a matrix entry; kept a string, because an evaluated typing.Union is cached by
#: the typing module and would keep this module alive after it is unloaded
Entry = "Polynomial | Fraction | int"


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
        """A rational entry becomes a constant; a polynomial is kept as is, its
        context checked by ``__post_init__``."""
        return cls(ctx, tuple(tuple(e if isinstance(e, Polynomial) else ctx.constant(e) for e in row) for row in rows))

    @classmethod
    def diagonal(cls, ctx: VarContext, weights: Sequence[Entry]) -> "Derivation":
        n = ctx.nproj
        if len(weights) != n:
            raise InputError("diagonal needs one weight per projective variable")
        zero = ctx.zero()
        return cls.from_rows(ctx, [[w if i == j else zero for j in range(n)] for i, w in enumerate(weights)])

    @property
    def size(self) -> int:
        return self.context.nproj

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
