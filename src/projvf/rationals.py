"""Exact rational scalars, the coefficient field for the whole package.

Python integers are already arbitrary precision, and ``fractions.Fraction``
keeps every value in canonical form (reduced, positive denominator, zero is
0/1), so equality of values is structural equality. Values are immutable and
safe to share between threads.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import InputError

Rational = Fraction

_RATIONAL_RE = re.compile(r"-?\d+(?:/\d+)?\Z")


def parse_rational(text: str) -> Fraction:
    """Parse the ``p/q`` or ``p`` decimal text form (leading ``-`` for negatives)."""
    t = text.strip()
    if not _RATIONAL_RE.match(t):
        raise InputError(f"not a rational literal: {text!r}")
    try:
        return Fraction(t)
    except ZeroDivisionError:
        raise InputError(f"zero denominator in rational literal: {text!r}") from None
