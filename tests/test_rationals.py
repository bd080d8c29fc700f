from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from projvf import InputError, parse_rational

fractions = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**6)


def test_canonical_form_is_unique():
    # polynomial equality compares coefficients structurally, which relies on this
    assert Fraction(2, 4) == Fraction(1, 2)
    assert Fraction(-3, -6) == Fraction(1, 2)
    assert (Fraction(2, 4).numerator, Fraction(2, 4).denominator) == (1, 2)
    assert Fraction(0, 5) == Fraction(0, 1)
    assert Fraction(3, -6).denominator > 0


@given(fractions)
def test_round_trip(x):
    assert parse_rational(str(x)) == x


def test_parse_rational_text_forms():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-3/4") == Fraction(-3, 4)
    assert parse_rational("17") == 17
    assert parse_rational("-5") == -5
    for bad in ("3/0", "1.5", "3/-4", "x", "+3", ""):
        with pytest.raises(InputError):
            parse_rational(bad)
