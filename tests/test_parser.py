import json
import os
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from projvf import ParseError, Polynomial, VarContext, cli, parse_poly, parser, tokenize
from projvf.parser import MAX_COEFFICIENT_BITS, MAX_EXPONENT, MAX_NESTING
from projvf.verify import P4
from support import P4C, SMALL, rand_poly


class TestGolden:
    def test_quadric(self):
        h = parse_poly("x0^2 + x1^2 + x2^2 + x3*x4", P4)
        assert str(h) == "x0^2 + x1^2 + x2^2 + x3*x4"

    def test_negated_difference(self):
        assert parse_poly("-(x0 - x0)", P4) == P4.zero()

    def test_parameter_term(self):
        p = parse_poly("c*x3^2*x4", P4C)
        assert p == P4C.variable("c") * P4C.variable("x3") ** 2 * P4C.variable("x4")


class TestGrammar:
    def test_precedence_power_over_minus(self):
        assert parse_poly("-x0^2", SMALL) == -(SMALL.variable("x0") ** 2)

    def test_precedence_times_over_plus(self):
        x0, x1, x2 = (SMALL.variable(v) for v in SMALL.projective)
        assert parse_poly("x0 + x1*x2", SMALL) == x0 + x1 * x2

    def test_left_associative_subtraction(self):
        x0, x1, x2 = (SMALL.variable(v) for v in SMALL.projective)
        assert parse_poly("x0 - x1 - x2", SMALL) == (x0 - x1) - x2

    def test_unary_minus_binds_inside_products(self):
        x0, x1 = SMALL.variable("x0"), SMALL.variable("x1")
        assert parse_poly("-x0*x1", SMALL) == -(x0 * x1)
        assert parse_poly("x0*-x1", SMALL) == -(x0 * x1)

    def test_rational_coefficients(self):
        x0 = SMALL.variable("x0")
        assert parse_poly("1/2*x0", SMALL) == Fraction(1, 2) * x0
        assert parse_poly("-3/4", SMALL) == SMALL.constant(Fraction(-3, 4))
        assert parse_poly("x0/2", SMALL) == Fraction(1, 2) * x0

    def test_parentheses(self):
        x0, x1 = SMALL.variable("x0"), SMALL.variable("x1")
        assert parse_poly("(x0 + x1)^2", SMALL) == (x0 + x1) ** 2

    def test_zero_exponent(self):
        assert parse_poly("x0^0", SMALL) == SMALL.one()


class TestErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "2x0",            # implicit multiplication
            "x0 x1",          # implicit multiplication via juxtaposition
            "x0^-1",          # negative exponent
            "x0^(2)",         # exponent must be a literal
            "x0^2^3",         # no chained exponents
            "y0",             # undeclared identifier
            "x0 +",           # dangling operator
            "(x0",            # unbalanced parenthesis
            "x0 % x1",        # unknown character
            "x0/x1",          # division by a non-constant
            "x0/0",           # division by zero
            "",               # empty input
            "x0 x",           # trailing garbage
        ],
    )
    def test_rejected_with_position(self, text):
        with pytest.raises(ParseError) as err:
            parse_poly(text, SMALL)
        assert err.value.position >= 0
        assert "position" in str(err.value)

    def test_positions_point_at_offender(self):
        with pytest.raises(ParseError) as err:
            parse_poly("x0 + y1", SMALL)
        assert err.value.position == 5
        with pytest.raises(ParseError) as err:
            parse_poly("x0 ? x1", SMALL)
        assert err.value.position == 3
        with pytest.raises(ParseError, match="^implicit multiplication is not allowed") as err:
            parse_poly("2x0", SMALL)
        assert err.value.position == 1

    @pytest.mark.parametrize(
        "text, position",
        [
            ("\u0663*x0", 0),  # ARABIC-INDIC DIGIT THREE once parsed as 3
            ("\u0663", 0),
            ("x0^\u00b2", 3),  # SUPERSCRIPT TWO once read as an over-long literal
            ("2\u00b2", 1),
            ("x0 + 1\uff11", 6),  # FULLWIDTH DIGIT ONE
        ],
    )
    def test_only_ascii_digits_form_integers(self, text, position):
        with pytest.raises(ParseError, match="unexpected character") as err:
            parse_poly(text, SMALL)
        assert err.value.position == position

    @pytest.mark.parametrize(
        "text, char, position",
        [
            ("x0\u00b2", "\u00b2", 2),  # SUPERSCRIPT TWO once continued the name x0
            ("x\u0663", "\u0663", 1),  # ARABIC-INDIC DIGIT THREE once continued the name x
            ("\u00e9", "\u00e9", 0),  # a non-ASCII letter once started a name
            ("x0 + x1\u00e9", "\u00e9", 7),
            ("3\u00e9", "\u00e9", 1),  # once read as implicit multiplication
        ],
    )
    def test_only_ascii_characters_form_names(self, text, char, position, tmp_path, capsys):
        with pytest.raises(ParseError, match=f"^unexpected character {char!r}") as err:
            parse_poly(text, SMALL)
        assert err.value.position == position
        path = tmp_path / "problem.json"
        path.write_text(json.dumps({"vars": list(SMALL.names), "h": text}), encoding="utf-8")
        assert cli.run(["smooth", str(path)]) == cli.EXIT_INPUT == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unexpected character {char!r} (at position {position})" in captured.err


class TestLexer:
    def test_every_space_character_separates_tokens(self):
        spaces = "".join(ch for ch in map(chr, range(sys.maxunicode + 1)) if ch.isspace())
        text = spaces.join(["x0", "+", "1"])
        width = len(spaces)
        assert [tuple(t) for t in tokenize(text)] == [
            ("name", "x0", 0),
            ("+", "+", 2 + width),
            ("int", "1", 3 + 2 * width),
            ("end", "", len(text)),
        ]


class TestLimits:
    def test_nesting_cap(self):
        depth = MAX_NESTING
        assert parse_poly("(" * depth + "x0" + ")" * depth, SMALL) == SMALL.variable("x0")
        with pytest.raises(ParseError) as err:
            parse_poly("(" * (depth + 1) + "x0" + ")" * (depth + 1), SMALL)
        assert err.value.position == depth

    def test_exponent_cap(self):
        x0 = SMALL.variable("x0")
        assert parse_poly(f"x0^{MAX_EXPONENT}", SMALL) == x0**MAX_EXPONENT
        with pytest.raises(ParseError) as err:
            parse_poly(f"x0^{MAX_EXPONENT + 1}", SMALL)
        assert err.value.position == 3

    def test_term_count_cap(self, monkeypatch):
        # (x0 + x1 + x2 + x3)^2 has exactly comb(5, 2) = 10 terms
        monkeypatch.setattr(parser, "MAX_TERMS", 10)
        assert len(parse_poly("(x0 + x1 + x2 + x3)^2", P4)) == 10
        monkeypatch.setattr(parser, "MAX_TERMS", 9)
        with pytest.raises(ParseError) as err:
            parse_poly("(x0 + x1 + x2 + x3)^2", P4)
        assert err.value.position == 19
        # one term and the zero polynomial stay within any cap
        power = parse_poly(f"(2*x0*x1)^{MAX_EXPONENT}", P4)
        assert power == P4.variable("x0") ** MAX_EXPONENT * P4.variable("x1") ** MAX_EXPONENT * 2**MAX_EXPONENT
        assert parse_poly("(x0 - x0)^0", P4) == 1

    def test_product_term_cap(self, monkeypatch):
        # 3 * 4 = 12 products before like terms merge
        text = "(x0 + x1 + x2)*(x0 + x1 + x3 + x4)"
        monkeypatch.setattr(parser, "MAX_TERMS", 12)
        assert len(parse_poly(text, P4)) == 11
        monkeypatch.setattr(parser, "MAX_TERMS", 11)

        def multiply(a, b):
            raise AssertionError("the product was expanded")

        monkeypatch.setattr(Polynomial, "__mul__", multiply)
        with pytest.raises(ParseError) as err:
            parse_poly(text, P4)
        assert err.value.position == text.index("*")

    def test_coefficient_size_cap(self):
        # 2^100 has 101 bits; n * 101 bits is the bound for its n-th power
        n = MAX_COEFFICIENT_BITS // 101
        assert parse_poly(f"(2^100)^{n}*x0", SMALL) == 2 ** (100 * n) * SMALL.variable("x0")
        nested = "((((2^100)^100)^100)^100)^100"
        for text, position in ((f"(2^100)^{n + 1}", 7), (f"((2^100)^{n})^2", 12), (nested, 10)):
            with pytest.raises(ParseError) as err:
                parse_poly(text, SMALL)
            assert err.value.position == position
        # a product is bounded by the sum of its factors' bits; 2^k has k + 1
        free = MAX_COEFFICIENT_BITS - (100 * n + 1)
        assert parse_poly(f"(2^100)^{n}*2^{free - 1}", SMALL) == 2 ** (100 * n + free - 1)
        with pytest.raises(ParseError) as err:
            parse_poly(f"(2^100)^{n}*2^{free}", SMALL)
        assert err.value.position == len(f"(2^100)^{n}")

    def test_coefficient_size_cap_on_sums(self):
        # 1/2 + 1/3 + 1/5 + ... has the product of the primes as denominator
        primes = [p for p in range(2, 12000) if all(p % q for q in range(2, int(p**0.5) + 1))]
        terms = [f"1/{p}*x0" for p in primes]
        total, k = Fraction(0), 0
        while max(abs(total.numerator), total.denominator).bit_length() <= MAX_COEFFICIENT_BITS:
            total += Fraction(1, primes[k])
            k += 1
        # rejected at the '+' that adds the k-th term, the first over the bound
        with pytest.raises(ParseError) as err:
            parse_poly(" + ".join(terms), SMALL)
        assert err.value.position == len(" + ".join(terms[: k - 1])) + 1
        below = total - Fraction(1, primes[k - 1])
        assert parse_poly(" + ".join(terms[: k - 1]), SMALL) == below * SMALL.variable("x0")

    def test_sum_is_rejected_at_its_operator(self, monkeypatch):
        # each term has a 9,901-bit denominator, so the first sum has 19,802
        text = " + ".join(f"1/((2^100)^99 + {i})*x0" for i in range(200))
        with pytest.raises(ParseError) as err:
            parse_poly(text, SMALL)
        assert err.value.position == text.index("+", text.index(")*x0"))
        assert "a coefficient has more than" in str(err.value)
        # each power measures its one-term base's one coefficient, each sum
        # only the coefficient it changed, and the end the whole result once
        measured = []
        bits = parser._bits

        def counting(c):
            measured.append(c)
            return bits(c)

        monkeypatch.setattr(parser, "_bits", counting)
        parse_poly(" + ".join(f"x0^{i}" for i in range(MAX_EXPONENT)), SMALL)
        powers, sums, end = MAX_EXPONENT, MAX_EXPONENT - 1, MAX_EXPONENT
        assert len(measured) == powers + sums + end

    def test_quotient_is_rejected_at_its_operator(self):
        # 3^6000 * 7^3000 has 17,932 bits although every factor is within
        # bound; once caught only by the final check, at position 0
        text = "(3^100)^60/(1/(7^100)^30)"
        with pytest.raises(ParseError, match="quotient may build coefficients over") as err:
            parse_poly(text, SMALL)
        assert err.value.position == text.index("/")
        # bounded by the sum of the bits, as a product is
        n = MAX_COEFFICIENT_BITS // 101
        free = MAX_COEFFICIENT_BITS - (100 * n + 1)
        assert parse_poly(f"(2^100)^{n}/2^{free - 1}", SMALL) == Fraction(2 ** (100 * n), 2 ** (free - 1))
        with pytest.raises(ParseError) as err:
            parse_poly(f"(2^100)^{n}/2^{free}", SMALL)
        assert err.value.position == len(f"(2^100)^{n}")

    def test_unmeasured_literal_is_caught_by_the_final_check(self):
        # no operator measures a lone literal or a sum's first term
        literal = "7" * 3100  # 10,298 bits
        for text in (literal, f"-({literal})", f"{literal} + x0"):
            with pytest.raises(ParseError, match="a coefficient has more than") as err:
                parse_poly(text, SMALL)
            assert err.value.position == 0

    def test_overlong_integer_literal(self):
        for text in ("x0^" + "9" * 5000, "9" * 5000 + "*x0"):
            with pytest.raises(ParseError):
                parse_poly(text, SMALL)

    def test_long_unary_minus_chain(self):
        assert parse_poly("-" * 5001 + "x0", SMALL) == -SMALL.variable("x0")


with open(os.path.join(os.path.dirname(__file__), "parse_errors.json"), encoding="utf-8") as _fh:
    RECORDED_ERRORS = json.load(_fh)


class TestErrorReplay:
    """The errors recorded by tests/record_parse_errors.py, replayed."""

    def test_every_recorded_error_replays(self):
        ctx = VarContext(tuple(RECORDED_ERRORS["projective"]), tuple(RECORDED_ERRORS["parameters"]))
        quotients = 0
        for entry in RECORDED_ERRORS["errors"]:
            text = entry["text"]
            with pytest.raises(ParseError) as err:
                parse_poly(text, ctx)
            if (str(err.value), err.value.position) == (entry["message"], entry["position"]):
                continue
            # the one recorded change: a quotient over the coefficient cap is
            # rejected at its '/', no longer by a later sum or the final check
            assert str(err.value).startswith("quotient may build coefficients over"), text
            assert text[err.value.position] == "/", text
            assert entry["message"].startswith("a coefficient has more than"), text
            quotients += 1
        assert len(RECORDED_ERRORS["errors"]) == 300 and quotients == 3


@given(st.integers(0, 10**9))
@settings(max_examples=150)
def test_round_trip_random(seed):
    rng = random.Random(seed)
    ctx = VarContext(("x0", "x1"), ("a",)) if rng.random() < 0.5 else SMALL
    p = rand_poly(rng, ctx, max_degree=4, max_terms=5, projective_only=False)
    assert parse_poly(str(p), ctx) == p
