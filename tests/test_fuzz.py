"""Generated input for the parser and the command line.

Every input must end in a value or a typed error: parse_poly returns a
polynomial or raises ParseError, and cli.run exits 0-3, never 4 (a crash),
and never lets an exception escape.
"""

import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from projvf import ParseError, Polynomial, VarContext, cli, parse_poly
from support import evaluate

CTX = VarContext(("x0", "x1", "x2", "x3", "x4"), ("c",))
NAMES = ["x0", "x1", "x2", "x3", "x4", "c", "y"]  # y is never declared
INTEGERS = st.integers(0, 10**6).map(str) | st.sampled_from(["0", "1", "2", "9" * 40])


def expressions(max_exponent: int, max_leaves: int):
    """Polynomial text from the grammar, with spacing and signs."""
    atoms = st.sampled_from(NAMES) | INTEGERS

    def compound(sub):
        return st.one_of(
            st.tuples(sub, st.sampled_from([" + ", " - ", "*", " / ", "-"]), sub).map("".join),
            sub.map(lambda e: f"({e})"),
            st.tuples(sub, st.integers(0, max_exponent)).map(lambda t: f"({t[0]})^{t[1]}"),
            sub.map(lambda e: f"-{e}"),
        )

    return st.recursive(atoms, compound, max_leaves=max_leaves)


#: token soup: mostly malformed text
SOUP_TOKENS = NAMES + ["2", "10", "(", ")", "+", "-", "*", "/", "^", " ", "%", "x"]
SOUP = st.lists(st.sampled_from(SOUP_TOKENS), max_size=20).map("".join)


@given(expressions(max_exponent=100, max_leaves=12) | SOUP)
@settings(max_examples=300, deadline=None)
@example("((((2^100)^100)^100)^100)^100")
@example("(x0 + x1 + x2 + x3 + x4)^8*(x0 + x1 + x2 + x3 + x4)^8")
def test_parse_poly_returns_or_raises_parse_error(text):
    try:
        value = parse_poly(text, CTX)
    except ParseError as err:
        assert 0 <= err.position <= len(text)
    else:
        assert isinstance(value, Polynomial)


def python_value(text: str, point: dict) -> Fraction:
    """The value of polynomial text at ``point`` by Python's own evaluator:
    '^' read as '**', every integer literal a Fraction. Precedence, unary
    minus and '/' agree with the grammar, so this route shares nothing with
    the parser."""
    source = re.sub(r"(\^)?\b(\d+)", lambda m: f"**{m[2]}" if m[1] else f"F('{m[2]}')", text)
    return eval(source, {"__builtins__": {}, "F": Fraction}, dict(point))


@given(expressions(max_exponent=6, max_leaves=10), st.integers(0, 10**9))
@settings(deadline=None)
@example("-(x0 - 2/3*x1)^3/-4 + c*x4", 1)
def test_parse_poly_agrees_with_python_evaluation(text, seed):
    try:
        value = parse_poly(text, CTX)
    except ParseError:
        return
    rng = random.Random(seed)
    for _ in range(3):
        point = {name: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for name in CTX.names}
        assert evaluate(value, point) == python_value(text, point)


SMALL_EXPR = expressions(max_exponent=4, max_leaves=6)
JSON_JUNK = st.none() | st.booleans() | st.integers(-5, 5) | st.text(max_size=5) | st.lists(st.integers(), max_size=3)
COEFFICIENTS = st.sampled_from(["1", "-1", "2", "-3", "1/2", "7/3", "12345678901234567890"])


@st.composite
def forms(draw, names, degree):
    """Text of a homogeneous form: a sum of terms, each a coefficient times a
    product of linear forms or of variables."""
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            factors = [draw(st.sampled_from(names)) for _ in range(degree)]
        else:
            pick = st.sampled_from(names)
            factors = [f"({draw(pick)} + {draw(COEFFICIENTS)}*{draw(pick)})" for _ in range(degree)]
        terms.append("*".join([draw(COEFFICIENTS)] + factors))
    return " + ".join(terms)


@st.composite
def problem_documents(draw):
    """Problem JSON: mostly well formed, with some fields malformed or of
    the wrong type."""
    names = [f"x{i}" for i in range(draw(st.integers(2, 5)))]
    doc = {"vars": names}
    if draw(st.booleans()):
        doc["params"] = ["c"]
    degree = draw(st.integers(1, 3))
    doc["h"] = draw(forms(names, degree))
    n = len(names)
    entry = st.sampled_from(["0", "0", "1", "-1", "2", "1/2", "c"])
    doc["D"] = [[draw(entry) for _ in range(n)] for _ in range(n)]
    doc["ideal"] = [draw(forms(names, draw(st.integers(1, 2)))) for _ in range(draw(st.integers(1, 3)))]
    for key in draw(st.lists(st.sampled_from(["vars", "params", "h", "D", "ideal"]), max_size=2, unique=True)):
        doc[key] = draw(SMALL_EXPR | JSON_JUNK | st.lists(SMALL_EXPR, max_size=3))
    return doc


COMMANDS = ["smooth", "gb", "member", "radical-member", "stabilizer", "zeros", "vanishes", "cone-shape"]
#: the commands that take ``--max-steps``; the others reject it
BUDGETED = {"smooth", "gb", "member", "radical-member", "zeros", "vanishes"}


@given(
    doc=problem_documents(),
    command=st.sampled_from(COMMANDS),
    flags=st.lists(st.sampled_from(["--json", "--scheme-theoretic"]), max_size=2, unique=True),
    max_steps=st.integers(-1, 300),
)
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(  # once exit 4: str() of a 6,000-digit coefficient raised ValueError
    doc={"vars": ["x0", "x1", "x2", "x3", "x4"], "h": "(2^100)^100*(2^100)^100*x4*x0 + x1^2"},
    command="cone-shape",
    flags=[],
    max_steps=300,
)
def test_cli_exits_with_a_documented_code(doc, command, flags, max_steps, tmp_path, capsys):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    if "--scheme-theoretic" in flags and command != "vanishes":
        flags = [f for f in flags if f != "--scheme-theoretic"]
    if command in BUDGETED:
        flags = [*flags, "--max-steps", str(max_steps)]
    code = cli.run([command, *flags, str(path)])
    err = capsys.readouterr().err
    assert code in (cli.EXIT_OK, cli.EXIT_NEGATIVE, cli.EXIT_INPUT, cli.EXIT_RESOURCE), err
    assert "Traceback" not in err


@pytest.mark.parametrize("text", ["", "{", "[]", '"x"', "null"])
def test_cli_rejects_documents_that_are_not_objects(text, tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(text, encoding="utf-8")
    assert cli.run(["smooth", str(path)]) == cli.EXIT_INPUT
