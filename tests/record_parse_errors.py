"""Record the parser's error on a seeded corpus of bad polynomial texts.

    PYTHONPATH=src python tests/record_parse_errors.py

Writes tests/parse_errors.json: the variable context, then one
{"text", "message", "position"} entry per text that ``parse_poly`` rejects.
``test_parser.TestErrorReplay`` parses every text again and expects the same
message and offset. The committed file was recorded before a quotient was
checked at its '/' (see that test); re-record only when a change is meant to
alter which error a text reports.
"""

from __future__ import annotations

import json
import os
import random

from projvf import ParseError, VarContext, parse_poly

SEED = 16
CONTEXT = VarContext(("x0", "x1", "x2"), ("a",))
FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "parse_errors.json")
NAMES = CONTEXT.names
NON_ASCII = ["é", "²", "٣", "１", " x", "α", "−"]
#: one coefficient of 9,901 bits; two of them over distinct denominators sum past the cap
HUGE = "(2^100)^99"


def rand_expr(rng: random.Random, depth: int = 0) -> str:
    """A small well-formed polynomial text."""
    pieces = []
    for _ in range(rng.randint(1, 3)):
        factors = []
        for _ in range(rng.randint(1, 3)):
            roll = rng.random()
            if roll < 0.45:
                factor = rng.choice(NAMES)
            elif roll < 0.7 or depth >= 2:
                factor = str(rng.randint(0, 12))
            else:
                factor = f"({rand_expr(rng, depth + 1)})"
            if rng.random() < 0.3:
                factor += f"^{rng.randint(0, 4)}"
            if rng.random() < 0.15:
                factor = "-" + factor
            factors.append(factor)
        text = factors[0]
        for factor in factors[1:]:
            text += rng.choice(["*", "*", "/"]) + (factor if factor[0].isdigit() else str(rng.randint(1, 9)))
        pieces.append(text)
    return rng.choice([" + ", " - ", "+", "-"]).join(pieces)


def splice(rng: random.Random, text: str, insert: str) -> str:
    i = rng.randint(0, len(text))
    return text[:i] + insert + text[i:]


def unbalanced(rng):
    text = rand_expr(rng)
    if ")" in text and rng.random() < 0.5:
        i = rng.choice([k for k, ch in enumerate(text) if ch == ")"])
        return text[:i] + text[i + 1 :]
    return splice(rng, text, rng.choice(["(", ")", "((", "()"]))


def implicit(rng):
    text = rand_expr(rng)
    return rng.choice([f"{rng.randint(1, 99)}{rng.choice(NAMES)}", f"{rng.choice(NAMES)} {rng.choice(NAMES)}"]) + (
        f" + {text}" if rng.random() < 0.5 else ""
    )


def bad_exponent(rng):
    prefix = rand_expr(rng) + " + " if rng.random() < 0.6 else ""
    base = rng.choice([*NAMES, "(x0 + x1)", "3"])
    exponent = rng.choice(
        [f"-{rng.randint(1, 9)}", str(rng.randint(101, 10**6)), f"({rng.randint(1, 5)})", rng.choice(NAMES), "", "2^2"]
    )
    return f"{prefix}{base}^{exponent}"


def bad_name(rng):
    text = rand_expr(rng)
    if rng.random() < 0.5:
        return splice(rng, text, rng.choice(NON_ASCII))
    name = rng.choice(["y0", "b", "x3", "xx", "X0", "_", "a1"])
    return f"{text} + {name}" if rng.random() < 0.5 else f"{name}*{text}"


def over_cap(rng):
    prefix = rand_expr(rng) + " + " if rng.random() < 0.5 else ""
    kind = rng.randrange(8)
    if kind == 0:  # a sum whose denominator grows past the cap
        k = rng.randint(2, 4)
        body = " + ".join(f"1/({HUGE} + {2 * rng.randint(0, 50) + 1})*x0" for _ in range(k))
    elif kind == 1:  # a product of two sums over the term cap
        monos = [f"x0^{i}*x1^{j}" for i in range(8) for j in range(8)]
        rng.shuffle(monos)
        left, right = monos[: rng.randint(32, 40)], monos[: rng.randint(32, 40)]
        body = f"({' + '.join(left)})*({' + '.join(right)})"
    elif kind == 2:  # a power over the term cap
        body = f"(x0 + x1 + x2 + a)^{rng.randint(17, 40)}"
    elif kind == 3:  # a power over the coefficient cap
        body = f"({rng.choice([2, 3, 5, 7])}^100)^{rng.randint(40, 100)}*x0"
    elif kind == 4:  # a product over the coefficient cap
        body = f"{HUGE}*{rng.choice([2, 3, 5])}^{rng.randint(60, 100)}"
    elif kind == 5:  # a literal over the coefficient cap, or too long to convert
        body = str(rng.randint(1, 9)) + "7" * rng.choice([3100, 3500, 4400]) + rng.choice(["", "*x1", " + x2"])
    elif kind == 6:  # nesting past the cap
        depth = rng.randint(51, 70)
        body = "(" * depth + "x0" + ")" * depth
    else:  # a quotient over the coefficient cap
        body = f"({rng.choice([3, 5])}^100)^{rng.randint(45, 60)}/(1/(7^100)^{rng.randint(25, 40)})"
    return prefix + body


def malformed(rng):
    text = rand_expr(rng)
    return rng.choice(
        [
            text + rng.choice([" +", " *", " -", "/", "^"]),
            rng.choice(["*", "/", "^", ")"]) + text,
            f"{text}/0",
            f"{text}/({rng.choice(NAMES[:3])} + 1)",
            f"{text}/{rng.choice(NAMES[:3])}",
            "",
            "   ",
            f"{text} % 2",
        ]
    )


#: over_cap twice, since it spreads its draws over eight limits
GENERATORS = [unbalanced, implicit, bad_exponent, bad_name, over_cap, over_cap, malformed]


def main() -> None:
    rng = random.Random(SEED)
    entries = []
    seen = set()
    while len(entries) < 300:
        text = rng.choice(GENERATORS)(rng)
        if text in seen:
            continue
        seen.add(text)
        try:
            parse_poly(text, CONTEXT)
        except ParseError as err:
            entries.append({"text": text, "message": str(err), "position": err.position})
    doc = {"projective": list(CONTEXT.projective), "parameters": list(CONTEXT.parameters), "errors": entries}
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"recorded {len(entries)} errors in {FIXTURE}")


if __name__ == "__main__":
    main()
