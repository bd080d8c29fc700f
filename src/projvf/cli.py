"""Command-line front-end.

Problem files are JSON documents declaring the variable context and the
objects a subcommand needs::

    {
      "vars":   ["x0", "x1", "x2", "x3", "x4"],
      "params": ["c"],
      "h":      "x0^2 + x1^2 + x2^2 + x3*x4",
      "D":      [["0","0","0","0","0"], ...],
      "ideal":  ["x0^2 + x1^2 + x2^2", "x3", "x4"]
    }

Exit codes: 0 affirmative/success, 1 negative verdict, 2 input error,
3 resource-cap exceeded (a step budget, or a result number too long to print),
4 internal error, which includes a standard output closed before ``run`` has
flushed its report.

Each ``cmd_*`` handler takes the loaded problem (``None`` for subcommands
without a file) and returns its JSON payload, its text report and its
verdict; ``run`` alone loads the file, prints and picks the exit code.
The handlers that need the paper layer import ``analysis`` or ``verify``
themselves, so a toolkit subcommand such as ``smooth`` never loads them.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import shutil
import sys
from dataclasses import asdict, dataclass
from typing import Optional

from .derivations import Derivation
from .errors import InputError, ResourceLimitError, ToolError
from .ideals import (
    DEFAULT_MAX_STEPS,
    Ideal,
    buchberger,
    ideal_member,
    is_smooth_projective,
    radical_member,
    vanishes_on,
    zero_locus_ideal,
)
from .linalg import RatMatrix, rational_eigen
from .parser import parse_poly
from .polyring import Polynomial, VarContext

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4


@dataclass(frozen=True)
class ProblemFile:
    context: VarContext
    h: Optional[Polynomial]
    derivation: Optional[Derivation]
    ideal: Optional[Ideal]


def load_problem(path: str) -> ProblemFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read problem file {path}: {exc}") from exc
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON in {path}: {exc.msg} (at position {exc.pos})") from exc
    except ValueError as exc:  # an integer literal past the interpreter's digit limit
        limit = sys.get_int_max_str_digits()
        raise InputError(f"invalid JSON in {path}: a number has more than {limit} digits") from exc
    except RecursionError as exc:
        raise InputError(f"invalid JSON in {path}: arrays or objects nested too deeply") from exc
    if not isinstance(doc, dict):
        raise InputError(f"problem file {path} must contain a JSON object")

    def str_list(key) -> list[str]:
        value = doc.get(key, [])
        if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
            raise InputError(f"field {key!r} must be a list of strings")
        return value

    vars_ = str_list("vars")
    if not vars_:
        raise InputError("problem file must declare 'vars'")
    ctx = VarContext(tuple(vars_), tuple(str_list("params")))

    h = None
    if "h" in doc:
        if not isinstance(doc["h"], str):
            raise InputError("field 'h' must be a polynomial string")
        h = parse_poly(doc["h"], ctx)

    derivation = None
    if "D" in doc:
        rows = doc["D"]
        if not isinstance(rows, list) or not all(
            isinstance(r, list) and all(isinstance(e, str) for e in r) for r in rows
        ):
            raise InputError("field 'D' must be a row-major list of lists of polynomial strings")
        # each distinct entry once, in row-major order of first occurrence, so
        # that the first bad entry is still the one reported
        parsed = {e: parse_poly(e, ctx) for e in dict.fromkeys(e for row in rows for e in row)}
        derivation = Derivation.from_rows(ctx, [[parsed[e] for e in row] for row in rows])

    ideal = None
    ideal_key = "ideal" if "ideal" in doc else "generators" if "generators" in doc else None
    if ideal_key:
        gens = [parse_poly(s, ctx) for s in str_list(ideal_key)]
        ideal = Ideal.spanned_by(ctx, gens)

    return ProblemFile(context=ctx, h=h, derivation=derivation, ideal=ideal)


def _require(value, key: str):
    if value is None:
        raise InputError(f"this subcommand needs the {key!r} field in the problem file")
    return value


def _use_color() -> bool:
    return sys.stdout.isatty() and not os.environ.get("NO_COLOR")


def _verdict_word(ok: bool) -> str:
    word = "PASS" if ok else "FAIL"
    if _use_color():
        return f"\x1b[32m{word}\x1b[0m" if ok else f"\x1b[31m{word}\x1b[0m"
    return word


# -- subcommands ---------------------------------------------------------------


def cmd_gb(problem: ProblemFile, args):
    gb = buchberger(_require(problem.ideal, "ideal"), args.max_steps)
    basis = [str(p) for p in gb.basis]
    return {"order": "grevlex", "basis": basis}, "\n".join(basis) if basis else "0", True


def cmd_member(problem: ProblemFile, args):
    verdict = ideal_member(_require(problem.h, "h"), _require(problem.ideal, "ideal"), args.max_steps)
    return {"member": verdict}, "member" if verdict else "not a member", verdict


def cmd_radical_member(problem: ProblemFile, args):
    verdict = radical_member(_require(problem.h, "h"), _require(problem.ideal, "ideal"), args.max_steps)
    return {"radical_member": verdict}, "in radical" if verdict else "not in radical", verdict


def cmd_smooth(problem: ProblemFile, args):
    verdict = is_smooth_projective(_require(problem.h, "h"), args.max_steps)
    return {"smooth": verdict}, "smooth" if verdict else "singular", verdict


def cmd_stabilizer(problem: ProblemFile, args):
    from .analysis import stabilizer_algebra

    sol = stabilizer_algebra(_require(problem.h, "h"))
    payload = {
        "dimension": sol.dimension,
        "pairs": [{"matrix": A.to_strings(), "scaling": str(lam)} for A, lam in sol.pairs],
    }
    lines = [f"dimension {sol.dimension}"]
    for A, lam in sol.pairs:
        lines.append(f"scaling {lam}: {A}")
    return payload, "\n".join(lines), True


def cmd_zeros(problem: ProblemFile, args):
    D = _require(problem.derivation, "D")
    locus = zero_locus_ideal(D)
    eigen = rational_eigen(RatMatrix(D.constant_entries()).transpose(), args.max_steps)
    payload = {
        "generators": [str(g) for g in locus.generators],
        "eigen": [
            {
                "value": str(p.value),
                "multiplicity": p.multiplicity,
                "space": [[str(x) for x in v] for v in p.space],
            }
            for p in eigen.pairs
        ],
        "residual": str(eigen.residual),
    }
    lines = ["zero-locus generators:"]
    lines += [f"  {g}" for g in locus.generators] or ["  (zero ideal: the field vanishes everywhere)"]
    lines.append("eigenspaces of the transposed matrix:")
    for p in eigen.pairs:
        lines.append(f"  value {p.value} (multiplicity {p.multiplicity}, dimension {len(p.space)})")
    lines.append(f"residual factor: {eigen.residual}")
    return payload, "\n".join(lines), True


def cmd_vanishes(problem: ProblemFile, args):
    from .analysis import check_vanishing_on_curve

    D = _require(problem.derivation, "D")
    ideal = _require(problem.ideal, "ideal")
    if problem.h is None:
        verdict = vanishes_on(D, ideal, scheme_theoretic=args.scheme_theoretic, max_steps=args.max_steps)
        return {"vanishes": verdict}, "vanishes on the zero set" if verdict else "does not vanish", verdict
    verdict = check_vanishing_on_curve(
        problem.h, D, ideal, scheme_theoretic=args.scheme_theoretic, max_steps=args.max_steps
    )
    scaling = None if verdict.scaling is None else str(verdict.scaling)
    lines = [
        f"stabilizes: {verdict.stabilizes}" + (f" (scaling {scaling})" if scaling is not None else ""),
        f"smooth: {verdict.smooth}",
        f"vanishes on curve: {verdict.vanishes_on_curve}",
    ]
    if verdict.euler_witness:
        lines.append("note: the derivation is a multiple of the Euler field (degenerate witness)")
    lines += [f"failure: {f}" for f in verdict.failures]
    return {**asdict(verdict), "scaling": scaling}, "\n".join(lines), verdict.all_pass


def cmd_cone_shape(problem: ProblemFile, args):
    from .analysis import ConeShapeError, cone_shape

    h = _require(problem.h, "h")
    try:
        shape = cone_shape(h)
    except ConeShapeError as exc:
        return (
            {"cone_shape": False, "offending_monomial": exc.monomial},
            f"not cone-shaped: offending monomial {exc.monomial}",
            False,
        )
    payload = {
        "cone_shape": True,
        "base": str(shape.base),
        "cofactor": str(shape.cofactor),
        "x3_top": str(shape.x3_top),
        "x4_top": [str(c) for c in shape.x4_top],
        "x3_top_nonzero": shape.x3_top_nonzero,
        "x4_top_nonzero": shape.x4_top_nonzero,
    }
    text = "\n".join(
        [
            f"base: {shape.base}",
            f"cofactor: {shape.cofactor}",
            f"top coefficient along x3: {shape.x3_top} ({'nonzero' if shape.x3_top_nonzero else 'ZERO'})",
            f"top coefficients along x4: {', '.join(str(c) for c in shape.x4_top)} "
            f"({'some nonzero' if shape.x4_top_nonzero else 'ALL ZERO'})",
        ]
    )
    return payload, text, True


def cmd_cases(problem: None, args):
    from .analysis import degree_case_table

    rows = degree_case_table()
    lines = ["cube  degree  divisor-index  fano-index  verdict"]
    for c in rows:
        lines.append(f"{c.gen_cube:>4}  {c.degree:>6}  {c.divisor_index:>13}  {c.fano_index:>10}  {c.verdict}")
    return {"cases": [asdict(c) for c in rows]}, "\n".join(lines), True


def cmd_genus(problem: None, args):
    from .analysis import fano_genus

    g = fano_genus(args.index, args.cube)
    return {"genus": g}, str(g), True


def cmd_verify(problem: None, args):
    from .verify import run_all

    results = run_all()
    lines = [f"{_verdict_word(r.ok)} {r.name}: {r.detail}" for r in results]
    passed = sum(1 for r in results if r.ok)
    lines.append(f"{passed}/{len(results)} checks passed")
    return {"checks": [asdict(r) for r in results]}, "\n".join(lines), passed == len(results)


# -- argument parsing -----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    # the width HelpFormatter would read, queried once instead of per add_argument
    formatter = functools.partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)
    parser = argparse.ArgumentParser(
        formatter_class=formatter,
        prog="projvf",
        description="Exact toolkit for linear vector fields on projective hypersurfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_, needs_file=True, budgeted=False):
        p = sub.add_parser(name, help=help_, formatter_class=formatter)
        if needs_file:
            p.add_argument("file", help="JSON problem file")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if budgeted:
            p.add_argument(
                "--max-steps",
                type=int,
                default=DEFAULT_MAX_STEPS,
                help="step budget for Groebner reductions and the rational-root search of zeros",
            )
        p.set_defaults(fn=fn)
        return p

    add("gb", cmd_gb, "reduced Groebner basis of the ideal", budgeted=True)
    add("member", cmd_member, "decide whether h lies in the ideal", budgeted=True)
    add("radical-member", cmd_radical_member, "decide whether h lies in the radical of the ideal", budgeted=True)
    add("smooth", cmd_smooth, "gradient smoothness criterion for the hypersurface h", budgeted=True)
    add("stabilizer", cmd_stabilizer, "basis of all pairs (A, c) with D_A h = c*h")
    add("zeros", cmd_zeros, "zero locus of the field induced by D, with eigenspace data", budgeted=True)
    vanishes = add(
        "vanishes", cmd_vanishes, "check the field against the curve ideal (full verdict with h)", budgeted=True
    )
    vanishes.add_argument(
        "--scheme-theoretic",
        action="store_true",
        help="use plain ideal membership instead of radical membership",
    )
    add("cone-shape", cmd_cone_shape, "split h into base + (last variable) * cofactor")
    add("cases", cmd_cases, "admissible (cube, degree) pairs with their indices", needs_file=False)
    genus = add("genus", cmd_genus, "genus from index and ample-generator cube", needs_file=False)
    genus.add_argument("index", type=int)
    genus.add_argument("cube", type=int)
    add("verify-paper", cmd_verify, "run every built-in golden verification", needs_file=False)
    return parser


def run(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        problem = load_problem(args.file) if "file" in args else None
        try:
            payload, text, ok = args.fn(problem, args)
            print(json.dumps(payload, indent=2, sort_keys=False) if args.json else text, flush=True)
        except ValueError as exc:  # str() of a result integer past the interpreter's digit limit
            if "integer string conversion" not in str(exc):
                raise
            limit = sys.get_int_max_str_digits()
            raise ResourceLimitError(f"a result holds a number of more than {limit} digits, too long to print") from None
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ToolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # a crash must never read as a verdict
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK if ok else EXIT_NEGATIVE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
