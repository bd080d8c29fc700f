"""The workloads: how each turns its corpus into timed calls into projvf.

A workload's build step is the benchmark's set-up: it imports projvf afresh,
generates or loads the corpus and turns it into projvf objects (parsing the
problem files for paper-cli). It returns cases; a case is a label, the call
that is timed, a conversion of the call's result to plain data, and the
correctness check applied to that plain data outside the timed region.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import os
import random
import sys
from dataclasses import dataclass
from typing import Any, Callable

import corpus
import oracles

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
PROBLEMS_DIR = os.path.join(BENCH_DIR, "problems")
EXPECTED_CLI = os.path.join(BENCH_DIR, "paper_cli_expected.json")


@dataclass(frozen=True)
class Case:
    label: str
    call: Callable[[], Any]
    plain: Callable[[Any], Any]
    check: Callable[[Any], bool]


@dataclass(frozen=True)
class Built:
    projvf: Any
    cases: list
    corpus_lines: list


def import_projvf():
    """Import projvf from scratch, so every set-up pays the import."""
    for name in [m for m in sys.modules if m == "projvf" or m.startswith("projvf.")]:
        del sys.modules[name]
    pv = importlib.import_module("projvf")
    importlib.import_module("projvf.cli")
    return pv


def _identity(x):
    return x


def _context(pv, nvars: int):
    return pv.VarContext(tuple(f"x{i}" for i in range(nvars)))


# -- paper-cli --------------------------------------------------------------------

P4_FILES = ("quadric", "cone", "cubic", "quartic", "fermat", "conjugated")
P3_FILES = ("quadric_surface", "twisted_cubic")
SUBCOMMANDS = ("smooth", "stabilizer", "zeros", "vanishes", "gb", "member", "radical-member", "cone-shape")


def paper_cli_argvs() -> list[list[str]]:
    """Every invocation of the workload, with problem paths relative to bench/."""
    argvs = []
    for mode in ([], ["--json"]):
        argvs.append(["verify-paper", *mode])
        for name in P4_FILES + P3_FILES:
            for sub in SUBCOMMANDS:
                if sub == "cone-shape" and name in P3_FILES:
                    continue  # cone decomposition is defined in P^4 only
                argvs.append([sub, f"problems/{name}.json", *mode])
    return argvs


def resolve(argv: list[str]) -> list[str]:
    return [os.path.join(BENCH_DIR, a) if a.startswith("problems/") else a for a in argv]


def run_cli(cli, argv: list[str]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(argv)
    return code, out.getvalue()


def build_paper_cli(seed: int) -> Built:
    pv = import_projvf()
    files = sorted(os.listdir(PROBLEMS_DIR))
    for name in files:
        pv.cli.load_problem(os.path.join(PROBLEMS_DIR, name))
    with open(EXPECTED_CLI, encoding="utf-8") as fh:
        expected = {" ".join(e["argv"]): e for e in json.load(fh)["cases"]}
    argvs = paper_cli_argvs()
    random.Random(f"{seed}:paper-cli").shuffle(argvs)
    cases = [
        Case(
            label=" ".join(argv),
            call=functools.partial(run_cli, pv.cli, resolve(argv)),
            plain=_identity,
            check=functools.partial(oracles.cli_ok, expected[" ".join(argv)]),
        )
        for argv in argvs
    ]
    lines = []
    for name in files:
        with open(os.path.join(PROBLEMS_DIR, name), encoding="utf-8") as fh:
            lines.append(f"{name}: {fh.read()}")
    lines += [" ".join(argv) for argv in argvs]
    return Built(pv, cases, lines)


# -- smooth-dense ------------------------------------------------------------------


def _build_smooth(generate, max_steps: int, seed: int) -> Built:
    pv = import_projvf()
    raw = generate(seed)
    contexts = {n: _context(pv, n) for n in (4, 5)}
    cases = [
        Case(
            label=c["label"],
            call=functools.partial(pv.is_smooth_projective, pv.Polynomial(contexts[c["nvars"]], c["h"]), max_steps),
            plain=_identity,
            check=functools.partial(oracles.smooth_ok, c),
        )
        for c in raw
    ]
    return Built(pv, cases, [corpus.smooth_dense_text(c) for c in raw])


build_smooth_dense = functools.partial(_build_smooth, corpus.smooth_dense, corpus.MAX_STEPS)
build_smooth_quartic = functools.partial(_build_smooth, corpus.smooth_quartic, corpus.QUARTIC_MAX_STEPS)


# -- vanishes-ci --------------------------------------------------------------------


def build_vanishes_ci(seed: int) -> Built:
    pv = import_projvf()
    raw = corpus.vanishes_ci(seed)
    ctx = _context(pv, corpus.N)
    cases = []
    for c in raw:
        field = pv.Derivation.from_rows(ctx, c["field"])
        curve = pv.Ideal.spanned_by(ctx, [pv.Polynomial(ctx, g) for g in c["gens"]])
        cases.append(
            Case(
                label=c["label"],
                call=functools.partial(pv.vanishes_on, field, curve, False, corpus.MAX_STEPS),
                plain=_identity,
                check=functools.partial(oracles.vanishes_ok, c),
            )
        )
    return Built(pv, cases, [corpus.vanishes_ci_text(c) for c in raw])


# -- stabilizer-eigen ----------------------------------------------------------------


def _plain_stabilizer(solution):
    return [([list(row) for row in A.entries], lam) for A, lam in solution.pairs]


def _plain_eigen(decomposition):
    pairs = [(p.value, p.multiplicity, [list(v) for v in p.space]) for p in decomposition.pairs]
    return pairs, list(decomposition.residual.coeffs)


def build_stabilizer_eigen(seed: int) -> Built:
    pv = import_projvf()
    raw = corpus.stabilizer_eigen(seed)
    contexts = {n: _context(pv, n) for n in (4, 5)}
    cases = []
    for c in raw:
        if c["kind"] == "stabilizer":
            h = pv.Polynomial(contexts[c["nvars"]], c["h"])
            cases.append(
                Case(c["label"], functools.partial(pv.stabilizer_algebra, h), _plain_stabilizer,
                     functools.partial(oracles.stabilizer_ok, c))
            )
        else:
            M = pv.RatMatrix(c["matrix"])
            cases.append(
                Case(c["label"], functools.partial(pv.rational_eigen, M), _plain_eigen,
                     functools.partial(oracles.eigen_ok, c))
            )
    return Built(pv, cases, [corpus.stabilizer_eigen_text(c) for c in raw])


WORKLOADS = {
    "paper-cli": build_paper_cli,
    "smooth-dense": build_smooth_dense,
    "smooth-quartic": build_smooth_quartic,
    "vanishes-ci": build_vanishes_ci,
    "stabilizer-eigen": build_stabilizer_eigen,
}
