import json
import os
import subprocess
import sys

import pytest

from projvf import Derivation, Polynomial, cli, verify
from projvf.cli import run
from projvf.parser import MAX_COEFFICIENT_BITS, MAX_EXPONENT, MAX_TERMS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "bench")
with open(os.path.join(BENCH_DIR, "paper_cli_expected.json"), encoding="utf-8") as _fh:
    RECORDED = json.load(_fh)["cases"]

with open(os.path.join(BENCH_DIR, "problems", "quadric.json"), encoding="utf-8") as _fh:
    QUADRIC_PROBLEM = json.load(_fh)

EULER_PROBLEM = dict(
    QUADRIC_PROBLEM, D=[["1" if i == j else "0" for j in range(5)] for i in range(5)]
)
ROTATION_PROBLEM = {"vars": ["x0", "x1"], "D": [["0", "1"], ["-2", "0"]]}
ZERO_IDEAL_PROBLEM = {"vars": ["x0", "x1"], "h": "x0", "ideal": ["0", "0*x1"]}

CASES_TEXT = """\
cube  degree  divisor-index  fano-index  verdict
   4       1              0           1  quartic
   3       1              1           2  cubic
   2       1              2           3  quadric
   2       2              0           2  quadric
   2       3             -2           1  quadric
   1       1              3           4  P^3
   1       2              2           4  P^3
   1       3              1           4  P^3
"""


def as_json(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


@pytest.fixture
def problem(tmp_path):
    def write(doc, name="problem.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    return write


class TestVerdictCommands:
    def test_smooth_quadric(self, problem, capsys):
        assert run(["smooth", problem(QUADRIC_PROBLEM)]) == 0
        assert "smooth" in capsys.readouterr().out

    def test_singular_cone(self, problem, capsys):
        doc = dict(QUADRIC_PROBLEM, h="x0^2 + x1^2 + x2^2")
        assert run(["smooth", problem(doc)]) == 1
        assert "singular" in capsys.readouterr().out

    def test_member(self, problem, capsys):
        doc = {"vars": ["x0", "x1"], "h": "x0^2", "ideal": ["x0"]}
        assert run(["member", problem(doc)]) == 0
        doc["h"] = "x1"
        assert run(["member", problem(doc)]) == 1

    def test_radical_member(self, problem):
        doc = {"vars": ["x0", "x1"], "h": "x0", "ideal": ["x0^2"]}
        assert run(["radical-member", problem(doc)]) == 0
        doc["h"] = "x1"
        assert run(["radical-member", problem(doc)]) == 1

    def test_vanishes_full_verdict(self, problem, capsys):
        assert run(["vanishes", problem(QUADRIC_PROBLEM)]) == 0
        out = capsys.readouterr().out
        assert "stabilizes: True" in out and "scaling 0" in out

    def test_vanishes_failure(self, problem):
        doc = dict(QUADRIC_PROBLEM, ideal=["x0"])
        doc.pop("h")
        assert run(["vanishes", problem(doc)]) == 1

    def test_vanishes_scheme_theoretic_flag(self, problem):
        doc = dict(QUADRIC_PROBLEM, ideal=["x0^2", "x3^2", "x4^2"])
        doc.pop("h")
        assert run(["vanishes", problem(doc)]) == 0
        assert run(["vanishes", "--scheme-theoretic", problem(doc)]) == 1

    def test_cone_shape(self, problem, capsys):
        assert run(["cone-shape", problem(QUADRIC_PROBLEM)]) == 0
        out = capsys.readouterr().out
        assert "base: x0^2 + x1^2 + x2^2" in out and "cofactor: x3" in out

    def test_cone_shape_failure(self, problem, capsys):
        doc = dict(QUADRIC_PROBLEM, h="x0^2 + x3^2")
        assert run(["cone-shape", problem(doc)]) == 1
        assert "x3^2" in capsys.readouterr().out


class TestReportCommands:
    def test_gb(self, problem, capsys):
        doc = {"vars": ["x0", "x1", "x2"], "ideal": ["x0^2", "x0"]}
        assert run(["gb", problem(doc)]) == 0
        assert capsys.readouterr().out.strip() == "x0"

    def test_gb_accepts_generators_key(self, problem, capsys):
        doc = {"vars": ["x0", "x1"], "params": [], "generators": ["x0 - x1", "x1"]}
        assert run(["gb", problem(doc)]) == 0
        assert capsys.readouterr().out.split() == ["x0", "x1"]

    def test_stabilizer(self, problem, capsys):
        assert run(["stabilizer", problem(QUADRIC_PROBLEM)]) == 0
        assert "dimension 11" in capsys.readouterr().out

    def test_zeros(self, problem, capsys):
        assert run(["zeros", problem(QUADRIC_PROBLEM)]) == 0
        out = capsys.readouterr().out
        assert "x3*x4" in out and "value 1" in out and "value -1" in out

    def test_genus(self, capsys):
        assert run(["genus", "3", "2"]) == 0
        assert capsys.readouterr().out.strip() == "28"

    def test_genus_parity_error(self, capsys):
        assert run(["genus", "1", "1"]) == 2

    def test_cases(self, capsys):
        assert run(["cases"]) == 0
        out = capsys.readouterr().out
        assert "quartic" in out and "quadric" in out and "P^3" in out

    def test_cases_json(self, capsys):
        assert run(["cases", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        pairs = [(c["gen_cube"], c["degree"], c["fano_index"]) for c in doc["cases"]]
        assert (2, 1, 3) in pairs and (2, 2, 2) in pairs and (2, 3, 1) in pairs


class TestJsonOutput:
    def test_stable_across_runs(self, problem, capsys):
        path = problem(QUADRIC_PROBLEM)
        assert run(["stabilizer", "--json", path]) == 0
        first = capsys.readouterr().out
        assert run(["stabilizer", "--json", path]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert json.loads(first)["dimension"] == 11

    def test_verdict_payload(self, problem, capsys):
        assert run(["vanishes", "--json", problem(QUADRIC_PROBLEM)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["stabilizes"] and doc["smooth"] and doc["vanishes_on_curve"]
        assert doc["scaling"] == "0" and doc["failures"] == []


class TestInputErrors:
    def test_missing_file(self, capsys):
        assert run(["smooth", "/nonexistent/problem.json"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_json_has_position(self, problem, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"vars": [}', encoding="utf-8")
        assert run(["smooth", str(path)]) == 2
        assert "position" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
    def test_json_number_past_the_digit_limit(self, mode, tmp_path, capsys):
        # once a crash (exit 4): json raised the int conversion's ValueError
        path = tmp_path / "long.json"
        path.write_text(json.dumps(QUADRIC_PROBLEM)[:-1] + ', "pad": 1' + "0" * 5000 + "}", encoding="utf-8")
        assert run(["smooth", *mode, str(path)]) == cli.EXIT_INPUT
        limit = sys.get_int_max_str_digits()
        assert capsys.readouterr() == ("", f"error: invalid JSON in {path}: a number has more than {limit} digits\n")

    @pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
    def test_json_nested_past_the_recursion_limit(self, mode, tmp_path, capsys):
        # once a crash (exit 4): json raised RecursionError on the nesting
        path = tmp_path / "nested.json"
        depth = 100_000
        pad = "[" * depth + "]" * depth
        path.write_text(json.dumps(QUADRIC_PROBLEM)[:-1] + ', "pad": ' + pad + "}", encoding="utf-8")
        assert run(["smooth", *mode, str(path)]) == cli.EXIT_INPUT
        assert capsys.readouterr() == ("", f"error: invalid JSON in {path}: arrays or objects nested too deeply\n")

    @pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
    def test_file_that_is_not_utf8(self, mode, tmp_path, capsys):
        # once a crash (exit 4): reading the file raised UnicodeDecodeError
        path = tmp_path / "latin.json"
        path.write_bytes(b'\xff\xfe{"vars": ["x0", "x1"]}')
        assert run(["smooth", *mode, str(path)]) == cli.EXIT_INPUT
        assert capsys.readouterr() == (
            "",
            f"error: cannot read problem file {path}: 'utf-8' codec can't decode byte 0xff"
            " in position 0: invalid start byte\n",
        )

    def test_bad_polynomial_has_position(self, problem, capsys):
        doc = dict(QUADRIC_PROBLEM, h="x0 + + x1")
        assert run(["smooth", problem(doc)]) == 2
        assert "position" in capsys.readouterr().err

    def test_undeclared_variable(self, problem, capsys):
        doc = dict(QUADRIC_PROBLEM, h="x9")
        assert run(["smooth", problem(doc)]) == 2
        assert "x9" in capsys.readouterr().err

    def test_empty_vars(self, problem, capsys):
        assert run(["gb", problem({"vars": [], "ideal": ["x0"]})]) == cli.EXIT_INPUT
        assert capsys.readouterr().err == "error: problem file must declare 'vars'\n"

    def test_missing_required_field(self, problem, capsys):
        doc = {"vars": ["x0", "x1"]}
        assert run(["smooth", problem(doc)]) == 2
        assert "'h'" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_resource_cap_exit_code(self, problem, capsys):
        doc = {
            "vars": ["x0", "x1", "x2"],
            "ideal": ["x0^2 - x1*x2", "x1^2 - x0*x2", "x2^2 - x0*x1"],
        }
        assert run(["gb", "--max-steps", "3", problem(doc)]) == 3
        assert "budget" in capsys.readouterr().err

    def test_readme_budget_example(self, capsys):
        """The largest of the verdict's computations takes 13 steps."""
        path = os.path.join(BENCH_DIR, "problems", "conjugated.json")
        assert run(["vanishes", path, "--max-steps", "12"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: computation exceeded the configured step budget\n"
        assert run(["vanishes", path, "--max-steps", "13"]) == 0
        assert capsys.readouterr().out == "stabilizes: True (scaling 0)\nsmooth: True\nvanishes on curve: True\n"


class TestLoadProblem:
    def test_first_bad_derivation_entry_in_row_major_order(self, problem, capsys):
        # each distinct entry is parsed once, and "2 + b" is still the first
        # bad entry in row-major order, ahead of "c + 1" (twice), "d" and "e*2"
        rows = [["0", "0", "0"], ["1", "2 + b", "c + 1"], ["c + 1", "d", "e*2"]]
        doc = {"vars": ["x0", "x1", "x2"], "D": rows}
        assert run(["zeros", problem(doc)]) == cli.EXIT_INPUT
        assert capsys.readouterr().err == "error: undeclared identifier 'b' (at position 4)\n"
        rows[1][1] = "2"
        assert run(["zeros", problem(doc)]) == cli.EXIT_INPUT
        assert capsys.readouterr().err == "error: undeclared identifier 'c' (at position 0)\n"

    def test_rewritten_file_gives_the_new_answer(self, problem, capsys):
        # no parse survives a call: the same path, rewritten, is read afresh
        path = problem(QUADRIC_PROBLEM)
        assert run(["zeros", path]) == 0
        before = capsys.readouterr().out
        assert problem(EULER_PROBLEM) == path  # the same file, rewritten
        assert run(["zeros", path]) == 0
        after = capsys.readouterr().out
        assert run(["zeros", problem(EULER_PROBLEM, name="fresh.json")]) == 0
        assert capsys.readouterr().out == after != before


class TestVerifySuite:
    def test_all_pass(self, capsys, monkeypatch):
        monkeypatch.setenv("NO_COLOR", "1")
        assert run(["verify-paper"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") == 13
        assert "\x1b[" not in out  # NO_COLOR respected

    def test_json_payload(self, capsys):
        assert run(["verify-paper", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert all(check["ok"] for check in doc["checks"])
        assert len(doc["checks"]) == 13

    def test_line_pair_check_fails_on_another_locus(self, monkeypatch):
        """The check compares the minors' basis with a literal one, so a field
        whose zero locus is a point and a plane fails it."""
        monkeypatch.setattr(verify, "LINE_FIELD", Derivation.diagonal(verify.P3, (0, 1, 1, 1)))
        check = dict(verify.CHECKS)["line-pair-zero-locus"]
        assert check() == (False, "minor ideal differs from the two-line ideal")

    @staticmethod
    def two_checks(monkeypatch):
        """One passing check and one that raises in place of the golden ones."""

        def boom():
            raise RuntimeError("boom")

        monkeypatch.setattr(verify, "CHECKS", (("sound", lambda: (True, "fine")), ("broken", boom)))

    def test_a_raising_check_is_a_fail_line(self, capsys, monkeypatch):
        self.two_checks(monkeypatch)
        assert verify.run_all() == [
            verify.CheckResult("sound", True, "fine"),
            verify.CheckResult("broken", False, "raised RuntimeError: boom"),
        ]
        monkeypatch.setenv("NO_COLOR", "1")
        assert run(["verify-paper"]) == cli.EXIT_NEGATIVE
        assert capsys.readouterr().out == "PASS sound: fine\nFAIL broken: raised RuntimeError: boom\n1/2 checks passed\n"

    def test_colours_verdicts_on_a_terminal(self, capsys, monkeypatch):
        self.two_checks(monkeypatch)
        monkeypatch.setattr(sys.stdout, "isatty", lambda: True)
        monkeypatch.delenv("NO_COLOR", raising=False)
        assert run(["verify-paper"]) == cli.EXIT_NEGATIVE
        out = capsys.readouterr().out
        assert out.splitlines()[:2] == [
            "\x1b[32mPASS\x1b[0m sound: fine",
            "\x1b[31mFAIL\x1b[0m broken: raised RuntimeError: boom",
        ]
        monkeypatch.setenv("NO_COLOR", "1")
        assert run(["verify-paper"]) == cli.EXIT_NEGATIVE
        assert capsys.readouterr().out.startswith("PASS sound: fine\nFAIL broken:")


def _case_rows(rows):
    keys = ("gen_cube", "degree", "divisor_index", "fano_index", "verdict")
    return [dict(zip(keys, row)) for row in rows]


# Exact stdout of paths the recorded benchmark invocations do not reach.
PINNED = [
    pytest.param(["cases"], None, 0, CASES_TEXT, id="cases"),
    pytest.param(
        ["cases", "--json"],
        None,
        0,
        as_json(
            {
                "cases": _case_rows(
                    [
                        (4, 1, 0, 1, "quartic"),
                        (3, 1, 1, 2, "cubic"),
                        (2, 1, 2, 3, "quadric"),
                        (2, 2, 0, 2, "quadric"),
                        (2, 3, -2, 1, "quadric"),
                        (1, 1, 3, 4, "P^3"),
                        (1, 2, 2, 4, "P^3"),
                        (1, 3, 1, 4, "P^3"),
                    ]
                )
            }
        ),
        id="cases-json",
    ),
    pytest.param(["genus", "3", "2", "--json"], None, 0, '{\n  "genus": 28\n}\n', id="genus-json"),
    pytest.param(
        ["zeros"],
        EULER_PROBLEM,
        0,
        "zero-locus generators:\n"
        "  (zero ideal: the field vanishes everywhere)\n"
        "eigenspaces of the transposed matrix:\n"
        "  value 1 (multiplicity 5, dimension 5)\n"
        "residual factor: 1\n",
        id="zeros-euler",
    ),
    pytest.param(
        ["zeros", "--json"],
        EULER_PROBLEM,
        0,
        as_json(
            {
                "generators": [],
                "eigen": [
                    {
                        "value": "1",
                        "multiplicity": 5,
                        "space": [["1" if i == j else "0" for j in range(5)] for i in range(5)],
                    }
                ],
                "residual": "1",
            }
        ),
        id="zeros-euler-json",
    ),
    pytest.param(
        ["zeros"],
        ROTATION_PROBLEM,
        0,
        "zero-locus generators:\n"
        "  x0^2 + 2*x1^2\n"
        "eigenspaces of the transposed matrix:\n"
        "residual factor: t^2 + 2\n",
        id="zeros-irrational",
    ),
    pytest.param(
        ["zeros", "--json"],
        ROTATION_PROBLEM,
        0,
        as_json({"generators": ["x0^2 + 2*x1^2"], "eigen": [], "residual": "t^2 + 2"}),
        id="zeros-irrational-json",
    ),
    pytest.param(
        ["vanishes"],
        EULER_PROBLEM,
        0,
        "stabilizes: True (scaling 2)\n"
        "smooth: True\n"
        "vanishes on curve: True\n"
        "note: the derivation is a multiple of the Euler field (degenerate witness)\n",
        id="vanishes-euler",
    ),
    pytest.param(
        ["vanishes", "--json"],
        EULER_PROBLEM,
        0,
        as_json(
            {
                "stabilizes": True,
                "smooth": True,
                "vanishes_on_curve": True,
                "scaling": "2",
                "euler_witness": True,
                "failures": [],
            }
        ),
        id="vanishes-euler-json",
    ),
    pytest.param(
        ["vanishes"],
        {k: v for k, v in QUADRIC_PROBLEM.items() if k != "h"},
        0,
        "vanishes on the zero set\n",
        id="vanishes-without-h",
    ),
    pytest.param(
        ["vanishes", "--json"],
        {k: v for k, v in QUADRIC_PROBLEM.items() if k != "h"},
        0,
        '{\n  "vanishes": true\n}\n',
        id="vanishes-without-h-json",
    ),
    pytest.param(
        ["vanishes", "--json"],
        {"vars": QUADRIC_PROBLEM["vars"], "D": QUADRIC_PROBLEM["D"], "ideal": ["x0"]},
        1,
        '{\n  "vanishes": false\n}\n',
        id="does-not-vanish-json",
    ),
    pytest.param(["gb"], ZERO_IDEAL_PROBLEM, 0, "0\n", id="gb-zero-ideal"),
    pytest.param(
        ["gb", "--json"], ZERO_IDEAL_PROBLEM, 0, '{\n  "order": "grevlex",\n  "basis": []\n}\n', id="gb-zero-ideal-json"
    ),
    pytest.param(["member"], ZERO_IDEAL_PROBLEM, 1, "not a member\n", id="member-zero-ideal"),
    pytest.param(["radical-member"], ZERO_IDEAL_PROBLEM, 1, "not in radical\n", id="radical-member-zero-ideal"),
]

# Exact stderr of input errors: exit 2 and nothing on stdout.
PINNED_ERRORS = [
    pytest.param(
        ["genus", "1", "1"], None, "error: index^3 * cube must be even for an integral genus\n", id="genus-parity"
    ),
    pytest.param(
        ["genus", "-2", "1"], None, "error: the index and the generator cube must be at least 1\n", id="genus-index-negative"
    ),
    pytest.param(
        ["genus", "0", "5"], None, "error: the index and the generator cube must be at least 1\n", id="genus-index-zero"
    ),
    *(
        pytest.param(
            [command],
            {"vars": ["x0", "x1"], "h": h, "D": [["1", "0"], ["0", "2"]], "ideal": ["x0"]},
            "error: hypersurface equations must be nonzero and homogeneous of degree >= 1\n",
            id=f"{command}-{kind}",
        )
        for command in ["smooth", "stabilizer", "cone-shape", "vanishes"]
        for kind, h in [("inhomogeneous", "x0 + x1^2"), ("zero", "0"), ("constant", "3")]
    ),
    pytest.param(
        ["smooth"],
        {"vars": ["x0", "x1"], "params": ["c"], "h": "c*x0^2 + x1^2"},
        "error: hypersurface equations must be free of parameter variables\n",
        id="smooth-parameters",
    ),
    pytest.param(
        ["smooth"], {"vars": ["x0", "x1"]}, "error: this subcommand needs the 'h' field in the problem file\n", id="no-h"
    ),
    pytest.param(
        ["zeros"], {"vars": ["x0", "x1"]}, "error: this subcommand needs the 'D' field in the problem file\n", id="no-D"
    ),
    pytest.param(
        ["gb"], {"vars": ["x0", "x1"]}, "error: this subcommand needs the 'ideal' field in the problem file\n", id="no-ideal"
    ),
    pytest.param(
        ["stabilizer"], ROTATION_PROBLEM, "error: this subcommand needs the 'h' field in the problem file\n", id="no-h-stabilizer"
    ),
]


class TestPinnedOutput:
    @pytest.mark.parametrize("argv, doc, code, stdout", PINNED)
    def test_stdout_and_exit_code(self, argv, doc, code, stdout, problem, capsys):
        assert run(argv + ([problem(doc)] if doc is not None else [])) == code
        captured = capsys.readouterr()
        assert captured.out == stdout
        assert captured.err == ""

    @pytest.mark.parametrize("argv, doc, stderr", PINNED_ERRORS)
    def test_input_error_message(self, argv, doc, stderr, problem, capsys):
        assert run(argv + ([problem(doc)] if doc is not None else [])) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == stderr

    def test_missing_file_message(self, capsys):
        assert run(["smooth", "/nonexistent/problem.json"]) == 2
        assert capsys.readouterr().err.startswith(
            "error: cannot read problem file /nonexistent/problem.json: [Errno 2]"
        )


@pytest.mark.parametrize("case", RECORDED, ids=lambda case: " ".join(case["argv"]))
def test_replays_recorded_invocation(case, capsys):
    """The benchmark's recorded stdout and exit code, byte for byte, and
    nothing on stderr."""
    argv = [os.path.join(BENCH_DIR, a) if a.startswith("problems/") else a for a in case["argv"]]
    assert run(argv) == case["exit"]
    out, err = capsys.readouterr()
    assert out == case["stdout"]
    assert err == ""


class TestInternalErrors:
    def test_crashing_handler_exits_4(self, monkeypatch, capsys):
        def boom(problem, args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "cmd_cases", boom)
        assert run(["cases"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: internal error: RuntimeError: boom\n"

    def test_deep_nesting_is_no_verdict(self, problem, capsys):
        depth = 3000
        doc = {"vars": ["x0", "x1"], "h": "(" * depth + "x0" + ")" * depth, "ideal": ["x0"]}
        code = run(["member", problem(doc)])
        assert code == cli.EXIT_INPUT
        assert "Traceback" not in capsys.readouterr().err


class TestParserLimits:
    def test_exponent_over_cap_exits_2_without_expanding(self, problem, capsys, monkeypatch):
        def expand(base, n):
            raise AssertionError("the power was expanded")

        monkeypatch.setattr(Polynomial, "__pow__", expand)
        doc = {"vars": ["x0", "x1"], "h": f"(x0 + x1)^{MAX_EXPONENT + 1}"}
        assert run(["smooth", problem(doc)]) == cli.EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"exponent exceeds the maximum of {MAX_EXPONENT}" in captured.err

    def test_term_count_over_cap_exits_2_without_expanding(self, problem, capsys, monkeypatch):
        def expand(base, n):
            raise AssertionError("the power was expanded")

        monkeypatch.setattr(Polynomial, "__pow__", expand)
        doc = {"vars": ["x0", "x1", "x2", "x3", "x4"], "h": "(x0 + x1 + x2 + x3 + x4)^16"}
        assert run(["smooth", problem(doc)]) == cli.EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"power may expand to more than {MAX_TERMS} terms" in captured.err


    def test_product_over_cap_exits_2_without_multiplying(self, problem, capsys, monkeypatch):
        def multiply(a, b):
            raise AssertionError("the product was expanded")

        monkeypatch.setattr(Polynomial, "__mul__", multiply)
        params = [f"a{i}" for i in range(40)]
        base = "(" + " + ".join(params) + ")"
        doc = {"vars": ["x0", "x1"], "params": params, "h": f"{base}*{base}"}
        assert run(["smooth", problem(doc)]) == cli.EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"product may expand to more than {MAX_TERMS} terms (at position {len(base)})" in captured.err

    def test_sum_over_cap_exits_2_at_its_operator(self, problem, capsys):
        # once 7 s of rational additions before the final check rejected it
        h = " + ".join(f"1/((2^100)^99 + {i})*x0" for i in range(200))
        assert run(["smooth", problem({"vars": ["x0", "x1"], "h": h})]) == cli.EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        position = h.index("+", h.index(")*x0"))
        assert f"a coefficient has more than {MAX_COEFFICIENT_BITS} bits (at position {position})" in captured.err

    @pytest.mark.parametrize("command", ["gb", "cone-shape", "stabilizer"])
    def test_coefficient_too_long_to_print_exits_2(self, command, problem, capsys):
        # once a crash (exit 4): str() of the 6,000-digit coefficient raised ValueError
        coefficient = "(2^100)^100*(2^100)^100"
        doc = {
            "vars": ["x0", "x1", "x2", "x3", "x4"],
            "h": f"{coefficient}*x4*x0 + x1^2",
            "ideal": [f"{coefficient}*x0 + x1"],
        }
        assert run([command, problem(doc)]) == cli.EXIT_INPUT
        assert "power may build coefficients over" in capsys.readouterr().err
        # likewise for a 6,400-digit denominator built by a sum
        primes = [p for p in range(2, 15000) if all(p % q for q in range(2, int(p**0.5) + 1))]
        doc["h"] = " + ".join(f"1/{p}*x0^2" for p in primes) + " + x1*x4"
        assert run([command, problem(doc)]) == cli.EXIT_INPUT
        assert "a coefficient has more than" in capsys.readouterr().err


class TestResultTooLongToPrint:
    """A result holding an integer longer than str() converts is a resource
    cap (exit 3), not a crash (exit 4); once it read "internal error"."""

    C = "1" + "0" * 2000  # x0 - C^3*x3 in the basis: a 6,001-digit coefficient
    GB_PROBLEM = {"vars": ["x0", "x1", "x2", "x3"], "ideal": [f"x0 - {C}*x1", f"x1 - {C}*x2", f"x2 - {C}*x3"]}
    ERROR = f"error: a result holds a number of more than {sys.get_int_max_str_digits()} digits, too long to print\n"

    @pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
    def test_groebner_basis_coefficient(self, mode, problem, capsys):
        assert run(["gb", *mode, problem(self.GB_PROBLEM)]) == cli.EXIT_RESOURCE
        assert capsys.readouterr() == ("", self.ERROR)

    @pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
    def test_genus(self, mode, capsys):
        assert run(["genus", *mode, "9" * 1500, "2"]) == cli.EXIT_RESOURCE
        assert capsys.readouterr() == ("", self.ERROR)

    def test_other_value_errors_stay_internal(self, monkeypatch, capsys):
        def boom(problem, args):
            raise ValueError("boom")

        monkeypatch.setattr(cli, "cmd_cases", boom)
        assert run(["cases"]) == cli.EXIT_INTERNAL
        assert capsys.readouterr() == ("", "error: internal error: ValueError: boom\n")


class TestRootSearchBudget:
    def test_huge_constant_term_exits_3(self, problem, capsys):
        a0 = (10**15 + 37) * (10**3 + 9)
        doc = {"vars": ["x0", "x1"], "D": [["0", "1"], [str(-a0), "0"]]}
        assert run(["zeros", problem(doc)]) == cli.EXIT_RESOURCE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: rational root search exceeded the configured step budget\n"

    def test_max_steps_reaches_the_search(self, problem):
        doc = {"vars": ["x0", "x1"], "D": [["0", "1"], ["-36", "0"]]}
        assert run(["zeros", problem(doc)]) == cli.EXIT_OK
        assert run(["zeros", "--max-steps", "10", problem(doc)]) == cli.EXIT_RESOURCE


class TestMaxStepsFlag:
    """Exactly the subcommands that run under a step budget take ``--max-steps``."""

    @pytest.mark.parametrize(
        "argv",
        [["stabilizer", "FILE"], ["cone-shape", "FILE"], ["cases"], ["genus", "3", "2"], ["verify-paper"]],
        ids=lambda argv: argv[0],
    )
    def test_unbudgeted_subcommands_reject_it(self, argv, problem, capsys):
        argv = [problem(QUADRIC_PROBLEM) if a == "FILE" else a for a in argv]
        assert run([*argv, "--max-steps", "1"]) == cli.EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --max-steps" in captured.err

    @pytest.mark.parametrize("command", ["gb", "member", "radical-member", "smooth", "zeros", "vanishes"])
    def test_budgeted_subcommands_honour_it(self, command, problem, capsys):
        path = problem(QUADRIC_PROBLEM)
        assert run([command, path]) in (cli.EXIT_OK, cli.EXIT_NEGATIVE)
        capsys.readouterr()
        assert run([command, "--max-steps", "-1", path]) == cli.EXIT_RESOURCE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith("exceeded the configured step budget\n")


def test_max_steps_help_names_both_budgets(capsys):
    assert run(["zeros", "--help"]) == cli.EXIT_OK
    text = "step budget for Groebner reductions and the rational-root search of zeros"
    # argparse wraps the help, breaking lines after spaces and hyphens
    assert "".join(text.split()) in "".join(capsys.readouterr().out.split())


class TestModuleEntryPoint:
    """`python -m projvf.cli` behaves like the `projvf` script."""

    @staticmethod
    def env():
        env = dict(os.environ, NO_COLOR="1")
        env["PYTHONPATH"] = os.pathsep.join(p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
        return env

    def run_module(self, *argv):
        return subprocess.run(
            [sys.executable, "-m", "projvf.cli", *argv], capture_output=True, text=True, env=self.env(), timeout=120
        )

    def test_closed_stdout_exits_4_without_traceback(self):
        """As in `projvf verify-paper --json | true`: the reader is gone before
        the report is written."""
        child = subprocess.Popen(
            [sys.executable, "-m", "projvf.cli", "verify-paper", "--json"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=self.env(),
        )
        child.stdout.close()
        _, err = child.communicate(timeout=120)
        assert child.returncode == cli.EXIT_INTERNAL
        assert err.startswith("error: internal error: BrokenPipeError")
        assert err.count("\n") == 1  # no traceback, and no "Exception ignored" line at shutdown

    def test_input_error_exits_2(self, problem):
        done = self.run_module("smooth", problem({"vars": ["x0", "x1"], "h": f"(x0 + x1)^{MAX_EXPONENT + 1}"}))
        assert done.returncode == cli.EXIT_INPUT
        assert done.stdout == ""
        assert "exponent exceeds the maximum" in done.stderr

    def test_result_too_long_to_print_exits_3(self, problem):
        done = self.run_module("gb", problem(TestResultTooLongToPrint.GB_PROBLEM))
        assert (done.returncode, done.stdout, done.stderr) == (cli.EXIT_RESOURCE, "", TestResultTooLongToPrint.ERROR)

    def test_verify_paper_matches_run(self, capsys, monkeypatch):
        monkeypatch.setenv("NO_COLOR", "1")
        assert run(["verify-paper"]) == cli.EXIT_OK
        done = self.run_module("verify-paper")
        assert done.returncode == cli.EXIT_OK
        assert done.stdout == capsys.readouterr().out


def test_help_wraps_at_the_terminal_width(monkeypatch, capsys):
    lines = {}
    for columns in (40, 200):
        monkeypatch.setenv("COLUMNS", str(columns))
        assert run(["vanishes", "--help"]) == cli.EXIT_OK
        lines[columns] = capsys.readouterr().out.splitlines()
    # the usage line alone is about 85 characters wide
    assert len(lines[40]) > len(lines[200])
    assert max(map(len, lines[200])) > 80
