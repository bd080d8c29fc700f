"""The package's public names, what importing it loads, and the README example.

A public name is listed once, in ``projvf._EXPORTS`` under the module that
defines it; ``__all__`` and the lazy module ``__getattr__`` both read that
table. A name dropped from a module but left in the table fails only when it
is read, so the tests below read every one.
"""

import importlib
import json
import os
import re
import subprocess
import sys

import pytest

import projvf

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
README = os.path.join(ROOT, "README.md")
SUBMODULES = ("analysis", "derivations", "errors", "ideals", "linalg", "parser", "polyring")
TOOLKIT = {"projvf", "projvf.cli"} | {f"projvf.{m}" for m in SUBMODULES if m != "analysis"}


def test_every_public_name_is_an_attribute():
    assert [name for name in projvf.__all__ if not hasattr(projvf, name)] == []


def test_every_public_name_is_its_defining_modules_object():
    for module, names in projvf._EXPORTS.items():
        defining = importlib.import_module(f"projvf.{module}")
        assert [n for n in names if getattr(projvf, n) is not getattr(defining, n)] == []


def test_no_public_name_repeats():
    assert len(set(projvf.__all__)) == len(projvf.__all__)


def test_star_import_binds_exactly_the_public_names():
    namespace: dict = {}
    exec("from projvf import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(projvf.__all__)


def test_dir_lists_every_public_name():
    assert set(projvf.__all__) <= set(dir(projvf))


@pytest.mark.parametrize("name", ["not_a_name", "cli"])
def test_an_unknown_attribute_raises_naming_the_package(name):
    """Called directly, since `cli` is bound once imported: the hook must
    refuse it so that `from projvf import cli` imports the submodule."""
    with pytest.raises(AttributeError) as caught:
        projvf.__getattr__(name)
    assert caught.value.args == (f"module 'projvf' has no attribute {name!r}",)


def test_readme_example_runs():
    with open(README, encoding="utf-8") as fh:
        (example,) = re.findall(r"^```python\n(.*?)^```$", fh.read(), re.MULTILINE | re.DOTALL)
    exec(compile(example, "README.md", "exec"), {})


def loaded_after(script: str) -> list:
    """The sets of projvf modules a fresh interpreter has loaded at each
    `show()` in `script`."""
    prelude = (
        "import json, sys\n"
        "show = lambda: print(json.dumps([m for m in sys.modules if m.split('.')[0] == 'projvf']))\n"
    )
    env = dict(os.environ, NO_COLOR="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", prelude + script], capture_output=True, text=True, env=env, cwd=ROOT, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return [set(json.loads(line)) for line in done.stdout.splitlines() if line.startswith("[")]


class TestImportGraph:
    """Only the subcommands that use the paper layer load `analysis` and
    `verify`; a new top-level import in the toolkit would undo that."""

    def test_bare_import_resolves_every_submodule(self):
        before, after = loaded_after(
            "import projvf\nshow()\n"
            f"for m in {SUBMODULES!r}:\n    assert getattr(projvf, m).__name__ == 'projvf.' + m\nshow()\n"
        )
        assert before == {"projvf"}
        assert after == {"projvf"} | {f"projvf.{m}" for m in SUBMODULES}

    def test_the_toolkit_loads_without_the_paper_layer(self):
        imported, smooth = loaded_after(
            "import projvf, projvf.cli\nshow()\n"
            "assert projvf.cli.run(['smooth', 'bench/problems/quadric.json']) == 0\nshow()\n"
        )
        assert imported == TOOLKIT
        assert smooth == TOOLKIT

    def test_a_paper_name_loads_analysis(self):
        (loaded,) = loaded_after("import projvf, projvf.cli\nprojvf.stabilizer_algebra\nshow()\n")
        assert loaded == TOOLKIT | {"projvf.analysis"}

    def test_verify_paper_loads_analysis_and_verify(self):
        (loaded,) = loaded_after("import projvf, projvf.cli\nassert projvf.cli.run(['verify-paper']) == 0\nshow()\n")
        assert loaded == TOOLKIT | {"projvf.analysis", "projvf.verify"}
