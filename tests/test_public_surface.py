"""The package's public names and the README example.

A name dropped from a module but left in ``__all__`` fails only at
``from projvf import *``, which no other test runs.
"""

import os
import re

import projvf

README = os.path.join(os.path.dirname(__file__), "..", "README.md")


def test_every_public_name_is_an_attribute():
    assert [name for name in projvf.__all__ if not hasattr(projvf, name)] == []


def test_no_public_name_repeats():
    assert len(set(projvf.__all__)) == len(projvf.__all__)


def test_star_import_binds_exactly_the_public_names():
    namespace: dict = {}
    exec("from projvf import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(projvf.__all__)


def test_readme_example_runs():
    with open(README, encoding="utf-8") as fh:
        (example,) = re.findall(r"^```python\n(.*?)^```$", fh.read(), re.MULTILINE | re.DOTALL)
    exec(compile(example, "README.md", "exec"), {})
