"""The test oracles share no code with projvf.

``tests/support.py`` checks projvf against the benchmark's exact dict
arithmetic (``bench/exact.py``, and the stabilizer count in
``bench/oracles.py``). That check means something only while those modules
import nothing from projvf and support.py does not borrow projvf's own
elimination or enumeration; tests about those routines import them directly.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def imports(path):
    """(module, name) for every name a file imports, at any depth; a plain
    ``import m`` gives (m, None)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            found += [(node.module or "", alias.name) for alias in node.names]
    return found


def test_bench_oracles_import_nothing_from_projvf():
    for name in ("exact.py", "oracles.py"):
        modules = {module for module, _ in imports(ROOT / "bench" / name)}
        assert modules and not [m for m in modules if m.split(".")[0] == "projvf"], name


def test_support_borrows_no_elimination_or_enumeration_from_projvf():
    borrowed = {name for module, name in imports(ROOT / "tests" / "support.py") if module.split(".")[0] == "projvf"}
    assert borrowed, "support.py wraps projvf's types"
    assert not borrowed & {"rref", "kernel_basis", "monomials_of_degree"}
