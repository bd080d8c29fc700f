import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from projvf import (
    Derivation,
    InputError,
    Polynomial,
    VarContext,
    parse_poly,
)
from projvf.verify import P4, QUADRIC, QUADRIC_FIELD as FIELD
from support import P4C, SMALL, apply_reference, euler, rand_fraction, rand_homogeneous, rand_poly


def rand_derivation(rng, ctx):
    n = ctx.nproj
    return Derivation.from_rows(ctx, [[rand_fraction(rng, 4) for _ in range(n)] for _ in range(n)])


class TestConstruction:
    def test_rejects_projective_entries(self):
        bad = [[P4.variable("x0")] + [0] * 4] + [[0] * 5 for _ in range(4)]
        with pytest.raises(InputError):
            Derivation.from_rows(P4, bad)

    def test_rejects_foreign_context_entries_alike(self):
        # P4C has P4's projective names, but a different context
        foreign = P4C.constant(1)
        rows = [[foreign] + [0] * 4] + [[0] * 5 for _ in range(4)]
        entries = tuple(tuple(e if isinstance(e, Polynomial) else P4.constant(e) for e in row) for row in rows)
        for build in (
            lambda: Derivation.from_rows(P4, rows),
            lambda: Derivation(P4, entries),
            lambda: Derivation.diagonal(P4, [foreign, 0, 0, 0, 0]),
        ):
            with pytest.raises(InputError) as err:
                build()
            assert str(err.value) == "derivation entry lives in a different context"

    def test_rejects_wrong_size(self):
        with pytest.raises(InputError):
            Derivation.from_rows(P4, [[0] * 4 for _ in range(4)])

    def test_diagonal_equals_the_hand_built_grid(self):
        a = P4C.variable("a")
        diagonal = [a, P4C.zero(), P4C.constant(Fraction(1, 2)), a + 1, P4C.constant(-3)]
        grid = tuple(tuple(diagonal[i] if i == j else P4C.zero() for j in range(5)) for i in range(5))
        assert Derivation.diagonal(P4C, [a, 0, Fraction(1, 2), a + 1, -3]).entries == grid

    def test_parameter_entries_are_fine(self):
        D = Derivation.diagonal(P4C, [P4C.variable("a"), 0, 0, 0, 0])
        assert not D.is_parameter_free()
        with pytest.raises(InputError):
            D.constant_entries()


class TestApply:
    def test_quadric_annihilated(self):
        assert FIELD(QUADRIC) == P4.zero()

    def test_euler_scales_by_degree(self):
        m = parse_poly("x0*x2^2*x4", P4)
        assert euler(P4)(m) == 4 * m

    def test_hand_expanded_weight_one(self):
        m = parse_poly("x3^2*x4", P4)
        # 2*m - m from the two diagonal slots
        assert FIELD(m) == m

    def test_context_mismatch(self):
        with pytest.raises(InputError):
            FIELD(parse_poly("x0", VarContext(("x0", "x1"))))

    @given(st.integers(0, 10**9), st.booleans())
    @settings(deadline=None)
    def test_matches_reference(self, seed, symbolic):
        """Constant or symbolic entries, some zero, against the column-by-column route."""
        rng = random.Random(seed)
        n = P4C.nproj

        def entry():
            if rng.random() < 0.4:
                return 0
            if not symbolic:
                return rand_fraction(rng, 4)
            terms = {(0,) * n + (rng.randint(0, 2), rng.randint(0, 1)): rand_fraction(rng, 4) for _ in range(2)}
            return Polynomial(P4C, terms)

        D = Derivation.from_rows(P4C, [[entry() for _ in range(n)] for _ in range(n)])
        f = rand_poly(rng, P4C, max_degree=3, max_terms=4, projective_only=False)
        assert D(f) == apply_reference(D, f)

    @given(st.integers(0, 10**9))
    @settings(max_examples=60)
    def test_derivation_product_rule(self, seed):
        rng = random.Random(seed)
        ctx = SMALL
        D = rand_derivation(rng, ctx)
        f = rand_poly(rng, ctx, max_degree=2, max_terms=3)
        g = rand_poly(rng, ctx, max_degree=2, max_terms=3)
        assert D(f * g) == D(f) * g + f * D(g)

    @given(st.integers(0, 10**9))
    @settings(max_examples=60)
    def test_linearity(self, seed):
        rng = random.Random(seed)
        ctx = SMALL
        D = rand_derivation(rng, ctx)
        f = rand_poly(rng, ctx)
        g = rand_poly(rng, ctx)
        assert D(f + g) == D(f) + D(g)

    @given(st.integers(0, 10**9), st.integers(1, 4))
    @settings(max_examples=60)
    def test_degree_preserved(self, seed, degree):
        rng = random.Random(seed)
        ctx = SMALL
        D = rand_derivation(rng, ctx)
        f = rand_homogeneous(rng, ctx, degree)
        image = D(f)
        assert {sum(m[: ctx.nproj]) for m in image._terms} <= {degree}


RELOAD_SCRIPT = """
import gc, importlib, sys, weakref
pv = importlib.import_module("projvf")
ref = weakref.ref(pv.Polynomial)  # resolved on this read, then cached in the package namespace
assert "Polynomial" in vars(pv)
del pv
for name in [n for n in sys.modules if n == "projvf" or n.startswith("projvf.")]:
    del sys.modules[name]
importlib.import_module("projvf")
gc.collect()
print("released" if ref() is None else "kept")
"""


def test_unloaded_package_is_released():
    """Nothing outside projvf keeps a reference into it: once its modules are
    dropped from sys.modules and it is imported again, the previous copy is
    garbage, names the package cached on first read included. An evaluated
    typing.Union alias of projvf classes once kept it alive through typing's
    cache."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", RELOAD_SCRIPT], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "released"
