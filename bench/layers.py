"""Per-layer figures from one cProfile run of a pass.

A layer is a module of projvf. Self time is summed over the functions defined
in each module's file; the stdlib `fractions` module counts as the
`rationals` layer. Time in a function that belongs to no layer (a C builtin,
or stdlib Python code such as argparse or json) is charged to the layers of
its callers, in proportion to the time each caller edge accounts for, so
`heapq` pushes count as `ideals` and argparse as `cli`. Time that leads back
only to the benchmark's own loop is `harness`.

Call counts are cProfile's primitive-call totals of named functions; they
depend only on the work done, so they repeat exactly for the same inputs.
"""

from __future__ import annotations

import os
import pstats
from collections import defaultdict

LAYERS = ("rationals", "polyring", "derivations", "linalg", "ideals", "analysis", "parser", "cli")

#: per-layer counter -> (module, dotted attribute path) of the counted function
COUNTERS = {
    "rationals.fraction_new": ("fractions", "Fraction.__new__"),
    "polyring.poly_init": ("projvf.polyring", "Polynomial.__init__"),
    "polyring.mul_calls": ("projvf.polyring", "Polynomial.__mul__", "Polynomial.mul_term"),
    "ideals.groebner_calls": ("projvf.ideals", "_groebner"),
    "ideals.s_pairs": ("projvf.ideals", "s_polynomial"),
    "ideals.reduce_steps": ("projvf.ideals", "_Budget.spend"),
    "linalg.rref_calls": ("projvf.linalg", "rref"),
    "linalg.char_poly_calls": ("projvf.linalg", "char_poly"),
    "linalg.root_tests": ("projvf.linalg", "UnivariatePoly.__call__"),
    "parser.parse_calls": ("projvf.parser", "parse_poly"),
}


def _code_key(module, path: str):
    obj = module
    for part in path.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    code = getattr(obj, "__code__", None)
    return None if code is None else (code.co_filename, code.co_firstlineno, code.co_name)


class LayerProfile:
    """Self time per layer and named call counts of one profiled pass."""

    def __init__(self, profile, package_dir: str, harness_dir: str, modules: dict):
        self.stats = pstats.Stats(profile).stats  # func -> (cc, nc, tt, ct, callers)
        self.package_dir = os.path.realpath(package_dir)
        self.harness_dir = os.path.realpath(harness_dir)
        self.fractions_file = os.path.realpath(modules["fractions"].__file__)
        self._memo: dict = {}
        self.self_s = self._self_times()
        self.counts = {}
        for name, (module, *paths) in COUNTERS.items():
            keys = [_code_key(modules[module], p) for p in paths]
            self.counts[name] = sum(self.stats[k][0] for k in keys if k in self.stats)

    def _home(self, func):
        filename = func[0]
        if filename == "~":
            return None
        path = os.path.realpath(filename)
        if path == self.fractions_file:
            return "rationals"
        if os.path.dirname(path) == self.package_dir:
            module = os.path.splitext(os.path.basename(path))[0]
            layer = "cli" if module == "verify" else module
            return layer if layer in LAYERS else "other"
        if os.path.dirname(path) == self.harness_dir:
            return "harness"
        return None

    def _mix(self, func, active: frozenset) -> dict:
        """Share of func's self time owed by each layer; edges that close a
        cycle through `active` are ignored."""
        home = self._home(func)
        if home:
            return {home: 1.0}
        if func in self._memo:
            return self._memo[func]
        callers = self.stats[func][4] if func in self.stats else {}
        live = {c: edge for c, edge in callers.items() if c not in active}
        weight = sum(edge[2] for edge in live.values())
        index = 2 if weight > 0 else 0  # fall back to call counts when no time was sampled
        weight = weight if weight > 0 else sum(edge[0] for edge in live.values())
        if not live or weight <= 0:
            return {"other": 1.0}
        mix: dict = defaultdict(float)
        for caller, edge in live.items():
            for layer, share in self._mix(caller, active | {func}).items():
                mix[layer] += share * edge[index] / weight
        self._memo[func] = dict(mix)
        return self._memo[func]

    def _self_times(self) -> dict:
        totals: dict = defaultdict(float)
        for func, (_, _, tt, _, _) in self.stats.items():
            for layer, share in self._mix(func, frozenset()).items():
                totals[layer] += tt * share
        return dict(totals)

    def total_s(self) -> float:
        return sum(self.self_s.values())

    def metrics(self) -> dict:
        out = {f"{layer}.self_s": self.self_s.get(layer, 0.0) for layer in LAYERS}
        out.update(self.counts)
        return out
