"""Benchmark of projvf's exact verdicts, one workload per run.

    python3 bench/run.py --workload smooth-dense --seed 1 --seconds 20 --trace 0

Run from the repository root. projvf is imported from src/ of the same
checkout, in this process: a closed loop on one thread, each case starting
when the previous one has returned. The run

  1. sets up several times (fresh import of projvf, corpus generated from
     --seed, problem files parsed) and keeps the median time;
  2. makes full passes over the cases until --seconds have gone by, and
     summarises each case's latency and the pass time by their upper
     quartile over the passes;
  3. checks every answer against an independent route, outside the timed
     region (the first pass against the oracle, later passes against the
     first);
  4. prints the figures by name and unit, then, as the last line, one JSON
     object: {"correct", "attempted", "failed", "metrics"}.

With --trace 0 the metrics are the end-to-end ones. With --trace 1 the run
spends half of --seconds on unprofiled passes, then profiles one more pass
with cProfile and reports the per-layer figures (see layers.py).

A case fails when it exhausts the step budget (ResourceLimitError), raises
any other error, or gives an answer that differs from its independent route.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import math
import os
import resource
import statistics
import sys
from time import perf_counter

import corpus
import layers
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")
#: The CPU speed changes within fractions of a second (README.md, "Timing
#: noise"); a median over 15 set-ups, about 1.2 s, lands on the speed that
#: held for most of them rather than on a short burst.
SETUP_REPEATS = 15
#: Times over passes are summarised by their upper quartile. On the shared VM
#: this benchmark was built on, the CPU ran at one of two speeds about 1.7x
#: apart, switching every few to few tens of seconds, and was in the slow one
#: most of the time. A run's median lands on the fast speed whenever more than
#: half of the run was fast; the upper quartile only when three quarters were
#: (README.md, "Timing noise").
PASS_QUANTILE = 0.75


def run_pass(cases, budget_error):
    latencies, results = [], []
    start = perf_counter()
    for case in cases:
        t0 = perf_counter()
        try:
            result = ("ok", case.call())
        except budget_error:
            result = ("budget", None)
        except Exception as exc:  # any other error fails the case; it is reported by name
            result = ("error", f"{type(exc).__name__}: {exc}")
        latencies.append(perf_counter() - t0)
        results.append(result)
    return perf_counter() - start, latencies, results


def measure(cases, budget_error, seconds: float):
    """Full passes until `seconds` have gone by; at least one."""
    passes = []
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        gc.collect()
        passes.append(run_pass(cases, budget_error))
    return passes


def grade(cases, passes):
    """Per-execution outcome: 'ok', 'budget', 'error' or 'wrong'. The first
    answer of a case goes to its check; later answers must equal it."""
    checked = {}  # case index -> (plain answer, whether the check accepted it)
    outcomes = []
    for _, _, results in passes:
        row = []
        for i, (status, value) in enumerate(results):
            if status == "ok":
                plain = cases[i].plain(value)
                if i not in checked:
                    checked[i] = (plain, cases[i].check(plain))
                first, right = checked[i]
                status = "ok" if right and plain == first else "wrong"
            row.append(status)
        outcomes.append(row)
    return outcomes


def percentile(values, q: float):
    """Nearest-rank percentile, and how many values lie beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def over_passes(values) -> float:
    return percentile(values, PASS_QUANTILE)[0]


def tail_quantile(n: int) -> float:
    """0.9, or the highest quantile that leaves ten cases beyond it."""
    return min(0.9, (n - 10) / n) if n > 10 else 0.5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC_DIR, "projvf", "__init__.py")):
        print(f"error: no projvf sources under {SRC_DIR}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC_DIR)

    build = workloads.WORKLOADS[args.workload]
    setups = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        t0 = perf_counter()
        built = build(args.seed)
        setups.append(perf_counter() - t0)
    cases = built.cases
    budget_error = built.projvf.ResourceLimitError

    print(f"workload {args.workload}  seed {args.seed}  cases {len(cases)}  trace {args.trace}")
    print(f"corpus sha256 {corpus.digest(built.corpus_lines)}")

    seconds = args.seconds / 2 if args.trace else args.seconds
    passes = measure(cases, budget_error, seconds)
    print("pass times", " ".join(f"{p[0]:.3f}" for p in passes))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    profile_pass = None
    if args.trace:
        gc.collect()
        profiler = cProfile.Profile()
        profiler.enable()
        profile_pass = run_pass(cases, budget_error)
        profiler.disable()
        passes.append(profile_pass)

    outcomes = grade(cases, passes)
    flat = [o for row in outcomes for o in row]
    attempted, failed = len(flat), sum(o != "ok" for o in flat)
    correct = not any(o in ("wrong", "error") for o in flat)
    timed = passes[:-1] if args.trace else passes
    pass_s = over_passes([p[0] for p in timed])

    for i, case in enumerate(cases):
        bad = sorted({row[i] for row in outcomes} - {"ok"})
        if bad:
            errors = [p[2][i][1] for p in passes if p[2][i][0] == "error"]
            print(f"  failed case {i} [{case.label}]: {', '.join(bad)} {errors[0] if errors else ''}")
    print(f"passes {len(passes)}  attempted {attempted}  failed {failed}  fail_ratio {failed / attempted:.4f}  correct {correct}")

    if not args.trace:
        per_case_ms = [1000 * over_passes([p[1][i] for p in passes]) for i in range(len(cases))]
        q = tail_quantile(len(cases))
        tail_ms, beyond = percentile(per_case_ms, q)
        verdicts = sum(o == "ok" for o in flat) / len(passes)
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "pass_s": (pass_s, "s"),
            "verdicts_per_s": (verdicts / pass_s, "1/s"),
            "case_p50_ms": (statistics.median(per_case_ms), "ms"),
            "case_p90_ms": (tail_ms, "ms"),
            "completed_ratio": ((attempted - failed) / attempted, "ratio"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        print(f"  case_p90_ms is the p{round(100 * q)} of {len(cases)} per-case latencies ({beyond} beyond it)")
    else:
        profile = layers.LayerProfile(profiler, os.path.dirname(built.projvf.__file__), BENCH_DIR, sys.modules)
        total = profile.total_s()
        print(f"  {'layer':<12} {'self_s':>10} {'share':>7}")
        for layer, secs in sorted(profile.self_s.items(), key=lambda kv: -kv[1]):
            print(f"  {layer:<12} {secs:>10.4f} {secs / total:>7.1%}")
        metrics = {name: (value, "s" if name.endswith(".self_s") else "count") for name, value in profile.metrics().items()}
        metrics["trace.overhead_ratio"] = (profile_pass[0] / pass_s, "ratio")

    for name, (value, unit) in metrics.items():
        print(f"  {name:<26} {value:>14.6g} {unit}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
