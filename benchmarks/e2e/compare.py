"""Compare two sets of benchmark runs, one verdict per workload and metric.

Usage::

    python3 benchmarks/e2e/compare.py PARENT CHANGE [--results FILE]

``PARENT`` and ``CHANGE`` are labels of untraced runs recorded in
``results.jsonl`` (``run.py --record LABEL``).  For every workload and
every recorded end-to-end metric it prints each side's median and
quartiles, the share of seed-matched pairs the change wins, and a
verdict.  Metrics ``BENCHMARK.json`` declares use their bound; the
others are marked informational and judged at :data:`DEFAULT_BOUND`.
The verdicts:

* ``improved`` -- the change wins at least 9 in 10 pairs (ties count for
  neither) and its median is better than the parent's by more than the
  parent's interquartile range;
* ``regressed`` -- the change's median is worse by more than the
  metric's bound (a share of the parent's median);
* ``unresolved`` -- either side's spread (IQR over median) exceeds the
  bound, unless every change run reads better than every parent run;
* ``unchanged`` -- none of the above.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent.parent

#: Share of pairs the change must win for a gain.
WIN_RATE = 0.9
#: Bound for metrics ``BENCHMARK.json`` does not declare.
DEFAULT_BOUND = 0.25


def quartiles(values) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: dict, change: dict, better: str, bound: float) -> dict:
    """Judge one metric; ``parent``/``change`` map seed to value."""
    sign = 1.0 if better == "higher" else -1.0
    p_values, c_values = list(parent.values()), list(change.values())
    p1, p_med, p3 = quartiles(p_values)
    c1, c_med, c3 = quartiles(c_values)
    spread = max((p3 - p1) / p_med, (c3 - c1) / c_med)
    seeds = sorted(set(parent) & set(change))
    if len(seeds) < min(len(parent), len(change)):
        # Seeds differ: pair the runs in recorded order instead.
        pairs = list(zip(p_values, c_values))
    else:
        pairs = [(parent[s], change[s]) for s in seeds]
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    win_rate = wins / len(pairs)
    every_run_better = (
        min(c_values) > max(p_values) if sign > 0
        else max(c_values) < min(p_values)
    )
    worse_by = sign * (p_med - c_med) / p_med
    if spread > bound and not every_run_better:
        outcome = "unresolved"
    elif win_rate >= WIN_RATE and sign * (c_med - p_med) > p3 - p1:
        outcome = "improved"
    elif worse_by > bound:
        outcome = "regressed"
    else:
        outcome = "unchanged"
    return {
        "parent": (p1, p_med, p3),
        "change": (c1, c_med, c3),
        "spread": spread,
        "win_rate": win_rate,
        "pairs": len(pairs),
        "verdict": outcome,
    }


def load(path: Path, label: str) -> dict[str, dict[str, dict[int, float]]]:
    """``{workload: {metric: {seed: value}}}`` of a label's untraced runs."""
    out: dict = {}
    with open(path) as fh:
        for line in fh:
            entry = json.loads(line)
            if entry["label"] != label or entry["trace"]:
                continue
            for metric, value in entry["metrics"].items():
                out.setdefault(entry["workload"], {}).setdefault(
                    metric, {}
                )[entry["seed"]] = value
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--results", type=Path,
                        default=BENCH_DIR / "results.jsonl")
    args = parser.parse_args(argv)
    if str(BENCH_DIR.parent) not in sys.path:  # run as a script
        sys.path.insert(0, str(BENCH_DIR.parent))
    from e2e.run import END_TO_END

    declared = {
        m["name"]: m
        for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    }
    parent = load(args.results, args.parent)
    change = load(args.results, args.change)
    for label, runs in ((args.parent, parent), (args.change, change)):
        if not runs:
            parser.error(f"no untraced runs labelled {label!r} in "
                         f"{args.results}")
    counts: dict[str, int] = {}
    print(f"{'workload':<22} {'metric':<16} {'parent q1/med/q3':>30} "
          f"{'change q1/med/q3':>30} {'spread':>7} {'wins':>6}  verdict")
    for workload in sorted(set(parent) & set(change)):
        for name, (_, better, _) in END_TO_END.items():
            p_runs = parent[workload].get(name, {})
            c_runs = change[workload].get(name, {})
            if len(p_runs) < 2 or len(c_runs) < 2 or 0 in (
                statistics.median(p_runs.values()),
                statistics.median(c_runs.values()),
            ):
                continue
            bound = declared[name]["bound"] if name in declared else \
                DEFAULT_BOUND
            result = verdict(p_runs, c_runs, better, bound)
            key = result["verdict"] + ("" if name in declared
                                       else " (informational)")
            counts[key] = counts.get(key, 0) + 1
            print(f"{workload:<22} {name:<16} "
                  f"{'/'.join(f'{v:.4g}' for v in result['parent']):>30} "
                  f"{'/'.join(f'{v:.4g}' for v in result['change']):>30} "
                  f"{result['spread']:>7.3f} {result['win_rate']:>6.2f}  "
                  f"{result['verdict']}"
                  f"{'' if name in declared else ' (informational)'}")
    print("verdicts: " + ", ".join(f"{k} {v}" for k, v in sorted(counts.items())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
