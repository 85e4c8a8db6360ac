"""Summarize one set of benchmark runs, or compare two.

    python3 perfbench/compare.py RUNS            # spread of one set
    python3 perfbench/compare.py BASE HEAD       # HEAD against BASE

A set is a directory written by runs.py: <workload>/seed-<n>.json.  For
every workload and end-to-end metric of BENCHMARK.json it reports the
median and quartiles (statistics.quantiles, n=4) and the spread, the
interquartile distance as a share of the median.

One set: a spread above the metric's bound is "too wide"; a spread below
a third of the bound is "steady".  Two sets: HEAD's median may be worse
than BASE's by at most the bound.  Where either set's spread is wider
than the bound the difference is "unresolved", unless every HEAD run is
better than every BASE run.  Exit status 1 on any "too wide" or "regressed" row.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_set(directory: Path, workload: str) -> dict[str, list[float]]:
    values: dict[str, list[float]] = {}
    for path in sorted((directory / workload).glob("seed-*.json")):
        result = json.loads(path.read_text())
        if not result["correct"]:
            raise SystemExit(f"{path}: run reported incorrect output")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    return values


def summary(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, spread as a share of the median)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def worse_by(base: float, head: float, better: str) -> float:
    """Relative change of HEAD against BASE, positive when HEAD is worse."""
    change = (head - base) / base
    return change if better == "lower" else -change


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) not in (1, 2):
        raise SystemExit(__doc__)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    sets = [Path(a) for a in args]
    status = 0
    for workload in (w["name"] for w in bench["workloads"]):
        data = [load_set(s, workload) for s in sets]
        if not all(data):
            print(f"{workload}: no runs")
            continue
        runs = ", ".join(str(len(next(iter(d.values())))) for d in data)
        print(f"{workload} ({runs} runs)")
        for metric in bench["end_to_end"]:
            name, bound, better = metric["name"], metric["bound"], metric["better"]
            stats = [summary(d[name]) for d in data]
            cells = "  ".join(f"median {m:.4g} [q1 {a:.4g}, q3 {b:.4g}] spread {s:.1%}"
                              for m, a, b, s in stats)
            if len(data) == 1:
                spread = stats[0][3]
                if spread > bound:
                    verdict = "too wide"
                    status = 1
                else:
                    verdict = "steady" if spread < bound / 3 else "within bound"
            else:
                change = worse_by(stats[0][0], stats[1][0], better)
                base, head = data[0][name], data[1][name]
                sign = 1 if better == "lower" else -1
                all_better = max(sign * h for h in head) < min(sign * b for b in base)
                if max(stats[0][3], stats[1][3]) > bound and not all_better:
                    verdict = "unresolved"
                elif change > bound:
                    verdict = "regressed"
                    status = 1
                else:
                    verdict = "ok"
                cells += f"  worse by {change:+.1%}"
            print(f"  {name:12s} bound {bound:.0%}  {cells}  -> {verdict}")
    return status


if __name__ == "__main__":
    sys.exit(main())
