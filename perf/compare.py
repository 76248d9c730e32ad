#!/usr/bin/env python3
"""Compare two sets of benchmark runs, per workload and metric.

Usage::

    python3 perf/compare.py RUNS_A RUNS_B

``RUNS_A`` (the parent) and ``RUNS_B`` (the change) are directories of
``perf/run.py --out`` reports.  For every workload x metric present on
both sides it prints each side's median and quartiles, the fraction of
index-paired runs (A_i, B_i) that B wins (ties count for neither), and
a verdict:

* ``better``: B wins at least 9/10 of the pairs and the medians differ,
  in B's favour, by more than A's interquartile distance;
* ``unresolved``: either side's spread (IQR / median) is wider than the
  metric's bound and B does not read better on every run than A on
  every run;
* ``worse``: B's median is worse than A's by more than the bound;
* ``within bound``: otherwise.

Bounds and directions come from ``BENCHMARK.json`` at the checkout root.
Per-layer metrics have no bound, so they are only ever ``better`` or
``-``.  Exits 1 if any end-to-end metric is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(directory: Path) -> dict[tuple[str, str], list[float]]:
    """``{(workload, metric): [value per run]}`` in file-name order."""
    values: dict[tuple[str, str], list[float]] = {}
    for path in sorted(directory.glob("*.json")):
        report = json.loads(path.read_text())
        for workload, run in report["workloads"].items():
            for metric, entry in run["metrics"].items():
                values.setdefault((workload, metric), []).append(entry["value"])
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: list[float], b: list[float], lower_better: bool,
            bound: float | None) -> tuple[str, float]:
    """``(verdict, pairwise win fraction of B)`` for one metric."""
    sign = 1.0 if lower_better else -1.0
    pairs = list(zip(a, b))
    wins = sum(sign * (y - x) < 0 for x, y in pairs) / len(pairs)
    q1a, med_a, q3a = quartiles(a)
    q1b, med_b, q3b = quartiles(b)
    if wins >= 0.9 and sign * (med_a - med_b) > q3a - q1a:
        return "better", wins
    if bound is None:
        return "-", wins
    spread = max((q3a - q1a) / abs(med_a) if med_a else 0.0,
                 (q3b - q1b) / abs(med_b) if med_b else 0.0)
    every_run_better = all(sign * (y - x) < 0 for x in a for y in b)
    if spread > bound and not every_run_better:
        return "unresolved", wins
    worse_by = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    return ("worse" if worse_by > bound else "within bound"), wins


def compare(runs_a, runs_b, benchmark: dict) -> list[dict]:
    """One row per (workload, metric) present in both run sets."""
    specs = {m["name"]: m for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    rows = []
    for key in sorted(set(runs_a) & set(runs_b)):
        workload, metric = key
        spec = specs.get(metric)
        if spec is None:
            continue
        a, b = runs_a[key], runs_b[key]
        result, wins = verdict(a, b, spec["better"] == "lower", spec.get("bound"))
        rows.append({
            "workload": workload, "metric": metric, "unit": spec["unit"],
            "a": quartiles(a), "b": quartiles(b), "runs": (len(a), len(b)),
            "wins": wins, "verdict": result, "gated": "bound" in spec,
        })
    return rows


def render(rows: list[dict]) -> str:
    lines = [
        "| workload | metric | unit | A median [q1, q3] | B median [q1, q3] "
        "| B/A | B wins | verdict |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for row in rows:
        (a1, am, a3), (b1, bm, b3) = row["a"], row["b"]
        ratio = f"{bm / am:.3f}" if am else "-"
        lines.append(
            f"| {row['workload']} | {row['metric']} | {row['unit']} "
            f"| {am:.4g} [{a1:.4g}, {a3:.4g}] | {bm:.4g} [{b1:.4g}, {b3:.4g}] "
            f"| {ratio} | {row['wins']:.2f} | {row['verdict']} |"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("runs_a", type=Path, help="directory of parent reports")
    parser.add_argument("runs_b", type=Path, help="directory of change reports")
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(load_runs(args.runs_a), load_runs(args.runs_b), benchmark)
    print(render(rows))
    return 1 if any(r["verdict"] == "worse" and r["gated"] for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
