"""Compare two sets of benchmark runs: one row per workload and end-to-end metric.

    python3 perfbench/run.py --compare RUNS_A RUNS_B

``RUNS_A`` (the parent) and ``RUNS_B`` (the change) are directories of
run reports as ``run.py`` writes them to ``.perfbench_out/runs/``.  Runs
are paired by workload and seed.  The verdict follows the rule for a
small sandbox: a gain needs nine tenths of the pairs won and a median
gain beyond the parent's own spread; a regression is a median worse by
more than the metric's bound, however wide the spread; otherwise a
spread wider than the bound leaves the metric unresolved rather than
unchanged, unless every run of the change beats every run of the parent.
Exit status 1 when any row is ``worse``.
"""

from __future__ import annotations

import json
from pathlib import Path

from perfbench import stats


def load_runs(directory: "str | Path") -> "dict[tuple[str, str], dict[int, float]]":
    """``{(workload, metric): {seed: value}}`` over a directory's untraced runs."""
    out: "dict[tuple[str, str], dict[int, float]]" = {}
    for path in sorted(Path(directory).glob("*.json")):
        report = json.loads(path.read_text())
        if report.get("trace"):
            continue
        for metric, entry in report["result"]["metrics"].items():
            out.setdefault((report["workload"], metric), {})[report["seed"]] = entry["value"]
    return out


def verdict(
    parent: "dict[int, float]", change: "dict[int, float]", bound: float, better: str
) -> "tuple[str, float]":
    """(verdict, share of seed-matched pairs the change won)."""
    sign = 1.0 if better == "lower" else -1.0
    a, b = list(parent.values()), list(change.values())
    pairs = [(parent[s], change[s]) for s in parent if s in change]
    wins = sum(1 for x, y in pairs if sign * (x - y) > 0)
    share = wins / len(pairs) if pairs else 0.0
    med_a, med_b = stats.median(a), stats.median(b)
    q1, q3 = stats.quartiles(a)
    gain = sign * (med_a - med_b)
    if pairs and share >= 0.9 and gain > q3 - q1:
        return "better", share
    if -gain > bound * abs(med_a):
        return "worse", share
    spread = max(stats.relative_spread(a), stats.relative_spread(b))
    every_run_better = all(sign * (x - y) > 0 for x in a for y in b)
    if spread > bound and not every_run_better:
        return "unresolved", share
    return "unchanged", share


def main(directories: "list[str]", benchmark: dict) -> int:
    parent, change = (load_runs(d) for d in directories)
    workloads = [w["name"] for w in benchmark["workloads"]]
    print(f"{'workload':<16} {'metric':<14} {'A median [q1, q3]':<36} "
          f"{'B median [q1, q3]':<36} {'pairs won':<14} verdict")
    worse = False
    for workload in workloads:
        for metric in benchmark["end_to_end"]:
            key = (workload, metric["name"])
            if key not in parent or key not in change:
                continue
            outcome, share = verdict(parent[key], change[key], metric["bound"], metric["better"])
            worse |= outcome == "worse"
            cells = []
            for runs in (parent[key], change[key]):
                q1, q3 = stats.quartiles(runs.values())
                cells.append(f"{stats.median(runs.values()):.4g} [{q1:.4g}, {q3:.4g}] n={len(runs)}")
            won = f"{share:.2f} of {len(parent[key].keys() & change[key].keys())}"
            print(f"{workload:<16} {metric['name']:<14} {cells[0]:<36} {cells[1]:<36} "
                  f"{won:<14} {outcome}")
    return 1 if worse else 0
