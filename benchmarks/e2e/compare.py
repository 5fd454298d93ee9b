"""Compare two sets of end-to-end benchmark runs (parent vs change).

Each side is one or more ``run.py --json`` files. Per (workload, metric)
the comparison reports each side's median and quartiles, the fraction of
run pairs the change wins, and a verdict:

* ``improved`` — the change wins at least nine tenths of the pairs (ties
  count for neither) and the medians differ, in the better direction, by
  more than the distance between the parent's quartiles;
* ``regressed`` — the change's median is worse than the parent's by more
  than the metric's bound in ``BENCHMARK.json``;
* ``unresolved`` — neither, but the parent's own spread is wider than the
  bound, and not every change run reads better than every parent run;
* ``unchanged`` — otherwise.

Metrics without a bound (per-layer ones and run details) can only be
``improved``, ``worse`` (the mirror of improved) or ``unchanged``.
"""

from __future__ import annotations

import json
import statistics
from typing import Dict, List, Optional, Sequence, Tuple

WIN_FRACTION = 0.9


def load_runs(paths: Sequence[str]) -> List[Dict[str, dict]]:
    """One ``{workload: report}`` mapping per file."""
    out = []
    for path in paths:
        with open(path) as f:
            out.append(json.load(f)["runs"])
    return out


def _values(sets: List[Dict[str, dict]]) -> Dict[Tuple[str, str], List[float]]:
    """``(workload, metric) -> [value per run]`` over metrics and details,
    keeping only metrics every run of that workload reported (a tail
    percentile's name depends on the run's sample count)."""
    out: Dict[Tuple[str, str], List[float]] = {}
    runs_of: Dict[str, int] = {}
    for runs in sets:
        for workload, report in runs.items():
            runs_of[workload] = runs_of.get(workload, 0) + 1
            entries = {**report.get("details", {}), **report.get("metrics", {})}
            for name, entry in entries.items():
                out.setdefault((workload, name), []).append(float(entry["value"]))
    return {k: v for k, v in out.items() if len(v) == runs_of[k[0]]}


def _directions(report_sets) -> Dict[str, str]:
    out = {}
    for runs in report_sets:
        for report in runs.values():
            for name, entry in report.get("details", {}).items():
                out[name] = entry.get("better", "lower")
    return out


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single run is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(
    parent: Sequence[float],
    change: Sequence[float],
    better: str,
    bound: Optional[float],
) -> Tuple[str, float]:
    """``(verdict, win fraction)`` for one metric; see the module doc."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    win_frac = wins / len(pairs) if pairs else 0.0
    pq1, pmed, pq3 = quartiles(parent)
    _cq1, cmed, _cq3 = quartiles(change)
    gain = sign * (cmed - pmed)
    if win_frac >= WIN_FRACTION and gain > (pq3 - pq1):
        return "improved", win_frac
    if bound is None:
        worse = sum(1 for p, c in pairs if sign * (c - p) < 0)
        if pairs and worse / len(pairs) >= WIN_FRACTION and -gain > (pq3 - pq1):
            return "worse", win_frac
        return "unchanged", win_frac
    if -gain > bound * abs(pmed):
        return "regressed", win_frac
    spread = (pq3 - pq1) / abs(pmed) if pmed else 0.0
    if spread > bound:
        best_parent = max(parent) if better == "higher" else min(parent)
        if not all(sign * (c - best_parent) > 0 for c in change):
            return "unresolved", win_frac
    return "unchanged", win_frac


def _cell(values: Sequence[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:.6g} [{q1:.4g}, {q3:.4g}]"


def compare(
    parent_paths: Sequence[str], change_paths: Sequence[str], benchmark: dict
) -> Tuple[List[str], bool]:
    """Render the comparison; returns ``(lines, any_regression)``."""
    parents, changes = load_runs(parent_paths), load_runs(change_paths)
    pv, cv = _values(parents), _values(changes)
    bounds = {m["name"]: (m["better"], m["bound"]) for m in benchmark["end_to_end"]}
    directions = {m["name"]: m["better"] for m in benchmark["per_layer"]}
    directions.update(_directions(parents + changes))
    lines = [
        f"{'workload':<14} {'metric':<32} {'parent median [q1, q3]':>36} "
        f"{'change median [q1, q3]':>36} {'wins':>5}  verdict"
    ]
    regressed = False
    for key in sorted(set(pv) & set(cv)):
        workload, name = key
        better, bound = bounds.get(name, (directions.get(name, "lower"), None))
        v, wins = verdict(pv[key], cv[key], better, bound)
        regressed |= v == "regressed"
        p, c = _cell(pv[key]), _cell(cv[key])
        lines.append(f"{workload:<14} {name:<32} {p:>36} {c:>36} {wins:>5.2f}  {v}")
    return lines, regressed
