"""Benchmark regression gating: diff BENCH_*.json against baselines.

The benches emit nested JSON (``BENCH_trace.json``,
``BENCH_recovery.json``); this module flattens each document to
dot-path numeric leaves, matches every path against an ordered tolerance
spec (first ``fnmatch`` wins), and classifies the current value against
the committed baseline:

* ``ok`` — within the rule's relative tolerance;
* ``improved`` — outside tolerance in the *good* direction (noted, never
  fatal);
* ``regression`` — outside tolerance in the bad direction, or a baseline
  metric missing from the current run;
* ``ignored`` — the rule says so (wall-clock seconds, host-dependent
  throughput: CI machines are too noisy to gate on; the *simulated*
  cycles/bytes/record counts are deterministic and gate tightly);
* ``new`` — present now, absent from the baseline (noted).

Direction semantics: ``lower_is_better`` flags only increases,
``higher_is_better`` only decreases, ``both`` any drift beyond
``rel_tol``. Booleans flatten to 0/1 so invariants like
``bit_identical`` gate exactly with ``rel_tol: 0``.

``scripts/bench_compare.py`` is the CLI; CI runs it in every cell
of the ``bench-gate`` job with the spec in ``benchmarks/baselines/``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Dict, List, Optional

__all__ = [
    "Tolerance",
    "Finding",
    "ComparisonReport",
    "flatten",
    "load_spec",
    "match_rule",
    "compare",
]

_DIRECTIONS = ("lower_is_better", "higher_is_better", "both", "ignore")


@dataclass(frozen=True)
class Tolerance:
    """One tolerance rule: a path glob, a budget, and a direction."""

    pattern: str
    rel_tol: float = 0.05
    direction: str = "both"

    def __post_init__(self):
        if self.direction not in _DIRECTIONS:
            raise ValueError(
                f"direction {self.direction!r} not in {_DIRECTIONS}"
            )
        if self.rel_tol < 0:
            raise ValueError(f"rel_tol must be >= 0, got {self.rel_tol}")


#: Applied when no rule matches and the spec defines no default.
DEFAULT_RULE = Tolerance(pattern="*", rel_tol=0.05, direction="both")


@dataclass
class Finding:
    """One metric's verdict."""

    path: str
    status: str  # ok | improved | regression | ignored | new
    baseline: Optional[float] = None
    current: Optional[float] = None
    rel_delta: Optional[float] = None
    rule: Optional[str] = None
    note: str = ""

    def render(self) -> str:
        delta = (
            f"{self.rel_delta:+.1%}" if self.rel_delta is not None else "-"
        )
        base = "-" if self.baseline is None else f"{self.baseline:g}"
        cur = "-" if self.current is None else f"{self.current:g}"
        line = (
            f"{self.status.upper():10} {self.path}  "
            f"base={base} cur={cur} delta={delta}"
        )
        return line + (f"  [{self.note}]" if self.note else "")


@dataclass
class ComparisonReport:
    """All findings for one benchmark file."""

    name: str
    findings: List[Finding] = field(default_factory=list)

    @property
    def regressions(self) -> List[Finding]:
        return [f for f in self.findings if f.status == "regression"]

    @property
    def failed(self) -> bool:
        return bool(self.regressions)

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for f in self.findings:
            out[f.status] = out.get(f.status, 0) + 1
        return out

    def render(self, verbose: bool = False) -> str:
        counts = ", ".join(
            f"{n} {status}" for status, n in sorted(self.counts().items())
        )
        lines = [f"== {self.name}: {counts or 'no metrics'} =="]
        for f in self.findings:
            if verbose or f.status in ("regression", "improved", "new"):
                lines.append("  " + f.render())
        return "\n".join(lines)

    def to_json_obj(self) -> dict:
        return {
            "name": self.name,
            "failed": self.failed,
            "counts": self.counts(),
            "findings": [vars(f) for f in self.findings],
        }


def flatten(doc, prefix: str = "") -> Dict[str, float]:
    """Nested JSON → ``dot.path[i] -> float`` for every numeric leaf.

    Booleans become 0.0/1.0; strings and nulls are skipped (they carry
    labels, not measurements).
    """
    out: Dict[str, float] = {}
    if isinstance(doc, dict):
        for key in doc:
            path = f"{prefix}.{key}" if prefix else str(key)
            out.update(flatten(doc[key], path))
    elif isinstance(doc, list):
        for i, item in enumerate(doc):
            out.update(flatten(item, f"{prefix}[{i}]"))
    elif isinstance(doc, bool):
        out[prefix] = 1.0 if doc else 0.0
    elif isinstance(doc, (int, float)):
        out[prefix] = float(doc)
    return out


def load_spec(path: str) -> List[Tolerance]:
    """Load an ordered tolerance spec from JSON.

    Format: ``{"rules": [{"pattern": ..., "rel_tol": ..., "direction":
    ...}, ...], "default": {...}}``. Rules apply first-match-wins in
    file order; the default (appended as a ``*`` rule) catches the rest.
    """
    with open(path) as f:
        doc = json.load(f)
    rules = [Tolerance(**rule) for rule in doc.get("rules", [])]
    default = doc.get("default")
    if default is not None:
        rules.append(Tolerance(pattern="*", **default))
    return rules


def match_rule(path: str, rules: List[Tolerance]) -> Tolerance:
    for rule in rules:
        if fnmatchcase(path, rule.pattern):
            return rule
    return DEFAULT_RULE


def compare(
    name: str,
    baseline: dict,
    current: dict,
    rules: List[Tolerance],
) -> ComparisonReport:
    """Classify every flattened metric of ``current`` vs ``baseline``."""
    base_flat = flatten(baseline)
    cur_flat = flatten(current)
    report = ComparisonReport(name=name)

    for path in sorted(set(base_flat) | set(cur_flat)):
        rule = match_rule(path, rules)
        base = base_flat.get(path)
        cur = cur_flat.get(path)
        if rule.direction == "ignore":
            report.findings.append(
                Finding(path, "ignored", base, cur, rule=rule.pattern)
            )
            continue
        if base is None:
            report.findings.append(
                Finding(
                    path, "new", None, cur, rule=rule.pattern,
                    note="not in baseline",
                )
            )
            continue
        if cur is None:
            report.findings.append(
                Finding(
                    path, "regression", base, None, rule=rule.pattern,
                    note="metric disappeared from current run",
                )
            )
            continue

        if base == 0.0:
            rel = 0.0 if cur == 0.0 else float("inf")
        else:
            rel = (cur - base) / abs(base)
        within = abs(rel) <= rule.rel_tol
        if within:
            status = "ok"
        elif rule.direction == "lower_is_better":
            status = "regression" if rel > 0 else "improved"
        elif rule.direction == "higher_is_better":
            status = "regression" if rel < 0 else "improved"
        else:
            status = "regression"
        report.findings.append(
            Finding(
                path,
                status,
                base,
                cur,
                rel_delta=rel if rel != float("inf") else None,
                rule=rule.pattern,
                note="baseline was zero" if base == 0.0 and cur != 0.0 else "",
            )
        )
    return report
