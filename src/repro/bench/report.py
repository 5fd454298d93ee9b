"""Consolidated reproduction report from the saved bench results.

``pytest benchmarks/ --benchmark-only`` writes one text table per
experiment into ``benchmarks/results/``; this module folds them into a
single Markdown document (per-experiment sections plus a checklist of
which paper figures have fresh results) so a reviewer reads one file.

Exposed on the CLI as ``python -m repro.bench report``.
"""

from __future__ import annotations

import datetime
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: Experiment id → (result file stem, what the paper shows).
PAPER_FIGURES: Tuple[Tuple[str, str, str], ...] = (
    ("Figure 5", "fig5_projectivity", "normalized time vs projectivity (ROW/COL/RM)"),
    ("Figure 6a", "fig6a_rm_vs_row", "RM speedup vs ROW heatmap"),
    ("Figure 6b", "fig6b_rm_vs_col", "RM speedup vs COL heatmap"),
    ("Figure 7a", "fig7a_tpch_q1", "TPC-H Q1 time vs data size"),
    ("Figure 7b", "fig7b_tpch_q6", "TPC-H Q6 time vs data size"),
)

ABLATIONS: Tuple[Tuple[str, str, str], ...] = (
    ("Prefetcher streams", "ablation_prefetcher", "crossover vs stream limit"),
    ("RM clock", "ablation_rm_clock", "fabric frequency sensitivity"),
    ("RM buffer", "ablation_rm_buffer", "refill stalls vs buffer size"),
    ("RM vs RMC", "ablation_rmc", "§IV-C integration"),
    ("MVCC in fabric", "ablation_mvcc", "§III-C hardware visibility"),
    ("Code cache", "ablation_codecache", "§III-B fragment reuse"),
    ("Storage pushdown", "storage_pushdown", "§IV-D Relational Storage"),
    ("Compression", "compression", "§III-D fabric compatibility"),
    ("HTAP", "htap", "freshness + conversion cost"),
    ("Tiered fabric", "tiered_fabric", "§VII Q3 composition"),
    ("Multicore", "multicore", "thread scaling walls"),
)


@dataclass
class ReportSection:
    title: str
    description: str
    body: Optional[str]

    @property
    def present(self) -> bool:
        return self.body is not None


def _load(results_dir: str, stem: str) -> Optional[str]:
    path = os.path.join(results_dir, f"{stem}.txt")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return f.read().strip()


def collect_sections(results_dir: str) -> List[ReportSection]:
    """Load every known experiment's saved table (missing ones noted)."""
    sections = []
    for title, stem, description in PAPER_FIGURES + ABLATIONS:
        sections.append(
            ReportSection(
                title=title,
                description=description,
                body=_load(results_dir, stem),
            )
        )
    return sections


def render_markdown(results_dir: str, now: Optional[str] = None) -> str:
    """The consolidated reproduction report."""
    sections = collect_sections(results_dir)
    stamp = now or datetime.datetime.now().isoformat(timespec="seconds")
    figures = [s for s, meta in zip(sections, PAPER_FIGURES)]
    n_paper = len(PAPER_FIGURES)
    fresh = sum(1 for s in sections[:n_paper] if s.present)

    lines = [
        "# Relational Fabric — reproduction report",
        "",
        f"Generated {stamp} from `{results_dir}`.",
        "",
        f"Paper figures with fresh results: **{fresh}/{n_paper}**"
        " (run `pytest benchmarks/ --benchmark-only` to refresh).",
        "",
        "## Checklist",
        "",
        "| Experiment | What it reproduces | Result |",
        "|---|---|---|",
    ]
    for section in sections:
        status = "✓" if section.present else "missing"
        lines.append(f"| {section.title} | {section.description} | {status} |")
    lines.append("")
    for section in sections:
        if not section.present:
            continue
        lines.append(f"## {section.title} — {section.description}")
        lines.append("")
        lines.append("```")
        lines.append(section.body)
        lines.append("```")
        lines.append("")
    return "\n".join(lines)


def write_report(results_dir: str, out_path: str) -> str:
    """Render and write the report; returns the output path."""
    text = render_markdown(results_dir)
    with open(out_path, "w") as f:
        f.write(text + "\n")
    return out_path
