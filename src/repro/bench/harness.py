"""Experiment harness: run engine sweeps, collect series, print tables.

Every paper figure has a runner in :mod:`repro.bench.figures` returning an
:class:`Experiment`; the bench targets under ``benchmarks/`` and the
EXPERIMENTS.md generator both consume that one structure. The reported
quantity is **simulated time** (cycles of the modelled platform), not
host wall-clock — the host is running a simulator.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.obs import Trace


def write_trace(trace: Trace, path: str, indent: int = 2) -> str:
    """Dump a query trace as Chrome trace-event JSON; returns the path.

    The file loads directly in Perfetto / ``chrome://tracing``. Bench
    targets use this to attach one representative trace per figure next
    to the result tables.
    """
    with open(path, "w") as f:
        f.write(trace.to_chrome_json(indent=indent))
        f.write("\n")
    return path


@dataclass
class Series:
    """One labelled curve: y (and optional raw detail) over shared x."""

    label: str
    values: List[float] = field(default_factory=list)

    def add(self, value: float) -> None:
        self.values.append(value)


@dataclass
class Experiment:
    """A completed experiment: shared x-axis plus named series."""

    name: str
    x_label: str
    x_values: List[object] = field(default_factory=list)
    series: Dict[str, Series] = field(default_factory=dict)
    y_label: str = "simulated cycles"
    notes: str = ""

    def series_for(self, label: str) -> Series:
        if label not in self.series:
            self.series[label] = Series(label=label)
        return self.series[label]

    def add_point(self, x: object, label: str, value: float) -> None:
        """Record ``value`` for series ``label`` at x-position ``x``.

        Series may be sparse (not every series has a value at every x);
        missing positions render blank and are padded with NaN.
        """
        if x not in self.x_values:
            self.x_values.append(x)
        idx = self.x_values.index(x)
        series = self.series_for(label)
        while len(series.values) < idx:
            series.values.append(float("nan"))
        if len(series.values) == idx:
            series.values.append(value)
        else:
            series.values[idx] = value

    # ------------------------------------------------------------------
    # Rendering.
    # ------------------------------------------------------------------
    def to_table(self, fmt: str = "{:>12.4g}") -> str:
        """Fixed-width table: one row per x, one column per series."""
        labels = list(self.series)
        header = f"{self.x_label:>16} " + " ".join(f"{l:>12}" for l in labels)
        lines = [self.name, "=" * len(self.name), header, "-" * len(header)]
        for i, x in enumerate(self.x_values):
            cells = []
            for l in labels:
                vals = self.series[l].values
                present = i < len(vals) and vals[i] == vals[i]  # not NaN
                cells.append(fmt.format(vals[i]) if present else " " * 12)
            lines.append(f"{str(x):>16} " + " ".join(cells))
        if self.notes:
            lines.append(f"note: {self.notes}")
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps(
            {
                "name": self.name,
                "x_label": self.x_label,
                "x_values": [str(x) for x in self.x_values],
                "y_label": self.y_label,
                "series": {l: s.values for l, s in self.series.items()},
                "notes": self.notes,
            },
            indent=2,
        )

    def ratio(self, numerator: str, denominator: str) -> List[float]:
        """Pointwise series ratio (speedups)."""
        a = self.series[numerator].values
        b = self.series[denominator].values
        return [x / y if y else float("inf") for x, y in zip(a, b)]


@dataclass
class Grid:
    """A 2-D sweep (the Figure 6 heatmaps): value[(row, col)]."""

    name: str
    row_label: str
    col_label: str
    rows: List[int] = field(default_factory=list)
    cols: List[int] = field(default_factory=list)
    values: Dict[tuple, float] = field(default_factory=dict)
    notes: str = ""

    def set(self, row: int, col: int, value: float) -> None:
        if row not in self.rows:
            self.rows.append(row)
        if col not in self.cols:
            self.cols.append(col)
        self.values[(row, col)] = value

    def get(self, row: int, col: int) -> float:
        return self.values[(row, col)]

    def to_table(self) -> str:
        header = f"{self.row_label + chr(92) + self.col_label:>8} " + " ".join(
            f"{c:>6}" for c in self.cols
        )
        lines = [self.name, "=" * len(self.name), header, "-" * len(header)]
        for r in reversed(self.rows):  # paper heatmaps grow upward
            cells = " ".join(f"{self.values[(r, c)]:>6.2f}" for c in self.cols)
            lines.append(f"{r:>8} {cells}")
        if self.notes:
            lines.append(f"note: {self.notes}")
        return "\n".join(lines)

    def region_mean(self, row_pred, col_pred) -> float:
        """Mean over cells whose row/col indices satisfy the predicates —
        used by shape assertions ("lower-left favours COL")."""
        cells = [
            v
            for (r, c), v in self.values.items()
            if row_pred(r) and col_pred(c)
        ]
        return sum(cells) / len(cells) if cells else float("nan")
