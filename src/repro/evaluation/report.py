"""Human-readable reports for pipelines and benchmarks.

The reports collect per-stage metrics (blocking quality, matching quality,
comparison counts, simulated cost) and render them as aligned text tables --
the same rows the benchmark harness prints when regenerating an experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Union

Number = Union[int, float]


@dataclass
class StageReport:
    """Metrics of a single workflow stage (e.g. "token blocking", "matching")."""

    stage: str
    metrics: Dict[str, Number] = field(default_factory=dict)
    notes: str = ""

    def add(self, name: str, value: Number) -> None:
        self.metrics[name] = value

    def get(self, name: str, default: Optional[Number] = None) -> Optional[Number]:
        return self.metrics.get(name, default)

    def __str__(self) -> str:
        rendered = " ".join(f"{k}={_format_number(v)}" for k, v in self.metrics.items())
        suffix = f"  # {self.notes}" if self.notes else ""
        return f"[{self.stage}] {rendered}{suffix}"


def _format_number(value: Number) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, int):
        return str(value)
    if abs(value) >= 1000:
        return f"{value:.1f}"
    return f"{value:.4f}"


class WorkflowReport:
    """An ordered collection of stage reports with table rendering."""

    def __init__(self, title: str = "workflow") -> None:
        self.title = title
        self._stages: List[StageReport] = []

    def add_stage(self, stage: Union[str, StageReport], **metrics: Number) -> StageReport:
        """Append a stage report, either ready-made or built from keyword metrics."""
        if isinstance(stage, StageReport):
            report = stage
        else:
            report = StageReport(stage=stage, metrics=dict(metrics))
        self._stages.append(report)
        return report

    def __iter__(self):
        return iter(self._stages)

    def __len__(self) -> int:
        return len(self._stages)

    def stage(self, name: str) -> Optional[StageReport]:
        for report in self._stages:
            if report.stage == name:
                return report
        return None

    def metric_names(self) -> List[str]:
        names: List[str] = []
        for report in self._stages:
            for name in report.metrics:
                if name not in names:
                    names.append(name)
        return names

    def to_rows(self) -> List[Dict[str, object]]:
        """One dict per stage, suitable for CSV export or benchmark extra_info."""
        rows = []
        for report in self._stages:
            row: Dict[str, object] = {"stage": report.stage}
            row.update(report.metrics)
            rows.append(row)
        return rows

    def render(self) -> str:
        """Render an aligned text table of all stages and metrics."""
        columns = ["stage"] + self.metric_names()
        rows = [[report.stage] + [
            _format_number(report.metrics[name]) if name in report.metrics else "-"
            for name in columns[1:]
        ] for report in self._stages]
        widths = [
            max(len(str(columns[i])), *(len(row[i]) for row in rows)) if rows else len(columns[i])
            for i in range(len(columns))
        ]
        lines = [self.title]
        header = "  ".join(str(c).ljust(widths[i]) for i, c in enumerate(columns))
        lines.append(header)
        lines.append("  ".join("-" * w for w in widths))
        for report, row in zip(self._stages, rows):
            line = "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
            # same suffix as ``str(stage)``: which path ran, where a snapshot went
            lines.append(f"{line}  # {report.notes}" if report.notes else line)
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


def render_table(
    rows: Sequence[Mapping[str, object]],
    columns: Optional[Sequence[str]] = None,
    title: Optional[str] = None,
) -> str:
    """Render a list of dict rows as an aligned text table (shared by benchmarks)."""
    if not rows:
        return title or ""
    if columns is None:
        columns = list(rows[0].keys())
        for row in rows[1:]:
            for key in row:
                if key not in columns:
                    columns.append(key)
    formatted = [
        [
            _format_number(row[c]) if isinstance(row.get(c), (int, float)) else str(row.get(c, "-"))
            for c in columns
        ]
        for row in rows
    ]
    widths = [max(len(str(c)), *(len(r[i]) for r in formatted)) for i, c in enumerate(columns)]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(str(c).ljust(widths[i]) for i, c in enumerate(columns)))
    lines.append("  ".join("-" * w for w in widths))
    for row in formatted:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)
