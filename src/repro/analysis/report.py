"""Structured experiment records with paper-vs-measured comparison.

Benches accumulate :class:`ExperimentRecord` rows into an
:class:`ExperimentReport`, which renders the ASCII tables printed on
stdout and markdown table fragments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.utils.tables import render_table

__all__ = ["ExperimentRecord", "ExperimentReport"]


@dataclass(frozen=True)
class ExperimentRecord:
    """One measured quantity, optionally with the paper's value."""

    experiment: str  # e.g. "Fig. 9"
    setting: str  # e.g. "2x2 E1 20 MHz K=1/8"
    metric: str  # e.g. "BER"
    measured: float
    paper_value: float | None = None
    note: str = ""

    @property
    def ratio(self) -> float | None:
        """measured / paper, when a paper value exists and is nonzero."""
        if self.paper_value in (None, 0):
            return None
        return self.measured / self.paper_value


@dataclass
class ExperimentReport:
    """A collection of records for one table/figure."""

    title: str
    records: list[ExperimentRecord] = field(default_factory=list)

    def add(
        self,
        setting: str,
        metric: str,
        measured: float,
        paper_value: float | None = None,
        note: str = "",
    ) -> None:
        self.records.append(
            ExperimentRecord(
                experiment=self.title,
                setting=setting,
                metric=metric,
                measured=measured,
                paper_value=paper_value,
                note=note,
            )
        )

    def render(self, precision: int = 4) -> str:
        """ASCII table with measured (and paper, where known) columns."""
        has_paper = any(r.paper_value is not None for r in self.records)
        headers = ["setting", "metric", "measured"]
        if has_paper:
            headers += ["paper", "measured/paper"]
        rows = []
        for record in self.records:
            row: list[object] = [record.setting, record.metric, record.measured]
            if has_paper:
                row.append(
                    record.paper_value if record.paper_value is not None else "-"
                )
                row.append(record.ratio if record.ratio is not None else "-")
            rows.append(row)
        return render_table(headers, rows, title=self.title, precision=precision)

    def markdown(self, precision: int = 4) -> str:
        """The records as a markdown table fragment."""
        lines = [f"### {self.title}", ""]
        lines.append("| setting | metric | measured | paper | note |")
        lines.append("|---|---|---|---|---|")
        for r in self.records:
            paper = f"{r.paper_value:.{precision}g}" if r.paper_value is not None else "-"
            lines.append(
                f"| {r.setting} | {r.metric} | {r.measured:.{precision}g} "
                f"| {paper} | {r.note} |"
            )
        lines.append("")
        return "\n".join(lines)
