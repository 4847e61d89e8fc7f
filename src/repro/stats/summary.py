"""Experiment summaries: paper-reported versus measured values.

Every :mod:`repro.fidelity` group builds an :class:`ExperimentSummary`, so
the scoreboard prints the same rows/series the paper reports next to what
this reproduction measured, each with the tolerance it is held to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass
class ComparisonRow:
    """One paper-vs-measured data point, gated when it says how close it must be.

    ``tolerance`` is relative to the paper value (``0.05``: within 5 %).
    ``band`` is an absolute ``(low, high)`` range for the measured value, for
    rows where the paper itself reports a range or where the scaled-down
    setup cannot reach the paper's absolute number (the note says why).  A
    row with neither, or with no paper value, is informational: it never
    gates.
    """

    label: str
    paper_value: Optional[float]
    measured_value: Optional[float]
    unit: str = ""
    note: str = ""
    tolerance: Optional[float] = None
    band: Optional[tuple[float, float]] = None

    def ratio(self) -> Optional[float]:
        if self.paper_value in (None, 0) or self.measured_value is None:
            return None
        return self.measured_value / self.paper_value

    def passed(self) -> Optional[bool]:
        """True/False for a gated row, None for an informational one."""
        if self.paper_value is None or self.measured_value is None:
            return None
        if self.band is not None:
            low, high = self.band
            return low <= self.measured_value <= high
        if self.tolerance is None:
            return None
        return (abs(self.measured_value - self.paper_value)
                <= self.tolerance * abs(self.paper_value))

    def formatted(self) -> str:
        paper = "-" if self.paper_value is None else f"{self.paper_value:g}"
        measured = "-" if self.measured_value is None else f"{self.measured_value:g}"
        unit = f" {self.unit}" if self.unit else ""
        if self.band is not None:
            gate = f"[{self.band[0]:g}, {self.band[1]:g}]"
        else:
            gate = "-" if self.tolerance is None else f"±{self.tolerance:.0%}"
        verdict = {None: "info", True: "PASS", False: "FAIL"}[self.passed()]
        note = f"  ({self.note})" if self.note else ""
        return (f"{self.label:<50s} paper={paper + unit:<11s} "
                f"measured={measured + unit:<11s} tol={gate:<14s} {verdict}{note}")


@dataclass
class ExperimentSummary:
    """A named collection of comparison rows for one table/figure."""

    experiment_id: str
    title: str
    rows: list[ComparisonRow] = field(default_factory=list)

    def add(self, label: str, paper_value: Optional[float], measured_value: Optional[float],
            unit: str = "", note: str = "", tolerance: Optional[float] = None,
            band: Optional[tuple[float, float]] = None) -> ComparisonRow:
        row = ComparisonRow(label, paper_value, measured_value, unit, note, tolerance, band)
        self.rows.append(row)
        return row

    def failed(self) -> list[ComparisonRow]:
        """The gated rows that are out of tolerance."""
        return [row for row in self.rows if row.passed() is False]

    def render(self) -> str:
        lines = [f"== {self.experiment_id}: {self.title} =="]
        lines.extend(row.formatted() for row in self.rows)
        return "\n".join(lines)
