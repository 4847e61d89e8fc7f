"""Tests for the paper-fidelity scoreboard (``python -m repro.fidelity``).

The exit-code logic and the instant §6 hardware-model groups run here; the
simulation groups take ~8 s and run as their own CI step.
"""

import pytest

from repro import fidelity
from repro.stats import ExperimentSummary


def _group(measured):
    def group():
        summary = ExperimentSummary("T", "a stand-in group")
        summary.add("gated", 10.0, measured, tolerance=0.05)
        summary.add("informational", None, 1e9)
        return summary
    return group


class TestMain:
    def test_exit_code_follows_the_gated_rows(self, capsys):
        assert fidelity.main((_group(10.1),)) == 0
        assert "1 gated rows: 1 pass, 0 fail" in capsys.readouterr().out
        assert fidelity.main((_group(10.1), _group(12.0))) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "2 gated rows: 1 pass, 1 fail" in out


class TestHardwareModelGroups:
    """Tables 3/4/5 and Figure 10 end to end: every gated row in tolerance."""

    @pytest.mark.parametrize("group", [fidelity.table3_latency, fidelity.table4_area,
                                       fidelity.fig10_endhost_throughput,
                                       fidelity.table5_filters],
                             ids=lambda group: group.__name__)
    def test_group_passes(self, group):
        summary = group()
        assert summary.failed() == []
        assert any(row.passed() for row in summary.rows)
