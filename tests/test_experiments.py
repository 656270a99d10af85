"""Tests for the experiment harnesses (small bounds)."""

import pytest

from repro.experiments.ablation import format_ablation, run_ablation
from repro.experiments.fig7 import Fig7Series, format_fig7, run_fig7
from repro.experiments.rtl import format_rtl, run_rtl_check
from repro.experiments.table1 import (
    Table1,
    format_table1,
    run_table1,
    run_table1_cell,
)
from repro.experiments.table2 import format_table2, run_table2
from repro.experiments.table3 import format_table3
from repro.synth.generate import EnumerationSpace


class TestTable1:
    def test_cell_x86_small(self):
        row, result = run_table1_cell("x86", 3)
        assert row.forbid_total == 4
        # Headline shape: no Forbid test is ever observed on hardware.
        assert row.forbid_seen == 0
        # Most Allow tests are observable.
        assert row.allow_seen >= row.allow_total * 0.5
        assert row.exhausted

    def test_cell_power_small(self):
        row, _ = run_table1_cell("power", 3, time_budget=120)
        assert row.forbid_seen == 0
        assert row.allow_total > 0

    def test_format(self):
        table = run_table1(bounds={"x86": [2]}, time_budget=60)
        text = format_table1(table)
        assert "Forbid" in text and "Allow" in text
        assert "x86" in text


class TestTable2:
    def test_rows_and_verdicts(self):
        rows = run_table2(
            monotonicity_bounds={"x86": 2, "power": 2, "armv8": 2, "cpp": 2},
            compilation_bound=2,
            time_budget=60,
        )
        verdicts = {(r.prop, r.target): r.verdict for r in rows}
        assert verdicts[("Monotonicity", "power")] == "yes"
        assert verdicts[("Monotonicity", "armv8")] == "yes"
        assert verdicts[("Monotonicity", "x86")] == "no"
        assert verdicts[("Compilation", "x86")] == "no"
        assert verdicts[("Lock elision", "armv8")] == "yes"
        assert verdicts[("Lock elision", "armv8 (fixed)")] == "no"
        assert verdicts[("Lock elision", "x86")] == "no"
        text = format_table2(rows)
        assert "Lock elision" in text and "Paper" in text

    def test_failed_check_raises(self, monkeypatch):
        from repro.experiments import table2

        def broken(task):
            raise ValueError(f"{task[0]} broke")

        monkeypatch.setattr(table2, "_run_property_check", broken)
        with pytest.raises(RuntimeError, match="Monotonicity broke"):
            run_table2(time_budget=1)


class TestTable3:
    def test_contents(self):
        text = format_table3()
        assert "TxnReadsLockFree" in text
        assert "rmw" in text
        assert "ARMv8 (fixed)" in text
        assert "dmb" in text


class TestFig7:
    def test_series_and_plot(self):
        series = run_fig7(n_events=3, time_budget=60)
        assert series.discovery_times
        curve = series.cumulative(points=10)
        assert curve[0][1] <= curve[-1][1]
        assert curve[-1][1] == 100.0
        text = format_fig7(series)
        assert "100%" in text and "time" in text

    def test_empty_series(self):
        series = Fig7Series("x86", 2, total_time=1.0, discovery_times=[])
        assert series.cumulative() == [(0.0, 0.0), (1.0, 0.0)]
        assert series.half_found_fraction() == 0.0


class TestRtl:
    def test_bug_found_in_buggy_rtl(self):
        report = run_rtl_check(n_events=4, time_budget=240)
        assert report.suite_size > 0
        assert report.bug_found
        assert not report.fixed_violations
        assert "BUG FOUND" in format_rtl(report)


class TestAblation:
    def test_ours_strictly_stronger(self):
        report = run_ablation(n_events=3)
        assert report.only_dongol_forbids == 0
        assert report.only_ours_forbids > 0
        assert report.by_axiom  # ordering axioms account for the gap
        text = format_ablation(report)
        assert "only ours forbids" in text
