"""Unit tests for the plain-text reporting helpers."""

from __future__ import annotations

from repro.evaluation.report import format_table, sparkline


class TestFormatTable:
    def test_alignment_and_separator(self):
        table = format_table(
            ["method", "AUC"],
            [["PPS", 0.93], ["PBS", 0.47]],
            title="Figure 10",
        )
        lines = table.splitlines()
        assert lines[0] == "Figure 10"
        assert lines[1].startswith("method")
        assert set(lines[2]) <= {"-", " "}
        assert "PPS" in lines[3]

    def test_wide_cells_stretch_columns(self):
        table = format_table(["m"], [["a-very-long-value"]])
        header, sep, row = table.splitlines()
        assert len(sep) == len(row.rstrip()) == len("a-very-long-value")


class TestSparkline:
    def test_monotone_curve(self):
        line = sparkline([0.0, 0.5, 1.0], width=3)
        assert len(line) == 3
        assert line[0] == " " and line[-1] == "@"

    def test_resampling_long_series(self):
        line = sparkline([i / 99 for i in range(100)], width=10)
        assert len(line) == 10

    def test_empty(self):
        assert sparkline([]) == ""
