"""Tests for report formatting and the measured-table rendering."""

import pytest

from repro.bench.harness import MeasuredRow, render_measured
from repro.bench.report import comparison_table, format_table, relative_error


class TestFormatTable:
    def test_alignment_and_separator(self):
        text = format_table(("name", "value"), [("a", 1.5), ("long-name", 22.25)])
        lines = text.splitlines()
        assert len(lines) == 4
        assert set(lines[1]) <= {"-", " "}
        # Right-aligned columns: every row has equal length.
        assert len({len(line) for line in lines}) == 1

    def test_float_formatting(self):
        text = format_table(("x",), [(3.14159,)])
        assert "3.14" in text

    def test_comparison_table_title(self):
        text = comparison_table(("a",), [(1,)], title="My table")
        assert text.startswith("My table\n")

    def test_empty_rows(self):
        text = format_table(("only", "headers"), [])
        assert "only" in text


class TestRelativeError:
    def test_signed(self):
        assert relative_error(110.0, 100.0) == pytest.approx(0.10)
        assert relative_error(90.0, 100.0) == pytest.approx(-0.10)

    def test_zero_reference(self):
        assert relative_error(0.0, 0.0) == 0.0
        assert relative_error(5.0, 0.0) == float("inf")


class TestMeasuredTable:
    def test_render_and_speedup(self):
        row = MeasuredRow(
            event_id="EV-X",
            n_files=3,
            total_points=1_000,
            times_s={
                "seq-original": 2.0,
                "seq-optimized": 1.8,
                "partial-parallel": 1.7,
                "full-parallel": 1.0,
            },
        )
        assert row.speedup == pytest.approx(2.0)
        text = render_measured([row])
        assert "EV-X" in text
        assert "2.00x" in text
        assert text.endswith("(seq-original / full-parallel): 2.00x")

    def test_catalog_speedup_is_over_summed_times(self):
        def row(event_id, original, parallel):
            times = {name: original for name in ("seq-original", "seq-optimized", "partial-parallel")}
            return MeasuredRow(event_id, 3, 1_000, {**times, "full-parallel": parallel})

        text = render_measured([row("EV-A", 2.0, 1.0), row("EV-B", 4.0, 3.0)])
        assert "EV-A" in text and "EV-B" in text
        # (2 + 4) / (1 + 3), not the mean of 2.00x and 1.33x.
        assert text.endswith("(seq-original / full-parallel): 1.50x")
