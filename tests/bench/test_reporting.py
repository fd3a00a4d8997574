"""Tests for paper-style reporting helpers."""

import pytest

from repro.bench.reporting import (
    acceleration_row,
    cdf_points,
    format_seconds,
    print_table,
    quantile_row,
    under_10ms_row,
)


class TestFormatting:
    def test_format_seconds_ranges(self):
        assert format_seconds(2.5) == "2.50s"
        assert format_seconds(0.0035) == "3.50ms"
        assert format_seconds(42e-6) == "42.0us"

    def test_acceleration_row(self):
        row = acceleration_row("INet2", 0.1, {"AP": 0.5, "Flash": 0.2})
        assert row["dataset"] == "INet2"
        assert row["AP/Tulkun"] == pytest.approx(5.0)
        assert row["Flash/Tulkun"] == pytest.approx(2.0)

    def test_ratio_cells_print_as_ratios(self):
        row = acceleration_row("INet2", 0.1, {"APKeep": 0.0686, "AP": 25.0})
        cells = print_table("fig11a", [row]).splitlines()[-1].split()
        assert cells == ["INet2", "100.00ms", "0.69×", "250.00×"]

    def test_acceleration_row_zero_tulkun(self):
        row = acceleration_row("x", 0.0, {"AP": 1.0})
        assert row["AP/Tulkun"] == float("inf")

    def test_under_10ms_row(self):
        row = under_10ms_row(
            "d", [0.001, 0.002, 0.02], {"AP": [0.5, 0.001]}
        )
        assert row["Tulkun"] == pytest.approx(100 * 2 / 3)
        assert row["AP"] == pytest.approx(50.0)

    def test_quantile_row(self):
        row = quantile_row("d", [0.1] * 10, {"AP": [0.2] * 10})
        assert row["Tulkun"] == pytest.approx(0.1)
        assert row["AP"] == pytest.approx(0.2)


class TestCdf:
    def test_empty(self):
        assert cdf_points([]) == []

    def test_monotone_and_complete(self):
        values = [5.0, 1.0, 3.0, 2.0, 4.0]
        points = cdf_points(values, points=5)
        fractions = [fraction for _, fraction in points]
        assert fractions == sorted(fractions)
        assert points[-1] == (5.0, 1.0)

    def test_single_value(self):
        assert cdf_points([7.0]) == [(7.0, 1.0)]


class TestPrintTable:
    def test_renders_and_returns(self, capsys):
        rows = [{"a": 1, "b": 0.5}, {"a": 2, "b": 1.5}]
        text = print_table("demo", rows)
        out = capsys.readouterr().out
        assert "== demo ==" in text
        assert text in out + "\n" or "demo" in out

    def test_empty_rows(self, capsys):
        text = print_table("nothing", [])
        assert "(no rows)" in text

    def test_alignment(self):
        rows = [{"name": "long-name", "v": 1}, {"name": "x", "v": 12345}]
        text = print_table("t", rows)
        lines = text.splitlines()
        assert len({len(line) for line in lines[1:4]}) <= 2  # aligned
