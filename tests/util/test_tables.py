"""Tests for table rendering and unit formatting."""

import pytest

from repro.util.tables import Table, format_bytes, format_percent, format_seconds


class TestFormatBytes:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (0, "0 B"),
            (512, "512 B"),
            (1024, "1.00 KiB"),
            (1536, "1.50 KiB"),
            (1 << 20, "1.00 MiB"),
            (3 * (1 << 30), "3.00 GiB"),
        ],
    )
    def test_known_values(self, value, expected):
        assert format_bytes(value) == expected

    def test_negative(self):
        assert format_bytes(-1024) == "-1.00 KiB"


class TestFormatSeconds:
    @pytest.mark.parametrize(
        "value,unit",
        [(5e-9, "ns"), (5e-6, "us"), (5e-3, "ms"), (5.0, "s")],
    )
    def test_units(self, value, unit):
        assert format_seconds(value).endswith(unit)

    def test_zero(self):
        assert format_seconds(0.0) == "0 s"


def test_format_percent():
    assert format_percent(0.051) == "5.1%"


class TestTable:
    def test_render_alignment(self):
        t = Table(["name", "count"], title="demo")
        t.add_row(["bfs", 18])
        t.add_row(["babelstream", 499])
        assert t.render() == (
            "=== demo ===\n"
            "name         count\n"
            "-----------  -----\n"
            "bfs          18\n"
            "babelstream  499"
        )

    def test_float_cell_and_cell_wider_than_header(self):
        t = Table(["x", "speedup", "app"])
        t.add_row([1.5, 2.0, "lud"])
        t.add_row([10, 12.3456, "resize-omp"])
        assert t.render() == (
            "x      speedup  app\n"
            "-----  -------  ----------\n"
            "1.500  2.000    lud\n"
            "10     12.346   resize-omp"
        )

    def test_blank_trailing_cells_are_stripped_with_their_padding(self):
        t = Table(["app", "note", "flag"])
        t.add_row(["bfs", "slow", ""])
        t.add_row(["hotspot", "", ""])
        t.add_row(["lud", "x ", " "])
        t.add_row(["b", "", "y"])
        assert t.render().splitlines()[2:] == [
            "bfs      slow",
            "hotspot",
            "lud      x",
            "b              y",
        ]

    def test_zero_rows(self):
        t = Table(["name", "count"], title="empty")
        assert t.render() == "=== empty ===\nname  count\n----  -----"
        assert t.rows == [] and t.to_records() == []

    def test_row_length_checked(self):
        t = Table(["a", "b"])
        with pytest.raises(ValueError):
            t.add_row([1])

    def test_needs_columns(self):
        with pytest.raises(ValueError):
            Table([])

    def test_to_records(self):
        t = Table(["a", "b"])
        t.add_row([1, 2.5])
        assert t.to_records() == [{"a": "1", "b": "2.500"}]

    def test_rows_returns_copy(self):
        t = Table(["a"])
        t.add_row([1])
        rows = t.rows
        rows[0][0] = "mutated"
        assert t.rows[0][0] == "1"
