"""Tests for repro.reporting."""

import pytest

from repro.reporting import (
    BarSeries,
    GroupedSeries,
    Heatmap,
    Table,
    table_to_markdown,
)


class TestTable:
    def test_render_includes_title_and_rows(self):
        table = Table(["Dataset", "No. of apps"], title="Table 2")
        table.add_row("Play Store apps in Androzoo", 6507222)
        text = table.render()
        assert "Table 2" in text
        assert "6,507,222" in text
        assert "Play Store apps in Androzoo" in text

    def test_wrong_cell_count_raises(self):
        table = Table(["a", "b"])
        with pytest.raises(ValueError):
            table.add_row("only-one")

    def test_numeric_columns_right_aligned(self):
        table = Table(["name", "n"])
        table.add_row("x", 5)
        table.add_row("longer", 12345)
        lines = table.render().splitlines()
        assert lines[-1].endswith("12,345")

    def test_as_records(self):
        table = Table(["k", "v"])
        table.add_row("a", 1)
        assert table.as_records() == [{"k": "a", "v": 1}]

    def test_bool_formatting(self):
        table = Table(["k", "ok"])
        table.add_row("a", True)
        assert "yes" in table.render()

    def test_float_formatting(self):
        table = Table(["k", "pct"])
        table.add_row("a", 55.74)
        assert "55.7" in table.render()

    def test_str_dunder(self):
        table = Table(["k"])
        table.add_row("v")
        assert str(table) == table.render()


class TestBarSeries:
    def test_render_has_bars(self):
        series = BarSeries("Figure X")
        series.add("a", 10)
        series.add("b", 5)
        text = series.render()
        assert text.count("#") > 0
        assert "Figure X" in text

    def test_empty_series(self):
        series = BarSeries("empty")
        assert "(no data)" in series.render()

    def test_as_dict(self):
        series = BarSeries("t")
        series.add("a", 1.5)
        assert series.as_dict() == {"a": 1.5}

    def test_zero_value_has_no_bar(self):
        series = BarSeries("t")
        series.add("a", 0)
        series.add("b", 4)
        line = series.render().splitlines()[1]
        assert "#" not in line


class TestGroupedSeries:
    def test_mismatched_lengths_raise(self):
        grouped = GroupedSeries("t", ["a", "b"])
        with pytest.raises(ValueError):
            grouped.add_series("s", [1.0])

    def test_render_and_dict(self):
        grouped = GroupedSeries("t", ["a", "b"])
        grouped.add_series("s1", [1.0, 2.0])
        assert grouped.as_dict() == {"s1": {"a": 1.0, "b": 2.0}}
        assert "s1" in grouped.render()


class TestHeatmap:
    def test_set_get(self):
        heatmap = Heatmap("t", ["r1"], ["c1", "c2"])
        heatmap.set("r1", "c2", 45.0)
        assert heatmap.get("r1", "c2") == 45.0

    def test_unknown_cell_raises(self):
        heatmap = Heatmap("t", ["r1"], ["c1"])
        with pytest.raises(KeyError):
            heatmap.set("nope", "c1", 1.0)

    def test_render_numeric(self):
        heatmap = Heatmap("t", ["r1"], ["c1"])
        heatmap.set("r1", "c1", 45.5)
        assert "45.5" in heatmap.render()

    def test_render_shaded(self):
        heatmap = Heatmap("t", ["r1"], ["c1"])
        heatmap.set("r1", "c1", 100.0)
        assert "@" in heatmap.render(numeric=False)

    def test_as_dict(self):
        heatmap = Heatmap("t", ["r"], ["c"])
        heatmap.set("r", "c", 3.0)
        assert heatmap.as_dict() == {"r": {"c": 3.0}}


class TestMarkdown:
    def test_markdown_table(self):
        table = Table(["name", "count"], title="Table 4")
        table.add_row("AppLovin", 27397)
        md = table_to_markdown(table)
        assert "| name | count |" in md
        assert "| AppLovin | 27,397 |" in md
        assert "**Table 4**" in md
