"""Tests for the ResultTable container."""

import pytest

from paper.experiments.table import ResultTable


class TestResultTable:
    def _table(self):
        table = ResultTable(title="t", columns=["a", "b"])
        table.add_row(a=1, b=2.5)
        table.add_row(a=3, b=None)
        return table

    def test_add_and_column(self):
        table = self._table()
        assert table.column("a") == [1, 3]
        assert table.column("b") == [2.5, None]

    def test_unknown_column_rejected(self):
        table = self._table()
        with pytest.raises(KeyError):
            table.add_row(c=1)
        with pytest.raises(KeyError):
            table.column("z")

    def test_where(self):
        table = self._table()
        assert table.where(a=3) == [{"a": 3, "b": None}]
        assert table.where(a=99) == []

    def test_format_contains_everything(self):
        table = self._table()
        table.notes.append("a note")
        text = table.format()
        assert "== t ==" in text
        assert "2.5" in text
        assert "# a note" in text

    def test_str(self):
        assert str(self._table()).startswith("== t ==")


class TestVolatileColumns:
    def _table(self):
        table = ResultTable(
            title="t",
            columns=["stage", "sim_s", "wall_s"],
            volatile=["wall_s"],
        )
        table.add_row(stage="x", sim_s=1.5, wall_s=0.123456)
        table.add_row(stage="y", sim_s=2.5, wall_s=None)
        return table

    def test_live_format_keeps_volatile_values(self):
        assert "0.123456" in self._table().format()

    def test_stable_format_masks_volatile_values(self):
        text = self._table().format(stable=True)
        assert "0.123456" not in text
        assert ResultTable.STABLE_MASK in text
        assert "1.5" in text and "2.5" in text  # simulated columns intact
        assert "masked for byte-stable artifact: wall_s" in text

    def test_stable_format_is_deterministic_across_values(self):
        # Two runs with different wall clocks -> identical artifacts.
        first = self._table()
        second = self._table()
        second.rows[0]["wall_s"] = 9.87
        assert first.format(stable=True) == second.format(stable=True)

    def test_none_stays_blank_not_masked(self):
        lines = self._table().format(stable=True).splitlines()
        assert lines[4].split()[-1] == ResultTable.STABLE_MASK or "y" in lines[4]

    def test_stable_without_volatile_is_plain_format(self):
        table = ResultTable(title="t", columns=["a"])
        table.add_row(a=1)
        assert table.format(stable=True) == table.format()

    def test_unknown_volatile_column_rejected(self):
        with pytest.raises(KeyError):
            ResultTable(title="t", columns=["a"], volatile=["z"])
