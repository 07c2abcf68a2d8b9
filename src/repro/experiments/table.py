"""Result tables: the rows/series the paper's figures and tables report.

Every experiment runner returns a :class:`ResultTable`; benchmarks print it
so a run of ``pytest benchmarks/`` regenerates the paper's numbers (in
simulated seconds and scaled sizes — see EXPERIMENTS.md for the mapping).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import UnknownNameError


@dataclass
class ResultTable:
    """A labeled table of experiment results.

    Attributes:
        title: Experiment id and description (e.g. ``"Fig. 9 (SIFT)"``).
        columns: Column names, in display order.
        rows: One dict per row; keys are column names.
        notes: Free-form annotations (paper-expected shape, scaling, ...).
    """

    title: str
    columns: list[str]
    rows: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    volatile: list[str] = field(default_factory=list)

    #: Placeholder rendered for volatile cells in a stable rendering.
    STABLE_MASK = "~"

    def __post_init__(self):
        unknown = set(self.volatile) - set(self.columns)
        if unknown:
            raise UnknownNameError(f"volatile names unknown columns: {sorted(unknown)}")

    def add_row(self, **values) -> None:
        """Append a row; values are keyed by column name."""
        unknown = set(values) - set(self.columns)
        if unknown:
            raise UnknownNameError(f"row has unknown columns: {sorted(unknown)}")
        self.rows.append(values)

    def column(self, name: str) -> list:
        """All values of one column, in row order."""
        if name not in self.columns:
            raise UnknownNameError(f"unknown column: {name}")
        return [row.get(name) for row in self.rows]

    def where(self, **conditions) -> list[dict]:
        """Rows matching all equality conditions."""
        return [
            row
            for row in self.rows
            if all(row.get(key) == value for key, value in conditions.items())
        ]

    def format(self, float_digits: int = 6, stable: bool = False) -> str:
        """Render as an aligned ASCII table.

        With ``stable=True``, cells of columns listed in
        :attr:`volatile` (wall-clock measurements and anything else that
        varies run to run) render as :attr:`STABLE_MASK` and a note
        names them — the rendering is then byte-identical across runs
        and machines, which is what lets benchmark ``.txt`` artifacts be
        committed and diffed. Simulated numbers are deterministic and
        never need masking.
        """
        def fmt(value, column) -> str:
            if stable and column in self.volatile and value is not None:
                return self.STABLE_MASK
            if isinstance(value, float):
                return f"{value:.{float_digits}g}"
            return "" if value is None else str(value)

        header = [str(c) for c in self.columns]
        body = [[fmt(row.get(c), c) for c in self.columns] for row in self.rows]
        widths = [
            max(len(header[i]), *(len(r[i]) for r in body)) if body else len(header[i])
            for i in range(len(header))
        ]
        lines = [f"== {self.title} =="]
        lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in body:
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
        for note in self.notes:
            lines.append(f"# {note}")
        if stable and self.volatile:
            masked = ", ".join(c for c in self.columns if c in self.volatile)
            lines.append(
                f"# volatile columns masked for byte-stable artifact: {masked}"
            )
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.format()
