"""ASCII table rendering in the style of the paper's tables."""

from repro.util import format_count


class Table:
    """A simple column-aligned text table.

    >>> t = Table(["Dataset", "No. of apps"], title="Table 2")
    >>> t.add_row("Play Store apps in Androzoo", 6507222)
    >>> print(t.render())  # doctest: +ELLIPSIS
    Table 2
    ...
    """

    def __init__(self, columns, title=None, align=None):
        self.columns = [str(c) for c in columns]
        self.title = title
        # 'l' or 'r' per column; numbers default to right alignment.
        self.align = list(align) if align else None
        self.rows = []

    def add_row(self, *cells):
        if len(cells) != len(self.columns):
            raise ValueError(
                "expected %d cells, got %d" % (len(self.columns), len(cells))
            )
        self.rows.append(list(cells))

    @staticmethod
    def _format_cell(cell):
        if isinstance(cell, bool):
            return "yes" if cell else "no"
        if isinstance(cell, int):
            return format_count(cell)
        if isinstance(cell, float):
            return "%.1f" % cell
        return str(cell)

    def _column_widths(self, formatted_rows):
        widths = [len(c) for c in self.columns]
        for row in formatted_rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        return widths

    def _alignment(self, index, cell_samples):
        if self.align:
            return self.align[index]
        for sample in cell_samples:
            if isinstance(sample, (int, float)) and not isinstance(sample, bool):
                return "r"
        return "l"

    def render(self):
        """Render the table to a string."""
        formatted = [[self._format_cell(c) for c in row] for row in self.rows]
        widths = self._column_widths(formatted)
        aligns = [
            self._alignment(i, [row[i] for row in self.rows])
            for i in range(len(self.columns))
        ]
        total_width = sum(widths) + 3 * (len(widths) - 1)
        lines = []
        if self.title:
            lines.append(self.title)
        lines.append(self._render_row(self.columns, widths, ["l"] * len(widths)))
        lines.append("-" * total_width)
        for row in formatted:
            lines.append(self._render_row(row, widths, aligns))
        return "\n".join(lines)

    @staticmethod
    def _render_row(cells, widths, aligns):
        parts = []
        for cell, width, align in zip(cells, widths, aligns):
            if align == "r":
                parts.append(cell.rjust(width))
            else:
                parts.append(cell.ljust(width))
        return "   ".join(parts).rstrip()

    def as_records(self):
        """Return rows as dictionaries keyed by column name."""
        return [dict(zip(self.columns, row)) for row in self.rows]

    def __str__(self):
        return self.render()
