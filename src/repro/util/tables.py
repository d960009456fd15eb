"""Plain-text table rendering for reports and experiment output.

OMPDataPerf's output is "human-readable tables" (artifact appendix A.2);
the experiment harness reproduces the paper's tables in the same spirit.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence

import numpy as np


def format_bytes(n: float) -> str:
    """Format a byte count with a binary-prefix unit (e.g. ``1.5 MiB``)."""
    n = float(n)
    sign = "-" if n < 0 else ""
    n = abs(n)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if n < 1024.0 or unit == "TiB":
            if unit == "B":
                return f"{sign}{int(n)} {unit}"
            return f"{sign}{n:.2f} {unit}"
        n /= 1024.0
    raise AssertionError("unreachable")


def format_seconds(t: float) -> str:
    """Format a duration with an adaptive unit (ns/us/ms/s)."""
    t = float(t)
    sign = "-" if t < 0 else ""
    t = abs(t)
    if t == 0.0:
        return "0 s"
    if t < 1e-6:
        return f"{sign}{t * 1e9:.1f} ns"
    if t < 1e-3:
        return f"{sign}{t * 1e6:.1f} us"
    if t < 1.0:
        return f"{sign}{t * 1e3:.2f} ms"
    return f"{sign}{t:.3f} s"


def format_percent(x: float) -> str:
    """Format a fraction as a percentage string."""
    return f"{100.0 * x:.1f}%"


#: One table column: its texts and, per row, the index of the row's text.
#: Row ``i`` shows ``texts[codes[i]]``; texts no row uses are allowed and
#: do not count towards the column's width.
Column = tuple[Sequence[str], np.ndarray]


def coded(values: np.ndarray, fmt: Callable[[Any], str]) -> Column:
    """``fmt`` of every value as a column, formatting each distinct value once.

    Values that compare equal share one text, so ``fmt`` must map equal
    values to equal text (``0.0`` and ``-0.0`` compare equal).
    """
    distinct, codes = np.unique(values, return_inverse=True)
    return [fmt(v) for v in distinct.tolist()], codes


def render_columns(
    headers: Sequence[str], columns: Sequence[Column], title: str | None = None
) -> str:
    """Render a left-aligned text table from its columns.

    Each distinct text is padded to its column's width once and the rows are
    gathered through the codes, so the cost per row is one gather per column
    and one join.  Every line is right-stripped, like ``str.rstrip`` of the
    whole padded line: the last column is never padded, and a row whose
    trailing cells are blank also loses the separators and padding before
    them.
    """
    widths = [
        int(np.fromiter(map(len, texts), np.int64, len(texts))[codes].max(initial=len(header)))
        for header, (texts, codes) in zip(headers, columns)
    ]
    lines: list[str] = []
    if title:
        lines.append(f"=== {title} ===")
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip())
    lines.append("  ".join("-" * w for w in widths))
    num_rows = len(columns[0][1])
    if num_rows:
        # cells carry their leading separator and are built right to left:
        # ``trailing`` marks the rows whose cells right of the current column
        # are all blank (None once no row is), which take the stripped text
        cells: list[list[str]] = []
        trailing: np.ndarray | None = np.ones(num_rows, dtype=bool)
        for index in range(len(columns) - 1, -1, -1):
            texts, codes = columns[index]
            sep = "  " if index else ""
            stripped = [(sep + t).rstrip() for t in texts]
            choices, pick = stripped, codes
            if index < len(columns) - 1:
                choices = [sep + t.ljust(widths[index]) for t in texts]
                if trailing is not None:
                    choices += stripped
                    pick = codes + len(texts) * trailing
            cells.append(np.array(choices, dtype=object)[pick].tolist())
            blank = [not s for s in stripped]
            if trailing is not None and any(blank):
                trailing = trailing & np.array(blank)[codes]
            else:
                trailing = None
        lines.append("\n".join(map("".join, zip(*reversed(cells)))))
    return "\n".join(lines)


class Table:
    """A minimal left-aligned text table, filled row by row.

    >>> t = Table(["name", "count"])
    >>> t.add_row(["bfs", 18])
    >>> print(t.render())  # doctest: +SKIP
    """

    def __init__(self, columns: Sequence[str], title: str | None = None) -> None:
        if not columns:
            raise ValueError("a table needs at least one column")
        self.columns = [str(c) for c in columns]
        self.title = title
        #: one list of cell texts per column
        self._cells: list[list[str]] = [[] for _ in self.columns]

    def add_row(self, row: Iterable[Any]) -> None:
        cells = [self._format_cell(c) for c in row]
        if len(cells) != len(self.columns):
            raise ValueError(
                f"row has {len(cells)} cells but table has {len(self.columns)} columns"
            )
        for column, cell in zip(self._cells, cells):
            column.append(cell)

    @staticmethod
    def _format_cell(value: Any) -> str:
        if isinstance(value, float):
            return f"{value:.3f}"
        return str(value)

    @property
    def rows(self) -> list[list[str]]:
        return [list(r) for r in zip(*self._cells)]

    def render(self) -> str:
        rows = np.arange(len(self._cells[0]))
        return render_columns(self.columns, [(texts, rows) for texts in self._cells], self.title)

    def to_records(self) -> list[dict[str, str]]:
        """Return the table contents as a list of column->cell dictionaries."""
        return [dict(zip(self.columns, row)) for row in zip(*self._cells)]

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()
