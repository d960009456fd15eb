"""Plain-text table rendering for reports and experiment output.

OMPDataPerf's output is "human-readable tables" (artifact appendix A.2);
the experiment harness reproduces the paper's tables in the same spirit.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence


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


class Table:
    """A minimal left/right aligned text table.

    >>> t = Table(["name", "count"])
    >>> t.add_row(["bfs", 18])
    >>> print(t.render())  # doctest: +SKIP
    """

    def __init__(self, columns: Sequence[str], title: str | None = None) -> None:
        if not columns:
            raise ValueError("a table needs at least one column")
        self.columns = [str(c) for c in columns]
        self.title = title
        self._rows: list[list[str]] = []

    def add_row(self, row: Iterable[Any]) -> None:
        cells = [self._format_cell(c) for c in row]
        if len(cells) != len(self.columns):
            raise ValueError(
                f"row has {len(cells)} cells but table has {len(self.columns)} columns"
            )
        self._rows.append(cells)

    @staticmethod
    def _format_cell(value: Any) -> str:
        if isinstance(value, float):
            return f"{value:.3f}"
        return str(value)

    def add_text_rows(self, rows: Iterable[list[str]]) -> None:
        """Append rows whose cells are already text (no per-cell formatting)."""
        for row in rows:
            if len(row) != len(self.columns):
                raise ValueError(
                    f"row has {len(row)} cells but table has {len(self.columns)} columns"
                )
            self._rows.append(row)

    @property
    def rows(self) -> list[list[str]]:
        return [list(r) for r in self._rows]

    def render(self) -> str:
        widths = [len(c) for c in self.columns]
        for i, cells in enumerate(zip(*self._rows)):
            widths[i] = max(widths[i], *map(len, cells))
        # one left-aligned, space-padded field per column
        template = "  ".join(f"{{:<{w}}}" for w in widths)

        lines: list[str] = []
        if self.title:
            lines.append(f"=== {self.title} ===")
        lines.append(template.format(*self.columns).rstrip())
        lines.append("  ".join("-" * w for w in widths))
        lines.extend(template.format(*row).rstrip() for row in self._rows)
        return "\n".join(lines)

    def to_records(self) -> list[dict[str, str]]:
        """Return the table contents as a list of column->cell dictionaries."""
        return [dict(zip(self.columns, row)) for row in self._rows]

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()
