"""Plain-text table/series formatting for the benchmark harness.

Every benchmark prints the rows/series the corresponding paper table or
figure reports; these helpers keep the output format uniform.
"""

from __future__ import annotations

from typing import Any, Sequence

__all__ = ["format_table", "format_series", "format_profile"]


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    title: str | None = None,
) -> str:
    """Fixed-width table with right-aligned numeric columns.

    Degenerate inputs format cleanly: an empty ``rows`` yields just the
    header and rule lines, and rows shorter than ``headers`` are padded
    with blanks instead of raising.
    """
    str_rows = [[_fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row[: len(headers)]):
            widths[i] = max(widths[i], len(cell))
    out = []
    if title:
        out.append(title)
    out.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    out.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        padded = list(row[: len(headers)]) + [""] * (len(headers) - len(row))
        out.append("  ".join(c.rjust(w) for c, w in zip(padded, widths)))
    return "\n".join(out)


def format_series(
    x_label: str,
    xs: Sequence[Any],
    series: dict[str, Sequence[Any]],
    title: str | None = None,
) -> str:
    """A figure rendered as a table: one x column, one column per series."""
    headers = [x_label] + list(series)
    rows = [
        [x] + [series[name][i] for name in series] for i, x in enumerate(xs)
    ]
    return format_table(headers, rows, title=title)


def format_profile(
    roots: Sequence[Any],
    title: str | None = None,
    model: bool = False,
    min_share: float = 0.0005,
) -> str:
    """Indented span-tree profile (text flame graph, root time = 100%).

    ``roots`` are span-like nodes (``name``, ``seconds``, ``model_seconds``,
    ``children`` attributes — see :class:`repro.obs.Span`); this module only
    duck-types them, so it imports nothing from ``repro.obs``.
    Subtrees below ``min_share`` of the total are pruned from the listing.
    """

    def secs(node: Any) -> float:
        return node.model_seconds if model else node.seconds

    total = sum(secs(r) for r in roots) or 1.0
    lines = []
    if title:
        lines.append(title)
    lines.append(f"{'span':<44}{'seconds':>12}{'share':>8}")
    lines.append(f"{'-' * 44}{'-' * 12:>12}{'-' * 7:>8}")

    def walk(node: Any, depth: int) -> None:
        s = secs(node)
        if s / total < min_share and depth > 0:
            return
        label = "  " * depth + node.name
        lines.append(f"{label:<44}{s:>12.4f}{100 * s / total:>7.1f}%")
        for c in node.children:
            walk(c, depth + 1)

    for r in roots:
        walk(r, 0)
    lines.append(f"{'TOTAL':<44}{total:>12.4f}{100.0:>7.1f}%")
    return "\n".join(lines)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3e}"
        return f"{value:.3f}"
    return str(value)
