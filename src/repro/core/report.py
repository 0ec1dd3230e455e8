"""Plain-text report formatting for the CLI, docs examples and benchmarks.

The benchmark modules print the rows the paper's tables and figures report
(who wins, by how much, where the crossovers fall).  This module contains the
small formatting helpers they share, so the printed output is uniform across
experiments and easy to diff against EXPERIMENTS.md.

Every renderer here is a **pure function of its input**: no printing during
runs, no timestamps, fixed column widths.  Parallel runs therefore cannot
interleave report text, and the CLI and the documentation examples show
byte-identical output for identical results.  The evaluation ledger renders
itself (:meth:`~repro.runtime.ledger.EvaluationLedger.summary`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.designer import SelectedDesign

__all__ = [
    "format_table",
    "format_row",
    "paper_vs_measured",
    "render_selections",
]


def format_row(values: Sequence, widths: Sequence[int]) -> str:
    """Format one table row with left-aligned, fixed-width columns."""
    cells = []
    for value, width in zip(values, widths):
        if isinstance(value, float):
            text = "%.3f" % value
        else:
            text = str(value)
        cells.append(text.ljust(width))
    return "  ".join(cells).rstrip()


def format_table(headers: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Format a small ASCII table (headers + rows)."""
    rows = [list(row) for row in rows]
    widths = [len(str(h)) for h in headers]
    for row in rows:
        for i, value in enumerate(row):
            text = "%.3f" % value if isinstance(value, float) else str(value)
            widths[i] = max(widths[i], len(text))
    lines = [format_row(headers, widths), format_row(["-" * w for w in widths], widths)]
    lines.extend(format_row(row, widths) for row in rows)
    return "\n".join(lines)


def paper_vs_measured(
    experiment: str,
    entries: Iterable[tuple[str, object, object]],
) -> str:
    """Format a paper-versus-measured comparison block.

    ``entries`` is an iterable of ``(quantity, paper_value, measured_value)``.
    """
    headers = ["quantity", "paper", "measured"]
    table = format_table(headers, entries)
    return "[%s] paper vs measured\n%s" % (experiment, table)


def render_selections(selections: "Sequence[SelectedDesign]") -> str:
    """Format the Table 2-style selection rows as a deterministic table.

    One row per selected design: criterion name, each reported objective
    (natural units) and the robustness yield Γ (``-`` until assessed).  Rows
    keep the order of the input list, which the designer fixes (closest to
    ideal, shadow minima, max yield), so identical reports render identically.

    Example
    -------
    >>> import numpy as np
    >>> from repro.core.designer import SelectedDesign
    >>> print(render_selections([SelectedDesign(
    ...     criterion="closest_to_ideal",
    ...     decision=np.zeros(1),
    ...     objectives=np.array([21.5, 105000.0]),
    ...     yield_percentage=62.5)]))
    criterion         f1      f2          yield %
    ----------------  ------  ----------  -------
    closest_to_ideal  21.500  105000.000  62.500
    """
    headers = ["criterion"]
    n_objectives = len(selections[0].objectives) if selections else 0
    headers += ["f%d" % (index + 1) for index in range(n_objectives)]
    headers += ["yield %"]
    rows = []
    for design in selections:
        row: list = [design.criterion]
        row.extend(float(value) for value in design.objectives)
        row.append(
            "-" if design.yield_percentage is None else float(design.yield_percentage)
        )
        rows.append(row)
    return format_table(headers, rows)
