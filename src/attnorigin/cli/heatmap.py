"""Self-contained SVG heatmaps for positional-bias grids.

No plotting dependency: one <rect> per cell, grayscale fill with
intensity round(255 * (1 - value)) (half-up), so value 1.0 is black and
0.0 is white. Identical input renders byte-identical SVG.
"""

from __future__ import annotations

CELL = 28
MARGIN_LEFT = 64
MARGIN_TOP = 20
MARGIN_BOTTOM = 44
MARGIN_RIGHT = 16


class MissingPosBiasError(ValueError):
    """Raised when a report has no positional-bias block to render."""


def _intensity(value: float) -> int:
    level = int(255.0 * (1.0 - value) + 0.5)
    return min(255, max(0, level))


def render_heatmap_svg(normalized: list[list[float]]) -> str:
    """SVG text for a column-normalized grid with axis labels."""
    rows = len(normalized)
    cols = len(normalized[0]) if rows else 0
    if rows == 0 or cols == 0:
        raise ValueError("heatmap grid must be non-empty")
    width = MARGIN_LEFT + cols * CELL + MARGIN_RIGHT
    height = MARGIN_TOP + rows * CELL + MARGIN_BOTTOM
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
    ]
    for i, row in enumerate(normalized):
        y = MARGIN_TOP + i * CELL
        for j, value in enumerate(row):
            x = MARGIN_LEFT + j * CELL
            level = _intensity(float(value))
            parts.append(
                f'<rect x="{x}" y="{y}" width="{CELL}" height="{CELL}" '
                f'fill="rgb({level},{level},{level})" stroke="#888" stroke-width="0.5"/>'
            )
    for i in range(rows):
        y = MARGIN_TOP + i * CELL + CELL // 2 + 4
        parts.append(
            f'<text x="{MARGIN_LEFT - 8}" y="{y}" font-size="11" '
            f'font-family="monospace" text-anchor="end">{i}</text>'
        )
    for j in range(cols):
        x = MARGIN_LEFT + j * CELL + CELL // 2
        y = MARGIN_TOP + rows * CELL + 14
        parts.append(
            f'<text x="{x}" y="{y}" font-size="11" '
            f'font-family="monospace" text-anchor="middle">{j}</text>'
        )
    label_y = MARGIN_TOP + rows * CELL + 32
    center_x = MARGIN_LEFT + (cols * CELL) // 2
    parts.append(
        f'<text x="{center_x}" y="{label_y}" font-size="12" '
        f'font-family="monospace" text-anchor="middle">summary sentence</text>'
    )
    axis_y = MARGIN_TOP + (rows * CELL) // 2
    parts.append(
        f'<text x="12" y="{axis_y}" font-size="12" font-family="monospace" '
        f'text-anchor="middle" transform="rotate(-90 12 {axis_y})">'
        'unit position in document</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def heatmap_from_report(report) -> str:
    """Render the posbias block of a report dict.

    Raises when the block is absent or ``normalized`` is not a non-empty
    rectangular grid of numbers in [0, 1].
    """
    if not isinstance(report, dict):
        raise ValueError("report must be a JSON object")
    block = report.get("posbias")
    if not isinstance(block, dict) or "normalized" not in block:
        raise MissingPosBiasError("report contains no posbias block")
    grid = block["normalized"]
    if not (isinstance(grid, list) and grid
            and all(isinstance(row, list) and row and len(row) == len(grid[0]) for row in grid)
            and all(type(v) in (int, float) and 0 <= v <= 1 for row in grid for v in row)):
        raise ValueError("posbias.normalized must be a non-empty rectangular grid of "
                         "numbers in [0, 1]")
    return render_heatmap_svg(grid)
