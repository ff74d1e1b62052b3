"""Report serialization and row formatting.

Correlation reports go to JSON (schema below) and a flat CSV with one
row per coefficient. Slash-separated rows render summary-quality ROUGE
triples as percentages ("45.06/16.84/41.35") and correlation triples as
plain two-decimal values ("0.56/0.69/0.63"); undefined coefficients are
JSON nulls, empty CSV fields, and "n/a" in rendered rows.
"""

from __future__ import annotations

import json

from ..origin import CorrelationReport, VARIANTS
from ..textunits import atomic_write, read_json


def format_slashed(values, decimals: int = 2) -> str:
    return "/".join("n/a" if v is None else f"{v:.{decimals}f}" for v in values)


def rouge_f_row(r1_f1: float, r2_f1: float, rl_f1: float) -> str:
    """Render three F1 fractions as a slash-separated percentage row."""
    return format_slashed([100.0 * r1_f1, 100.0 * r2_f1, 100.0 * rl_f1])


def correlation_row(r1: float | None, r2: float | None, rl: float | None) -> str:
    """Render three correlation coefficients as a slash-separated row."""
    return format_slashed([r1, r2, rl])


def format_summary_table(rows: list[dict]) -> list[str]:
    """Lines "label: r1/r2/rl" for summary-quality rows.

    Each row is ``{"label": str, "rouge_f": [r1_f1, r2_f1, rl_f1]}``
    with F1 fractions in [0, 1].
    """
    return [f"{row['label']}: {rouge_f_row(*row['rouge_f'])}" for row in rows]


def report_to_dict(report: CorrelationReport) -> dict:
    obj = {
        "layers": report.per_layer,
        "heads": report.per_head,
        "head_matrix": report.head_matrix,
        "layer_matrix": report.layer_matrix,
        "sample_count": report.sample_count,
        "per_summary": report.per_summary,
    }
    if report.posbias is not None:
        obj["posbias"] = {
            "counts": report.posbias.counts.tolist(),
            "normalized": report.posbias.normalized.tolist(),
        }
    return obj


def dump_json(obj: dict) -> str:
    """The text ``write_report_json`` writes for ``obj``."""
    return json.dumps(obj, indent=2) + "\n"


def write_report_json(report: CorrelationReport, path) -> None:
    text = dump_json(report_to_dict(report))
    with atomic_write(path, encoding="utf-8") as fh:
        fh.write(text)


def read_report_json(path) -> dict:
    """The report object; invalid UTF-8 or JSON raises a ValueError naming the file."""
    return read_json(path, "report")


def _cell(value) -> str:
    return "" if value is None else repr(float(value))


# No field can need CSV quoting: table and variant names are fixed, layer,
# head, i and j are integers or empty, and values are float reprs or counts.
# So joined rows are the bytes csv.writer writes.

def _variant_rows(table: str, rows: list[dict], numbered: bool = False) -> list[str]:
    """One row per (entry, variant); ``numbered`` puts the entry index in column i."""
    return [f"{table},{row['layer']},{row.get('head', '')},{s if numbered else ''},,{variant},"
            f"{_cell(row[variant])}" for s, row in enumerate(rows) for variant in VARIANTS]


def _grid_rows(table: str, grid, layer="", cell=_cell) -> list[str]:
    """One row per (i, j) cell of a nested-list grid."""
    return [f"{table},{layer},,{i},{j},,{cell(value)}"
            for i, grow in enumerate(grid) for j, value in enumerate(grow)]


def report_to_csv(report: CorrelationReport) -> str:
    """Flat CSV: table,layer,head,i,j,variant,value (one coefficient per row)."""
    lines = ["table,layer,head,i,j,variant,value"]
    lines += _variant_rows("per_layer", report.per_layer)
    lines += _variant_rows("per_head", report.per_head)
    for entry in report.head_matrix:
        lines += _grid_rows("head_matrix", entry["matrix"], layer=entry["layer"])
    lines += _grid_rows("layer_matrix", report.layer_matrix)
    lines += _variant_rows("per_summary", report.per_summary, numbered=True)
    if report.posbias is not None:
        lines += _grid_rows("posbias_counts", report.posbias.counts.tolist(), cell=str)
        lines += _grid_rows("posbias_normalized", report.posbias.normalized.tolist())
    return "\n".join(lines) + "\n"


def write_report_csv(report: CorrelationReport, path) -> None:
    with atomic_write(path, encoding="utf-8", newline="") as fh:
        fh.write(report_to_csv(report))
