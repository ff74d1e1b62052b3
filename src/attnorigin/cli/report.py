"""Report serialization and row formatting.

Correlation reports go to JSON (schema below) and a flat CSV with one
row per coefficient. Slash-separated rows render summary-quality ROUGE
triples as percentages ("45.06/16.84/41.35") and correlation triples as
plain two-decimal values ("0.56/0.69/0.63"); undefined coefficients are
JSON nulls, empty CSV fields, and "n/a" in rendered rows.
"""

from __future__ import annotations

import csv
import json
import io

from ..origin import CorrelationReport, VARIANTS
from ..textunits import atomic_write, read_json, write_json


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
    write_json(report_to_dict(report), path, indent=2)


def read_report_json(path) -> dict:
    """The report object; invalid UTF-8 or JSON raises a ValueError naming the file."""
    return read_json(path, "report")


def _cell(value) -> str:
    return "" if value is None else repr(float(value))


def _variant_rows(writer, table: str, rows: list[dict], numbered: bool = False) -> None:
    """One row per (entry, variant); ``numbered`` puts the entry index in column i."""
    for s, row in enumerate(rows):
        for variant in VARIANTS:
            writer.writerow([table, row["layer"], row.get("head", ""), s if numbered else "", "",
                             variant, _cell(row[variant])])


def _grid_rows(writer, table: str, grid, layer="", cell=_cell) -> None:
    """One row per (i, j) cell of a nested-list grid."""
    for i, grow in enumerate(grid):
        for j, value in enumerate(grow):
            writer.writerow([table, layer, "", i, j, "", cell(value)])


def report_to_csv(report: CorrelationReport) -> str:
    """Flat CSV: table,layer,head,i,j,variant,value (one coefficient per row)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["table", "layer", "head", "i", "j", "variant", "value"])
    _variant_rows(writer, "per_layer", report.per_layer)
    _variant_rows(writer, "per_head", report.per_head)
    for entry in report.head_matrix:
        _grid_rows(writer, "head_matrix", entry["matrix"], layer=entry["layer"])
    _grid_rows(writer, "layer_matrix", report.layer_matrix)
    _variant_rows(writer, "per_summary", report.per_summary, numbered=True)
    if report.posbias is not None:
        _grid_rows(writer, "posbias_counts", report.posbias.counts.tolist(), cell=str)
        _grid_rows(writer, "posbias_normalized", report.posbias.normalized.tolist())
    return buf.getvalue()


def write_report_csv(report: CorrelationReport, path) -> None:
    with atomic_write(path, encoding="utf-8", newline="") as fh:
        fh.write(report_to_csv(report))
