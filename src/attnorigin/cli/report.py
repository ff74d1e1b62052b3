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
from ..rouge import RougeTriple
from ..textunits import atomic_write, read_json, write_json


def format_slashed(values, decimals: int = 2) -> str:
    return "/".join("n/a" if v is None else f"{v:.{decimals}f}" for v in values)


def rouge_f_row(r1_f1: float, r2_f1: float, rl_f1: float) -> str:
    """Render three F1 fractions as a slash-separated percentage row."""
    return format_slashed([100.0 * r1_f1, 100.0 * r2_f1, 100.0 * rl_f1])


def rouge_triple_row(triple: RougeTriple) -> str:
    return rouge_f_row(triple.r1.f1, triple.r2.f1, triple.rl.f1)


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


def report_to_csv(report: CorrelationReport) -> str:
    """Flat CSV: table,layer,head,i,j,variant,value (one coefficient per row)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["table", "layer", "head", "i", "j", "variant", "value"])
    for row in report.per_layer:
        for variant in VARIANTS:
            writer.writerow(["per_layer", row["layer"], "", "", "", variant, _cell(row[variant])])
    for row in report.per_head:
        for variant in VARIANTS:
            writer.writerow(
                ["per_head", row["layer"], row["head"], "", "", variant, _cell(row[variant])]
            )
    for entry in report.head_matrix:
        matrix = entry["matrix"]
        for i, mrow in enumerate(matrix):
            for j, value in enumerate(mrow):
                writer.writerow(["head_matrix", entry["layer"], "", i, j, "", _cell(value)])
    for i, mrow in enumerate(report.layer_matrix):
        for j, value in enumerate(mrow):
            writer.writerow(["layer_matrix", "", "", i, j, "", _cell(value)])
    for s, row in enumerate(report.per_summary):
        for variant in VARIANTS:
            writer.writerow(
                ["per_summary", row["layer"], "", s, "", variant, _cell(row[variant])]
            )
    if report.posbias is not None:
        for i, crow in enumerate(report.posbias.counts.tolist()):
            for j, value in enumerate(crow):
                writer.writerow(["posbias_counts", "", "", i, j, "", value])
        for i, nrow in enumerate(report.posbias.normalized.tolist()):
            for j, value in enumerate(nrow):
                writer.writerow(["posbias_normalized", "", "", i, j, "", _cell(value)])
    return buf.getvalue()


def write_report_csv(report: CorrelationReport, path) -> None:
    with atomic_write(path, encoding="utf-8", newline="") as fh:
        fh.write(report_to_csv(report))
