"""Tests for report formatting, serialization fidelity, and SVG heatmaps."""

import json

import numpy as np
import pytest

from attnorigin.cli import heatmap as hm
from attnorigin.cli import report as rp
from attnorigin.origin import CorrelationReport, PosBiasHeatmap


def make_report(posbias=True):
    report = CorrelationReport(
        per_layer=[
            {"layer": 1, "r1": 0.18, "r2": 0.20, "rl": 0.19},
            {"layer": 6, "r1": 0.56, "r2": 0.69, "rl": 0.63},
        ],
        per_head=[
            {"layer": 1, "head": 0, "r1": 0.5, "r2": None, "rl": 0.25},
        ],
        head_matrix=[{"layer": 1, "matrix": [[1.0, 0.72], [0.72, 1.0]]}],
        layer_matrix=[[1.0, 0.53], [0.53, 1.0]],
        sample_count=120,
        per_summary=[{"set_id": "set0", "layer": 1, "r1": 0.4, "r2": None, "rl": 0.3}],
    )
    if posbias:
        report.posbias = PosBiasHeatmap(
            counts=np.array([[3, 0], [1, 2]]),
            normalized=np.array([[0.75, 0.0], [0.25, 1.0]]),
        )
    return report


# ---------------------------------------------------------------------------
# row formatting
# ---------------------------------------------------------------------------

def test_rouge_row_renders_percentages():
    assert rp.rouge_f_row(0.4506, 0.1684, 0.4135) == "45.06/16.84/41.35"


def test_correlation_row_two_decimals():
    assert rp.correlation_row(0.56, 0.69, 0.63) == "0.56/0.69/0.63"


def test_correlation_row_undefined():
    assert rp.correlation_row(0.5, None, -1.0) == "0.50/n/a/-1.00"


def test_summary_table_lines():
    rows = [{"label": "Paragraphs / 4,000", "rouge_f": [0.4506, 0.1684, 0.4135]}]
    assert rp.format_summary_table(rows) == ["Paragraphs / 4,000: 45.06/16.84/41.35"]


# ---------------------------------------------------------------------------
# fixture fidelity: stored statistics round-trip byte-exactly
# ---------------------------------------------------------------------------

def test_correlation_fixture_round_trips_byte_exact(tmp_path):
    report = make_report()
    path = tmp_path / "report.json"
    rp.write_report_json(report, path)
    first = path.read_bytes()
    obj = rp.read_report_json(path)
    assert rp.dump_json(obj).encode() == first
    row = next(r for r in obj["layers"] if r["layer"] == 6)
    assert rp.correlation_row(row["r1"], row["r2"], row["rl"]) == "0.56/0.69/0.63"


def test_rouge_fixture_round_trips_byte_exact(tmp_path):
    fixture = {"rows": [{"label": "Paragraphs / 4,000", "rouge_f": [0.4506, 0.1684, 0.4135]}]}
    path = tmp_path / "table.json"
    path.write_text(rp.dump_json(fixture), encoding="utf-8")
    first = path.read_bytes()
    obj = json.loads(path.read_text())
    assert rp.dump_json(obj).encode() == first
    assert rp.format_summary_table(obj["rows"])[0].endswith("45.06/16.84/41.35")


# ---------------------------------------------------------------------------
# JSON / CSV structure
# ---------------------------------------------------------------------------

def test_report_json_null_for_undefined(tmp_path):
    path = tmp_path / "r.json"
    rp.write_report_json(make_report(), path)
    obj = json.loads(path.read_text())
    assert obj["heads"][0]["r2"] is None
    assert obj["posbias"]["counts"] == [[3, 0], [1, 2]]
    assert obj["sample_count"] == 120


def test_report_csv_one_row_per_coefficient():
    text = rp.report_to_csv(make_report())
    lines = text.splitlines()
    assert lines[0] == "table,layer,head,i,j,variant,value"
    per_layer_rows = [l for l in lines if l.startswith("per_layer")]
    assert len(per_layer_rows) == 2 * 3
    assert "per_head,1,0,,,r2," in lines  # undefined -> empty field
    assert any(l.startswith("head_matrix,1,,0,1,,0.72") for l in lines)
    assert any(l.startswith("posbias_counts,,,0,0,,3") for l in lines)


def test_report_csv_and_json_carry_per_summary():
    report = make_report()
    text = rp.report_to_csv(report)
    assert "per_summary,1,,0,,r1,0.4" in text
    obj = rp.report_to_dict(report)
    assert obj["per_summary"][0]["set_id"] == "set0"


def test_report_csv_skips_missing_posbias():
    text = rp.report_to_csv(make_report(posbias=False))
    assert "posbias" not in text


# ---------------------------------------------------------------------------
# SVG heatmap
# ---------------------------------------------------------------------------

def test_heatmap_single_full_intensity_cell():
    svg = hm.render_heatmap_svg([[1.0]])
    assert 'fill="rgb(0,0,0)"' in svg
    assert svg.count("<rect") == 2  # background + one cell


def test_heatmap_deterministic_bytes():
    grid = [[0.2, 0.8, 0.0], [0.5, 0.1, 1.0]]
    assert hm.render_heatmap_svg(grid) == hm.render_heatmap_svg(grid)


def test_heatmap_intensity_mapping_2x3():
    grid = [[0.0, 0.5, 1.0], [0.25, 0.75, 0.1]]
    svg = hm.render_heatmap_svg(grid)
    for row in grid:
        for value in row:
            level = int(255 * (1 - value) + 0.5)
            assert f'fill="rgb({level},{level},{level})"' in svg


def test_heatmap_axis_labels_present():
    svg = hm.render_heatmap_svg([[0.5, 0.5]], row_label="rows", col_label="cols")
    assert ">rows</text>" in svg and ">cols</text>" in svg
    assert ">0</text>" in svg and ">1</text>" in svg


def test_heatmap_from_report_requires_posbias():
    with pytest.raises(hm.MissingPosBiasError):
        hm.heatmap_from_report({"layers": []})
    svg = hm.heatmap_from_report({"posbias": {"normalized": [[1.0]]}})
    assert svg.startswith("<?xml")


def test_heatmap_rejects_empty_grid():
    with pytest.raises(ValueError):
        hm.render_heatmap_svg([])
