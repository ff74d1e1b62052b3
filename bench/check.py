"""Output checks: invariants at any seed, a recorded reference at the default seed.

Results are keyed by set-stage operation ``(stage, set_id)``; an output
shared by all sets of a stage (``report.json``, the heatmap) fails every
set of that stage. The checks read files with their own parsers, so they
do not rely on the code under test.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

# Report coefficients may differ from the reference by this much
# (absolute); everything else must match exactly.
COEFF_TOLERANCE = 1e-9
# An attention slice is on the simplex when it is non-negative, pad
# units carry no mass, and its float32 values sum to 1 within this.
SIMPLEX_TOLERANCE = 1e-5

EOS, EOSS = "<eos>", "<eoss>"


class Layout:
    """Where one pass of a workload reads and writes its files."""

    def __init__(self, work: Path, external: bool):
        self.inp = work / "inp"
        self.out = work / "out"
        self.corpus = self.inp / "corpus.jsonl"
        self.units = self.out / "units.jsonl"
        self.graphs = self.out / "graphs"
        self.summaries = self.inp / "dumps" if external else self.out / "gen"
        self.report = self.out / "report"
        self.svg = self.out / "posbias.svg"

    def stage_argv(self, workload, seed: int, model_flags: list[str]) -> list[list]:
        argv = {
            "preprocess": ["preprocess", "--corpus", self.corpus, "--out", self.units,
                           "--mode", workload.mode],
            "graph": ["graph", "--unitized", self.units, "--out", self.graphs, "--tau", "0.0"],
            "generate": ["generate", "--unitized", self.units, "--graphs", self.graphs,
                         "--out", self.summaries, "--seed", str(seed), "--workers", "1",
                         *model_flags, *workload.generate_flags],
            "analyze": ["analyze", "--awd", self.summaries, "--summaries", self.summaries,
                        "--unitized", self.units, "--out", self.report],
            "heatmap": ["heatmap", "--report", self.report / "report.json", "--out", self.svg],
        }
        return [[stage, [str(a) for a in argv[stage]]] for stage in workload.stages]

    def stage_files(self, stage: str, set_id: str) -> list[Path]:
        if stage == "graph":
            return [self.graphs / f"{set_id}.graph.json"]
        if stage == "generate":
            return [self.summaries / f"{set_id}.summary.json", self.summaries / f"{set_id}.awd",
                    self.summaries / "vocab.json"]
        if stage == "analyze":
            return [self.report / "report.json", self.report / "report.csv"]
        if stage == "heatmap":
            return [self.svg]
        raise ValueError(stage)


def digests(layout: Layout, stages, set_ids: list[str]) -> dict[tuple[str, str], str | None]:
    """Content hash of every set-stage operation's outputs; None if missing."""
    out: dict[tuple[str, str], str | None] = {}
    for stage in stages:
        if stage == "preprocess":
            lines = layout.units.read_bytes().splitlines() if layout.units.exists() else []
            for i, sid in enumerate(set_ids):
                out[stage, sid] = hashlib.sha256(lines[i]).hexdigest() if i < len(lines) else None
            continue
        cache: dict[Path, str | None] = {}
        for sid in set_ids:
            h = hashlib.sha256()
            for path in layout.stage_files(stage, sid):
                if path not in cache:
                    cache[path] = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None
                if cache[path] is None:
                    h = None
                    break
                h.update(cache[path].encode())
            out[stage, sid] = None if h is None else h.hexdigest()
    return out


def read_awd_file(path: Path) -> np.ndarray:
    data = path.read_bytes()
    if data[:4] != b"AWD1":
        raise ValueError(f"{path.name}: bad magic")
    dims = struct.unpack("<5I", data[4:24])
    return np.frombuffer(data, dtype="<f4", offset=24).reshape(dims)


def _coefficients(report: dict):
    for row in report["layers"] + report["heads"] + report["per_summary"]:
        yield from (row[v] for v in ("r1", "r2", "rl"))
    for entry in report["head_matrix"]:
        yield from (v for row in entry["matrix"] for v in row)
    yield from (v for row in report["layer_matrix"] for v in row)


def collect(layout: Layout, stages, set_ids: list[str], expect_L: int, expect_T: int):
    """Check the invariants of one pass's outputs.

    Returns ``(failures, view)``: failures maps each failed set-stage
    operation to its reasons, and view holds what the reference check
    and the degeneracy line compare (summaries, report, sentence counts).
    """
    failures: dict[tuple[str, str], list[str]] = {}

    def fail(stage, sids, reason):
        for sid in sids:
            failures.setdefault((stage, sid), []).append(reason)

    view: dict = {"summaries": {}, "sentences": {}, "report": None, "no_eos": 0, "no_eoss": 0}
    real_units: dict[str, int] = {}
    records = [json.loads(line) for line in layout.units.read_text().splitlines()] \
        if layout.units.exists() else []
    if [r["set_id"] for r in records] != set_ids:
        fail("preprocess", set_ids, "unitized set ids differ from the corpus")
    for r in records:
        if r["L"] != expect_L or r["T"] != expect_T or len(r["units"]) > expect_L \
                or any(len(u["tokens"]) > expect_T for u in r["units"]):
            fail("preprocess", [r["set_id"]], "unit grid outside L x T")
        real_units[r["set_id"]] = len(r["units"])

    if "graph" in stages:
        for sid in set_ids:
            path = layout.graphs / f"{sid}.graph.json"
            if not path.exists():
                fail("graph", [sid], "missing graph")
                continue
            g = np.array(json.loads(path.read_text())["weights"], dtype=np.float64)
            diag = np.diagonal(g)
            if not (np.array_equal(g, g.T) and np.all((g >= 0) & (g <= 1))
                    and np.all((diag == 0) | (diag == 1))
                    and int(diag.sum()) == real_units.get(sid, -1)):
                fail("graph", [sid], "graph not symmetric in [0, 1] with a 0/1 diagonal")

    producer = "generate" if "generate" in stages else "analyze"
    vocab_file = layout.summaries / "vocab.json"
    vocab = json.loads(vocab_file.read_text()) if vocab_file.exists() else []
    eos = vocab.index(EOS) if EOS in vocab else None
    eoss = vocab.index(EOSS) if EOSS in vocab else None
    if eoss is None:
        fail(producer, set_ids, "vocabulary lacks the sentence marker")
    for sid in set_ids:
        spath = layout.summaries / f"{sid}.summary.json"
        apath = layout.summaries / f"{sid}.awd"
        if not (spath.exists() and apath.exists()):
            fail(producer, [sid], "missing summary or tensor")
            continue
        try:
            summary = json.loads(spath.read_text())
            values = read_awd_file(apath)
            tokens, trace, winner = summary["tokens"], summary["beam_trace"], summary["winning_beam"]
        except (ValueError, KeyError, TypeError) as exc:
            fail(producer, [sid], f"unreadable summary or tensor: {exc}")
            continue
        beams, steps, _, _, units = values.shape
        if not (len(trace) == steps and all(len(row) == beams for row in trace)
                and all(0 <= p < beams for row in trace for p in row)
                and 0 <= winner < beams and len(tokens) <= steps
                and all(0 <= t < len(vocab) for t in tokens)):
            fail(producer, [sid], "beam trace inconsistent with tensor")
        real = real_units.get(sid, units)
        sums = values.sum(axis=-1, dtype=np.float64)
        if not (units == expect_L and np.all(values >= 0) and not values[..., real:].any()
                and np.all(np.abs(sums - 1.0) <= SIMPLEX_TOLERANCE)):
            fail(producer, [sid], "attention slice off the simplex")
        view["summaries"][sid] = {"tokens": tokens, "beam_trace": trace, "winning_beam": winner}
        ends = sum(1 for t in tokens if t == eoss)
        view["sentences"][sid] = ends + (1 if tokens and tokens[-1] != eoss else 0)
        view["no_eos"] += eos not in tokens
        view["no_eoss"] += ends == 0

    rpath = layout.report / "report.json"
    try:
        report = json.loads(rpath.read_text())
        coeffs = list(_coefficients(report))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        fail("analyze", set_ids, f"unreadable report: {exc}")
    else:
        view["report"] = report
        if not all(c is None or -1.0 <= c <= 1.0 for c in coeffs):
            fail("analyze", set_ids, "coefficient outside [-1, 1]")
        counts = np.array(report.get("posbias", {}).get("counts", []), dtype=np.int64)
        if counts.sum() != sum(view["sentences"].values()) or (counts < 0).any():
            fail("analyze", set_ids, "posbias counts do not tally the sentences")
        cells = sum(view["sentences"].get(sid, 0) * real_units.get(sid, 0) for sid in set_ids)
        if report["sample_count"] != cells:
            fail("analyze", set_ids, "sample_count differs from sentences x units")
    if "heatmap" in stages:
        svg = layout.svg.read_text() if layout.svg.exists() else ""
        grid = (view["report"] or {}).get("posbias", {}).get("counts", [])
        # one background rectangle plus one per posbias cell
        if not (svg.rstrip().endswith("</svg>")
                and svg.count("<rect ") == 1 + sum(len(row) for row in grid)):
            fail("heatmap", set_ids, "heatmap is not an SVG of the posbias grid")
    return failures, view


def reference_record(view: dict) -> dict:
    report = view["report"]
    return {
        "coefficient_tolerance": COEFF_TOLERANCE,
        "summaries": view["summaries"],
        "report": {k: report[k] for k in
                   ("layers", "heads", "head_matrix", "layer_matrix", "per_summary",
                    "sample_count")},
        "posbias_counts": report["posbias"]["counts"],
    }


def _close(a, b, tol) -> bool:
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k], tol) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_close(x, y, tol) for x, y in zip(a, b))
    if isinstance(a, float) or isinstance(b, float):
        return a is not None and b is not None and abs(a - b) <= tol
    return a == b


def compare_reference(view: dict, ref: dict, stages, set_ids):
    """Set-stage operations whose outputs differ from the recorded reference."""
    failures: dict[tuple[str, str], list[str]] = {}
    producer = "generate" if "generate" in stages else "analyze"
    for sid in set_ids:
        if view["summaries"].get(sid) != ref["summaries"].get(sid):
            failures[producer, sid] = ["summary differs from the reference"]
    report = view["report"] or {}
    if not _close({k: report.get(k) for k in ref["report"]}, ref["report"],
                  ref["coefficient_tolerance"]) \
            or report.get("posbias", {}).get("counts") != ref["posbias_counts"]:
        for sid in set_ids:
            failures["analyze", sid] = ["report differs from the reference"]
    return failures
