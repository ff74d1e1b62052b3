"""Source-origin reference metric and its correlation with attention.

For every generated sentence and every input unit, the reference metric
holds the mean ROUGE-1/2/L of the sentence against the unit's own
sentences. ``reference_metrics`` scores many sets in one grouped ROUGE
call, which the kernel runs in chunks of consecutive sets, and sums each
unit's sentence scores in sentence order; ``reference_metric`` is its
one-set call. A gold summary is a set too: the summary's words as one
sentence against one unit of one sentence, the gold tokens. Pooled
Pearson coefficients relate those scores to the sentence-aggregated
attention weights per decoding layer and head; head-to-head and
layer-to-layer correlation matrices and a positional-bias heatmap
complete the report.

Every coefficient comes from one pass over the batch. Each summary's
(sentence, non-pad unit) cells become the rows of one column array: the
F1 of each ROUGE variant, the head-averaged attention of each layer,
then every (layer, head). A ``PearsonAccumulator`` holds the array's
centered co-moment matrix; per-summary accumulators give the
per-summary diagnostics and merge exactly into the pooled one (Chan,
Golub & LeVeque 1979), so summaries could be processed concurrently and
merged deterministically. Coefficients have one reader,
``_coefficients``: each report table is one call on the co-moments of
all columns, and the variant and layer choices only pick the printed
cells. Fewer than two cells have all-zero co-moments, so they read
``null`` by the zero-moment rule. ``PearsonAccumulator.result`` is one
cell, and ``pearson`` is one accumulator update and ``result`` on its
inputs scaled by powers of two. Coefficients match a direct computation
on concatenated vectors to within 1e-12, not bit for bit, since the
summation order differs. Non-finite attention or metric values are
rejected, never correlated.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .awd import SentenceAwd
# rouge_triple is not called here; the benchmark tracer patches it on this module by name.
from .rouge import grouped_rouge_counts, rouge_triple, scores_from_counts  # noqa: F401
from .textunits import UnitizedInput, split_sentences, tokenize

VARIANTS = ("r1", "r2", "rl")
F1 = 2  # index of F1 in the last axis of OriginMetric.values


class MissingDocBoundariesError(ValueError):
    """Raised when positional bias is requested without document boundaries."""


@dataclass
class OriginMetric:
    """Mean ROUGE per (generated sentence, input unit) cell.

    ``values`` has shape (S, L, 3, 3): generated sentence, unit, ROUGE
    variant in ``VARIANTS`` order, then precision/recall/F1. Pad-unit
    columns hold zeros.
    """

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 4 or self.values.shape[2:] != (len(VARIANTS), 3):
            raise ValueError(f"metric values must be (S, L, 3, 3), got {self.values.shape}")

    @property
    def num_sentences(self) -> int:
        return self.values.shape[0]

    @property
    def num_units(self) -> int:
        return self.values.shape[1]

    def f1_matrix(self, variant: str) -> np.ndarray:
        """F1 scores of one ROUGE variant as an (S, L) array."""
        if variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        return self.values[:, :, VARIANTS.index(variant), F1]


def unit_sentences(inp: UnitizedInput) -> list[list[list[str]]]:
    """Each unit's sentences as token lists; a pad unit has none."""
    if inp.num_real_units < 1:
        raise ValueError("input has no non-pad units")
    return [
        [] if unit.is_pad else [tokenize(s) for s in split_sentences(unit.original_text)]
        for unit in inp.units
    ]


def reference_metrics(
    summaries: list[list[list[str]]], units: list[list[list[list[str]]]]
) -> list[OriginMetric]:
    """Reference metrics of many sets from one ``grouped_rouge_counts`` call.

    Set i pairs the generated sentences ``summaries[i]`` with its
    ``units[i]`` from ``unit_sentences``, and gives one ``OriginMetric``.
    A summary's ROUGE against a gold summary is the one-sentence set
    ``[words]`` against the one unit ``[[gold]]``, read at cell
    ``[0, 0]``. One ``scores_from_counts`` covers every pair, and one
    ``np.bincount`` sums each unit's sentence scores in sentence order,
    so each value is bit-identical to scoring its cell on its own.
    """
    ref_counts = [[len(refs) for refs in set_units] for set_units in units]
    groups = np.arange(len(summaries))
    counts = grouped_rouge_counts(
        [s for sentences in summaries for s in sentences],
        [ref for set_units in units for refs in set_units for ref in refs],
        np.repeat(groups, [len(s) for s in summaries]),
        np.repeat(groups, [sum(n) for n in ref_counts]),
    )
    # Pairs go set, sentence, unit, unit sentence, so each (sentence, unit)
    # cell owns the next run of pairs, one per sentence of its unit.
    per_cell = [k for sentences, n in zip(summaries, ref_counts) for _ in sentences for k in n]
    cell = np.repeat(np.arange(len(per_cell)), per_cell)
    width = len(VARIANTS) * 3
    sums = np.bincount((cell[:, None] * width + np.arange(width)).ravel(),
                       scores_from_counts(counts).ravel(), minlength=len(per_cell) * width)
    metrics, start = [], 0
    for sentences, n in zip(summaries, ref_counts):
        end = start + len(sentences) * len(n) * width
        per_unit = np.maximum(np.array(n, dtype=np.float64), 1.0)
        values = sums[start:end].reshape(len(sentences), len(n), len(VARIANTS), 3)
        metrics.append(OriginMetric(values=values / per_unit[:, None, None]))
        start = end
    return metrics


def reference_metric(
    summary_sentences: list[list[str]], inp: UnitizedInput
) -> OriginMetric:
    """Mean ROUGE of each generated sentence against each unit's sentences.

    Every non-pad unit is split into sentences; a cell averages the
    ROUGE scores of the generated sentence against all of them,
    componentwise per variant. This is ``reference_metrics`` for one set.
    Zero generated sentences give an empty metric.
    """
    return reference_metrics([summary_sentences], [unit_sentences(inp)])[0]


# ---------------------------------------------------------------------------
# Pearson correlation
# ---------------------------------------------------------------------------

def _coefficients(comoment: np.ndarray, i, j) -> list:
    """Pearson coefficients of columns i and j for every broadcast pair of index
    arrays, read from an (..., k, k) co-moment array, as nested lists.

    A zero second moment reads None. Otherwise the coefficient is
    ``sxy / sqrt(sxx * syy)`` clamped to [-1, 1], or ``sxy / sqrt(sxx) / sqrt(syy)``
    where that product leaves the normal range while each moment is normal and
    finite. Any other cell has lost its coefficient to overflowed or subnormal
    sums: the first such cell in row-major order raises ValueError.
    """
    i, j = np.broadcast_arrays(i, j)
    sxy, sxx, syy = comoment[..., i, j], comoment[..., i, i], comoment[..., j, j]
    tiny = sys.float_info.min
    finite = np.isfinite(sxy) & np.isfinite(sxx) & np.isfinite(syy)
    undefined = (sxx == 0.0) | (syy == 0.0)
    with np.errstate(all="ignore"):
        prod = sxx * syy
        r = sxy / np.sqrt(prod)
    fast = (prod >= tiny) & (prod < math.inf) & np.isfinite(sxy)
    split = ~(fast | undefined) & finite & (np.minimum(sxx, syy) >= tiny)
    lost = ~(fast | split | undefined)
    if lost.any():
        k = np.argmax(lost)  # flat index of the first lost cell
        raise ValueError(f"Pearson sums {'underflow' if finite.flat[k] else 'overflow'} float64")
    r[split] = sxy[split] / np.sqrt(sxx[split]) / np.sqrt(syy[split])
    out = np.minimum(1.0, np.maximum(-1.0, r)).astype(object)
    out[undefined] = None
    return out.tolist()


def _check_spread(comoment: np.ndarray, varies: np.ndarray) -> None:
    """Reject a varying column whose sum of squared deviations underflowed
    to zero, which would read as constant."""
    if (np.diagonal(comoment)[varies] == 0.0).any():
        raise ValueError("Pearson sums underflow float64")


def _unit_scaled(v: np.ndarray) -> np.ndarray:
    """``v`` times the power of two that brings its largest magnitude into [0.5, 1)."""
    return np.ldexp(v, -np.frexp(np.abs(v).max())[1])


def pearson(x, y) -> float | None:
    """Sample Pearson coefficient, or None when either side is constant.

    The coefficient is scale-free, so each side is first scaled by a power
    of two (``_unit_scaled``); the accumulator's sums of finite scaled inputs
    can neither overflow nor underflow.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError(f"length mismatch: {x.shape} vs {y.shape}")
    if x.size < 2:
        raise ValueError(f"need at least 2 samples, got {x.size}")
    acc = PearsonAccumulator()
    acc.update(_unit_scaled(x), _unit_scaled(y))
    return acc.result()


@dataclass
class PearsonAccumulator:
    """Mergeable running co-moments of k columns for streaming Pearson
    coefficients.

    ``update(x, y)`` adds paired samples of two columns; ``update(cols)``
    adds the rows of an (n, k) array. Welford-style centered moments keep
    a constant column's second moment at exactly zero, and merging
    partial accumulators in any grouping reproduces the single-pass
    result up to rounding.
    """

    count: int = 0
    mean: np.ndarray | None = None  # (k,)
    comoment: np.ndarray | None = None  # (k, k) centered sums of products

    def update(self, x, y=None) -> None:
        if y is None:
            cols = np.asarray(x, dtype=np.float64)
            if cols.ndim != 2:
                raise ValueError(f"expected an (n, k) column array, got shape {cols.shape}")
        else:
            x = np.asarray(x, dtype=np.float64).ravel()
            y = np.asarray(y, dtype=np.float64).ravel()
            if x.size != y.size:
                raise ValueError(f"length mismatch: {x.size} vs {y.size}")
            cols = np.column_stack([x, y])
        if not np.isfinite(cols).all():
            raise ValueError("non-finite input to Pearson accumulator")
        if cols.shape[0] == 0:
            return
        # Constant columns must yield an exactly-zero second moment so their
        # coefficients are flagged undefined; a computed mean of identical
        # values is not always exact, so pin it to the shared value.
        first = cols[0]
        varies = (cols != first).any(axis=0)
        with np.errstate(over="ignore", invalid="ignore"):  # result() rejects overflowed sums
            mean = np.where(varies, cols.mean(axis=0), first)
            centered = cols - mean
            comoment = centered.T @ centered
        _check_spread(comoment, varies)
        self.merge(PearsonAccumulator(count=cols.shape[0], mean=mean, comoment=comoment))

    def merge(self, other: "PearsonAccumulator") -> None:
        if other.count == 0:
            return
        if self.count == 0:
            self.count, self.mean, self.comoment = other.count, other.mean, other.comoment
            return
        if other.mean.shape != self.mean.shape:
            raise ValueError(f"column count mismatch: {self.mean.size} vs {other.mean.size}")
        # never in place: merged arrays may be shared with ``other``
        n = self.count + other.count
        w = self.count * other.count / n
        with np.errstate(over="ignore", invalid="ignore"):  # result() rejects overflowed sums
            delta = other.mean - self.mean
            self.comoment = self.comoment + (other.comoment + np.outer(delta, delta) * w)
            self.mean = self.mean + delta * other.count / n
        self.count = n
        _check_spread(self.comoment, delta != 0.0)

    def result(self, i: int = 0, j: int = 1) -> float | None:
        """Coefficient between columns i and j over everything seen; None
        when undefined. Raises ValueError when the sums overflowed or
        underflowed."""
        if self.count == 0:
            return None
        return _coefficients(self.comoment, [i], [j])[0]


# ---------------------------------------------------------------------------
# Batch correlation
# ---------------------------------------------------------------------------

@dataclass
class SummaryAnalysis:
    """Per-summary bundle: attention, reference metric, and unit layout."""

    set_id: str
    sent_awd: SentenceAwd
    origin: OriginMetric
    unit_pad: np.ndarray  # (L,) bool
    doc_positions: np.ndarray | None  # (L,) int within-document unit position, >= 0 if not pad

    def __post_init__(self):
        self.unit_pad = np.asarray(self.unit_pad, dtype=bool)
        s, dl, mh, L = self.sent_awd.dims
        if self.origin.num_sentences != s:
            raise ValueError(
                f"set {self.set_id!r}: {self.origin.num_sentences} metric rows "
                f"vs {s} attention sentences"
            )
        if s and self.origin.num_units != L:
            raise ValueError(
                f"set {self.set_id!r}: {self.origin.num_units} metric columns "
                f"vs {L} attention units"
            )
        if self.unit_pad.shape != (L,):
            raise ValueError(f"set {self.set_id!r}: unit_pad shape {self.unit_pad.shape}")
        if self.doc_positions is not None:
            positions = self.doc_positions = np.asarray(self.doc_positions)
            if positions.dtype.kind not in "iu" or positions.shape != (L,):
                raise ValueError(f"set {self.set_id!r}: doc_positions must be {L} integers, "
                                 f"got {positions.dtype} {positions.shape}")
            unplaced = np.flatnonzero((positions < 0) & ~self.unit_pad)
            if unplaced.size:
                raise ValueError(f"set {self.set_id!r}: non-pad unit {unplaced[0]} has "
                                 f"doc position {positions[unplaced[0]]}")
        for name, values in (("attention", self.sent_awd.values), ("metric", self.origin.values)):
            if not np.isfinite(values).all():
                raise ValueError(f"set {self.set_id!r}: non-finite {name} values")


def doc_positions_from_boundaries(
    doc_boundaries: dict[int, int] | None, L: int
) -> np.ndarray | None:
    """Within-document position of each unit slot: each document's units
    count 0, 1, 2, ... in unit order, other slots -1; None when unavailable."""
    if doc_boundaries is None:
        return None
    positions = np.full(L, -1, dtype=np.int64)
    seen: dict[int, int] = {}
    for idx in sorted(doc_boundaries):
        doc = doc_boundaries[idx]
        positions[idx] = seen[doc] = seen.get(doc, -1) + 1
    return positions


def correlate_awd_origin(
    batch: list[SummaryAnalysis], variant: str
) -> tuple[list[float | None], list[list[float | None]]]:
    """Pooled Pearson between attention and the reference metric.

    Cells (sentence, non-pad unit) from every summary are pooled.
    Returns per-layer coefficients (heads averaged first) and
    per-(layer, head) coefficients.
    """
    report = build_report(batch, variants=(variant,))
    mh = batch[0].sent_awd.dims[2]
    heads = [row[variant] for row in report.per_head]
    return [row[variant] for row in report.per_layer], [
        heads[i : i + mh] for i in range(0, len(heads), mh)
    ]


def summary_correlations(batch: list[SummaryAnalysis], variant: str) -> list[list[float | None]]:
    """Per-summary, per-layer coefficients (heads averaged); diagnostics
    alongside the pooled estimator."""
    report = build_report(batch, variants=(variant,))
    dl = len(report.per_layer)
    rows = [row[variant] for row in report.per_summary]
    return [rows[i : i + dl] for i in range(0, len(rows), dl)]


def head_correlations(batch: list[SummaryAnalysis], layer: int) -> list[list[float | None]]:
    """Pairwise Pearson between the heads of one layer, over batch cells."""
    return build_report(batch, layers=[layer]).head_matrix[0]["matrix"]


def layer_correlations(batch: list[SummaryAnalysis]) -> list[list[float | None]]:
    """Pairwise Pearson between head-averaged layers, over batch cells."""
    return build_report(batch).layer_matrix


def argmax_paragraph(sent_awd: SentenceAwd, layer: int) -> np.ndarray:
    """Per-sentence index of the strongest head-averaged unit; ties pick
    the lowest index."""
    s, dl, _, _ = sent_awd.dims
    if not 0 <= layer < dl:
        raise ValueError(f"layer {layer} outside [0, {dl})")
    if s == 0:
        return np.empty(0, dtype=np.int64)
    return np.argmax(sent_awd.values[:, layer].mean(axis=1), axis=-1)


@dataclass
class PosBiasHeatmap:
    """Within-document positions of the most-attended unit per sentence.

    Rows index the unit position inside its document, columns index the
    generated-sentence position; ``normalized`` divides each column by
    its tally so columns with any mass sum to one.
    """

    counts: np.ndarray  # (rows, cols) int64
    normalized: np.ndarray  # (rows, cols) float64


def positional_bias(batch: list[SummaryAnalysis], layer: int) -> PosBiasHeatmap:
    """Tally the most-attended unit's within-document position per sentence;
    a sentence whose strongest unit is a pad unit raises ValueError."""
    if not batch:
        raise ValueError("empty batch")
    rows, cols, max_pos = [], [], 0
    for analysis in batch:
        if analysis.doc_positions is None:
            raise MissingDocBoundariesError(
                f"set {analysis.set_id!r} lacks document boundaries; "
                "positional bias needs unit-to-document correspondence"
            )
        picks = argmax_paragraph(analysis.sent_awd, layer)
        on_pad = np.flatnonzero(analysis.unit_pad[picks])
        if on_pad.size:
            raise ValueError(f"set {analysis.set_id!r}: sentence {on_pad[0]} attends most "
                             f"to pad unit {picks[on_pad[0]]} in layer {layer + 1}")
        max_pos = max(max_pos, int(analysis.doc_positions[~analysis.unit_pad].max(initial=0)))
        rows.append(analysis.doc_positions[picks])
        cols.append(np.arange(picks.size))
    counts = np.zeros((max_pos + 1, max(c.size for c in cols)), dtype=np.int64)
    np.add.at(counts, (np.concatenate(rows), np.concatenate(cols)), 1)
    totals = counts.sum(axis=0, keepdims=True)
    normalized = counts / np.where(totals > 0, totals, 1)
    return PosBiasHeatmap(counts=counts, normalized=normalized)


# ---------------------------------------------------------------------------
# Correlation report
# ---------------------------------------------------------------------------

@dataclass
class CorrelationReport:
    """Everything the analyze step reports; layers are 1-based here."""

    per_layer: list[dict]  # {"layer", "r1", "r2", "rl"}
    per_head: list[dict]  # {"layer", "head", "r1", "r2", "rl"}
    head_matrix: list[dict]  # {"layer", "matrix"}
    layer_matrix: list[list[float | None]]
    sample_count: int
    posbias: PosBiasHeatmap | None = None
    per_summary: list[dict] = field(default_factory=list)  # {"set_id", "layer", variants...}


def _cell_columns(analysis: SummaryAnalysis) -> np.ndarray:
    """One row per (sentence, non-pad unit) cell: the F1 of each variant,
    each layer's head-averaged attention, then each (layer, head) with
    heads varying fastest."""
    keep = ~analysis.unit_pad
    awd = analysis.sent_awd.values[..., keep]
    s, dl, mh, n = awd.shape
    return np.concatenate(
        [
            analysis.origin.values[..., F1][:, keep].reshape(s * n, len(VARIANTS)),
            awd.mean(axis=2).transpose(0, 2, 1).reshape(s * n, dl),
            awd.transpose(0, 3, 1, 2).reshape(s * n, dl * mh),
        ],
        axis=1,
    )


def build_report(
    batch: list[SummaryAnalysis],
    variants: tuple[str, ...] = VARIANTS,
    layers: list[int] | None = None,
    posbias_layer: int | None = None,
) -> CorrelationReport:
    """Assemble the full correlation report for a batch of summaries.

    One pass accumulates each summary's cell co-moments and merges them
    into the pooled accumulator; every coefficient is read from those.
    ``variants`` and ``layers`` (0-based) only pick the printed cells, and
    an unpicked variant reads None; fewer than two cells read None by the
    zero-moment rule. ``posbias_layer`` picks the layer for the heatmap
    (default: the last selected layer).
    The heatmap is built exactly when every summary has document
    boundaries.
    """
    if not batch:
        raise ValueError("empty batch")
    _, dl, mh, _ = batch[0].sent_awd.dims
    selected = list(range(dl)) if layers is None else sorted(set(layers))
    if not selected:
        raise ValueError("no layers selected")
    for layer in selected:
        if not 0 <= layer < dl:
            raise ValueError(f"layer {layer} outside [0, {dl})")
    for variant in variants:
        if variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")

    # column indices in _cell_columns order
    metric_col = np.arange(len(VARIANTS))
    layer_col = len(VARIANTS) + np.arange(dl)
    head_col = len(VARIANTS) + dl + np.arange(dl * mh).reshape(dl, mh)
    sel = np.array(selected)
    k = len(VARIANTS) + dl  # each summary keeps its metric and layer columns' leading block
    summary_moments = np.zeros((len(batch), k, k))

    pooled = PearsonAccumulator()
    for i, analysis in enumerate(batch):
        s, set_dl, set_mh, _ = analysis.sent_awd.dims
        if (set_dl, set_mh) != (dl, mh):
            raise ValueError(
                f"set {analysis.set_id!r}: {set_dl} layers x {set_mh} heads, "
                f"expected {dl} x {mh}"
            )
        acc = PearsonAccumulator()
        if s:
            acc.update(_cell_columns(analysis))
        pooled.merge(acc)
        if acc.count:
            summary_moments[i] = acc.comoment[:k, :k]
    if pooled.count == 0:
        raise ValueError("no usable cells in batch")

    def by_variant(row: list) -> dict:
        return {v: r if v in variants else None for v, r in zip(VARIANTS, row)}

    posbias = None
    if all(a.doc_positions is not None for a in batch):
        posbias = positional_bias(batch, selected[-1] if posbias_layer is None else posbias_layer)

    per_layer = _coefficients(pooled.comoment, metric_col, layer_col[sel][:, None])
    per_head = _coefficients(pooled.comoment, metric_col, head_col[sel].reshape(-1, 1))
    head_matrix = _coefficients(pooled.comoment, head_col[sel][:, :, None], head_col[sel][:, None])
    layer_matrix = _coefficients(pooled.comoment, layer_col[:, None], layer_col)
    per_summary = _coefficients(summary_moments, metric_col, layer_col[sel][:, None])

    return CorrelationReport(
        per_layer=[{"layer": layer + 1, **by_variant(row)}
                   for layer, row in zip(selected, per_layer)],
        per_head=[{"layer": layer + 1, "head": head, **by_variant(per_head[i * mh + head])}
                  for i, layer in enumerate(selected) for head in range(mh)],
        head_matrix=[{"layer": layer + 1, "matrix": matrix}
                     for layer, matrix in zip(selected, head_matrix)],
        layer_matrix=layer_matrix,
        sample_count=pooled.count,
        posbias=posbias,
        per_summary=[{"set_id": a.set_id, "layer": layer + 1, **by_variant(row)}
                     for a, rows in zip(batch, per_summary)
                     for layer, row in zip(selected, rows)],
    )
