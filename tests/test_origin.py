"""Tests for the reference metric, Pearson machinery, and bias reports."""

import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import attnorigin as ao
from attnorigin.awd import SentenceAwd
from attnorigin.origin import (
    MissingDocBoundariesError,
    PearsonAccumulator,
    SummaryAnalysis,
    _coefficients,
    doc_positions_from_boundaries,
    reference_metrics,
    unit_sentences,
)
from attnorigin.rouge import rouge_counts, scores_from_counts
from conftest import make_docset
from test_rouge import dp_lcs_length, oracle_clipped_ngram_counts, scalar_scores


def metric_from_matrix(matrix):
    """Every variant's precision, recall and F1 equal to the matrix entry."""
    f1 = np.asarray(matrix, dtype=np.float64).reshape(len(matrix), -1 if len(matrix) else 0)
    return ao.OriginMetric(values=np.tile(f1[:, :, None, None], (1, 1, 3, 3)))


def make_analysis(set_id, awd_values, r_matrix, pad=None, boundaries=None):
    values = np.asarray(awd_values, dtype=np.float64)
    L = values.shape[-1]
    pad = np.zeros(L, dtype=bool) if pad is None else np.asarray(pad, dtype=bool)
    positions = doc_positions_from_boundaries(boundaries, L) if boundaries else None
    return SummaryAnalysis(
        set_id=set_id,
        sent_awd=SentenceAwd(values=values),
        origin=metric_from_matrix(r_matrix),
        unit_pad=pad,
        doc_positions=positions,
    )


# ---------------------------------------------------------------------------
# reference_metric
# ---------------------------------------------------------------------------

def para_input(paragraphs, L=4, T=16):
    return ao.unitize(make_docset("s", [paragraphs]), "paragraph", L, T)


def test_reference_identical_sentence_scores_one():
    inp = para_input(["the cat sat on the mat"])
    metric = ao.reference_metric([ao.tokenize("the cat sat on the mat")], inp)
    assert metric.values[0, 0, :, 2].tolist() == [1.0, 1.0, 1.0]


def test_reference_disjoint_paragraph_scores_zero():
    inp = para_input(["entirely different words here"])
    metric = ao.reference_metric([["zebra", "quilt"]], inp)
    assert metric.values[0, 0, :, 2].tolist() == [0.0, 0.0, 0.0]


def test_reference_two_sentence_paragraph_averages():
    # sentence 1 is disjoint (0.0); sentence 2 tokens are ["the", "cat"],
    # so the generated sentence scores P=2/3, R=1, F=0.8; the cell is 0.4
    inp = para_input(["Dog bone fetch. The cat"])
    metric = ao.reference_metric([["the", "cat", "sat"]], inp)
    assert abs(metric.f1_matrix("r1")[0, 0] - 0.4) < 1e-12


def test_reference_pad_columns_zero():
    inp = para_input(["alpha beta"], L=3)
    metric = ao.reference_metric([["alpha"]], inp)
    assert metric.f1_matrix("r1")[0, 1] == 0.0
    assert metric.f1_matrix("r1")[0, 2] == 0.0


def test_reference_zero_sentences_empty_metric():
    inp = para_input(["alpha beta"])
    metric = ao.reference_metric([], inp)
    assert metric.num_sentences == 0


def test_reference_rejects_all_pad_input():
    docset = ao.MultiDocSet(set_id="s", documents=[ao.RawDocument("d", "", [])])
    inp = ao.unitize(docset, "paragraph", L=2, T=4)
    with pytest.raises(ValueError, match="non-pad"):
        ao.reference_metric([["x"]], inp)


def cell_loop_reference_metric(summary_sentences, inp):
    """The reference metric cell by cell: each (sentence, unit sentence) pair scored
    from the list-scanning and dynamic-programme oracles, independently of ``rouge``."""
    unit_sentences = [
        [] if unit.is_pad else [ao.tokenize(s) for s in ao.split_sentences(unit.original_text)]
        for unit in inp.units
    ]
    values = np.zeros((len(summary_sentences), len(unit_sentences), 3, 3))
    for i, sentence in enumerate(summary_sentences):
        for j, refs in enumerate(unit_sentences):
            for ref in refs:
                counts = [oracle_clipped_ngram_counts(sentence, ref, 1),
                          oracle_clipped_ngram_counts(sentence, ref, 2),
                          (dp_lcs_length(sentence, ref), len(sentence), len(ref))]
                values[i, j] += [scalar_scores(*row) for row in counts]
    counts = np.array([max(len(refs), 1) for refs in unit_sentences], dtype=np.float64)
    return values / counts[:, None, None]


@pytest.mark.parametrize("mode", ["sentence", "paragraph"])
def test_reference_metric_bit_identical_to_cell_loop(mode):
    """Multi-sentence units, pad columns, repeated tokens and empty generated sentences."""
    rng = np.random.default_rng(47)

    def sentence(max_words):
        words = [f"w{rng.integers(0, 6)}" for _ in range(rng.integers(1, max_words + 1))]
        return " ".join([words[0].upper()] + words[1:]) + "."

    for trial in range(6):
        docs = [[" ".join(sentence(7) for _ in range(rng.integers(1, 4)))
                 for _ in range(rng.integers(1, 4))] for _ in range(2)]
        inp = ao.unitize(make_docset(f"s{trial}", docs), mode, L=20, T=12)
        assert inp.num_real_units < inp.L
        summary = [ao.tokenize(sentence(9)) for _ in range(rng.integers(0, 5))] + [[]]
        got = ao.reference_metric(summary, inp).values
        assert got.tobytes() == cell_loop_reference_metric(summary, inp).tobytes()


@settings(max_examples=40)
@given(sentences=st.lists(st.integers(1, 6), min_size=1, max_size=8),
       summary=st.lists(st.lists(st.integers(0, 5), max_size=8), max_size=5),
       seed=st.integers(0, 2**32 - 1))
def test_reference_metric_sums_many_sentences_per_unit_like_the_cell_loop(
        sentences, summary, seed):
    """Paragraphs of up to six sentences: each cell adds up to six scores,
    in sentence order, to the same bits as the cell loop."""
    rng = np.random.default_rng(seed)

    def sentence():
        return " ".join(f"w{rng.integers(0, 6)}" for _ in range(rng.integers(1, 6))) + "."

    docs = [[" ".join(sentence() for _ in range(n)) for n in sentences]]
    inp = ao.unitize(make_docset("s", docs), "paragraph", L=len(sentences) + 1, T=40)
    summary = [[f"w{i}" for i in words] for words in summary]
    assert np.array_equal(ao.reference_metric(summary, inp).values,
                          cell_loop_reference_metric(summary, inp))


@settings(max_examples=60)
@given(candidate=st.lists(st.sampled_from("abcdef"), max_size=200),
       reference=st.lists(st.sampled_from("abcdef"), max_size=200))
def test_reference_metrics_gold_set_is_its_pair_score(candidate, reference):
    """A one-sentence set against one unit of one sentence, the shape of a gold
    summary, reads its pair's precision, recall and F1 bit for bit."""
    got = reference_metrics([[candidate]], [[[reference]]])[0].values[0, 0]
    expected = scores_from_counts(rouge_counts([candidate], [reference])[0, 0])
    assert got.tobytes() == expected.tobytes()


def test_reference_metrics_one_call_matches_one_call_per_set():
    """A set with pad units, a set with no kept sentences and a gold-shaped set
    in one call give, set by set, what ``reference_metric`` gives."""
    inputs = [para_input(["Alpha beta. Gamma alpha beta", "beta delta"]),
              para_input(["alpha beta gamma"]),
              para_input(["alpha gamma beta beta"], L=1)]
    summaries = [[["alpha", "beta"], ["gamma", "delta"], []], [], [["beta", "alpha", "gamma"]]]
    units = [unit_sentences(inp) for inp in inputs]
    assert units[2] == [[["alpha", "gamma", "beta", "beta"]]]
    metrics = reference_metrics(summaries, units)
    assert len(metrics) == len(inputs)
    for metric, summary, inp in zip(metrics, summaries, inputs):
        expected = ao.reference_metric(summary, inp).values
        assert metric.values.shape == expected.shape
        assert metric.values.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# pearson
# ---------------------------------------------------------------------------

def oracle_pearson(x, y):
    """Direct covariance formula, written independently."""
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(x, y))
    vx = sum((a - mx) ** 2 for a in x)
    vy = sum((b - my) ** 2 for b in y)
    if vx == 0 or vy == 0:
        return None
    return cov / math.sqrt(vx * vy)


def test_pearson_identity_exact():
    assert ao.pearson([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0


def test_pearson_negation_exact():
    assert ao.pearson([1.0, 2.0, 3.0], [-1.0, -2.0, -3.0]) == -1.0


def test_pearson_hand_value():
    assert ao.pearson([1, 2, 3, 4], [1, 3, 2, 4]) == 0.8


def test_pearson_constant_is_undefined():
    assert ao.pearson([2.0, 2.0, 2.0], [1.0, 2.0, 3.0]) is None
    assert ao.pearson([1.0, 2.0, 3.0], [5.0, 5.0, 5.0]) is None


def test_pearson_constant_with_an_inexact_mean_is_undefined_like_the_accumulator():
    # the computed mean of three 0.1s is not 0.1, so unpinned deviations are not zero
    assert np.mean([0.1, 0.1, 0.1]) != 0.1
    acc = ao.PearsonAccumulator()
    acc.update([0.1, 0.1, 0.1], [1.0, 2.0, 3.0])
    assert acc.result() is None
    assert ao.pearson([0.1, 0.1, 0.1], [1.0, 2.0, 3.0]) is None
    assert ao.pearson([1.0, 2.0, 3.0], [0.1, 0.1, 0.1]) is None


def test_pearson_rejects_bad_inputs():
    with pytest.raises(ValueError):
        ao.pearson([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        ao.pearson([1.0], [1.0])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="non-finite input"):
            ao.pearson([1.0, bad, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="non-finite input"):
            ao.pearson([1.0, 2.0, 3.0], [bad, 2.0, 3.0])


def test_pearson_affine_integer_grids_exact_sign():
    # power-of-two lengths and integer values keep every intermediate
    # representable, so affine relations give exactly +/-1
    rng = np.random.default_rng(9)
    for _ in range(100):
        n = int(rng.choice([4, 8, 16, 32]))
        x = rng.integers(0, 21, size=n).astype(np.float64)
        while np.all(x == x[0]):
            x = rng.integers(0, 21, size=n).astype(np.float64)
        a = float(rng.choice([-5, -3, -2, -1, 1, 2, 3, 5]))
        b = float(rng.integers(-10, 11))
        assert ao.pearson(x, a * x + b) == math.copysign(1.0, a)


def test_pearson_matches_oracle_random():
    rng = np.random.default_rng(10)
    for _ in range(200):
        n = int(rng.integers(2, 40))
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        got = ao.pearson(x, y)
        expected = oracle_pearson(list(x), list(y))
        assert got is not None and expected is not None
        assert abs(got - expected) < 1e-9
        assert -1.0 <= got <= 1.0


def test_pearson_affine_invariance():
    rng = np.random.default_rng(11)
    x = rng.normal(size=20)
    y = rng.normal(size=20)
    base = ao.pearson(x, y)
    assert abs(ao.pearson(3.5 * x + 2.0, y) - base) < 1e-12
    assert abs(ao.pearson(-2.0 * x + 1.0, y) + base) < 1e-12


# Finite inputs whose squared deviations overflow, or whose sums of squares
# (or their product) fall below the normal floats.
EXTREME_PAIRS = [
    ([0.0, 1e160], [0.0, 1e160]),
    ([0.0, 1e-160, 0.0], [0.0, 1e-160, 0.0]),
    ([1e-200, 2e-200, 0.0], [1e-200, 0.0, 3e-200]),
    ([0.0, 1e160, 3e159], [1e-160, 0.0, 5e-161]),
    ([1e308, 1.7e308, -1e308], [1.0, 2.0, 3.5]),
]


@pytest.mark.parametrize("x, y", EXTREME_PAIRS)
def test_pearson_of_huge_or_tiny_inputs_is_that_of_the_scaled_inputs(x, y):
    """The coefficient is scale-free, so it is that of each side divided by
    its largest magnitude; no numpy warning is raised on the way."""
    got = ao.pearson(x, y)
    expected = oracle_pearson([a / max(map(abs, x)) for a in x],
                              [b / max(map(abs, y)) for b in y])
    assert got is not None and abs(got - expected) < 1e-12


@pytest.mark.parametrize("x, y", EXTREME_PAIRS)
def test_accumulator_rejects_sums_that_lost_the_coefficient(x, y):
    whole = PearsonAccumulator()
    one_by_one = PearsonAccumulator()
    with pytest.raises(ValueError, match="Pearson sums (overflow|underflow) float64"):
        whole.update(x, y)
        whole.result()
    with pytest.raises(ValueError, match="Pearson sums (overflow|underflow) float64"):
        for a, b in zip(x, y):
            one_by_one.update([a], [b])
        one_by_one.result()


def scalar_coefficient(sxy, sxx, syy):
    """One cell's coefficient from centered sums of products and squares: None
    when a side is constant; raises when overflowed or subnormal sums lost it."""
    if sxx == 0.0 or syy == 0.0:
        return None
    tiny = sys.float_info.min
    if tiny <= sxx * syy < math.inf:
        r = sxy / math.sqrt(sxx * syy)
    elif not (math.isfinite(sxy) and math.isfinite(sxx) and math.isfinite(syy)):
        raise ValueError("Pearson sums overflow float64")
    elif min(sxx, syy) >= tiny:
        r = sxy / math.sqrt(sxx) / math.sqrt(syy)
    else:
        raise ValueError("Pearson sums underflow float64")
    return min(1.0, max(-1.0, r))


def test_report_coefficients_equal_one_coefficient_call_per_cell():
    """The table read gives the scalar formula's value, bit for bit, on every cell:
    ordinary ones, zero second moments, and products of second moments that are
    subnormal or overflow; ``result`` reads the same value for one cell."""
    rng = np.random.default_rng(83)
    spread = np.array([1.0, 0.0, 1e-200, 1e200, 4.0, 3e-160, 2.5e160])
    corr = np.corrcoef(rng.normal(size=(len(spread), 40)))
    comoment = corr * np.outer(np.sqrt(spread), np.sqrt(spread))
    stack = np.stack([comoment, comoment * 0.5, np.zeros_like(comoment)])
    cols = np.arange(len(spread))
    got = _coefficients(stack, cols[:, None], cols)
    expected = [[[scalar_coefficient(*map(float, (m[i, j], m[i, i], m[j, j]))) for j in cols]
                 for i in cols] for m in stack]
    assert got == expected
    assert [type(v) for v in got[0][0]] == [float, type(None)] + [float] * 5
    acc = PearsonAccumulator(count=40, mean=np.zeros(len(spread)), comoment=comoment)
    one_by_one = [[acc.result(i, j) for j in cols] for i in cols]
    assert one_by_one == expected[0]
    assert [type(v) for v in one_by_one[0]] == [float, type(None)] + [float] * 5
    with pytest.raises(ValueError, match="Pearson sums underflow float64"):
        _coefficients(np.array([[1e-310, 0.0], [0.0, 1.0]]), [0], [1])
    with pytest.raises(ValueError, match="Pearson sums overflow float64"):
        _coefficients(np.array([[np.inf, 1.0], [1.0, 1.0]]), [0], [1])
    # the first lost cell in row-major order names the error: cell (0, 1)
    # underflows (subnormal product and moment), cell (2, 1) overflows
    comoment = np.array([[1e-310, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, np.inf]])
    for i, first in (([0, 2], "underflow"), ([2, 0], "overflow")):
        with pytest.raises(ValueError, match=f"Pearson sums {first} float64"):
            _coefficients(comoment, i, [1, 1])
        with pytest.raises(ValueError, match=f"Pearson sums {first} float64"):
            _coefficients(comoment, np.array(i)[:, None], [1, 1, 1])
    # the leading axis of a stack of co-moment tables comes first
    swapped = comoment[[2, 1, 0]][:, [2, 1, 0]]
    with pytest.raises(ValueError, match="Pearson sums underflow float64"):
        _coefficients(np.stack([comoment, swapped]), [0], [1])
    with pytest.raises(ValueError, match="Pearson sums overflow float64"):
        _coefficients(np.stack([swapped, comoment]), [0], [1])


# ---------------------------------------------------------------------------
# PearsonAccumulator
# ---------------------------------------------------------------------------

def test_accumulator_matches_pearson():
    rng = np.random.default_rng(12)
    for _ in range(50):
        n = int(rng.integers(2, 50))
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        acc = PearsonAccumulator()
        acc.update(x, y)
        assert abs(acc.result() - ao.pearson(x, y)) < 1e-12


def test_accumulator_merge_equals_single_pass():
    rng = np.random.default_rng(13)
    x = rng.normal(size=30)
    y = rng.normal(size=30)
    whole = PearsonAccumulator()
    whole.update(x, y)
    merged = PearsonAccumulator()
    for lo, hi in [(0, 7), (7, 8), (8, 20), (20, 30)]:
        part = PearsonAccumulator()
        part.update(x[lo:hi], y[lo:hi])
        merged.merge(part)
    assert merged.count == whole.count
    assert abs(merged.result() - whole.result()) < 1e-12

    # k columns, the last one constant, split and merged in several groupings
    cols = np.column_stack([rng.normal(size=(30, 4)), np.full(30, 1.0 / 3.0)])
    for cuts in ([], [15], [1, 2, 3], [7, 8, 20], list(range(1, 30))):
        bounds = [0, *cuts, 30]
        parts = []
        for lo, hi in zip(bounds, bounds[1:]):
            part = PearsonAccumulator()
            part.update(cols[lo:hi])
            parts.append(part)
        left, right = PearsonAccumulator(), PearsonAccumulator()
        for part in parts[: len(parts) // 2]:
            left.merge(part)
        for part in reversed(parts[len(parts) // 2 :]):
            right.merge(part)
        right.merge(left)
        assert right.count == 30
        assert right.comoment[4, 4] == 0.0
        for i in range(5):
            for j in range(5):
                got = right.result(i, j)
                if 4 in (i, j):
                    assert got is None
                else:
                    assert abs(got - ao.pearson(cols[:, i], cols[:, j])) < 1e-12


def test_accumulator_constant_input_undefined():
    acc = PearsonAccumulator()
    acc.update(np.full(5, 1.0 / 3.0), np.arange(5.0))
    acc.update(np.full(4, 1.0 / 3.0), np.arange(4.0))
    assert acc.comoment[0, 0] == 0.0
    assert acc.result() is None


def test_accumulator_rejects_non_finite_input():
    acc = PearsonAccumulator()
    acc.update([1.0, 2.0], [3.0, 5.0])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            acc.update([1.0, bad], [2.0, 3.0])
        with pytest.raises(ValueError, match="non-finite"):
            acc.update(np.array([[0.0, 1.0], [bad, 2.0]]))
    assert acc.count == 2 and acc.result() == 1.0


def test_accumulator_too_few_samples_undefined():
    acc = PearsonAccumulator()
    acc.update([1.0], [2.0])
    assert acc.result() is None


# ---------------------------------------------------------------------------
# correlate_awd_origin
# ---------------------------------------------------------------------------

def test_correlate_proportional_attention_is_one():
    r = [[0.1, 0.4, 0.2], [0.6, 0.1, 0.3]]
    awd = 0.8 * np.asarray(r)[:, None, None, :] + 0.05
    analysis = make_analysis("s", awd, r)
    per_layer, per_head = ao.correlate_awd_origin([analysis], "r1")
    assert per_layer == [1.0]
    assert per_head == [[1.0]]


def test_correlate_uniform_attention_undefined():
    awd = np.full((2, 2, 2, 3), 1.0 / 3.0)
    r = [[0.1, 0.4, 0.2], [0.6, 0.1, 0.3]]
    analysis = make_analysis("s", awd, r)
    per_layer, per_head = ao.correlate_awd_origin([analysis], "r1")
    assert per_layer == [None, None]
    assert per_head == [[None, None], [None, None]]


def test_correlate_two_summary_fixture_matches_flatten_oracle():
    rng = np.random.default_rng(14)
    batch = []
    flat_x = {(layer, head): [] for layer in range(2) for head in range(3)}
    flat_mean = {layer: [] for layer in range(2)}
    flat_r = []
    for s, sentences in enumerate((2, 3)):
        awd = rng.random((sentences, 2, 3, 4))
        awd /= awd.sum(axis=-1, keepdims=True)
        r = rng.random((sentences, 4))
        pad = np.array([False, False, False, True])
        batch.append(make_analysis(f"s{s}", awd, r.tolist(), pad=pad))
        keep = np.flatnonzero(~pad)
        flat_r.extend(r[:, keep].ravel())
        for layer in range(2):
            head_mean = awd[:, layer].mean(axis=1)  # (sentences, units)
            flat_mean[layer].extend(head_mean[:, keep].ravel())
            for head in range(3):
                flat_x[(layer, head)].extend(awd[:, layer, head][:, keep].ravel())
    per_layer, per_head = ao.correlate_awd_origin(batch, "r1")
    for layer in range(2):
        expected = ao.pearson(flat_mean[layer], flat_r)
        assert abs(per_layer[layer] - expected) < 1e-9
        for head in range(3):
            expected = ao.pearson(flat_x[(layer, head)], flat_r)
            assert abs(per_head[layer][head] - expected) < 1e-9


def test_correlate_rejects_empty():
    with pytest.raises(ValueError):
        ao.correlate_awd_origin([], "r1")
    empty = make_analysis("s", np.empty((0, 1, 1, 2)), [])
    with pytest.raises(ValueError, match="usable"):
        ao.correlate_awd_origin([empty], "r1")


# ---------------------------------------------------------------------------
# head / layer correlation matrices
# ---------------------------------------------------------------------------

def test_head_matrix_identical_heads():
    rng = np.random.default_rng(15)
    base = rng.random((3, 1, 1, 4))
    awd = np.repeat(base, 2, axis=2)  # two identical heads
    analysis = make_analysis("s", awd, rng.random((3, 4)).tolist())
    matrix = ao.head_correlations([analysis], layer=0)
    assert matrix[0][1] == 1.0 and matrix[1][0] == 1.0
    assert matrix[0][0] == 1.0 and matrix[1][1] == 1.0


def test_head_matrix_matches_oracle():
    rng = np.random.default_rng(16)
    awd = rng.random((4, 1, 3, 5))
    analysis = make_analysis("s", awd, rng.random((4, 5)).tolist())
    matrix = ao.head_correlations([analysis], layer=0)
    for i in range(3):
        for j in range(3):
            expected = ao.pearson(awd[:, 0, i, :].ravel(), awd[:, 0, j, :].ravel())
            assert abs(matrix[i][j] - expected) < 1e-9
            assert matrix[i][j] == matrix[j][i]


def test_layer_matrix_symmetric_unit_diagonal():
    rng = np.random.default_rng(17)
    awd = rng.random((3, 4, 2, 5))
    analysis = make_analysis("s", awd, rng.random((3, 5)).tolist())
    matrix = ao.layer_correlations([analysis])
    for i in range(4):
        assert matrix[i][i] == 1.0
        for j in range(4):
            assert matrix[i][j] == matrix[j][i]
            assert matrix[i][j] is None or -1.0 <= matrix[i][j] <= 1.0


# ---------------------------------------------------------------------------
# argmax_paragraph
# ---------------------------------------------------------------------------

def test_argmax_one_hot():
    awd = np.zeros((2, 1, 2, 4))
    awd[0, :, :, 3] = 1.0
    awd[1, :, :, 1] = 1.0
    picks = ao.argmax_paragraph(SentenceAwd(values=awd), layer=0)
    assert picks.tolist() == [3, 1]


def test_argmax_uniform_ties_pick_lowest():
    awd = np.full((2, 1, 1, 4), 0.25)
    picks = ao.argmax_paragraph(SentenceAwd(values=awd), layer=0)
    assert picks.tolist() == [0, 0]


def test_argmax_invariant_under_monotone_transform():
    rng = np.random.default_rng(18)
    awd = rng.random((3, 2, 1, 5))
    sent = SentenceAwd(values=awd)
    base = ao.argmax_paragraph(sent, layer=1)
    transformed = SentenceAwd(values=np.exp(2.0 * awd) + 1.0)
    assert np.array_equal(base, ao.argmax_paragraph(transformed, layer=1))


# ---------------------------------------------------------------------------
# positional_bias
# ---------------------------------------------------------------------------

def one_hot_awd(picks, dl=2, mh=2, L=6):
    awd = np.zeros((len(picks), dl, mh, L))
    for s, p in enumerate(picks):
        awd[s, :, :, p] = 1.0
    return awd


BOUNDS = {0: 0, 1: 0, 2: 0, 3: 1, 4: 1, 5: 1}  # two docs, three units each


def test_posbias_first_paragraph_rows():
    batch = [
        make_analysis("s0", one_hot_awd([0, 3]), np.zeros((2, 6)).tolist(), boundaries=BOUNDS),
        make_analysis("s1", one_hot_awd([3, 0]), np.zeros((2, 6)).tolist(), boundaries=BOUNDS),
    ]
    heatmap = ao.positional_bias(batch, layer=0)
    assert heatmap.normalized[0].tolist() == [1.0, 1.0]
    assert heatmap.counts.sum() == 4


def test_posbias_single_sentence_single_cell():
    batch = [make_analysis("s", one_hot_awd([4]), np.zeros((1, 6)).tolist(), boundaries=BOUNDS)]
    heatmap = ao.positional_bias(batch, layer=1)
    assert heatmap.counts[1, 0] == 1  # unit 4 sits at position 1 of doc 1
    assert heatmap.normalized[1, 0] == 1.0
    assert heatmap.counts.sum() == 1


def test_posbias_hand_tally():
    batch = [
        make_analysis("a", one_hot_awd([0, 4, 5]), np.zeros((3, 6)).tolist(), boundaries=BOUNDS),
        make_analysis("b", one_hot_awd([3, 1]), np.zeros((2, 6)).tolist(), boundaries=BOUNDS),
        make_analysis("c", one_hot_awd([2]), np.zeros((1, 6)).tolist(), boundaries=BOUNDS),
    ]
    heatmap = ao.positional_bias(batch, layer=0)
    # sentence 0 picks: units 0, 3, 2 -> positions 0, 0, 2
    assert heatmap.counts[:, 0].tolist() == [2, 0, 1]
    # sentence 1 picks: units 4, 1 -> positions 1, 1
    assert heatmap.counts[:, 1].tolist() == [0, 2, 0]
    # sentence 2 picks: unit 5 -> position 2
    assert heatmap.counts[:, 2].tolist() == [0, 0, 1]


def test_posbias_columns_sum_to_one():
    rng = np.random.default_rng(19)
    batch = []
    for s in range(4):
        n = int(rng.integers(1, 4))
        picks = rng.integers(0, 6, size=n).tolist()
        batch.append(
            make_analysis(f"s{s}", one_hot_awd(picks), np.zeros((n, 6)).tolist(),
                          boundaries=BOUNDS)
        )
    heatmap = ao.positional_bias(batch, layer=1)
    sums = heatmap.normalized.sum(axis=0)
    for col, total in zip(sums, heatmap.counts.sum(axis=0)):
        if total:
            assert abs(col - 1.0) < 1e-9


def test_posbias_missing_boundaries_rejected():
    batch = [make_analysis("s", one_hot_awd([0]), np.zeros((1, 6)).tolist())]
    with pytest.raises(MissingDocBoundariesError):
        ao.positional_bias(batch, layer=0)


def three_pass_positional_bias(batch, layer):
    """The former tally, kept as the oracle: boundaries checked, then a
    pre-scan for the shape, then one add per sentence."""
    for analysis in batch:
        if analysis.doc_positions is None:
            raise MissingDocBoundariesError(analysis.set_id)
    max_pos = 0
    max_sent = 0
    for analysis in batch:
        real_positions = analysis.doc_positions[~analysis.unit_pad]
        if real_positions.size:
            max_pos = max(max_pos, int(real_positions.max()))
        max_sent = max(max_sent, analysis.sent_awd.dims[0])
    counts = np.zeros((max_pos + 1, max_sent), dtype=np.int64)
    for analysis in batch:
        picks = ao.argmax_paragraph(analysis.sent_awd, layer)
        for sent_idx, unit_idx in enumerate(picks):
            counts[analysis.doc_positions[unit_idx], sent_idx] += 1
    totals = counts.sum(axis=0, keepdims=True)
    normalized = counts / np.where(totals > 0, totals, 1)
    return ao.PosBiasHeatmap(counts=counts, normalized=normalized)


@settings(max_examples=200)
@given(data=st.data())
def test_posbias_matches_the_three_pass_tally(data):
    """Random batches of contiguous documents whose sentences peak on real units."""
    L = data.draw(st.integers(1, 8), label="L")
    dl = data.draw(st.integers(1, 3), label="layers")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    batch = []
    for k in range(data.draw(st.integers(1, 4), label="sets")):
        real = data.draw(st.integers(1, L), label="real units")
        starts = sorted({0} | set(data.draw(st.lists(st.integers(0, real - 1)), label="starts")))
        docs = np.searchsorted(starts, np.arange(real), side="right") - 1
        boundaries = {i: int(doc) for i, doc in enumerate(docs)}
        n = data.draw(st.integers(0, 4), label="sentences")
        awd = np.zeros((n, dl, 2, L))
        awd[..., :real] = rng.random((n, dl, 2, real)) + 0.01
        analysis = make_analysis(f"s{k}", awd, np.zeros((n, L)).tolist(),
                                 pad=np.arange(L) >= real, boundaries=boundaries)
        first = {doc: i for i, doc in reversed(list(enumerate(docs)))}
        assert analysis.doc_positions[:real].tolist() == [i - first[d] for i, d in enumerate(docs)]
        batch.append(analysis)
    layer = data.draw(st.integers(0, dl - 1), label="layer")
    heatmap = ao.positional_bias(batch, layer)
    expected = three_pass_positional_bias(batch, layer)
    assert heatmap.counts.dtype == expected.counts.dtype
    assert np.array_equal(heatmap.counts, expected.counts)
    assert np.array_equal(heatmap.normalized, expected.normalized)


def test_doc_positions_count_each_documents_units_in_order():
    assert doc_positions_from_boundaries({0: 0, 1: 1, 2: 0, 3: 1}, 5).tolist() == [0, 0, 1, 1, -1]


def test_posbias_interleaved_documents():
    bounds = {0: 0, 1: 1, 2: 0, 3: 1, 4: 0, 5: 1}
    batch = [make_analysis("s", one_hot_awd([2, 5, 0]), np.zeros((3, 6)).tolist(),
                           boundaries=bounds)]
    heatmap = ao.positional_bias(batch, layer=0)
    # units 2, 5 and 0 are the second, third and first units of their documents
    assert heatmap.counts.tolist() == [[0, 0, 1], [1, 0, 0], [0, 1, 0]]


def test_posbias_rejects_a_pad_unit_argmax_naming_the_set():
    pad = [False] * 4 + [True] * 2
    bounds = {0: 0, 1: 0, 2: 1, 3: 1}
    batch = [
        make_analysis("ok", one_hot_awd([1]), np.zeros((1, 6)).tolist(), pad=pad,
                      boundaries=bounds),
        make_analysis("bad", one_hot_awd([0, 5]), np.zeros((2, 6)).tolist(), pad=pad,
                      boundaries=bounds),
    ]
    message = "set 'bad': sentence 1 attends most to pad unit 5 in layer 2"
    with pytest.raises(ValueError, match=message):
        ao.positional_bias(batch, layer=1)
    with pytest.raises(ValueError, match=message):
        ao.build_report(batch)


# ---------------------------------------------------------------------------
# build_report
# ---------------------------------------------------------------------------

def test_build_report_structure():
    rng = np.random.default_rng(20)
    awd = rng.random((3, 2, 2, 6))
    awd /= awd.sum(axis=-1, keepdims=True)
    analysis = make_analysis("s", awd, rng.random((3, 6)).tolist(), boundaries=BOUNDS)
    report = ao.build_report([analysis])
    assert [row["layer"] for row in report.per_layer] == [1, 2]
    assert len(report.per_head) == 4
    assert len(report.head_matrix) == 2
    assert len(report.layer_matrix) == 2
    assert report.sample_count == 3 * 6
    assert report.posbias is not None


def test_build_report_layer_filter_and_posbias_layer():
    rng = np.random.default_rng(21)
    awd = rng.random((2, 3, 2, 6))
    awd /= awd.sum(axis=-1, keepdims=True)
    analysis = make_analysis("s", awd, rng.random((2, 6)).tolist(), boundaries=BOUNDS)
    report = ao.build_report([analysis], layers=[0, 2], posbias_layer=0)
    assert [row["layer"] for row in report.per_layer] == [1, 3]
    assert [entry["layer"] for entry in report.head_matrix] == [1, 3]


def test_build_report_rejects_an_empty_layer_selection():
    analysis = make_analysis("s", one_hot_awd([0, 4]), np.eye(2, 6).tolist(), boundaries=BOUNDS)
    with pytest.raises(ValueError, match="no layers selected"):
        ao.build_report([analysis], layers=[])


def test_build_report_skips_posbias_without_boundaries():
    rng = np.random.default_rng(22)
    awd = rng.random((2, 1, 1, 4))
    awd /= awd.sum(axis=-1, keepdims=True)
    analysis = make_analysis("s", awd, rng.random((2, 4)).tolist())
    report = ao.build_report([analysis])
    assert report.posbias is None


def test_summary_correlations_per_set_diagnostics():
    rng = np.random.default_rng(24)
    batch = []
    for s in range(2):
        awd = rng.random((3, 2, 2, 4))
        awd /= awd.sum(axis=-1, keepdims=True)
        batch.append(make_analysis(f"s{s}", awd, rng.random((3, 4)).tolist()))
    rows = ao.summary_correlations(batch, "r1")
    assert len(rows) == 2 and len(rows[0]) == 2
    for s, analysis in enumerate(batch):
        expected, _ = ao.correlate_awd_origin([analysis], "r1")
        for layer in range(2):
            assert abs(rows[s][layer] - expected[layer]) < 1e-12


def test_build_report_includes_per_summary():
    rng = np.random.default_rng(25)
    awd = rng.random((3, 2, 2, 6))
    awd /= awd.sum(axis=-1, keepdims=True)
    analysis = make_analysis("only", awd, rng.random((3, 6)).tolist(), boundaries=BOUNDS)
    report = ao.build_report([analysis])
    assert len(report.per_summary) == 2  # one set x two layers
    assert report.per_summary[0]["set_id"] == "only"
    assert report.per_summary[0]["layer"] == 1


def test_build_report_matches_concatenation_oracle():
    # three sets with pad units: one has no sentences, one has a constant
    # ROUGE-2 column, and head 0 of layer 2 is constant over every cell
    rng = np.random.default_rng(26)
    dl, mh, L = 2, 3, 5
    batch = []
    for s, (sentences, pads) in enumerate([(3, 1), (2, 2), (0, 1)]):
        awd = rng.random((sentences, dl, mh, L))
        awd[:, 1, 0] = 0.25
        metric = rng.random((sentences, L, 3, 3))
        if s == 1:
            metric[:, :, 1] = 0.0
        batch.append(SummaryAnalysis(
            set_id=f"s{s}",
            sent_awd=SentenceAwd(values=awd),
            origin=ao.OriginMetric(values=metric),
            unit_pad=np.arange(L) >= L - pads,
            doc_positions=None,
        ))
    report = ao.build_report(batch)

    def cells(sets, pick):
        return np.concatenate([pick(a)[:, ~a.unit_pad].ravel() for a in sets])

    def f1(variant):
        return lambda a: a.origin.f1_matrix(variant)

    def layer_mean(layer):
        return lambda a: a.sent_awd.values[:, layer].mean(axis=1)

    def head(layer, h):
        return lambda a: a.sent_awd.values[:, layer, h]

    def check(got, sets, pick_x, pick_y):
        x, y = cells(sets, pick_x), cells(sets, pick_y)
        expected = ao.pearson(x, y) if x.size >= 2 else None
        if expected is None:
            assert got is None
        else:
            assert got is not None and abs(got - expected) < 1e-12

    for row in report.per_layer:
        for v in ao.origin.VARIANTS:
            check(row[v], batch, layer_mean(row["layer"] - 1), f1(v))
    for row in report.per_head:
        for v in ao.origin.VARIANTS:
            check(row[v], batch, head(row["layer"] - 1, row["head"]), f1(v))
    for entry in report.head_matrix:
        for i in range(mh):
            for j in range(mh):
                layer = entry["layer"] - 1
                check(entry["matrix"][i][j], batch, head(layer, i), head(layer, j))
    for i in range(dl):
        for j in range(dl):
            check(report.layer_matrix[i][j], batch, layer_mean(i), layer_mean(j))
    assert len(report.per_summary) == len(batch) * dl
    for row in report.per_summary:
        sets = [a for a in batch if a.set_id == row["set_id"]]
        for v in ao.origin.VARIANTS:
            check(row[v], sets, layer_mean(row["layer"] - 1), f1(v))

    assert report.sample_count == 3 * 4 + 2 * 3
    # the oracle's zero-variance cases are present and reported as None
    assert report.per_head[3]["r1"] is None
    assert report.head_matrix[1]["matrix"][0] == [None, None, None]
    assert [row["r2"] for row in report.per_summary if row["set_id"] == "s1"] == [None, None]
    assert all(row["r1"] is None for row in report.per_summary if row["set_id"] == "s2")


def test_build_report_rejects_mixed_layer_head_counts():
    rng = np.random.default_rng(27)
    batch = [
        make_analysis("a", rng.random((2, 1, 6, 4)), rng.random((2, 4)).tolist()),
        make_analysis("b", rng.random((2, 2, 2, 4)), rng.random((2, 4)).tolist()),
    ]
    with pytest.raises(ValueError, match="'b': 2 layers x 2 heads, expected 1 x 6"):
        ao.build_report(batch)


def test_build_report_variant_subset():
    rng = np.random.default_rng(23)
    awd = rng.random((2, 1, 1, 4))
    awd /= awd.sum(axis=-1, keepdims=True)
    analysis = make_analysis("s", awd, rng.random((2, 4)).tolist())
    report = ao.build_report([analysis], variants=("r2",))
    row = report.per_layer[0]
    assert row["r1"] is None and row["rl"] is None and row["r2"] is not None


def test_a_subset_report_prints_the_full_reports_cells():
    """Each ``variants``/``layers`` choice prints the full report's cells bit
    for bit and None for an unpicked variant; one set has one cell, one none."""
    rng = np.random.default_rng(30)
    dl, mh, L = 4, 3, 5
    batch = []
    for k, (sentences, pads) in enumerate([(3, 1), (2, 0), (1, 4), (0, 1), (4, 2)]):
        awd = rng.random((sentences, dl, mh, L))
        awd[..., L - pads:] = 0.0
        awd /= awd.sum(axis=-1, keepdims=True)
        batch.append(SummaryAnalysis(
            set_id=f"s{k}", sent_awd=SentenceAwd(values=awd),
            origin=ao.OriginMetric(values=rng.random((sentences, L, 3, 3))),
            unit_pad=np.arange(L) >= L - pads, doc_positions=None,
        ))
    full = ao.build_report(batch)
    variant_sets = [c for n in (1, 2, 3) for c in itertools.combinations(ao.origin.VARIANTS, n)]
    for variants, layers in itertools.product(variant_sets, ([0], [3, 1], [2, 0, 3], None)):
        report = ao.build_report(batch, variants=variants, layers=layers)
        selected = range(dl) if layers is None else sorted(layers)

        def picked(row):
            return {k: None if k in ao.origin.VARIANTS and k not in variants else v
                    for k, v in row.items()}

        assert report.per_layer == [picked(full.per_layer[layer]) for layer in selected]
        assert report.per_head == [picked(full.per_head[layer * mh + h])
                                   for layer in selected for h in range(mh)]
        assert report.head_matrix == [full.head_matrix[layer] for layer in selected]
        assert report.per_summary == [picked(full.per_summary[k * dl + layer])
                                      for k in range(len(batch)) for layer in selected]
        assert report.layer_matrix == full.layer_matrix
        assert report.sample_count == full.sample_count == 3 * 4 + 2 * 5 + 1 + 4 * 3
    # the one-cell and the empty set read None
    assert all(row[v] is None for row in full.per_summary if row["set_id"] in ("s2", "s3")
               for v in ao.origin.VARIANTS)


def test_summary_analysis_reads_an_int_or_list_pad_mask_as_bool():
    rng = np.random.default_rng(28)
    awd = rng.random((3, 4, 2, 2, 4))
    awd[..., 3] = 0.0  # the last unit is a pad
    awd /= awd.sum(axis=-1, keepdims=True)
    metrics = rng.random((3, 4, 4))

    def batch(pad):
        return [SummaryAnalysis(set_id=f"s{k}", sent_awd=SentenceAwd(values=awd[k]),
                                origin=metric_from_matrix(metrics[k]), unit_pad=pad,
                                doc_positions=None)
                for k in range(3)]

    expected = ao.build_report(batch(np.array([False, False, False, True])))
    assert expected.sample_count == 3 * 4 * 3
    for pad in (np.array([0, 0, 0, 1]), [0, 0, 0, 1], [False, False, False, True]):
        analyses = batch(pad)
        assert ao.build_report(analyses) == expected
        assert analyses[0].unit_pad.dtype == bool


def placed_analysis(positions, pad=(False,) * 6):
    """Set 's': three sentences attending most to units 0, 4 and 5 of six."""
    return SummaryAnalysis(set_id="s", sent_awd=SentenceAwd(values=one_hot_awd([0, 4, 5])),
                           origin=metric_from_matrix(np.zeros((3, 6))),
                           unit_pad=np.array(pad), doc_positions=positions)


@pytest.mark.parametrize("positions, message", [
    (np.array([0, 1, 2, -1, 0, 1]), "set 's': non-pad unit 3 has doc position -1"),
    (np.array([0, 1, 2, 0, 1]), "set 's': doc_positions must be 6 integers, got int64 (5,)"),
    (np.array([0.0, 1.0, 2.0, 0.0, 1.0, 2.0]),
     "set 's': doc_positions must be 6 integers, got float64 (6,)"),
    (np.array([[0, 1, 2, 0, 1, 2]]), "set 's': doc_positions must be 6 integers, got int64 (1, 6)"),
], ids=["real-unit-unplaced", "wrong-length", "float", "two-dimensional"])
def test_summary_analysis_checks_doc_positions(positions, message):
    """Before, an unplaced real unit gave plausible but wrong tallies (its -1
    indexed the last row), and a wrong length or a float array an IndexError."""
    with pytest.raises(ValueError) as exc:
        placed_analysis(positions)
    assert str(exc.value) == message


def test_summary_analysis_reads_doc_positions_as_an_array():
    """A list of ints tallies as the array does, and a pad unit may sit at -1."""
    expected = ao.positional_bias([placed_analysis(np.array([0, 1, 2, 0, 1, 2]))], 0)
    assert expected.counts.tolist() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    got = ao.positional_bias([placed_analysis([0, 1, 2, 0, 1, 2])], 0)
    assert got.counts.tolist() == expected.counts.tolist()
    padded = placed_analysis([0, 1, 2, -1, 1, 2], pad=[False] * 3 + [True] + [False] * 2)
    assert ao.positional_bias([padded], 0).counts.tolist() == expected.counts.tolist()


def one_analysis(sentences=2, units=3, pad=None, awd=None):
    """A valid analysis of set 's' (2 sentences, 2 layers, 2 heads, 3 units), whose
    metric rows, metric columns, pad mask or attention the keywords replace."""
    return SummaryAnalysis(
        set_id="s",
        sent_awd=SentenceAwd(values=np.full((2, 2, 2, 3), 1 / 3) if awd is None else awd),
        origin=metric_from_matrix(np.zeros((sentences, units))),
        unit_pad=np.zeros(3, dtype=bool) if pad is None else pad,
        doc_positions=None,
    )


def merge_three_columns_into_two():
    acc = PearsonAccumulator()
    acc.update(np.ones((2, 2)))
    other = PearsonAccumulator()
    other.update(np.ones((2, 3)))
    acc.merge(other)


@pytest.mark.parametrize("call, message", [
    (lambda: one_analysis(sentences=3),
     "set 's': 3 metric rows vs 2 attention sentences"),
    (lambda: one_analysis(units=4), "set 's': 4 metric columns vs 3 attention units"),
    (lambda: one_analysis(pad=np.zeros(4, dtype=bool)), "set 's': unit_pad shape (4,)"),
    (lambda: one_analysis(awd=np.full((2, 2, 2, 3), np.nan)),
     "set 's': non-finite attention values"),
    (lambda: PearsonAccumulator().update(np.zeros(2)),
     "expected an (n, k) column array, got shape (2,)"),
    (lambda: PearsonAccumulator().update([1.0, 2.0], [1.0]), "length mismatch: 2 vs 1"),
    (merge_three_columns_into_two, "column count mismatch: 2 vs 3"),
    (lambda: ao.OriginMetric(values=np.zeros((2, 3))),
     "metric values must be (S, L, 3, 3), got (2, 3)"),
    (lambda: metric_from_matrix(np.zeros((1, 3))).f1_matrix("r3"),
     "variant must be one of ('r1', 'r2', 'rl')"),
    (lambda: ao.build_report([one_analysis()], variants=("r3",)),
     "variant must be one of ('r1', 'r2', 'rl')"),
    (lambda: ao.build_report([one_analysis()], layers=[2]), "layer 2 outside [0, 2)"),
    (lambda: ao.argmax_paragraph(one_analysis().sent_awd, 2), "layer 2 outside [0, 2)"),
    (lambda: ao.positional_bias([], 0), "empty batch"),
], ids=["metric-rows", "metric-columns", "pad-shape", "non-finite", "column-array",
        "pair-length", "merge-columns", "metric-shape", "f1-variant", "report-variant",
        "report-layer", "argmax-layer", "posbias-empty"])
def test_origin_input_checks_give_their_messages(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
