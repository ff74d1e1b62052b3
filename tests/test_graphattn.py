"""Tests for the graph-informed decoder, synthetic weights, and beam search."""

import dataclasses
import itertools
import json
import math
import tracemalloc
import warnings
import weakref
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import attnorigin as ao
from attnorigin.graphattn import (
    EOS_SENT_TOKEN,
    SHIFT_DIFF_SQUARED,
    SHIFT_FORMS,
    SHIFT_SIM_SQUARED,
    DecoderState,
    _decode_block,
    _log_softmax,
    _padded_shift,
    _prepare,
    _sigmoid,
    _softmax,
    decode_step,
    encode_units,
    start_state,
)
from attnorigin.simgraph import SimilarityGraph
from conftest import (
    make_docset,
    random_unitized,
    sentinel_paragraphs,
    small_weights,
    unit_grids,
    unitized_and_graph,
    vocab_of,
)


def identity_graph(L, off=0.0):
    w = np.full((L, L), off, dtype=np.float64)
    np.fill_diagonal(w, 1.0)
    return SimilarityGraph(size=L, weights=w)


# ---------------------------------------------------------------------------
# ModelConfig
# ---------------------------------------------------------------------------

def test_config_validates_divisibility():
    with pytest.raises(ValueError, match="divisible"):
        ao.ModelConfig(d_model=10, num_heads=4)


def test_config_validates_sigma():
    with pytest.raises(ValueError, match="sigma"):
        ao.ModelConfig(d_model=8, num_heads=2, sigma=0.0)
    with pytest.raises(ValueError, match=r"sigma 1e-200 is too small: 2 \* sigma\*\*2 underflows"):
        ao.ModelConfig(d_model=8, num_heads=2, sigma=1e-200)
    with pytest.raises(ValueError,
                       match=r"sigma 1e-160 is too small: 1 / \(2 \* sigma\*\*2\) overflows"):
        ao.ModelConfig(d_model=8, num_heads=2, sigma=1e-160)  # 2 * sigma**2 is subnormal
    ao.ModelConfig(d_model=8, num_heads=2, sigma=1e-154)  # the smallest decade still accepted
    ao.ModelConfig(d_model=8, num_heads=2, sigma=1e200)  # the shift vanishes


def test_config_d_head():
    cfg = ao.ModelConfig(d_model=64, num_heads=8)
    assert cfg.d_head == 8


# ---------------------------------------------------------------------------
# encode_units
# ---------------------------------------------------------------------------

def test_encode_all_pad_is_zero_matrix():
    docset = ao.MultiDocSet(set_id="s", documents=[ao.RawDocument("d", "", [])])
    inp = ao.unitize(docset, "paragraph", L=3, T=4)
    weights = small_weights(inp)
    graph = ao.build_graph(inp)
    encoded = ao.encode_units(inp, weights, graph)
    assert not encoded.any()


def test_encode_complete_graph_is_unshifted(two_doc_input):
    inp, _ = two_doc_input
    weights = small_weights(inp)
    # weight 1 between every two real units; pad rows and columns stay 0
    real = ~inp.unit_pad
    complete = SimilarityGraph(size=inp.L, weights=np.outer(real, real).astype(np.float64))
    shifted = ao.encode_units(inp, weights, complete)

    # manual self-attention without any shift term
    cfg = weights.config
    u = np.zeros((inp.L, cfg.d_model))
    for i, unit in enumerate(inp.units):
        if not unit.is_pad:
            ids = [weights.token_id(t) for t in unit.tokens]
            u[i] = weights.embedding[ids].mean(axis=0) + weights.pos_encoding[i]
    logits = u @ u.T / math.sqrt(cfg.d_model)
    logits[:, inp.unit_pad] = -np.inf
    expected = np.zeros_like(u)
    expected[real] = _softmax(logits[real], axis=-1) @ u
    assert np.allclose(shifted, expected, atol=1e-12)


def test_encode_single_unit_attends_itself():
    inp, graph = unitized_and_graph([["only one paragraph here"]], L=1, T=8)
    weights = small_weights(inp)
    encoded = ao.encode_units(inp, weights, graph)
    ids = [weights.token_id(t) for t in inp.units[0].tokens]
    u = weights.embedding[ids].mean(axis=0) + weights.pos_encoding[0]
    assert np.allclose(encoded[0], u, atol=1e-12)


def test_encode_rejects_graph_size_mismatch(two_doc_input):
    inp, _ = two_doc_input
    weights = small_weights(inp)
    with pytest.raises(ValueError, match="graph size"):
        ao.encode_units(inp, weights, identity_graph(inp.L + 1))


def test_encode_pad_rows_zero(two_doc_input):
    inp, graph = two_doc_input
    weights = small_weights(inp)
    encoded = ao.encode_units(inp, weights, graph)
    for i in np.flatnonzero(inp.unit_pad):
        assert not encoded[i].any()


def per_unit_encode(inp, weights, graph):
    """``encode_units`` with each unit's mean taken on its own: embedding[ids].mean(axis=0)."""
    cfg = weights.config
    u = np.zeros((inp.L, cfg.d_model))
    for i, unit in enumerate(inp.units[: inp.num_real_units]):
        ids = [weights.token_id(t) for t in unit.tokens]
        u[i] = weights.embedding[ids].mean(axis=0) + weights.pos_encoding[i]
    real = ~inp.unit_pad
    x = np.zeros_like(u)
    e = (u @ u.T)[real] / math.sqrt(cfg.d_model)
    shift = _padded_shift(graph.weights, inp.unit_pad, cfg.sigma, cfg.shift_form)
    x[real] = _softmax(e - shift[real], axis=-1) @ u
    return x


# d_model 1 is left out: numpy sums the reference's lone column pairwise, not in
# token order, so a one-column mean may differ from the gathered sum by an ulp.
@settings(max_examples=200)
@given(inp=unit_grids(), d_model=st.sampled_from([2, 3, 8]), data=st.data())
def test_encode_units_match_the_per_unit_means_bitwise(inp, d_model, data):
    weights = small_weights(inp, d_model=d_model, num_heads=1)
    # embedding rows of very different sizes make any other summation order show
    exponents = data.draw(st.lists(st.integers(-8, 8), min_size=len(weights.vocab),
                                   max_size=len(weights.vocab)))
    weights.embedding *= 10.0 ** np.array(exponents)[:, None]
    graph = ao.build_graph(inp)
    got = ao.encode_units(inp, weights, graph)
    assert got.tobytes() == per_unit_encode(inp, weights, graph).tobytes()


def test_encode_rejects_a_token_outside_the_vocabulary(two_doc_input):
    inp, graph = two_doc_input
    vocab = ["brooks" if t == "rivers" else t for t in vocab_of(inp)]
    cfg = ao.ModelConfig(d_model=8, num_heads=2, vocab_size=len(vocab), num_units=inp.L)
    weights = ao.make_synthetic_weights(0, cfg, vocab=vocab)
    with pytest.raises(ao.graphattn.VocabularyError,
                       match="token 'rivers' not in the model vocabulary"):
        ao.encode_units(inp, weights, graph)


# ---------------------------------------------------------------------------
# unscaled_attention
# ---------------------------------------------------------------------------

def test_unscaled_attention_zero_query():
    x = np.arange(12.0).reshape(3, 4)
    w = np.ones((4, 2))
    assert not ao.unscaled_attention(np.zeros(4), x, w, w).any()


def test_unscaled_attention_scalar_case():
    # d_model = d_head = 1, identity maps: e = y * x / sqrt(1)
    e = ao.unscaled_attention(np.array([2.0]), np.array([[3.0]]), np.eye(1), np.eye(1))
    assert e[0] == 6.0


def test_unscaled_attention_linear_in_query():
    rng = np.random.default_rng(0)
    y = rng.normal(size=6)
    x = rng.normal(size=(4, 6))
    wq = rng.normal(size=(6, 3))
    wk = rng.normal(size=(6, 3))
    assert np.allclose(
        ao.unscaled_attention(2.0 * y, x, wq, wk),
        2.0 * ao.unscaled_attention(y, x, wq, wk),
        atol=1e-12,
    )
    # every head's projections at once, for one state and for a stack
    heads_q = rng.normal(size=(5, 6, 3))
    heads_k = rng.normal(size=(5, 6, 3))
    ys = rng.normal(size=(7, 6))
    one = ao.unscaled_attention(y, x, heads_q, heads_k)
    stacked = ao.unscaled_attention(ys, x, heads_q, heads_k)
    assert one.shape == (5, 4) and stacked.shape == (5, 7, 4)
    for head in range(5):
        wq_h, wk_h = heads_q[head], heads_k[head]
        assert np.allclose(one[head], ao.unscaled_attention(y, x, wq_h, wk_h), atol=1e-12)
        rows = np.stack([ao.unscaled_attention(row, x, wq_h, wk_h) for row in ys])
        assert np.allclose(stacked[head], rows, atol=1e-12)
        assert np.allclose(ao.unscaled_attention(ys, x, wq_h, wk_h), rows, atol=1e-12)


def test_unscaled_attention_rejects_nonfinite():
    with pytest.raises(ValueError, match="finite"):
        ao.unscaled_attention(np.array([np.nan]), np.array([[1.0]]), np.eye(1), np.eye(1))


# ---------------------------------------------------------------------------
# central_paragraph
# ---------------------------------------------------------------------------

def zero_ffn(d):
    return (np.zeros((d, d)), np.zeros(d), np.zeros(d), np.zeros(1))


def reference_sigmoid(x):
    """Two-branch logistic, each branch on the inputs where it cannot overflow."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_matches_two_branch_reference_bitwise():
    rng = np.random.default_rng(8)
    x = np.concatenate([rng.normal(scale=s, size=500) for s in (1.0, 30.0, 800.0)]
                       + [[0.0, -0.0, np.inf, -np.inf, 710.0, -710.0, 1e-300, -1e-300]])
    assert _sigmoid(x).tobytes() == reference_sigmoid(x).tobytes()
    assert _sigmoid(x.reshape(-1, 4)).tobytes() == reference_sigmoid(x).tobytes()
    assert float(_sigmoid(-3.0)) == float(reference_sigmoid(np.array(-3.0)))


def test_central_single_unit_always_zero():
    rng = np.random.default_rng(1)
    ffn = (rng.normal(size=(4, 4)), rng.normal(size=4), rng.normal(size=4), rng.normal(size=1))
    for _ in range(10):
        assert ao.central_paragraph(rng.normal(size=4), ffn, L=1) == 0


def test_central_saturates_to_last_unit():
    d = 4
    ffn = (np.zeros((d, d)), np.ones(d), np.ones(d) * 100.0, np.array([100.0]))
    assert ao.central_paragraph(np.zeros(d), ffn, L=7) == 6


def test_central_zero_weights_midpoint():
    # sigmoid(0) = 0.5 -> round(0.5 * 4) = 2 for L = 5
    assert ao.central_paragraph(np.zeros(4), zero_ffn(4), L=5) == 2


def test_central_deterministic():
    rng = np.random.default_rng(2)
    ffn = (rng.normal(size=(4, 4)), rng.normal(size=4), rng.normal(size=4), rng.normal(size=1))
    y = rng.normal(size=4)
    assert ao.central_paragraph(y, ffn, L=9) == ao.central_paragraph(y, ffn, L=9)
    assert type(ao.central_paragraph(y, ffn, L=9)) is int
    # a stack of states gives one index per row, equal to the per-row calls
    ys = rng.normal(scale=3.0, size=(40, 4))
    stacked = ao.central_paragraph(ys, ffn, L=9)
    assert stacked.dtype == np.int64 and stacked.shape == (40,)
    assert stacked.tolist() == [ao.central_paragraph(row, ffn, L=9) for row in ys]
    assert len(set(stacked.tolist())) > 1


# ---------------------------------------------------------------------------
# graph_shifted_attention
# ---------------------------------------------------------------------------

def test_shift_all_ones_graph_equals_plain_softmax_bitwise():
    rng = np.random.default_rng(3)
    for _ in range(50):
        L = int(rng.integers(2, 9))
        e = rng.normal(scale=3.0, size=L)
        graph = SimilarityGraph(size=L, weights=np.ones((L, L)))
        beta = ao.graph_shifted_attention(e, graph, s=0, sigma=1.0)
        assert np.array_equal(beta, _softmax(e))


def test_shift_vanishes_for_huge_sigma():
    rng = np.random.default_rng(4)
    for _ in range(50):
        L = int(rng.integers(2, 9))
        e = rng.normal(scale=3.0, size=L)
        graph = identity_graph(L, off=float(rng.random() * 0.9))
        beta = ao.graph_shifted_attention(e, graph, s=1, sigma=1e6)
        assert np.max(np.abs(beta - _softmax(e))) < 1e-6


def test_shift_numeric_example():
    # e = 0, similarity row [1, 0], sigma = 1: logits [0, -0.5]
    graph = SimilarityGraph(size=2, weights=np.array([[1.0, 0.0], [0.0, 1.0]]))
    beta = ao.graph_shifted_attention(np.zeros(2), graph, s=0, sigma=1.0)
    expected = _softmax(np.array([0.0, -0.5]))
    assert np.allclose(beta, expected, atol=1e-12)
    assert abs(beta[0] - 0.6225) < 1e-4 and abs(beta[1] - 0.3775) < 1e-4


def test_shift_masks_pad_units():
    w = np.zeros((3, 3))
    w[0, 0] = w[1, 1] = 1.0
    w[0, 1] = w[1, 0] = 0.5  # unit 2 is pad: zero row, zero diagonal
    graph = SimilarityGraph(size=3, weights=w)
    beta = ao.graph_shifted_attention(np.array([1.0, 2.0, 50.0]), graph, s=0, sigma=1.0)
    assert beta[2] == 0.0
    assert abs(beta.sum() - 1.0) < 1e-12
    # (heads, rows, L) logits with one central index per row
    es = np.random.default_rng(7).normal(scale=3.0, size=(2, 4, 3))
    s = np.array([0, 1, 1, 0])
    stacked = ao.graph_shifted_attention(es, graph, s, sigma=0.8)
    assert not stacked[..., 2].any()
    for head, row in itertools.product(range(2), range(4)):
        one = ao.graph_shifted_attention(es[head, row], graph, int(s[row]), sigma=0.8)
        assert np.allclose(stacked[head, row], one, atol=1e-15)


def test_shift_all_pad_raises():
    graph = SimilarityGraph(size=2, weights=np.zeros((2, 2)))
    with pytest.raises(ValueError, match="padded"):
        ao.graph_shifted_attention(np.zeros(2), graph, s=0, sigma=1.0)


def test_shift_rejects_bad_sigma_and_index():
    graph = identity_graph(2)
    with pytest.raises(ValueError):
        ao.graph_shifted_attention(np.zeros(2), graph, s=0, sigma=0.0)
    for s in (2, -1):
        with pytest.raises(ValueError, match="central index"):
            ao.graph_shifted_attention(np.zeros(2), graph, s=s, sigma=1.0)
    for rows in ([0, 2], [-1, 0], [1, 0, 1, 5]):
        with pytest.raises(ValueError, match="central index"):
            ao.graph_shifted_attention(np.zeros((len(rows), 2)), graph, np.array(rows), sigma=1.0)


@pytest.mark.parametrize("sigma", [0.0, -1.0, 1e-200, 1e-160, np.float64(1e-160), math.inf,
                                   math.nan])
def test_shift_rejects_the_sigmas_that_model_config_rejects(sigma):
    graph = identity_graph(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="sigma") as shift_error:
            ao.graph_shifted_attention(np.zeros(2), graph, s=0, sigma=sigma)
    with pytest.raises(ValueError) as config_error:
        ao.ModelConfig(d_model=8, num_heads=2, sigma=sigma)
    assert str(shift_error.value) == str(config_error.value)


def test_shift_forms_agree_on_binary_graphs():
    # (1 - g**2) and ((1 - g)**2) coincide at g in {0, 1}
    rng = np.random.default_rng(5)
    for _ in range(20):
        L = int(rng.integers(2, 7))
        w = (rng.random((L, L)) < 0.5).astype(float)
        w = np.maximum(w, w.T)
        np.fill_diagonal(w, 1.0)
        graph = SimilarityGraph(size=L, weights=w)
        e = rng.normal(size=L)
        a = ao.graph_shifted_attention(e, graph, s=0, sigma=0.7, shift_form=SHIFT_SIM_SQUARED)
        b = ao.graph_shifted_attention(e, graph, s=0, sigma=0.7, shift_form=SHIFT_DIFF_SQUARED)
        assert np.array_equal(a, b)


def test_sigma_monotonicity_in_total_variation():
    rng = np.random.default_rng(6)
    for _ in range(30):
        L = int(rng.integers(2, 8))
        e = rng.normal(scale=2.0, size=L)
        w = rng.random((L, L))
        w = (w + w.T) / 2.0
        np.fill_diagonal(w, 1.0)
        graph = SimilarityGraph(size=L, weights=w)
        s = int(rng.integers(0, L))
        plain = _softmax(e)
        last_tv = np.inf
        for sigma in (0.3, 0.5, 1.0, 2.0, 5.0, 25.0, 1e3):
            beta = ao.graph_shifted_attention(e, graph, s=s, sigma=sigma)
            tv = 0.5 * np.abs(beta - plain).sum()
            assert tv <= last_tv + 1e-12
            last_tv = tv


# ---------------------------------------------------------------------------
# global_context
# ---------------------------------------------------------------------------

def test_global_context_one_hot_selects_row():
    x = np.arange(12.0).reshape(3, 4)
    beta = np.array([0.0, 1.0, 0.0])
    assert np.array_equal(ao.global_context(beta, x), x[1])


def test_global_context_identical_rows():
    x = np.tile(np.array([2.0, -1.0, 0.5]), (4, 1))
    beta = np.array([0.1, 0.2, 0.3, 0.4])
    assert np.allclose(ao.global_context(beta, x), x[0], atol=1e-12)


def test_global_context_hand_value():
    x = np.array([[2.0, 0.0], [0.0, 2.0]])
    got = ao.global_context(np.array([0.5, 0.5]), x)
    assert np.array_equal(got, np.array([1.0, 1.0]))
    stack = np.array([[[0.5, 0.5], [1.0, 0.0]], [[0.0, 1.0], [0.25, 0.75]]])
    got = ao.global_context(stack, x)
    assert np.array_equal(got, np.array([[[1.0, 1.0], [2.0, 0.0]], [[0.0, 2.0], [0.5, 1.5]]]))


def test_global_context_rejects_non_simplex():
    with pytest.raises(ValueError, match="sum"):
        ao.global_context(np.array([0.5, 0.4]), np.zeros((2, 3)))
    stack = np.array([[[0.5, 0.5], [0.3, 0.7]], [[1.0, 0.0], [0.6, 0.5]]])
    with pytest.raises(ValueError, match="sum"):
        ao.global_context(stack, np.zeros((2, 3)))
    with pytest.raises(ValueError, match="sum"):
        ao.global_context(np.array([[0.5, 0.5], [np.nan, 1.0]]), np.zeros((2, 3)))


def nan_at(shape, index=0):
    a = np.zeros(shape)
    a.flat[index] = np.nan
    return a


@pytest.mark.parametrize("call", [
    lambda: ao.unscaled_attention(np.ones(2), nan_at((3, 2), 4), np.eye(2), np.eye(2)),
    lambda: ao.central_paragraph(nan_at(4, 2), zero_ffn(4), 5),
    lambda: ao.central_paragraph(nan_at((2, 4), 5), zero_ffn(4), 5),
    lambda: ao.graph_shifted_attention(nan_at(3, 1), identity_graph(3), 0, 1.0),
    lambda: ao.global_context(np.full(3, 1 / 3), nan_at((3, 2), 3)),
], ids=["unscaled-attention-units", "central-paragraph-state", "central-paragraph-stack",
        "graph-shifted-attention-logits", "global-context-units"])
def test_public_primitives_reject_nonfinite_input(call):
    """Every public primitive raises the one message on a NaN input before
    numpy warns of it or an index, a NaN row or a NaN context comes out."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as exc:
            call()
    assert str(exc.value) == "non-finite attention input"


# ---------------------------------------------------------------------------
# decode_step
# ---------------------------------------------------------------------------

def reference_decode_step(state, weights, graph):
    """Full-prefix decoder with one loop per head: the oracle for decode_step.

    It computes the central unit, graph shift, pad mask and head
    concatenation inline instead of calling the primitives.
    """
    cfg = weights.config
    p = len(state.prefix_ids)
    x = state.encoded
    L = x.shape[0]
    g = graph.weights
    unit_pad = np.diagonal(g) == 0.0
    if cfg.shift_form == SHIFT_SIM_SQUARED:
        shift_all = (1.0 - g * g) / (2.0 * cfg.sigma * cfg.sigma)
    else:
        shift_all = ((1.0 - g) * (1.0 - g)) / (2.0 * cfg.sigma * cfg.sigma)

    h = weights.embedding[state.prefix_ids] + weights.pos_encoding[:p]
    causal = np.triu(np.full((p, p), -np.inf), k=1)
    betas = np.empty((cfg.num_layers, cfg.num_heads, L), dtype=np.float64)
    for layer in range(cfg.num_layers):
        q = h @ weights.sa_wq[layer]
        k = h @ weights.sa_wk[layer]
        v = h @ weights.sa_wv[layer]
        attn = _softmax(q @ k.T / math.sqrt(cfg.d_model) + causal, axis=-1)
        h = h + (attn @ v) @ weights.sa_wo[layer]

        hidden = np.tanh(h @ weights.cp_w1[layer] + weights.cp_b1[layer])
        raw = hidden @ weights.cp_w2[layer] + weights.cp_b2[layer]
        s_idx = np.floor(reference_sigmoid(raw) * (L - 1) + 0.5).astype(np.int64)
        shift_rows = shift_all[np.clip(s_idx, 0, L - 1)]

        contexts = []
        for head in range(cfg.num_heads):
            qg = h @ weights.w_q[layer, head]
            kg = x @ weights.w_k[layer, head]
            e = qg @ kg.T / math.sqrt(cfg.d_head)
            beta = _softmax(np.where(unit_pad, -np.inf, e - shift_rows), axis=-1)
            betas[layer, head] = beta[-1]
            contexts.append(beta @ x)
        h = h + np.concatenate(contexts, axis=1) @ weights.w_g[layer]

        inner = np.maximum(h @ weights.ff_w1[layer] + weights.ff_b1[layer], 0.0)
        h = h + inner @ weights.ff_w2[layer] + weights.ff_b2[layer]
    return h[-1] @ weights.w_out, betas


def test_decode_step_single_layer_head_composes_primitives(two_doc_input):
    inp, graph = two_doc_input
    weights = small_weights(inp, seed=4, d_model=8, num_layers=1, num_heads=1)
    cfg = weights.config
    state = start_state(inp, weights, graph)
    state.prefix_ids = [weights.bos_id, weights.token_id("cat"), weights.token_id("dog")]
    logits, betas = decode_step(state, weights, graph)

    # manual composition of the primitive operations
    p = len(state.prefix_ids)
    h = weights.embedding[state.prefix_ids] + weights.pos_encoding[:p]
    q, k, v = h @ weights.sa_wq[0], h @ weights.sa_wk[0], h @ weights.sa_wv[0]
    causal = np.triu(np.full((p, p), -np.inf), k=1)
    attn = _softmax(q @ k.T / math.sqrt(cfg.d_model) + causal, axis=-1)
    h = h + (attn @ v) @ weights.sa_wo[0]

    y = h[-1]
    s = ao.central_paragraph(
        y, (weights.cp_w1[0], weights.cp_b1[0], weights.cp_w2[0], weights.cp_b2[0]), inp.L
    )
    e = ao.unscaled_attention(y, state.encoded, weights.w_q[0, 0], weights.w_k[0, 0])
    beta = ao.graph_shifted_attention(e, graph, s, cfg.sigma)
    assert np.allclose(betas[0, 0], beta, atol=1e-12)

    # one layer, one head: the last position's logits need only its own context
    g = ao.global_context(beta, state.encoded)
    y = y + g @ weights.w_g[0]
    y = y + np.maximum(y @ weights.ff_w1[0] + weights.ff_b1[0], 0.0) @ weights.ff_w2[0]
    y = y + weights.ff_b2[0]
    assert logits.shape == (cfg.vocab_size,)
    assert np.allclose(logits, y @ weights.w_out, atol=1e-12)

    # every layer and head against the per-head reference, over a seeded sweep
    rng = np.random.default_rng(1234)
    for i in range(320):
        inp = random_unitized(rng, paras_per_doc=int(rng.integers(1, 3)), L=6, T=8)
        assert inp.unit_pad.any()
        graph = ao.build_graph(inp)
        vocab = vocab_of(inp)
        cfg = ao.ModelConfig(
            d_model=16, num_layers=1 + (i // 4) % 4, num_heads=(1, 2, 4, 8)[i % 4],
            sigma=float(rng.uniform(0.2, 5.0)), vocab_size=len(vocab), num_units=inp.L,
            max_len=int(rng.integers(1, 6)), shift_form=SHIFT_FORMS[(i // 16) % 2],
        )
        weights = ao.make_synthetic_weights(i, cfg, vocab=vocab)
        state = start_state(inp, weights, graph)
        tokens = rng.integers(0, len(vocab), size=cfg.max_len - 1).tolist()
        for p in range(1, cfg.max_len + 1):
            state.prefix_ids = [weights.bos_id] + tokens[: p - 1]
            logits, betas = decode_step(state, weights, graph)
            ref_logits, ref_betas = reference_decode_step(state, weights, graph)
            assert np.max(np.abs(logits - ref_logits)) <= 1e-12, (i, p)
            assert np.max(np.abs(betas - ref_betas)) <= 1e-12, (i, p)


@pytest.mark.parametrize("shift_form", SHIFT_FORMS)
def test_decode_block_at_bench_shape(shift_form):
    """The kernel at d=64, 8 layers, 8 heads and L=30 with pads.

    decode_step (one kernel call per prefix token through the cache)
    matches the full-prefix reference within 1e-11 at prefix lengths
    1-32, and its float64 logits and betas equal the byte oracle
    ``reference_decode_block``'s, fed the same tokens one call at a time.
    Two sets of one hypothesis each advanced together, one token per call
    through the cache, equal decode_step on each hypothesis's own prefix
    and set byte for byte. With two hypotheses per set they match it
    within 1e-10 (measured: 9.8e-12): each weight product then runs over
    two rows, which BLAS rounds differently from decode_step's one. The
    same calls writing into a float32 betas buffer give the same logits
    and cache and the float64 betas rounded once to float32, bit for bit.
    """
    rng = np.random.default_rng(30)
    inputs = [random_unitized(rng, num_docs=4, paras_per_doc=5, words=12, L=30, T=60,
                              set_id=f"s{i}") for i in range(2)]
    assert all(inp.unit_pad.any() for inp in inputs)
    graphs = [ao.build_graph(inp) for inp in inputs]
    assert not np.array_equal(graphs[0].weights, graphs[1].weights)
    vocab = ao.graphattn.build_vocab(t for inp in inputs for u in inp.units for t in u.tokens)
    cfg = ao.ModelConfig(d_model=64, num_layers=8, num_heads=8, vocab_size=len(vocab),
                         num_units=30, max_len=32, shift_form=shift_form)
    weights = ao.make_synthetic_weights(5, cfg, vocab=vocab)
    states = [start_state(inp, weights, graph) for inp, graph in zip(inputs, graphs)]
    rows = np.concatenate([np.full((2, 2, 1), weights.bos_id),
                           rng.integers(2, len(vocab), size=(2, 2, cfg.max_len - 1))], axis=2)
    state = states[0]
    oracle_cache = np.empty((2, cfg.num_layers, 1, 1, cfg.max_len, cfg.d_model))
    for p in range(1, cfg.max_len + 1):
        state.prefix_ids = rows[0, 0, :p].tolist()
        logits, betas = decode_step(state, weights, graphs[0])
        ref_logits, ref_betas = reference_decode_step(state, weights, graphs[0])
        assert np.max(np.abs(logits - ref_logits)) <= 1e-11, p
        assert np.max(np.abs(betas - ref_betas)) <= 1e-11, p
        oracle = reference_decode_block(rows[:1, :1, p - 1], p - 1, oracle_cache,
                                        state.encoded[None], weights, graphs[:1])
        assert logits.tobytes() == oracle[0][0, 0].tobytes(), p
        assert betas.dtype == np.float64 and betas.tobytes() == oracle[1][0, 0].tobytes(), p

    group = _prepare(np.stack([state.encoded for state in states]), graphs, weights)
    for n in (1, 2):
        cache = np.empty((2, cfg.num_layers, 2, n, cfg.max_len, cfg.d_model))
        cache32 = np.empty_like(cache)
        betas = np.empty((2, n, cfg.num_layers, cfg.num_heads, 30))
        betas32 = np.empty(betas.shape, dtype=np.float32)
        for start in range(cfg.max_len):
            end = start + 1
            logits = _decode_block(rows[:, :n, start], start, cache, group, weights, betas)
            logits32 = _decode_block(rows[:, :n, start], start, cache32, group, weights,
                                     betas32)
            assert logits32.tobytes() == logits.tobytes(), (n, end)
            assert betas32.tobytes() == betas.astype(np.float32).tobytes(), (n, end)
            assert cache32[..., :end, :].tobytes() == cache[..., :end, :].tobytes(), (n, end)
            for g, row in itertools.product(range(2), range(n)):
                states[g].prefix_ids = rows[g, row, :end].tolist()
                want_logits, want_betas = decode_step(states[g], weights, graphs[g])
                if n == 1:
                    assert logits[g, row].tobytes() == want_logits.tobytes(), (end, g)
                    assert betas[g, row].tobytes() == want_betas.tobytes(), (end, g)
                else:
                    assert np.max(np.abs(logits[g, row] - want_logits)) <= 1e-10, (end, g, row)
                    assert np.max(np.abs(betas[g, row] - want_betas)) <= 1e-10, (end, g, row)


# ---------------------------------------------------------------------------
# the kernel against its public primitives, bit for bit
# ---------------------------------------------------------------------------

def reference_decode_block(ids, start, cache, x, weights, graphs):
    """The kernel as the four public primitives, checks included: the byte oracle.

    ``ids`` (G, n) holds one token per hypothesis at position ``start``,
    and ``cache`` the keys and values of positions [:start]. ``x`` holds
    each set's encoded units (G, L, d) and ``graphs`` each set's graph;
    graph attention runs set by set on that set's own graph, and the unit
    keys and graph shifts are recomputed at every layer of every call.
    The states are (G, n, d), so every weight product runs set by set at
    the shape a set decoded alone has, and the central-unit FFN takes one
    set's (n, d) rows at a time.
    """
    cfg = weights.config
    (sets, n), end, L = ids.shape, start + 1, x.shape[1]
    h = weights.embedding[ids] + weights.pos_encoding[start]
    betas = np.empty((sets, n, cfg.num_layers, cfg.num_heads, L))
    keys, values = cache
    x = x[:, None]  # a head axis: (G, 1, L, d)
    for layer in range(cfg.num_layers):
        keys[layer, ..., start, :] = h @ weights.sa_wk[layer]
        values[layer, ..., start, :] = h @ weights.sa_wv[layer]
        k, v = keys[layer, ..., :end, :], values[layer, ..., :end, :]
        queries = (h @ weights.sa_wq[layer]).reshape(sets, n, 1, -1)
        attn = _softmax(queries @ k.transpose(0, 1, 3, 2) / math.sqrt(cfg.d_model))
        h = h + (attn @ v).reshape(h.shape) @ weights.sa_wo[layer]

        ffn = (weights.cp_w1[layer], weights.cp_b1[layer], weights.cp_w2[layer],
               weights.cp_b2[layer])
        s = np.stack([ao.central_paragraph(rows, ffn, L) for rows in h])[:, None]
        e = ao.unscaled_attention(h[:, None], x, weights.w_q[layer],
                                  weights.w_k[layer])  # (G, mh, n, L)
        beta = np.stack([ao.graph_shifted_attention(e[g], graphs[g], s[g, 0], cfg.sigma,
                                                    cfg.shift_form) for g in range(sets)])
        betas[:, :, layer] = beta.transpose(0, 2, 1, 3)
        contexts = ao.global_context(beta, x)  # (G, mh, n, d)
        h = h + contexts.transpose(0, 2, 1, 3).reshape(sets, n, -1) @ weights.w_g[layer]

        inner = np.maximum(h @ weights.ff_w1[layer] + weights.ff_b1[layer], 0.0)
        h = h + inner @ weights.ff_w2[layer] + weights.ff_b2[layer]
    return h @ weights.w_out, betas


def reference_kernel(encoded, graphs):
    """``reference_decode_block`` behind the kernel's signature, checked call by call.

    It finds each decoding set of the group by its encoded units among
    ``encoded`` and passes that set's graph. Every call also runs the
    kernel on a copy of the cache and a float64 betas buffer and requires
    the same logits, betas and cache bytes; the reference's betas fill the
    caller's buffer and its logits are returned.
    """
    kernel = ao.graphattn._decode_block

    def checked(ids, start, cache, group, weights, betas):
        x = group.x[:, 0]
        which = [next(i for i, units in enumerate(encoded) if np.array_equal(units, set_x))
                 for set_x in x]
        kernel_cache, kernel_betas = cache.copy(), np.empty(betas.shape)
        logits = kernel(ids, start, kernel_cache, group, weights, kernel_betas)
        want_logits, want_betas = reference_decode_block(ids, start, cache, x, weights,
                                                         [graphs[i] for i in which])
        assert logits.tobytes() == want_logits.tobytes(), start
        assert kernel_betas.tobytes() == want_betas.tobytes(), start
        assert kernel_cache.tobytes() == cache.tobytes(), start
        betas[...] = want_betas
        return want_logits
    return checked


def random_sentence_set(rng, set_id, mode, L, T):
    """2-4 documents of 2-4 paragraphs of 1-3 six-word sentences over 40 words."""
    docs = [[" ".join(" ".join(f"w{rng.integers(0, 40)}" for _ in range(6)) + "."
                      for _ in range(rng.integers(1, 4)))
             for _ in range(rng.integers(2, 5))] for _ in range(rng.integers(2, 5))]
    return ao.unitize(make_docset(set_id, docs), mode, L, T)


@pytest.mark.parametrize("mode, L, T, num_sets, beam, max_len, eos_bump", [
    ("paragraph", 30, 60, 2, 4, 32, 0.0),  # paragraph-beam4: two sets in one group
    ("sentence", 60, 30, 4, 1, 8, 2.5),  # sentence-greedy: four sets in one group
])
def test_beam_search_is_byte_identical_to_the_primitive_kernel(
        monkeypatch, mode, L, T, num_sets, beam, max_len, eos_bump):
    """At the benchmark's decoder shapes (d 64, 8 layers, 8 heads, units
    with pads, sets with different graphs) a beam search through the
    kernel and one through ``reference_decode_block`` give the same
    tokens, traces, winners and scores, and AWD tensors equal byte for
    byte. In sentence mode a raised <eos> column ends some sets of the
    group before a later one, so the group drops sets while it decodes.
    """
    rng = np.random.default_rng(16)
    inputs = [random_sentence_set(rng, f"s{i}", mode, L, T) for i in range(num_sets)]
    assert all(inp.unit_pad.any() for inp in inputs)
    graphs = [ao.build_graph(inp) for inp in inputs]
    assert not np.array_equal(graphs[0].weights, graphs[1].weights)
    vocab = ao.graphattn.build_vocab(t for inp in inputs for u in inp.units for t in u.tokens)
    cfg = ao.ModelConfig(d_model=64, num_layers=8, num_heads=8, vocab_size=len(vocab),
                         num_units=L, max_len=32)
    weights = ao.make_synthetic_weights(2, cfg, vocab=vocab)
    weights.w_out[:, weights.eos_id] += eos_bump * weights.w_out[:, 5]
    gen = ao.GenerationConfig(beam_size=beam, max_len=max_len)
    got = list(ao.graphattn.generate_sets(inputs, weights, graphs, gen))
    encoded = [encode_units(inp, weights, graph) for inp, graph in zip(inputs, graphs)]
    monkeypatch.setattr(ao.graphattn, "_decode_block", reference_kernel(encoded, graphs))
    want = list(ao.graphattn.generate_sets(inputs, weights, graphs, gen))
    for i, (a, b) in enumerate(zip(got, want, strict=True)):
        assert a.tokens == b.tokens, i
        assert a.beam_trace == b.beam_trace, i
        assert a.winning_beam == b.winning_beam, i
        assert a.score == b.score, i
        assert a.awd.values.tobytes() == b.awd.values.tobytes(), i
    lengths = [len(result.beam_trace) for result in got]
    if mode == "sentence":  # an earlier set of the group ended before a later one
        assert any(a < b for a, b in zip(lengths, lengths[1:])), lengths
    else:
        assert min(lengths) >= 16, lengths


def random_stack(rng, sets, L, pads):
    """``sets`` graphs of L units, the last ``pads[i]`` of graph i padded."""
    graphs = []
    for pad in pads[:sets]:
        w = np.triu(rng.choice([0.0, 0.25, rng.random()], size=(L, L)), k=1)
        w = w + w.T
        np.fill_diagonal(w, 1.0)
        w[L - pad:], w[:, L - pad:] = 0.0, 0.0
        graphs.append(SimilarityGraph(size=L, weights=w))
    return graphs


@settings(max_examples=150)
@given(seed=st.integers(0, 2**32 - 1), sets=st.integers(1, 3), heads=st.sampled_from([1, 2, 4]),
       d_head=st.integers(1, 3), layers=st.integers(1, 2), p=st.integers(1, 4),
       L=st.integers(1, 7), pads=st.lists(st.integers(0, 6), min_size=3, max_size=3),
       sigma=st.sampled_from([0.3, 1.0, 4.0]), shift_form=st.sampled_from(SHIFT_FORMS))
def test_cores_and_group_arrays_equal_the_public_primitives_bitwise(
        seed, sets, heads, d_head, layers, p, L, pads, sigma, shift_form):
    """On valid stacks every private core and the kernel's shifted softmax,
    fed the per-group arrays of ``_prepare``, give the bits of their public
    function and of the primitive's maths written inline (``(q @ kᵀ) /
    sqrt(d_head)``, the masked form ``np.where(pad, -inf, e - shift)``).
    """
    rng = np.random.default_rng(seed)
    d = heads * d_head
    cfg = ao.ModelConfig(d_model=d, num_layers=layers, num_heads=heads, sigma=sigma,
                         vocab_size=5, num_units=L, max_len=2, shift_form=shift_form)
    weights = ao.make_synthetic_weights(seed % 1000, cfg)
    graphs = random_stack(rng, sets, L, [min(pad, L - 1) for pad in pads])
    encoded = rng.normal(size=(sets, L, d))
    for graph, units in zip(graphs, encoded):
        units[graph.unit_pad] = 0.0
    group = _prepare(encoded, graphs, weights)
    pad = np.stack([graph.unit_pad for graph in graphs])[:, None, None]
    y = rng.normal(scale=2.0, size=(sets * p, d))
    ffn = (weights.cp_w1[0], weights.cp_b1[0], weights.cp_w2[0], weights.cp_b2[0])

    s = ao.graphattn._central_paragraph(y, ffn, L)
    assert s.tobytes() == ao.central_paragraph(y, ffn, L).tobytes()
    s = s.reshape(sets, 1, p)
    for layer in range(layers):
        ys = y.reshape(sets, 1, p, d)
        e = ao.graphattn._attention_logits(ys, weights.w_q[layer], group.keys[layer])
        public = ao.unscaled_attention(ys, encoded[:, None], weights.w_q[layer],
                                       weights.w_k[layer])
        k = encoded[:, None] @ weights.w_k[layer]
        inline = ((ys @ weights.w_q[layer]) @ np.swapaxes(k, -1, -2)) / math.sqrt(d_head)
        assert e.tobytes() == public.tobytes() == inline.tobytes()
        beta = _softmax(e - group.shift[s + group.offsets], axis=-1)
        public = np.stack([ao.graph_shifted_attention(e[g], graph, s[g, 0], sigma, shift_form)
                           for g, graph in enumerate(graphs)])
        rows = np.stack([graph.weights[s_g[0]] for graph, s_g in zip(graphs, s)])[:, None]
        shift = ao.graphattn._graph_shift(rows, sigma, shift_form)
        masked = _softmax(np.where(pad, -np.inf, e - shift))
        assert beta.tobytes() == public.tobytes() == masked.tobytes()
        context = beta @ group.x
        assert context.tobytes() == ao.global_context(beta, encoded[:, None]).tobytes()


def test_decode_block_rejects_nonfinite_units(monkeypatch):
    """A non-finite state raises ValueError from the kernel's one check per
    call, and beam search then yields no result."""
    rng = np.random.default_rng(9)
    inputs = [random_unitized(rng, set_id=f"s{i}") for i in range(2)]
    graphs = [ao.build_graph(inp) for inp in inputs]
    vocab = ao.graphattn.build_vocab(t for inp in inputs for u in inp.units for t in u.tokens)
    cfg = ao.ModelConfig(d_model=16, num_layers=2, num_heads=2, vocab_size=len(vocab),
                         num_units=6, max_len=4)
    weights = ao.make_synthetic_weights(2, cfg, vocab=vocab)
    encoded = np.stack([encode_units(inp, weights, g) for inp, g in zip(inputs, graphs)])
    ids = np.full((2, 1), weights.bos_id)
    cache = np.empty((2, weights.config.num_layers, 2, 1, 1, weights.config.d_model))
    betas = np.empty((2, 1, cfg.num_layers, cfg.num_heads, 6))
    _decode_block(ids, 0, cache, _prepare(encoded, graphs, weights), weights, betas)
    encoded[1, 0, 3] = np.inf
    # numpy flags the invalid arithmetic on the way; the kernel's error is the one that counts
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="non-finite"):
        _decode_block(ids, 0, cache, _prepare(encoded, graphs, weights), weights, betas)
    monkeypatch.setattr(ao.graphattn, "_encode_units",
                        lambda inp, weights, graph: np.full((inp.L, weights.config.d_model),
                                                            np.inf))
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="non-finite"):
        next(ao.graphattn.generate_sets(inputs, weights, graphs))


@pytest.mark.parametrize("prefix, message", [
    ([], "prefix must be non-empty"),
    ([-1], "prefix id -1 is not an integer in [0, V)"),
    (["bos", "V"], "prefix id V is not an integer in [0, V)"),
    (["bos", 2.0], "prefix id 2.0 is not an integer in [0, V)"),
], ids=["empty", "negative", "past-vocab", "float"])
def test_decode_step_rejects_a_bad_prefix(two_doc_input, prefix, message):
    inp, graph = two_doc_input
    weights = small_weights(inp)
    V = weights.config.vocab_size
    state = start_state(inp, weights, graph)
    state.prefix_ids = [{"bos": weights.bos_id, "V": V}.get(t, t) for t in prefix]
    with pytest.raises(ValueError) as exc:
        decode_step(state, weights, graph)
    assert str(exc.value) == message.replace("V", str(V))


def test_decode_step_is_a_beam_slot_byte_for_byte(monkeypatch):
    """At the benchmark's shape (d 64, 8 layers, 8 heads, L 30, 32 steps) a
    beam-1 search's kernel logits at every step equal ``decode_step``'s on
    that step's prefix byte for byte, and its recorded float32 slices are
    ``decode_step``'s betas cast once: the public step and the beam run
    one path."""
    (inp,), (graph,), weights = bench_shape_pair(sets=1)
    calls = []
    kernel = ao.graphattn._decode_block

    def spy(ids, start, cache, group, weights, betas):
        logits = kernel(ids, start, cache, group, weights, betas)
        calls.append((start, ids.copy(), logits.copy()))
        return logits

    monkeypatch.setattr(ao.graphattn, "_decode_block", spy)
    result = ao.generate_with_beam(inp, weights, graph, ao.GenerationConfig(beam_size=1))
    monkeypatch.undo()
    prefix = [weights.bos_id] + result.tokens
    assert [start for start, *_ in calls] == list(range(32))
    state = start_state(inp, weights, graph)
    for step, (_, ids, logits) in enumerate(calls):
        state.prefix_ids = prefix[:step + 1]
        want_logits, want_betas = decode_step(state, weights, graph)
        assert logits[0, 0].tobytes() == want_logits.tobytes(), step
        assert (result.awd.values[0, step].tobytes()
                == want_betas.astype(np.float32).tobytes()), step
        assert ids.ravel().tolist() == [prefix[step]], step


def test_decode_step_deterministic(two_doc_input):
    inp, graph = two_doc_input
    weights = small_weights(inp, seed=9)
    state = start_state(inp, weights, graph)
    state.prefix_ids = [weights.bos_id, weights.token_id("the")]
    l1, b1 = decode_step(state, weights, graph)
    l2, b2 = decode_step(state, weights, graph)
    assert np.array_equal(l1, l2) and np.array_equal(b1, b2)


def test_decode_step_betas_on_simplex(two_doc_input):
    inp, graph = two_doc_input
    weights = small_weights(inp, seed=10, num_layers=3, num_heads=4, d_model=16)
    state = start_state(inp, weights, graph)
    _, betas = decode_step(state, weights, graph)
    assert np.all(betas >= 0.0)
    assert np.allclose(betas.sum(axis=-1), 1.0, atol=1e-9)
    assert not betas[:, :, inp.unit_pad].any()


def test_decode_step_rejects_overlong_prefix(two_doc_input):
    inp, graph = two_doc_input
    weights = small_weights(inp, max_len=2)
    state = start_state(inp, weights, graph)
    state.prefix_ids = [weights.bos_id, weights.eos_id, weights.eos_id]
    with pytest.raises(ValueError, match="max_len"):
        decode_step(state, weights, graph)


# ---------------------------------------------------------------------------
# synthetic weights
# ---------------------------------------------------------------------------

def test_synthetic_weights_seed_reproducible(two_doc_input):
    inp, _ = two_doc_input
    a = small_weights(inp, seed=21)
    b = small_weights(inp, seed=21)
    c = small_weights(inp, seed=22)
    assert np.array_equal(a.w_q, b.w_q) and np.array_equal(a.embedding, b.embedding)
    assert not np.array_equal(a.w_q, c.w_q)


PARAM_NAMES = [
    "embedding", "pos_encoding", "w_q", "w_k", "w_g",
    "cp_w1", "cp_b1", "cp_w2", "cp_b2",
    "sa_wq", "sa_wk", "sa_wv", "sa_wo",
    "ff_w1", "ff_b1", "ff_w2", "ff_b2", "w_out",
]


@pytest.mark.parametrize("seed, shape", [
    (0, dict(d_model=8, num_layers=1, num_heads=1, vocab_size=6, num_units=3, max_len=4)),
    (5, dict(d_model=16, num_layers=2, num_heads=4, vocab_size=9, num_units=12, max_len=5)),
    (1, dict(d_model=64, num_layers=8, num_heads=8, vocab_size=40, num_units=30, max_len=32)),
])
def test_synthetic_weights_match_explicit_draw_sequence(seed, shape):
    cfg = ao.ModelConfig(**shape)
    weights = ao.make_synthetic_weights(seed, cfg)
    dl, mh, d, dh, V = cfg.num_layers, cfg.num_heads, cfg.d_model, cfg.d_head, cfg.vocab_size
    rng = np.random.default_rng(seed)
    scale = 1.0 / math.sqrt(d)
    expected = {
        "embedding": rng.normal(0.0, 1.0, size=(V, d)) * scale,
        "pos_encoding": ao.graphattn.sinusoidal_positions(max(cfg.max_len + 1, cfg.num_units), d),
        "w_q": rng.normal(0.0, scale, size=(dl, mh, d, dh)),
        "w_k": rng.normal(0.0, scale, size=(dl, mh, d, dh)),
        "w_g": rng.normal(0.0, scale, size=(dl, mh * d, d)),
        "cp_w1": rng.normal(0.0, scale, size=(dl, d, d)),
        "cp_b1": rng.normal(0.0, 0.1, size=(dl, d)),
        "cp_w2": rng.normal(0.0, scale, size=(dl, d)),
        "cp_b2": rng.normal(0.0, 0.1, size=(dl,)),
        "sa_wq": rng.normal(0.0, scale, size=(dl, d, d)),
        "sa_wk": rng.normal(0.0, scale, size=(dl, d, d)),
        "sa_wv": rng.normal(0.0, scale, size=(dl, d, d)),
        "sa_wo": rng.normal(0.0, scale, size=(dl, d, d)),
        "ff_w1": rng.normal(0.0, scale, size=(dl, d, d)),
        "ff_b1": rng.normal(0.0, 0.1, size=(dl, d)),
        "ff_w2": rng.normal(0.0, scale, size=(dl, d, d)),
        "ff_b2": rng.normal(0.0, 0.1, size=(dl, d)),
        "w_out": rng.normal(0.0, scale, size=(d, V)),
    }
    assert list(expected) == PARAM_NAMES
    for name, value in expected.items():
        actual = getattr(weights, name)
        assert actual.dtype == value.dtype and actual.shape == value.shape, name
        assert actual.tobytes() == value.tobytes(), name


def test_weights_file_round_trip(tmp_path, two_doc_input):
    inp, _ = two_doc_input
    weights = small_weights(inp, seed=33)
    path = tmp_path / "w.json"
    ao.write_weights(weights, path)
    obj = json.loads(path.read_text())
    assert list(obj["params"]) == PARAM_NAMES
    back = ao.read_weights(path)
    assert back.config == weights.config
    assert back.vocab == weights.vocab
    for name in PARAM_NAMES:
        assert np.array_equal(getattr(back, name), getattr(weights, name)), name


def test_weights_validation_catches_shape_error(two_doc_input):
    inp, _ = two_doc_input
    weights = small_weights(inp)
    weights.w_q = weights.w_q[:, :, :-1, :]
    with pytest.raises(ValueError, match="w_q"):
        weights.validate()


# ---------------------------------------------------------------------------
# concentrator construction
# ---------------------------------------------------------------------------

def concentrator_setup(target=2, dl=3, mh=2, d_model=32, sigma=1.0):
    docs = sentinel_paragraphs(0, num_docs=2, paras_per_doc=3)
    inp, graph = unitized_and_graph(docs, L=6, T=16)
    vocab = vocab_of(inp)
    cfg = ao.ModelConfig(
        d_model=d_model, num_layers=dl, num_heads=mh, sigma=sigma,
        vocab_size=len(vocab), num_units=inp.L, max_len=10,
    )
    weights = ao.make_concentrator_weights(cfg, target=target, vocab=vocab)
    return inp, graph, vocab, weights


def test_concentrator_margin_dominates_graph_shift():
    inp, graph, _, weights = concentrator_setup(target=2)
    cfg = weights.config
    encoded = ao.encode_units(inp, weights, graph)
    state = start_state(inp, weights, graph)
    real = ~inp.unit_pad
    for step_tokens in ([], [weights.eos_sent_id], [5, 6, 7]):
        y = (weights.embedding[[weights.bos_id] + step_tokens]
             + weights.pos_encoding[: 1 + len(step_tokens)])[-1]
        for layer in range(cfg.num_layers):
            for head in range(cfg.num_heads):
                e = ao.unscaled_attention(
                    y, encoded, weights.w_q[layer, head], weights.w_k[layer, head]
                )
                others = [e[j] for j in np.flatnonzero(real) if j != 2]
                margin = e[2] - max(others)
                assert margin > 0.9 * 25.0
                assert margin > 1.0 / (2.0 * cfg.sigma**2)


def test_concentrator_argmax_every_layer_and_step():
    inp, graph, _, weights = concentrator_setup(target=2)
    result = ao.generate_with_beam(inp, weights, graph, ao.GenerationConfig(beam_size=2, max_len=6))
    picks = np.argmax(result.awd.values, axis=-1)
    assert (picks == 2).all()


def test_concentrator_token_script_is_emitted():
    inp, graph, vocab, _ = concentrator_setup(target=1)
    cfg = ao.ModelConfig(
        d_model=32, num_layers=2, num_heads=2, sigma=1.0,
        vocab_size=len(vocab), num_units=inp.L, max_len=10,
    )
    eos = vocab.index("<eos>")
    eoss = vocab.index(EOS_SENT_TOKEN)
    script = [5, 6, eoss, 7, eoss, eos]
    weights = ao.make_concentrator_weights(cfg, target=1, vocab=vocab, token_script=script)
    result = ao.generate_with_beam(inp, weights, graph, ao.GenerationConfig(beam_size=2))
    assert result.tokens == script


def test_concentrator_rejects_small_d_model():
    inp, graph, vocab, _ = concentrator_setup(target=0)
    cfg = ao.ModelConfig(
        d_model=8, num_layers=1, num_heads=1, vocab_size=len(vocab),
        num_units=inp.L, max_len=10,
    )
    with pytest.raises(ValueError, match="d_model"):
        ao.make_concentrator_weights(cfg, target=0, vocab=vocab)


# ---------------------------------------------------------------------------
# beam search
# ---------------------------------------------------------------------------

def greedy_tokens(inp, weights, graph, max_len):
    """Reference greedy decode with the same token banning."""
    state = start_state(inp, weights, graph)
    banned = {weights.pad_id, weights.bos_id}
    tokens = []
    for _ in range(max_len):
        logits, _ = decode_step(state, weights, graph)
        logp = _log_softmax(logits)
        for tok in banned:
            logp[tok] = -np.inf
        tok = int(np.argmax(logp))
        tokens.append(tok)
        state.prefix_ids.append(tok)
        if tok == weights.eos_id:
            break
    return tokens


@dataclass
class _Hypothesis:
    ids: list[int]
    logprob: float
    finished: bool
    last_betas: np.ndarray | None  # (dl, mh, L) float32 recorded at its last step


def _reference_normalized(logprob, length, alpha):
    return logprob / (max(length, 1) ** alpha)


def reference_generate_with_beam(inp, weights, graph, gen):
    """Hypothesis-object beam search: the oracle for generate_with_beam.

    Each live hypothesis runs the full-prefix ``reference_decode_step``
    and proposes its top beam_size tokens by log-probability, and a
    Python sort of (score, slot, token) tuples picks the next beams.
    """
    cfg = weights.config
    max_steps = gen.steps(cfg)
    eos = weights.eos_id
    banned = {weights.pad_id, weights.bos_id}
    encoded = encode_units(inp, weights, graph)
    bs = gen.beam_size
    dl, mh, L = cfg.num_layers, cfg.num_heads, inp.L
    beams = [_Hypothesis(ids=[], logprob=0.0, finished=False, last_betas=None)]
    records, traces = [], []
    for _ in range(max_steps):
        step_betas = np.zeros((bs, dl, mh, L), dtype=np.float32)
        candidates = []  # (score, parent_slot, token or -1 for a frozen hypothesis, logprob)
        for slot, hyp in enumerate(beams):
            if hyp.finished:
                step_betas[slot] = hyp.last_betas
                score = _reference_normalized(hyp.logprob, len(hyp.ids), gen.length_penalty)
                candidates.append((score, slot, -1, hyp.logprob))
                continue
            state = DecoderState(prefix_ids=[weights.bos_id] + hyp.ids, encoded=encoded)
            logits, betas = reference_decode_step(state, weights, graph)
            hyp.last_betas = step_betas[slot] = betas.astype(np.float32)
            logp = _log_softmax(logits)
            for tok in banned:
                logp[tok] = -np.inf
            for tok in np.argsort(-logp, kind="stable")[: min(bs, len(logp))]:
                if np.isfinite(logp[tok]):
                    total = hyp.logprob + float(logp[tok])
                    score = _reference_normalized(total, len(hyp.ids) + 1, gen.length_penalty)
                    candidates.append((score, slot, int(tok), total))
        for slot in range(len(beams), bs):
            step_betas[slot] = step_betas[slot % len(beams)]
        records.append(step_betas)
        candidates.sort(key=lambda c: (-c[0], c[1], c[2]))
        new_beams = []
        for _, parent, tok, total in candidates[:bs]:
            hyp = beams[parent]
            new_beams.append(hyp if tok < 0 else _Hypothesis(
                ids=hyp.ids + [tok], logprob=total, finished=tok == eos, last_betas=hyp.last_betas))
        traces.append([c[1] for c in candidates[:bs]] + [0] * (bs - len(new_beams)))
        beams = new_beams
        if all(h.finished for h in beams):
            break
    best_slot, best_score = 0, -np.inf
    for slot, hyp in enumerate(beams):
        score = _reference_normalized(hyp.logprob, len(hyp.ids), gen.length_penalty)
        if score > best_score:
            best_slot, best_score = slot, score
    return ao.GenerationResult(
        tokens=list(beams[best_slot].ids), beam_trace=traces,
        awd=ao.AwdTensor(values=np.stack(records, axis=1)),
        winning_beam=best_slot, score=best_score,
    )


def test_beam_matches_reference_over_seeded_sweep():
    """Tokens, trace, winner and AWD bytes equal the reference exactly.

    The score is within 1e-12: the cached, batched decoder sums in a
    different order than the full-prefix reference. Output weights are
    scaled up (so some runs end every beam early and exercise frozen
    hypotheses) and, in half the runs, rounded to integers (so some
    tokens share an output column and tie).
    """
    rng = np.random.default_rng(2024)
    finished_early = tied = 0
    for i in range(330):
        inp = random_unitized(rng, paras_per_doc=int(rng.integers(1, 3)), L=6, T=8)
        graph = ao.build_graph(inp)
        vocab = vocab_of(inp)
        max_len = 1 + i % 6
        cfg = ao.ModelConfig(d_model=8, num_layers=1 + i % 2, num_heads=(1, 2, 4)[i % 3],
                             vocab_size=len(vocab), num_units=inp.L, max_len=max_len)
        weights = ao.make_synthetic_weights(i, cfg, vocab=vocab)
        weights.w_out = weights.w_out * float(rng.choice([1.0, 4.0, 16.0, 40.0]))
        if i % 2:
            weights.w_out = np.round(weights.w_out)
        allowed = weights.w_out[:, 2:]  # every token but <pad> and <bos>
        tied += len(np.unique(allowed, axis=1)) < allowed.shape[1]
        gen = ao.GenerationConfig(beam_size=1 + i % 11, max_len=max_len,
                                  length_penalty=(0.0, 0.6, 1.0, 2.0)[i % 4])
        got = ao.generate_with_beam(inp, weights, graph, gen)
        want = reference_generate_with_beam(inp, weights, graph, gen)
        assert got.tokens == want.tokens, i
        assert got.beam_trace == want.beam_trace, i
        assert got.winning_beam == want.winning_beam, i
        assert abs(got.score - want.score) <= 1e-12, i
        assert got.awd.values.tobytes() == want.awd.values.tobytes(), i
        finished_early += len(got.beam_trace) < max_len
    assert finished_early >= 5 and tied >= 20, (finished_early, tied)


def test_equal_scores_break_ties_by_token_not_log_probability():
    """One sort over rounded scores: ties go to the lower slot, then the lower token.

    After <bos> b, <eos> and <eoss> have logits one ulp apart, so their
    log-probabilities differ but both totals round to the same float.
    The greedy beam takes <eos>; the reference, which first keeps each
    hypothesis's top tokens by log-probability, takes <eoss>.
    """
    inp, graph = toy_input()
    transition = {v: np.zeros(len(TOY_VOCAB)) for v in range(len(TOY_VOCAB))}
    transition[1][5] = 1.0
    transition[5][2] = 1.0
    transition[5][3] = np.nextafter(1.0, 2.0)
    weights = markov_weights(transition, max_len=2, L=inp.L)
    gen = ao.GenerationConfig(beam_size=1, max_len=2, length_penalty=0.0)
    assert ao.generate_with_beam(inp, weights, graph, gen).tokens == [5, 2]
    assert reference_generate_with_beam(inp, weights, graph, gen).tokens == [5, 3]


def test_beam_size_one_is_greedy(two_doc_input):
    inp, graph = two_doc_input
    weights = small_weights(inp, seed=41, max_len=5)
    result = ao.generate_with_beam(inp, weights, graph, ao.GenerationConfig(beam_size=1, max_len=5))
    assert result.tokens == greedy_tokens(inp, weights, graph, 5)
    assert result.awd.dims[0] == 1
    assert result.winning_beam == 0


def test_beam_determinism(two_doc_input):
    inp, graph = two_doc_input
    weights = small_weights(inp, seed=43, max_len=5)
    gen = ao.GenerationConfig(beam_size=3, max_len=5)
    a = ao.generate_with_beam(inp, weights, graph, gen)
    b = ao.generate_with_beam(inp, weights, graph, gen)
    assert a.tokens == b.tokens
    assert a.beam_trace == b.beam_trace
    assert np.array_equal(a.awd.values, b.awd.values)
    assert a.score == b.score


def test_beam_awd_slices_on_simplex(two_doc_input):
    inp, graph = two_doc_input
    weights = small_weights(inp, seed=44, max_len=4)
    result = ao.generate_with_beam(inp, weights, graph, ao.GenerationConfig(beam_size=3, max_len=4))
    sums = result.awd.values.sum(axis=-1, dtype=np.float64)
    assert np.all(result.awd.values >= 0.0)
    assert np.max(np.abs(sums - 1.0)) < 1e-6


def test_beam_trace_shape_and_range(two_doc_input):
    inp, graph = two_doc_input
    weights = small_weights(inp, seed=45, max_len=4)
    result = ao.generate_with_beam(inp, weights, graph, ao.GenerationConfig(beam_size=3, max_len=4))
    bs, sl = result.awd.dims[:2]
    assert len(result.beam_trace) == sl
    for row in result.beam_trace:
        assert len(row) == bs
        assert all(0 <= parent < bs for parent in row)


def test_generation_config_checks_and_resolves_steps(two_doc_input):
    for bad in ({"beam_size": 0}, {"max_len": 0}):
        with pytest.raises(ValueError, match="must be >= 1"):
            ao.GenerationConfig(**bad)
    model = small_weights(two_doc_input[0], max_len=5).config
    assert ao.GenerationConfig().steps(model) == 5
    assert ao.GenerationConfig(max_len=3).steps(model) == 3
    with pytest.raises(ValueError, match=r"max_len 6 outside \[1, 5\]"):
        ao.GenerationConfig(max_len=6).steps(model)
    for alpha in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"length_penalty must be finite, got {alpha}"):
            ao.GenerationConfig(length_penalty=alpha)
    for alpha in (2000.0, -2000.0):  # 5.0 ** alpha overflows or underflows to 0
        with pytest.raises(ValueError, match=f"length_penalty {alpha} makes 5 \\*\\* "):
            ao.GenerationConfig(length_penalty=alpha).steps(model)
    assert ao.GenerationConfig(max_len=1, length_penalty=2000.0).steps(model) == 1
    assert ao.GenerationConfig(length_penalty=400.0).steps(model) == 5


def test_beam_requires_eos_in_vocab(two_doc_input):
    inp, graph = two_doc_input
    vocab = ["<pad>", "<bos>", "x", "y"]
    cfg = ao.ModelConfig(d_model=8, num_layers=1, num_heads=1, vocab_size=4,
                         num_units=inp.L, max_len=4)
    weights = ao.make_synthetic_weights(0, cfg, vocab=vocab)
    from attnorigin.graphattn import VocabularyError
    with pytest.raises(VocabularyError):
        ao.generate_with_beam(inp, weights, graph)


# ---------------------------------------------------------------------------
# lockstep groups and top-k selection
# ---------------------------------------------------------------------------

def spy_on_kernel(monkeypatch, caches=None):
    """Record (sets, hypotheses per set, L, start, token of each hypothesis) of
    every ``_decode_block`` call, and its cache into ``caches`` if given."""
    calls = []
    kernel = ao.graphattn._decode_block

    def spy(ids, start, cache, group, weights, betas):
        calls.append((ids.shape[0], ids.shape[1], group.x.shape[-2], start, ids.copy()))
        if caches is not None:
            caches.append(cache)
        return kernel(ids, start, cache, group, weights, betas)

    monkeypatch.setattr(ao.graphattn, "_decode_block", spy)
    return calls


def spy_recorder(logs):
    """A recorder factory that logs each set's ``record`` and ``finish`` calls
    into ``logs[i]`` and hands them on to ``awd.in_memory``."""

    class Spy:
        def __init__(self, inner, log):
            self.inner, self.log = inner, log

        def record(self, step, slices):
            self.log.append(("record", step))
            self.inner.record(step, slices)

        def finish(self, steps):
            self.log.append(("finish", steps))
            return self.inner.finish(steps)

    @contextmanager
    def recorder(i, dims):
        with ao.awd.in_memory(i, dims) as inner:
            yield Spy(inner, logs.setdefault(i, []))

    return recorder


def mixed_file(rng):
    """Six sets of 6 units, three of 7, then two of 6 again, most with pads."""
    inputs = [random_unitized(rng, paras_per_doc=int(rng.integers(1, 3)), L=L, T=8,
                              set_id=f"s{i}")
              for i, L in enumerate([6] * 6 + [7] * 3 + [6] * 2)]
    return inputs, [ao.build_graph(inp) for inp in inputs]


def test_lockstep_sets_match_the_reference_set_by_set(monkeypatch):
    """``generate_sets`` over a mixed file equals the per-set reference beam.

    Tokens, traces and winners are exact, scores within 1e-12 and AWD
    bytes equal. GROUP_BYTES is set to eight hypotheses' key/value caches,
    so at beam sizes 1-5 the groups hold min(GROUP_SETS, max(1, GROUP_BYTES
    // (beam * cache bytes))) = 8, 4, 2, 2 and 1 consecutive sets of one L
    (at GROUP_SETS 8); a group of four cuts the six 6-unit sets at four and
    the change to 7 units splits a group.
    Scaled-up output weights end some sets early with <eos> while the rest
    of their group runs on. An ended set rides along to its group's end:
    every call of a group carries all its sets and writes into the cache
    buffer of its first call, and a set's recorder gets one ``record`` per
    decoded step, in order, then ``finish``.

    A kernel row is a beam slot: a group's first call has one row per
    set, and every later call one per hypothesis, ``beam`` of them, since
    each hypothesis has more allowed tokens than ``beam``. A finished
    slot rides along until its set ends, fed <eos> or -1.
    """
    rng = np.random.default_rng(77)
    inputs, graphs = mixed_file(rng)
    assert sum(inp.unit_pad.any() for inp in inputs) >= 8
    vocab = ao.graphattn.build_vocab(t for inp in inputs for u in inp.units for t in u.tokens)
    cfg = ao.ModelConfig(d_model=8, num_layers=2, num_heads=2, vocab_size=len(vocab),
                         num_units=7, max_len=6)
    weights = ao.make_synthetic_weights(1, cfg, vocab=vocab)
    weights.w_out = weights.w_out * 4.0
    assert len(vocab) - 2 > 5  # tokens but <pad> and <bos>, against the largest beam

    hypothesis = 16 * cfg.num_layers * 6 * cfg.d_model  # float64 key/value cache, 6 steps
    budget = 8 * hypothesis
    runs = [6, 3, 2]  # lengths of the runs of consecutive sets of one L: 6, 7, 6
    ran_on = 0  # groups in which one set ended with <eos> before another
    carried = 0  # multi-set calls with a finished slot's row
    for beam in range(1, 6):
        gen = ao.GenerationConfig(beam_size=beam, max_len=6, length_penalty=0.6)
        monkeypatch.setattr(ao.graphattn, "GROUP_BYTES", budget)
        caches, logs = [], {}
        calls = spy_on_kernel(monkeypatch, caches)
        got = list(ao.graphattn.generate_sets(inputs, weights, graphs, gen,
                                              spy_recorder(logs)))
        monkeypatch.undo()
        assert len(got) == len(inputs)
        for (sets, _, _, start, _), cache in zip(calls, caches, strict=True):
            if start == 0:
                group_sets, group_cache = sets, cache
            assert sets == group_sets and np.shares_memory(cache, group_cache), beam
        for i, (inp, graph, result) in enumerate(zip(inputs, graphs, got)):
            steps = len(result.beam_trace)
            assert logs[i] == [("record", step) for step in range(steps)] + [("finish", steps)]
            want = reference_generate_with_beam(inp, weights, graph, gen)
            assert result.tokens == want.tokens, (beam, i)
            assert result.beam_trace == want.beam_trace, (beam, i)
            assert result.winning_beam == want.winning_beam, (beam, i)
            assert abs(result.score - want.score) <= 1e-12, (beam, i)
            assert result.awd.values.tobytes() == want.awd.values.tobytes(), (beam, i)
        assert all(sets * rows * hypothesis <= max(budget, beam * hypothesis)
                   for sets, rows, *_ in calls)
        assert max(sets for sets, *_ in calls) <= ao.graphattn.GROUP_SETS
        assert [rows for _, rows, _, start, _ in calls] == [
            1 if start == 0 else beam for _, _, _, start, _ in calls], beam
        carried += sum(sets > 1 and np.isin(last, [weights.eos_id, -1]).any()
                       for sets, _, _, _, last in calls)
        sizes = [sets for sets, _, _, start, _ in calls if start == 0]
        size = min(ao.graphattn.GROUP_SETS, [8, 4, 2, 2, 1][beam - 1])
        assert size == min(ao.graphattn.GROUP_SETS, max(1, budget // (beam * hypothesis)))
        want_sizes = []
        for run in runs:
            want_sizes += [min(size, run - i) for i in range(0, run, size)]
        assert sizes == want_sizes, beam
        start = 0
        for size in sizes:
            lengths = [len(result.beam_trace) for result in got[start:start + size]]
            ran_on += len(set(lengths)) > 1
            start += size
    assert ran_on >= 5, ran_on
    assert carried >= 1, carried


def test_group_size_keeps_the_hypotheses_state_within_the_byte_budget():
    """At d_model 64, 8 layers and 32 steps a hypothesis holds a 256 KiB
    key/value cache: four beam-4 sets fit the 4 MiB budget, whatever the
    recorder, and GROUP_SETS caps narrower beams. Fewer steps give more
    hypotheses room, a wider model fewer; a beam too wide for the budget
    still gets a group of its own."""
    size = ao.graphattn._group_size
    cap = ao.graphattn.GROUP_SETS
    cfg = ao.ModelConfig(d_model=64, num_layers=8, num_heads=8, max_len=32)
    assert ao.graphattn.GROUP_BYTES == 16 * 16 * 8 * 32 * 64
    assert [size(cfg, beam, 32) for beam in (1, 4, 5, 8, 9, 17)] == [
        min(cap, 16), min(cap, 4), min(cap, 3), min(cap, 2), 1, 1]
    assert [size(cfg, beam, 8) for beam in (1, 4, 16, 17, 64, 65)] == [
        min(cap, 64), min(cap, 16), min(cap, 4), min(cap, 3), 1, 1]
    wide = ao.ModelConfig(d_model=256, num_layers=8, num_heads=8, max_len=32)
    assert [size(wide, beam, 32) for beam in (1, 2, 4)] == [min(cap, 4), min(cap, 2), 1]


def test_lockstep_beam_one_makes_one_call_per_group_step(monkeypatch):
    """24 beam-1 sets at max_len 8: groups of GROUP_SETS sets, one call per
    group and step; at GROUP_SETS 8, three groups of eight, 3 x 8 = 24
    eight-row calls (48 four-row calls at a cap of four)."""
    cap = ao.graphattn.GROUP_SETS
    assert 24 % cap == 0
    rng = np.random.default_rng(5)
    inputs = [random_unitized(rng, L=6, set_id=f"s{i}") for i in range(24)]
    graphs = [ao.build_graph(inp) for inp in inputs]
    vocab = ao.graphattn.build_vocab(t for inp in inputs for u in inp.units for t in u.tokens)
    cfg = ao.ModelConfig(d_model=16, num_layers=2, num_heads=2, vocab_size=len(vocab),
                         num_units=6, max_len=8)
    # The script never emits <eos>, so no set ends before max_len.
    weights = ao.make_concentrator_weights(cfg, target=1, vocab=vocab, token_script=[4] * 8)
    calls = spy_on_kernel(monkeypatch)
    results = list(ao.graphattn.generate_sets(inputs, weights, graphs,
                                              ao.GenerationConfig(beam_size=1, max_len=8)))
    assert [result.tokens for result in results] == [[4] * 8] * 24
    assert len(calls) == 24 // cap * 8
    assert all((sets, rows) == (cap, 1) for sets, rows, *_ in calls)


def test_generate_sets_checks_each_set_once(monkeypatch):
    """Ten sets, two groups at GROUP_SETS 8: ``generate_sets`` runs the unit
    checks once per set, naming it by position, and the beam search encodes
    the checked sets without checking them again; ``encode_units`` still
    checks its one set."""
    rng = np.random.default_rng(6)
    inputs = [random_unitized(rng, L=6, set_id=f"s{i}") for i in range(10)]
    graphs = [ao.build_graph(inp) for inp in inputs]
    vocab = ao.graphattn.build_vocab(t for inp in inputs for u in inp.units for t in u.tokens)
    cfg = ao.ModelConfig(d_model=8, num_layers=1, num_heads=2, vocab_size=len(vocab),
                         num_units=6, max_len=3)
    weights = ao.make_synthetic_weights(4, cfg, vocab=vocab)
    check = ao.graphattn._check_units
    checked = []

    def spy(inp, weights, graph, *where):
        checked.append((inp, where))
        return check(inp, weights, graph, *where)

    monkeypatch.setattr(ao.graphattn, "_check_units", spy)
    calls = spy_on_kernel(monkeypatch)
    results = list(ao.graphattn.generate_sets(inputs, weights, graphs,
                                              ao.GenerationConfig(beam_size=1)))
    assert len(results) == 10 and len({sets for sets, *_ in calls}) == 2
    assert [(id(inp), where) for inp, where in checked] == [
        (id(inp), (i,)) for i, inp in enumerate(inputs)]
    checked.clear()
    encode_units(inputs[3], weights, graphs[3])
    assert [(id(inp), where) for inp, where in checked] == [(id(inputs[3]), ())]


def bench_shape_pair(seed=16, sets=2, mode="paragraph", L=30, T=60):
    """Two (or ``sets``) sets of ``mode`` with L units of T tokens (paragraph,
    30 and 60 by default), with pads, and seeded synthetic weights at the
    benchmark's decoder shape: d 64, 8 layers, 8 heads, max_len 32."""
    rng = np.random.default_rng(seed)
    inputs = [random_sentence_set(rng, f"s{i}", mode, L, T) for i in range(sets)]
    assert all(inp.unit_pad.any() for inp in inputs)
    graphs = [ao.build_graph(inp) for inp in inputs]
    vocab = ao.graphattn.build_vocab(t for inp in inputs for u in inp.units for t in u.tokens)
    cfg = ao.ModelConfig(d_model=64, num_layers=8, num_heads=8, vocab_size=len(vocab),
                         num_units=L, max_len=32)
    return inputs, graphs, ao.make_synthetic_weights(2, cfg, vocab=vocab)


def test_beam_four_pairs_two_sets_per_call(monkeypatch):
    """At the benchmark's shape two beam-4 sets decode as one group: every call
    carries both sets, one row each at step 0 and four after it. Each set's
    tokens, trace, winner, score and AWD bytes equal decoding it alone."""
    inputs, graphs, weights = bench_shape_pair()
    gen = ao.GenerationConfig(beam_size=4, max_len=32)
    calls = spy_on_kernel(monkeypatch)
    got = list(ao.graphattn.generate_sets(inputs, weights, graphs, gen))
    monkeypatch.undo()
    assert [(sets, rows, start) for sets, rows, _, start, _ in calls] == [
        (2, 1 if start == 0 else 4, start) for start in range(32)]
    for i, (inp, graph, result) in enumerate(zip(inputs, graphs, got, strict=True)):
        alone = ao.generate_with_beam(inp, weights, graph, gen)
        assert result.tokens == alone.tokens, i
        assert result.beam_trace == alone.beam_trace, i
        assert result.winning_beam == alone.winning_beam, i
        assert result.score == alone.score, i
        assert result.awd.values.tobytes() == alone.awd.values.tobytes(), i


@pytest.mark.parametrize("n, start", [(1, 0), (4, 0), (4, 5)],
                         ids=["bos-one-row", "bos-four-rows", "later-step"])
def test_decode_block_gives_each_set_the_bytes_it_gets_alone(n, start):
    """Batch invariance: a set's logits, betas and cache rows from one
    ``_decode_block`` call over three sets equal its own call's byte for
    byte, also with one row per set, where a single 2-D product over every
    set's rows rounds differently from the set's own product."""
    inputs, graphs, weights = bench_shape_pair(sets=3)
    cfg = weights.config
    encoded = np.stack([encode_units(inp, weights, graph) for inp, graph in zip(inputs, graphs)])
    rng = np.random.default_rng(5)
    ids = rng.integers(4, cfg.vocab_size, size=(3, n, start + 1))
    ids[..., 0] = weights.bos_id
    runs = []
    for which in ([0, 1, 2], [0], [1], [2]):
        cache = np.zeros((2, cfg.num_layers, len(which), n, start + 1, cfg.d_model))
        betas = np.empty((len(which), n, cfg.num_layers, cfg.num_heads, 30))
        group = _prepare(encoded[which], [graphs[g] for g in which], weights)
        for position in range(start + 1):
            logits = _decode_block(ids[which, :, position], position, cache, group, weights,
                                   betas)
        runs.append((logits, betas, cache))
    (logits, betas, cache), alone = runs[0], runs[1:]
    for g, (own_logits, own_betas, own_cache) in enumerate(alone):
        assert logits[g].tobytes() == own_logits[0].tobytes(), g
        assert betas[g].tobytes() == own_betas[0].tobytes(), g
        assert cache[:, :, g].tobytes() == own_cache[:, :, 0].tobytes(), g


@pytest.mark.parametrize("beam", [1, 4])
def test_a_sets_results_do_not_depend_on_the_sets_beside_it(monkeypatch, beam):
    """One file decoded three ways, grouped, one set per group and in reverse
    order, gives each set the same tokens, trace, winner, score and AWD bytes.
    With one 2-D product over the group's rows, seed 0 at beam 4 moved one
    float32 value of the first set's tensor."""
    inputs, graphs, weights = bench_shape_pair(seed=0, sets=3)
    gen = ao.GenerationConfig(beam_size=beam, max_len=32)
    calls = spy_on_kernel(monkeypatch)
    grouped = list(ao.graphattn.generate_sets(inputs, weights, graphs, gen))
    assert calls[0][0] == 3
    reverse = list(ao.graphattn.generate_sets(inputs[::-1], weights, graphs[::-1], gen))[::-1]
    monkeypatch.setattr(ao.graphattn, "GROUP_SETS", 1)
    calls.clear()
    alone = list(ao.graphattn.generate_sets(inputs, weights, graphs, gen))
    assert {sets for sets, *_ in calls} == {1}
    for i, results in enumerate(zip(grouped, alone, reverse, strict=True)):
        assert len({r.awd.values.tobytes() for r in results}) == 1, i
        assert len({(tuple(r.tokens), str(r.beam_trace), r.winning_beam, r.score)
                    for r in results}) == 1, i


def test_every_recorder_gets_the_same_groups(monkeypatch, tmp_path):
    """At the benchmark's shape the default recorder and ``awd.open_recorder``
    make the same ``_decode_block`` calls: four beam-4 sets decode as one
    group either way, and record the same tensor bytes."""
    inputs, graphs, weights = bench_shape_pair(sets=4)
    gen = ao.GenerationConfig(beam_size=4, max_len=32)
    to_file = (lambda i, dims: ao.awd.open_recorder(tmp_path / f"s{i}.awd", dims),)
    shapes, runs = [], []
    for recorder in ((), to_file):
        calls = spy_on_kernel(monkeypatch)
        runs.append(list(ao.graphattn.generate_sets(inputs, weights, graphs, gen, *recorder)))
        monkeypatch.undo()
        shapes.append([(sets, rows, L, start) for sets, rows, L, start, _ in calls])
    assert shapes[0] == shapes[1]
    assert shapes[0][0] == (4, 1, 30, 0)
    for i, (in_memory, streamed) in enumerate(zip(*runs, strict=True)):
        assert streamed.awd is None
        assert streamed.tokens == in_memory.tokens, i
        assert (ao.read_awd(tmp_path / f"s{i}.awd").values.tobytes()
                == in_memory.awd.values.tobytes()), i


def gather_slots(cache, parent_rows, step):
    """The whole-cache gather that ``_reorder_slots`` replaces."""
    a, n = parent_rows.shape
    cache[:, :, :a, :n, :step] = cache[:, :, np.arange(a)[:, None], parent_rows, :step]


@pytest.mark.parametrize("parent_rows", [
    [[0, 1, 2, 3]],  # identity
    [[0, 0, 1, 2]],  # fan-out
    [[1, 0, 3, 2], [0, 1, 3, 2]],  # swaps
    [[1, 2, 0, 3], [2, 0, 1, 1]],  # 3-cycles, the second read by one more slot
    [[3, 3, 0, 1], [1, 0, 0, 1]],  # fan-out from a slot on a cycle
    [[2, 3], [1, 0]],  # sources past the decoding slots, then a swap
], ids=["identity", "fan-out", "swaps", "3-cycles", "cycle-fan-out", "past-n"])
def test_reorder_slots_equals_the_gather(parent_rows):
    rng = np.random.default_rng(8)
    cache = rng.normal(size=(2, 3, len(parent_rows), 4, 6, 5))
    want = cache.copy()
    gather_slots(want, np.array(parent_rows), 5)
    ao.graphattn._reorder_slots(cache, np.array(parent_rows), 5)
    assert cache.tobytes() == want.tobytes()


def test_reorder_slots_equals_the_gather_on_random_parents():
    """Random parent slots at beams 1-11, 1-3 sets, any slot count and step."""
    rng = np.random.default_rng(9)
    for beam, _ in itertools.product(range(1, 12), range(40)):
        sets, n, step = rng.integers(1, 4), rng.integers(1, beam + 1), rng.integers(0, 7)
        parent_rows = rng.integers(0, beam, size=(sets, n))
        cache = rng.normal(size=(2, 2, sets, beam, 6, 3))
        want = cache.copy()
        gather_slots(want, parent_rows, step)
        ao.graphattn._reorder_slots(cache, parent_rows, step)
        assert cache.tobytes() == want.tobytes(), (beam, parent_rows.tolist(), step)


@pytest.mark.parametrize("parent_rows, moved", [
    ([[1, 0, 3, 2], [1, 2, 0, 3]], 7),  # swaps, and a 3-cycle
    ([[0, 1, 2, 3], [0, 1, 2, 3]], 0),  # identity
], ids=["cycles", "identity"])
def test_reorder_slots_allocates_the_moved_rows_of_one_block(parent_rows, moved):
    """At the benchmark's cache shape, step 31, the reorder allocates the moved
    slots' (step, d) floats of one (keys or values, layer) block and small
    objects; at most half of one slot's (2, layers, step, d) floats for the
    cycles, and nothing sizeable when no slot moves."""
    cache = np.zeros((2, 8, 2, 4, 32, 64))
    block_row = 31 * 64 * cache.itemsize
    tracemalloc.start()
    try:
        ao.graphattn._reorder_slots(cache, np.array(parent_rows), 31)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= moved * block_row + 16 * 2**10


def traced_generate(inputs, weights, graphs, gen):
    """``generate_sets``' results and its tracemalloc peak."""
    tracemalloc.start()
    try:
        results = list(ao.graphattn.generate_sets(inputs, weights, graphs, gen))
        return results, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_generate_sets_memory_is_the_group_state():
    """The tracemalloc peak of two beam-4 sets at the paragraph benchmark's
    shape stays within the group's cache, AWD tensor and unit keys plus
    1 MiB (measured: 0.28 MiB; a whole-cache gather per step measured
    1.7-2.1 MiB). At the sentence benchmark's shape (L 60, beam 1, 8 steps)
    the eight sets of one GROUP_SETS 8 group stay within their caches, AWD
    tensors, unit keys, graph shift rows, encoded units and one step of
    slices, 3.88 MiB, plus 0.5 MiB (measured: 0.23 MiB). The weights are
    allocated before tracing starts."""
    inputs, graphs, weights = bench_shape_pair()
    cfg = weights.config
    cache = 2 * cfg.num_layers * 2 * 4 * 32 * cfg.d_model * 8
    awd = 2 * 4 * 32 * cfg.num_layers * cfg.num_heads * 30 * 4
    keys = cfg.num_layers * 2 * 30 * cfg.d_model * 8
    gen = ao.GenerationConfig(beam_size=4, max_len=32)
    results, peak = traced_generate(inputs, weights, graphs, gen)
    assert [len(result.beam_trace) for result in results] == [32, 32]
    assert peak < cache + awd + keys + 2**20, peak

    inputs, graphs, weights = bench_shape_pair(sets=8, mode="sentence", L=60, T=30)
    cache = 2 * cfg.num_layers * 8 * 1 * 8 * cfg.d_model * 8
    awd = 8 * 1 * 8 * cfg.num_layers * cfg.num_heads * 60 * 4
    keys = cfg.num_layers * 8 * 60 * cfg.d_model * 8
    shift = 8 * 60 * 60 * 8
    encoded = 8 * 60 * cfg.d_model * 8
    slices = 8 * 1 * cfg.num_layers * cfg.num_heads * 60 * 4
    state = cache + awd + keys + shift + encoded + slices
    assert round(state / 2**20, 2) == 3.88
    results, peak = traced_generate(inputs, weights, graphs,
                                    ao.GenerationConfig(beam_size=1, max_len=8))
    assert [len(result.beam_trace) for result in results] == [8] * 8
    assert peak < state + 2**19, peak


@pytest.mark.parametrize("mode, L, T, beam, max_len", [
    ("paragraph", 30, 60, 4, 32),  # paragraph-beam4
    ("sentence", 60, 30, 1, 8),  # sentence-greedy
])
def test_no_kernel_output_outlives_its_step(monkeypatch, mode, L, T, beam, max_len):
    """At both decoder workloads' shapes, one group of four sets, every
    earlier ``_decode_block`` call's logits are dead when the next call
    starts, and every call writes its betas into a view of the group's one
    float32 (sets, beam, layers, heads, L) slice buffer: a step's kernel
    never runs beside the last step's outputs or a second step of slices."""
    inputs, graphs, weights = bench_shape_pair(sets=4, mode=mode, L=L, T=T)
    kernel = ao.graphattn._decode_block
    outputs = []  # weak references to the logits of every call so far
    buffers = []  # the array that each call's betas buffer views

    def spy(ids, start, cache, group, weights, betas):
        alive = [i for i, ref in enumerate(outputs) if ref() is not None]
        assert not alive, f"step {start}: logits of steps {alive} alive"
        logits = kernel(ids, start, cache, group, weights, betas)
        outputs.append(weakref.ref(logits))
        buffers.append(betas.base)
        return logits

    monkeypatch.setattr(ao.graphattn, "_decode_block", spy)
    gen = ao.GenerationConfig(beam_size=beam, max_len=max_len)
    results = list(ao.graphattn.generate_sets(inputs, weights, graphs, gen))
    assert len(outputs) == max_len
    assert [len(result.beam_trace) for result in results] == [max_len] * 4
    slices = buffers[0]
    assert slices.dtype == np.float32 and slices.shape == (4, beam, 8, 8, L)
    assert all(base is slices for base in buffers)


def test_decode_block_allocates_no_betas_of_its_own():
    """The kernel writes each layer's betas straight into the caller's
    buffer. At d 64, 32 layers, 8 heads and L 30, a one-token call over
    four sets of four rows peaks below half of one float64 (4, 4, 32, 8,
    30) betas array, 0.94 MiB, which a kernel building its own betas
    needs whole (tracemalloc; measured: 0.22 MiB, as at 8 layers)."""
    inputs, graphs, weights = bench_shape_pair(sets=4)
    cfg = dataclasses.replace(weights.config, num_layers=32)
    weights = ao.make_synthetic_weights(2, cfg, vocab=weights.vocab)
    encoded = np.stack([encode_units(inp, weights, graph) for inp, graph in zip(inputs, graphs)])
    group = _prepare(encoded, graphs, weights)
    ids = np.random.default_rng(3).integers(4, cfg.vocab_size, size=(4, 4, 6))
    cache = np.zeros((2, cfg.num_layers, 4, 4, 6, cfg.d_model))
    slices = np.empty((4, 4, cfg.num_layers, cfg.num_heads, 30), dtype=np.float32)
    for position in range(5):
        _decode_block(ids[..., position], position, cache, group, weights, slices)
    tracemalloc.start()
    try:
        _decode_block(ids[..., 5], 5, cache, group, weights, slices)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < slices.size * 8 / 2, peak


@pytest.mark.parametrize("mode, L, T, beam, max_len", [
    ("paragraph", 30, 60, 4, 32),  # paragraph-beam4
    ("sentence", 60, 30, 1, 8),  # sentence-greedy
])
def test_each_beam_step_peaks_at_its_kernel_call(monkeypatch, mode, L, T, beam, max_len):
    """At the paragraph and sentence workloads' shapes (4 beam-4 sets, L 30,
    32 steps; 4 beam-1 sets, L 60, 8 steps) the tracemalloc peak of each
    step above the group's fixed state, traced from one kernel call to the
    next, stays within 1.25 times the kernel call's own peak: its logits
    and its temporaries, nothing left from the step before. Measured: at
    most 1.04 and 1.02 times; at the paragraph shape 1.56 when a step's
    outputs and score grid lived on through the next kernel call, and 1.65
    at step 0 when empty slots were filled from a gathered copy. The
    kernel's own peak (0.22 and 0.11 MiB) is graph attention's temporaries
    and the (4, beam, V) logits, so a bound on the outputs' bytes alone
    would not hold."""
    inputs, graphs, weights = bench_shape_pair(sets=4, mode=mode, L=L, T=T)
    kernel = ao.graphattn._decode_block
    fixed, steps, kernel_peaks = [], [], []  # kernel_peaks: (above its entry, above fixed)

    def spy(*args):
        current, peak = tracemalloc.get_traced_memory()
        if not fixed:
            fixed.append(current)
        else:  # the last step's peak: its kernel call's, or its scoring's and the reorder's
            steps.append(max(kernel_peaks[-1][1], peak - fixed[0]))
        tracemalloc.reset_peak()
        out = kernel(*args)
        peak = tracemalloc.get_traced_memory()[1]
        kernel_peaks.append((peak - current, peak - fixed[0]))
        tracemalloc.reset_peak()
        return out

    monkeypatch.setattr(ao.graphattn, "_decode_block", spy)
    gen = ao.GenerationConfig(beam_size=beam, max_len=max_len)
    tracemalloc.start()
    try:
        results = list(ao.graphattn.generate_sets(inputs, weights, graphs, gen))
    finally:
        tracemalloc.stop()
    assert [len(result.beam_trace) for result in results] == [max_len] * 4
    assert len(steps) == max_len - 1
    ratios = [peak / own for peak, (own, _) in zip(steps, kernel_peaks)]
    assert max(ratios) <= 1.25, ratios


def test_generate_sets_checks_every_input_before_decoding(two_doc_input, monkeypatch):
    inp, graph = two_doc_input
    weights = small_weights(inp, max_len=4)
    calls = spy_on_kernel(monkeypatch)
    other = identity_graph(inp.L + 1)
    with pytest.raises(ValueError, match="graph size"):
        ao.graphattn.generate_sets([inp, inp], weights, [graph, other])
    with pytest.raises(ValueError, match="2 inputs but 1 graphs"):
        ao.graphattn.generate_sets([inp, inp], weights, [graph])
    with pytest.raises(ValueError, match="max_len 5"):
        ao.graphattn.generate_sets([inp], weights, [graph], ao.GenerationConfig(max_len=5))
    assert calls == []


def test_generate_sets_rejects_a_graph_whose_pad_units_differ_from_the_input(monkeypatch):
    """A graph that zeroes a real unit would give that unit no attention."""
    inp, graph = unitized_and_graph([["alpha beta", "gamma delta", "epsilon zeta"]], L=4)
    assert inp.num_real_units == 3
    weights = small_weights(inp, max_len=3)
    calls = spy_on_kernel(monkeypatch)
    zeroed = graph.weights.copy()
    zeroed[2, :] = zeroed[:, 2] = 0.0
    with pytest.raises(ValueError) as info:
        ao.graphattn.generate_sets([inp, inp], weights,
                                   [graph, SimilarityGraph(size=4, weights=zeroed)])
    assert info.value.args == ("unit 2 is a non-pad unit but has graph diagonal 0", 1)
    filled = graph.weights.copy()
    filled[3, 3] = 1.0
    with pytest.raises(ValueError) as info:
        ao.graphattn.generate_sets([inp], weights, [SimilarityGraph(size=4, weights=filled)])
    assert info.value.args == ("unit 3 is a pad unit but has graph diagonal 1", 0)
    assert calls == []


def test_generate_sets_rejects_more_real_units_than_model_positions(monkeypatch):
    """``encode_units`` and ``start_state`` give the same message, without the position."""
    inp, graph = unitized_and_graph([["alpha beta", "gamma delta", "epsilon zeta"]], L=4)
    vocab = vocab_of(inp)
    cfg = ao.ModelConfig(d_model=16, num_layers=1, num_heads=2, vocab_size=len(vocab),
                         num_units=2, max_len=1)
    weights = ao.make_synthetic_weights(0, cfg, vocab=vocab)
    assert weights.pos_encoding.shape[0] == 2
    calls = spy_on_kernel(monkeypatch)
    with pytest.raises(ValueError) as info:
        ao.graphattn.generate_sets([inp], weights, [graph])
    assert info.value.args == ("3 units exceed the model's 2 positions", 0)
    assert calls == []
    for call in (encode_units, start_state):
        with pytest.raises(ValueError) as info:
            call(inp, weights, graph)
        assert info.value.args == ("3 units exceed the model's 2 positions",)


def with_unit_fault(inp, graph, fault):
    """Weights and a graph for the three-unit set ``inp`` (L 4) with one fault."""
    vocab = vocab_of(inp)
    weights = graph.weights.copy()
    if fault == "unknown-token":
        vocab = ["omega" if t == "alpha" else t for t in vocab]
    elif fault == "graph-size":
        weights = identity_graph(inp.L + 1).weights
    elif fault == "real-unit-as-pad":
        weights[2, :] = weights[:, 2] = 0.0
    elif fault == "pad-unit-as-real":
        weights[3, 3] = 1.0
    cfg = ao.ModelConfig(d_model=16, num_layers=1, num_heads=2, vocab_size=len(vocab),
                         num_units=inp.L, max_len=3)
    return (ao.make_synthetic_weights(0, cfg, vocab=vocab),
            SimilarityGraph(size=len(weights), weights=weights))


@pytest.mark.parametrize("fault, message", [
    ("unknown-token", "token 'alpha' not in the model vocabulary"),
    ("graph-size", "graph size 5 != unit count 4"),
    ("real-unit-as-pad", "unit 2 is a non-pad unit but has graph diagonal 0"),
    ("pad-unit-as-real", "unit 3 is a pad unit but has graph diagonal 1"),
], ids=["unknown-token", "graph-size", "real-unit-as-pad", "pad-unit-as-real"])
def test_encode_units_checks_a_set_as_generate_sets_does(fault, message):
    """``encode_units`` and ``start_state`` reject what ``generate_sets``
    rejects, with the same exception and message but no position; before,
    a real unit marked as a pad unit got no attention in ``decode_step``."""
    inp, graph = unitized_and_graph([["alpha beta", "gamma delta", "epsilon zeta"]], L=4)
    assert inp.num_real_units == 3
    weights, graph = with_unit_fault(inp, graph, fault)
    with pytest.raises(ValueError) as batch:
        ao.graphattn.generate_sets([inp], weights, [graph])
    assert batch.value.args == (message, 0)
    for call in (encode_units, start_state):
        with pytest.raises(type(batch.value)) as info:
            call(inp, weights, graph)
        assert info.value.args == (message,)


def entry_spy(entered):
    """A recorder factory that notes each set's position as its recorder is entered."""
    def recorder(i, dims):
        entered.append(i)
        return ao.awd.in_memory(i, dims)

    return recorder


@pytest.mark.parametrize("token", ao.graphattn.SPECIAL_TOKENS)
def test_generate_sets_checks_the_special_tokens_before_any_recorder(monkeypatch, token):
    """A vocabulary without ``<pad>`` or ``<bos>`` fails before the first group
    enters its recorders, not inside its beam search."""
    inp, graph = unitized_and_graph([["alpha beta", "gamma delta"]], L=4)
    vocab = [t for t in vocab_of(inp) if t != token]
    cfg = ao.ModelConfig(d_model=16, num_layers=1, num_heads=2, vocab_size=len(vocab),
                         num_units=inp.L, max_len=3)
    weights = ao.make_synthetic_weights(0, cfg, vocab=vocab)
    calls, entered = spy_on_kernel(monkeypatch), []
    with pytest.raises(ao.graphattn.VocabularyError) as info:
        ao.graphattn.generate_sets([inp], weights, [graph], recorder=entry_spy(entered))
    assert info.value.args == (f"token {token!r} not in the model vocabulary",)
    assert calls == entered == []


@pytest.mark.parametrize("words, message", [
    ("omega psi", "token 'omega' not in the model vocabulary"),
    ("   ", "no units; no attention targets"),
], ids=["unknown-token", "no-units"])
def test_generate_sets_checks_a_later_groups_set_before_decoding(monkeypatch, words, message):
    """Set 1 has another unit count, so it would decode in the second group;
    the call itself names its fault, before the first group starts."""
    first, graph = unitized_and_graph([["alpha beta", "gamma delta"]], L=4)
    second, other = unitized_and_graph([[words]], L=5)
    weights = small_weights(first, max_len=3)
    calls, entered = spy_on_kernel(monkeypatch), []
    with pytest.raises(ValueError) as info:
        ao.graphattn.generate_sets([first, second], weights, [graph, other],
                                   recorder=entry_spy(entered))
    assert info.value.args == (message, 1)
    assert calls == entered == []


def reference_best_cells(grid, k):
    """Per row, the full stable argsort of the negated row, cut at k, finite cells only."""
    rows, cols, ranks = [], [], []
    for r, row in enumerate(grid):
        order = np.argsort(-row, kind="stable")[:k]
        order = order[np.isfinite(row[order])]
        rows += [r] * len(order)
        cols += order.tolist()
        ranks += range(len(order))
    return rows, cols, ranks


@settings(max_examples=400)
@given(grid=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=12),
                       elements=st.sampled_from([-np.inf, -3.0, -1.5, -0.5, 0.0])),
       k=st.integers(1, 14))
@example(grid=np.array([[0.0, -1.5, -0.5, -0.5, -0.5, -3.0]]), k=3)  # ties at the cut
@example(grid=np.array([[-np.inf, -0.5, -np.inf, 0.0, -3.0]]), k=2)  # -inf cells
@example(grid=np.array([[-np.inf, -1.5, -np.inf], [-np.inf] * 3]), k=3)  # too few finite
def test_best_cells_equal_the_full_stable_argsort(grid, k):
    got = ao.graphattn._best_cells(grid, k)
    assert [part.tolist() for part in got] == list(reference_best_cells(grid, k))


# ---------------------------------------------------------------------------
# beam oracle: hand-set next-token logits, exhaustive enumeration
# ---------------------------------------------------------------------------

TOY_VOCAB = ["<pad>", "<bos>", "<eos>", "<eoss>", "a", "b"]


def markov_weights(transition, max_len=3, L=2, d_model=8, num_heads=2):
    """Toy model whose next-token logits depend only on the last token.

    Token v embeds as basis vector e_v, positions are zero, and the
    output projection maps e_v to ``transition[v]``; every other weight
    is zero so states pass through the stack unchanged.
    """
    V = len(TOY_VOCAB)
    cfg = ao.ModelConfig(d_model=d_model, num_layers=1, num_heads=num_heads,
                         vocab_size=V, num_units=L, max_len=max_len)
    weights = ao.make_concentrator_weights(cfg, target=0, vocab=TOY_VOCAB)
    weights.embedding = np.zeros((V, d_model))
    for v in range(V):
        weights.embedding[v, v] = 1.0
    weights.pos_encoding = np.zeros_like(weights.pos_encoding)
    weights.w_q = np.zeros_like(weights.w_q)
    weights.w_k = np.zeros_like(weights.w_k)
    weights.w_out = np.zeros((d_model, V))
    for v, row in transition.items():
        weights.w_out[v, :] = row
    return weights


def toy_transition():
    V = len(TOY_VOCAB)
    eos, eoss, a, b = 2, 3, 4, 5
    M = {v: np.zeros(V) for v in range(V)}
    # trap: "a" looks best from <bos> but leads nowhere; "b" compounds
    M[1][a] = 1.2
    M[1][b] = 1.0
    M[b][b] = 2.5
    M[b][eos] = 2.0
    M[eoss][a] = 0.3
    return M


def toy_input():
    """Tiny input whose tokens all live in TOY_VOCAB."""
    return unitized_and_graph([["a b", "b a"]], L=2, T=4)


def enumerate_best(inp, weights, graph, max_len, alpha):
    """Exhaustive search over every reachable hypothesis."""
    banned = {weights.pad_id, weights.bos_id}
    allowed = [v for v in range(len(TOY_VOCAB)) if v not in banned]
    interior = [v for v in allowed if v != weights.eos_id]

    def score(seq):
        state = start_state(inp, weights, graph)
        total = 0.0
        for tok in seq:
            logits, _ = decode_step(state, weights, graph)
            total += float(_log_softmax(logits)[tok])
            state.prefix_ids.append(tok)
        return total / (len(seq) ** alpha)

    candidates = []
    for k in range(max_len):
        for prefix in itertools.product(interior, repeat=k):
            candidates.append(list(prefix) + [weights.eos_id])
    for prefix in itertools.product(interior, repeat=max_len):
        candidates.append(list(prefix))
    scored = [(score(seq), seq) for seq in candidates]
    best = max(s for s, _ in scored)
    return best, [seq for s, seq in scored if abs(s - best) < 1e-9]


def test_beam_matches_exhaustive_enumeration():
    inp, graph = toy_input()
    weights = markov_weights(toy_transition(), max_len=3, L=inp.L)
    for alpha in (0.0, 0.6, 1.0):
        best_score, best_seqs = enumerate_best(inp, weights, graph, 3, alpha)
        result = ao.generate_with_beam(
            inp, weights, graph,
            ao.GenerationConfig(beam_size=len(TOY_VOCAB) ** 3, max_len=3,
                                length_penalty=alpha),
        )
        assert abs(result.score - best_score) < 1e-9
        assert result.tokens in best_seqs


def test_beam_search_beats_greedy_on_trap():
    # sanity: the toy transition actually requires search
    inp, graph = toy_input()
    weights = markov_weights(toy_transition(), max_len=3, L=2)
    best_score, _ = enumerate_best(inp, weights, graph, 3, 0.0)
    greedy = ao.generate_with_beam(
        inp, weights, graph, ao.GenerationConfig(beam_size=1, max_len=3, length_penalty=0.0)
    )
    assert greedy.score < best_score - 1e-6


def test_alpha_zero_ranks_by_raw_logprob():
    inp, graph = toy_input()
    weights = markov_weights(toy_transition(), max_len=3, L=inp.L)
    result = ao.generate_with_beam(
        inp, weights, graph,
        ao.GenerationConfig(beam_size=4, max_len=3, length_penalty=0.0),
    )
    # with alpha = 0 the score of the winner equals its raw logprob
    state = start_state(inp, weights, graph)
    total = 0.0
    for tok in result.tokens:
        logits, _ = decode_step(state, weights, graph)
        total += float(_log_softmax(logits)[tok])
        state.prefix_ids.append(tok)
    assert abs(result.score - total) < 1e-12


def tiny_weights(**changes):
    """Synthetic weights of a 1-layer, 1-head, d_model 4 model over 2 units,
    with ``changes`` replacing fields."""
    cfg = ao.ModelConfig(d_model=4, num_layers=1, num_heads=1, vocab_size=5, num_units=2,
                         max_len=2)
    weights = ao.make_synthetic_weights(0, cfg)
    return dataclasses.replace(weights, **changes) if changes else weights


def decode_all_pad():
    weights = tiny_weights()
    state = DecoderState(prefix_ids=[weights.bos_id], encoded=np.zeros((2, 4)))
    decode_step(state, weights, SimilarityGraph(size=2, weights=np.zeros((2, 2))))


SHIFT_FORM_MESSAGE = "shift_form must be one of ('sim-squared', 'diff-squared')"


@pytest.mark.parametrize("call, message", [
    (lambda: ao.graph_shifted_attention(np.zeros(2), SimilarityGraph(size=2, weights=np.eye(2)),
                                        0, 1.0, "cubed"), SHIFT_FORM_MESSAGE),
    (lambda: ao.ModelConfig(d_model=4, num_heads=1, shift_form="cubed"), SHIFT_FORM_MESSAGE),
    (lambda: ao.central_paragraph(np.zeros(4), tuple(tiny_weights().cp_w1[:1]), 0),
     "L must be >= 1"),
    (lambda: tiny_weights(vocab=ao.graphattn.SPECIAL_TOKENS),
     "vocab has 4 entries, config says 5"),
    (lambda: tiny_weights(embedding=np.full((5, 4), np.nan)),
     "embedding contains non-finite values"),
    (decode_all_pad, "all units are padded; no attention targets"),
], ids=["shift-form", "config-shift-form", "central-L", "short-vocab", "non-finite",
        "all-pad"])
def test_graphattn_input_checks_give_their_messages(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
