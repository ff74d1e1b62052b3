"""Tests for tensor alignment, sentence aggregation, and the binary format."""

import struct

import numpy as np
import pytest

import attnorigin as ao
from attnorigin.awd import (
    AWD_MAGIC,
    AwdFormatError,
    BadMagicError,
    BeamTraceError,
    DimOverflowError,
    SummaryRecord,
    TruncatedPayloadError,
    read_summary,
    write_summary,
)
from attnorigin.graphattn import AwdTensor


def random_tensor(rng, bs=2, sl=3, dl=2, mh=2, L=4):
    """Random tensor whose unit slices are probability vectors."""
    raw = rng.random((bs, sl, dl, mh, L)).astype(np.float32)
    raw /= raw.sum(axis=-1, keepdims=True)
    return AwdTensor(values=raw)


# ---------------------------------------------------------------------------
# binary round trip and errors
# ---------------------------------------------------------------------------

def test_round_trip_bit_identical(tmp_path):
    rng = np.random.default_rng(0)
    for i, dims in enumerate([(2, 3, 2, 2, 4), (1, 1, 1, 1, 1), (3, 5, 1, 2, 7)]):
        tensor = random_tensor(rng, *dims)
        path = tmp_path / f"t{i}.awd"
        ao.write_awd(tensor, path)
        back = ao.read_awd(path)
        assert back.values.dtype == np.float32
        assert np.array_equal(
            back.values.view(np.uint32), tensor.values.view(np.uint32)
        )


def test_write_awd_bytes_are_the_header_then_the_float32_payload(tmp_path):
    """Magic, five little-endian dims, then the values as float32 in C order.

    Also for strided views (the beam search hands out its tensor's first
    steps), float64 input and an empty tensor.
    """
    rng = np.random.default_rng(4)
    full = random_tensor(rng, bs=3, sl=5, dl=2, mh=2, L=4).values
    for i, values in enumerate([full, full[:, :3], full[::2, 1:], full.astype(np.float64),
                                full[:, :0]]):
        path = tmp_path / f"t{i}.awd"
        ao.write_awd(AwdTensor(values=values), path)
        payload = np.asarray(values, dtype="<f4").tobytes()
        assert path.read_bytes() == AWD_MAGIC + struct.pack("<5I", *values.shape) + payload, i


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.awd"
    path.write_bytes(b"XXXX" + struct.pack("<5I", 1, 1, 1, 1, 1) + b"\x00" * 4)
    with pytest.raises(BadMagicError):
        ao.read_awd(path)


def test_dim_overflow(tmp_path):
    path = tmp_path / "big.awd"
    path.write_bytes(AWD_MAGIC + struct.pack("<5I", 4096, 4096, 64, 64, 64))
    with pytest.raises(DimOverflowError):
        ao.read_awd(path)


def test_truncated_payload(tmp_path):
    path = tmp_path / "short.awd"
    path.write_bytes(AWD_MAGIC + struct.pack("<5I", 1, 1, 1, 1, 4) + b"\x00" * 8)
    with pytest.raises(TruncatedPayloadError):
        ao.read_awd(path)


def test_truncated_header(tmp_path):
    path = tmp_path / "hdr.awd"
    path.write_bytes(AWD_MAGIC + b"\x01\x00")
    with pytest.raises(TruncatedPayloadError):
        ao.read_awd(path)


@pytest.mark.parametrize("blob, error, message", [
    (AWD_MAGIC + struct.pack("<5I", 1, 1, 1, 1, 4) + b"\x00" * 8, TruncatedPayloadError,
     "payload has 8 bytes, dims (1, 1, 1, 1, 4) require 16"),
    (AWD_MAGIC + struct.pack("<5I", 1, 1, 1, 1, 1) + b"\x00" * 5, TruncatedPayloadError,
     "payload has 5 bytes, dims (1, 1, 1, 1, 1) require 4"),
    (AWD_MAGIC + b"\x01\x00", TruncatedPayloadError, "header truncated at 6 bytes"),
    (b"AW", BadMagicError, "bad magic b'AW', expected b'AWD1'"),
], ids=["short-payload", "trailing-bytes", "short-header", "short-magic"])
def test_read_awd_error_messages(tmp_path, blob, error, message):
    path = tmp_path / "bad.awd"
    path.write_bytes(blob)
    with pytest.raises(error) as info:
        ao.read_awd(path)
    assert str(info.value) == message


def test_errors_are_distinct_types():
    assert issubclass(BadMagicError, AwdFormatError)
    assert issubclass(DimOverflowError, AwdFormatError)
    assert issubclass(TruncatedPayloadError, AwdFormatError)
    assert BadMagicError is not DimOverflowError


# ---------------------------------------------------------------------------
# beam_decode_awd
# ---------------------------------------------------------------------------

def test_beam_decode_single_beam_is_identity():
    rng = np.random.default_rng(1)
    tensor = random_tensor(rng, bs=1, sl=4)
    trace = [[0]] * 4
    aligned = ao.beam_decode_awd(tensor, trace, winning_beam=0)
    assert np.array_equal(aligned, tensor.values[0])


def test_beam_decode_follows_parent_switch():
    rng = np.random.default_rng(2)
    tensor = random_tensor(rng, bs=2, sl=3)
    # step 0: both beams extend root slot 0
    # step 1: slot 0 from parent 0, slot 1 from parent 1
    # step 2: winner (slot 0) descends from parent 1
    trace = [[0, 0], [0, 1], [1, 0]]
    aligned = ao.beam_decode_awd(tensor, trace, winning_beam=0)
    assert np.array_equal(aligned[2], tensor.values[1, 2])
    assert np.array_equal(aligned[1], tensor.values[1, 1])
    assert np.array_equal(aligned[0], tensor.values[0, 0])


def test_beam_decode_truncates_to_length():
    rng = np.random.default_rng(3)
    tensor = random_tensor(rng, bs=2, sl=5)
    trace = [[0, 0]] + [[0, 1]] * 4
    aligned = ao.beam_decode_awd(tensor, trace, winning_beam=0, length=3)
    assert aligned.shape[0] == 3
    assert np.array_equal(aligned[2], tensor.values[0, 2])


def test_beam_decode_rejects_bad_trace():
    rng = np.random.default_rng(4)
    tensor = random_tensor(rng, bs=2, sl=2)
    with pytest.raises(BeamTraceError, match="parent"):
        ao.beam_decode_awd(tensor, [[0, 0], [2, 0]], winning_beam=0)
    with pytest.raises(BeamTraceError, match="steps"):
        ao.beam_decode_awd(tensor, [[0, 0]], winning_beam=0)
    with pytest.raises(BeamTraceError, match="winning"):
        ao.beam_decode_awd(tensor, [[0, 0], [0, 0]], winning_beam=5)
    with pytest.raises(BeamTraceError, match="length"):
        ao.beam_decode_awd(tensor, [[0, 0], [0, 0]], winning_beam=0, length=9)


# ---------------------------------------------------------------------------
# split_summary_sentences
# ---------------------------------------------------------------------------

EOSS = 3


def test_split_spans_hand_example():
    assert ao.split_summary_sentences([7, 8, EOSS, 9, EOSS], EOSS) == [(0, 3), (3, 5)]


def test_split_spans_no_marker():
    assert ao.split_summary_sentences([7, 8, 9], EOSS) == [(0, 3)]


def test_split_spans_empty():
    assert ao.split_summary_sentences([], EOSS) == []


def test_split_spans_trailing_tokens():
    assert ao.split_summary_sentences([7, EOSS, 8, 9], EOSS) == [(0, 2), (2, 4)]


def test_split_spans_cover_and_do_not_overlap():
    rng = np.random.default_rng(5)
    for _ in range(50):
        tokens = [int(t) for t in rng.integers(2, 6, size=rng.integers(0, 12))]
        spans = ao.split_summary_sentences(tokens, EOSS)
        flat = [i for a, b in spans for i in range(a, b)]
        assert flat == list(range(len(tokens)))


# ---------------------------------------------------------------------------
# aggregate_to_sentences
# ---------------------------------------------------------------------------

def aligned_from_rows(rows):
    """(sl, 1, 1, L) tensor from a list of unit-weight rows."""
    arr = np.array(rows, dtype=np.float64)
    return arr[:, None, None, :]


def test_aggregate_single_token_spans_is_identity():
    rng = np.random.default_rng(6)
    aligned = rng.random((4, 2, 2, 3))
    aligned /= aligned.sum(axis=-1, keepdims=True)
    spans = [(0, 1), (1, 2), (2, 3), (3, 4)]
    sent = ao.aggregate_to_sentences(aligned, spans)
    assert np.allclose(sent.values, aligned, atol=1e-15)


def test_aggregate_mean_hand_values():
    aligned = aligned_from_rows([[0.2, 0.8], [0.4, 0.6]])
    sent = ao.aggregate_to_sentences(aligned, [(0, 2)])
    assert np.allclose(sent.values[0, 0, 0], [0.3, 0.7], atol=1e-15)


def test_aggregate_median_renormalizes():
    aligned = aligned_from_rows([[0.1, 0.9], [0.5, 0.5], [0.9, 0.1]])
    sent = ao.aggregate_to_sentences(aligned, [(0, 3)], method="median")
    # per-cell median is 0.5/0.5, already normalized
    assert np.allclose(sent.values[0, 0, 0], [0.5, 0.5], atol=1e-15)
    skewed = aligned_from_rows([[0.1, 0.7, 0.2], [0.5, 0.3, 0.2], [0.9, 0.05, 0.05]])
    sent = ao.aggregate_to_sentences(skewed, [(0, 3)], method="median")
    med = np.median(skewed[:, 0, 0, :], axis=0)
    assert np.allclose(sent.values[0, 0, 0], med / med.sum(), atol=1e-15)
    assert abs(sent.values[0, 0, 0].sum() - 1.0) < 1e-12


def test_aggregate_median_zero_slice_falls_back_to_mean():
    rows = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    aligned = aligned_from_rows(rows)
    sent = ao.aggregate_to_sentences(aligned, [(0, 3)], method="median")
    assert np.allclose(sent.values[0, 0, 0], np.mean(rows, axis=0), atol=1e-15)
    assert abs(sent.values[0, 0, 0].sum() - 1.0) < 1e-12


def test_aggregate_mean_keeps_simplex():
    rng = np.random.default_rng(7)
    aligned = rng.random((6, 2, 3, 5))
    aligned /= aligned.sum(axis=-1, keepdims=True)
    sent = ao.aggregate_to_sentences(aligned, [(0, 2), (2, 5), (5, 6)])
    sums = sent.values.sum(axis=-1)
    assert np.max(np.abs(sums - 1.0)) < 1e-12


def test_aggregate_uniform_stays_uniform():
    L = 5
    aligned = np.full((4, 2, 2, L), 1.0 / L)
    sent = ao.aggregate_to_sentences(aligned, [(0, 2), (2, 4)])
    assert np.allclose(sent.values, 1.0 / L, atol=1e-15)


def test_aggregate_span_concat_reproduces_whole_mean():
    rng = np.random.default_rng(8)
    aligned = rng.random((7, 1, 2, 4))
    aligned /= aligned.sum(axis=-1, keepdims=True)
    spans = [(0, 3), (3, 4), (4, 7)]
    sent = ao.aggregate_to_sentences(aligned, spans)
    lengths = np.array([b - a for a, b in spans], dtype=np.float64)
    weighted = np.tensordot(lengths, sent.values, axes=(0, 0)) / lengths.sum()
    assert np.allclose(weighted, aligned.mean(axis=0), atol=1e-12)


def test_aggregate_rejects_bad_spans():
    aligned = np.full((3, 1, 1, 2), 0.5)
    with pytest.raises(ValueError):
        ao.aggregate_to_sentences(aligned, [(0, 2)])  # does not cover
    with pytest.raises(ValueError):
        ao.aggregate_to_sentences(aligned, [(0, 2), (2, 4)])  # out of bounds
    with pytest.raises(ValueError):
        ao.aggregate_to_sentences(aligned, [(0, 2), (1, 3)])  # overlap
    with pytest.raises(ValueError):
        ao.aggregate_to_sentences(aligned, [(0, 3)], method="mode")


def test_aggregate_empty_is_empty():
    aligned = np.empty((0, 1, 1, 2))
    sent = ao.aggregate_to_sentences(aligned, [])
    assert sent.dims == (0, 1, 1, 2)


def test_beam_decode_matches_teacher_forced_recomputation():
    # the aligned slices must be exactly the distributions the winning
    # hypothesis's ancestors computed, step by step
    from attnorigin.graphattn import DecoderState, decode_step, start_state
    from conftest import small_weights, unitized_and_graph

    inp, graph = unitized_and_graph(
        [["the cat sat down. It purred.", "a dog barked"], ["rivers flow far"]]
    )
    weights = small_weights(inp, seed=77, max_len=5)
    result = ao.generate_with_beam(
        inp, weights, graph, ao.GenerationConfig(beam_size=3, max_len=5)
    )
    aligned = ao.beam_decode_awd(
        result.awd, result.beam_trace, result.winning_beam, length=len(result.tokens)
    )
    state = start_state(inp, weights, graph)
    for t, tok in enumerate(result.tokens):
        _, betas = decode_step(state, weights, graph)
        assert np.array_equal(aligned[t], betas.astype(np.float32))
        state.prefix_ids.append(tok)


# ---------------------------------------------------------------------------
# summary token file
# ---------------------------------------------------------------------------

def test_summary_file_round_trip(tmp_path):
    record = SummaryRecord(
        set_id="s0", tokens=[4, 5, 3, 2], beam_trace=[[0, 0], [0, 1], [1, 0], [0, 1]],
        winning_beam=1,
    )
    path = tmp_path / "s.json"
    write_summary(record, path)
    back = read_summary(path)
    assert back == record


def test_summary_file_rejects_missing_keys(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"set_id": "s", "tokens": [1]}')
    with pytest.raises(ValueError, match="malformed"):
        read_summary(path)
