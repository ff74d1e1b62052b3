"""Tests for tensor alignment, sentence aggregation, and the binary format."""

import dataclasses
import itertools
import math
import struct

import numpy as np
import pytest

import attnorigin as ao
from attnorigin import awd as awdmod
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
from attnorigin.textunits import write_json
from conftest import random_unitized


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
# open_recorder: a tensor file written while its set decodes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("steps", [1, 3, 5])
def test_recorder_writes_what_write_awd_writes(tmp_path, steps):
    """Slices recorded step by step and finished at ``steps`` of 5 give the bytes
    of ``write_awd`` of those steps; the file keeps a temporary name until the
    recorder is left, and no temporary file remains."""
    tensor = random_tensor(np.random.default_rng(steps), bs=3, sl=5, dl=2, mh=2, L=4)
    path = tmp_path / "rec.awd"
    with awdmod.open_recorder(path, tensor.dims) as recorder:
        for step in range(steps):
            recorder.record(step, tensor.values[:, step])
        recorder.finish(steps)
        assert not path.exists()
    awdmod.write_awd(AwdTensor(values=tensor.values[:, :steps]), tmp_path / "want.awd")
    assert path.read_bytes() == (tmp_path / "want.awd").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["rec.awd", "want.awd"]


@pytest.mark.parametrize("to_file", [False, True], ids=["in_memory", "open_recorder"])
def test_recorders_copy_the_slices_they_are_given(tmp_path, to_file):
    """The decoder overwrites the array it hands to ``record`` at its next
    step, so a recorder copies what it keeps: one array refilled for every
    step and overwritten after each ``record`` returns still gives the
    recorded tensor's bytes, in memory and in the tensor file."""
    tensor = random_tensor(np.random.default_rng(7), bs=3, sl=4, dl=2, mh=2, L=4)
    path = tmp_path / "rec.awd"
    slices = np.empty(tensor.values[:, 0].shape, dtype=np.float32)
    opened = (awdmod.open_recorder(path, tensor.dims) if to_file
              else awdmod.in_memory(0, tensor.dims))
    with opened as recorder:
        for step in range(tensor.dims[1]):
            slices[...] = tensor.values[:, step]
            recorder.record(step, slices)
            slices[...] = np.nan
        result = recorder.finish(tensor.dims[1])
    got = ao.read_awd(path) if to_file else result
    assert got.values.tobytes() == tensor.values.tobytes()


def test_recorder_left_unfinished_or_by_an_error_leaves_the_old_file(tmp_path):
    path = tmp_path / "rec.awd"
    path.write_bytes(b"old")
    with pytest.raises(ValueError, match="closed before it was finished"):
        with awdmod.open_recorder(path, (1, 2, 1, 1, 3)) as recorder:
            recorder.record(0, np.full((1, 1, 1, 3), 1 / 3, dtype=np.float32))
    with pytest.raises(KeyboardInterrupt):
        with awdmod.open_recorder(path, (1, 2, 1, 1, 3)):
            raise KeyboardInterrupt
    assert [p.name for p in tmp_path.iterdir()] == ["rec.awd"]
    assert path.read_bytes() == b"old"


def test_one_group_records_each_set_as_write_awd_of_its_one_set_beam(tmp_path, monkeypatch):
    """Beam 3 puts two 6-unit sets in one lockstep group: s0 ends on <eos> after
    2 of 6 steps while s1 runs to max_len. Each file that ``open_recorder``
    writes while the group decodes equals ``write_awd`` of the set's
    ``generate_with_beam`` tensor byte for byte."""
    rng = np.random.default_rng(54)
    inputs = [random_unitized(rng, L=6, set_id=f"s{i}") for i in range(2)]
    graphs = [ao.build_graph(inp) for inp in inputs]
    vocab = ao.graphattn.build_vocab(t for inp in inputs for u in inp.units for t in u.tokens)
    cfg = ao.ModelConfig(d_model=8, num_layers=2, num_heads=2, vocab_size=len(vocab),
                         num_units=6, max_len=6)
    weights = ao.make_synthetic_weights(54, cfg, vocab=vocab)
    weights.w_out = weights.w_out * 4.0  # sharper outputs, so that a set can end on <eos>
    gen = ao.GenerationConfig(beam_size=3, max_len=6)
    groups = []
    search = ao.graphattn._beam_search

    def spy(inputs, *args):
        groups.append(len(inputs))
        return search(inputs, *args)

    monkeypatch.setattr(ao.graphattn, "_beam_search", spy)
    results = list(ao.graphattn.generate_sets(
        inputs, weights, graphs, gen,
        lambda i, dims: awdmod.open_recorder(tmp_path / f"s{i}.awd", dims)))
    monkeypatch.undo()
    assert groups == [2]
    assert [len(result.beam_trace) for result in results] == [2, 6]
    assert results[0].tokens[-1] == weights.eos_id
    for i, (inp, graph, result) in enumerate(zip(inputs, graphs, results)):
        want = ao.generate_with_beam(inp, weights, graph, gen)
        assert result.awd is None
        assert (result.tokens, result.beam_trace, result.winning_beam) == (
            want.tokens, want.beam_trace, want.winning_beam)
        ao.write_awd(want.awd, tmp_path / "want.awd")
        assert (tmp_path / f"s{i}.awd").read_bytes() == (tmp_path / "want.awd").read_bytes(), i
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s0.awd", "s1.awd", "want.awd"]


@pytest.mark.parametrize("ends_early", [True, False])
def test_in_memory_tensor_owns_exactly_its_decoded_steps(ends_early):
    """The default recorder's tensor of a beam-2 set that ends on <eos> after 3
    of 8 steps is an array of those 3 steps, not a view of the 8-step
    buffer it was recorded in; a set that runs to max_len gets that buffer."""
    inp = random_unitized(np.random.default_rng(3), L=4, set_id="s0")
    vocab = ao.graphattn.build_vocab(t for u in inp.units for t in u.tokens)
    cfg = ao.ModelConfig(d_model=32, num_layers=2, num_heads=2, vocab_size=len(vocab),
                         num_units=4, max_len=8)
    script = [5, vocab.index("<eos>")] if ends_early else [5] * 8
    weights = ao.make_concentrator_weights(cfg, target=1, vocab=vocab, token_script=script)
    result = ao.generate_with_beam(inp, weights, ao.build_graph(inp),
                                   ao.GenerationConfig(beam_size=2, max_len=8))
    values = result.awd.values
    assert values.shape == (2, 3 if ends_early else 8, 2, 2, 4)
    assert values.base is None and values.flags.c_contiguous


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
# read_winning_path: beam_decode_awd(read_awd(...)) from the winner's slices only
# ---------------------------------------------------------------------------

class ByteCountingFile:
    """An open file that counts the bytes its reads return."""

    def __init__(self, fh, counts):
        self._fh, self._counts = fh, counts

    def read(self, size=-1):
        data = self._fh.read(size)
        self._counts.append(len(data))
        return data

    def readinto(self, buffer):
        got = self._fh.readinto(buffer)
        self._counts.append(got)
        return got

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


def test_read_winning_path_equals_decoding_the_whole_tensor(tmp_path, monkeypatch):
    """Same bytes as ``beam_decode_awd(read_awd(...))``; the file gives up the
    header and the winner's slices, one read per run of equal ancestors."""
    rng = np.random.default_rng(7)
    reads = []
    monkeypatch.setattr(awdmod, "open",
                        lambda *a, **k: ByteCountingFile(open(*a, **k), reads), raising=False)
    path = tmp_path / "t.awd"
    for case in range(60):
        bs, sl = int(rng.integers(1, 5)), int(rng.integers(0, 9))
        dims = (bs, sl, int(rng.integers(1, 4)), int(rng.integers(1, 4)), int(rng.integers(1, 6)))
        ao.write_awd(random_tensor(rng, *dims), path)
        trace, winner = rng.integers(0, bs, size=(sl, bs)).tolist(), int(rng.integers(0, bs))
        for length in (None, sl, sl // 2, 0):
            reads.clear()
            expected = ao.beam_decode_awd(ao.read_awd(path), trace, winner, length=length)
            assert sum(reads) == 24 + 4 * math.prod(dims), case  # read_awd reads everything
            reads.clear()
            got = awdmod.read_winning_path(path, trace, winner, length=length)
            assert got.dtype == expected.dtype and got.shape == expected.shape, case
            assert got.tobytes() == expected.tobytes(), case
            ancestors = awdmod._winning_path(dims, trace, winner, length)
            assert reads == [24] + [got[:1].nbytes * len(list(run))
                                    for _, run in itertools.groupby(ancestors)], case


@pytest.mark.parametrize("blob, trace, winner, length", [
    (AWD_MAGIC + struct.pack("<5I", 1, 1, 1, 1, 4) + b"\x00" * 8, [[0]], 0, 1),
    (AWD_MAGIC + struct.pack("<5I", 1, 1, 1, 1, 1) + b"\x00" * 5, [[0]], 0, 1),
    (AWD_MAGIC + b"\x01\x00", [[0]], 0, 1),
    (b"AW", [[0]], 0, 1),
    (b"XXXX" + struct.pack("<5I", 1, 1, 1, 1, 1) + b"\x00" * 4, [[0]], 0, 1),
    (AWD_MAGIC + struct.pack("<5I", 4096, 4096, 64, 64, 64), [[0]], 0, 1),
    (AWD_MAGIC + struct.pack("<5I", 2, 2, 1, 1, 1) + b"\x00" * 16, [[0, 0], [2, 0]], 0, 2),
    (AWD_MAGIC + struct.pack("<5I", 2, 2, 1, 1, 1) + b"\x00" * 16, [[0, 0]], 0, 1),
    (AWD_MAGIC + struct.pack("<5I", 2, 2, 1, 1, 1) + b"\x00" * 16, [[0, 0], [0]], 0, 1),
    (AWD_MAGIC + struct.pack("<5I", 2, 2, 1, 1, 1) + b"\x00" * 16, [[0, 0], [0, 0]], 5, 1),
    (AWD_MAGIC + struct.pack("<5I", 2, 2, 1, 1, 1) + b"\x00" * 16, [[0, 0], [0, 0]], 0, 9),
    (AWD_MAGIC + struct.pack("<5I", 2, 2, 1, 1, 1) + b"\x00" * 12, [[0, 0], [2, 0]], 0, 2),
], ids=["short-payload", "trailing-bytes", "short-header", "short-magic", "bad-magic",
        "dims-overflow", "bad-parent", "short-trace", "short-row", "bad-winner", "long-length",
        "short-payload-and-bad-trace"])
def test_read_winning_path_raises_what_read_then_decode_raise(tmp_path, blob, trace, winner,
                                                              length):
    path = tmp_path / "bad.awd"
    path.write_bytes(blob)
    with pytest.raises((AwdFormatError, BeamTraceError)) as expected:
        ao.beam_decode_awd(ao.read_awd(path), trace, winner, length=length)
    with pytest.raises(type(expected.value)) as got:
        awdmod.read_winning_path(path, trace, winner, length=length)
    assert type(got.value) is type(expected.value)
    assert str(got.value) == str(expected.value)


def test_read_winning_path_reports_a_file_that_shrinks_during_the_read(tmp_path, monkeypatch):
    rng = np.random.default_rng(9)
    path = tmp_path / "t.awd"
    ao.write_awd(random_tensor(rng, bs=2, sl=3, dl=1, mh=1, L=4), path)
    walk = awdmod._winning_path

    def walk_then_truncate(*args):
        with open(path, "r+b") as fh:
            fh.truncate(24 + 16 * 4)
        return walk(*args)

    monkeypatch.setattr(awdmod, "_winning_path", walk_then_truncate)
    with pytest.raises(TruncatedPayloadError,
                       match=r"payload has 64 bytes, dims \(2, 3, 1, 1, 4\) require 96"):
        awdmod.read_winning_path(path, [[0, 0], [0, 0], [1, 1]], 0)


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


@pytest.mark.parametrize("rows", [1, 9, 200])
@pytest.mark.parametrize("slice_shape", [(3, 4, 7), (1, 1, 1), (8, 8, 30)])
def test_aggregate_mean_equals_ndarray_mean_bit_for_bit(rows, slice_shape):
    rng = np.random.default_rng(rows)
    aligned = rng.random((rows + 3,) + slice_shape).astype(np.float32)
    spans = [(0, 1), (1, rows + 1), (rows + 1, rows + 3)]
    sent = ao.aggregate_to_sentences(aligned, spans)
    for s, (start, end) in enumerate(spans):
        expected = aligned[start:end].mean(axis=0, dtype=np.float64)
        assert sent.values[s].tobytes() == expected.tobytes()


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


def test_summary_file_is_write_json_of_asdict(tmp_path):
    record = SummaryRecord(set_id="s\u00e9\"0", tokens=[4, 5, 3, 2, 0],
                           beam_trace=[[0, 0], [0, 1], [1, 0], [0, 1], [1, 1]], winning_beam=1)
    write_summary(record, tmp_path / "fast.json")
    write_json(dataclasses.asdict(record), tmp_path / "reference.json")
    assert (tmp_path / "fast.json").read_bytes() == (tmp_path / "reference.json").read_bytes()


def test_summary_file_rejects_missing_keys(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"set_id": "s", "tokens": [1]}')
    with pytest.raises(ValueError) as info:
        read_summary(path)
    assert str(info.value) == f"{path}: summary file missing key 'beam_trace'"


@pytest.mark.parametrize("call, message", [
    (lambda: AwdTensor(values=np.zeros((2, 2))), "awd tensor must have 5 dims, got 2"),
    (lambda: ao.SentenceAwd(values=np.zeros(3)), "sentence tensor must have 4 dims, got 1"),
], ids=["awd-tensor", "sentence-awd"])
def test_awd_tensor_checks_give_their_messages(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
