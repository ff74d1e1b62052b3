"""Record attention tensors, align them with beam outcomes; aggregate to sentences.

The decoder hands a set's slices to a recorder of this module, which
builds the ``AwdTensor`` in memory (``in_memory``) or writes its file
(``open_recorder``). Alignment walks parent links backward from the
winning beam to pick, for each generated token, the distribution
recorded on the ancestor that actually produced it; token-level
distributions are then pooled per generated sentence (mean by default).
``read_winning_path``, which ``analyze`` uses, reads from a tensor file
only the header and those ancestor slices.

The binary tensor format is: magic bytes ``AWD1``, five little-endian
uint32 dims (beams, tokens, layers, heads, units), then float32
little-endian values in [beam][token][layer][head][unit] order. This
module alone knows that layout: ``write_awd`` writes a whole tensor and
``open_recorder`` a decoding set's tensor slice by slice.
"""

from __future__ import annotations

import math
import os
import struct
from contextlib import AbstractContextManager, contextmanager, nullcontext
from dataclasses import dataclass
from itertools import groupby
from typing import Iterator, Sequence

import numpy as np

from .textunits import atomic_write, read_json, write_json

AWD_MAGIC = b"AWD1"
HEADER_BYTES = 24  # the magic and five uint32 dims
MAX_ELEMENTS = 1 << 31

SentenceSpans = list[tuple[int, int]]

AGGREGATION_MEAN = "mean"
AGGREGATION_MEDIAN = "median"


class AwdFormatError(ValueError):
    """Base class for malformed tensor files."""


class BadMagicError(AwdFormatError):
    """The file does not start with the ``AWD1`` magic."""


class DimOverflowError(AwdFormatError):
    """The header's dims imply more than ``MAX_ELEMENTS`` values."""


class TruncatedPayloadError(AwdFormatError):
    """The file is shorter than its header, or than its dims imply."""


class BeamTraceError(ValueError):
    """Raised when a beam trace is inconsistent with the tensor dims."""


@dataclass
class AwdTensor:
    """Recorded attention distributions, float32.

    Index order is [beam][token][layer][head][unit]; every unit-axis
    slice is a probability vector (pad units carry zero mass).
    """

    values: np.ndarray  # (bs, sl, dl, mh, L)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float32)
        if self.values.ndim != 5:
            raise ValueError(f"awd tensor must have 5 dims, got {self.values.ndim}")

    @property
    def dims(self) -> tuple[int, int, int, int, int]:
        return self.values.shape


@dataclass
class SentenceAwd:
    """Sentence-level attention, shape (sentences, layers, heads, units)."""

    values: np.ndarray  # float64

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 4:
            raise ValueError(f"sentence tensor must have 4 dims, got {self.values.ndim}")

    @property
    def dims(self) -> tuple[int, int, int, int]:
        return self.values.shape


def _header(dims: Sequence[int]) -> bytes:
    return AWD_MAGIC + struct.pack("<5I", *dims)


def _write_at(fh, data, offset: int) -> None:
    """Write all of ``data`` from byte ``offset`` of an unbuffered tensor file."""
    view = memoryview(data).cast("B")
    fh.seek(offset)
    while view:
        view = view[fh.write(view):]


def write_awd(tensor: AwdTensor, path) -> None:
    """Write ``tensor`` in the binary tensor format, atomically."""
    values = np.ascontiguousarray(tensor.values, dtype="<f4")
    with atomic_write(path, "wb") as fh:
        fh.write(_header(values.shape))
        fh.write(values.data)


class _TensorRecorder:
    """Collects a set's recorded slices into an ``AwdTensor`` in memory.

    ``record`` copies each step's slices into the tensor: the decoder
    overwrites the array it passes at its next step.
    """

    def __init__(self, dims: Sequence[int]):
        self.values = np.empty(dims, dtype=np.float32)

    def record(self, step: int, slices: np.ndarray) -> None:
        self.values[:, step] = slices

    def finish(self, steps: int) -> AwdTensor:  # an array of the decoded steps alone
        values = self.values
        return AwdTensor(values=values if steps == values.shape[1] else values[:, :steps].copy())


def in_memory(index: int, dims: Sequence[int]) -> AbstractContextManager[_TensorRecorder]:
    """The default recorder: ``finish`` returns the set's tensor, built in memory."""
    return nullcontext(_TensorRecorder(dims))


class _FileRecorder:
    """Writes one decoding set's tensor into an open, unbuffered tensor file.

    ``dims`` are (beams, max_steps, layers, heads, units). ``record`` puts
    each slot's slice of a step at its place in a tensor of ``max_steps``
    tokens; ``finish`` writes the header of the ``steps`` tokens decoded,
    first moving beam blocks 1, 2, ... down to ``steps`` tokens and
    truncating the file when the set stopped early. ``record`` writes the
    slices out before it returns and keeps no reference to them: the
    decoder overwrites the array it passes at its next step.
    """

    def __init__(self, fh, dims: Sequence[int]):
        self._fh = fh
        self._dims = tuple(dims)
        self._slice = 4 * math.prod(self._dims[2:])
        self._finished = False

    def record(self, step: int, slices: np.ndarray) -> None:
        """Write step ``step``'s slices, (beams, layers, heads, units)."""
        beams, max_steps = self._dims[:2]
        data = np.ascontiguousarray(slices, dtype="<f4")
        for slot in range(beams):
            _write_at(self._fh, data[slot], HEADER_BYTES + (slot * max_steps + step) * self._slice)

    def finish(self, steps: int) -> None:
        """Close the tensor at ``steps`` tokens, each recorded for every slot."""
        beams, max_steps = self._dims[:2]
        block = steps * self._slice
        if steps < max_steps:
            moved = np.empty(block, dtype=np.uint8)
            for slot in range(1, beams):  # front to back: no block overwrites one not yet moved
                _read_into(self._fh, moved, HEADER_BYTES + slot * max_steps * self._slice,
                           self._dims)
                _write_at(self._fh, moved, HEADER_BYTES + slot * block)
            self._fh.truncate(HEADER_BYTES + beams * block)
        _write_at(self._fh, _header((beams, steps) + self._dims[2:]), 0)
        self._finished = True


@contextmanager
def open_recorder(path, dims: Sequence[int]) -> Iterator[_FileRecorder]:
    """A recorder of the tensor file at ``path``, ``dims`` as ``_FileRecorder``
    takes them. A clean exit after ``finish`` replaces ``path`` as
    ``atomic_write`` does; an error, or an exit before ``finish``, leaves
    ``path`` as it was and no temporary file."""
    with atomic_write(path, "w+b", buffering=0) as fh:
        recorder = _FileRecorder(fh, dims)
        yield recorder
        if not recorder._finished:
            raise ValueError(f"{path}: tensor file closed before it was finished")


def _read_header(fh) -> tuple[int, ...]:
    """The dims of an open tensor file, after checking its magic, the
    element cap and that the file size matches the dims."""
    header = fh.read(HEADER_BYTES)
    if header[:4] != AWD_MAGIC:
        raise BadMagicError(f"bad magic {header[:4]!r}, expected {AWD_MAGIC!r}")
    if len(header) < HEADER_BYTES:
        raise TruncatedPayloadError(f"header truncated at {len(header)} bytes")
    dims = struct.unpack("<5I", header[4:])
    total = math.prod(dims)
    if total > MAX_ELEMENTS:
        raise DimOverflowError(f"dims {dims} imply {total} elements, cap is {MAX_ELEMENTS}")
    payload = os.fstat(fh.fileno()).st_size - HEADER_BYTES
    if payload != 4 * total:
        raise TruncatedPayloadError(
            f"payload has {payload} bytes, dims {dims} require {4 * total}"
        )
    return dims


def _read_into(fh, out: np.ndarray, offset: int, dims) -> None:
    """Fill ``out`` from byte ``offset`` of an unbuffered tensor file.

    The file size was checked against ``dims`` first, so the file ends
    early only if it shrank meanwhile.
    """
    view = out.reshape(-1).view(np.uint8)
    fh.seek(offset)
    done = 0
    while done < view.size:
        got = fh.readinto(view[done:])
        if not got:
            raise TruncatedPayloadError(
                f"payload has {os.fstat(fh.fileno()).st_size - HEADER_BYTES} bytes, dims {dims} "
                f"require {4 * math.prod(dims)}"
            )
        done += got


def read_awd(path) -> AwdTensor:
    """Read a tensor file into one payload-sized array; the header and
    the file size are checked before it is allocated."""
    with open(path, "rb", buffering=0) as fh:
        dims = _read_header(fh)
        values = np.empty(dims, dtype="<f4")
        _read_into(fh, values, HEADER_BYTES, dims)
    return AwdTensor(values=values)


def _winning_path(dims: Sequence[int], beam_trace: Sequence[Sequence[int]],
                  winning_beam: int, length: int | None) -> list[int]:
    """The ancestor slot of each of the winner's first ``length`` tokens (see
    ``beam_decode_awd``), after checking the whole trace against ``dims``."""
    bs, sl = dims[:2]
    if len(beam_trace) != sl:
        raise BeamTraceError(f"trace has {len(beam_trace)} steps, tensor has {sl}")
    if not 0 <= winning_beam < bs:
        raise BeamTraceError(f"winning beam {winning_beam} outside [0, {bs})")
    n = sl if length is None else length
    if not 0 <= n <= sl:
        raise BeamTraceError(f"length {n} outside [0, {sl}]")
    ancestors = [0] * n
    slot = winning_beam
    for t in range(sl - 1, -1, -1):
        row = beam_trace[t]
        if len(row) != bs:
            raise BeamTraceError(f"trace row {t} has {len(row)} entries, expected {bs}")
        parent = row[slot]
        if not 0 <= parent < bs:
            raise BeamTraceError(f"trace step {t}: parent {parent} outside [0, {bs})")
        if t < n:
            ancestors[t] = parent
        slot = parent
    return ancestors


def beam_decode_awd(
    awd: AwdTensor,
    beam_trace: Sequence[Sequence[int]],
    winning_beam: int,
    length: int | None = None,
) -> np.ndarray:
    """Token-aligned tensor (length, layers, heads, units) for the winner.

    ``beam_trace[t][b]`` is the beam slot whose recorded step-t
    distribution produced the token that beam ``b`` holds at position t.
    Walking those links backward from the winning beam yields the
    ancestor slot for every step; ``length`` truncates to the winning
    hypothesis when it finished before the last step.
    """
    ancestors = _winning_path(awd.dims, beam_trace, winning_beam, length)
    return awd.values[np.array(ancestors, dtype=np.intp), np.arange(len(ancestors))]


def read_winning_path(path, beam_trace: Sequence[Sequence[int]], winning_beam: int,
                      length: int | None = None) -> np.ndarray:
    """``beam_decode_awd(read_awd(path), ...)``, reading from the file only
    the header and the winner's ``(ancestor, step)`` slices.

    Slices are stored ``[beam][token]``, so the steps of one run of equal
    ancestors are contiguous and take one read. Errors are those of
    ``read_awd`` and then those of ``beam_decode_awd``.
    """
    with open(path, "rb", buffering=0) as fh:
        dims = _read_header(fh)
        ancestors = _winning_path(dims, beam_trace, winning_beam, length)
        sl, step = dims[1], 4 * math.prod(dims[2:])
        aligned = np.empty((len(ancestors),) + dims[2:], dtype="<f4")
        t = 0
        for ancestor, run in groupby(ancestors):
            end = t + sum(1 for _ in run)
            _read_into(fh, aligned[t:end], HEADER_BYTES + (ancestor * sl + t) * step, dims)
            t = end
    return aligned


def split_summary_sentences(tokens: Sequence[int], eos_sentence_id: int) -> SentenceSpans:
    """Spans (start, end) per sentence; each span includes its end marker.

    Trailing tokens without a marker form a final span; an empty token
    sequence yields no spans.
    """
    spans: SentenceSpans = []
    start = 0
    for i, tok in enumerate(tokens):
        if tok == eos_sentence_id:
            spans.append((start, i + 1))
            start = i + 1
    if start < len(tokens):
        spans.append((start, len(tokens)))
    return spans


def aggregate_to_sentences(
    aligned: np.ndarray, spans: SentenceSpans, method: str = AGGREGATION_MEAN
) -> SentenceAwd:
    """Pool token-level distributions over sentence spans; the float32 slices
    that a tensor file holds are averaged in float64 without a float64 copy.

    The mean keeps each (layer, head) slice on the probability simplex.
    The median does not, so median slices are renormalized to sum 1
    afterward; a slice whose medians are all zero falls back to the
    span mean.
    """
    if method not in (AGGREGATION_MEAN, AGGREGATION_MEDIAN):
        raise ValueError(f"unknown aggregation {method!r}")
    aligned = np.asarray(aligned)
    sl = aligned.shape[0]
    expected_start = 0
    for start, end in spans:
        if start != expected_start or end <= start:
            raise ValueError(f"spans must be contiguous and ordered, got {spans}")
        expected_start = end
    if expected_start != sl:
        raise ValueError(f"spans cover [0, {expected_start}), tensor has {sl} steps")

    out = np.empty((len(spans),) + aligned.shape[1:], dtype=np.float64)
    for s, (start, end) in enumerate(spans):
        window = aligned[start:end]
        if method == AGGREGATION_MEAN:  # window.mean(axis=0, dtype=np.float64), bit for bit
            row = np.add.reduce(window, axis=0, dtype=np.float64, out=out[s])
            row /= end - start
        else:
            window = window.astype(np.float64)
            med = np.median(window, axis=0)
            sums = med.sum(axis=-1, keepdims=True)
            mean = window.mean(axis=0)
            out[s] = np.where(sums > 0, med / np.where(sums > 0, sums, 1.0), mean)
    return SentenceAwd(values=out)


# ---------------------------------------------------------------------------
# Summary token file
# ---------------------------------------------------------------------------

@dataclass
class SummaryRecord:
    set_id: str
    tokens: list[int]
    beam_trace: list[list[int]]
    winning_beam: int


def write_summary(record: SummaryRecord, path) -> None:
    """Write the record's fields as one JSON object, in field order."""
    write_json({"set_id": record.set_id, "tokens": record.tokens, "beam_trace": record.beam_trace,
                "winning_beam": record.winning_beam}, path)


def _ints(values, what: str) -> list[int]:
    """``values`` if it is a list of JSON integers; floats and bools are rejected."""
    if not isinstance(values, list):
        raise TypeError(f"{what} must be a list")
    for v in values:
        if type(v) is not int:
            raise TypeError(f"{what} holds {v!r}, not an integer")
    return values


def read_summary(path) -> SummaryRecord:
    """Read and check a summary file; errors name the file."""
    return read_json(path, "summary file", lambda obj: SummaryRecord(
        set_id=obj["set_id"],
        tokens=_ints(obj["tokens"], "tokens"),
        beam_trace=[_ints(row, "beam_trace row") for row in obj["beam_trace"]],
        winning_beam=_ints([obj["winning_beam"]], "winning_beam")[0],
    ))
