"""ROUGE-1/2/L scores over token sequences, all read from one counting kernel.

``rouge_counts`` works on arrays of token ids. Only candidate tokens get
ids; every other reference token shares one dropped id. ROUGE-N counts
are one ``np.bincount`` per side over n-gram ids, and clipped matches
are the elementwise minimum of the two count matrices. ROUGE-L takes the
LCS from Hyyrö's bit-parallel recurrence (Hyyrö 2004) on ``uint64``
words, one numpy step per candidate token position for every
(candidate, reference) pair at once. No stemming or stopword removal;
text is lowercased by the shared tokenizer, which keeps the metric
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, count, islice, repeat
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .textunits import tokenize

# Elements (8 bytes each, so 2 MiB) that one chunk of candidates may hold in
# its (candidates, references, n-grams) count block and in its LCS mask table.
_CHUNK_ELEMENTS = 1 << 18


def scores_from_counts(counts) -> np.ndarray:
    """Precision, recall and F1 from ``(..., 3)`` counts of (matches,
    candidate total, reference total); a ratio with a zero total is 0."""
    counts = np.asarray(counts, dtype=np.float64)
    m, ct, rt = counts[..., 0], counts[..., 1], counts[..., 2]
    p = np.divide(m, ct, out=np.zeros_like(m), where=ct > 0)
    r = np.divide(m, rt, out=np.zeros_like(m), where=rt > 0)
    f = np.divide(2.0 * p * r, p + r, out=np.zeros_like(m), where=p + r > 0)
    return np.stack([p, r, f], axis=-1)


@dataclass(frozen=True)
class RougeScore:
    precision: float
    recall: float
    f1: float

    @classmethod
    def from_counts(cls, matches: int, candidate_total: int, reference_total: int) -> "RougeScore":
        return cls(*scores_from_counts([matches, candidate_total, reference_total]).tolist())


@dataclass(frozen=True)
class RougeTriple:
    r1: RougeScore
    r2: RougeScore
    rl: RougeScore


class _Tokens(NamedTuple):
    """Sequences of token ids laid end to end."""

    ids: np.ndarray  # (N,) token id
    seq: np.ndarray  # (N,) index of the token's sequence
    rest: np.ndarray  # (N,) tokens from this one to the end of its sequence
    lengths: np.ndarray  # (S,) tokens per sequence


def _tokens(sequences: Sequence[Sequence[str]], vocab: dict[str, int]) -> _Tokens:
    """Ids from ``vocab``; a token outside it gets the dropped id ``len(vocab)``."""
    lengths = np.array([len(s) for s in sequences], dtype=np.int64)
    n = int(lengths.sum())
    ids = np.fromiter(map(vocab.get, chain.from_iterable(sequences), repeat(len(vocab))),
                      np.int64, n)
    seq = np.repeat(np.arange(len(lengths)), lengths)
    return _Tokens(ids, seq, np.cumsum(lengths)[seq] - np.arange(n), lengths)


def _ngram_ids(cand: _Tokens, ref: _Tokens,
               v: int) -> Iterator[tuple[np.ndarray, np.ndarray, int]]:
    """For n = 1, 2, ...: each side's id of the n-gram starting at every token
    position, and the number G of distinct candidate n-grams.

    Candidate n-grams are numbered ``0..G-1``. A position where no n-gram
    starts, or whose n-gram no candidate has, holds the dropped id G. Token
    ids lie in ``0..v``. Each order numbers (previous order's id, next token
    id) pairs densely again, so keys stay below ``(G' + 1) * (v + 1)`` for the
    previous order's count G'.
    """
    gc, gr = np.zeros_like(cand.ids), np.zeros_like(ref.ids)
    for k in count():
        pc, pr = np.flatnonzero(cand.rest > k), np.flatnonzero(ref.rest > k)
        keys, kc = np.unique(gc[pc] * (v + 1) + cand.ids[pc + k], return_inverse=True)
        kr = gr[pr] * (v + 1) + ref.ids[pr + k]
        at = np.searchsorted(keys, kr)
        size = len(keys)
        gc, gr = np.full_like(cand.ids, size), np.full_like(ref.ids, size)
        gc[pc] = kc
        gr[pr] = np.where(np.append(keys, -1)[at] == kr, at, size)
        yield gc, gr, size


def _counts(side: _Tokens, grams: np.ndarray, size: int) -> np.ndarray:
    """(sequences, size) int64 count of each n-gram id per sequence."""
    shape = (len(side.lengths), size + 1)  # the last column holds the dropped id
    counts = np.bincount(side.seq * shape[1] + grams, minlength=shape[0] * shape[1])
    return counts.reshape(shape)[:, :size]


def _clipped(cand: _Tokens, ref: _Tokens,
             grams: tuple[np.ndarray, np.ndarray, int]) -> np.ndarray:
    """(C, R) clipped n-gram matches of every candidate against every reference."""
    gc, gr, size = grams
    return np.minimum(_counts(cand, gc, size)[:, None], _counts(ref, gr, size)[None]).sum(-1)


def _lcs(cand: _Tokens, ref: _Tokens, unigrams: tuple[np.ndarray, np.ndarray, int],
         words: int) -> np.ndarray:
    """(C, R) LCS lengths by Hyyrö's recurrence, references as ``words`` uint64 words.

    Bit j of a pair's state clears once the LCS grows at reference position j.
    """
    gc, gr, v = unigrams
    pos = ref.lengths[ref.seq] - ref.rest
    masks = np.zeros((v + 1, len(ref.lengths), words), dtype=np.uint64)
    bits = np.left_shift(np.uint64(1), (pos & 63).astype(np.uint64))
    np.bitwise_or.at(masks, (gr, ref.seq, pos >> 6), bits)
    low = np.bitwise_or.reduce(masks, axis=0)  # bit j set for j below the reference's length
    masks[v] = 0  # so the dropped id, which also pads candidates, never matches
    tokens = np.full((len(cand.lengths), int(cand.lengths.max(initial=0))), v)
    tokens[cand.seq, cand.lengths[cand.seq] - cand.rest] = gc
    state = np.full((len(cand.lengths),) + low.shape, ~np.uint64(0))
    for t in tokens.T:
        u = state & masks[t]
        total = state + u  # each word's sum before the carry from the word below
        carry = False
        for w in range(1, words):
            below, was = total[..., w - 1], state[..., w - 1]
            carry = (below < was) | carry & (below == was)  # the word below wrapped
            total[..., w] += carry
        state = total | state ^ u  # u is a subset of state, so state - u == state ^ u
    return np.unpackbits((~state & low).view(np.uint8), axis=-1).sum(-1, dtype=np.int64)


def _chunks(lengths: Sequence[int], refs: int, words: int) -> Iterator[tuple[int, int]]:
    """Consecutive candidate ranges whose count block and mask table, bounded through
    the range's token count, fit in ``_CHUNK_ELEMENTS``; each holds one candidate at least."""
    start, tokens = 0, 0
    for i, n in enumerate(lengths):
        if i > start and refs * (i + 1 - start + words) * (tokens + n + 1) > _CHUNK_ELEMENTS:
            yield start, i
            start, tokens = i, 0
        tokens += n
    yield start, len(lengths)


def rouge_counts(candidates: Sequence[Sequence[str]],
                 references: Sequence[Sequence[str]]) -> np.ndarray:
    """Counts of every candidate against every reference: an int64 (C, R, 3, 3) array
    over candidate, reference, variant (ROUGE-1, ROUGE-2, ROUGE-L) and (matches,
    candidate total, reference total). Candidates go in chunks, so each chunk's
    temporaries stay near ``_CHUNK_ELEMENTS`` elements besides the output."""
    vocab = {t: i for i, t in enumerate(dict.fromkeys(chain.from_iterable(candidates)))}
    lengths = [len(c) for c in candidates]
    ref = _tokens(references, vocab)
    words = -(-int(ref.lengths.max(initial=0)) // 64)
    shift = np.array([0, 1, 0])  # variants count unigrams, bigrams and tokens
    out = np.empty((len(candidates), len(references), 3, 3), dtype=np.int64)
    out[..., 1] = np.maximum(np.array(lengths, dtype=np.int64)[:, None] - shift, 0)[:, None]
    out[..., 2] = np.maximum(ref.lengths[:, None] - shift, 0)
    for a, b in _chunks(lengths, len(references), words):
        cand = _tokens(candidates[a:b], vocab)
        orders = _ngram_ids(cand, ref, len(vocab))
        unigrams = next(orders)
        out[a:b, :, 0, 0] = _clipped(cand, ref, unigrams)
        out[a:b, :, 1, 0] = _clipped(cand, ref, next(orders))
        out[a:b, :, 2, 0] = _lcs(cand, ref, unigrams, words)
    return out


def rouge_n(candidate: Sequence[str], reference: Sequence[str], n: int) -> RougeScore:
    """ROUGE-N with clipped n-gram match counts."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    matches = 0
    if n <= len(candidate):
        vocab = {t: i for i, t in enumerate(dict.fromkeys(candidate))}
        cand, ref = _tokens([candidate], vocab), _tokens([reference], vocab)
        grams = next(islice(_ngram_ids(cand, ref, len(vocab)), n - 1, None))
        matches = int(_clipped(cand, ref, grams)[0, 0])
    return RougeScore.from_counts(matches, max(len(candidate) - n + 1, 0),
                                  max(len(reference) - n + 1, 0))


def lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    """Length of the longest common subsequence of two token sequences."""
    return int(rouge_counts([a], [b])[0, 0, 2, 0])


def rouge_l(candidate: Sequence[str], reference: Sequence[str]) -> RougeScore:
    """ROUGE-L from the longest common subsequence."""
    return RougeScore.from_counts(*rouge_counts([candidate], [reference])[0, 0, 2])


def rouge_triple(candidate: Sequence[str], reference: Sequence[str]) -> RougeTriple:
    scores = scores_from_counts(rouge_counts([candidate], [reference])[0, 0])
    return RougeTriple(*(RougeScore(*row) for row in scores.tolist()))


def evaluate_summary(generated: str, gold: str) -> RougeTriple:
    """ROUGE-1/2/L of a generated summary against a gold summary."""
    return rouge_triple(tokenize(generated), tokenize(gold))
