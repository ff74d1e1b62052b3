"""ROUGE-1/2/L scores over token sequences, all read from one counting kernel.

``rouge_counts(candidates, references)`` returns an int64 ``(C, R, 3, 3)``
array: candidate, reference, variant (ROUGE-1, ROUGE-2, ROUGE-L), then
matches, candidate total and reference total. ``paired_rouge_counts``
returns the ``(N, 3, 3)`` counts of candidate i against reference i only;
both share every step below except the pairing.

The kernel works on arrays of token ids. Only candidate tokens get ids;
every other reference token shares one dropped id. Each n-gram order
numbers the (previous order's id, next token id) pairs of the candidates
densely with ``np.unique``, and ``np.searchsorted`` maps the references'
pairs onto those ids, so no key grows past the product of two counts.
Per-sequence n-gram counts are one ``np.bincount`` per side, and the
clipped ROUGE-1/2 matches are the elementwise minimum of the two count
matrices: ``np.minimum(cand[:, None], ref[None])`` for every pair,
``np.minimum(cand, ref)`` paired. The ROUGE-L match is the LCS length
from Hyyrö's bit-parallel recurrence (Hyyrö 2004) on ``⌈longest
reference / 64⌉`` ``uint64`` words: one numpy step per candidate token
position covers every pair at once, the addition carries from word to
word, and cleared bits are counted with ``np.unpackbits``. Paired, each
step gathers only reference i's match masks for candidate i.

Candidates are processed in chunks so that each chunk's count block and
LCS mask table stay within ``_CHUNK_ELEMENTS`` (2 MiB; a chunk holds at
least one candidate). Paired chunks also take only their own references,
so work and memory grow linearly with the number of pairs.
``scores_from_counts`` turns counts into precision, recall and F1 with
the same float operations as ``RougeScore.from_counts``. The reference
metric makes one kernel call per set and sums each unit's sentence
scores in sentence order, so its values are bit-identical to scoring
each cell on its own. ``rouge_l``, ``rouge_triple`` and ``lcs_length``
read the kernel; ``rouge_n`` reads the same id-based n-gram counter for
any ``n``. A call pays a fixed numpy cost of a few tenths of a
millisecond, so score many pairs with one call.

No stemming or stopword removal; text is lowercased by the shared
tokenizer, which keeps the metric deterministic.
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


def _clipped(cand: _Tokens, ref: _Tokens, grams: tuple[np.ndarray, np.ndarray, int],
             paired: bool = False) -> np.ndarray:
    """(C, R) clipped n-gram matches of every candidate against every reference,
    or (C,) of candidate i against reference i when ``paired``."""
    gc, gr, size = grams
    cc, rc = _counts(cand, gc, size), _counts(ref, gr, size)
    return (np.minimum(cc, rc) if paired else np.minimum(cc[:, None], rc[None])).sum(-1)


def _lcs(cand: _Tokens, ref: _Tokens, unigrams: tuple[np.ndarray, np.ndarray, int],
         paired: bool = False) -> np.ndarray:
    """(C, R) LCS lengths by Hyyrö's recurrence, or (C,) of candidate i against
    reference i when ``paired``; references are held as uint64 words.

    Bit j of a pair's state clears once the LCS grows at reference position j.
    """
    gc, gr, v = unigrams
    words = -(-int(ref.lengths.max(initial=0)) // 64)
    pos = ref.lengths[ref.seq] - ref.rest
    masks = np.zeros((v + 1, len(ref.lengths), words), dtype=np.uint64)
    bits = np.left_shift(np.uint64(1), (pos & 63).astype(np.uint64))
    np.bitwise_or.at(masks, (gr, ref.seq, pos >> 6), bits)
    low = np.bitwise_or.reduce(masks, axis=0)  # bit j set for j below the reference's length
    masks[v] = 0  # so the dropped id, which also pads candidates, never matches
    tokens = np.full((len(cand.lengths), int(cand.lengths.max(initial=0))), v)
    tokens[cand.seq, cand.lengths[cand.seq] - cand.rest] = gc
    # a step reads each pair's reference masks for the candidate's token at that position
    pairs = np.arange(len(cand.lengths)) if paired else slice(None)
    state = np.full(low.shape if paired else (len(cand.lengths),) + low.shape, ~np.uint64(0))
    for t in tokens.T:
        u = state & masks[t, pairs]
        total = state + u  # each word's sum before the carry from the word below
        carry = False
        for w in range(1, words):
            below, was = total[..., w - 1], state[..., w - 1]
            carry = (below < was) | carry & (below == was)  # the word below wrapped
            total[..., w] += carry
        state = total | state ^ u  # u is a subset of state, so state - u == state ^ u
    return np.unpackbits((~state & low).view(np.uint8), axis=-1).sum(-1, dtype=np.int64)


def _chunks(lengths: Sequence[int], refs: int, words: int,
            paired: bool = False) -> Iterator[tuple[int, int]]:
    """Consecutive candidate ranges whose count block and mask table, bounded through
    the range's token count, fit in ``_CHUNK_ELEMENTS``; each holds one candidate at least.

    A range of c candidates against ``refs`` references holds a (c, refs, n-grams) count
    block and a (tokens, refs, words) mask table; paired, c n-gram rows and c references.
    """
    start, tokens = 0, 0
    for i, n in enumerate(lengths):
        c = i + 1 - start
        rows = c * (1 + words) if paired else refs * (c + words)
        if i > start and rows * (tokens + n + 1) > _CHUNK_ELEMENTS:
            yield start, i
            start, tokens = i, 0
        tokens += n
    yield start, len(lengths)


def _rouge_counts(candidates: Sequence[Sequence[str]], references: Sequence[Sequence[str]],
                  paired: bool) -> np.ndarray:
    """Body of ``rouge_counts`` and ``paired_rouge_counts``: the chunks share one
    vocabulary of the candidates' tokens; paired, each chunk takes its own references."""
    vocab = {t: i for i, t in enumerate(dict.fromkeys(chain.from_iterable(candidates)))}
    lengths = [len(c) for c in candidates]
    ref_lengths = np.array([len(r) for r in references], dtype=np.int64)
    words = -(-int(ref_lengths.max(initial=0)) // 64)
    shift = np.array([0, 1, 0])  # variants count unigrams, bigrams and tokens
    cand_totals = np.maximum(np.array(lengths, dtype=np.int64)[:, None] - shift, 0)
    ref_totals = np.maximum(ref_lengths[:, None] - shift, 0)
    if paired:
        out = np.empty((len(candidates), 3, 3), dtype=np.int64)
        out[..., 1], out[..., 2] = cand_totals, ref_totals
    else:
        out = np.empty((len(candidates), len(references), 3, 3), dtype=np.int64)
        out[..., 1], out[..., 2] = cand_totals[:, None], ref_totals
    ref = None if paired else _tokens(references, vocab)
    for a, b in _chunks(lengths, len(references), words, paired):
        cand = _tokens(candidates[a:b], vocab)
        if paired:
            ref = _tokens(references[a:b], vocab)
        orders = _ngram_ids(cand, ref, len(vocab))
        unigrams = next(orders)
        out[a:b, ..., 0, 0] = _clipped(cand, ref, unigrams, paired)
        out[a:b, ..., 1, 0] = _clipped(cand, ref, next(orders), paired)
        out[a:b, ..., 2, 0] = _lcs(cand, ref, unigrams, paired)
    return out


def rouge_counts(candidates: Sequence[Sequence[str]],
                 references: Sequence[Sequence[str]]) -> np.ndarray:
    """Counts of every candidate against every reference: an int64 (C, R, 3, 3) array
    over candidate, reference, variant (ROUGE-1, ROUGE-2, ROUGE-L) and (matches,
    candidate total, reference total). Candidates go in chunks, so each chunk's
    temporaries stay near ``_CHUNK_ELEMENTS`` elements besides the output."""
    return _rouge_counts(candidates, references, paired=False)


def paired_rouge_counts(candidates: Sequence[Sequence[str]],
                        references: Sequence[Sequence[str]]) -> np.ndarray:
    """Counts of candidate i against reference i only: an int64 (N, 3, 3) array
    whose row i equals ``rouge_counts([candidates[i]], [references[i]])[0, 0]``.
    Work and memory grow linearly with N; pairs go in chunks as in ``rouge_counts``."""
    if len(candidates) != len(references):
        raise ValueError(f"{len(candidates)} candidates but {len(references)} references")
    return _rouge_counts(candidates, references, paired=True)


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
