"""ROUGE-1/2/L scores over token sequences, all read from one counting kernel.

``grouped_rouge_counts(candidates, references, candidate_groups,
reference_groups)`` scores every candidate against every reference of its
own group and returns an int64 ``(P, 3, 3)`` array: pair, variant
(ROUGE-1, ROUGE-2, ROUGE-L), then matches, candidate total and reference
total. Pairs go by group, then candidate, then reference.
``rouge_counts`` is the one-group call, reshaped to ``(C, R, 3, 3)``;
one group per (candidate i, reference i) pair scores each candidate
against its own reference only.

The kernel works on arrays of token ids. Only candidate tokens get ids;
every other reference token shares one dropped id. Each n-gram order
numbers the (previous order's id, next token id) pairs of the candidates
densely with ``np.unique``, and ``np.searchsorted`` maps the references'
pairs onto those ids, so no key grows past the product of two counts.
The order before unigrams is the sequence's group, so an n-gram id
belongs to one group and a group's ids form one range. The clipped
ROUGE-1/2 matches join each candidate's distinct n-grams with the
references that hold the same id, which are those of its own group, and
sum the smaller count of each joined row into its pair with one
``np.bincount``. The ROUGE-L match is the LCS length from Hyyrö's
bit-parallel recurrence (Hyyrö 2004) on ``⌈longest reference / 64⌉``
``uint64`` words. Each reference holds one mask row per unigram of its
group; one numpy step per candidate token position covers every pair
whose candidate is that long (pairs go longest candidate first), the
addition carries from word to word, and cleared bits are counted with
``np.unpackbits``.

Candidates are processed in chunks of consecutive candidates, so of whole
groups where they fit: a chunk's join rows, mask rows, pair states and
token arrays stay near ``_CHUNK_ELEMENTS`` elements (2 MiB; a chunk holds
at least one candidate), and work and memory besides the output grow
linearly with the number of groups. ``scores_from_counts`` turns counts
into precision, recall and F1 with the same float operations as
``RougeScore.from_counts``. ``rouge_l``, ``rouge_triple`` and
``lcs_length`` read the kernel; ``rouge_n`` reads the same id-based
n-gram counter for any ``n``. A call pays a fixed numpy cost of a few
tenths of a millisecond, so score many pairs with one call.

No stemming or stopword removal; text is lowercased by the shared
tokenizer, which keeps the metric deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, count, islice, repeat
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .textunits import tokenize

# Elements (8 bytes each, so 2 MiB) that one chunk of candidates may hold in its
# join rows, LCS mask rows and pair states, and in its token arrays.
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


def _ngram_ids(cand: _Tokens, ref: _Tokens, v: int, cand_groups: np.ndarray,
               ref_groups: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray, int]]:
    """For n = 1, 2, ...: each side's id of the n-gram starting at every token
    position, and the number G of distinct candidate n-grams.

    Candidate n-grams are numbered ``0..G-1``. A position where no n-gram
    starts, or whose n-gram no candidate of its group has, holds the dropped
    id G. Token ids lie in ``0..v``. Each order numbers (previous order's id,
    next token id) pairs densely again, so keys stay below ``(G' + 1) * (v + 1)``
    for the previous order's count G'. The order before the first is the
    sequence's group (``0..`` per side), so n-grams of different groups never
    share an id, and the ids of one group form one range.
    """
    gc, gr = cand_groups[cand.seq], ref_groups[ref.seq]
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


class _Pairs(NamedTuple):
    """The (candidate, reference) pairs of one chunk, candidate by candidate; the pair
    of candidate c and reference r is ``first[c] + rank[r]``."""

    cand: np.ndarray  # (P,) candidate of each pair
    ref: np.ndarray  # (P,) reference of each pair
    first: np.ndarray  # (C,) each candidate's first pair
    rank: np.ndarray  # (R,) each reference's place in its group


def _entries(side: _Tokens, grams: np.ndarray,
             size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(n-gram id, sequence, count) of each distinct kept n-gram of each sequence,
    ordered by n-gram id."""
    at = grams < size
    keys, counts = np.unique(grams[at] * len(side.lengths) + side.seq[at], return_counts=True)
    gram, seq = np.divmod(keys, len(side.lengths))
    return gram, seq, counts


def _clipped(cand: _Tokens, ref: _Tokens, grams: tuple[np.ndarray, np.ndarray, int],
             pairs: _Pairs) -> np.ndarray:
    """(P,) clipped n-gram matches of each pair.

    Each candidate's distinct n-grams are joined with the references holding
    the same id, which are only those of its own group, so work follows the
    shared n-grams rather than the pairs times the n-grams.
    """
    gc, gr, size = grams
    cg, cs, cn = _entries(cand, gc, size)
    rg, rs, rn = _entries(ref, gr, size)
    lo = np.searchsorted(rg, cg)
    width = np.searchsorted(rg, cg, side="right") - lo
    ci = np.repeat(np.arange(len(cg)), width)  # candidate entry of each joined row
    ri = np.arange(len(ci)) + np.repeat(lo - np.cumsum(width) + width, width)  # its reference entry
    pair = pairs.first[cs[ci]] + pairs.rank[rs[ri]]
    return np.bincount(pair, np.minimum(cn[ci], rn[ri]), minlength=len(pairs.cand))


def _lcs(cand: _Tokens, ref: _Tokens, unigrams: tuple[np.ndarray, np.ndarray, int],
         groups: tuple[np.ndarray, np.ndarray], pairs: _Pairs) -> np.ndarray:
    """(P,) LCS length of each pair by Hyyrö's recurrence; references are held as
    uint64 words.

    Bit j of a pair's state clears once the LCS grows at reference position j.
    A group's unigram ids form one range, and each reference has one mask row
    per unigram of its group: row ``offset[r] + id``. Pairs go longest
    candidate first, so step t updates only the leading pairs, those whose
    candidate is longer than t.
    """
    gc, gr, size = unigrams
    cand_groups, ref_groups = groups
    words = -(-int(ref.lengths.max(initial=0)) // 64)
    owner = np.empty(size, dtype=np.int64)  # the group of each unigram id, in id order
    owner[gc] = cand_groups[cand.seq]
    first = np.searchsorted(owner, ref_groups)
    rows = np.searchsorted(owner, ref_groups, side="right") - first
    offset = np.cumsum(rows) - rows - first
    masks = np.zeros((int(rows.sum()), words), dtype=np.uint64)
    kept = np.flatnonzero(gr < size)
    pos = (ref.lengths[ref.seq] - ref.rest)[kept]
    bits = np.left_shift(np.uint64(1), (pos & 63).astype(np.uint64))
    np.bitwise_or.at(masks, (offset[ref.seq[kept]] + gr[kept], pos >> 6), bits)
    # bit j set for j below the reference's length
    width = np.clip(ref.lengths[:, None] - 64 * np.arange(words), 0, 64).astype(np.uint64)
    low = np.where(width == 64, ~np.uint64(0), np.left_shift(np.uint64(1), width) - np.uint64(1))

    lengths = cand.lengths[pairs.cand]
    order = np.argsort(-lengths, kind="stable")
    active = np.searchsorted(-lengths[order], -np.arange(int(lengths.max(initial=0))))
    row = offset[pairs.ref[order]]
    token = (np.cumsum(cand.lengths) - cand.lengths)[pairs.cand[order]]  # the candidate's first
    state = np.full((len(order), words), ~np.uint64(0))
    for t, n in enumerate(active.tolist()):
        was = state[:n]
        u = was & masks[row[:n] + gc[token[:n] + t]]
        total = was + u  # each word's sum before the carry from the word below
        carry = False
        for w in range(1, words):
            below, before = total[:, w - 1], was[:, w - 1]
            carry = (below < before) | carry & (below == before)  # the word below wrapped
            total[:, w] += carry
        state[:n] = total | was ^ u  # u is a subset of the state, so state - u == state ^ u
    lcs = np.empty(len(order), dtype=np.int64)
    lcs[order] = np.unpackbits((~state & low[pairs.ref[order]]).view(np.uint8),
                               axis=-1).sum(-1, dtype=np.int64)
    return lcs


def _chunks(lengths: Sequence[int], refs: Sequence[int], first_token: Sequence[int],
            end_token: Sequence[int], words: int) -> Iterator[tuple[int, int]]:
    """Consecutive candidate ranges whose temporaries fit in ``_CHUNK_ELEMENTS``; each
    holds one candidate at least.

    Candidate i has ``refs[i]`` references, whose tokens are ``first_token[i]`` to
    ``end_token[i]`` of all references' tokens laid end to end. A candidate of n
    tokens with R references bounds its join rows and mask rows by R * (n + 1) per
    LCS word plus one. About ten int64 arrays (ids, positions, n-gram keys and ids,
    sort buffers) hold each token of the range's candidates and of the references
    it spans, which count once per range.
    """
    def cost(i: int, start_token: int) -> int:
        tokens = lengths[i] + end_token[i] - start_token
        return refs[i] * (lengths[i] + 1) * (words + 1) + 10 * tokens

    start, used = 0, 0
    for i in range(len(lengths)):
        if i > start and used + cost(i, end_token[i - 1]) > _CHUNK_ELEMENTS:
            yield start, i
            start, used = i, 0
        used += cost(i, first_token[i] if i == start else end_token[i - 1])
    yield start, len(lengths)


def _totals(lengths: np.ndarray) -> np.ndarray:
    """(S, 3) unigrams, bigrams and tokens of each sequence: the variants' totals."""
    return np.maximum(lengths[:, None] - np.array([0, 1, 0]), 0)


def grouped_rouge_counts(candidates: Sequence[Sequence[str]],
                         references: Sequence[Sequence[str]],
                         candidate_groups: Sequence[int],
                         reference_groups: Sequence[int]) -> np.ndarray:
    """Counts of every candidate against every reference of its own group: an int64
    (P, 3, 3) array over pairs, variant (ROUGE-1, ROUGE-2, ROUGE-L) and (matches,
    candidate total, reference total).

    Group ids are integers that do not decrease along either side. Pairs go by
    group, then candidate, then reference, so a group of C candidates and R
    references holds C * R consecutive rows. Candidates go in chunks of whole
    groups where they fit, so each chunk's temporaries stay near
    ``_CHUNK_ELEMENTS`` elements besides the output.
    """
    cand_groups = np.asarray(candidate_groups, dtype=np.int64)
    ref_groups = np.asarray(reference_groups, dtype=np.int64)
    for side, groups, n in (("candidate", cand_groups, len(candidates)),
                            ("reference", ref_groups, len(references))):
        if groups.shape != (n,):
            raise ValueError(f"need one group id per {side}, got shape {groups.shape}")
        if (groups[1:] < groups[:-1]).any():
            raise ValueError(f"{side} group ids decrease")
    lo = np.searchsorted(ref_groups, cand_groups)
    hi = np.searchsorted(ref_groups, cand_groups, side="right")
    width = hi - lo  # references per candidate
    first = np.cumsum(width) - width  # each candidate's first pair
    ref_lengths = np.fromiter(map(len, references), np.int64, len(references))
    words = -(-int(ref_lengths.max(initial=0)) // 64)
    ends = np.concatenate([[0], np.cumsum(ref_lengths)])
    plan = _chunks([len(c) for c in candidates], width.tolist(), ends[lo].tolist(),
                   ends[hi].tolist(), words)
    del ref_lengths, ends

    vocab = {t: i for i, t in enumerate(dict.fromkeys(chain.from_iterable(candidates)))}
    out = np.empty((int(width.sum()), 3, 3), dtype=np.int64)
    for a, b in plan:
        n = width[a:b]
        if not n.sum():
            continue
        block = out[first[a]:first[a] + n.sum()]
        ra, rb = lo[a], hi[b - 1]
        starts = first[a:b] - first[a]
        rank = np.arange(ra, rb) - np.searchsorted(ref_groups, ref_groups[ra:rb])
        pairs = _Pairs(np.repeat(np.arange(b - a), n),
                       np.arange(len(block)) + np.repeat(lo[a:b] - ra - starts, n), starts, rank)
        cand, ref = _tokens(candidates[a:b], vocab), _tokens(references[ra:rb], vocab)
        # the chunk's groups numbered densely from 0, so that n-gram keys stay small
        _, local = np.unique(np.concatenate([cand_groups[a:b], ref_groups[ra:rb]]),
                             return_inverse=True)
        groups = (local[: b - a], local[b - a:])
        orders = _ngram_ids(cand, ref, len(vocab), *groups)
        unigrams = next(orders)
        block[..., 1] = _totals(cand.lengths)[pairs.cand]
        block[..., 2] = _totals(ref.lengths)[pairs.ref]
        block[:, 0, 0] = _clipped(cand, ref, unigrams, pairs)
        block[:, 1, 0] = _clipped(cand, ref, next(orders), pairs)
        block[:, 2, 0] = _lcs(cand, ref, unigrams, groups, pairs)
    return out


def rouge_counts(candidates: Sequence[Sequence[str]],
                 references: Sequence[Sequence[str]]) -> np.ndarray:
    """Counts of every candidate against every reference: an int64 (C, R, 3, 3) array
    over candidate, reference, variant (ROUGE-1, ROUGE-2, ROUGE-L) and (matches,
    candidate total, reference total); ``grouped_rouge_counts`` with one group."""
    counts = grouped_rouge_counts(candidates, references, np.zeros(len(candidates), np.int64),
                                  np.zeros(len(references), np.int64))
    return counts.reshape(len(candidates), len(references), 3, 3)


def rouge_n(candidate: Sequence[str], reference: Sequence[str], n: int) -> RougeScore:
    """ROUGE-N with clipped n-gram match counts."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    matches = 0
    if n <= len(candidate):
        vocab = {t: i for i, t in enumerate(dict.fromkeys(candidate))}
        cand, ref = _tokens([candidate], vocab), _tokens([reference], vocab)
        one = np.zeros(1, dtype=np.int64)
        grams = next(islice(_ngram_ids(cand, ref, len(vocab), one, one), n - 1, None))
        matches = int(_clipped(cand, ref, grams, _Pairs(one, one, one, one))[0])
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
