"""ROUGE-1/2/L scores over token sequences, all read from one counting kernel.

``rouge_counts`` profiles each sequence once. ROUGE-1/2 use clipped
n-gram counts; ROUGE-L takes the LCS from Hyyrö's bit-parallel
recurrence on Python ints (Hyyrö 2004). No stemming or stopword removal;
text is lowercased by the shared tokenizer, which keeps the metric
deterministic.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .textunits import tokenize


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


def _ngram_counts(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def _clipped_matches(cand: Counter, ref: Counter) -> int:
    return sum(min(count, ref[gram]) for gram, count in cand.items() if gram in ref)


def _masks(tokens: Sequence[str]) -> dict[str, int]:
    """Per distinct token, a bitmask with bit j set where ``tokens[j]`` is that token."""
    masks: dict[str, int] = {}
    for j, tok in enumerate(tokens):
        masks[tok] = masks.get(tok, 0) | 1 << j
    return masks


def _lcs(tokens: Sequence[str], m: int, masks: dict[str, int]) -> int:
    # Hyyrö's recurrence: bit j of v clears once the LCS grows at reference position j.
    v = (1 << m) - 1
    for tok in tokens:
        u = v & masks.get(tok, 0)
        v = (v + u) | (v - u)
    return m - (v & ((1 << m) - 1)).bit_count()


def rouge_counts(candidates: Sequence[Sequence[str]],
                 references: Sequence[Sequence[str]]) -> np.ndarray:
    """Counts of every candidate against every reference, each sequence profiled once:
    an int64 (C, R, 3, 3) array over candidate, reference, variant (ROUGE-1, ROUGE-2,
    ROUGE-L) and (matches, candidate total, reference total). Besides the output,
    memory holds the reference profiles and one candidate's row at a time."""
    refs = [(len(r), _ngram_counts(r, 1), _ngram_counts(r, 2), _masks(r)) for r in references]
    out = np.empty((len(candidates), len(refs), 3, 3), dtype=np.int64)
    for i, cand in enumerate(candidates):
        n, cu, cb = len(cand), _ngram_counts(cand, 1), _ngram_counts(cand, 2)
        out[i] = np.reshape([
            (_clipped_matches(cu, ru), n, m, _clipped_matches(cb, rb), max(n - 1, 0), max(m - 1, 0),
             _lcs(cand, m, masks), n, m)
            for m, ru, rb, masks in refs
        ], (len(refs), 3, 3))
    return out


def rouge_n(candidate: Sequence[str], reference: Sequence[str], n: int) -> RougeScore:
    """ROUGE-N with clipped n-gram match counts."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    cand = _ngram_counts(candidate, n)
    ref = _ngram_counts(reference, n)
    return RougeScore.from_counts(_clipped_matches(cand, ref), sum(cand.values()), sum(ref.values()))


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
