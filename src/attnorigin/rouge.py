"""ROUGE-1/2/L scores over token sequences.

Uses clipped n-gram counts for ROUGE-N and a dynamic-programming LCS
for ROUGE-L. No stemming or stopword removal; text is lowercased by the
shared tokenizer, which keeps the metric deterministic.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .textunits import tokenize


@dataclass(frozen=True)
class RougeScore:
    precision: float
    recall: float
    f1: float

    @classmethod
    def from_counts(cls, matches: int, candidate_total: int, reference_total: int) -> "RougeScore":
        p = matches / candidate_total if candidate_total else 0.0
        r = matches / reference_total if reference_total else 0.0
        f = 2.0 * p * r / (p + r) if p + r > 0 else 0.0
        return cls(precision=p, recall=r, f1=f)


@dataclass(frozen=True)
class RougeTriple:
    r1: RougeScore
    r2: RougeScore
    rl: RougeScore


def _ngram_counts(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def rouge_n(candidate: Sequence[str], reference: Sequence[str], n: int) -> RougeScore:
    """ROUGE-N with clipped n-gram match counts."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    cand = _ngram_counts(candidate, n)
    ref = _ngram_counts(reference, n)
    matches = sum(min(count, ref[gram]) for gram, count in cand.items() if gram in ref)
    return RougeScore.from_counts(matches, sum(cand.values()), sum(ref.values()))


def lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    """Length of the longest common subsequence of two token sequences."""
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        curr = [0]
        for j, y in enumerate(b, start=1):
            if x == y:
                curr.append(prev[j - 1] + 1)
            else:
                curr.append(max(prev[j], curr[j - 1]))
        prev = curr
    return prev[-1]


def rouge_l(candidate: Sequence[str], reference: Sequence[str]) -> RougeScore:
    """ROUGE-L from the longest common subsequence."""
    ell = lcs_length(candidate, reference)
    return RougeScore.from_counts(ell, len(candidate), len(reference))


def rouge_triple(candidate: Sequence[str], reference: Sequence[str]) -> RougeTriple:
    return RougeTriple(
        r1=rouge_n(candidate, reference, 1),
        r2=rouge_n(candidate, reference, 2),
        rl=rouge_l(candidate, reference),
    )


def evaluate_summary(generated: str, gold: str) -> RougeTriple:
    """ROUGE-1/2/L of a generated summary against a gold summary."""
    return rouge_triple(tokenize(generated), tokenize(gold))
