"""Tests for ROUGE scores, with independent brute-force oracles."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import attnorigin as ao
from attnorigin import rouge
from attnorigin.rouge import lcs_length, rouge_counts, rouge_triple, scores_from_counts


# ---------------------------------------------------------------------------
# Oracles: deliberately naive, list-scanning implementations.
# ---------------------------------------------------------------------------

def oracle_clipped_ngram_counts(candidate, reference, n):
    """Clipped match count by scanning candidate n-grams one by one."""
    cand_grams = [tuple(candidate[i : i + n]) for i in range(len(candidate) - n + 1)]
    ref_grams = [tuple(reference[i : i + n]) for i in range(len(reference) - n + 1)]
    matches = 0
    for gram in set(cand_grams):
        matches += min(cand_grams.count(gram), ref_grams.count(gram))
    return matches, len(cand_grams), len(ref_grams)


def oracle_lcs_by_enumeration(a, b):
    """Longest common subsequence via exhaustive subsequence search."""
    shorter, longer = (a, b) if len(a) <= len(b) else (b, a)
    best = 0
    for mask in range(1 << len(shorter)):
        sub = [shorter[i] for i in range(len(shorter)) if mask >> i & 1]
        if len(sub) <= best:
            continue
        it = iter(longer)
        if all(tok in it for tok in sub):
            best = len(sub)
    return best


def dp_lcs_length(a, b):
    """Longest common subsequence by the O(mn) dynamic programme."""
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


def scalar_scores(matches, candidate_total, reference_total):
    """Precision, recall and F1 with Python float operations, one count triple at a time."""
    p = matches / candidate_total if candidate_total else 0.0
    r = matches / reference_total if reference_total else 0.0
    f = 2.0 * p * r / (p + r) if p + r > 0 else 0.0
    return p, r, f


def oracle_counts(candidates, references):
    """The int64 (C, R, 3, 3) counts of ``rouge_counts``, one oracle call per pair."""
    return np.array([[[oracle_clipped_ngram_counts(c, r, 1), oracle_clipped_ngram_counts(c, r, 2),
                       (dp_lcs_length(c, r), len(c), len(r))] for r in references]
                     for c in candidates], dtype=np.int64).reshape(len(candidates), len(references), 3, 3)


def random_tokens(rng, max_len=8, alphabet=4):
    return [f"t{rng.integers(0, alphabet)}" for _ in range(rng.integers(0, max_len + 1))]


# ---------------------------------------------------------------------------
# rouge_n
# ---------------------------------------------------------------------------

def test_rouge_n_identical_sequences():
    tokens = ["a", "b", "c", "d"]
    for n in (1, 2, 3, 4):
        score = ao.rouge_n(tokens, tokens, n)
        assert score.precision == score.recall == score.f1 == 1.0


def test_rouge_1_hand_example():
    score = ao.rouge_n(["the", "cat", "sat"], ["the", "cat"], 1)
    assert abs(score.precision - 2 / 3) < 1e-15
    assert score.recall == 1.0
    assert abs(score.f1 - 0.8) < 1e-15


def test_rouge_2_single_tokens_all_zero():
    score = ao.rouge_n(["a"], ["a"], 2)
    assert score == ao.rouge_n(["a"], ["a"], 2)
    assert score.precision == score.recall == score.f1 == 0.0


def test_rouge_n_clipping():
    # "a" appears twice in the candidate but once in the reference
    score = ao.rouge_n(["a", "a"], ["a", "b"], 1)
    assert score.precision == 0.5 and score.recall == 0.5


def test_rouge_n_empty_inputs():
    assert ao.rouge_n([], ["a"], 1).f1 == 0.0
    assert ao.rouge_n(["a"], [], 1).f1 == 0.0


def test_rouge_n_rejects_bad_n():
    with pytest.raises(ValueError):
        ao.rouge_n(["a"], ["a"], 0)


def test_rouge_n_matches_oracle_random():
    rng = np.random.default_rng(23)
    for _ in range(300):
        cand = random_tokens(rng)
        ref = random_tokens(rng)
        for n in (1, 2, 3):
            matches, ct, rt = oracle_clipped_ngram_counts(cand, ref, n)
            got = ao.rouge_n(cand, ref, n)
            expected_p = matches / ct if ct else 0.0
            expected_r = matches / rt if rt else 0.0
            assert got.precision == expected_p
            assert got.recall == expected_r


# ---------------------------------------------------------------------------
# rouge_l
# ---------------------------------------------------------------------------

def test_rouge_l_hand_example():
    score = ao.rouge_l(["a", "b", "c"], ["a", "c"])
    assert abs(score.precision - 2 / 3) < 1e-15
    assert score.recall == 1.0
    assert abs(score.f1 - 0.8) < 1e-15


def test_rouge_l_identical():
    score = ao.rouge_l(["x", "y"], ["x", "y"])
    assert score.precision == score.recall == score.f1 == 1.0


def test_rouge_l_disjoint():
    score = ao.rouge_l(["a", "b"], ["c", "d"])
    assert score.precision == score.recall == score.f1 == 0.0


def test_rouge_l_empty():
    assert ao.rouge_l([], []).f1 == 0.0
    assert ao.rouge_l([], ["a"]).f1 == 0.0


def test_lcs_matches_enumeration_random():
    rng = np.random.default_rng(29)
    for _ in range(200):
        a = random_tokens(rng, max_len=7)
        b = random_tokens(rng, max_len=7)
        assert lcs_length(a, b) == oracle_lcs_by_enumeration(a, b)


def test_lcs_bit_parallel_matches_dp_random():
    """Lengths up to 200 push the masks well past 64 bits; small alphabets repeat tokens."""
    rng = np.random.default_rng(41)
    for _ in range(300):
        max_len = int(rng.choice([6, 70, 200]))
        alphabet = int(rng.integers(1, 6))
        a = random_tokens(rng, max_len=max_len, alphabet=alphabet)
        b = random_tokens(rng, max_len=max_len, alphabet=alphabet)
        assert lcs_length(a, b) == dp_lcs_length(a, b)


def test_rouge_l_equals_rouge_1_on_subsequences():
    rng = np.random.default_rng(31)
    for _ in range(100):
        longer = random_tokens(rng, max_len=8)
        keep = [tok for tok in longer if rng.random() < 0.6]
        rl = ao.rouge_l(keep, longer)
        r1 = ao.rouge_n(keep, longer, 1)
        assert rl.f1 == r1.f1


def test_scores_bounded():
    rng = np.random.default_rng(37)
    for _ in range(100):
        cand, ref = random_tokens(rng), random_tokens(rng)
        triple = rouge_triple(cand, ref)
        for score in (triple.r1, triple.r2, triple.rl):
            assert 0.0 <= score.precision <= 1.0
            assert 0.0 <= score.recall <= 1.0
            assert 0.0 <= score.f1 <= 1.0


# ---------------------------------------------------------------------------
# rouge_counts and scores_from_counts
# ---------------------------------------------------------------------------

def test_rouge_counts_match_oracles():
    rng = np.random.default_rng(43)
    cands = [random_tokens(rng, max_len=12, alphabet=5) for _ in range(9)] + [[]]
    refs = [random_tokens(rng, max_len=12, alphabet=5) for _ in range(11)] + [[]]
    counts = rouge_counts(cands, refs)
    assert counts.dtype == np.int64 and counts.shape == (10, 12, 3, 3)
    assert counts.tolist() == oracle_counts(cands, refs).tolist()
    for i, cand in enumerate(cands):
        for j, ref in enumerate(refs):
            triple = rouge_triple(cand, ref)
            got = [(s.precision, s.recall, s.f1) for s in (triple.r1, triple.r2, triple.rl)]
            assert got == [scalar_scores(*row) for row in counts[i, j].tolist()]


def word_lists(ids):
    return [[f"w{i}" for i in seq] for seq in ids]


# Lengths at the uint64 word edges of the LCS state: 63, 64 and 65 bits, two words, just over two.
EDGES = (63, 64, 65, 128, 129)


def id_lists(words):
    """Up to six id sequences of 0-200 tokens over ``words`` words; the length is
    drawn first, since list sizes drawn by hypothesis rarely pass one uint64 word."""
    sequence = st.integers(0, 200).flatmap(
        lambda n: st.lists(st.integers(0, words - 1), min_size=n, max_size=n))
    return st.lists(sequence, max_size=6)


# Candidates use words 0 to words - 1; word ``words`` occurs only in references.
@settings(max_examples=40)
@given(st.integers(1, 6).flatmap(lambda words: st.tuples(id_lists(words), id_lists(words + 1))))
@example(([[i % 3 for i in range(n)] for n in EDGES] + [[]],
          [[i * 7 % 4 for i in range(n)] for n in EDGES[::-1]] + [[]]))
@example(([[3] * 64, [0, 1] * 32], [[3] * 65, [1, 0] * 64 + [1]]))
@example(([[]], [[]]))
@example(([], [[0] * 64]))
@example(([[0] * 65], []))
def test_rouge_counts_match_oracles_up_to_200_tokens(sides):
    cands, refs = word_lists(sides[0]), word_lists(sides[1])
    counts = rouge_counts(cands, refs)
    assert counts.dtype == np.int64
    assert np.array_equal(counts, oracle_counts(cands, refs))
    for cand, ref in zip(cands[:1], refs[:1]):  # rouge_n reads the same n-gram counter
        for n in (3, 4):
            assert ao.rouge_n(cand, ref, n) == ao.RougeScore.from_counts(
                *oracle_clipped_ngram_counts(cand, ref, n))


def spy_on_chunks(monkeypatch):
    """The candidate ranges that ``rouge._chunks`` yields, in order, once patched in."""
    ranges = []
    chunks = rouge._chunks

    def spy(*args):
        for chunk in chunks(*args):
            ranges.append(chunk)
            yield chunk

    monkeypatch.setattr(rouge, "_chunks", spy)
    return ranges


def test_rouge_counts_same_array_in_one_candidate_chunks(monkeypatch):
    rng = np.random.default_rng(53)
    cands = [random_tokens(rng, max_len=int(rng.choice([6, 70, 200])), alphabet=5) for _ in range(7)]
    refs = [random_tokens(rng, max_len=int(rng.choice([6, 70, 200])), alphabet=6) for _ in range(9)]
    expected = rouge_counts(cands, refs)
    chunks = spy_on_chunks(monkeypatch)
    monkeypatch.setattr(rouge, "_CHUNK_ELEMENTS", 1)
    assert np.array_equal(rouge_counts(cands, refs), expected)
    assert chunks == [(i, i + 1) for i in range(len(cands))]


def test_rouge_counts_memory_stays_bounded():
    """64 candidates of 128 distinct words against 128 references of 100 of those
    words: one unchunked (C, R, V) int64 block would take 64 * 128 * 8192 * 8 bytes
    (512 MiB). numpy reports its buffers to tracemalloc."""
    rng = np.random.default_rng(59)
    cands = [[f"w{c * 128 + i}" for i in range(128)] for c in range(64)]
    ids = rng.integers(0, 64 * 128, size=(128, 100))
    refs = word_lists(ids)
    tracemalloc.start()
    try:
        counts = rouge_counts(cands, refs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    # each candidate word once, so a ROUGE-1 match is a distinct reference word in its range
    owners = [np.bincount(np.unique(row) // 128, minlength=64) for row in ids]
    assert np.array_equal(counts[:, :, 0, 0], np.array(owners).T)


def test_rouge_counts_empty_sides():
    assert rouge_counts([], [["a"], ["b"]]).shape == (0, 2, 3, 3)
    assert rouge_counts([["a"]], []).shape == (1, 0, 3, 3)


def one_pair_counts(cands, refs):
    """The (N, 3, 3) counts of ``paired_rouge_counts``, one ``rouge_counts`` call per pair."""
    rows = [rouge_counts([c], [r])[0, 0] for c, r in zip(cands, refs)]
    return np.array(rows, dtype=np.int64).reshape(len(rows), 3, 3)


# Candidates use words 0 to words - 1; word ``words`` occurs only in references.
@settings(max_examples=40)
@given(st.integers(1, 6).flatmap(lambda words: st.tuples(id_lists(words), id_lists(words + 1))))
@example(([[i % 3 for i in range(n)] for n in EDGES] + [[], [0, 1]],
          [[i * 7 % 4 for i in range(n)] for n in EDGES[::-1]] + [[0] * 64, []]))
@example(([[3] * 64, [0, 1] * 32], [[3] * 65, [1, 0] * 64 + [1]]))
@example(([[]], [[]]))
@example(([], []))
def test_paired_rouge_counts_equal_one_pair_calls_up_to_200_tokens(sides):
    n = min(map(len, sides))
    cands, refs = word_lists(sides[0][:n]), word_lists(sides[1][:n])
    counts = rouge.paired_rouge_counts(cands, refs)
    assert counts.dtype == np.int64 and counts.shape == (n, 3, 3)
    assert np.array_equal(counts, one_pair_counts(cands, refs))


def test_paired_rouge_counts_same_array_in_one_pair_chunks(monkeypatch):
    rng = np.random.default_rng(61)
    sizes = [0, 6, 70, 200]
    cands = [random_tokens(rng, max_len=int(rng.choice(sizes)), alphabet=5) for _ in range(9)]
    refs = [random_tokens(rng, max_len=int(rng.choice(sizes)), alphabet=6) for _ in range(9)]
    expected = rouge.paired_rouge_counts(cands, refs)
    chunks = spy_on_chunks(monkeypatch)
    monkeypatch.setattr(rouge, "_CHUNK_ELEMENTS", 1)
    assert np.array_equal(rouge.paired_rouge_counts(cands, refs), expected)
    assert chunks == [(i, i + 1) for i in range(len(cands))]
    assert np.array_equal(expected, one_pair_counts(cands, refs))


def test_paired_rouge_counts_memory_stays_bounded():
    """400 pairs, each candidate 128 words of its own, each reference 100 words drawn from
    every candidate's: one unchunked (N, V) int64 count block would take
    400 * 51200 * 8 bytes (156 MiB), and the (N, N, 3, 3) output of ``rouge_counts``
    11 MiB. The kernel's dict of 51,200 candidate words peaks near 6 MiB. numpy
    reports its buffers to tracemalloc."""
    rng = np.random.default_rng(67)
    n = 400
    cands = [[f"w{c * 128 + i}" for i in range(128)] for c in range(n)]
    ids = rng.integers(0, n * 128, size=(n, 100))
    refs = word_lists(ids)
    tracemalloc.start()
    try:
        counts = rouge.paired_rouge_counts(cands, refs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    # each candidate word once, so a ROUGE-1 match is a distinct reference word in its range
    owned = [len(np.unique(row[row // 128 == i])) for i, row in enumerate(ids)]
    assert counts[:, 0, 0].tolist() == owned
    assert counts[:, 0, 1:].tolist() == [[128, 100]] * n


def test_paired_rouge_counts_need_one_reference_per_candidate():
    with pytest.raises(ValueError, match="2 candidates but 1 references"):
        rouge.paired_rouge_counts([["a"], ["b"]], [["a"]])


def test_grouped_rouge_counts_reject_bad_group_ids():
    with pytest.raises(ValueError, match="need one group id per candidate"):
        rouge.grouped_rouge_counts([["a"], ["b"]], [["a"]], [0], [0])
    with pytest.raises(ValueError, match="reference group ids decrease"):
        rouge.grouped_rouge_counts([["a"]], [["a"], ["b"]], [0], [1, 0])


# Each group: a gap of 1-3 from the previous group id, candidates over words 0 to
# words - 1, references that may also hold word ``words``.
@settings(max_examples=40)
@given(st.integers(1, 6).flatmap(lambda words: st.lists(
    st.tuples(st.integers(1, 3), id_lists(words), id_lists(words + 1)), max_size=4)))
@example([(1, [[0, 1, 0, 1, 0]], []), (2, [], [[0] * 70]),
          (1, [[0, 0, 1, 2] * 20, []], [[1, 0] * 40 + [3], [3, 3], [2] * 129])])
@example([(3, [[i % 3 for i in range(n)] for n in EDGES], [[i * 7 % 4 for i in range(n)]
                                                           for n in EDGES[::-1]])])
@example([])
def test_grouped_rouge_counts_equal_one_call_per_group(groups):
    cands, refs, cand_groups, ref_groups = [], [], [], []
    expected = [np.zeros((0, 3, 3), dtype=np.int64)]
    group = 0
    for gap, group_cands, group_refs in groups:
        group += gap
        group_cands, group_refs = word_lists(group_cands), word_lists(group_refs)
        cands += group_cands
        refs += group_refs
        cand_groups += [group] * len(group_cands)
        ref_groups += [group] * len(group_refs)
        expected.append(rouge_counts(group_cands, group_refs).reshape(-1, 3, 3))
    counts = rouge.grouped_rouge_counts(cands, refs, cand_groups, ref_groups)
    assert counts.dtype == np.int64
    assert np.array_equal(counts, np.concatenate(expected))


def test_grouped_rouge_counts_same_array_in_one_candidate_chunks(monkeypatch):
    """Groups split across chunks, and a chunk spanning a group with references only."""
    rng = np.random.default_rng(73)
    sizes = [0, 6, 70, 200]
    cands = [random_tokens(rng, max_len=int(rng.choice(sizes)), alphabet=5) for _ in range(8)]
    refs = [random_tokens(rng, max_len=int(rng.choice(sizes)), alphabet=6) for _ in range(10)]
    cand_groups, ref_groups = [0, 0, 0, 2, 5, 5, 7, 9], [0, 0, 1, 1, 2, 2, 2, 5, 8, 9]
    expected = rouge.grouped_rouge_counts(cands, refs, cand_groups, ref_groups)
    assert len(expected) == 3 * 2 + 1 * 3 + 2 * 1 + 0 + 1 * 1
    chunks = spy_on_chunks(monkeypatch)
    monkeypatch.setattr(rouge, "_CHUNK_ELEMENTS", 1)
    assert np.array_equal(rouge.grouped_rouge_counts(cands, refs, cand_groups, ref_groups),
                          expected)
    assert chunks == [(i, i + 1) for i in range(len(cands))]


def test_grouped_rouge_counts_memory_follows_the_chunk_budget():
    """1,000 sets shaped like sentence mode's (two generated sentences of 12 tokens
    against 60 unit sentences of 20 tokens), from a shared lexicon of 2,000 words.
    In one chunk, the 1.2 million reference tokens alone would fill about ten int64
    arrays (92 MiB). Beyond the (120,000, 3, 3) int64 output, the peak stays within
    a few chunk budgets and does not grow with the set count. numpy reports its
    buffers to tracemalloc."""
    rng = np.random.default_rng(71)
    lexicon = [f"w{i}" for i in range(2000)]
    pool = [[lexicon[i] for i in row] for row in rng.integers(0, 2000, size=(600, 20))]

    def transient(sets):
        cands = [[lexicon[i] for i in row] for row in rng.integers(0, 2000, size=(2 * sets, 12))]
        refs = [pool[i] for i in rng.integers(0, len(pool), size=60 * sets)]
        tracemalloc.start()
        try:
            counts = rouge.grouped_rouge_counts(cands, refs, np.repeat(np.arange(sets), 2),
                                                np.repeat(np.arange(sets), 60))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts.shape == (120 * sets, 3, 3)
        return peak - counts.nbytes

    budget = rouge._CHUNK_ELEMENTS * 8
    small, large = transient(100), transient(1000)
    assert large < 4 * budget
    assert large < small + budget


def test_scores_from_counts_bit_identical_to_scalar_formula():
    grid = [(m, c, r) for c in range(9) for r in range(9) for m in range(min(c, r) + 1)]
    expected = np.array([scalar_scores(*t) for t in grid])
    assert scores_from_counts(np.array(grid, dtype=np.int64)).tobytes() == expected.tobytes()
    assert ao.RougeScore.from_counts(1, 3, 2) == ao.RougeScore(*scalar_scores(1, 3, 2))


# ---------------------------------------------------------------------------
# evaluate_summary
# ---------------------------------------------------------------------------

def test_evaluate_summary_identical_text():
    text = "The findings were clear. Everyone agreed."
    triple = ao.evaluate_summary(text, text)
    assert triple.r1.f1 == triple.r2.f1 == triple.rl.f1 == 1.0


def test_evaluate_summary_empty_generated():
    triple = ao.evaluate_summary("", "gold text here")
    assert triple.r1.f1 == triple.r2.f1 == triple.rl.f1 == 0.0


def test_evaluate_summary_case_insensitive():
    assert ao.evaluate_summary("The Cat", "the cat").r1.f1 == 1.0
