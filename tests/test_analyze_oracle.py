"""``analyze`` end to end against a definitional reference.

``reference_report`` recomputes ``report.json`` from the unitized, summary,
tensor and vocabulary files with plain Python loops, as the paper defines
each step. It follows the winning beam back through the beam trace, splits
the summary after each ``<eoss>`` and drops spans without a word, averages
each sentence's attention over its tokens, scores every (sentence, unit)
cell by the unit's mean ROUGE F1 (``test_rouge``'s DP oracles), and computes
two-pass Pearson coefficients over the cells of non-pad units and the argmax
positional-bias tally. The cases write many-sentence summaries, tensors and
a vocabulary directly, as an external summarizer would, since the synthetic
decoder writes one sentence per summary.
"""

import json
import math
import struct

import numpy as np
import pytest

import attnorigin as ao
from attnorigin.cli.main import main
from attnorigin.graphattn import EOS_SENT_TOKEN, EOS_TOKEN, SPECIAL_TOKENS
from attnorigin.textunits import UnitizedRecord, split_sentences, tokenize, write_unitized
from conftest import make_docset
from test_rouge import dp_lcs_length, oracle_clipped_ngram_counts, scalar_scores

# Coefficients and normalized tallies may differ from the reference by this much
# (absolute), as summation orders differ; counts must match exactly.
TOLERANCE = 1e-9
VARIANTS = ("r1", "r2", "rl")
WORDS = ["alpha", "beta", "gamma", "delta", "river", "stone", "."]


# ---------------------------------------------------------------------------
# The reference
# ---------------------------------------------------------------------------

def read_tensor(path):
    """The tensor's dims and a reader of value [beam][step][layer][head][unit]."""
    data = path.read_bytes()
    assert data[:4] == b"AWD1"
    dims = struct.unpack("<5I", data[4:24])
    flat = struct.unpack(f"<{math.prod(dims)}f", data[24:])
    _, sl, dl, mh, L = dims

    def at(b, t, layer, head, u):
        return flat[(((b * sl + t) * dl + layer) * mh + head) * L + u]
    return dims, at


def f1_scores(candidate, reference):
    """ROUGE-1, ROUGE-2 and ROUGE-L F1 of one sentence against one reference sentence."""
    return [scalar_scores(*oracle_clipped_ngram_counts(candidate, reference, 1))[2],
            scalar_scores(*oracle_clipped_ngram_counts(candidate, reference, 2))[2],
            scalar_scores(dp_lcs_length(candidate, reference), len(candidate),
                          len(reference))[2]]


def pearson(x, y):
    """Two-pass sample Pearson coefficient; None when either side is constant."""
    if len(set(x)) < 2 or len(set(y)) < 2:
        return None
    mx, my = sum(x) / len(x), sum(y) / len(y)
    sxy = sum((a - mx) * (b - my) for a, b in zip(x, y))
    sxx = sum((a - mx) ** 2 for a in x)
    syy = sum((b - my) ** 2 for b in y)
    return max(-1.0, min(1.0, sxy / math.sqrt(sxx * syy)))


def kept_sentences(summary, tensor, vocab):
    """One set's kept sentences as (attention [layer][head][unit], words)."""
    (_, steps, dl, mh, L), at = tensor
    tokens, slot = summary["tokens"], summary["winning_beam"]
    producer = [0] * steps  # the beam slot whose step-t slice produced token t
    for t in range(steps - 1, -1, -1):
        slot = producer[t] = summary["beam_trace"][t][slot]
    spans, start = [], 0
    for i, token in enumerate(tokens):
        if vocab[token] == EOS_SENT_TOKEN:
            spans.append((start, i + 1))
            start = i + 1
    if start < len(tokens):
        spans.append((start, len(tokens)))
    sentences = []
    for a, b in spans:
        words = tokenize(" ".join(vocab[t] for t in tokens[a:b] if vocab[t] not in SPECIAL_TOKENS))
        if words:
            attention = [[[sum(at(producer[t], t, layer, h, u) for t in range(a, b)) / (b - a)
                           for u in range(L)] for h in range(mh)] for layer in range(dl)]
            sentences.append((attention, words))
    return sentences


def reference_report(unitized, summaries, vocab_file):
    vocab = json.loads(vocab_file.read_text())
    cells, per_set, picks, max_position = [], [], [], 0
    for line in unitized.read_text().splitlines():
        record = json.loads(line)
        sid = record["set_id"]
        summary = json.loads((summaries / f"{sid}.summary.json").read_text())
        tensor = read_tensor(summaries / f"{sid}.awd")
        (_, _, dl, mh, _) = tensor[0]
        units = [[tokenize(s) for s in split_sentences(u["original_text"])]
                 for u in record["units"]]  # the non-pad units, in slot order
        seen = {}
        positions = []  # each non-pad unit's position within its document
        for u in range(len(units)):
            doc = record["doc_boundaries"][str(u)]
            seen[doc] = seen.get(doc, -1) + 1
            positions.append(seen[doc])
        max_position = max([max_position, *positions])
        sentences = kept_sentences(summary, tensor, vocab)
        pool = []
        for attention, words in sentences:
            for u, unit in enumerate(units):
                scores = [f1_scores(words, ref) for ref in unit]
                f1 = [sum(s[v] for s in scores) / max(len(scores), 1) for v in range(3)]
                pool.append(([[attention[layer][h][u] for h in range(mh)]
                              for layer in range(dl)], f1))
        cells += pool
        per_set.append((sid, pool))
        last = [[sum(attention[dl - 1][h][u] for h in range(mh)) / mh
                 for u in range(len(units))] for attention, _ in sentences]
        picks.append([positions[row.index(max(row))] for row in last])

    def layer_mean(layer):
        return lambda cell: sum(cell[0][layer]) / mh

    def head(layer, h):
        return lambda cell: cell[0][layer][h]

    def metric(v):
        return lambda cell: cell[1][v]

    def r(pool, pick_x, pick_y):
        return pearson([pick_x(c) for c in pool], [pick_y(c) for c in pool])

    counts = [[0] * max(len(p) for p in picks) for _ in range(max_position + 1)]
    for set_picks in picks:
        for sentence, position in enumerate(set_picks):
            counts[position][sentence] += 1
    totals = [sum(row[j] for row in counts) for j in range(len(counts[0]))]
    return {
        "layers": [{"layer": layer + 1, **{v: r(cells, layer_mean(layer), metric(i))
                                           for i, v in enumerate(VARIANTS)}}
                   for layer in range(dl)],
        "heads": [{"layer": layer + 1, "head": h, **{v: r(cells, head(layer, h), metric(i))
                                                     for i, v in enumerate(VARIANTS)}}
                  for layer in range(dl) for h in range(mh)],
        "head_matrix": [{"layer": layer + 1, "matrix": [[r(cells, head(layer, i), head(layer, j))
                                                         for j in range(mh)] for i in range(mh)]}
                        for layer in range(dl)],
        "layer_matrix": [[r(cells, layer_mean(i), layer_mean(j)) for j in range(dl)]
                         for i in range(dl)],
        "sample_count": len(cells),
        "per_summary": [{"set_id": sid, "layer": layer + 1,
                         **{v: r(pool, layer_mean(layer), metric(i))
                            for i, v in enumerate(VARIANTS)}}
                        for sid, pool in per_set for layer in range(dl)],
        "posbias": {"counts": counts,
                    "normalized": [[c / t if t else 0.0 for c, t in zip(row, totals)]
                                   for row in counts]},
    }


# ---------------------------------------------------------------------------
# Cases
# ---------------------------------------------------------------------------

def sentence_text(rng):
    words = rng.choice(WORDS[:-1], size=rng.integers(1, 6)).tolist()
    return " ".join([words[0].capitalize(), *words[1:]]) + "."


def summary_tokens(rng, ids, sentences):
    """``sentences`` sentences of 1-5 words, each ending with ``<eoss>``, some
    followed by a span of markers alone; then nothing, a final ``<eos>`` alone,
    or words without a marker."""
    tokens = []
    for _ in range(sentences):
        tokens += [ids[w] for w in rng.choice(WORDS, size=rng.integers(1, 6))]
        tokens.append(ids[EOS_SENT_TOKEN])
        if rng.random() < 0.25:
            tokens.append(ids[rng.choice([EOS_SENT_TOKEN, EOS_TOKEN])])
    tail = rng.integers(3)
    if tail == 1:
        tokens.append(ids[EOS_TOKEN])
    elif tail == 2:
        tokens += [ids[w] for w in rng.choice(WORDS, size=rng.integers(1, 4))]
    return tokens


def write_case(root, seed):
    """Three sets of several documents; set 0 has pad units and at least two
    sentences, and at every third seed set 2's summary is empty."""
    rng = np.random.default_rng(seed)
    mode = ("sentence", "paragraph")[seed % 2]
    beams, layers, heads = (int(n) for n in rng.integers(1, 4, size=3))
    vocab = [*SPECIAL_TOKENS, *WORDS]
    ids = {w: i for i, w in enumerate(vocab)}
    root.mkdir(parents=True, exist_ok=True)
    (root / "vocab.json").write_text(json.dumps(vocab))
    records = []
    for k in range(3):
        docs = [[" ".join(sentence_text(rng) for _ in range(rng.integers(1, 3)))
                 for _ in range(rng.integers(1, 3))] for _ in range(rng.integers(1, 4))]
        docset = make_docset(f"s{k}", docs)
        real = ao.unitize(docset, mode, 64, 64).num_real_units
        L = real + int(rng.integers(1 if k == 0 else 0, 3))
        records.append(UnitizedRecord(f"s{k}", ao.unitize(docset, mode, L, 64)))
        sentences = 0 if k == 2 and seed % 3 == 0 else int(rng.integers(2 if k == 0 else 1, 5))
        tokens = summary_tokens(rng, ids, sentences) if sentences else []
        steps = len(tokens) + int(rng.integers(3))
        logits = rng.normal(0.0, 2.0, size=(beams, steps, layers, heads, L))
        logits[..., real:] = -np.inf
        probs = np.exp(logits - logits.max(axis=-1, keepdims=True))
        probs /= probs.sum(axis=-1, keepdims=True)
        with open(root / f"s{k}.awd", "wb") as fh:
            fh.write(b"AWD1" + struct.pack("<5I", *probs.shape))
            fh.write(probs.astype("<f4").tobytes())
        (root / f"s{k}.summary.json").write_text(json.dumps({
            "set_id": f"s{k}", "tokens": tokens,
            "beam_trace": rng.integers(0, beams, size=(steps, beams)).tolist(),
            "winning_beam": int(rng.integers(beams)),
        }))
    write_unitized(records, root / "units.jsonl")


def assert_close(got, expected, where="report"):
    if isinstance(expected, dict):
        assert got.keys() == expected.keys(), where
        for key in expected:
            assert_close(got[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert len(got) == len(expected), where
        for i, (g, e) in enumerate(zip(got, expected)):
            assert_close(g, e, f"{where}[{i}]")
    elif isinstance(expected, float):
        assert got is not None and abs(got - expected) <= TOLERANCE, (where, got, expected)
    else:
        assert got == expected, (where, got, expected)


@pytest.mark.parametrize("seed", range(32))
def test_analyze_matches_the_definitional_reference(tmp_path, seed):
    write_case(tmp_path / "in", seed)
    inp = tmp_path / "in"
    assert main(["analyze", "--awd", str(inp), "--summaries", str(inp),
                 "--unitized", str(inp / "units.jsonl"), "--out", str(tmp_path / "out")]) == 0
    got = json.loads((tmp_path / "out" / "report.json").read_text())
    assert_close(got, reference_report(inp / "units.jsonl", inp, inp / "vocab.json"))
