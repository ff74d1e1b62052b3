"""Deterministic, seeded benchmark inputs; nothing is downloaded.

Words come from a synthetic lexicon with Zipf-distributed frequencies.
A document set mixes a set-specific topic vocabulary into that
background, so units of one set overlap in content the way news
articles on one event do, and the TF-IDF graph and ROUGE reference see
non-trivial similarity. Every sentence starts with a capital letter,
ends with a period and contains no other punctuation, so the program's
sentence splitter recovers exactly the sentences written here.

Sizes come from a fixed generator and content from the seed: every
seed gives sets of the same shapes (documents, paragraphs, sentences,
words per sentence, summary fragments), so the work a workload does
stays the same from seed to seed while the text differs. The same seed
always gives byte-identical files.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

LEXICON_SIZE = 3000
ZIPF_EXPONENT = 1.1
TOPIC_WORDS = 40
TOPIC_SHARE = 0.3
DOCS, PARAGRAPHS, SENTENCES, WORDS = (3, 5), (4, 8), (2, 4), (6, 16)
SHAPE_SEED = 20210525

SPECIAL_TOKENS = ["<pad>", "<bos>", "<eos>", "<eoss>"]
EOSS_ID = SPECIAL_TOKENS.index("<eoss>")

_ONSETS = list("bcdfghjklmnprstvwz") + ["br", "ch", "dr", "gl", "pl", "sh", "st", "th", "tr"]
_NUCLEI = ["a", "e", "i", "o", "u", "ai", "ea", "ou"]
_CODAS = ["", "", "", "n", "r", "s", "t", "l", "nd", "st"]


def lexicon(rng: np.random.Generator, size: int = LEXICON_SIZE) -> list[str]:
    """Distinct lowercase pseudo-words, most frequent first."""
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < size:
        syllables = int(rng.integers(1, 4))
        word = "".join(
            _ONSETS[rng.integers(len(_ONSETS))]
            + _NUCLEI[rng.integers(len(_NUCLEI))]
            + _CODAS[rng.integers(len(_CODAS))]
            for _ in range(syllables)
        )
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def zipf_weights(size: int) -> np.ndarray:
    weights = 1.0 / np.arange(1, size + 1) ** ZIPF_EXPONENT
    return weights / weights.sum()


class _Writer:
    """Draws sentences for one document set."""

    def __init__(self, rng: np.random.Generator, words: list[str], probs: np.ndarray):
        self.rng = rng
        self.words = words
        self.probs = probs
        self.topic = list(rng.choice(len(words), size=TOPIC_WORDS, replace=False))

    def sentence_words(self, length: int) -> list[str]:
        background = self.rng.choice(len(self.words), size=length, p=self.probs)
        from_topic = self.rng.random(length) < TOPIC_SHARE
        picks = self.rng.choice(self.topic, size=length)
        return [self.words[int(t if f else b)] for b, f, t in zip(background, from_topic, picks)]


def _draw(rng: np.random.Generator, bounds: tuple[int, int]) -> int:
    return int(rng.integers(bounds[0], bounds[1] + 1))


def render(words: list[str]) -> str:
    return words[0].capitalize() + " " + " ".join(words[1:]) + "."


def make_corpus(seed: int, num_sets: int) -> list[dict]:
    """Corpus records in the documented JSON-lines layout.

    A set has DOCS documents of PARAGRAPHS paragraphs of SENTENCES
    sentences of WORDS words (inclusive ranges), so most sets fill both
    the paragraph (L=30) and the sentence (L=60) grid and some are
    padded. Every set carries a gold summary of three
    sentences, each a source sentence with about a third of its words
    replaced. Each record also keeps its plain sentence list under
    ``"_sentences"`` (word lists in document order), which
    ``write_corpus`` drops; the external-dump generator uses it.
    """
    rng = np.random.default_rng([seed, 0])
    shape = np.random.default_rng(SHAPE_SEED)
    words_list = lexicon(rng)
    probs = zipf_weights(len(words_list))
    records = []
    for s in range(num_sets):
        writer = _Writer(rng, words_list, probs)
        documents = []
        all_sentences: list[list[str]] = []
        for d in range(_draw(shape, DOCS)):
            paras = []
            for _ in range(_draw(shape, PARAGRAPHS)):
                sents = [
                    writer.sentence_words(_draw(shape, WORDS))
                    for _ in range(_draw(shape, SENTENCES))
                ]
                all_sentences.extend(sents)
                paras.append(" ".join(render(w) for w in sents))
            documents.append({"doc_id": f"set{s:03d}.d{d}", "paragraphs": paras})
        gold = []
        for i in shape.choice(len(all_sentences), size=3, replace=False):
            sent = list(all_sentences[int(i)])
            for j in np.nonzero(rng.random(len(sent)) < 0.33)[0]:
                sent[int(j)] = writer.sentence_words(1)[0]
            gold.append(render(sent))
        records.append({
            "set_id": f"set{s:03d}",
            "documents": documents,
            "gold_summary": " ".join(gold),
            "_sentences": all_sentences,
        })
    return records


def write_corpus(records: list[dict], path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            public = {k: v for k, v in rec.items() if not k.startswith("_")}
            fh.write(json.dumps(public) + "\n")


def write_external_dumps(
    seed: int, records: list[dict], out_dir: Path, *, units: int, summary_sentences: int,
    beams: int, layers: int, heads: int, extra_steps: int = 2,
) -> None:
    """Summary, ``AWD1`` and ``vocab.json`` files as an external summarizer
    would write them, for sentence-mode unitization with ``units`` slots.

    Summary sentence k copies a fragment of one source sentence and ends
    with ``<eoss>``. The beam trace draws random parents, and the winner
    stops ``extra_steps`` before the recorded horizon, so alignment has
    to walk real ancestry and truncate. Each recorded slice is a softmax
    over the real units (pad units carry zero mass) whose logits favour
    the unit the sentence was copied from by a per-(layer, head)
    margin, so attention and the ROUGE reference correlate to a degree
    that differs by head.
    """
    rng = np.random.default_rng([seed, 1])
    shape = np.random.default_rng([SHAPE_SEED, 1])
    out_dir.mkdir(parents=True, exist_ok=True)
    vocab = SPECIAL_TOKENS + sorted(
        {w for rec in records for sent in rec["_sentences"] for w in sent} | {"."}
    )
    token_id = {tok: i for i, tok in enumerate(vocab)}
    with open(out_dir / "vocab.json", "w", encoding="utf-8") as fh:
        json.dump(vocab, fh)
        fh.write("\n")
    margin = rng.uniform(0.0, 4.0, size=(layers, heads))
    for rec in records:
        sources = rec["_sentences"][:units]
        real = len(sources)
        tokens: list[int] = []
        origin_unit: list[int] = []
        for _ in range(summary_sentences):
            u = int(shape.integers(real))
            sent = sources[u]
            length = int(shape.integers(3, min(10, len(sent)) + 1))
            start = int(shape.integers(0, len(sent) - length + 1))
            tokens += [token_id[w] for w in sent[start:start + length]] + [EOSS_ID]
            origin_unit += [u] * (length + 1)
        steps = len(tokens) + extra_steps
        origin_unit += [origin_unit[-1]] * extra_steps
        logits = rng.normal(0.0, 1.0, size=(beams, steps, layers, heads, units))
        logits[:, np.arange(steps), :, :, origin_unit] += margin
        logits[..., real:] = -np.inf
        logits -= logits.max(axis=-1, keepdims=True)
        probs = np.exp(logits)
        probs /= probs.sum(axis=-1, keepdims=True)
        values = np.ascontiguousarray(probs, dtype="<f4")
        with open(out_dir / f"{rec['set_id']}.awd", "wb") as fh:
            fh.write(b"AWD1")
            fh.write(struct.pack("<5I", *values.shape))
            fh.write(values.tobytes())
        summary = {
            "set_id": rec["set_id"],
            "tokens": tokens,
            "beam_trace": rng.integers(0, beams, size=(steps, beams)).tolist(),
            "winning_beam": int(rng.integers(beams)),
        }
        with open(out_dir / f"{rec['set_id']}.summary.json", "w", encoding="utf-8") as fh:
            json.dump(summary, fh)
            fh.write("\n")
