"""Shared builders for corpora, graphs, and toy models."""

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

import attnorigin as ao
from attnorigin.graphattn import EOS_SENT_TOKEN, build_vocab

# Every property test replays the same examples and keeps no example
# database; each test still sets its own max_examples.
settings.register_profile("attnorigin", derandomize=True, database=None, deadline=None)
settings.load_profile("attnorigin")


def make_docset(set_id, doc_paragraphs, gold=None):
    """Document set from a list of per-document paragraph lists."""
    docs = [
        ao.RawDocument.from_paragraphs(f"{set_id}.d{d}", paras)
        for d, paras in enumerate(doc_paragraphs)
    ]
    return ao.MultiDocSet(set_id=set_id, documents=docs, gold_summary=gold)


def unitized_and_graph(doc_paragraphs, mode="paragraph", L=6, T=12, tau=0.0, set_id="s0"):
    inp = ao.unitize(make_docset(set_id, doc_paragraphs), mode, L, T)
    return inp, ao.build_graph(inp, threshold=tau)


def vocab_of(inp):
    return build_vocab(t for u in inp.units for t in u.tokens)


def sentinel_paragraphs(set_idx, num_docs=2, paras_per_doc=3):
    """Per-document paragraphs whose tokens are unique to each unit.

    Every paragraph has two sentences built from its own sentinel stem,
    so cross-unit similarity is zero and ROUGE against any other unit
    vanishes.
    """
    docs = []
    unit = 0
    for d in range(num_docs):
        paras = []
        for _ in range(paras_per_doc):
            stem = f"u{set_idx}x{unit}"
            paras.append(
                f"{stem}a {stem}b {stem}c {stem}d. Also {stem}e {stem}f {stem}g."
            )
            unit += 1
        docs.append(paras)
    return docs


def random_unitized(rng, num_docs=2, paras_per_doc=2, words=4, L=6, T=8, set_id="s"):
    """Unitized input over a small random-word corpus."""
    docs = []
    for d in range(num_docs):
        paras = []
        for p in range(paras_per_doc):
            paras.append(" ".join(f"w{rng.integers(0, 12)}" for _ in range(words)))
        docs.append(paras)
    return ao.unitize(make_docset(set_id, docs), "paragraph", L, T)


@st.composite
def unit_grids(draw, words="abcdef"):
    """A ``UnitizedInput`` with 1-token and T-token units, repeated tokens
    from a small vocabulary, pad slots, and sets of one real unit among pads."""
    T = draw(st.integers(1, 12))
    length = st.sampled_from([1, T]) | st.integers(1, T)
    tokens = draw(st.lists(length.flatmap(
        lambda n: st.lists(st.sampled_from(words), min_size=n, max_size=n)), min_size=1,
        max_size=7))
    L = len(tokens) + draw(st.integers(0, 4))
    units = [ao.TextualUnit(0, i, list(t), " ".join(t)) for i, t in enumerate(tokens)]
    units += [ao.TextualUnit(-1, i, [], "") for i in range(len(tokens), L)]
    return ao.UnitizedInput(units, L=L, T=T, mode="paragraph", doc_boundaries=None)


def small_weights(inp, seed=0, d_model=16, num_layers=2, num_heads=2, max_len=6, sigma=1.0):
    vocab = vocab_of(inp)
    cfg = ao.ModelConfig(
        d_model=d_model,
        num_layers=num_layers,
        num_heads=num_heads,
        sigma=sigma,
        vocab_size=len(vocab),
        num_units=inp.L,
        max_len=max_len,
    )
    return ao.make_synthetic_weights(seed, cfg, vocab=vocab)


def json_paths(value, path=()):
    """Every path into a JSON value, the root included."""
    yield path
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        children = ()
    for key, child in children:
        yield from json_paths(child, path + (key,))


def replaced(obj, where, value):
    """A deep copy of JSON value ``obj`` with the value at path ``where`` replaced."""
    if not where:
        return value
    obj = json.loads(json.dumps(obj))
    parent = obj
    for key in where[:-1]:
        parent = parent[key]
    parent[where[-1]] = value
    return obj


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(-2, 2) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6,
)


@pytest.fixture
def two_doc_input():
    """Two documents, two paragraphs each, plus two pad slots."""
    return unitized_and_graph(
        [
            ["the cat sat down. It purred loudly.", "a dog barked at night"],
            ["rivers flow to the sea", "mountains stand tall and firm"],
        ]
    )


# ---------------------------------------------------------------------------
# Planted-origin run: summaries whose attention is a known mix of noise and
# the ROUGE-1 reference, written through the public writers.
# ---------------------------------------------------------------------------

# Share of the ROUGE-1 row in every head's slice, per layer.
PLANTED_MIX = (0.0, 0.3, 0.6, 0.9)


def oracle_rouge1_f1(candidate, reference):
    """ROUGE-1 F1 from clipped unigram matches counted by list scanning."""
    matches = sum(min(candidate.count(w), reference.count(w)) for w in set(candidate))
    if not matches:
        return 0.0
    p, r = matches / len(candidate), matches / len(reference)
    return 2.0 * p * r / (p + r)


@dataclass
class PlantedRun:
    units: Path  # unitized file
    gen: Path  # summaries, AWD1 tensors and vocab.json
    cells: np.ndarray  # (cells, layers) head-averaged attention per (sentence, real unit)
    f1: np.ndarray  # (cells,) ROUGE-1 F1 of each cell


def write_planted_run(root, seed=5, num_sets=4, sentences=3, heads=2, beams=3, doubled=False):
    """Write a planted-origin run under ``root``; its cells are built here,
    independently of ``origin`` and ``awd``.

    Each set has two documents of three two-sentence paragraphs (six real
    units, two pads). Each summary has ``sentences`` sentences of random
    words, each closed by ``.`` and ``<eoss>``. At layer l every head's
    slice on the winning path is ``(1 - a_l) * noise + a_l * f``,
    renormalized over the real units, where f is the sentence's ROUGE-1 F1
    row; every other tensor slot is noise. Beam parents are random and the
    tensor has one step more than the summary. With ``doubled``, each
    summary's first ``<eoss>`` is written twice; the extra step is noise
    and no sentence, so it adds no cell.
    """
    rng = np.random.default_rng(seed)
    root = Path(root)
    gen = root / "gen"
    gen.mkdir(parents=True)
    words = [f"w{i}" for i in range(10)]
    mix = np.array(PLANTED_MIX)[:, None, None]  # broadcasts over (layers, heads, units)

    def sentence(size):
        return [str(w) for w in rng.choice(words, size)]

    sets = []
    for k in range(num_sets):
        units = [[sentence(4) for _ in range(2)] for _ in range(6)]
        paragraphs = [" ".join(" ".join([s[0].upper(), *s[1:]]) + "." for s in unit)
                      for unit in units]
        inp = ao.unitize(make_docset(f"p{k}", [paragraphs[:3], paragraphs[3:]]),
                         "paragraph", L=8, T=12)
        # the tokenizer keeps each sentence's "." as a token
        units = [[s + ["."] for s in unit] for unit in units]
        summary = [sentence(rng.integers(3, 6)) + ["."] for _ in range(sentences)]
        sets.append((f"p{k}", inp, units, summary))
    ao.write_unitized([ao.UnitizedRecord(set_id, inp) for set_id, inp, _, _ in sets],
                      root / "units.jsonl")
    vocab = build_vocab(words + ["."])
    ao.textunits.write_json(vocab, gen / "vocab.json")

    cells, f1 = [], []
    for set_id, inp, units, summary in sets:
        real = len(units)
        f = np.array([[np.mean([oracle_rouge1_f1(s, ref) for ref in unit]) for unit in units]
                      for s in summary])
        tokens, sentence_of = [], []
        for i, s in enumerate(summary):
            tokens += [vocab.index(w) for w in s] + [vocab.index(EOS_SENT_TOKEN)]
            sentence_of += [i] * (len(s) + 1)
            if doubled and i == 0:
                tokens.append(vocab.index(EOS_SENT_TOKEN))
                sentence_of.append(None)
        steps = len(tokens) + 1
        noise = rng.random((beams, steps, len(PLANTED_MIX), heads, real))
        noise /= noise.sum(axis=-1, keepdims=True)
        trace = rng.integers(0, beams, size=(steps, beams))
        winner = int(rng.integers(0, beams))
        path, slot = [0] * steps, winner  # the winner's ancestor slot per step
        for t in reversed(range(steps)):
            path[t] = slot = int(trace[t, slot])
        for t, i in enumerate(sentence_of):
            if i is None:
                continue
            planted = (1.0 - mix) * noise[path[t], t] + mix * f[i]
            noise[path[t], t] = planted / planted.sum(axis=-1, keepdims=True)
        values = np.zeros(noise.shape[:-1] + (inp.L,), dtype=np.float32)
        values[..., :real] = noise
        ao.write_awd(ao.AwdTensor(values=values), gen / f"{set_id}.awd")
        ao.awd.write_summary(ao.awd.SummaryRecord(set_id, tokens, trace.tolist(), winner),
                             gen / f"{set_id}.summary.json")
        winning = values[path, range(steps)].astype(np.float64)  # (steps, layers, heads, L)
        for i in range(len(summary)):
            span = [t for t, s in enumerate(sentence_of) if s == i]
            attention = winning[span].mean(axis=0).mean(axis=1)  # (layers, L)
            cells += list(attention[:, :real].T)
            f1 += list(f[i])
    return PlantedRun(units=root / "units.jsonl", gen=gen, cells=np.array(cells),
                      f1=np.array(f1))


@pytest.fixture
def planted_run(tmp_path):
    return write_planted_run(tmp_path / "planted")
