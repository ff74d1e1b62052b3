"""Shared builders for corpora, graphs, and toy models."""

import json

import pytest
from hypothesis import strategies as st

import attnorigin as ao
from attnorigin.graphattn import build_vocab


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
