"""Tests for tokenization, sentence splitting, and unitization."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import attnorigin as ao
import attnorigin.textunits as textunits
from attnorigin.awd import SummaryRecord, write_summary
from attnorigin.textunits import (
    DEFAULT_SHAPES,
    MAX_GRID_CELLS,
    CorpusFormatError,
    UnitizedRecord,
    docset_from_json,
    unitized_from_json,
    unitized_to_json,
)
from conftest import JSON_VALUES, json_paths, make_docset, replaced


# ---------------------------------------------------------------------------
# tokenize
# ---------------------------------------------------------------------------

def test_tokenize_empty():
    assert ao.tokenize("") == []


def test_tokenize_lowercases_and_splits_punctuation():
    assert ao.tokenize("The cat.") == ["the", "cat", "."]


def test_tokenize_hyphens_and_symbols():
    assert ao.tokenize("A-B a-b") == ["a", "-", "b", "a", "-", "b"]
    assert ao.tokenize("it's 3.5%") == ["it", "'", "s", "3", ".", "5", "%"]


def test_tokenize_deterministic():
    text = "A-B a-b, C?  d!"
    assert ao.tokenize(text) == ao.tokenize(text)


def test_tokenize_no_empty_tokens():
    for text in ["  spaced   out  ", "...", "a\tb\nc", "été 2024"]:
        assert all(tok for tok in ao.tokenize(text))


# ---------------------------------------------------------------------------
# split_sentences
# ---------------------------------------------------------------------------

def test_split_two_terminal_periods():
    assert ao.split_sentences("A. B.") == ["A.", "B."]


def test_split_no_boundary():
    assert ao.split_sentences("Mr x went home") == ["Mr x went home"]


def test_split_lowercase_after_period_keeps_one_sentence():
    assert ao.split_sentences("He left. she stayed.") == ["He left. she stayed."]


def test_split_empty():
    assert ao.split_sentences("") == []
    assert ao.split_sentences("   ") == []


def test_split_handles_exclamation_and_question():
    assert ao.split_sentences("Stop! Now? Yes.") == ["Stop!", "Now?", "Yes."]


def test_split_punctuation_run():
    assert ao.split_sentences("Really?! Sure.") == ["Really?!", "Sure."]


def scanner_split_sentences(text):
    """Character-by-character reference for ``split_sentences``: a run of
    ``.!?``, then whitespace, then an uppercase letter ends a sentence."""
    stripped = text.strip()
    if not stripped:
        return []
    sentences = []
    start = 0
    i = 0
    n = len(stripped)
    while i < n:
        if stripped[i] not in ".!?":
            i += 1
            continue
        j = i + 1
        while j < n and stripped[j] in ".!?":
            j += 1
        k = j
        while k < n and stripped[k].isspace():
            k += 1
        if k > j and k < n and stripped[k].isupper():
            sentences.append(stripped[start:j].strip())
            start = k
            i = k
        else:
            i = j
    tail = stripped[start:].strip()
    if tail:
        sentences.append(tail)
    return sentences


# Each piece is any text, a terminator run, whitespace (\x1c and \x85 are
# str.isspace()) and a next character ("ǅ" is titlecase, not uppercase).
SENTENCE_TEXT = st.lists(
    st.tuples(
        st.text(max_size=3),
        st.sampled_from(["", ".", "!", "?", "?!", "..."]),
        st.sampled_from(["", " ", "\t\n", "\x1c", "\x85", "\u2003"]),
        st.sampled_from(["a", "Z", "ǅ", "É", "ß", "."]),
    ).map("".join),
    max_size=6,
).map("".join)


@settings(max_examples=500)
@given(text=SENTENCE_TEXT)
def test_split_sentences_matches_the_scanner(text):
    assert ao.split_sentences(text) == scanner_split_sentences(text)


# Free text over terminators, whitespace (ASCII and not) and letters of
# each case, non-ASCII capitals among them.
TERMINATOR_TEXT = st.text(alphabet=".!? \t\n\r\x0b\x1c\x85\u2003\u3000aZéÉßǅΣσЖж", max_size=40)


@settings(max_examples=500)
@given(text=SENTENCE_TEXT | TERMINATOR_TEXT)
def test_every_split_sentence_splits_back_to_itself(text):
    """A sentence from ``split_sentences`` holds no boundary: split again, it
    is the one sentence it was. In sentence mode every unit's text is such a
    sentence."""
    for sentence in ao.split_sentences(text):
        assert ao.split_sentences(sentence) == [sentence], sentence


def test_split_partitions_text_modulo_whitespace():
    texts = [
        "One two. Three four! Five six?",
        "No uppercase after. next stays.",
        "Tail without terminator",
        "Edge. Case. With. Many. Breaks.",
    ]
    for text in texts:
        joined = "".join(ao.split_sentences(text))
        assert joined.replace(" ", "") == text.strip().replace(" ", "")


# ---------------------------------------------------------------------------
# unitize
# ---------------------------------------------------------------------------

def test_default_shapes_token_budget():
    L, T = DEFAULT_SHAPES["paragraph"]
    assert (L, T) == (30, 60) and L * T == 1800
    L, T = DEFAULT_SHAPES["sentence"]
    assert (L, T) == (60, 30) and L * T == 1800


def test_unitize_padding_case():
    docset = make_docset("s", [["a b"]])
    inp = ao.unitize(docset, "paragraph", L=2, T=4)
    assert inp.units[0].tokens == ["a", "b"]
    assert inp.pad_mask[0].tolist() == [False, False, True, True]
    assert inp.units[1].is_pad
    assert inp.pad_mask[1].all()
    assert inp.doc_boundaries == {0: 0}


def test_unitize_derives_pads_once():
    inp = ao.unitize(make_docset("s", [["a b", "c"]]), "paragraph", L=4, T=3)
    assert inp.unit_pad.tolist() == [False, False, True, True] and inp.num_real_units == 2
    assert inp.unit_pad is inp.unit_pad and inp.pad_mask is inp.pad_mask


def test_unitize_sentence_mode_counts_sentences():
    text = "First point here. Second point there. Third wraps up."
    docset = make_docset("s", [[text]])
    expected = len(ao.split_sentences(text))
    inp = ao.unitize(docset, "sentence", L=3, T=16)
    assert expected == 3
    assert inp.num_real_units == 3
    assert all(inp.doc_boundaries[i] == 0 for i in range(3))


def test_unitize_truncates_units_and_tokens():
    docset = make_docset("s", [["one two three four five", "x y", "p q"]])
    inp = ao.unitize(docset, "paragraph", L=2, T=3)
    assert inp.num_real_units == 2
    assert inp.units[0].tokens == ["one", "two", "three"]
    assert inp.units[1].tokens == ["x", "y"]


def test_unitize_rejects_bad_args():
    docset = make_docset("s", [["a"]])
    with pytest.raises(ValueError):
        ao.unitize(docset, "paragraph", L=0, T=4)
    with pytest.raises(ValueError):
        ao.unitize(docset, "chapter", L=2, T=4)


def test_unitize_empty_set_is_all_pads_in_both_modes():
    """A set without units is an all-pad grid; generate and analyze reject it by name."""
    docset = ao.MultiDocSet(set_id="s", documents=[ao.RawDocument("d", "", [])])
    for mode in ("paragraph", "sentence"):
        inp = ao.unitize(docset, mode, L=2, T=4)
        assert inp.num_real_units == 0 and inp.unit_pad.all() and inp.doc_boundaries == {}


def test_unitize_deterministic_bit_identical():
    docset = make_docset("s", [["First one. Second two.", "Third here"], ["Solo doc"]])
    a = ao.unitize(docset, "sentence", L=5, T=6)
    b = ao.unitize(docset, "sentence", L=5, T=6)
    assert a.mode == b.mode and a.L == b.L and a.T == b.T
    assert np.array_equal(a.pad_mask, b.pad_mask)
    assert a.doc_boundaries == b.doc_boundaries
    for ua, ub in zip(a.units, b.units):
        assert ua == ub


def test_doc_boundaries_monotone():
    rng = np.random.default_rng(3)
    for _ in range(20):
        docs = [
            [" ".join(f"w{rng.integers(0, 9)}" for _ in range(4)) for _ in range(rng.integers(1, 4))]
            for _ in range(rng.integers(1, 4))
        ]
        inp = ao.unitize(make_docset("s", docs), "paragraph", L=8, T=6)
        values = [inp.doc_boundaries[i] for i in sorted(inp.doc_boundaries)]
        assert values == sorted(values)


def test_sentence_mode_never_fewer_units_than_paragraph_mode():
    rng = np.random.default_rng(11)
    for _ in range(20):
        docs = []
        for _ in range(rng.integers(1, 4)):
            paras = []
            for _ in range(rng.integers(1, 4)):
                n = rng.integers(1, 4)
                paras.append(" ".join("Word here now." for _ in range(n)))
            docs.append(paras)
        docset = make_docset("s", docs)
        para = ao.unitize(docset, "paragraph", L=12, T=8)
        sent = ao.unitize(docset, "sentence", L=12, T=8)
        assert sent.num_real_units >= para.num_real_units


def test_shape_invariants_random():
    rng = np.random.default_rng(5)
    for _ in range(20):
        docs = [[" ".join(f"w{i}" for i in range(rng.integers(1, 12)))] for _ in range(3)]
        L, T = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        inp = ao.unitize(make_docset("s", docs), "paragraph", L, T)
        assert inp.num_real_units <= L
        assert all(len(u.tokens) <= T for u in inp.units)
        assert inp.pad_mask.shape == (L, T)


# ---------------------------------------------------------------------------
# corpus and unitized files
# ---------------------------------------------------------------------------

def test_corpus_round_trip(tmp_path):
    sets = [
        make_docset("s0", [["alpha beta", "gamma"], ["delta"]], gold="alpha gamma"),
        make_docset("s1", [["epsilon zeta"]]),
    ]
    path = tmp_path / "corpus.jsonl"
    ao.write_corpus(sets, path)
    back = ao.read_corpus(path)
    assert [s.set_id for s in back] == ["s0", "s1"]
    assert back[0].gold_summary == "alpha gamma"
    assert back[0].documents[0].paragraphs == ["alpha beta", "gamma"]


def test_corpus_accepts_text_documents():
    obj = {
        "set_id": "s",
        "documents": [{"doc_id": "d", "text": "First para.\n\nSecond para."}],
        "gold_summary": None,
    }
    docset = docset_from_json(obj)
    assert docset.documents[0].paragraphs == ["First para.", "Second para."]


def test_corpus_error_carries_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"set_id": "ok", "documents": [{"doc_id": "d", "paragraphs": ["x"]}]}\nnot json\n')
    with pytest.raises(CorpusFormatError, match="line 2"):
        ao.read_corpus(path)


def test_invalid_utf8_is_located(tmp_path):
    good_set = '{"set_id": "ok", "documents": [{"doc_id": "d", "paragraphs": ["x"]}]}'
    good_units = json.dumps(unitized_to_json(UnitizedRecord(set_id="ok", unitized=ao.unitize(
        make_docset("ok", [["fine text"]]), "paragraph", L=2, T=4))))
    for read, good in ((ao.read_corpus, good_set), (ao.read_unitized, good_units)):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(good.encode() + b"\n\xff\n")
        with pytest.raises(CorpusFormatError, match="line 2: 'utf-8' codec can't decode"):
            read(path)


def test_empty_corpus_reads_empty(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert ao.read_corpus(path) == []


def test_unitized_round_trip(tmp_path):
    docset = make_docset("s0", [["the cat sat. It slept.", "a dog"], ["third doc para"]])
    inp = ao.unitize(docset, "paragraph", L=5, T=8)
    record = UnitizedRecord(set_id="s0", unitized=inp, gold_summary="gold text")
    path = tmp_path / "units.jsonl"
    ao.write_unitized([record], path)
    back = ao.read_unitized(path)[0]
    assert back.set_id == "s0"
    assert back.gold_summary == "gold text"
    assert back.unitized.doc_boundaries == inp.doc_boundaries
    assert np.array_equal(back.unitized.pad_mask, inp.pad_mask)
    for ua, ub in zip(back.unitized.units, inp.units):
        assert ua == ub


def test_unitized_without_boundaries():
    docset = make_docset("s0", [["some text here"]])
    inp = ao.unitize(docset, "paragraph", L=2, T=6)
    obj = unitized_to_json(UnitizedRecord(set_id="s0", unitized=inp))
    obj["doc_boundaries"] = None
    back = unitized_from_json(obj)
    assert back.unitized.doc_boundaries is None
    assert back.unitized.num_real_units == 1


def test_unitized_rejects_out_of_order_units():
    obj = {
        "set_id": "s",
        "mode": "paragraph",
        "L": 3,
        "T": 4,
        "units": [
            {"doc_index": 0, "unit_index": 1, "tokens": ["a"], "original_text": "a"},
        ],
        "doc_boundaries": {"1": 0},
        "gold_summary": None,
    }
    with pytest.raises(ValueError, match="leading prefix"):
        unitized_from_json(obj)


@pytest.mark.parametrize("edit, message", [
    (lambda obj: obj["units"][1].update(tokens=[]), "unit 1 has no tokens"),
    (lambda obj: obj["units"][0].update(doc_index=-1), "unit 0 has doc_index -1"),
    (lambda obj: obj["doc_boundaries"].update({"3": 0}), "doc_boundaries key 3 outside"),
    (lambda obj: obj["doc_boundaries"].pop("0"), "doc_boundaries lacks non-pad unit 0"),
    (lambda obj: obj["units"].append("x"), "units must be a list of objects"),
    (lambda obj: obj.update(doc_boundaries=[0]), "doc_boundaries must be an object or null"),
    (lambda obj: obj.update(gold_summary=3), "gold_summary must be a string or null"),
    (lambda obj: obj["units"][2].update(doc_index=1.7), "doc_index and unit_index must be integers"),
    (lambda obj: obj["units"][1].update(unit_index=True), "doc_index and unit_index must be integers"),
    (lambda obj: obj["doc_boundaries"].update({"2": 0.9}),
     "doc_boundaries must map decimal unit indices to integers"),
    (lambda obj: obj["doc_boundaries"].update({"2": True}),
     "doc_boundaries must map decimal unit indices to integers"),
    (lambda obj: obj["doc_boundaries"].update({"+0": obj["doc_boundaries"].pop("0")}),
     "doc_boundaries must map decimal unit indices to integers"),
    (lambda obj: obj["units"][0].update(tokens="the"), "tokens must be a list of strings"),
    (lambda obj: obj["units"][0].update(tokens=["the", 7]), "tokens must be a list of strings"),
    (lambda obj: obj["units"][0].update(original_text=5), "original_text must be a string"),
    (lambda obj: obj.update(L=5.0), "L and T must be integers"),
    (lambda obj: obj["doc_boundaries"].update({"2": 0}),
     "doc_boundaries maps unit 2 to 0, not its doc_index 1"),
    (lambda obj: obj["doc_boundaries"].update({"2": -3}),
     "doc_boundaries maps unit 2 to -3, not its doc_index 1"),
    (lambda obj: obj["units"][1].pop("tokens"), "missing unit key 'tokens'"),
    (lambda obj: obj["units"][0].pop("unit_index"), "missing unit key 'unit_index'"),
    (lambda obj: obj["units"][2].pop("original_text"), "missing unit key 'original_text'"),
], ids=["empty-tokens", "negative-doc-index", "boundary-past-units", "missing-boundary",
        "unit-not-object", "boundaries-not-object", "gold-not-string", "float-doc-index",
        "bool-unit-index", "float-boundary", "bool-boundary", "signed-boundary-key",
        "string-tokens", "int-token", "int-original-text", "float-L",
        "boundary-disagrees-with-doc-index", "negative-boundary", "missing-tokens",
        "missing-unit-index", "missing-original-text"])
def test_unitized_rejects_inconsistent_units(tmp_path, edit, message):
    docset = make_docset("s1", [["the cat sat", "a dog"], ["third doc para"]])
    good = unitized_to_json(UnitizedRecord(set_id="s0", unitized=ao.unitize(
        make_docset("s0", [["fine text"]]), "paragraph", L=5, T=8)))
    obj = unitized_to_json(UnitizedRecord(
        set_id="s1", unitized=ao.unitize(docset, "paragraph", L=5, T=8)))
    edit(obj)
    with pytest.raises(ValueError, match=message):
        unitized_from_json(obj)
    path = tmp_path / "units.jsonl"
    path.write_text(json.dumps(good) + "\n" + json.dumps(obj) + "\n")
    with pytest.raises(CorpusFormatError, match=f"line 2: set 's1': .*{message}"):
        ao.read_unitized(path)


def test_grid_is_bounded_before_allocation(monkeypatch):
    """An oversized L x T is refused before any pad unit or mask exists."""
    def unreachable(*args):
        raise AssertionError("_padded ran before the grid check")

    monkeypatch.setattr(textunits, "_padded", unreachable)
    record = {"set_id": "big", "mode": "paragraph", "L": 2**40, "T": 4, "units": [],
              "doc_boundaries": {}, "gold_summary": None}
    message = f"set 'big': L={2**40} x T=4 exceeds {MAX_GRID_CELLS} grid cells"
    with pytest.raises(ValueError, match=message):
        unitized_from_json(record)
    with pytest.raises(ValueError, match=message):
        ao.unitize(make_docset("big", [["fine text"]]), "paragraph", L=2**40, T=4)
    docset = make_docset("big", [["fine text"]])
    with pytest.raises(ValueError, match="exceeds"):
        ao.unitize(docset, "paragraph", L=2, T=MAX_GRID_CELLS // 2 + 1)
    monkeypatch.undo()
    assert ao.unitize(docset, "paragraph", L=1, T=MAX_GRID_CELLS).T == MAX_GRID_CELLS


def test_unitized_rejects_non_string_set_id(tmp_path):
    record = {"set_id": 7, "mode": "paragraph", "L": 2, "T": 4, "units": [],
              "doc_boundaries": {}, "gold_summary": None}
    path = tmp_path / "units.jsonl"
    path.write_text(json.dumps(record) + "\n")
    with pytest.raises(CorpusFormatError, match="line 1: set_id must be a string"):
        ao.read_unitized(path)


def test_write_json_round_trips_with_one_trailing_newline(tmp_path):
    obj = {"set_id": "s\u00e9", "weights": [[1.0, 0.25]], "none": None}
    path = tmp_path / "obj.json"
    textunits.write_json(obj, path)
    assert path.read_bytes() == (json.dumps(obj) + "\n").encode()
    assert textunits.read_json(path, "test file") == obj


@pytest.mark.parametrize("blob, reason", [
    (b'{"size": 3', "Expecting"),
    (b"[1, 2]\xff", "'utf-8' codec can't decode byte 0xff"),
    (b"", "Expecting value"),
], ids=["truncated", "invalid-utf8", "empty"])
def test_read_json_error_names_the_file_once(tmp_path, blob, reason):
    path = tmp_path / "obj.json"
    path.write_bytes(blob)
    with pytest.raises(ValueError) as info:
        textunits.read_json(path, "graph file")
    message = str(info.value)
    assert message.startswith(f"{path}: malformed graph file: ") and reason in message
    assert message.count(str(path)) == 1


def _write_then_fail(path):
    with textunits.atomic_write(path, encoding="utf-8") as fh:
        fh.write("partial")
        raise RuntimeError("stop")


@pytest.mark.parametrize("write, error", [
    (_write_then_fail, RuntimeError),
    (lambda path: ao.write_corpus([make_docset("s0", [["alpha"]]), None], path), AttributeError),
    (lambda path: write_summary(SummaryRecord("s0", [1, object()], [[0]], 0), path), TypeError),
], ids=["helper", "corpus-jsonl", "summary-json"])
def test_failed_write_keeps_old_file_and_leaves_no_temp(tmp_path, write, error):
    """A writer that raises partway leaves the previous file whole and no temporary file."""
    path = tmp_path / "out.json"
    path.write_bytes(b"old contents\n")
    with pytest.raises(error):
        write(path)
    assert path.read_bytes() == b"old contents\n"
    assert sorted(tmp_path.iterdir()) == [path]


def test_atomic_write_replaces_whole_file(tmp_path):
    path = tmp_path / "out.bin"
    path.write_bytes(b"a much longer old payload")
    with textunits.atomic_write(path, "wb") as fh:
        fh.write(b"new")
    assert path.read_bytes() == b"new" and sorted(tmp_path.iterdir()) == [path]


def test_atomic_write_through_symlink_keeps_the_link(tmp_path):
    target = tmp_path / "target.txt"
    target.write_text("old")
    link = tmp_path / "link.txt"
    link.symlink_to(target)
    with textunits.atomic_write(link, encoding="utf-8") as fh:
        fh.write("new")
    assert link.is_symlink() and target.read_text() == "new"
    assert sorted(tmp_path.iterdir()) == [link, target]


def test_read_corpus_fuzzed_values_fail_cleanly(tmp_path):
    """Any value of a valid record swapped for another JSON value reads or
    raises CorpusFormatError naming its line."""
    good = {"set_id": "s0", "documents": [
        {"doc_id": "d0", "paragraphs": ["Alpha beta. Gamma.", "delta"]},
        {"doc_id": "d1", "text": "One.\n\nTwo."},
    ], "gold_summary": "alpha"}
    paths = list(json_paths(good))
    path = tmp_path / "corpus.jsonl"

    @settings(max_examples=200)
    @given(where=st.sampled_from(paths), value=JSON_VALUES)
    def check(where, value):
        path.write_text(json.dumps(good) + "\n" + json.dumps(replaced(good, where, value)) + "\n")
        try:
            sets = ao.read_corpus(path)
        except CorpusFormatError as exc:
            assert exc.line == 2 and str(exc).startswith("line 2: ")
        else:
            texts = [p for d in sets[1].documents for p in d.paragraphs]
            texts += [sets[1].set_id, sets[1].gold_summary or ""]
            assert len(sets) == 2 and all(isinstance(t, str) for t in texts)

    check()


def unitized_line_without_L(tmp_path):
    record = {"set_id": "s", "mode": "paragraph", "T": 4, "units": []}
    path = tmp_path / "units.jsonl"
    path.write_text(json.dumps(record) + "\n")
    ao.read_unitized(path)


@pytest.mark.parametrize("call, message", [
    (lambda tmp_path: ao.UnitizedInput(
        units=[ao.TextualUnit(0, 0, ["a", "b", "c"], "a b c")], L=1, T=2, mode="paragraph",
        doc_boundaries={0: 0}), "unit 0 exceeds T=2"),
    (unitized_line_without_L, "line 1: missing unitized key 'L'"),
], ids=["unit-longer-than-T", "missing-L"])
def test_unitized_input_checks_give_their_messages(tmp_path, call, message):
    with pytest.raises(ValueError) as exc:
        call(tmp_path)
    assert str(exc.value) == message
