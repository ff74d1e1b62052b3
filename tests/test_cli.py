"""End-to-end CLI tests: pipeline wiring, determinism, option layering."""

import dataclasses
import hashlib
import inspect
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import attnorigin as ao
from attnorigin.cli.main import main, summary_path
from attnorigin.cli.report import rouge_f_row
from attnorigin.graphattn import EOS_SENT_TOKEN, EOS_TOKEN, SPECIAL_TOKENS, build_vocab
from attnorigin.rouge import evaluate_summary
from conftest import (JSON_VALUES, PLANTED_MIX, json_paths, make_docset, replaced,
                      write_planted_run)
from test_rouge import spy_on_chunks


def write_corpus(path, num_sets=2):
    with open(path, "w", encoding="utf-8") as fh:
        for s in range(num_sets):
            docs = []
            for d in range(2):
                paras = [
                    f"Topic {p} of document {d}. Alpha{s}{d}{p} beta{s}{d}{p} gamma."
                    for p in range(2)
                ]
                docs.append({"doc_id": f"s{s}d{d}", "paragraphs": paras})
            obj = {"set_id": f"set{s}", "documents": docs, "gold_summary": "alpha beta gamma"}
            fh.write(json.dumps(obj) + "\n")


GEN_FLAGS = [
    "--seed", "11", "--beam-size", "2", "--max-len", "5",
    "--d-model", "32", "--num-layers", "2", "--num-heads", "4", "--model-max-len", "8",
]


def graphs_only(root):
    """Preprocess and graph the two-set corpus; return the unitized path."""
    corpus = root / "corpus.jsonl"
    write_corpus(corpus)
    units = root / "units.jsonl"
    assert main(["preprocess", "--corpus", str(corpus), "--out", str(units),
                 "--units", "6", "--tokens", "10"]) == 0
    assert main(["graph", "--unitized", str(units), "--out", str(root / "graphs")]) == 0
    return units


def run_pipeline(root, seed="11"):
    root.mkdir(parents=True, exist_ok=True)
    units = graphs_only(root)
    graphs = root / "graphs"
    gen = root / "gen"
    rep = root / "rep"
    svg = root / "heat.svg"
    flags = list(GEN_FLAGS)
    flags[1] = seed
    assert main(["generate", "--unitized", str(units), "--graphs", str(graphs),
                 "--out", str(gen)] + flags) == 0
    assert main(["analyze", "--awd", str(gen), "--summaries", str(gen),
                 "--unitized", str(units), "--out", str(rep)]) == 0
    assert main(["heatmap", "--report", str(rep / "report.json"), "--out", str(svg)]) == 0
    return root


def tree_digest(root):
    digest = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest[str(path.relative_to(root))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digest


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

def test_full_pipeline_produces_outputs(tmp_path, capsys):
    run_pipeline(tmp_path)
    out = capsys.readouterr().out
    assert "sets=2" in out
    assert (tmp_path / "gen" / "set0.summary.json").exists()
    assert (tmp_path / "gen" / "set0.awd").exists()
    assert (tmp_path / "gen" / "vocab.json").exists()
    assert (tmp_path / "rep" / "report.json").exists()
    assert (tmp_path / "rep" / "report.csv").exists()
    assert (tmp_path / "heat.svg").read_text().startswith("<?xml")
    report = json.loads((tmp_path / "rep" / "report.json").read_text())
    assert {row["layer"] for row in report["layers"]} == {1, 2}
    assert "posbias" in report


def test_pipeline_deterministic_reruns(tmp_path):
    a = run_pipeline(tmp_path / "a")
    b = run_pipeline(tmp_path / "b")
    da, db = tree_digest(a), tree_digest(b)
    assert da == db


def test_different_seeds_differ(tmp_path):
    a = run_pipeline(tmp_path / "a", seed="11")
    b = run_pipeline(tmp_path / "b", seed="12")
    assert tree_digest(a)["gen/set0.summary.json"] != tree_digest(b)["gen/set0.summary.json"] or \
        tree_digest(a)["gen/set0.awd"] != tree_digest(b)["gen/set0.awd"]


def test_empty_corpus_exit_zero(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("")
    out_file = tmp_path / "units.jsonl"
    assert main(["preprocess", "--corpus", str(corpus), "--out", str(out_file)]) == 0
    assert "sets=0" in capsys.readouterr().out
    assert out_file.exists()


def test_bad_corpus_line_number_diagnostic(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(
        '{"set_id": "ok", "documents": [{"doc_id": "d", "paragraphs": ["x"]}]}\n'
        "this is not json\n"
    )
    code = main(["preprocess", "--corpus", str(corpus), "--out", str(tmp_path / "u.jsonl")])
    captured = capsys.readouterr()
    assert code != 0
    assert "line 2" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("record, needle", [
    ({"set_id": "s", "documents": ["x"]}, "documents must be a list of objects"),
    ({"set_id": "s", "documents": [{"paragraphs": [1]}]}, "paragraphs must be a list of strings"),
    ({"set_id": "s", "documents": [{"text": 1}]}, "text must be a string"),
    ({"set_id": 7, "documents": [{"paragraphs": ["x"]}]}, "set_id must be a string"),
    ({"set_id": "s", "documents": [{"paragraphs": ["x"]}], "gold_summary": 3},
     "gold_summary must be a string or null"),
], ids=["document-string", "paragraph-int", "text-int", "set-id-int", "gold-int"])
def test_preprocess_rejects_mistyped_corpus_values(tmp_path, capsys, record, needle):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(json.dumps(record) + "\n")
    code = main(["preprocess", "--corpus", str(corpus), "--out", str(tmp_path / "u.jsonl")])
    lines = capsys.readouterr().err.splitlines()
    assert code == 1 and len(lines) == 1
    assert lines[0].startswith("error: line 1: ") and needle in lines[0]
    assert not (tmp_path / "u.jsonl").exists()


def test_preprocess_locates_invalid_utf8(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    write_corpus(corpus, num_sets=1)
    corpus.write_bytes(corpus.read_bytes() + b"\xff\n")
    code = main(["preprocess", "--corpus", str(corpus), "--out", str(tmp_path / "u.jsonl")])
    lines = capsys.readouterr().err.splitlines()
    assert code == 1 and len(lines) == 1
    assert lines[0].startswith("error: line 2: 'utf-8' codec can't decode byte 0xff")
    assert not (tmp_path / "u.jsonl").exists()


def test_preprocess_names_the_set_whose_text_utf8_cannot_encode(tmp_path, capsys):
    """A lone surrogate, a valid JSON escape, cannot go into the UTF-8 unitized
    file: one error line names its set, and no file is written."""
    corpus = tmp_path / "corpus.jsonl"
    write_corpus(corpus)
    with open(corpus, "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"set_id": "lone", "documents": [{"text": "Half \ud800 pair."}]})
                 + "\n")
    assert "\\ud800" in corpus.read_text()
    code = main(["preprocess", "--corpus", str(corpus), "--out", str(tmp_path / "u.jsonl")])
    lines = capsys.readouterr().err.splitlines()
    assert code == 1 and len(lines) == 1
    assert lines[0].startswith(
        "error: set 'lone': 'utf-8' codec can't encode character '\\ud800'"), lines[0]
    assert sorted(path.name for path in tmp_path.iterdir()) == ["corpus.jsonl"]


def test_preprocess_defaults_by_mode(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    write_corpus(corpus, num_sets=1)
    assert main(["preprocess", "--corpus", str(corpus), "--out", str(tmp_path / "p.jsonl")]) == 0
    assert "L=30 T=60" in capsys.readouterr().out
    assert main(["preprocess", "--corpus", str(corpus), "--out", str(tmp_path / "s.jsonl"),
                 "--mode", "sentence"]) == 0
    assert "L=60 T=30" in capsys.readouterr().out


def test_generate_beam_one_matches_library_greedy(tmp_path):
    run_pipeline(tmp_path)
    units = tmp_path / "units.jsonl"
    gen1 = tmp_path / "gen1"
    flags = list(GEN_FLAGS)
    flags[3] = "1"  # beam size
    assert main(["generate", "--unitized", str(units), "--graphs", str(tmp_path / "graphs"),
                 "--out", str(gen1)] + flags) == 0
    records = ao.read_unitized(units)
    vocab = build_vocab(t for r in records for u in r.unitized.units for t in u.tokens)
    cfg = ao.ModelConfig(d_model=32, num_layers=2, num_heads=4, vocab_size=len(vocab),
                         num_units=6, max_len=8)
    weights = ao.make_synthetic_weights(11, cfg, vocab=vocab)
    graph = ao.read_graph(tmp_path / "graphs" / "set0.graph.json")
    expected = ao.generate_with_beam(
        records[0].unitized, weights, graph, ao.GenerationConfig(beam_size=1, max_len=5)
    )
    summary = json.loads((gen1 / "set0.summary.json").read_text())
    assert summary["tokens"] == expected.tokens


def test_generate_with_weights_file(tmp_path):
    run_pipeline(tmp_path)
    units = tmp_path / "units.jsonl"
    records = ao.read_unitized(units)
    vocab = build_vocab(t for r in records for u in r.unitized.units for t in u.tokens)
    cfg = ao.ModelConfig(d_model=16, num_layers=1, num_heads=2, vocab_size=len(vocab),
                         num_units=6, max_len=8)
    weights = ao.make_synthetic_weights(3, cfg, vocab=vocab)
    wpath = tmp_path / "weights.json"
    ao.write_weights(weights, wpath)
    gen = tmp_path / "gen_w"
    assert main(["generate", "--unitized", str(units), "--graphs", str(tmp_path / "graphs"),
                 "--out", str(gen), "--weights", str(wpath), "--beam-size", "2",
                 "--max-len", "4"]) == 0
    assert (gen / "set0.awd").exists()


def test_generate_rejects_both_weights_and_seed(tmp_path, capsys):
    run_pipeline(tmp_path)
    code = main(["generate", "--unitized", str(tmp_path / "units.jsonl"),
                 "--graphs", str(tmp_path / "graphs"), "--out", str(tmp_path / "x"),
                 "--weights", "w.json", "--seed", "1"])
    assert code != 0
    assert "exactly one" in capsys.readouterr().err


def test_generate_workers_accepts_only_one(tmp_path, capsys):
    units = graphs_only(tmp_path)
    for workers in ("0", "3"):
        code = main(["generate", "--unitized", str(units), "--graphs", str(tmp_path / "graphs"),
                     "--out", str(tmp_path / "gen"), "--workers", workers] + GEN_FLAGS)
        assert code == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "workers" in lines[0]
    assert not (tmp_path / "gen").exists()


def generate_error(tmp_path, capsys, units, flags=GEN_FLAGS):
    """Run generate into a fresh directory; return its one stderr line."""
    capsys.readouterr()
    code = main(["generate", "--unitized", str(units), "--graphs", str(tmp_path / "graphs"),
                 "--out", str(tmp_path / "gen")] + flags)
    lines = capsys.readouterr().err.splitlines()
    assert code == 1
    assert not (tmp_path / "gen").exists()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    return lines[0]


@pytest.mark.parametrize("cells, reason, set_id", [
    ({(0, 1): float("nan"), (1, 0): float("nan")}, "non-finite", "set0"),
    ({(0, 1): 0.25, (1, 0): 0.75}, "symmetric", "set0"),
    ({(0, 1): 1.5, (1, 0): 1.5}, "outside [0, 1]", "set0"),
    ({(0, 1): -0.1, (1, 0): -0.1}, "outside [0, 1]", "set0"),
    ({(0, 0): 0.5}, "diagonal", "set0"),
    ({(5, 0): 0.2, (0, 5): 0.2}, "nonzero similarity", "set0"),  # unit 5 is a pad slot
    ({(0, 0): 0.5}, "diagonal", "set1"),
    ({(3, j): 0.0 for j in range(6)} | {(j, 3): 0.0 for j in range(6)},
     "unit 3 is a non-pad unit of set 'set0' but has graph diagonal 0", "set0"),
    ({(5, 5): 1.0}, "unit 5 is a pad unit of set 'set1' but has graph diagonal 1", "set1"),
    ({(0, 1): True, (1, 0): True}, "weights must hold only JSON numbers, not True", "set0"),
    ({(0, 1): "0.5", (1, 0): "0.5"}, "weights must hold only JSON numbers, not '0.5'", "set0"),
    ({(0, 1): 10**400, (1, 0): 10**400}, "weights holds an integer too large for float64",
     "set0"),
], ids=["nan", "asymmetric", "above-one", "negative", "half-diagonal", "linked-pad",
        "half-diagonal-last-set", "real-unit-as-pad", "pad-as-real-unit", "bool-weight",
        "string-weight", "huge-int-weight"])
def test_generate_rejects_invalid_graph(tmp_path, capsys, cells, reason, set_id):
    units = graphs_only(tmp_path)
    gpath = tmp_path / "graphs" / f"{set_id}.graph.json"
    obj = json.loads(gpath.read_text())
    assert obj["weights"][5] == [0.0] * 6
    for (i, j), value in cells.items():
        obj["weights"][i][j] = value
    gpath.write_text(json.dumps(obj))
    line = generate_error(tmp_path, capsys, units)
    assert line.startswith(f"error: {gpath}: ") and reason in line


@pytest.mark.parametrize("flag, value, message", [
    ("--max-len", "20", "max_len 20 outside [1, 8]"),
    ("--max-len", "0", "max_len must be >= 1, got 0"),
    ("--beam-size", "0", "beam_size must be >= 1, got 0"),
    ("--d-model", "0", "d_model must be >= 1, got 0"),
    ("--num-layers", "0", "num_layers must be >= 1, got 0"),
    ("--model-max-len", "0", "max_len must be >= 1, got 0"),
    ("--length-penalty", "nan", "length_penalty must be finite, got nan"),
    ("--length-penalty", "inf", "length_penalty must be finite, got inf"),
    ("--length-penalty", "2000",
     "length_penalty 2000.0 makes 5 ** length_penalty overflow or underflow to 0"),
    ("--length-penalty", "-2000",
     "length_penalty -2000.0 makes 5 ** length_penalty overflow or underflow to 0"),
    ("--sigma", "1e-200", "sigma 1e-200 is too small: 2 * sigma**2 underflows to 0"),
    ("--seed", "-1", "seed must be >= 0, got -1"),
], ids=["max-len-past-model", "max-len-zero", "beam-size-zero", "d-model-zero", "num-layers-zero",
        "model-max-len-zero", "length-penalty-nan", "length-penalty-inf",
        "length-penalty-overflow", "length-penalty-underflow", "sigma-underflow", "seed-negative"])
def test_generate_rejects_generation_options(tmp_path, capsys, flag, value, message):
    units = graphs_only(tmp_path)
    flags = list(GEN_FLAGS)
    if flag in flags:
        flags[flags.index(flag) + 1] = value
    else:
        flags += [flag, value]
    assert generate_error(tmp_path, capsys, units, flags) == f"error: {message}"


def test_generate_checks_every_graph_before_writing(tmp_path, capsys):
    units = graphs_only(tmp_path)
    gpath = tmp_path / "graphs" / "set1.graph.json"
    gpath.write_text(json.dumps({"size": 5, "weights": np.eye(5).tolist()}))
    line = generate_error(tmp_path, capsys, units)
    assert line == f"error: {gpath}: graph size 5 != unit count 6 of set 'set1'"
    gpath.unlink()
    line = generate_error(tmp_path, capsys, units)
    assert line.startswith("error: missing graph file for set 'set1'")


def test_generate_writes_each_group_before_decoding_the_next(tmp_path, monkeypatch):
    """With a 1-byte group budget each set is its own lockstep group; set0's files
    precede set1's decoding, and each group's tensor file is open, under a
    temporary name, as it decodes."""
    units = graphs_only(tmp_path)
    out = tmp_path / "gen"
    seen = []  # the output files present as each group starts decoding
    search = ao.graphattn._beam_search

    def spy(inputs, *args):
        seen.append(sorted(re.sub(r"\.[0-9a-f]{12}\.tmp$", ".*.tmp", path.name)
                           for path in out.iterdir()))
        return search(inputs, *args)

    monkeypatch.setattr(ao.graphattn, "_beam_search", spy)
    monkeypatch.setattr(ao.graphattn, "GROUP_BYTES", 1)
    assert main(["generate", "--unitized", str(units), "--graphs", str(tmp_path / "graphs"),
                 "--out", str(out)] + GEN_FLAGS) == 0
    assert seen == [["set0.awd.*.tmp"], ["set0.awd", "set0.summary.json", "set1.awd.*.tmp"]]
    assert sorted(path.name for path in out.iterdir()) == [
        "set0.awd", "set0.summary.json", "set1.awd", "set1.summary.json", "vocab.json"]


def test_generate_counts_only_the_decoder_cache_in_the_group_budget(tmp_path, monkeypatch):
    """``generate`` writes each tensor to its file, so a group budget of four
    hypotheses' key/value caches holds both beam-2 sets, tensors aside."""
    units = graphs_only(tmp_path)
    groups = []
    search = ao.graphattn._beam_search

    def spy(inputs, weights, graphs, gen, max_steps, first, recorders):
        groups.append(list(range(first, first + len(inputs))))
        return search(inputs, weights, graphs, gen, max_steps, first, recorders)

    monkeypatch.setattr(ao.graphattn, "_beam_search", spy)
    # 2 sets x beam 2 x 16 bytes x 2 layers x 5 steps x d_model 32
    monkeypatch.setattr(ao.graphattn, "GROUP_BYTES", 2 * 2 * 16 * 2 * 5 * 32)
    assert GEN_FLAGS[2:] == ["--beam-size", "2", "--max-len", "5", "--d-model", "32",
                             "--num-layers", "2", "--num-heads", "4", "--model-max-len", "8"]
    assert main(["generate", "--unitized", str(units), "--graphs", str(tmp_path / "graphs"),
                 "--out", str(tmp_path / "gen")] + GEN_FLAGS) == 0
    assert groups == [[0, 1]]
    monkeypatch.setattr(ao.graphattn, "GROUP_BYTES", 2 * 2 * 16 * 2 * 5 * 32 - 1)
    groups.clear()
    assert main(["generate", "--unitized", str(units), "--graphs", str(tmp_path / "graphs"),
                 "--out", str(tmp_path / "gen")] + GEN_FLAGS) == 0
    assert groups == [[0], [1]]


def test_generate_through_a_symlinked_tensor_file_replaces_its_target(tmp_path):
    """A symlinked ``<set>.awd`` stays a link and its target gets the new
    tensor; no temporary file remains beside either."""
    units = graphs_only(tmp_path)
    out = tmp_path / "gen"
    argv = ["generate", "--unitized", str(units), "--graphs", str(tmp_path / "graphs"),
            "--out", str(out)] + GEN_FLAGS
    assert main(argv) == 0
    want = (out / "set0.awd").read_bytes()
    target = tmp_path / "elsewhere" / "target.awd"
    target.parent.mkdir()
    target.write_bytes(b"stale")
    (out / "set0.awd").unlink()
    (out / "set0.awd").symlink_to(target)
    assert main(argv) == 0
    assert (out / "set0.awd").is_symlink() and os.readlink(out / "set0.awd") == str(target)
    assert target.read_bytes() == want
    assert [path.name for path in target.parent.iterdir()] == ["target.awd"]
    assert sorted(path.name for path in out.iterdir()) == [
        "set0.awd", "set0.summary.json", "set1.awd", "set1.summary.json", "vocab.json"]


def small_weights_file(tmp_path, records, num_units=6, max_len=8):
    """Synthetic weights over the tokens of ``records``, written to a file."""
    vocab = build_vocab(t for r in records for u in r.unitized.units for t in u.tokens)
    cfg = ao.ModelConfig(d_model=16, num_layers=1, num_heads=2, vocab_size=len(vocab),
                         num_units=num_units, max_len=max_len)
    wpath = tmp_path / "weights.json"
    ao.write_weights(ao.make_synthetic_weights(3, cfg, vocab=vocab), wpath)
    return wpath


def test_generate_rejects_tokens_outside_weights_vocabulary(tmp_path, capsys):
    units = graphs_only(tmp_path)
    wpath = small_weights_file(tmp_path, ao.read_unitized(units)[:1])
    line = generate_error(tmp_path, capsys, units, ["--weights", str(wpath)])
    assert line.startswith("error: set 'set1': token ") and "not in the model vocabulary" in line


def test_generate_rejects_more_units_than_model_positions(tmp_path, capsys):
    units = graphs_only(tmp_path)
    wpath = small_weights_file(tmp_path, ao.read_unitized(units), num_units=3, max_len=2)
    line = generate_error(tmp_path, capsys, units, ["--weights", str(wpath)])
    assert line == "error: set 'set0': 4 units exceed the model's 3 positions"


def test_generate_names_the_weights_file_whose_vocabulary_lacks_a_special_token(tmp_path,
                                                                             capsys):
    units = graphs_only(tmp_path)
    records = ao.read_unitized(units)
    vocab = [t for t in build_vocab(t for r in records for u in r.unitized.units
                                    for t in u.tokens) if t != EOS_SENT_TOKEN]
    cfg = ao.ModelConfig(d_model=16, num_layers=1, num_heads=2, vocab_size=len(vocab),
                         num_units=6, max_len=8)
    wpath = tmp_path / "weights.json"
    ao.write_weights(ao.make_synthetic_weights(3, cfg, vocab=vocab), wpath)
    line = generate_error(tmp_path, capsys, units, ["--weights", str(wpath)])
    assert line == f"error: {wpath}: token '<eoss>' not in the model vocabulary"


@pytest.mark.parametrize("mode", ["paragraph", "sentence"])
def test_generate_names_a_set_without_units(tmp_path, capsys, mode):
    corpus = tmp_path / "corpus.jsonl"
    write_corpus(corpus)
    with open(corpus, "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"set_id": "empty", "documents": [{"text": "   "}]}) + "\n")
    units = tmp_path / "units.jsonl"
    assert main(["preprocess", "--corpus", str(corpus), "--out", str(units),
                 "--units", "6", "--tokens", "10", "--mode", mode]) == 0
    assert main(["graph", "--unitized", str(units), "--out", str(tmp_path / "graphs")]) == 0
    line = generate_error(tmp_path, capsys, units)
    assert line == "error: set 'empty' has no units; no attention targets"


def test_generate_reports_running_out_of_memory(tmp_path, capsys, monkeypatch):
    """An allocation the machine cannot hold gives one error line, not a traceback."""
    units = graphs_only(tmp_path)
    message = ("Unable to allocate 7.45 TiB for an array with shape (1000000000, 1024) "
               "and data type float64")

    def out_of_memory(*args):
        raise MemoryError(message)

    monkeypatch.setattr(ao.graphattn, "generate_sets", out_of_memory)
    capsys.readouterr()
    assert main(["generate", "--unitized", str(units), "--graphs", str(tmp_path / "graphs"),
                 "--out", str(tmp_path / "gen")] + GEN_FLAGS) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: out of memory: {message}"]


@pytest.mark.parametrize("scaled, flags, set_id, alone", [
    ("all", ["--beam-size", "4"], "set0", False),
    ("set1", ["--beam-size", "2"], "set1", False),  # both sets in one kernel call: set1's is row 1
    # set1's own group, after set0's files: one step, so set0 never feeds set1's tokens back
    ("set1", ["--beam-size", "4", "--max-len", "1"], "set1", True),
], ids=["all-flags0-set0", "set1-flags1-set1", "set1-flags2-set1"])
def test_generate_names_the_set_whose_decoder_state_overflows(tmp_path, capsys, monkeypatch,
                                                              scaled, flags, set_id, alone):
    """Finite weights whose products overflow give one error line naming the
    set, no numpy warnings, and leave numpy's error state as it was. The
    failing group leaves no tensor file, whole or temporary; the groups
    before it keep theirs. ``alone`` puts each set in its own group (a
    1-byte group budget); otherwise both sets share one."""
    if alone:
        monkeypatch.setattr(ao.graphattn, "GROUP_BYTES", 1)
    units = graphs_only(tmp_path)
    records = ao.read_unitized(units)
    weights = ao.read_weights(small_weights_file(tmp_path, records))
    tokens = [{t for u in r.unitized.units for t in u.tokens} for r in records]
    rows = slice(None) if scaled == "all" else [weights.token_id(t) for t in tokens[1] - tokens[0]]
    weights.embedding[rows] *= 1e200
    wpath = tmp_path / "overflow.json"
    ao.write_weights(weights, wpath)
    errstate = np.geterr()
    capsys.readouterr()
    code = main(["generate", "--unitized", str(units), "--graphs", str(tmp_path / "graphs"),
                 "--out", str(tmp_path / "gen"), "--weights", str(wpath)] + flags)
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: set '{set_id}': non-finite decoder state"]
    assert np.geterr() == errstate
    kept = ["set0.awd", "set0.summary.json"] if set_id == "set1" and alone else []
    assert sorted(path.name for path in (tmp_path / "gen").iterdir()) == kept


@pytest.mark.parametrize("option, value", [
    ("d_model", "16"), ("num_layers", "4"), ("num_heads", "2"), ("model_max_len", "8"),
])
@pytest.mark.parametrize("channel", ["flag", "env", "config"])
def test_generate_weights_file_rejects_model_size_options(tmp_path, capsys, monkeypatch,
                                                          option, value, channel):
    units = graphs_only(tmp_path)
    flags = ["--weights", str(small_weights_file(tmp_path, ao.read_unitized(units)))]
    flag = "--" + option.replace("_", "-")
    if channel == "flag":
        flags += [flag, value]
    elif channel == "env":
        monkeypatch.setenv("ATTNORIGIN_" + option.upper(), value)
    else:
        (tmp_path / "opts.cfg").write_text(f"{option} = {value}\n")
        flags += ["--config", str(tmp_path / "opts.cfg")]
    line = generate_error(tmp_path, capsys, units, flags)
    assert line == (f"error: {flag} sizes synthetic weights only; "
                    "the --weights file fixes the model size")


def test_generate_sigma_and_shift_form_override_the_weights_file(tmp_path, capsys):
    units = graphs_only(tmp_path)
    wpath = small_weights_file(tmp_path, ao.read_unitized(units))
    weights = ao.read_weights(wpath)
    weights.config = dataclasses.replace(weights.config, sigma=2.5, shift_form="diff-squared")
    edited = tmp_path / "edited.json"
    ao.write_weights(weights, edited)

    def generate(out, flags):
        assert main(["generate", "--unitized", str(units), "--graphs", str(tmp_path / "graphs"),
                     "--out", str(out), "--beam-size", "2"] + flags) == 0
        return tree_digest(out)

    overridden = generate(tmp_path / "flags", ["--weights", str(wpath), "--sigma", "2.5",
                                               "--shift-form", "diff-squared"])
    assert overridden == generate(tmp_path / "file", ["--weights", str(edited)])
    assert overridden != generate(tmp_path / "plain", ["--weights", str(wpath)])


def edit_json(change):
    def edit(text):
        obj = json.loads(text)
        change(obj)
        return json.dumps(obj)
    return edit


@pytest.mark.parametrize("edit, needle", [
    (lambda text: text[: len(text) // 2], "malformed weights file"),
    (lambda text: "[]", "malformed weights file"),
    (edit_json(lambda obj: obj.pop("vocab")), "missing key 'vocab'"),
    (edit_json(lambda obj: obj["config"].update(num_heads=0)), "num_heads must be >= 1"),
    (edit_json(lambda obj: obj["config"].update(d_model=15)), "not divisible"),
    (edit_json(lambda obj: obj["params"]["w_q"].pop()), "w_q shape"),
    (edit_json(lambda obj: obj["config"].update(num_layers=1.0)),
     "config num_layers must be an integer, not 1.0"),
    (edit_json(lambda obj: obj["config"].update(num_heads=True)),
     "config num_heads must be an integer, not True"),
    (edit_json(lambda obj: obj["config"].update(sigma=True)),
     "config sigma must be a number, not True"),
    (edit_json(lambda obj: obj["config"].update(sigma=float("nan"))),
     "sigma must be positive and finite, got nan"),
    (edit_json(lambda obj: obj["config"].update(sigma=1e-200)),
     "sigma 1e-200 is too small: 2 * sigma**2 underflows to 0"),
    (edit_json(lambda obj: obj["vocab"].__setitem__(-1, 17)),
     "vocab must be a list of distinct strings"),
    (edit_json(lambda obj: obj["vocab"].__setitem__(-1, obj["vocab"][-2])),
     "vocab must be a list of distinct strings"),
    (edit_json(lambda obj: obj["config"].update(d_model=0)), "d_model must be >= 1, got 0"),
    (edit_json(lambda obj: obj["config"].update(num_layers=0)), "num_layers must be >= 1, got 0"),
    (edit_json(lambda obj: obj["config"].update(max_len=0)), "max_len must be >= 1, got 0"),
    (edit_json(lambda obj: obj["params"]["w_q"][0][1][2].__setitem__(3, True)),
     "w_q must hold only JSON numbers, not True"),
    (edit_json(lambda obj: obj["params"]["cp_b2"].__setitem__(0, "0.5")),
     "cp_b2 must hold only JSON numbers, not '0.5'"),
    (edit_json(lambda obj: obj["params"]["cp_b2"].__setitem__(0, 10**400)),
     "malformed weights file: cp_b2 holds an integer too large for float64"),
    (edit_json(lambda obj: obj["config"].update(sigma=10**400)),
     "malformed weights file: sigma is an integer too large for float64"),
], ids=["truncated", "not-object", "missing-key", "zero-heads", "indivisible", "wrong-shape",
        "float-layers", "bool-heads", "bool-sigma", "nan-sigma", "tiny-sigma", "int-vocab-entry",
        "duplicate-vocab-entry", "zero-d-model", "zero-layers", "zero-max-len", "bool-param",
        "string-param", "huge-int-param", "huge-int-sigma"])
def test_generate_rejects_malformed_weights_file(tmp_path, capsys, edit, needle):
    units = graphs_only(tmp_path)
    wpath = small_weights_file(tmp_path, ao.read_unitized(units))
    wpath.write_text(edit(wpath.read_text()))
    line = generate_error(tmp_path, capsys, units, ["--weights", str(wpath)])
    assert line.startswith(f"error: {wpath}: ") and needle in line


@pytest.mark.parametrize("kind", ["corpus", "unitized", "graph", "weights", "summary",
                                  "vocab", "report"])
def test_deeply_nested_json_fails_cleanly(tmp_path, capsys, kind):
    """JSON nested past the interpreter's recursion limit gives one error line
    naming the file, or the line of a JSON-lines file."""
    run_pipeline(tmp_path)
    units, gen, report = tmp_path / "units.jsonl", tmp_path / "gen", tmp_path / "rep/report.json"
    weights = small_weights_file(tmp_path, ao.read_unitized(units))
    generate = ["generate", "--unitized", str(units), "--graphs", str(tmp_path / "graphs"),
                "--out", str(tmp_path / "gen2")]
    analyze = ["analyze", "--awd", str(gen), "--summaries", str(gen), "--unitized", str(units),
               "--out", str(tmp_path / "rep2")]
    path, argv = {
        "corpus": (tmp_path / "corpus.jsonl",
                   ["preprocess", "--corpus", str(tmp_path / "corpus.jsonl"),
                    "--out", str(tmp_path / "units2.jsonl")]),
        "unitized": (units, ["graph", "--unitized", str(units), "--out", str(tmp_path / "g2")]),
        "graph": (tmp_path / "graphs" / "set0.graph.json", generate + GEN_FLAGS),
        "weights": (weights, generate + ["--weights", str(weights)]),
        "summary": (gen / "set0.summary.json", analyze),
        "vocab": (gen / "vocab.json", analyze),
        "report": (report, ["heatmap", "--report", str(report), "--out", str(tmp_path / "h.svg")]),
    }[kind]
    path.write_text("[" * 100_000 + "\n")
    capsys.readouterr()
    assert main(argv) == 1
    lines = capsys.readouterr().err.splitlines()
    where = "line 1: " if path.suffix == ".jsonl" else f"{path}: malformed "
    assert len(lines) == 1 and lines[0].startswith("error: ") and where in lines[0]


def test_analyze_set_id_mismatch(tmp_path, capsys):
    run_pipeline(tmp_path)
    spath = tmp_path / "gen" / "set0.summary.json"
    obj = json.loads(spath.read_text())
    obj["set_id"] = "other"
    spath.write_text(json.dumps(obj))
    code = main(["analyze", "--awd", str(tmp_path / "gen"), "--summaries", str(tmp_path / "gen"),
                 "--unitized", str(tmp_path / "units.jsonl"), "--out", str(tmp_path / "r2")])
    assert code != 0
    assert "set_id mismatch" in capsys.readouterr().err


def analyze_error(tmp_path, capsys):
    """Run analyze into a fresh directory; return its one stderr line."""
    capsys.readouterr()
    rep = tmp_path / "rep_bad"
    code = main(["analyze", "--awd", str(tmp_path / "gen"), "--summaries", str(tmp_path / "gen"),
                 "--unitized", str(tmp_path / "units.jsonl"), "--out", str(rep)])
    lines = capsys.readouterr().err.splitlines()
    assert code == 1
    assert not rep.exists()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    return lines[0]


def test_analyze_rejects_non_finite_attention(tmp_path, capsys):
    run_pipeline(tmp_path)
    apath = tmp_path / "gen" / "set0.awd"
    tensor = ao.read_awd(apath)
    tensor.values[:] = np.nan
    ao.write_awd(tensor, apath)
    line = analyze_error(tmp_path, capsys)
    assert "'set0'" in line and "non-finite attention" in line


@pytest.mark.parametrize("token", [999999, -1])
def test_analyze_rejects_out_of_vocabulary_token(tmp_path, capsys, token):
    run_pipeline(tmp_path)
    vocab_size = len(json.loads((tmp_path / "gen" / "vocab.json").read_text()))
    spath = tmp_path / "gen" / "set1.summary.json"
    obj = json.loads(spath.read_text())
    obj["tokens"][0] = token
    spath.write_text(json.dumps(obj))
    line = analyze_error(tmp_path, capsys)
    assert "'set1'" in line and f"token id {token} " in line and f"size {vocab_size}" in line


def edit_file(name, change):
    """Corruption that replaces the bytes of one generated file."""
    def corrupt(gen):
        (gen / name).write_bytes(change((gen / name).read_bytes()))
    return corrupt


def edit_summary(change):
    """Corruption that edits set1's summary object in place."""
    def corrupt(gen):
        path = gen / "set1.summary.json"
        obj = json.loads(path.read_text())
        change(obj)
        path.write_text(json.dumps(obj))
    return corrupt


def edit_awd(change):
    """Corruption that maps set1's attention values to new ones."""
    def corrupt(gen):
        path = gen / "set1.awd"
        ao.write_awd(ao.AwdTensor(change(ao.read_awd(path).values)), path)
    return corrupt


def move_mass_to_pad(values):
    """Move half of unit 0's mass onto unit 5, a pad slot; sums stay 1."""
    moved = values.copy()
    moved[..., 5] = values[..., 0] / 2
    moved[..., 0] -= moved[..., 5]
    return moved


@pytest.mark.parametrize("corrupt, needle", [
    (edit_file("set1.awd", lambda b: b[:-3]), "payload has"),
    (edit_file("set1.awd", lambda b: b"AWD2" + b[4:]), "bad magic"),
    (edit_file("set1.summary.json", lambda b: b[:-5]), "Expecting"),
    (lambda gen: (gen / "set1.awd").unlink(), "set1.awd"),
    (edit_summary(lambda obj: obj["tokens"].extend([4] * 5)), "length 10 outside [0, 5]"),
    (edit_summary(lambda obj: obj.pop("beam_trace")), "'beam_trace'"),
    (edit_summary(lambda obj: obj.update(winning_beam=2)), "winning beam 2"),
    (edit_awd(lambda v: -3.0 * v + 0.7), "negative attention"),
    (edit_awd(lambda v: 0.98 * v), "away from 1"),
    (edit_awd(lambda v: v + 1e-4 * (v > 0)), "away from 1"),
    (edit_awd(move_mass_to_pad), "mass on pad units"),
    (edit_awd(lambda v: np.concatenate([v, 0 * v[..., :1]], axis=-1)),
     "tensor has 7 units, unitized input has 6"),
    (edit_summary(lambda obj: obj["tokens"].__setitem__(0, obj["tokens"][0] + 0.7)),
     "tokens holds "),
    (edit_summary(lambda obj: obj["tokens"].__setitem__(0, True)), "tokens holds True"),
    (edit_summary(lambda obj: obj["beam_trace"][0].__setitem__(0, 0.0)),
     "beam_trace row holds 0.0"),
    (edit_summary(lambda obj: obj.update(winning_beam=0.9)), "winning_beam holds 0.9"),
    (edit_awd(lambda v: v[:, :, :0]), "tensor has 0 layers and 4 heads"),
    (edit_awd(lambda v: v[:, :, :, :0]), "tensor has 2 layers and 0 heads"),
], ids=["truncated-awd", "bad-magic", "invalid-json", "missing-awd", "summary-too-long",
        "missing-key", "winning-beam", "off-simplex", "sum-below-one", "sum-above-one",
        "pad-mass", "unit-count", "fractional-token", "bool-token", "float-trace",
        "fractional-winning-beam", "zero-layers", "zero-heads"])
def test_analyze_errors_name_the_set(tmp_path, capsys, corrupt, needle):
    run_pipeline(tmp_path)
    corrupt(tmp_path / "gen")
    line = analyze_error(tmp_path, capsys)
    assert line.startswith("error: set 'set1': ") and needle in line


@pytest.mark.parametrize("content", ['{"0": "<pad>"}', '["<pad>", 3]', "[\"<pad>\""],
                         ids=["object", "non-string", "invalid-json"])
def test_analyze_rejects_malformed_vocab(tmp_path, capsys, content):
    run_pipeline(tmp_path)
    vpath = tmp_path / "gen" / "vocab.json"
    vpath.write_text(content)
    line = analyze_error(tmp_path, capsys)
    assert line.startswith(f"error: {vpath}: ")


def test_analyze_rejects_duplicate_vocab_entries(tmp_path, capsys):
    """A second '<eoss>' id must not pass: sentences would split on one id and merge on the other."""
    run_pipeline(tmp_path)
    gen = tmp_path / "gen"
    vpath = gen / "vocab.json"
    vocab = json.loads(vpath.read_text())
    vpath.write_text(json.dumps(vocab + ["<eoss>"]))
    for spath in gen.glob("*.summary.json"):
        obj = json.loads(spath.read_text())
        obj["tokens"] = [len(vocab) if t == vocab.index("<eoss>") else t for t in obj["tokens"]]
        spath.write_text(json.dumps(obj))
    line = analyze_error(tmp_path, capsys)
    assert line.startswith(f"error: {vpath}: ") and "distinct strings" in line


def corrupted_bytes(blob, data):
    """``blob`` truncated, or with one to four bytes flipped, as drawn from ``data``."""
    blob = bytearray(blob)
    if data.draw(st.booleans(), label="truncate"):
        return bytes(blob[: data.draw(st.integers(0, len(blob) - 1), label="cut")])
    flips = data.draw(st.lists(st.tuples(st.integers(0, len(blob) - 1),
                                         st.integers(1, 255)), min_size=1, max_size=4))
    for position, mask in flips:
        blob[position] ^= mask
    return bytes(blob)


DEGENERACY_WARNING = re.compile(
    r"warning: \d+ of \d+ summaries (reached max_len \d+ without <eos>"
    r"|have at most one sentence \(no <eoss> splits them\))")


def is_degeneracy_warning(lines):
    """True for the stderr of a successful stage: nothing, or the one
    degeneracy warning that ``generate`` or ``analyze`` may print."""
    return lines == [] or (len(lines) == 1 and DEGENERACY_WARNING.fullmatch(lines[0]) is not None)


def test_analyze_fuzzed_set_files_fail_cleanly(tmp_path, capsys):
    """Flipped or truncated bytes give exit 0 or one error line naming the set."""
    run_pipeline(tmp_path)
    gen = tmp_path / "gen"
    originals = {name: (gen / name).read_bytes() for name in ("set1.awd", "set1.summary.json")}
    rep = tmp_path / "rep_fuzz"

    @settings(max_examples=100)
    @given(name=st.sampled_from(sorted(originals)), data=st.data())
    def check(name, data):
        for other, blob in originals.items():
            (gen / other).write_bytes(blob)
        (gen / name).write_bytes(corrupted_bytes(originals[name], data))
        shutil.rmtree(rep, ignore_errors=True)
        capsys.readouterr()
        code = main(["analyze", "--awd", str(gen), "--summaries", str(gen),
                     "--unitized", str(tmp_path / "units.jsonl"), "--out", str(rep)])
        err = capsys.readouterr().err.splitlines()
        if code == 0:
            assert is_degeneracy_warning(err) and (rep / "report.json").exists()
        else:
            assert code == 1 and not rep.exists()
            assert len(err) == 1 and err[0].startswith("error: set 'set1': ")

    check()


def fuzz_reader(capsys, path, read, argv, out, max_examples):
    """Corrupt ``path`` (flipped or truncated bytes, or one JSON value of its
    last line swapped): ``read`` returns or raises ValueError/OSError, and
    ``argv`` exits 0, or 1 with one error line, and 1 whenever the read fails."""
    original = path.read_bytes()
    lines = original.decode("utf-8").splitlines()
    last = json.loads(lines[-1])
    paths = list(json_paths(last))

    @settings(max_examples=max_examples)
    @given(data=st.data())
    def check(data):
        if data.draw(st.booleans(), label="swap a value"):
            value = replaced(last, data.draw(st.sampled_from(paths)), data.draw(JSON_VALUES))
            blob = "\n".join(lines[:-1] + [json.dumps(value)]).encode() + b"\n"
        else:
            blob = corrupted_bytes(original, data)
        path.write_bytes(blob)
        try:
            read(path)
            readable = True
        except (ValueError, OSError):
            readable = False
        shutil.rmtree(out, ignore_errors=True)
        capsys.readouterr()
        code = main([str(a) for a in argv])
        err = capsys.readouterr().err.splitlines()
        if code == 0:
            assert readable and is_degeneracy_warning(err)
        else:
            assert code == 1 and len(err) == 1 and err[0].startswith("error: ")

    check()
    path.write_bytes(original)


def test_graph_fuzzed_unitized_file_fails_cleanly(tmp_path, capsys):
    units = graphs_only(tmp_path)
    out = tmp_path / "graphs_fuzz"
    fuzz_reader(capsys, units, ao.read_unitized,
                ["graph", "--unitized", units, "--out", out], out, max_examples=150)


def test_generate_fuzzed_graph_file_fails_cleanly(tmp_path, capsys):
    units = graphs_only(tmp_path)
    out = tmp_path / "gen_fuzz"
    fuzz_reader(capsys, tmp_path / "graphs" / "set1.graph.json", ao.read_graph,
                ["generate", "--unitized", units, "--graphs", tmp_path / "graphs",
                 "--out", out, *GEN_FLAGS], out, max_examples=100)


def test_generate_fuzzed_weights_file_fails_cleanly(tmp_path, capsys):
    units = graphs_only(tmp_path)
    wpath = small_weights_file(tmp_path, ao.read_unitized(units))
    out = tmp_path / "gen_fuzz"
    fuzz_reader(capsys, wpath, ao.read_weights,
                ["generate", "--unitized", units, "--graphs", tmp_path / "graphs",
                 "--out", out, "--weights", wpath, "--beam-size", "2", "--max-len", "5"],
                out, max_examples=100)


def test_module_entry_point_runs_with_warnings_as_errors():
    src = Path(ao.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-W", "error", "-m", "attnorigin.cli.main", "--help"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == "" and "preprocess" in done.stdout


def test_generate_closes_every_file_in_development_mode(tmp_path):
    """A two-set ``generate``, one group with two tensor files open at once, run
    with ``-X dev`` and ResourceWarning an error: exit 0 and no such warning."""
    units = graphs_only(tmp_path)
    src = Path(ao.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-m", "attnorigin.cli.main",
         "generate", "--unitized", str(units), "--graphs", str(tmp_path / "graphs"),
         "--out", str(tmp_path / "gen")] + GEN_FLAGS,
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "ResourceWarning" not in done.stderr, done.stderr
    assert "generated=2" in done.stdout


def test_bench_tracer_installs_with_warnings_as_errors():
    """The benchmark's tracer patches package functions by name; a renamed one fails here."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "bench")]))
    done = subprocess.run(
        [sys.executable, "-W", "error", "-c", "from tracer import Tracer; Tracer().install()"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr


def test_analyze_refuses_posbias_without_boundaries(tmp_path, capsys):
    run_pipeline(tmp_path)
    units = tmp_path / "units.jsonl"
    stripped = tmp_path / "units_nb.jsonl"
    lines = []
    for line in units.read_text().splitlines():
        obj = json.loads(line)
        obj["doc_boundaries"] = None
        lines.append(json.dumps(obj))
    stripped.write_text("\n".join(lines) + "\n")
    rep = tmp_path / "rep_nb"
    assert main(["analyze", "--awd", str(tmp_path / "gen"), "--summaries", str(tmp_path / "gen"),
                 "--unitized", str(stripped), "--out", str(rep)]) == 0
    assert "positional bias skipped" in capsys.readouterr().err
    report = json.loads((rep / "report.json").read_text())
    assert "posbias" not in report
    code = main(["heatmap", "--report", str(rep / "report.json"),
                 "--out", str(tmp_path / "no.svg")])
    assert code != 0


@pytest.mark.parametrize("report", [
    [], {"posbias": {"normalized": 5}}, {"posbias": {"normalized": [[None]]}},
    {"posbias": {"normalized": [[0.5], [0.2, 0.3]]}}, {"posbias": {"normalized": [[1.5]]}},
    {"posbias": {"normalized": [[True]]}}, {"posbias": {"normalized": [0.5]}},
], ids=["list", "number-grid", "null-cell", "ragged", "above-one", "bool-cell", "flat-row"])
def test_heatmap_rejects_malformed_report(tmp_path, capsys, report):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    svg = tmp_path / "heat.svg"
    code = main(["heatmap", "--report", str(path), "--out", str(svg)])
    lines = capsys.readouterr().err.splitlines()
    assert code == 1 and len(lines) == 1 and lines[0].startswith("error: ")
    assert not svg.exists()


def test_analyze_layer_and_variant_selection(tmp_path):
    run_pipeline(tmp_path)
    rep = tmp_path / "rep_sel"
    assert main(["analyze", "--awd", str(tmp_path / "gen"), "--summaries", str(tmp_path / "gen"),
                 "--unitized", str(tmp_path / "units.jsonl"), "--out", str(rep),
                 "--layers", "2", "--variant", "r1", "--format", "json"]) == 0
    report = json.loads((rep / "report.json").read_text())
    assert [row["layer"] for row in report["layers"]] == [2]
    assert all(row["r2"] is None for row in report["layers"])
    assert not (rep / "report.csv").exists()


def test_analyze_reports_gold_rouge_line(tmp_path, capsys):
    run_pipeline(tmp_path)
    rep = tmp_path / "rep_gold"
    assert main(["analyze", "--awd", str(tmp_path / "gen"), "--summaries", str(tmp_path / "gen"),
                 "--unitized", str(tmp_path / "units.jsonl"), "--out", str(rep)]) == 0
    out = capsys.readouterr().out
    assert "rouge_f=" in out and "gold_sets=2" in out


def test_analyze_gold_rouge_line_is_the_mean_of_one_pair_scores(tmp_path, planted_run, capsys):
    """Sets with and without a gold summary in one file, one with an empty
    generated summary: the line holds the mean of one-pair scores."""
    records = ao.read_unitized(planted_run.units)
    for record, gold in zip(records, ["W1 w2 w3. W4 w5 w0.", None, "W7 w8.", "W9 w9 w1 w2."]):
        record.gold_summary = gold
    ao.write_unitized(records, planted_run.units)
    vocab = json.loads((planted_run.gen / "vocab.json").read_text())
    spath = planted_run.gen / "p2.summary.json"
    spath.write_text(json.dumps({**json.loads(spath.read_text()),
                                 "tokens": [vocab.index(EOS_TOKEN)]}))
    capsys.readouterr()
    assert analyze_planted(planted_run, tmp_path / "rep") == 0
    scores = []
    for record in records[::2] + records[3:]:
        tokens = json.loads(summary_path(planted_run.gen, record.set_id).read_text())["tokens"]
        text = " ".join(vocab[t] for t in tokens if vocab[t] not in SPECIAL_TOKENS)
        scores.append(evaluate_summary(text, record.gold_summary))
    assert scores[1].r1.f1 == 0.0 and scores[0].r1.f1 > 0.0
    mean_f = [sum(getattr(t, v).f1 for t in scores) / len(scores) for v in ("r1", "r2", "rl")]
    line = f"rouge_f={rouge_f_row(*mean_f)} gold_sets=3"
    assert capsys.readouterr().out.splitlines()[-1] == line


def spy_on_grouped_rouge(monkeypatch):
    """(candidates per group, references per group, pairs scored) of each grouped
    ROUGE call that ``origin`` makes, once patched in."""
    calls = []
    grouped = ao.origin.grouped_rouge_counts

    def spy(candidates, references, candidate_groups, reference_groups):
        counts = grouped(candidates, references, candidate_groups, reference_groups)
        calls.append((np.bincount(candidate_groups), np.bincount(reference_groups), len(counts)))
        return counts

    monkeypatch.setattr(ao.origin, "grouped_rouge_counts", spy)
    return calls


def test_analyze_scores_each_gold_summary_against_its_own_set_only(tmp_path, monkeypatch,
                                                                      capsys):
    """Gold ROUGE work grows with the set count, not with its square."""
    run = write_planted_run(tmp_path / "planted", num_sets=200)
    records = ao.read_unitized(run.units)
    for record in records:
        record.gold_summary = "W1 w2 w3."
    ao.write_unitized(records, run.units)
    calls = spy_on_grouped_rouge(monkeypatch)
    capsys.readouterr()
    assert analyze_planted(run, tmp_path / "rep") == 0
    assert capsys.readouterr().out.splitlines()[-1].endswith(" gold_sets=200")
    assert len(calls) == 1  # one call
    cand_sizes, ref_sizes, rows = calls[0]
    # the last 200 groups pair each generated summary with its own gold summary only
    assert cand_sizes[-200:].tolist() == ref_sizes[-200:].tolist() == [1] * 200
    assert rows == int(cand_sizes[:-200] @ ref_sizes[:-200]) + 200


def write_sentence_run(root, num_sets):
    """Sets shaped like sentence mode at beam 1 with max_len 8: two documents of ten
    three-sentence paragraphs give 60 sentence units of 12 words; each summary is one
    sentence of 8 words with attention spread evenly over the real units, and each set
    has a three-sentence gold summary. Returns the unitized path and the output directory."""
    rng = np.random.default_rng(79)
    words = [f"w{i}" for i in range(400)]
    gen = root / "gen"
    gen.mkdir(parents=True)
    vocab = build_vocab(words)
    ao.textunits.write_json(vocab, gen / "vocab.json")

    def text(sentences):
        return " ".join(" ".join(rng.choice(words, 12)) + "." for _ in range(sentences))

    records = []
    for k in range(num_sets):
        docs = [[text(3) for _ in range(10)] for _ in range(2)]
        inp = ao.unitize(make_docset(f"s{k}", docs), "sentence", L=60, T=30)
        records.append(ao.UnitizedRecord(f"s{k}", inp, gold_summary=text(3)))
        tokens = [vocab.index(w) for w in rng.choice(words, 8)]
        values = np.zeros((1, 8, 2, 2, inp.L), dtype=np.float32)
        values[..., ~inp.unit_pad] = 1.0 / inp.num_real_units
        ao.write_awd(ao.AwdTensor(values=values), gen / f"s{k}.awd")
        ao.awd.write_summary(ao.awd.SummaryRecord(f"s{k}", tokens, [[0]] * 8, 0),
                             gen / f"s{k}.summary.json")
    ao.write_unitized(records, root / "units.jsonl")
    return root / "units.jsonl", gen


def test_analyze_scores_a_sentence_mode_file_in_one_kernel_call(tmp_path, monkeypatch, capsys):
    """24 sentence-mode sets with gold summaries: every reference pair and every gold
    pair goes through one grouped ROUGE call, which runs as one chunk."""
    units, gen = write_sentence_run(tmp_path / "run", 24)
    calls = spy_on_grouped_rouge(monkeypatch)
    chunks = spy_on_chunks(monkeypatch)
    capsys.readouterr()
    assert main(["analyze", "--awd", str(gen), "--summaries", str(gen), "--unitized", str(units),
                 "--out", str(tmp_path / "rep")]) == 0
    assert capsys.readouterr().out.splitlines()[-1].endswith(" gold_sets=24")
    assert len(calls) == 1
    cand_sizes, ref_sizes, rows = calls[0]
    assert cand_sizes.tolist() == [1] * 48 and ref_sizes[24:].tolist() == [1] * 24
    assert rows == int(ref_sizes[:24].sum()) + 24
    assert chunks == [(0, 48)]


def test_analyze_names_the_first_of_two_faulty_sets(tmp_path, capsys):
    """p1's attention is found non-finite after its files are read; p2 lacks its summary
    file, which the loop finds first thing. The earlier set in the file is named."""
    run = write_planted_run(tmp_path / "planted")
    path = run.gen / "p1.awd"
    values = ao.read_awd(path).values
    values[..., 0] = np.nan
    ao.write_awd(ao.AwdTensor(values=values), path)
    (run.gen / "p2.summary.json").unlink()
    capsys.readouterr()
    assert analyze_planted(run, tmp_path / "rep") == 1
    assert capsys.readouterr().err.splitlines() == ["error: set 'p1': non-finite attention values"]


def test_analyze_limit(tmp_path, capsys):
    run_pipeline(tmp_path)
    rep = tmp_path / "rep_lim"
    assert main(["analyze", "--awd", str(tmp_path / "gen"), "--summaries", str(tmp_path / "gen"),
                 "--unitized", str(tmp_path / "units.jsonl"), "--out", str(rep),
                 "--limit", "1"]) == 0
    assert "sets=1" in capsys.readouterr().out


@pytest.mark.parametrize("limit", ["0", "-1"])
@pytest.mark.parametrize("stage", ["generate", "analyze"])
def test_stage_rejects_limit_below_one(tmp_path, capsys, stage, limit):
    run_pipeline(tmp_path)
    out = tmp_path / "out_lim"
    argv = {
        "generate": ["generate", "--unitized", tmp_path / "units.jsonl",
                     "--graphs", tmp_path / "graphs", "--out", out, *GEN_FLAGS],
        "analyze": ["analyze", "--awd", tmp_path / "gen", "--summaries", tmp_path / "gen",
                    "--unitized", tmp_path / "units.jsonl", "--out", out],
    }[stage]
    capsys.readouterr()
    assert main([str(a) for a in argv] + ["--limit", limit]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: --limit must be >= 1, got {limit}"]
    assert not out.exists()


def test_analyze_rejects_an_empty_layer_selection(tmp_path, capsys):
    run_pipeline(tmp_path)
    rep = tmp_path / "rep_none"
    capsys.readouterr()
    assert main(["analyze", "--awd", str(tmp_path / "gen"), "--summaries", str(tmp_path / "gen"),
                 "--unitized", str(tmp_path / "units.jsonl"), "--out", str(rep),
                 "--layers", ","]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: --layers must name at least one layer, got ','"]
    assert not rep.exists()


def test_analyze_tokenizes_summary_words_like_the_units(tmp_path, capsys):
    """A vocabulary that keeps case or punctuation gives the report and the
    ``rouge_f=`` line of its tokenized twin."""
    run_pipeline(tmp_path)
    gen = tmp_path / "gen"
    vocab = json.loads((gen / "vocab.json").read_text())
    for s in range(2):  # each summary repeats the words of its set's first unit
        words = ["alpha{}00", "beta{}00", "gamma", ".", "<eos>"]
        spath = gen / f"set{s}.summary.json"
        obj = json.loads(spath.read_text())
        obj["tokens"] = [vocab.index(w.format(s)) for w in words]
        spath.write_text(json.dumps(obj))

    def analyze(rep):
        capsys.readouterr()
        assert main(["analyze", "--awd", str(gen), "--summaries", str(gen),
                     "--unitized", str(tmp_path / "units.jsonl"), "--out", str(rep)]) == 0
        return capsys.readouterr().out.replace(str(rep), "REP")

    lower = analyze(tmp_path / "rep_lower")
    assert json.loads((tmp_path / "rep_lower" / "report.json").read_text())["layers"][0]["r1"]
    assert "rouge_f=" in lower
    cased = [t if t in SPECIAL_TOKENS else t.capitalize() for t in vocab]
    punctuated = list(cased)  # "gamma" "." read as "Gamma." and a blank entry
    punctuated[vocab.index("gamma")] = "Gamma."
    punctuated[vocab.index(".")] = " "
    for name, twin in [("rep_cased", cased), ("rep_punctuated", punctuated)]:
        assert twin != vocab and len(set(twin)) == len(twin)
        (gen / "vocab.json").write_text(json.dumps(twin))
        assert analyze(tmp_path / name) == lower
        for report in ("report.json", "report.csv"):
            assert (tmp_path / name / report).read_bytes() == \
                (tmp_path / "rep_lower" / report).read_bytes()


def test_concentrator_weights_give_single_hot_posbias_row(tmp_path):
    # corpus with per-unit sentinel tokens: 2 docs x 2 paragraphs
    corpus = tmp_path / "corpus.jsonl"
    sets = []
    for s in range(2):
        docs = []
        unit = 0
        for d in range(2):
            paras = []
            for _ in range(2):
                stem = f"q{unit}" if unit == 3 else f"v{s}q{unit}"
                paras.append(" ".join(f"{stem}{c}" for c in "abc"))
                unit += 1
            docs.append({"doc_id": f"s{s}d{d}", "paragraphs": paras})
        sets.append({"set_id": f"set{s}", "documents": docs, "gold_summary": None})
    corpus.write_text("\n".join(json.dumps(obj) for obj in sets) + "\n")

    units = tmp_path / "units.jsonl"
    assert main(["preprocess", "--corpus", str(corpus), "--out", str(units),
                 "--units", "4", "--tokens", "6"]) == 0
    assert main(["graph", "--unitized", str(units), "--out", str(tmp_path / "graphs")]) == 0

    records = ao.read_unitized(units)
    vocab = build_vocab(t for r in records for u in r.unitized.units for t in u.tokens)
    cfg = ao.ModelConfig(d_model=16, num_layers=2, num_heads=2, vocab_size=len(vocab),
                         num_units=4, max_len=6)
    script = [vocab.index(f"q3{c}") for c in "abc"] + [vocab.index("<eos>")]
    weights = ao.make_concentrator_weights(cfg, target=3, vocab=vocab, token_script=script)
    wpath = tmp_path / "conc.json"
    ao.write_weights(weights, wpath)

    gen = tmp_path / "gen"
    rep = tmp_path / "rep"
    assert main(["generate", "--unitized", str(units), "--graphs", str(tmp_path / "graphs"),
                 "--out", str(gen), "--weights", str(wpath), "--beam-size", "2"]) == 0
    assert main(["analyze", "--awd", str(gen), "--summaries", str(gen),
                 "--unitized", str(units), "--out", str(rep)]) == 0
    report = json.loads((rep / "report.json").read_text())
    normalized = report["posbias"]["normalized"]
    # target unit 3 sits at position 1 of document 1: a single hot row
    for row_idx, row in enumerate(normalized):
        for value in row:
            assert value == (1.0 if row_idx == 1 else 0.0)


# ---------------------------------------------------------------------------
# option layering
# ---------------------------------------------------------------------------

def test_env_override(tmp_path, capsys, monkeypatch):
    corpus = tmp_path / "corpus.jsonl"
    write_corpus(corpus, num_sets=1)
    monkeypatch.setenv("ATTNORIGIN_UNITS", "4")
    monkeypatch.setenv("ATTNORIGIN_TOKENS", "7")
    assert main(["preprocess", "--corpus", str(corpus), "--out", str(tmp_path / "u.jsonl")]) == 0
    assert "L=4 T=7" in capsys.readouterr().out


def test_cli_flag_beats_env(tmp_path, capsys, monkeypatch):
    corpus = tmp_path / "corpus.jsonl"
    write_corpus(corpus, num_sets=1)
    monkeypatch.setenv("ATTNORIGIN_UNITS", "4")
    assert main(["preprocess", "--corpus", str(corpus), "--out", str(tmp_path / "u.jsonl"),
                 "--units", "5"]) == 0
    assert "L=5" in capsys.readouterr().out


def test_config_file_values_and_env_precedence(tmp_path, capsys, monkeypatch):
    corpus = tmp_path / "corpus.jsonl"
    write_corpus(corpus, num_sets=1)
    cfg = tmp_path / "opts.cfg"
    cfg.write_text("# comment line\nunits = 3\ntokens = 9\n")
    assert main(["preprocess", "--corpus", str(corpus), "--out", str(tmp_path / "u.jsonl"),
                 "--config", str(cfg)]) == 0
    assert "L=3 T=9" in capsys.readouterr().out
    monkeypatch.setenv("ATTNORIGIN_UNITS", "6")
    assert main(["preprocess", "--corpus", str(corpus), "--out", str(tmp_path / "u2.jsonl"),
                 "--config", str(cfg)]) == 0
    assert "L=6 T=9" in capsys.readouterr().out


def test_config_file_unknown_key_rejected(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    write_corpus(corpus, num_sets=1)
    cfg = tmp_path / "opts.cfg"
    cfg.write_text("unitz = 3\n")
    code = main(["preprocess", "--corpus", str(corpus), "--out", str(tmp_path / "u.jsonl"),
                 "--config", str(cfg)])
    assert code != 0
    assert "unknown option" in capsys.readouterr().err


@pytest.mark.parametrize("channel", ["flag", "env"])
def test_config_file_cannot_name_another_config_file(tmp_path, capsys, monkeypatch, channel):
    """``config`` is an unknown key inside a config file, not a file that is silently skipped."""
    corpus = tmp_path / "corpus.jsonl"
    write_corpus(corpus, num_sets=1)
    cfg = tmp_path / "opts.cfg"
    cfg.write_text("units = 3\nconfig = /nonexistent/other.cfg\n")
    out = tmp_path / "u.jsonl"
    argv = ["preprocess", "--corpus", str(corpus), "--out", str(out)]
    if channel == "flag":
        argv += ["--config", str(cfg)]
    else:
        monkeypatch.setenv("ATTNORIGIN_CONFIG", str(cfg))
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {cfg}:2: unknown option 'config'"]
    assert not out.exists()


@pytest.mark.parametrize("channel", ["flag", "env"])
def test_config_file_that_is_not_utf8_names_the_file(tmp_path, capsys, monkeypatch, channel):
    units = graphs_only(tmp_path)
    cfg = tmp_path / "opts.cfg"
    cfg.write_bytes(b"tau = 0.1\n\xff\n")
    argv = ["graph", "--unitized", str(units), "--out", str(tmp_path / "g2")]
    if channel == "flag":
        argv += ["--config", str(cfg)]
    else:
        monkeypatch.setenv("ATTNORIGIN_CONFIG", str(cfg))
    capsys.readouterr()
    code = main(argv)
    lines = capsys.readouterr().err.splitlines()
    assert code == 1 and len(lines) == 1
    assert lines[0].startswith(f"error: {cfg}: malformed config file: 'utf-8' codec can't decode")
    assert not (tmp_path / "g2").exists()


def test_generate_adds_no_default_of_its_own(tmp_path, capsys, monkeypatch):
    """No model or generation flag gives the run with the library's defaults spelled out."""
    units = graphs_only(tmp_path)
    model = {f.name: f.default for f in dataclasses.fields(ao.ModelConfig)
             if f.default is not dataclasses.MISSING}
    gen = {f.name: f.default for f in dataclasses.fields(ao.GenerationConfig)
           if f.default is not None}
    defaults = {
        "--beam-size": gen.pop("beam_size"), "--length-penalty": gen.pop("length_penalty"),
        "--num-layers": model.pop("num_layers"), "--num-heads": model.pop("num_heads"),
        "--model-max-len": model.pop("max_len"), "--sigma": model.pop("sigma"),
        "--shift-form": model.pop("shift_form"),
    }
    assert not gen and set(model) == {"vocab_size", "num_units"}  # taken from the input

    def generate(out, flags):
        configs = []  # what the decoder gets: a short run may not show every option
        decode = ao.graphattn.generate_sets

        def spy(inputs, weights, graphs, gen, *rest):
            configs.append((weights.config, gen))
            return decode(inputs, weights, graphs, gen, *rest)

        monkeypatch.setattr(ao.graphattn, "generate_sets", spy)
        capsys.readouterr()
        assert main(["generate", "--unitized", str(units), "--graphs", str(tmp_path / "graphs"),
                     "--out", str(out), "--seed", "11", "--max-len", "3"] + flags) == 0
        monkeypatch.undo()
        assert configs
        captured = capsys.readouterr()
        return configs, captured.out.replace(str(out), "OUT"), captured.err, tree_digest(out)

    spelled = [str(part) for item in defaults.items() for part in item]
    assert generate(tmp_path / "bare", []) == generate(tmp_path / "spelled", spelled)


def test_analyze_adds_no_default_of_its_own(tmp_path, planted_run, capsys):
    default = inspect.signature(ao.aggregate_to_sentences).parameters["method"].default

    def analyze(out, flags):
        capsys.readouterr()
        assert analyze_planted(planted_run, out, flags) == 0
        captured = capsys.readouterr()
        return captured.out.replace(str(out), "OUT"), captured.err, tree_digest(out)

    bare = analyze(tmp_path / "bare", [])
    assert bare == analyze(tmp_path / "spelled", ["--aggregation", default])
    assert bare != analyze(tmp_path / "median", ["--aggregation", "median"])


def test_missing_required_option(tmp_path, capsys):
    code = main(["preprocess", "--out", str(tmp_path / "u.jsonl")])
    assert code != 0
    assert "--corpus" in capsys.readouterr().err


def test_unparsable_option_value(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    write_corpus(corpus, num_sets=1)
    code = main(["preprocess", "--corpus", str(corpus), "--out", str(tmp_path / "u.jsonl"),
                 "--units", "many"])
    assert code != 0
    assert "cannot parse" in capsys.readouterr().err


@pytest.fixture(scope="module")
def shared_run(tmp_path_factory):
    """One pipeline run of the two-set corpus with a 2-layer model; read only."""
    return run_pipeline(tmp_path_factory.mktemp("shared"))


def analyze_argv(run, out, *flags, gen=None, units=None):
    gen = gen or run / "gen"
    return ["analyze", "--awd", gen, "--summaries", gen,
            "--unitized", units or run / "units.jsonl", "--out", out, *flags]


def empty_file(tmp):
    (tmp / "empty.jsonl").write_text("")
    return tmp / "empty.jsonl"


def config_file(tmp, text):
    (tmp / "opts.cfg").write_text(text)
    return tmp / "opts.cfg"


def vocab_without_eoss(run, tmp):
    """A copy of the run's generate output whose vocabulary renames <eoss>."""
    gen = tmp / "gen"
    shutil.copytree(run / "gen", gen)
    vocab = json.loads((gen / "vocab.json").read_text())
    (gen / "vocab.json").write_text(json.dumps(
        ["<end-of-sentence>" if token == EOS_SENT_TOKEN else token for token in vocab]))
    return gen


def preprocess_argv(run, out, *flags):
    return ["preprocess", "--corpus", run / "corpus.jsonl", "--out", out, *flags]


# (argv, the one error line's message) from the shared run and an empty directory;
# each stage writes to ``out`` under that directory. A message of None is a clean run.
STAGE_ERRORS = {
    "posbias-layer-0": lambda run, tmp, out: (
        analyze_argv(run, out, "--posbias-layer", "0"), "--posbias-layer outside [1, 2]"),
    "posbias-layer-3": lambda run, tmp, out: (
        analyze_argv(run, out, "--posbias-layer", "3"), "--posbias-layer outside [1, 2]"),
    "posbias-layer-1": lambda run, tmp, out: (
        analyze_argv(run, out, "--posbias-layer", "1"), None),
    "layers-not-integers": lambda run, tmp, out: (
        analyze_argv(run, out, "--layers", "1,x"),
        "--layers must be 'all' or a comma list of integers, got '1,x'"),
    "layers-0": lambda run, tmp, out: (
        analyze_argv(run, out, "--layers", "0"), "--layers entry 0 outside [1, 2]"),
    "format-xml": lambda run, tmp, out: (
        analyze_argv(run, out, "--format", "xml"),
        "--format must be a comma subset of {json,csv}"),
    "units-0": lambda run, tmp, out: (
        preprocess_argv(run, out, "--units", "0"), "--units and --tokens must be >= 1"),
    "tau-1": lambda run, tmp, out: (
        ["graph", "--unitized", run / "units.jsonl", "--out", out, "--tau", "1"],
        "--tau must be in [0, 1)"),
    "config-line-without-equals": lambda run, tmp, out: (
        preprocess_argv(run, out, "--config", config_file(tmp, "units 3\n")),
        f"{tmp / 'opts.cfg'}:1: expected key=value, got 'units 3'"),
    "config-missing": lambda run, tmp, out: (
        preprocess_argv(run, out, "--config", tmp / "absent.cfg"),
        f"cannot read config file: [Errno 2] No such file or directory: "
        f"{str(tmp / 'absent.cfg')!r}"),
    "generate-no-sets": lambda run, tmp, out: (
        ["generate", "--unitized", empty_file(tmp), "--graphs", run / "graphs", "--out", out,
         *GEN_FLAGS], "no sets to generate for"),
    "analyze-no-sets": lambda run, tmp, out: (
        analyze_argv(run, out, units=empty_file(tmp)), "no sets to analyze"),
    "vocab-without-eoss": lambda run, tmp, out: (
        analyze_argv(run, out, gen=vocab_without_eoss(run, tmp)),
        f"vocabulary lacks the {EOS_SENT_TOKEN!r} marker"),
}


@pytest.mark.parametrize("case", list(STAGE_ERRORS))
def test_stage_error_paths_give_one_error_line(shared_run, tmp_path, capsys, case):
    """Each rejected option or input gives exit 1, one ``error:`` line and no output."""
    out = tmp_path / "out"
    argv, message = STAGE_ERRORS[case](shared_run, tmp_path, out)
    capsys.readouterr()
    code = main([str(arg) for arg in argv])
    err = capsys.readouterr().err.splitlines()
    if message is None:
        assert code == 0 and not [line for line in err if line.startswith("error:")]
        assert "posbias" in json.loads((out / "report.json").read_text())
    else:
        assert (code, err) == (1, [f"error: {message}"])
        assert not out.exists()


# ---------------------------------------------------------------------------
# JSON files, set file names and output directories
# ---------------------------------------------------------------------------

def json_file_and_reader(root, kind):
    """The pipeline's ``kind`` JSON file under ``root`` and the argv of a stage that reads it."""
    analyze = ["analyze", "--awd", root / "gen", "--summaries", root / "gen",
               "--unitized", root / "units.jsonl", "--out", root / "rep_bad"]
    generate = ["generate", "--unitized", root / "units.jsonl", "--graphs", root / "graphs",
                "--out", root / "gen_bad"]
    if kind == "summary":
        return root / "gen" / "set1.summary.json", analyze
    if kind == "vocabulary":
        return root / "gen" / "vocab.json", analyze
    if kind == "graph":
        return root / "graphs" / "set1.graph.json", generate + GEN_FLAGS
    if kind == "weights":
        wpath = small_weights_file(root, ao.read_unitized(root / "units.jsonl"))
        return wpath, generate + ["--weights", wpath, "--beam-size", "2", "--max-len", "5"]
    report = root / "rep" / "report.json"
    return report, ["heatmap", "--report", report, "--out", root / "bad.svg"]


@pytest.mark.parametrize("kind", ["summary", "graph", "weights", "vocabulary", "report"])
def test_truncated_json_file_gives_one_error_naming_it_once(tmp_path, capsys, kind):
    run_pipeline(tmp_path)
    path, argv = json_file_and_reader(tmp_path, kind)
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
    capsys.readouterr()
    assert main([str(a) for a in argv]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert lines[0].count(str(path)) == 1 and f"malformed {kind}" in lines[0]
    if kind == "summary":
        assert lines[0].startswith("error: set 'set1': ")
    assert not Path(argv[-1]).exists()


def replace_json(change):
    def write(path):
        obj = json.loads(path.read_text())
        change(obj)
        path.write_text(json.dumps(obj))
    return write


READ_RULE_WHAT = {"summary": "summary file", "graph": "graph file", "weights": "weights file",
                  "vocabulary": "vocabulary"}
# Faults of any JSON file, each worded "<path>: malformed <what>: <the parser's message>".
READ_RULE_DECODING = {
    "utf8": lambda path: path.write_bytes(b'{"set_id": "\xff"}'),
    "json": lambda path: path.write_text('{"size": 1,'),
    "nesting": lambda path: path.write_text("[" * 100_000),
}
# Schema faults and the error after "<path>: "; a vocabulary is a list, so it has no keys.
READ_RULE_SCHEMA = {
    ("summary", "missing-key"): (replace_json(lambda obj: obj.pop("beam_trace")),
                                 "summary file missing key 'beam_trace'"),
    ("graph", "missing-key"): (replace_json(lambda obj: obj.pop("weights")),
                               "graph file missing key 'weights'"),
    ("weights", "missing-key"): (replace_json(lambda obj: obj.pop("vocab")),
                                 "weights file missing key 'vocab'"),
    ("summary", "wrong-type"): (replace_json(lambda obj: obj.update(tokens="abc")),
                                "malformed summary file: tokens must be a list"),
    ("graph", "wrong-type"): (replace_json(lambda obj: obj.update(size="6")),
                              "malformed graph file: graph size must be an integer, not '6'"),
    ("weights", "wrong-type"): (
        replace_json(lambda obj: obj["config"].update(num_layers="1")),
        "malformed weights file: config num_layers must be an integer, not '1'"),
    ("vocabulary", "wrong-type"): (lambda path: path.write_text('{"0": "<pad>"}'),
                                   "malformed vocabulary: vocab must be a list of distinct "
                                   "strings"),
}


@pytest.mark.parametrize("kind, fault", [(kind, fault) for kind in READ_RULE_WHAT
                                         for fault in READ_RULE_DECODING]
                         + list(READ_RULE_SCHEMA))
def test_every_json_file_follows_the_one_reading_rule(shared_run, tmp_path, capsys, kind,
                                                      fault):
    """Each bad JSON file gives exit 1 and one ``error:`` line holding its path once:
    ``<path>: <what> missing key '<key>'`` for a missing key and
    ``<path>: malformed <what>: ...`` for every other fault."""
    write, tail = READ_RULE_SCHEMA.get((kind, fault), (READ_RULE_DECODING.get(fault), None))
    root = tmp_path / "run"
    shutil.copytree(shared_run, root)
    path, argv = json_file_and_reader(root, kind)
    write(path)
    capsys.readouterr()
    assert main([str(a) for a in argv]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].count(str(path)) == 1, lines
    head = f"error: set 'set1': {path}: " if kind == "summary" else f"error: {path}: "
    if tail is None:
        assert lines[0].startswith(f"{head}malformed {READ_RULE_WHAT[kind]}: "), lines
    else:
        assert lines == [head + tail]
    assert not Path(argv[-1]).exists()


def test_heatmap_schema_error_names_the_report(tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_text('{"layers": []}\n')
    assert main(["heatmap", "--report", str(path), "--out", str(tmp_path / "h.svg")]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines == [f"error: {path}: report contains no posbias block"]


def test_analyze_requires_the_vocabulary_file(tmp_path, capsys):
    run_pipeline(tmp_path)
    gen, awd = tmp_path / "gen", tmp_path / "awd"
    awd.mkdir()
    for path in gen.glob("*.awd"):
        path.rename(awd / path.name)
    vocab = (gen / "vocab.json").read_bytes()
    (gen / "vocab.json").unlink()
    rep = tmp_path / "rep_novocab"
    argv = ["analyze", "--awd", str(awd), "--summaries", str(gen),
            "--unitized", str(tmp_path / "units.jsonl"), "--out", str(rep)]
    capsys.readouterr()
    assert main(argv) == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines == [f"error: no vocab.json in {awd} or {gen}"]
    assert not rep.exists()
    (awd / "vocab.json").write_bytes(vocab)  # read from --awd as well as from --summaries
    assert main(argv) == 0
    assert (rep / "report.json").read_bytes() == (tmp_path / "rep" / "report.json").read_bytes()


def renamed_sets(units, set_ids):
    """Rewrite the unitized file so its sets carry ``set_ids``."""
    lines = []
    for line, set_id in zip(units.read_text().splitlines(), set_ids):
        obj = json.loads(line)
        obj["set_id"] = set_id
        lines.append(json.dumps(obj))
    units.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("stage", ["preprocess", "graph", "generate", "analyze"])
@pytest.mark.parametrize("set_ids", [("s1", "s1"), ("s 1", "s_1")], ids=["equal", "same-stem"])
def test_stage_rejects_set_ids_sharing_a_file_name(tmp_path, capsys, stage, set_ids):
    run_pipeline(tmp_path)
    units = tmp_path / "units.jsonl"
    out = tmp_path / "out_bad"
    argv = {
        "graph": ["graph", "--unitized", units, "--out", out],
        "generate": ["generate", "--unitized", units, "--graphs", tmp_path / "graphs",
                     "--out", out, *GEN_FLAGS],
        "analyze": ["analyze", "--awd", tmp_path / "gen", "--summaries", tmp_path / "gen",
                    "--unitized", units, "--out", out],
    }.get(stage)
    if stage == "preprocess":
        corpus = tmp_path / "corpus.jsonl"
        renamed_sets(corpus, set_ids)
        argv = ["preprocess", "--corpus", corpus, "--out", out / "units.jsonl"]
    else:
        renamed_sets(units, set_ids)
    capsys.readouterr()
    assert main([str(a) for a in argv]) == 1
    lines = capsys.readouterr().err.splitlines()
    first, second = set_ids
    stem = second.replace(" ", "_")
    assert lines == [f"error: sets {first!r} and {second!r} share the file name stem {stem!r}"]
    assert not out.exists()


def test_preprocess_creates_the_output_directory(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    write_corpus(corpus, num_sets=1)
    out = tmp_path / "new" / "dir" / "units.jsonl"
    assert main(["preprocess", "--corpus", str(corpus), "--out", str(out)]) == 0
    assert [r.set_id for r in ao.read_unitized(out)] == ["set0"]


# ---------------------------------------------------------------------------
# degeneracy warnings and known-answer coefficients
# ---------------------------------------------------------------------------

def analyze_planted(run, out, flags=()):
    return main(["analyze", "--awd", str(run.gen), "--summaries", str(run.gen),
                 "--unitized", str(run.units), "--out", str(out), *flags])


def test_degenerate_run_warns_once_per_stage(tmp_path, capsys):
    # The seed-11 model decodes both summaries to five words without an end marker.
    units = graphs_only(tmp_path)
    gen = tmp_path / "gen"
    capsys.readouterr()
    assert main(["generate", "--unitized", str(units), "--graphs", str(tmp_path / "graphs"),
                 "--out", str(gen)] + GEN_FLAGS) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("generated=2 ")
    assert captured.err.splitlines() == ["warning: 2 of 2 summaries reached max_len 5 without <eos>"]
    assert main(["analyze", "--awd", str(gen), "--summaries", str(gen),
                 "--unitized", str(units), "--out", str(tmp_path / "rep")]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("sets=2 cells=")
    assert captured.err.splitlines() == [
        "warning: 2 of 2 summaries have at most one sentence (no <eoss> splits them)"]


def test_scripted_run_with_end_markers_does_not_warn(tmp_path, capsys):
    units = graphs_only(tmp_path)
    records = ao.read_unitized(units)
    vocab = build_vocab(t for r in records for u in r.unitized.units for t in u.tokens)
    cfg = ao.ModelConfig(d_model=32, num_layers=2, num_heads=2, vocab_size=len(vocab),
                         num_units=6, max_len=8)
    script = [vocab.index(w) for w in ["alpha000", "gamma", EOS_SENT_TOKEN, "beta000",
                                       EOS_SENT_TOKEN, EOS_TOKEN]]
    wpath = tmp_path / "weights.json"
    ao.write_weights(ao.make_concentrator_weights(cfg, target=0, vocab=vocab,
                                                  token_script=script), wpath)
    gen = tmp_path / "gen"
    capsys.readouterr()
    assert main(["generate", "--unitized", str(units), "--graphs", str(tmp_path / "graphs"),
                 "--out", str(gen), "--weights", str(wpath), "--beam-size", "2"]) == 0
    assert json.loads((gen / "set0.summary.json").read_text())["tokens"] == script
    assert main(["analyze", "--awd", str(gen), "--summaries", str(gen),
                 "--unitized", str(units), "--out", str(tmp_path / "rep")]) == 0
    assert capsys.readouterr().err == ""


def test_planted_origin_coefficients_match_independent_cells(tmp_path, planted_run, capsys):
    capsys.readouterr()
    assert analyze_planted(planted_run, tmp_path / "rep") == 0
    assert capsys.readouterr().err == ""
    report = json.loads((tmp_path / "rep" / "report.json").read_text())
    assert report["sample_count"] == len(planted_run.f1)
    r1 = [row["r1"] for row in report["layers"]]
    assert len(r1) == len(PLANTED_MIX)
    for layer, got in enumerate(r1):
        expected = np.corrcoef(planted_run.cells[:, layer], planted_run.f1)[0, 1]
        assert abs(got - expected) <= 1e-12
    assert all(a < b for a, b in zip(r1, r1[1:]))  # rises with the planted share
    assert abs(r1[0]) < 0.3 and r1[-1] > 0.7  # pure noise, then mostly reference


def test_planted_origin_reruns_are_byte_identical(tmp_path, planted_run):
    assert analyze_planted(planted_run, tmp_path / "rep1") == 0
    assert analyze_planted(planted_run, tmp_path / "rep2") == 0
    assert tree_digest(tmp_path / "rep1") == tree_digest(tmp_path / "rep2")
    report = json.loads((tmp_path / "rep1" / "report.json").read_text())
    assert all(row[v] is not None for row in report["layers"] for v in ("r1", "r2", "rl"))


def planted_r1(report):
    return [row["r1"] for row in report["layers"]]


def assert_planted_cells(report, cells, f1):
    """The report's sample count and layer ``r1`` are those of the given cells."""
    assert report["sample_count"] == len(f1)
    for layer, got in enumerate(planted_r1(report)):
        assert abs(got - np.corrcoef(cells[:, layer], f1)[0, 1]) <= 1e-12


def test_analyze_drops_a_final_eos_span(tmp_path, planted_run, capsys):
    capsys.readouterr()
    assert analyze_planted(planted_run, tmp_path / "rep") == 0
    plain = capsys.readouterr().out.replace(str(tmp_path / "rep"), "REP")
    eos = json.loads((planted_run.gen / "vocab.json").read_text()).index(EOS_TOKEN)
    for spath in planted_run.gen.glob("*.summary.json"):
        obj = json.loads(spath.read_text())
        obj["tokens"].append(eos)  # the tensor already holds the extra step
        spath.write_text(json.dumps(obj))
    assert analyze_planted(planted_run, tmp_path / "rep_eos") == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.replace(str(tmp_path / "rep_eos"), "REP") == plain
    assert tree_digest(tmp_path / "rep_eos") == tree_digest(tmp_path / "rep")


def test_analyze_drops_a_repeated_eoss_mid_summary(tmp_path, capsys):
    run = write_planted_run(tmp_path / "planted", doubled=True)
    tokens = json.loads((run.gen / "p0.summary.json").read_text())["tokens"]
    eoss = json.loads((run.gen / "vocab.json").read_text()).index(EOS_SENT_TOKEN)
    assert tokens.count(eoss) == 4 and tokens[-1] == eoss  # 3 sentences, one marker doubled
    capsys.readouterr()
    assert analyze_planted(run, tmp_path / "rep") == 0
    assert capsys.readouterr().err == ""
    report = json.loads((tmp_path / "rep" / "report.json").read_text())
    assert_planted_cells(report, run.cells, run.f1)
    assert {len(row) for row in report["posbias"]["counts"]} == {3}  # one column per sentence


def test_analyze_lone_eos_summary_has_no_sentence(tmp_path, planted_run):
    spath = planted_run.gen / "p0.summary.json"
    obj = json.loads(spath.read_text())
    obj["tokens"] = [json.loads((planted_run.gen / "vocab.json").read_text()).index(EOS_TOKEN)]
    spath.write_text(json.dumps(obj))
    assert analyze_planted(planted_run, tmp_path / "rep") == 0
    report = json.loads((tmp_path / "rep" / "report.json").read_text())
    per_set = len(planted_run.f1) // 4  # four sets of equal size, p0 first
    assert_planted_cells(report, planted_run.cells[per_set:], planted_run.f1[per_set:])
