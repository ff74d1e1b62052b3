"""End-to-end CLI tests: pipeline wiring, determinism, option layering."""

import hashlib
import json

import numpy as np
import pytest

import attnorigin as ao
from attnorigin.cli.main import main
from attnorigin.graphattn import build_vocab


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


def run_pipeline(root, seed="11"):
    root.mkdir(parents=True, exist_ok=True)
    corpus = root / "corpus.jsonl"
    write_corpus(corpus)
    units = root / "units.jsonl"
    graphs = root / "graphs"
    gen = root / "gen"
    rep = root / "rep"
    svg = root / "heat.svg"
    flags = list(GEN_FLAGS)
    flags[1] = seed
    assert main(["preprocess", "--corpus", str(corpus), "--out", str(units),
                 "--units", "6", "--tokens", "10"]) == 0
    assert main(["graph", "--unitized", str(units), "--out", str(graphs)]) == 0
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


def test_generate_workers_deterministic(tmp_path):
    run_pipeline(tmp_path)
    units = tmp_path / "units.jsonl"
    outs = []
    for name, workers in (("w1", "1"), ("w2", "3")):
        gen = tmp_path / name
        assert main(["generate", "--unitized", str(units), "--graphs", str(tmp_path / "graphs"),
                     "--out", str(gen), "--workers", workers] + GEN_FLAGS) == 0
        outs.append(tree_digest(gen))
    assert outs[0] == outs[1]


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


def test_analyze_limit(tmp_path, capsys):
    run_pipeline(tmp_path)
    rep = tmp_path / "rep_lim"
    assert main(["analyze", "--awd", str(tmp_path / "gen"), "--summaries", str(tmp_path / "gen"),
                 "--unitized", str(tmp_path / "units.jsonl"), "--out", str(rep),
                 "--limit", "1"]) == 0
    assert "sets=1" in capsys.readouterr().out


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
