"""Command-line pipeline: preprocess, graph, generate, analyze, heatmap.

Every flag can also come from an environment variable (prefix
``ATTNORIGIN_``, flag name upper-cased with underscores) or from a flat
key=value config file passed as ``--config``; explicit flags win over
the environment, which wins over the file. Unknown config keys are
rejected before any output is written.

Diagnostics go to stderr, data to files or stdout. Reruns with
identical inputs and seed produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import json
import os
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from .. import awd as awdmod
from .. import graphattn, origin, rouge, simgraph, textunits
from . import heatmap as heatmapmod
from . import report as reportmod

ENV_PREFIX = "ATTNORIGIN_"

_SAFE_ID = re.compile(r"[^A-Za-z0-9._-]")


def _safe_name(set_id: str) -> str:
    return _SAFE_ID.sub("_", set_id)


def graph_path(directory: Path, set_id: str) -> Path:
    return directory / f"{_safe_name(set_id)}.graph.json"


def summary_path(directory: Path, set_id: str) -> Path:
    return directory / f"{_safe_name(set_id)}.summary.json"


def awd_path(directory: Path, set_id: str) -> Path:
    return directory / f"{_safe_name(set_id)}.awd"


def vocab_path(directory: Path) -> Path:
    return directory / "vocab.json"


class CliError(Exception):
    pass


@dataclass(frozen=True)
class Option:
    name: str  # underscore form; flag is --name-with-dashes
    type: Callable[[str], Any]
    default: Any = None
    required: bool = False
    help: str = ""
    choices: tuple | None = None


_COMMON = [Option("config", str, help="flat key=value option file")]

OPTIONS: dict[str, list[Option]] = {
    "preprocess": _COMMON + [
        Option("corpus", str, required=True, help="input corpus (JSON lines)"),
        Option("out", str, required=True, help="output unitized file (JSON lines)"),
        Option("mode", str, default="paragraph", choices=("paragraph", "sentence")),
        Option("units", int, help="textual units per set (default 30 paragraph / 60 sentence)"),
        Option("tokens", int, help="tokens per unit (default 60 paragraph / 30 sentence)"),
    ],
    "graph": _COMMON + [
        Option("unitized", str, required=True),
        Option("out", str, required=True, help="output directory for per-set graph files"),
        Option("tau", float, default=0.0, help="similarity threshold; edges below are dropped"),
    ],
    "generate": _COMMON + [
        Option("unitized", str, required=True),
        Option("graphs", str, required=True, help="directory of per-set graph files"),
        Option("out", str, required=True, help="output directory for summary files"),
        Option("weights", str, help="weights file (mutually exclusive with --seed)"),
        Option("seed", int, help="seed for synthetic weights"),
        Option("record_awd", str, help="directory for attention tensors (default: --out)"),
        Option("beam_size", int, default=4),
        Option("max_len", int, help="generation horizon (default: model max_len)"),
        Option("length_penalty", float, default=0.6),
        Option("sigma", float, help="graph-shift scale (default 1.0 or model value)"),
        Option("d_model", int, default=64),
        Option("num_layers", int, default=8),
        Option("num_heads", int, default=8),
        Option("shift_form", str, default=graphattn.SHIFT_SIM_SQUARED,
               choices=graphattn.SHIFT_FORMS),
        Option("model_max_len", int, default=32, help="position budget for synthetic weights"),
        Option("limit", int, help="process only the first N sets"),
        Option("workers", int, default=1, help="bounded worker pool size"),
    ],
    "analyze": _COMMON + [
        Option("awd", str, required=True, help="directory of attention tensor files"),
        Option("summaries", str, required=True, help="directory of summary files"),
        Option("unitized", str, required=True),
        Option("out", str, required=True, help="output directory for report files"),
        Option("layers", str, default="all", help="comma list of 1-based layers, or 'all'"),
        Option("variant", str, default="all", choices=("all", "r1", "r2", "rl")),
        Option("aggregation", str, default="mean", choices=("mean", "median")),
        Option("posbias_layer", int, help="1-based layer for the heatmap (default: last)"),
        Option("format", str, default="json,csv", help="comma subset of {json,csv}"),
        Option("limit", int),
    ],
    "heatmap": _COMMON + [
        Option("report", str, required=True, help="report JSON with a posbias block"),
        Option("out", str, required=True, help="output SVG path"),
    ],
}


def _read_config_file(path: str, allowed: set[str]) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot read config file: {exc}")
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise CliError(f"{path}:{lineno}: expected key=value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in allowed:
            raise CliError(f"{path}:{lineno}: unknown option {key!r}")
        values[key] = value.strip()
    return values


def resolve_options(command: str, args: argparse.Namespace) -> dict[str, Any]:
    """Layer CLI > environment > config file > defaults; validate presence.

    Option names the user actually provided (by any of the three
    channels) are collected under the ``_explicit`` key.
    """
    specs = OPTIONS[command]
    allowed = {spec.name for spec in specs}
    file_values: dict[str, str] = {}
    config_path = getattr(args, "config", None) or os.environ.get(ENV_PREFIX + "CONFIG")
    if config_path:
        file_values = _read_config_file(config_path, allowed)
    resolved: dict[str, Any] = {}
    explicit: set[str] = set()
    for spec in specs:
        value = getattr(args, spec.name)
        if value is None:
            env_key = ENV_PREFIX + spec.name.upper()
            if env_key in os.environ:
                value = os.environ[env_key]
            elif spec.name in file_values:
                value = file_values[spec.name]
        if value is None:
            value = spec.default
        else:
            explicit.add(spec.name)
            if isinstance(value, str) and spec.type is not str:
                try:
                    value = spec.type(value)
                except ValueError:
                    raise CliError(f"option {spec.name!r}: cannot parse {value!r}")
        if value is None and spec.required:
            raise CliError(f"missing required option --{spec.name.replace('_', '-')}")
        if value is not None and spec.choices and value not in spec.choices:
            raise CliError(f"option {spec.name!r} must be one of {spec.choices}")
        resolved[spec.name] = value
    resolved["_explicit"] = explicit
    return resolved


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_preprocess(opts: dict[str, Any]) -> int:
    mode = opts["mode"]
    default_L, default_T = textunits.DEFAULT_SHAPES[mode]
    L = opts["units"] if opts["units"] is not None else default_L
    T = opts["tokens"] if opts["tokens"] is not None else default_T
    if L < 1 or T < 1:
        raise CliError("--units and --tokens must be >= 1")
    sets = textunits.read_corpus(opts["corpus"])
    records = []
    total_units = 0
    total_pads = 0
    for docset in sets:
        unitized = textunits.unitize(docset, mode, L, T)
        records.append(
            textunits.UnitizedRecord(
                set_id=docset.set_id, unitized=unitized, gold_summary=docset.gold_summary
            )
        )
        total_units += unitized.num_real_units
        total_pads += L - unitized.num_real_units
    textunits.write_unitized(records, opts["out"])
    print(
        f"sets={len(records)} mode={mode} L={L} T={T} "
        f"units={total_units} pad_units={total_pads}"
    )
    return 0


def cmd_graph(opts: dict[str, Any]) -> int:
    tau = opts["tau"]
    if not 0.0 <= tau < 1.0:
        raise CliError("--tau must be in [0, 1)")
    records = textunits.read_unitized(opts["unitized"])
    out_dir = Path(opts["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    for record in records:
        graph = simgraph.build_graph(record.unitized, threshold=tau)
        simgraph.write_graph(graph, graph_path(out_dir, record.set_id))
    print(f"graphs={len(records)} tau={tau} out={out_dir}")
    return 0


def _derive_vocab(records: list[textunits.UnitizedRecord]) -> list[str]:
    tokens: set[str] = set()
    for record in records:
        for unit in record.unitized.units:
            tokens.update(unit.tokens)
    return graphattn.build_vocab(tokens)


def cmd_generate(opts: dict[str, Any]) -> int:
    if (opts["weights"] is None) == (opts["seed"] is None):
        raise CliError("exactly one of --weights or --seed is required")
    records = textunits.read_unitized(opts["unitized"])
    if opts["limit"] is not None:
        records = records[: opts["limit"]]
    if not records:
        raise CliError("no sets to generate for")
    workers = opts["workers"]
    if workers < 1:
        raise CliError("--workers must be >= 1")

    if opts["weights"] is not None:
        weights = graphattn.read_weights(opts["weights"])
        overrides = {}
        if "sigma" in opts["_explicit"]:
            overrides["sigma"] = opts["sigma"]
        if "shift_form" in opts["_explicit"]:
            overrides["shift_form"] = opts["shift_form"]
        if overrides:
            weights.config = dataclasses.replace(weights.config, **overrides)
            weights.validate()
    else:
        vocab = _derive_vocab(records)
        max_units = max(record.unitized.L for record in records)
        config = graphattn.ModelConfig(
            d_model=opts["d_model"],
            num_layers=opts["num_layers"],
            num_heads=opts["num_heads"],
            sigma=opts["sigma"] if opts["sigma"] is not None else 1.0,
            vocab_size=len(vocab),
            num_units=max_units,
            max_len=opts["model_max_len"],
            shift_form=opts["shift_form"],
        )
        weights = graphattn.make_synthetic_weights(opts["seed"], config, vocab=vocab)

    gen = graphattn.GenerationConfig(
        beam_size=opts["beam_size"],
        max_len=opts["max_len"],
        length_penalty=opts["length_penalty"],
    )
    if gen.beam_size < 1:
        raise CliError("--beam-size must be >= 1")

    graphs_dir = Path(opts["graphs"])
    out_dir = Path(opts["out"])
    awd_dir = Path(opts["record_awd"]) if opts["record_awd"] else out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    awd_dir.mkdir(parents=True, exist_ok=True)

    def run_one(record: textunits.UnitizedRecord) -> int:
        gpath = graph_path(graphs_dir, record.set_id)
        if not gpath.exists():
            raise CliError(f"missing graph file for set {record.set_id!r}: {gpath}")
        graph = simgraph.read_graph(gpath)
        result = graphattn.generate_with_beam(record.unitized, weights, graph, gen)
        awdmod.write_summary(
            awdmod.SummaryRecord(
                set_id=record.set_id,
                tokens=result.tokens,
                beam_trace=result.beam_trace,
                winning_beam=result.winning_beam,
            ),
            summary_path(out_dir, record.set_id),
        )
        awdmod.write_awd(result.awd, awd_path(awd_dir, record.set_id))
        return len(result.tokens)

    if workers == 1:
        lengths = [run_one(record) for record in records]
    else:
        with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
            lengths = list(pool.map(run_one, records))

    with open(vocab_path(out_dir), "w", encoding="utf-8") as fh:
        json.dump(weights.vocab, fh)
        fh.write("\n")
    print(
        f"generated={len(records)} beam_size={gen.beam_size} "
        f"tokens={sum(lengths)} out={out_dir}"
    )
    return 0


def _parse_layers(raw: str, num_layers: int) -> list[int] | None:
    if raw == "all":
        return None
    try:
        selected = sorted({int(part) for part in raw.split(",") if part.strip()})
    except ValueError:
        raise CliError(f"--layers must be 'all' or a comma list of integers, got {raw!r}")
    for layer in selected:
        if not 1 <= layer <= num_layers:
            raise CliError(f"--layers entry {layer} outside [1, {num_layers}]")
    return [layer - 1 for layer in selected]


def cmd_analyze(opts: dict[str, Any]) -> int:
    formats = {part.strip() for part in opts["format"].split(",") if part.strip()}
    if not formats or not formats <= {"json", "csv"}:
        raise CliError("--format must be a comma subset of {json,csv}")
    records = textunits.read_unitized(opts["unitized"])
    if opts["limit"] is not None:
        records = records[: opts["limit"]]
    if not records:
        raise CliError("no sets to analyze")

    awd_dir = Path(opts["awd"])
    summaries_dir = Path(opts["summaries"])
    vpath = vocab_path(awd_dir)
    if not vpath.exists():
        vpath = vocab_path(summaries_dir)
    if vpath.exists():
        with open(vpath, encoding="utf-8") as fh:
            vocab = json.load(fh)
    else:
        vocab = _derive_vocab(records)
    special_ids = {
        i for i, tok in enumerate(vocab) if tok in graphattn.SPECIAL_TOKENS
    }
    try:
        eoss_id = vocab.index(graphattn.EOS_SENT_TOKEN)
    except ValueError:
        raise CliError(f"vocabulary lacks the {graphattn.EOS_SENT_TOKEN!r} marker")

    batch = []
    summaries = []
    for record in records:
        spath = summary_path(summaries_dir, record.set_id)
        apath = awd_path(awd_dir, record.set_id)
        if not spath.exists() or not apath.exists():
            raise CliError(f"missing summary or tensor file for set {record.set_id!r}")
        summary = awdmod.read_summary(spath)
        summaries.append(summary)
        if summary.set_id != record.set_id:
            raise CliError(
                f"set_id mismatch: file {spath} holds {summary.set_id!r}, "
                f"expected {record.set_id!r}"
            )
        bad = [t for t in summary.tokens if not 0 <= t < len(vocab)]
        if bad:
            raise CliError(
                f"set {record.set_id!r}: token id {bad[0]} outside the vocabulary "
                f"of size {len(vocab)}"
            )
        tensor = awdmod.read_awd(apath)
        aligned = awdmod.beam_decode_awd(
            tensor, summary.beam_trace, summary.winning_beam, length=len(summary.tokens)
        )
        spans = awdmod.split_summary_sentences(summary.tokens, eoss_id)
        sent_awd = awdmod.aggregate_to_sentences(aligned, spans, method=opts["aggregation"])
        sentences = [
            [vocab[t] for t in summary.tokens[a:b] if t not in special_ids]
            for a, b in spans
        ]
        metric = origin.reference_metric(sentences, record.unitized)
        batch.append(
            origin.SummaryAnalysis(
                set_id=record.set_id,
                sent_awd=sent_awd,
                origin=metric,
                unit_pad=record.unitized.unit_pad,
                doc_positions=origin.doc_positions_from_boundaries(
                    record.unitized.doc_boundaries, record.unitized.L
                ),
            )
        )

    num_layers = batch[0].sent_awd.dims[1]
    layers = _parse_layers(opts["layers"], num_layers)
    posbias_layer = None
    if opts["posbias_layer"] is not None:
        if not 1 <= opts["posbias_layer"] <= num_layers:
            raise CliError(f"--posbias-layer outside [1, {num_layers}]")
        posbias_layer = opts["posbias_layer"] - 1
    variants = origin.VARIANTS if opts["variant"] == "all" else (opts["variant"],)

    boundaries_ok = all(a.doc_positions is not None for a in batch)
    if not boundaries_ok:
        print(
            "positional bias skipped: input lacks unit-to-document correspondence",
            file=sys.stderr,
        )
    report = origin.build_report(
        batch,
        variants=variants,
        layers=layers,
        posbias_layer=posbias_layer,
        include_posbias=boundaries_ok,
    )

    out_dir = Path(opts["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    if "json" in formats:
        path = out_dir / "report.json"
        reportmod.write_report_json(report, path)
        written.append(str(path))
    if "csv" in formats:
        path = out_dir / "report.csv"
        reportmod.write_report_csv(report, path)
        written.append(str(path))
    print(f"sets={len(batch)} cells={report.sample_count} wrote={','.join(written)}")

    # summary quality against gold summaries, when the corpus carries them
    golds = []
    for record, summary in zip(records, summaries):
        if record.gold_summary:
            text = " ".join(
                vocab[t] for t in summary.tokens if t not in special_ids
            )
            golds.append(rouge.evaluate_summary(text, record.gold_summary))
    if golds:
        mean_f = [
            sum(getattr(t, v).f1 for t in golds) / len(golds) for v in origin.VARIANTS
        ]
        print(f"rouge_f={reportmod.rouge_f_row(*mean_f)} gold_sets={len(golds)}")
    return 0


def cmd_heatmap(opts: dict[str, Any]) -> int:
    report = reportmod.read_report_json(opts["report"])
    svg = heatmapmod.heatmap_from_report(report)
    out = Path(opts["out"])
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(svg, encoding="utf-8")
    print(f"wrote={out}")
    return 0


COMMANDS = {
    "preprocess": cmd_preprocess,
    "graph": cmd_graph,
    "generate": cmd_generate,
    "analyze": cmd_analyze,
    "heatmap": cmd_heatmap,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="attnorigin",
        description="Attention-based source-origin analysis pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, specs in OPTIONS.items():
        cmd_parser = sub.add_parser(command)
        for spec in specs:
            cmd_parser.add_argument(
                f"--{spec.name.replace('_', '-')}",
                dest=spec.name,
                default=None,
                help=spec.help or None,
            )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        opts = resolve_options(args.command, args)
        return COMMANDS[args.command](opts)
    except (CliError, textunits.CorpusFormatError, awdmod.AwdFormatError,
            awdmod.BeamTraceError, heatmapmod.MissingPosBiasError,
            graphattn.VocabularyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
