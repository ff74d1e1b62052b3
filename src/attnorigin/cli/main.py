"""Command-line pipeline: preprocess, graph, generate, analyze, heatmap.

Every flag can also come from an environment variable (prefix
``ATTNORIGIN_``, flag name upper-cased with underscores) or from a flat
key=value config file passed as ``--config``; explicit flags win over
the environment, which wins over the file. Unknown config keys are
rejected before any output is written. An option that no channel sets
is not passed on, so the library's default applies.

Diagnostics go to stderr, data to files or stdout. Reruns with
identical inputs and seed produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .. import awd as awdmod
from .. import graphattn, origin, simgraph, textunits
from . import heatmap as heatmapmod
from . import report as reportmod

ENV_PREFIX = "ATTNORIGIN_"

# Largest deviation from a probability vector that analyze accepts in an
# attention slice: its sum's distance from 1, and its mass on pad units.
SIMPLEX_TOLERANCE = 1e-5

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


def _check_file_stems(set_ids) -> None:
    """Reject two set ids that would share per-set file names."""
    stems: dict[str, str] = {}
    for set_id in set_ids:
        stem = _safe_name(set_id)
        if stem in stems:
            raise ValueError(
                f"sets {stems[stem]!r} and {set_id!r} share the file name stem {stem!r}"
            )
        stems[stem] = set_id


def _read_unitized(path: str, limit: int | None = None) -> list[textunits.UnitizedRecord]:
    """The unitized sets, only the first ``limit`` if given, with distinct file stems."""
    if limit is not None and limit < 1:
        raise ValueError(f"--limit must be >= 1, got {limit}")
    records = textunits.read_unitized(path)[:limit]
    _check_file_stems(record.set_id for record in records)
    return records


@dataclass(frozen=True)
class Option:
    name: str  # underscore form; flag is --name-with-dashes
    type: Callable[[str], Any]
    default: Any = None
    required: bool = False
    help: str = ""
    choices: tuple | None = None


# --d-model of --seed runs. ModelConfig has no d_model default, so a
# weights file without one is rejected instead of read as this size.
SEED_D_MODEL = 64

# Library defaults, quoted in --help; unset options are not passed on.
_MODEL, _GEN = graphattn.ModelConfig, graphattn.GenerationConfig

# Options that set a library parameter: option name -> parameter name.
_MODEL_PARAMS = {"d_model": "d_model", "num_layers": "num_layers", "num_heads": "num_heads",
                 "model_max_len": "max_len", "sigma": "sigma", "shift_form": "shift_form"}
_GEN_PARAMS = {"beam_size": "beam_size", "max_len": "max_len", "length_penalty": "length_penalty"}
# Model options that size synthetic weights; a weights file fixes these.
_SIZE_OPTIONS = ("d_model", "num_layers", "num_heads", "model_max_len")

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
        Option("beam_size", int, help=f"beams per step (default {_GEN.beam_size})"),
        Option("max_len", int, help="generation horizon (default: model max_len)"),
        Option("length_penalty", float,
               help=f"length penalty exponent (default {_GEN.length_penalty})"),
        Option("sigma", float, help=f"graph-shift scale (default {_MODEL.sigma} or model value)"),
        Option("d_model", int, help=f"synthetic weights only (default {SEED_D_MODEL})"),
        Option("num_layers", int, help=f"synthetic weights only (default {_MODEL.num_layers})"),
        Option("num_heads", int, help=f"synthetic weights only (default {_MODEL.num_heads})"),
        Option("shift_form", str, choices=graphattn.SHIFT_FORMS,
               help=f"graph-shift penalty (default {_MODEL.shift_form} or model value)"),
        Option("model_max_len", int, help=f"synthetic weights only (default {_MODEL.max_len})"),
        Option("limit", int, help="process only the first N sets"),
        Option("workers", int, default=1, choices=(1,), help="sets run serially; only 1"),
    ],
    "analyze": _COMMON + [
        Option("awd", str, required=True, help="directory of attention tensor files"),
        Option("summaries", str, required=True, help="directory of summary files"),
        Option("unitized", str, required=True),
        Option("out", str, required=True, help="output directory for report files"),
        Option("layers", str, default="all", help="comma list of 1-based layers, or 'all'"),
        Option("variant", str, default="all", choices=("all", "r1", "r2", "rl")),
        Option("aggregation", str, choices=(awdmod.AGGREGATION_MEAN, awdmod.AGGREGATION_MEDIAN),
               help=f"sentence pooling (default {awdmod.AGGREGATION_MEAN})"),
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
        raise ValueError(f"cannot read config file: {exc}")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: malformed config file: {exc}") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in allowed:
            raise ValueError(f"{path}:{lineno}: unknown option {key!r}")
        values[key] = value.strip()
    return values


def resolve_options(command: str, args: argparse.Namespace) -> dict[str, Any]:
    """Layer CLI > environment > config file > defaults; validate presence.

    An option that no channel sets and that has no CLI default is None.
    """
    specs = OPTIONS[command]
    file_values: dict[str, str] = {}
    config_path = getattr(args, "config", None) or os.environ.get(ENV_PREFIX + "CONFIG")
    if config_path:  # a config file cannot name another one
        file_values = _read_config_file(config_path, {spec.name for spec in specs} - {"config"})
    resolved: dict[str, Any] = {}
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
        elif isinstance(value, str) and spec.type is not str:
            try:
                value = spec.type(value)
            except ValueError:
                raise ValueError(f"option {spec.name!r}: cannot parse {value!r}")
        if value is None and spec.required:
            raise ValueError(f"missing required option --{spec.name.replace('_', '-')}")
        if value is not None and spec.choices and value not in spec.choices:
            raise ValueError(f"option {spec.name!r} must be one of {spec.choices}")
        resolved[spec.name] = value
    return resolved


def _given(opts: dict[str, Any], params: dict[str, str]) -> dict[str, Any]:
    """The options in ``params`` that were set, keyed by library parameter name."""
    return {param: opts[name] for name, param in params.items() if opts[name] is not None}


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_preprocess(opts: dict[str, Any]) -> int:
    mode = opts["mode"]
    default_L, default_T = textunits.DEFAULT_SHAPES[mode]
    L = opts["units"] if opts["units"] is not None else default_L
    T = opts["tokens"] if opts["tokens"] is not None else default_T
    if L < 1 or T < 1:
        raise ValueError("--units and --tokens must be >= 1")
    sets = textunits.read_corpus(opts["corpus"])
    _check_file_stems(docset.set_id for docset in sets)
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
    Path(opts["out"]).parent.mkdir(parents=True, exist_ok=True)
    textunits.write_unitized(records, opts["out"])
    print(
        f"sets={len(records)} mode={mode} L={L} T={T} "
        f"units={total_units} pad_units={total_pads}"
    )
    return 0


def cmd_graph(opts: dict[str, Any]) -> int:
    tau = opts["tau"]
    if not 0.0 <= tau < 1.0:
        raise ValueError("--tau must be in [0, 1)")
    records = _read_unitized(opts["unitized"])
    out_dir = Path(opts["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    for record in records:
        graph = simgraph.build_graph(record.unitized, threshold=tau)
        simgraph.write_graph(graph, graph_path(out_dir, record.set_id))
    print(f"graphs={len(records)} tau={tau} out={out_dir}")
    return 0


def _checked_graph(
    graphs_dir: Path, record: textunits.UnitizedRecord, weights: graphattn.DecoderWeights
) -> simgraph.SimilarityGraph:
    """Read one set's graph; check it and the set's units against the model."""
    inp = record.unitized
    if not inp.num_real_units:
        raise ValueError(f"set {record.set_id!r} has no units; no attention targets")
    unknown = weights.unknown_tokens(t for u in inp.units for t in u.tokens)
    if unknown:
        raise ValueError(
            f"set {record.set_id!r}: token {unknown[0]!r} not in the model vocabulary")
    positions = weights.pos_encoding.shape[0]
    if inp.num_real_units > positions:
        raise ValueError(
            f"set {record.set_id!r}: {inp.num_real_units} units exceed the model's "
            f"{positions} positions"
        )
    gpath = graph_path(graphs_dir, record.set_id)
    if not gpath.exists():
        raise ValueError(f"missing graph file for set {record.set_id!r}: {gpath}")
    graph = simgraph.read_graph(gpath)
    if graph.size != inp.L:
        raise ValueError(
            f"{gpath}: graph size {graph.size} != unit count {inp.L} of set {record.set_id!r}"
        )
    if not np.array_equal(graph.unit_pad, inp.unit_pad):
        unit = np.flatnonzero(graph.unit_pad != inp.unit_pad)[0]
        kind = "pad" if inp.unit_pad[unit] else "non-pad"
        raise ValueError(f"{gpath}: unit {unit} is a {kind} unit of set {record.set_id!r} "
                         f"but has graph diagonal {graph.weights[unit, unit]:g}")
    return graph


def cmd_generate(opts: dict[str, Any]) -> int:
    if (opts["weights"] is None) == (opts["seed"] is None):
        raise ValueError("exactly one of --weights or --seed is required")
    model = _given(opts, _MODEL_PARAMS)
    sized = [name for name in _SIZE_OPTIONS if opts[name] is not None]
    if opts["weights"] is not None and sized:
        raise ValueError(f"--{sized[0].replace('_', '-')} sizes synthetic weights only; "
                         "the --weights file fixes the model size")
    records = _read_unitized(opts["unitized"], opts["limit"])
    if not records:
        raise ValueError("no sets to generate for")

    if opts["weights"] is not None:
        weights = graphattn.read_weights(opts["weights"])
        missing = weights.unknown_tokens(graphattn.SPECIAL_TOKENS)
        if missing:
            raise ValueError(f"{opts['weights']}: token {missing[0]!r} not in the model "
                             "vocabulary")
        if model:  # --sigma and --shift-form override the file
            weights.config = dataclasses.replace(weights.config, **model)
            weights.validate()
    else:
        vocab = graphattn.build_vocab(
            t for record in records for unit in record.unitized.units for t in unit.tokens
        )
        config = graphattn.ModelConfig(
            **{"d_model": SEED_D_MODEL, **model}, vocab_size=len(vocab),
            num_units=max(record.unitized.L for record in records),
        )
        weights = graphattn.make_synthetic_weights(opts["seed"], config, vocab=vocab)

    gen = graphattn.GenerationConfig(**_given(opts, _GEN_PARAMS))
    # Every set's inputs are checked before the first output is written.
    max_steps = gen.steps(weights.config)
    graphs = [_checked_graph(Path(opts["graphs"]), record, weights) for record in records]
    out_dir = Path(opts["out"])
    out_dir.mkdir(parents=True, exist_ok=True)

    def recorder(i, dims):  # each set's tensor file is written while the set decodes
        return awdmod.open_recorder(awd_path(out_dir, records[i].set_id), dims)

    tokens = unfinished = 0
    results = graphattn.generate_sets([record.unitized for record in records], weights, graphs,
                                      gen, recorder)
    for record in records:
        try:
            result = next(results)
        except ValueError as exc:  # a non-finite decoder state carries its set's position
            if len(exc.args) != 2:
                raise
            raise ValueError(f"set {records[exc.args[1]].set_id!r}: {exc.args[0]}") from None
        summary = awdmod.SummaryRecord(record.set_id, result.tokens, result.beam_trace,
                                       result.winning_beam)
        awdmod.write_summary(summary, summary_path(out_dir, record.set_id))
        tokens += len(result.tokens)
        unfinished += weights.eos_id not in result.tokens

    textunits.write_json(weights.vocab, vocab_path(out_dir))
    if unfinished:
        print(f"warning: {unfinished} of {len(records)} summaries reached max_len {max_steps} "
              f"without {graphattn.EOS_TOKEN}", file=sys.stderr)
    print(f"generated={len(records)} beam_size={gen.beam_size} tokens={tokens} out={out_dir}")
    return 0


def _parse_layers(raw: str, num_layers: int) -> list[int] | None:
    if raw == "all":
        return None
    try:
        selected = sorted({int(part) for part in raw.split(",") if part.strip()})
    except ValueError:
        raise ValueError(f"--layers must be 'all' or a comma list of integers, got {raw!r}")
    if not selected:
        raise ValueError(f"--layers must name at least one layer, got {raw!r}")
    for layer in selected:
        if not 1 <= layer <= num_layers:
            raise ValueError(f"--layers entry {layer} outside [1, {num_layers}]")
    return [layer - 1 for layer in selected]


def _read_vocab(awd_dir: Path, summaries_dir: Path) -> list[str]:
    """The ``vocab.json`` that ``generate`` wrote, from either directory."""
    directories = list(dict.fromkeys([awd_dir, summaries_dir]))
    for directory in directories:
        path = vocab_path(directory)
        if path.exists():
            return textunits.read_json(path, "vocabulary", graphattn.check_vocab)
    raise ValueError(f"no vocab.json in {' or '.join(map(str, directories))}")


def _check_simplex(values: np.ndarray, unit_pad: np.ndarray) -> None:
    """Reject attention slices that are not distributions over the real units; sums
    are taken in float64, so a non-finite value shows as a non-finite row sum."""
    if 0 in values.shape[1:3]:
        raise ValueError(f"tensor has {values.shape[1]} layers and {values.shape[2]} heads; "
                         "need at least one of each")
    if values.shape[-1] != unit_pad.shape[0]:
        raise ValueError(
            f"tensor has {values.shape[-1]} units, unitized input has {unit_pad.shape[0]}"
        )
    sums = values.sum(axis=-1, dtype=np.float64)
    if not np.isfinite(sums).all():
        raise ValueError("non-finite attention values")
    if values.size == 0:
        return
    low = values.min()
    if low < 0.0:
        raise ValueError(f"negative attention value {low:.3g}")
    off = np.abs(sums - 1.0).max()
    if off > SIMPLEX_TOLERANCE:
        raise ValueError(f"attention sums {off:.3g} away from 1 (tolerance {SIMPLEX_TOLERANCE})")
    pad_mass = values[..., unit_pad].sum(axis=-1, dtype=np.float64).max()
    if pad_mass > SIMPLEX_TOLERANCE:
        raise ValueError(f"attention puts {pad_mass:.3g} mass on pad units")


def cmd_analyze(opts: dict[str, Any]) -> int:
    formats = {part.strip() for part in opts["format"].split(",") if part.strip()}
    if not formats or not formats <= {"json", "csv"}:
        raise ValueError("--format must be a comma subset of {json,csv}")
    records = _read_unitized(opts["unitized"], opts["limit"])
    if not records:
        raise ValueError("no sets to analyze")

    awd_dir = Path(opts["awd"])
    summaries_dir = Path(opts["summaries"])
    vocab = _read_vocab(awd_dir, summaries_dir)
    special_ids = {
        i for i, tok in enumerate(vocab) if tok in graphattn.SPECIAL_TOKENS
    }
    try:
        eoss_id = vocab.index(graphattn.EOS_SENT_TOKEN)
    except ValueError:
        raise ValueError(f"vocabulary lacks the {graphattn.EOS_SENT_TOKEN!r} marker")

    sets = []  # (record, attention, generated sentences, unit sentences) per set
    single = 0  # summaries of at most one sentence
    gold_summaries, gold_units = [], []  # one-sentence sets against one-sentence units
    for record in records:
        try:
            spath = summary_path(summaries_dir, record.set_id)
            summary = awdmod.read_summary(spath)
            if summary.set_id != record.set_id:
                raise ValueError(f"set_id mismatch: {spath} holds {summary.set_id!r}")
            bad = [t for t in summary.tokens if not 0 <= t < len(vocab)]
            if bad:
                raise ValueError(
                    f"token id {bad[0]} outside the vocabulary of size {len(vocab)}"
                )
            aligned = awdmod.read_winning_path(
                awd_path(awd_dir, record.set_id), summary.beam_trace, summary.winning_beam,
                length=len(summary.tokens),
            )
            _check_simplex(aligned, record.unitized.unit_pad)
            spans = awdmod.split_summary_sentences(summary.tokens, eoss_id)
            sent_awd = awdmod.aggregate_to_sentences(
                aligned, spans, **_given(opts, {"aggregation": "method"}))
            words = [
                textunits.tokenize(" ".join(vocab[t] for t in summary.tokens[a:b]
                                            if t not in special_ids))
                for a, b in spans
            ]
            # A span of end markers alone (a final <eos>, a repeated <eoss>) is no sentence.
            kept = [i for i, sentence in enumerate(words) if sentence]
            sent_awd.values = sent_awd.values[kept]
            sentences = [words[i] for i in kept]
            units = origin.unit_sentences(record.unitized)
        except (ValueError, OSError) as exc:
            raise ValueError(f"set {record.set_id!r}: {exc}") from None
        single += len(sentences) <= 1
        if record.gold_summary:
            gold_summaries.append([[word for sentence in sentences for word in sentence]])
            gold_units.append([[textunits.tokenize(record.gold_summary)]])
        sets.append((record, sent_awd, sentences, units))

    # one grouped ROUGE call scores every set's reference metric and every gold summary
    metrics = origin.reference_metrics(
        [sentences for _, _, sentences, _ in sets] + gold_summaries,
        [units for *_, units in sets] + gold_units)
    batch = [
        origin.SummaryAnalysis(
            set_id=record.set_id,
            sent_awd=sent_awd,
            origin=metric,
            unit_pad=record.unitized.unit_pad,
            doc_positions=origin.doc_positions_from_boundaries(
                record.unitized.doc_boundaries, record.unitized.L
            ),
        )
        for (record, sent_awd, _, _), metric in zip(sets, metrics)
    ]

    num_layers = batch[0].sent_awd.dims[1]
    layers = _parse_layers(opts["layers"], num_layers)
    posbias_layer = None
    if opts["posbias_layer"] is not None:
        if not 1 <= opts["posbias_layer"] <= num_layers:
            raise ValueError(f"--posbias-layer outside [1, {num_layers}]")
        posbias_layer = opts["posbias_layer"] - 1
    variants = origin.VARIANTS if opts["variant"] == "all" else (opts["variant"],)
    report = origin.build_report(batch, variants=variants, layers=layers,
                                 posbias_layer=posbias_layer)
    if report.posbias is None:
        print(
            "positional bias skipped: input lacks unit-to-document correspondence",
            file=sys.stderr,
        )
    if single == len(batch):
        print(f"warning: {single} of {len(batch)} summaries have at most one sentence "
              f"(no {graphattn.EOS_SENT_TOKEN} splits them)", file=sys.stderr)

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
    if gold_units:
        f1 = [metric.values[0, 0, :, origin.F1].tolist() for metric in metrics[len(sets):]]
        mean_f = [sum(column) / len(f1) for column in zip(*f1)]  # sums in set order
        print(f"rouge_f={reportmod.rouge_f_row(*mean_f)} gold_sets={len(f1)}")
    return 0


def cmd_heatmap(opts: dict[str, Any]) -> int:
    report = reportmod.read_report_json(opts["report"])
    try:
        svg = heatmapmod.heatmap_from_report(report)
    except ValueError as exc:
        raise ValueError(f"{opts['report']}: {exc}") from None
    out = Path(opts["out"])
    out.parent.mkdir(parents=True, exist_ok=True)
    with textunits.atomic_write(out, encoding="utf-8") as fh:
        fh.write(svg)
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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
