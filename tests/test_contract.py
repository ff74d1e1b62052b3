"""The public names of ``attnorigin`` and its CLI options are part of its contract."""

import types

import attnorigin
from attnorigin.cli.main import OPTIONS

PUBLIC_NAMES = [
    "AwdFormatError", "AwdTensor", "BadMagicError", "BeamTraceError", "CorrelationReport",
    "DecoderWeights", "DimOverflowError", "GenerationConfig", "GenerationResult",
    "MissingDocBoundariesError", "ModelConfig", "MultiDocSet", "OriginMetric",
    "PearsonAccumulator", "PosBiasHeatmap", "RawDocument", "RougeScore", "RougeTriple",
    "SentenceAwd", "SimilarityGraph", "SummaryAnalysis", "TextualUnit", "TruncatedPayloadError",
    "UnitizedInput", "UnitizedRecord", "aggregate_to_sentences", "argmax_paragraph",
    "beam_decode_awd", "build_graph", "build_report", "central_paragraph",
    "correlate_awd_origin", "cosine_similarity", "decode_step", "encode_units",
    "evaluate_summary", "generate_with_beam", "global_context", "graph_shifted_attention",
    "head_correlations", "layer_correlations", "make_concentrator_weights",
    "make_synthetic_weights", "pearson", "positional_bias", "read_awd", "read_corpus",
    "read_graph", "read_unitized", "read_weights", "reference_metric", "rouge_l", "rouge_n",
    "split_sentences", "split_summary_sentences", "summary_correlations", "tfidf_vectors",
    "tokenize", "unitize", "unscaled_attention", "write_awd", "write_corpus", "write_graph",
    "write_unitized", "write_weights",
]


def test_public_names_are_pinned():
    """A removed or renamed public name fails here and shows in the diff."""
    names = sorted(
        name for name, value in vars(attnorigin).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == sorted(PUBLIC_NAMES)


# Every settable value of each subcommand: a flag, ATTNORIGIN_<NAME> in the
# environment, or a config file key. `workers` accepts only 1 and stays
# because the benchmark's stage commands pass `--workers 1`.
CLI_OPTIONS = {
    "preprocess": ["config", "corpus", "out", "mode", "units", "tokens"],
    "graph": ["config", "unitized", "out", "tau"],
    "generate": ["config", "unitized", "graphs", "out", "weights", "seed", "beam_size",
                 "max_len", "length_penalty", "sigma", "d_model", "num_layers", "num_heads",
                 "shift_form", "model_max_len", "limit", "workers"],
    "analyze": ["config", "awd", "summaries", "unitized", "out", "layers", "variant",
                "aggregation", "posbias_layer", "format", "limit"],
    "heatmap": ["config", "report", "out"],
}


def test_cli_options_are_pinned():
    """An added or removed CLI option fails here and shows in the diff."""
    options = {command: [spec.name for spec in specs] for command, specs in OPTIONS.items()}
    assert options == CLI_OPTIONS
