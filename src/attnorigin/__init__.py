"""Attention-based source-origin analysis for multi-document summarizers.

Pipeline: unitize documents (textunits), build a TF-IDF similarity
graph (simgraph), generate summaries with a graph-informed decoder
(graphattn), record, align and aggregate its attention tensor (awd),
and correlate attention with a ROUGE reference metric (origin). The cli
package ties the steps together.
"""

from .awd import (
    AwdFormatError,
    AwdTensor,
    BadMagicError,
    BeamTraceError,
    DimOverflowError,
    SentenceAwd,
    TruncatedPayloadError,
    aggregate_to_sentences,
    beam_decode_awd,
    read_awd,
    split_summary_sentences,
    write_awd,
)
from .graphattn import (
    DecoderWeights,
    GenerationConfig,
    GenerationResult,
    ModelConfig,
    central_paragraph,
    decode_step,
    encode_units,
    generate_with_beam,
    global_context,
    graph_shifted_attention,
    make_concentrator_weights,
    make_synthetic_weights,
    read_weights,
    unscaled_attention,
    write_weights,
)
from .origin import (
    CorrelationReport,
    MissingDocBoundariesError,
    OriginMetric,
    PearsonAccumulator,
    PosBiasHeatmap,
    SummaryAnalysis,
    argmax_paragraph,
    build_report,
    correlate_awd_origin,
    head_correlations,
    layer_correlations,
    pearson,
    positional_bias,
    reference_metric,
    summary_correlations,
)
from .rouge import RougeScore, RougeTriple, evaluate_summary, rouge_l, rouge_n
from .simgraph import (SimilarityGraph, build_graph, cosine_similarity, read_graph,
                       tfidf_vectors, write_graph)
from .textunits import (
    MultiDocSet,
    RawDocument,
    TextualUnit,
    UnitizedInput,
    UnitizedRecord,
    read_corpus,
    read_unitized,
    split_sentences,
    tokenize,
    unitize,
    write_corpus,
    write_unitized,
)

__version__ = "0.1.0"
