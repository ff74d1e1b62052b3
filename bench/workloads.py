"""The benchmark's workloads and why each exists.

Every workload runs as an offline batch: one fresh Python process per
pass calls ``attnorigin.cli.main.main`` once per stage, one caller in a
closed loop with no arrival schedule. The decoder configuration is the
ROADMAP baseline: d_model 64, 8 layers, 8 heads, synthetic weights
seeded from the workload seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

STAGES = ("preprocess", "graph", "generate", "analyze", "heatmap")
MODEL_FLAGS = ["--d-model", "64", "--num-layers", "8", "--num-heads", "8", "--model-max-len", "32"]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    mode: str
    stages: tuple[str, ...]
    num_sets: int
    generate_flags: list[str] = field(default_factory=list)
    # external dumps: sentences per summary; 0 means the decoder writes them
    dump_sentences: int = 0


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="paragraph-beam4",
            why=(
                "Full pipeline, paragraph mode (L=30, T=60), beam 4, max_len 32: the "
                "graph-shifted decoder does over 90% of the work, so a cached or "
                "beam-batched decoder shows here."
            ),
            mode="paragraph",
            stages=STAGES,
            num_sets=4,
            generate_flags=["--beam-size", "4", "--max-len", "32"],
        ),
        Workload(
            name="sentence-greedy",
            why=(
                "Full pipeline, sentence mode (L=60, T=30), beam 1, max_len 8: short "
                "prefixes over twice the units, so per-set costs and simgraph weigh "
                "more and decoder caching is mostly bypassed."
            ),
            mode="sentence",
            stages=STAGES,
            num_sets=24,
            generate_flags=["--beam-size", "1", "--max-len", "8"],
        ),
        Workload(
            name="external-dumps",
            why=(
                "Ingests externally written summary, AWD1 and vocab files in sentence "
                "mode (preprocess, analyze, heatmap): no decoder, so ROUGE, origin and "
                "tensor reads carry the run."
            ),
            mode="sentence",
            stages=("preprocess", "analyze", "heatmap"),
            num_sets=16,
            dump_sentences=9,
        ),
    ]
}

# Shapes shared by the external dumps and the decoder configuration.
BEAMS, LAYERS, HEADS = 4, 8, 8
SENTENCE_UNITS = 60
