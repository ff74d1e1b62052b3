"""Outside-in tracing: spans and counters at attnorigin's module boundaries.

``Tracer.install`` replaces public functions on the package's modules
with timing wrappers, so calls made inside the package (the beam loop
calling ``graphattn.decode_step``, ``origin.reference_metric`` calling
``rouge_triple``) are captured as well as calls from the CLI. Nothing
under ``src/`` changes. Spans stay in memory with their parent span and
the document set they belong to, and are written out at the end.

A span's self time is its duration minus the time of its direct
children; since calls nest and never overlap, the self times of every
span in a stage add up to the stage's wall time.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

import attnorigin.awd as awd
import attnorigin.cli.heatmap as heatmap
import attnorigin.cli.report as report
import attnorigin.graphattn as graphattn
import attnorigin.origin as origin
import attnorigin.rouge as rouge
import attnorigin.simgraph as simgraph
import attnorigin.textunits as textunits
from workloads import STAGES


def _set_of_path(path) -> str:
    # per-set files are named "<set id>.<kind>"
    return Path(path).name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int | None, str, str | None, int, int]] = []
        self.counters: Counter[str] = Counter()
        self._stack: list[int] = []
        self._span_set: dict[int, str | None] = {}
        self._next_id = 0
        self._current_set: str | None = None
        self._unit_sets: dict[int, str] = {}

    # -- recording ---------------------------------------------------------

    @contextmanager
    def stage(self, name: str):
        """Root span of one CLI stage; per-set attribution restarts here."""
        self._current_set = None
        self._unit_sets.clear()
        span_id = self._next_id
        self._next_id += 1
        self._span_set[span_id] = None
        self._stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((span_id, None, f"cli.{name}", None, start, end))

    def _resolve_set(self, explicit: str | None) -> str | None:
        if explicit is not None:
            self._current_set = explicit
            return explicit
        if len(self._stack) > 1:  # below another module span: same set as it
            return self._span_set[self._stack[-1]]
        return self._current_set

    def wrap(self, owner, attr: str, name: str, set_of=None, batch=False, after=None):
        # Span bookkeeping is inlined, not a context manager: this wrapper
        # runs tens of thousands of times per pass on ROUGE.
        original = getattr(owner, attr)
        tracer = self
        stack, spans, span_set = self._stack, self.spans, self._span_set
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            sid = None if batch else tracer._resolve_set(set_of(args) if set_of else None)
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1] if stack else None
            span_set[span_id] = sid
            stack.append(span_id)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, name, sid, start, end))
            if after is not None:
                after(args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)

    def count_calls(self, owner, attr: str, counter: str):
        original = getattr(owner, attr)
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[counter] += 1
            return original(*args, **kwargs)

        setattr(owner, attr, wrapper)

    # -- boundaries --------------------------------------------------------

    def install(self):
        c = self.counters
        units = self._unit_sets

        def unit_set(index):
            return lambda args: units.get(id(args[index]))

        def path_set(index):
            return lambda args: _set_of_path(args[index])

        def add_size(counter, index):
            def after(args, kwargs, result):
                c[counter] += os.path.getsize(args[index])
            return after

        def after_unitize(args, kwargs, result):
            c["textunits.units"] += result.num_real_units
            c["textunits.pad_units"] += result.L - result.num_real_units

        def after_read_unitized(args, kwargs, result):
            for record in result:
                units[id(record.unitized)] = record.set_id

        def after_generate(args, kwargs, result):
            c["graphattn.tokens"] += len(result.tokens)
            if result.tokens and result.tokens[-1] == args[1].eos_id:
                c["graphattn.finished_eos"] += 1
            else:
                c["graphattn.hit_max_len"] += 1

        def after_align(args, kwargs, result):
            beams, steps = args[0].dims[:2]
            c["awd.slices_consumed"] += result.shape[0]
            c["awd.slices_recorded"] += beams * steps

        def after_split(args, kwargs, result):
            c["awd.sentences"] += len(result)

        def after_report(args, kwargs, result):
            c["origin.cells"] += result.sample_count

        w = self.wrap
        w(textunits, "read_corpus", "textunits.read_corpus", batch=True)
        w(textunits, "unitize", "textunits.unitize", set_of=lambda a: a[0].set_id,
          after=after_unitize)
        w(textunits, "write_unitized", "textunits.write_unitized", batch=True)
        w(textunits, "read_unitized", "textunits.read_unitized", batch=True,
          after=after_read_unitized)

        w(simgraph, "build_graph", "simgraph.build_graph", set_of=unit_set(0))
        w(simgraph, "write_graph", "simgraph.write_graph", set_of=path_set(1),
          after=add_size("simgraph.bytes", 1))
        w(simgraph, "read_graph", "simgraph.read_graph", set_of=path_set(0))

        w(graphattn, "make_synthetic_weights", "graphattn.make_synthetic_weights", batch=True)
        w(graphattn, "read_weights", "graphattn.read_weights", batch=True)
        w(graphattn, "generate_with_beam", "graphattn.generate_with_beam",
          set_of=unit_set(0), after=after_generate)
        w(graphattn, "encode_units", "graphattn.encode_units")
        w(graphattn, "decode_step", "graphattn.decode_step")

        w(awd, "write_awd", "awd.write_awd", set_of=path_set(1),
          after=add_size("awd.bytes_written", 1))
        w(awd, "read_awd", "awd.read_awd", set_of=path_set(0),
          after=add_size("awd.bytes_read", 0))
        w(awd, "beam_decode_awd", "awd.beam_decode_awd", after=after_align)
        w(awd, "split_summary_sentences", "awd.split_summary_sentences", after=after_split)
        w(awd, "aggregate_to_sentences", "awd.aggregate_to_sentences")
        w(awd, "write_summary", "awd.write_summary", set_of=path_set(1))
        w(awd, "read_summary", "awd.read_summary", set_of=path_set(0))

        # origin imported rouge_triple by name, so it is patched there too
        w(rouge, "rouge_triple", "rouge.rouge_triple")
        w(origin, "rouge_triple", "rouge.rouge_triple")
        w(rouge, "lcs_length", "rouge.lcs_length")
        w(rouge, "evaluate_summary", "rouge.evaluate_summary", batch=True)

        w(origin, "reference_metric", "origin.reference_metric", set_of=unit_set(1))
        w(origin, "build_report", "origin.build_report", batch=True, after=after_report)
        self.count_calls(origin.PearsonAccumulator, "update", "origin.pearson_updates")

        w(report, "write_report_json", "cli.report.write_report_json", batch=True,
          after=add_size("cli.report.bytes", 1))
        w(report, "write_report_csv", "cli.report.write_report_csv", batch=True,
          after=add_size("cli.report.bytes", 1))
        w(heatmap, "heatmap_from_report", "cli.heatmap.heatmap_from_report", batch=True)

    # -- results -----------------------------------------------------------

    def write_spans(self, path, pass_index: int) -> None:
        origin_ns = min((s[4] for s in self.spans), default=0)
        with open(path, "a", encoding="utf-8") as fh:
            for span_id, parent, name, set_id, start, end in sorted(self.spans):
                fh.write(json.dumps({
                    "pass": pass_index, "id": span_id, "parent": parent, "name": name,
                    "set": set_id, "start_ns": start - origin_ns, "end_ns": end - origin_ns,
                }) + "\n")

    def summary(self) -> dict:
        """Per-module metrics (``*.s`` are self times) and exact counters."""
        child_ns: dict[int, int] = defaultdict(int)
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter[str] = Counter()
        decode_ms = []
        roots = []
        span_self = []
        for span_id, parent, name, _, start, end in self.spans:
            own = (end - start - child_ns[span_id]) / 1e9
            self_s[name] += own
            calls[name] += 1
            span_self.append((start, own))
            if name == "graphattn.decode_step":
                decode_ms.append((end - start) / 1e6)
            if parent is None:
                roots.append((name[len("cli."):], start, end))
        # every span of a stage starts inside the stage's root span
        accounting = {
            stage: [(end - start) / 1e9,
                    sum(own for s, own in span_self if start <= s <= end)]
            for stage, start, end in roots
        }

        def total(*names):
            return sum(self_s[n] for n in names)

        c = self.counters
        times = {
            "textunits.s": sum(v for k, v in self_s.items() if k.startswith("textunits.")),
            "simgraph.build_graph.s": total("simgraph.build_graph"),
            "simgraph.io.s": total("simgraph.write_graph", "simgraph.read_graph"),
            "graphattn.decode_step.s": total("graphattn.decode_step"),
            "graphattn.decode_step.ms_p50": statistics.median(decode_ms) if decode_ms else 0.0,
            "graphattn.encode_units.s": total("graphattn.encode_units"),
            "graphattn.beam.self_s": total("graphattn.generate_with_beam"),
            "graphattn.weights.s": total("graphattn.make_synthetic_weights",
                                         "graphattn.read_weights"),
            "awd.write.s": total("awd.write_awd"),
            "awd.read.s": total("awd.read_awd"),
            "awd.align.s": total("awd.beam_decode_awd"),
            "awd.aggregate.s": total("awd.aggregate_to_sentences",
                                     "awd.split_summary_sentences"),
            "awd.summary_io.s": total("awd.write_summary", "awd.read_summary"),
            "rouge.rouge_triple.s": total("rouge.rouge_triple"),
            "rouge.lcs_length.s": total("rouge.lcs_length"),
            "rouge.evaluate_summary.s": total("rouge.evaluate_summary"),
            "origin.reference_metric.self_s": total("origin.reference_metric"),
            "origin.build_report.s": total("origin.build_report"),
            "cli.report_write.s": total("cli.report.write_report_json",
                                        "cli.report.write_report_csv"),
            "cli.heatmap.s": total("cli.heatmap.heatmap_from_report"),
            **{f"cli.{stage}.self_s": total(f"cli.{stage}") for stage in STAGES},
        }
        steps = calls["graphattn.decode_step"]
        recorded = c["awd.slices_recorded"]
        counts = {
            "textunits.read_unitized.calls": calls["textunits.read_unitized"],
            "textunits.units": c["textunits.units"],
            "textunits.pad_units": c["textunits.pad_units"],
            "simgraph.build_graph.calls": calls["simgraph.build_graph"],
            "simgraph.bytes": c["simgraph.bytes"],
            "graphattn.decode_step.calls": steps,
            "graphattn.tokens": c["graphattn.tokens"],
            "graphattn.finished_eos": c["graphattn.finished_eos"],
            "graphattn.hit_max_len": c["graphattn.hit_max_len"],
            "graphattn.useful_step_share": c["graphattn.tokens"] / steps if steps else 0.0,
            "awd.bytes_written": c["awd.bytes_written"],
            "awd.bytes_read": c["awd.bytes_read"],
            "awd.sentences": c["awd.sentences"],
            "awd.consumed_share": c["awd.slices_consumed"] / recorded if recorded else 0.0,
            "rouge.rouge_triple.calls": calls["rouge.rouge_triple"],
            "origin.cells": c["origin.cells"],
            "origin.pearson_updates": c["origin.pearson_updates"],
            "cli.report.bytes": c["cli.report.bytes"],
        }
        return {"times": times, "counters": counts, "stage_accounting": accounting}
