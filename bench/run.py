"""attnorigin benchmark: one workload, measured for a fixed time, outputs checked.

Usage (from the repository root):

    python3 bench/run.py --workload paragraph-beam4 --seed 1 --seconds 30 --trace 0

The run makes the workload's inputs from ``--seed``, then runs passes
until ``--seconds`` have gone by (at least three). Each pass is a fresh
Python process (bench/one_pass.py) that calls
``attnorigin.cli.main.main`` once per stage, so set-up time and peak
memory are measured per pass; reported figures are medians over passes.
Pipeline times are reported in units of a fixed calibration kernel that
every pass runs between its stages (see one_pass.py and README.md),
because the host's speed drifts by more than the bounds over minutes.
With ``--trace 1`` untraced and traced passes alternate and the
per-module metrics are reported instead of the end-to-end ones.

Every pass's outputs are checked: invariants on the first pass, a
recorded reference at the default seed, and byte-identical reruns on
every later pass. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; details, the
environment record and the spans go to ``.bench_work/results/``.
``--record-reference`` rewrites bench/reference/<workload>.json from the
default seed's first pass.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import check
import corpus
from workloads import BEAMS, HEADS, LAYERS, MODEL_FLAGS, SENTENCE_UNITS, STAGES, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = Path(".bench_work")
DEFAULT_SEED = 1
SHAPES = {"paragraph": (30, 60), "sentence": (SENTENCE_UNITS, 30)}
# Fixed so that numpy's BLAS never spreads one pass over several cores.
BLAS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# No pass starts after START_LIMIT_S seconds of the run, whatever --seconds
# says, and none may run longer than PASS_TIMEOUT_S; a run stays within 180 s.
START_LIMIT_S = 90
PASS_TIMEOUT_S = 80


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    return parser.parse_args(argv)


def declared_metrics(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def make_inputs(workload, seed: int, layout: check.Layout) -> list[str]:
    records = corpus.make_corpus(seed, workload.num_sets)
    layout.inp.mkdir(parents=True)
    corpus.write_corpus(records, layout.corpus)
    if workload.dump_sentences:
        corpus.write_external_dumps(
            seed, records, layout.summaries, units=SENTENCE_UNITS,
            summary_sentences=workload.dump_sentences, beams=BEAMS, layers=LAYERS, heads=HEADS,
        )
    return [r["set_id"] for r in records]


def run_pass(spec: dict, work: Path, index: int) -> dict:
    spec_path = work / "spec.json"
    result_path = work / f"pass{index}.json"
    spec_path.write_text(json.dumps({**spec, "pass": index}))
    env = {k: v for k, v in os.environ.items() if not k.startswith("ATTNORIGIN_")}
    env.update(BLAS_ENV, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    env["BENCH_SPAWN_MONOTONIC"] = repr(time.monotonic())
    proc = subprocess.run(
        [sys.executable, str(BENCH / "one_pass.py"), str(spec_path), str(result_path)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=PASS_TIMEOUT_S,
    )
    if proc.returncode != 0 or not result_path.exists():
        raise RuntimeError(f"pass {index} crashed:\n{proc.stderr.decode(errors='replace')}")
    result = json.loads(result_path.read_text())
    result["index"] = index
    if not Path(result["package"]).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"attnorigin imported from {result['package']}, not from {SRC}")
    if any(stage["rc"] != 0 for stage in result["stages"]):
        result["stderr"] = proc.stderr.decode(errors="replace")
    return result


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + name):
            return line.split()[0]
    return None


def env_record() -> dict:
    lines = {
        str(p.relative_to(SRC)): len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((SRC / "attnorigin").rglob("*.py"))
    }
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas_env": BLAS_ENV,
        "pythonhashseed": "0",
        "git_commit": git_commit(),
        "source_lines": lines,
        "source_lines_total": sum(lines.values()),
    }


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def stage_wall(result: dict, stage: str) -> float:
    return sum(s["wall_s"] for s in result["stages"] if s["name"] == stage)


def sets_per_s(result: dict, num_sets: int) -> float:
    return num_sets / sum(s["wall_s"] for s in result["stages"])


def sets_per_cal(result: dict, num_sets: int) -> float:
    """Throughput in calibration units: the pass's mean calibration run
    stands in for the second."""
    return sets_per_s(result, num_sets) * statistics.mean(result["calibration_s"])


def end_to_end(passes: list[dict], num_sets: int) -> dict[str, float]:
    """Medians over passes of throughput and analyze time in calibration
    units (see one_pass.py), set-up time in seconds and peak memory.

    Analyze time is divided by the mean of the two calibration runs that
    bracket the analyze stage.
    """
    analyze = []
    for p in passes:
        cal = p["calibration_s"]
        i = [s["name"] for s in p["stages"]].index("analyze")
        analyze.append(p["stages"][i]["wall_s"] / ((cal[i] + cal[i + 1]) / 2))
    return {
        "sets_per_cal": median([sets_per_cal(p, num_sets) for p in passes]),
        "analyze_cal": median(analyze),
        "setup_s": median([p["setup_s"] for p in passes]),
        "peak_rss_mb": median([p["peak_rss_mb"] for p in passes]),
    }


def per_layer(traced: list[dict], untraced: list[dict], num_sets: int, problems: list[str]):
    times = {k: median([p["trace"]["times"][k] for p in traced]) for k in traced[0]["trace"]["times"]}
    counters = traced[0]["trace"]["counters"]
    if any(p["trace"]["counters"] != counters for p in traced[1:]):
        problems.append("counters differ between traced passes")
    for p in traced:
        for stage, (wall, covered) in p["trace"]["stage_accounting"].items():
            if abs(wall - covered) > 1e-6:
                problems.append(f"self times of {stage} miss its wall time by {wall - covered:.3g} s")
    traced_rate = median([sets_per_cal(p, num_sets) for p in traced])
    untraced_rate = median([sets_per_cal(p, num_sets) for p in untraced])
    metrics = {**times, **counters}
    for stage in STAGES:
        metrics[f"stage.{stage}.s"] = median([stage_wall(p, stage) for p in untraced])
    metrics["trace.sets_per_cal"] = traced_rate
    metrics["trace.untraced_sets_per_cal"] = untraced_rate
    metrics["trace.overhead_share"] = 1.0 - traced_rate / untraced_rate
    return metrics


def check_first_pass(layout, workload, set_ids, args) -> tuple[dict, dict, list[str]]:
    """Invariants at any seed; the recorded reference at the default seed."""
    L, T = SHAPES[workload.mode]
    failures, view = check.collect(layout, workload.stages, set_ids, L, T)
    problems = []
    ref_path = BENCH / "reference" / f"{workload.name}.json"
    if args.seed == DEFAULT_SEED:
        if args.record_reference:
            ref_path.parent.mkdir(exist_ok=True)
            ref_path.write_text(json.dumps(check.reference_record(view), indent=1) + "\n")
        elif not ref_path.is_file():
            problems.append(f"no reference recorded at {ref_path}")
        else:
            ref = json.loads(ref_path.read_text())
            mismatches = check.compare_reference(view, ref, workload.stages, set_ids)
            for key, reasons in mismatches.items():
                failures.setdefault(key, []).extend(reasons)
    return failures, view, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "attnorigin" / "cli" / "main.py").is_file():
        print(f"error: no attnorigin sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    declared = declared_metrics(args.trace)
    started = time.monotonic()
    workload = WORKLOADS[args.workload]
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work = WORK / tag
    results_dir = WORK / "results"
    shutil.rmtree(work, ignore_errors=True)
    results_dir.mkdir(parents=True, exist_ok=True)
    spans_path = results_dir / f"{tag}.spans.jsonl"
    spans_path.unlink(missing_ok=True)

    layout = check.Layout(work, external=bool(workload.dump_sentences))
    set_ids = make_inputs(workload, args.seed, layout)
    spec = {"stages": layout.stage_argv(workload, args.seed, MODEL_FLAGS)}
    # (pass, stage, set id) -> reasons
    failures: dict[tuple[int, str, str], list[str]] = {}
    problems: list[str] = []
    traced_passes: list[dict] = []
    untraced_passes: list[dict] = []
    first_digests: dict = {}
    view: dict = {}
    measure_start = time.monotonic()
    while True:
        elapsed = time.monotonic() - measure_start
        enough = elapsed >= args.seconds and len(untraced_passes) >= 3
        if args.trace:
            enough = elapsed >= args.seconds and len(traced_passes) >= 2
        if enough or time.monotonic() - started > START_LIMIT_S:
            break
        index = len(traced_passes) + len(untraced_passes)
        # pass 0 is untraced; then traced and untraced passes alternate
        traced = bool(args.trace) and index % 2 == 1
        shutil.rmtree(layout.out, ignore_errors=True)
        layout.out.mkdir()
        # spans are written for the first traced pass only, to bound their size
        spans = str(spans_path) if traced and not traced_passes else None
        result = run_pass({**spec, "trace": traced, "spans": spans}, work, index)
        for stage in result["stages"]:
            if stage["rc"] != 0:
                for sid in set_ids:
                    failures.setdefault((index, stage["name"], sid), []).append(
                        f"exit code {stage['rc']}")
        digests = check.digests(layout, workload.stages, set_ids)
        if index == 0:
            first_digests = digests
            found, view, problems = check_first_pass(layout, workload, set_ids, args)
            for (stage, sid), reasons in found.items():
                failures.setdefault((0, stage, sid), []).extend(reasons)
        for key, digest in digests.items():
            if digest != first_digests[key]:
                failures.setdefault((index, *key), []).append("output differs from pass 0")
        (traced_passes if traced else untraced_passes).append(result)
    measured_s = time.monotonic() - measure_start

    if args.trace:
        metrics = per_layer(traced_passes, untraced_passes, len(set_ids), problems) \
            if traced_passes else {}
    else:
        metrics = end_to_end(untraced_passes, len(set_ids))
    missing = sorted(set(declared) - set(metrics))
    if missing:
        problems.append(f"metrics not measured: {', '.join(missing)}")
    passes = sorted(untraced_passes + traced_passes, key=lambda p: p["index"])
    attempted = len(passes) * len(set_ids) * len(workload.stages)
    failed = len(failures)
    env = env_record()
    record = {
        "workload": workload.name, "why": workload.why, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "measured_s": measured_s, "sets": len(set_ids),
        "passes": passes, "metrics": metrics,
        "failures": {f"pass{i}/{s}/{sid}": r for (i, s, sid), r in failures.items()},
        "problems": problems, "environment": env,
        "degeneracy": {"summaries": len(view["summaries"]), "no_eos": view["no_eos"],
                       "no_eoss": view["no_eoss"], "sentences": view["sentences"]},
    }
    (results_dir / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    shutil.rmtree(work, ignore_errors=True)

    print(f"workload={workload.name} seed={args.seed} trace={args.trace} sets={len(set_ids)} "
          f"passes={len(passes)} measured={measured_s:.1f}s")
    print(f"env: nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"blas_threads=1 commit={env['git_commit']} src_lines={env['source_lines_total']}")
    for name in sorted(metrics) if args.trace else declared:
        print(f"  {name} = {metrics[name]:.6g} {declared.get(name, '')}")
    if not args.trace:
        rates = [sets_per_s(p, len(set_ids)) for p in untraced_passes]
        print(f"  sets_per_s = {median(rates):.6g} sets/s (median of {len(rates)} passes)")
        for stage in workload.stages:
            walls = [stage_wall(p, stage) for p in untraced_passes]
            print(f"  {stage}_s = {median(walls):.6g} s")
        cal = [c for p in untraced_passes for c in p["calibration_s"]]
        print(f"  calibration_s = {median(cal):.6g} s")
    print(f"  failed_share = {failed / attempted:.6g} ({failed} of {attempted} set-stage operations)")
    print(f"  degeneracy: {view['no_eos']} of {len(view['summaries'])} summaries have no <eos>, "
          f"{view['no_eoss']} have no <eoss>")
    for (i, stage, sid), reasons in sorted(failures.items())[:10]:
        print(f"  FAILED pass{i}/{stage}/{sid}: {'; '.join(reasons)}")
    for problem in problems:
        print(f"  PROBLEM {problem}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items() if name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
