"""One benchmark pass in a fresh process: run a workload's CLI stages in order.

Usage: python3 bench/one_pass.py SPEC_JSON RESULT_JSON

SPEC_JSON holds ``{"stages": [[name, argv], ...], "trace": bool,
"spans": path or null, "pass": n}``. The parent puts the package's ``src``
directory on PYTHONPATH and the monotonic time just before it started
this process in BENCH_SPAWN_MONOTONIC, so set-up time covers the
interpreter start and ``import attnorigin``. The result JSON holds the
set-up time, each stage's exit code and wall time, the calibration
times, peak resident memory and, when traced, the per-module summary.
"""

import json
import os
import resource
import sys
import time
import traceback


def calibration_s() -> float:
    """Wall time of a fixed kernel that mixes the program's two kinds of
    work: a pure-Python dynamic programme (like ROUGE-L) and chains of
    small numpy products and softmaxes (like the decoder). Stage times
    divided by it track the program's speed while the shared host's
    speed drifts."""
    import numpy as np

    start = time.perf_counter()
    a = [i % 97 for i in range(500)]
    b = [(i * 7) % 101 for i in range(500)]
    prev = [0] * (len(b) + 1)
    for x in a:
        curr = [0]
        for j, y in enumerate(b, start=1):
            curr.append(prev[j - 1] + 1 if x == y else max(prev[j], curr[j - 1]))
        prev = curr
    rng = np.random.default_rng(0)
    m = rng.normal(size=(64, 64)) / 8.0
    h = rng.normal(size=(32, 64))
    for _ in range(800):
        h = np.tanh(h @ m)
        e = np.exp(h - h.max(axis=-1, keepdims=True))
        h = e / e.sum(axis=-1, keepdims=True)
    return time.perf_counter() - start


def main() -> int:
    spec_path, result_path = sys.argv[1], sys.argv[2]
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)

    import attnorigin
    from attnorigin.cli.main import main as cli_main

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    setup_s = time.monotonic() - float(os.environ["BENCH_SPAWN_MONOTONIC"])
    # the kernel runs before the first stage and after every stage, so
    # stage i lies between calibration[i] and calibration[i + 1]
    calibration = [calibration_s()]
    stages = []
    for name, argv in spec["stages"]:
        start = time.perf_counter()
        try:
            if tracer is None:
                rc = cli_main(argv)
            else:
                with tracer.stage(name):
                    rc = cli_main(argv)
        except Exception:  # a crash fails the stage; later stages still run
            traceback.print_exc()
            rc = -1
        stages.append({"name": name, "rc": rc, "wall_s": time.perf_counter() - start})
        calibration.append(calibration_s())

    result = {
        "package": attnorigin.__file__,
        "setup_s": setup_s,
        "stages": stages,
        "calibration_s": calibration,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        if spec["spans"]:
            tracer.write_spans(spec["spans"], spec["pass"])
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
