"""One repetition of one workload, in a process of its own.

Usage: python3 bench/worker.py --workload W --seed N --mode {setup,run,trace} --out DIR

Imports scale_lab from the ``src`` directory of the checkout this file sits
in, generates the inputs, and prints ``{"ready": <CLOCK_MONOTONIC>}`` for
mode ``setup``.  For ``run`` and ``trace`` it then runs the workload, checks
its outputs and prints one JSON line with the timings, checks and digest;
``trace`` also installs the span tracer and reports the per-layer metrics.
Exit status 3 means scale_lab could not be imported from the checkout.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
YARDSTICK_ITERATIONS = 100000


def _yardstick() -> tuple[float, float]:
    """Wall and CPU time of a fixed loop of small numpy operations.

    The host's speed drifts by up to 1.5x within minutes, so each repetition
    runs this loop right before and after itself; dividing the workload's
    times by it cancels the drift while no scale_lab change can move it.
    """
    import numpy as np
    x = np.full(1, 0.5)
    a, w = np.full((64, 20), 0.01), np.full((20, 16), 0.02)
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for i in range(YARDSTICK_ITERATIONS):
        x = 0.9 * x + 0.1 * np.exp(-x)
        if i % 16 == 0:
            x = x + 1e-9 * float(np.tanh(a @ w).sum())
    return time.perf_counter() - wall0, time.process_time() - cpu0


def _import_lab():
    """scale_lab from this checkout's ``src``, never from an installed copy."""
    if not (SRC / "scale_lab" / "__init__.py").is_file():
        sys.exit(f"bench: no scale_lab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    try:
        import scale_lab
        import scale_lab.cli
    except ImportError as exc:
        print(f"bench: cannot import scale_lab: {exc}", file=sys.stderr)
        sys.exit(3)
    if Path(scale_lab.__file__).resolve().parent != SRC / "scale_lab":
        print(f"bench: scale_lab imported from {scale_lab.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(3)
    return scale_lab


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", default=None, help="where the trace mode writes its spans")
    args = parser.parse_args()

    lab = _import_lab()
    import workloads
    inputs = workloads.make_inputs(args.workload, args.seed)
    ready = time.monotonic()
    if args.mode == "setup":
        print(json.dumps({"ready": ready}))
        return 0

    tracer = absent_spans = None
    if args.mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        absent_spans = tracer.install()

    out = Path(args.out)
    checks = workloads.Checks()
    before = _yardstick()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    results = workloads.execute(lab, args.workload, inputs, out, checks)
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    after = _yardstick()

    workloads.check(args.workload, inputs, out, results, checks)
    record = {
        "ready": ready, "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak_rss_mb,
        "yardstick_wall_s": (before[0] + after[0]) / 2, "yardstick_cpu_s": (before[1] + after[1]) / 2,
        "work": workloads.work_units(args.workload, inputs), "inputs": inputs,
        "attempted": checks.attempted, "failures": checks.failures,
        "digest": workloads.digest(out, results),
    }
    shutil.rmtree(out, ignore_errors=True)
    if tracer is not None:
        record["layers"], record["absent"] = tracer.layer_metrics(absent_spans)
        record["spans"] = len(tracer.start)
        if args.spans:
            tracer.write_spans(Path(args.spans))
    import numpy
    record["numpy"] = numpy.__version__
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
