"""The scale-lab benchmark.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {sweep,stepscale,flow} --seed N --seconds S --trace {0,1}

A closed loop: one workload repetition after the other, each in a fresh
``bench/worker.py`` process running scale_lab from this checkout's ``src``,
until ``--seconds`` have passed (at least one repetition).  Every
repetition's outputs are checked and hashed.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: launch of a workload process until scale_lab is imported and
  the inputs are generated, the median over several set-up-only launches
  and every repetition (one discarded warm-up launch fills the bytecode
  cache);
* ``wall_rel`` / ``cpu_rel``: wall and user+system CPU time until every
  result and manifest of the workload is written, summed over the
  repetitions and divided by the summed time of the yardstick loop that
  each repetition runs right before and after itself (see
  ``worker._yardstick``).  On a shared 2-core host the speed drifts by up
  to 1.5x within minutes, which spreads raw seconds by up to 30 % between
  runs; the ratios cancel much of that drift;
* ``steps_per_yardstick``: inner steps (see ``workloads.work_units``) per
  yardstick time, i.e. throughput at a stated input size;
* ``peak_rss_mb``: maximum RSS of the workload process, the median over the
  repetitions.

The raw ``wall_s``, ``cpu_s`` and ``steps_per_s`` (medians over the
repetitions) and ``fail_frac`` are printed and kept in the detail line, but
not scored.

``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of ``tracer.LAYER_METRICS`` (medians over the traced
repetitions) plus ``trace.overhead_s``, traced minus untraced ``wall_s``.
The spans of the last traced repetition are written to
``.bench_out/spans-<workload>-s<seed>.csv``.

The last line of standard output is the JSON result; the line before it
holds the inputs, the output digest and the run environment.  Exit status is
nonzero, with no result printed, when scale_lab cannot be run from ``src``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import LAYER_METRICS, unit_of  # noqa: E402

SETUP_LAUNCHES = 5
TIME_LIMIT_S = 170.0   # a run must end within 180 s


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _launch(args, mode: str, rep: int, end: float) -> dict:
    out = OUT / f"{args.workload}-s{args.seed}-{os.getpid()}-{rep}"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode, "--out", str(out)]
    if mode == "trace":
        cmd += ["--spans", str(OUT / f"spans-{args.workload}-s{args.seed}.csv")]
    launched = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, end - launched))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} repetition did not finish within the time limit")
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(f"{mode} repetition exited with status {proc.returncode}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["setup_s"] = record["ready"] - launched
    return record


def _repetitions(args) -> tuple[list[float], list[dict], list[dict]]:
    """Set-up launches, then untraced (and, with --trace 1, traced) repetitions."""
    start = time.monotonic()
    end = start + TIME_LIMIT_S
    _launch(args, "setup", 0, end)
    setups = [_launch(args, "setup", 0, end)["setup_s"] for _ in range(SETUP_LAUNCHES)]
    runs: list[dict] = []
    traced: list[dict] = []
    while True:
        mode = "trace" if args.trace and len(traced) < len(runs) else "run"
        t0 = time.monotonic()
        (traced if mode == "trace" else runs).append(_launch(args, mode, len(runs) + len(traced), end))
        now = time.monotonic()
        last = now - t0
        # stop once both kinds ran and the next repetition would end past
        # --seconds by more than half its length, or near the time limit
        if runs and (traced or not args.trace) and (
                now + 0.5 * last > start + args.seconds or now + 2.0 * last > end):
            break
    return setups + [r["setup_s"] for r in runs + traced], runs, traced


def _environment() -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    loc = sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))
    return {"git_sha": sha, "python": platform.python_version(), "nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)), "loadavg_start": os.getloadavg(),
            "src_loc": loc}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    if not (ROOT / "src" / "scale_lab" / "__init__.py").is_file():
        print(f"bench: no scale_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = _environment()
    try:
        setups, runs, traced = _repetitions(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    reps = runs + traced
    failures = [f for r in reps for f in r["failures"]]
    attempted = sum(r["attempted"] for r in reps)
    digests = sorted({r["digest"] for r in reps})
    attempted += 1
    if len(digests) != 1:
        failures.append(f"repetitions of one seed wrote different outputs: {digests}")

    wall = [r["wall_s"] for r in runs]
    median = statistics.median
    # what is measured but not scored: raw times drift with the host's speed
    measured = {
        "wall_s": (median(wall), "s"),
        "cpu_s": (median(r["cpu_s"] for r in runs), "s"),
        "steps_per_s": (median(r["work"] / r["wall_s"] for r in runs), "1/s"),
    }
    if args.trace:
        layers = {m: median(r["layers"][m] for r in traced)
                  for m in LAYER_METRICS if m != "trace.overhead_s"}
        layers["trace.overhead_s"] = median(r["wall_s"] for r in traced) - median(wall)
        counts = [{m: v for m, v in r["layers"].items() if unit_of(m) in ("count", "bytes")}
                  for r in traced]
        attempted += 1
        if any(c != counts[0] for c in counts):
            failures.append("traced repetitions recorded different call counts")
        metrics = {m: (layers[m], unit_of(m)) for m in LAYER_METRICS}
        absent = traced[-1]["absent"]
    else:
        # ratios of totals: the yardstick loops sample the host's speed around
        # every repetition, and summing both sides averages their jitter
        def total(key):
            return sum(r[key] for r in runs)
        wall_rel = total("wall_s") / total("yardstick_wall_s")
        metrics = {
            "setup_s": (median(setups), "s"),
            "wall_rel": (wall_rel, "yardstick"),
            "cpu_rel": (total("cpu_s") / total("yardstick_cpu_s"), "yardstick"),
            "steps_per_yardstick": (runs[0]["work"] / wall_rel, "1/yardstick"),
            "peak_rss_mb": (median(r["peak_rss_mb"] for r in runs), "MB"),
        }
        absent = []
    measured["fail_frac"] = (len(failures) / attempted, "ratio")

    print(f"scale-lab bench: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"repetitions={len(runs)} untraced + {len(traced)} traced, {len(setups)} set-ups")
    print(f"  inputs: {json.dumps(reps[0]['inputs'])}")
    print(f"  untraced wall_s per repetition: {', '.join(f'{w:.4f}' for w in wall)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>16.6g} {unit}{'  (absent)' if name in absent else ''}")
    print("  also measured, not scored:")
    for name, (value, unit) in measured.items():
        print(f"  {name:<44} {value:>16.6g} {unit}")
    print(f"  {len(failures)} of {attempted} checks failed")
    for failure in failures[:20]:
        print(f"  FAILED {failure}")
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "inputs": reps[0]["inputs"], "digest": digests[0], "work": reps[0]["work"],
              "wall_s_reps": wall, "setup_s_samples": setups,
              "yardstick_wall_s_reps": [r["yardstick_wall_s"] for r in runs],
              "measured": {name: value for name, (value, _) in measured.items()}, "absent": absent,
              "environment": {**env, "numpy": reps[0]["numpy"]}}
    if traced:
        detail["spans"] = traced[-1]["spans"]
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures),
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
