"""Record a before/after benchmark comparison as ``BENCH_<n>.json``.

Usage, from the root of a checkout:

    python3 tools/bench_record.py --parent REF --change REF --out BENCH_<n>.json \
        [--pairs sweep=10,stepscale=10,flow=10] [--seed N]

Both commits are exported with ``git archive`` into fresh directories, and
each runs its own unedited ``bench/run.py --trace 0`` for ``BENCHMARK.json``'s
``run_seconds``.  ``--pairs`` defaults to ten pairs of every workload.  For
every workload, pair i runs the parent first when i is even and the change
first when it is odd, so drift of the host's speed falls on both sides alike.
The record holds every run's detail and result lines as ``bench/run.py``
printed them, the per-metric medians and quartiles of each side, how many
pairs the change won (a tie counts for neither side), whether the gain rule
holds, the environment line, and both sides' ``src/`` line counts as their
``bench/run.py`` reports them.  The gain rule holds for a metric when there
are at least ten pairs, the change wins at least nine tenths of them, and its
median is better than the parent's by more than the parent's interquartile
range.  A run that exits nonzero or whose result is not ``correct``, or a pair
whose output digests differ, ends the recording with exit status 1.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GAIN_PAIRS = 10  # the fewest pairs, and the default count, for the gain rule
GAIN_WIN_SHARE = 0.9  # the share of the pairs the change must win for the gain rule


def _export(ref: str, into: Path) -> str:
    """Extract commit ``ref`` into ``into``; return its full sha."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{ref}^{{commit}}"], cwd=ROOT,
                         check=True, capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return sha


def _bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", repr(seconds)],
                          cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"bench_record: {checkout.name} {workload}: {proc.stderr.strip()}")
    detail, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    if result.get("correct") is not True:
        raise SystemExit(f"bench_record: {checkout.name} {workload} run failed its checks: {result}")
    return {"detail": detail["detail"], "result": result}


def _spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def _summary(pairs: list[dict], better: dict[str, str]) -> dict:
    summary = {}
    for name, direction in better.items():
        before = [p["parent"]["result"]["metrics"][name]["value"] for p in pairs]
        after = [p["change"]["result"]["metrics"][name]["value"] for p in pairs]
        sign = 1.0 if direction == "lower" else -1.0
        wins = sum(sign * (b - a) > 0 for b, a in zip(before, after))
        losses = sum(sign * (a - b) > 0 for b, a in zip(before, after))
        parent, change = _spread(before), _spread(after)
        gain = (len(pairs) >= GAIN_PAIRS and wins >= GAIN_WIN_SHARE * len(pairs)
                and sign * (parent["median"] - change["median"]) > parent["iqr"])
        summary[name] = {"better": direction, "parent": parent, "change": change,
                         "change_wins": wins, "gain_rule_holds": gain, "parent_wins": losses,
                         "pairs": len(pairs),
                         "median_rel_change": change["median"] / parent["median"] - 1.0}
    return summary


def main() -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--pairs", default=",".join(f"{w}={GAIN_PAIRS}" for w in workloads))
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    plan = {}
    for item in args.pairs.split(","):  # checked before either commit is exported
        workload, _, count = item.partition("=")
        if workload not in workloads or not (count.isascii() and count.isdigit()):
            parser.error(f"--pairs items are workload=count, the workload one of {workloads}: "
                         f"got {item!r}")
        if workload in plan:  # a second count would silently replace the first
            parser.error(f"--pairs repeats a workload: got {item!r}")
        plan[workload] = int(count)
    if min(plan.values()) < 2:
        parser.error("quartiles need at least 2 pairs per workload")
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    seconds = benchmark["run_seconds"]

    with tempfile.TemporaryDirectory(prefix="bench_record_") as tmp:
        sides = {side: Path(tmp) / side for side in ("parent", "change")}
        shas = {side: _export(getattr(args, side), path) for side, path in sides.items()}
        record = {side: {"ref": getattr(args, side), "sha": sha} for side, sha in shas.items()}
        record.update(seed=args.seed, seconds=seconds, workloads={})
        for workload, n_pairs in plan.items():
            pairs = []
            for i in range(n_pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"first": order[0]}
                for side in order:
                    pair[side] = _bench(sides[side], workload, args.seed, seconds)
                    print(f"{workload} pair {i} {side}: "
                          f"{json.dumps(pair[side]['result']['metrics'])}", file=sys.stderr)
                if pair["parent"]["detail"]["digest"] != pair["change"]["detail"]["digest"]:
                    raise SystemExit(f"bench_record: {workload} pair {i}: outputs differ")
                pairs.append(pair)
            record["workloads"][workload] = {"summary": _summary(pairs, better), "pairs": pairs}
        for side in sides:
            record[side]["src_loc"] = pairs[0][side]["detail"]["environment"]["src_loc"]
        record["environment"] = pairs[0]["change"]["detail"]["environment"]
    Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
