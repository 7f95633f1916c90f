"""The three benchmark workloads: seeded inputs, the timed run, and the output checks.

Every workload drives scale_lab through the entry points a researcher uses:
``scale_lab.cli.main`` with generated flags, and the library functions of the
``scale_lab`` package.  The workload seed only reaches the program as the
inputs ``make_inputs`` derives from it.

* ``sweep``: the momentum-grid training sweep (the paper's central
  experiment) on the logistic and mlp problems, then ``report --grid`` on
  each grid.  Training, problems, rng, optimizers and metrics do the work.
* ``stepscale``: ``probe --step-scale`` at its defaults, 9 cells x 32000
  scalar raw-Adam steps; optimizers and CSV reporting do the work.
* ``flow``: the ``flow`` command for three signals plus the drift-ladder
  library calls; RK4, signals and drift do the work.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import random
from fractions import Fraction
from pathlib import Path

BETA_AXIS = (0.9, 0.99, 0.999)

# 1000 steps keeps a sweep repetition near 8 s on a 2-core machine while
# staying five EMA windows long (criterion 8 itself uses 5000 steps).
SWEEP_STEPS = 1000
SWEEP_WINDOW = 200
SWEEP_PROBLEMS = ("logistic", "mlp")

STEPSCALE_CELLS = len(BETA_AXIS) ** 2
STEPSCALE_STEPS = 32000          # CLI default
STEPSCALE_JUMP = STEPSCALE_STEPS // 2
NORM_TOL = 1e-6                  # criterion 7: ||R|| returns to 1 +- 1e-6

FLOW_SIGNALS = ("exp", "sin-log", "const")
LADDER = (0.01, 0.02, 0.04, 0.08)
LADDER_TIMESCALES = ((1.0, 1.0), (1.0, 2.0))
# criterion 2 and the remainder-order test: (expected slope, tolerance)
SENSITIVITY_SLOPE = {(1.0, 1.0): (2.0, 0.2), (1.0, 2.0): (1.0, 0.1)}
SKEWED_COEFFICIENT = (1.0, 0.1)
REMAINDER_ORDER = (2.0, 0.25)

WORKLOADS = ("sweep", "stepscale", "flow")


def make_inputs(workload: str, seed: int) -> dict:
    """Map the workload seed to the program's inputs; seed 0 of ``sweep`` is criterion 8."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sweep":
        return {"problems": list(SWEEP_PROBLEMS), "data_seed": seed,
                "seed_list": [3 * seed, 3 * seed + 1, 3 * seed + 2],
                "steps": SWEEP_STEPS, "window": SWEEP_WINDOW, "metric": "omega1"}
    if workload == "stepscale":
        return {"base": 10.0 ** rng.uniform(-3.0, 3.0), "multiplier": rng.uniform(2.0, 10.0)}
    if workload == "flow":
        return {"delta0": rng.uniform(0.01, 0.1), "amplitude": rng.uniform(0.02, 0.1),
                "omega": rng.uniform(0.25, 1.0), "ladder": list(LADDER),
                "timescales": [list(ts) for ts in LADDER_TIMESCALES]}
    raise ValueError(f"unknown workload {workload!r}")


def work_units(workload: str, inputs: dict) -> int:
    """Inner steps of one repetition, the denominator of ``steps_per_s``.

    Cells x training steps for ``sweep``, cells x Adam steps for
    ``stepscale``, and nominal RK4 steps for ``flow``: the step count the
    flow's documented defaults give (h = min(tau) / 50, the CLI runs to
    burn-in + 5 tau_max, the ladders to 1.2 burn-in + 2 tau_max, where
    burn-in = 10 tau_max).
    """
    if workload == "sweep":
        cells = len(BETA_AXIS) ** 2 * len(inputs["seed_list"])
        return len(inputs["problems"]) * cells * inputs["steps"]
    if workload == "stepscale":
        return STEPSCALE_CELLS * STEPSCALE_STEPS

    def rk4_steps(t_end: float, tau1: float, tau2: float) -> int:
        return max(1, round(t_end / (min(tau1, tau2) / 50.0)))

    total = len(FLOW_SIGNALS) * rk4_steps(10.0 + 5.0, 1.0, 1.0)
    for tau1, tau2 in inputs["timescales"]:
        tau_max = max(tau1, tau2)
        # first_order_sensitivity and remainder_order_sweep each run the ladder
        total += 2 * len(inputs["ladder"]) * rk4_steps(14.0 * tau_max, tau1, tau2)
    return total


class Checks:
    """Tally of output checks; a failure keeps its name and the reason."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok

    def guard(self, name: str, fn, *args):
        """Run one check function; an exception in it counts as a failed check."""
        try:
            return fn(*args)
        except Exception as exc:  # any crash of a check is a failed check, not an abort
            self.check(name, False, f"{type(exc).__name__}: {exc}")
            return None


# ---------------------------------------------------------------- running

def _cli(lab, argv: list[str], checks: Checks) -> None:
    """Run one CLI command in-process, keeping its printout off the worker's stdout."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = lab.cli.main(argv)
    except Exception as exc:  # an uncaught error is a failed run, not an abort
        code = f"{type(exc).__name__}: {exc}"
    checks.check(f"exit status of {' '.join(argv[:3])}", code == 0, f"got {code}")


def _library(name: str, call, results: dict, checks: Checks) -> None:
    try:
        results[name] = call()
    except Exception as exc:  # FlowAbort or any other error fails the check
        checks.check(f"{name} raised", False, f"{type(exc).__name__}: {exc}")


def execute(lab, workload: str, inputs: dict, out: Path, checks: Checks) -> dict:
    """The timed part: run the workload's commands and calls, writing under ``out``.

    Returns the library results that are not written to files.
    """
    results: dict = {}
    if workload == "sweep":
        seeds = ",".join(str(s) for s in inputs["seed_list"])
        for problem in inputs["problems"]:
            _cli(lab, ["sweep", "--problem", problem, "--data-seed", str(inputs["data_seed"]),
                       "--seed-list", seeds, "--steps", str(inputs["steps"]),
                       "--window", str(inputs["window"]), "--metric", inputs["metric"],
                       "--out", str(out / problem)], checks)
        for problem in inputs["problems"]:
            _cli(lab, ["report", "--grid", str(out / problem / "grid.csv"),
                       "--metric", inputs["metric"], "--out", str(out / f"{problem}-report")],
                 checks)
    elif workload == "stepscale":
        _cli(lab, ["probe", "--step-scale", "--base", repr(inputs["base"]),
                   "--multiplier", repr(inputs["multiplier"]), "--out", str(out / "stepscale")],
             checks)
    elif workload == "flow":
        for signal in FLOW_SIGNALS:
            _cli(lab, ["flow", "--signal", signal, "--delta0", repr(inputs["delta0"]),
                       "--amplitude", repr(inputs["amplitude"]), "--omega", repr(inputs["omega"]),
                       "--out", str(out / signal)], checks)
        for tau1, tau2 in inputs["timescales"]:
            ts = lab.TimeScales(tau1, tau2)
            key = f"{tau1:g},{tau2:g}"
            _library(f"first_order_sensitivity({key})",
                     lambda: lab.first_order_sensitivity(ts, inputs["ladder"]), results, checks)
            _library(f"remainder_order_sweep({key})",
                     lambda: lab.remainder_order_sweep(ts, inputs["ladder"]), results, checks)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return results


# ---------------------------------------------------------------- checking

def _rows(path: Path) -> list[dict]:
    with Path(path).open(newline="") as fh:
        return list(csv.DictReader(fh))


def _count_rows(path: Path) -> int:
    with Path(path).open(newline="") as fh:
        return sum(1 for _ in fh) - 1


def binomial_tail(k: int, n_trials: int, width: int) -> float:
    """Exact P(X >= k) for X ~ Binomial(n_trials, 1/width), in integer arithmetic."""
    numerator = sum(math.comb(n_trials, j) * (width - 1) ** (n_trials - j)
                    for j in range(k, n_trials + 1))
    return float(Fraction(numerator, width ** n_trials))


def _check_manifests(out: Path, checks: Checks) -> None:
    """Every output a manifest lists hashes to the bytes on disk."""
    for manifest in sorted(out.rglob("manifest.json")):
        outputs = json.loads(manifest.read_text())["outputs"]
        checks.check(f"{manifest.parent.name} manifest lists outputs", bool(outputs))
        for path, digest in sorted(outputs.items()):
            actual = hashlib.sha256(Path(path).read_bytes()).hexdigest()
            checks.check(f"manifest hash of {Path(path).name}", actual == digest,
                         f"{actual} != {digest}")


def _check_sweep(inputs: dict, out: Path, checks: Checks) -> None:
    width = len(BETA_AXIS)
    n_expected = width * len(inputs["seed_list"])
    for problem in inputs["problems"]:
        tag = f"sweep {problem}"
        (summary,) = _rows(out / problem / "summary.csv")
        k, n, p = int(summary["K"]), int(summary["N"]), float(summary["p_value"])
        checks.check(f"{tag}: N = rows x seeds", n == n_expected, f"N={n}")
        checks.check(f"{tag}: 0 <= K <= N", 0 <= k <= n, f"K={k} N={n}")
        if 0 <= k <= n:
            exact = binomial_tail(k, n, width)
            checks.check(f"{tag}: p is the exact 1/{width} tail", math.isclose(p, exact, rel_tol=1e-12),
                         f"p={p!r} exact={exact!r}")
        (again,) = _rows(out / f"{problem}-report" / "report_summary.csv")
        checks.check(f"{tag}: report --grid reads back K/N/p",
                     (int(again["K"]), int(again["N"]), float(again["p_value"])) == (k, n, p),
                     f"{again} != {summary}")
        cells = _rows(out / problem / "grid.csv")
        checks.check(f"{tag}: grid has every cell", len(cells) == n_expected * width,
                     f"{len(cells)} rows")
        for cell in cells:
            name = f"trace_{cell['beta1']}_{cell['beta2']}_s{cell['seed']}.csv"
            steps_run = _count_rows(out / problem / "cells" / name)
            if steps_run == inputs["steps"]:  # not diverged
                omegas = (float(cell["omega1"]), float(cell["omega2"]))
                checks.check(f"{tag}: omega finite in {name}", all(map(math.isfinite, omegas)),
                             f"{omegas}")


def _check_stepscale(inputs: dict, out: Path, checks: Checks) -> None:
    out = out / "stepscale"
    checks.check("stepscale: summary has every cell",
                 len(_rows(out / "stepscale_summary.csv")) == STEPSCALE_CELLS)
    cells = sorted(p for p in out.glob("stepscale_*.csv") if p.name != "stepscale_summary.csv")
    checks.check("stepscale: one trace per cell", len(cells) == STEPSCALE_CELLS, f"{len(cells)}")
    for path in cells:
        rows = _rows(path)
        checks.check(f"{path.name}: steps", len(rows) == STEPSCALE_STEPS, f"{len(rows)}")
        before, last = float(rows[STEPSCALE_JUMP - 1]["norm_R"]), float(rows[-1]["norm_R"])
        checks.check(f"{path.name}: ||R|| = 1 before the jump", abs(before - 1.0) <= NORM_TOL,
                     f"{before!r}")
        checks.check(f"{path.name}: ||R|| = 1 at the last step", abs(last - 1.0) <= NORM_TOL,
                     f"{last!r}")
        checks.check(f"{path.name}: multiplier applied",
                     float(rows[-1]["multiplier"]) == inputs["multiplier"], rows[-1]["multiplier"])


def _check_flow(inputs: dict, out: Path, results: dict, checks: Checks) -> None:
    for signal in FLOW_SIGNALS:
        for row in _rows(out / signal / "remainder.csv"):
            if row["channel"] in ("m", "v"):
                rem, bound = float(row["remainder"]), float(row["bound"])
                checks.check(f"flow {signal}: {row['channel']} remainder within its envelope",
                             rem <= bound, f"{rem!r} > {bound!r}")
    for tau1, tau2 in inputs["timescales"]:
        key = f"{tau1:g},{tau2:g}"
        fit = results.get(f"first_order_sensitivity({key})")
        if fit is not None:
            want, tol = SENSITIVITY_SLOPE[(tau1, tau2)]
            checks.check(f"sensitivity slope ({key})", abs(fit.slope - want) <= tol, f"{fit.slope!r}")
            if tau1 != tau2:
                want, tol = SKEWED_COEFFICIENT
                checks.check(f"sensitivity coefficient ({key})", abs(fit.coefficient - want) <= tol,
                             f"{fit.coefficient!r}")
        report = results.get(f"remainder_order_sweep({key})")
        if report is not None:
            want, tol = REMAINDER_ORDER
            checks.check(f"remainder order ({key})", abs(report.fitted_order - want) <= tol,
                         f"{report.fitted_order!r}")
            for channel in ("m", "v"):
                margin = report.channels[channel].bound_margin
                checks.check(f"remainder margin {channel} ({key})", margin >= 0.0, f"{margin!r}")


def check(workload: str, inputs: dict, out: Path, results: dict, checks: Checks) -> None:
    """The untimed part: check every output of one repetition."""
    checks.guard("manifests", _check_manifests, out, checks)
    if workload == "sweep":
        checks.guard("sweep outputs", _check_sweep, inputs, out, checks)
    elif workload == "stepscale":
        checks.guard("stepscale outputs", _check_stepscale, inputs, out, checks)
    else:
        checks.guard("flow outputs", _check_flow, inputs, out, results, checks)


def digest(out: Path, results: dict) -> str:
    """Hash of (path relative to ``out``, sha256) over every output file.

    Manifests are left out because they carry wall-clock times; library
    results that no file holds enter as the hash of their repr.
    """
    pairs = [(p.relative_to(out).as_posix(), hashlib.sha256(p.read_bytes()).hexdigest())
             for p in out.rglob("*") if p.is_file() and not p.name.startswith("manifest.")]
    pairs += [(f"library:{name}", hashlib.sha256(repr(value).encode()).hexdigest())
              for name, value in results.items()]
    h = hashlib.sha256()
    for name, value in sorted(pairs):
        h.update(f"{name}\0{value}\n".encode())
    return h.hexdigest()
