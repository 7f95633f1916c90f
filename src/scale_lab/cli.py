"""Command-line entry points.

Four subcommands:

* ``flow``   -- integrate the continuous flow for a named signal and write
               the trace plus its expansion-remainder report;
* ``probe``  -- instantaneous rescale probes (or a step-rescale experiment
               with ``--step-scale``);
* ``sweep``  -- the full (beta1, beta2) x seed training sweep with
               oscillation scoring;
* ``report`` -- recompute rates and p-values from stored grids, or from an
               externally supplied omega matrix.

Exit codes: 0 success, 1 usage error, 2 runtime or parse error.  A NaN or
infinite float flag or list item, an empty list, a negative, fractional or
repeated seed, a count below 1, a time scale or step size that is not
positive and a ``--jump`` outside [1, steps - 1] are usage errors.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import DimensionError, DomainError, FlowAbort
from .flow import TimeScales, integrate_flow, steady_state_init
from .invariance import StepScaleExperiment, exact_invariance_probe, step_scale_grid
from .metrics import grid_report
from .optimizers import MomentState, OptimizerConfig
from .problems import make_problem
from .reporting import (CsvParseError, RunManifest, flow_trace_csv, probe_csv,
                        read_omega_grids, read_omega_matrix, run_trace_csv,
                        step_trace_csv, summary_csv, sweep_grid_csv, write_csv,
                        write_svg_lines)
from .signals import constant_signal, exponential_signal, sinusoidal_log_signal
from .training import sweep_grid
from .drift import measure_remainder


class UsageError(Exception):
    """Bad flag values; reported with exit status 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _flag_value(parse, ok, what: str):
    """An argparse ``type``: ``parse(text)``, a usage error unless it is ``what``."""
    def convert(text: str):
        try:
            value = parse(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"not {what}: {text!r}")
        return value
    return convert


_finite_float = _flag_value(float, math.isfinite, "a finite number")
_positive_float = _flag_value(float, lambda x: 0.0 < x < math.inf, "a finite number > 0")
_nonnegative_float = _flag_value(float, lambda x: 0.0 <= x < math.inf, "a finite number >= 0")
_beta = _flag_value(float, lambda b: 0.0 < b < 1.0, "a finite number in (0, 1)")
_seed = _flag_value(int, lambda s: s >= 0, "an integer seed >= 0")
_count = _flag_value(int, lambda n: n >= 1, "an integer >= 1")


def _values(text: str, parse=_finite_float) -> list:
    """A non-empty comma-separated list; an empty or bad item is a usage error."""
    try:
        values = [parse(x) for x in text.split(",") if x.strip() != ""]
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"{exc} in the list {text!r}")
    if not values:
        raise UsageError(f"empty list: {text!r}")
    return values


def _manifest(args, command: str, skip=("out", "plot", "func")) -> RunManifest:
    config = {k: v for k, v in sorted(vars(args).items())
              if k not in skip and not callable(v)}
    return RunManifest(command=command, config={k: str(v) for k, v in config.items()},
                       version=__version__)


# ---------------------------------------------------------------- flow

def _build_signal(args):
    if args.signal == "const":
        return constant_signal(args.scale)
    if args.signal == "exp":
        return exponential_signal(args.delta0, args.scale)
    if args.signal == "sin-log":
        return sinusoidal_log_signal(args.amplitude, args.omega, args.scale)
    raise DomainError(f"unknown signal {args.signal!r}")


def cmd_flow(args) -> int:
    out = Path(args.out)
    manifest = _manifest(args, "flow")
    ts = TimeScales(args.tau1, args.tau2, args.eta_bar, args.dt)
    signal = _build_signal(args)
    t_end = args.t_end if args.t_end is not None else ts.burn_in + 5.0 * ts.tau_max
    init = steady_state_init(signal, ts, t0=0.0)
    trace = integrate_flow(signal, ts, init, t_end=t_end, h=args.h)

    files = [flow_trace_csv(trace, out / "trace.csv")]
    report = None
    if t_end > ts.burn_in:
        report = measure_remainder(trace, signal, ts)
        chans = report.channels.values()
        files.append(write_csv(out / "remainder.csv",
                               ["channel", "delta0", "remainder", "bound", "constant",
                                "fitted_order"],
                               [list(report.channels),
                                [signal.params.get("delta0", "")] * len(chans),
                                [ch.max_abs for ch in chans],
                                ["" if ch.bound_sup is None else ch.bound_sup for ch in chans],
                                ["" if np.isnan(ch.constant) else ch.constant for ch in chans],
                                [""] * len(chans)]))
    if args.plot:
        files.append(write_svg_lines(out / "flow.svg",
                                     [("norm_R", trace.t, trace.norm_r)],
                                     title=f"flow {args.signal}"))
    for f in files:
        manifest.add_output(f)
    manifest.finish()
    manifest.write(out)
    r_last = float(np.max(np.abs(trace.r[-1])))
    print(f"flow: {trace.t.size} samples to t={trace.t[-1]:.3g}; ||R||_inf(end) = {r_last:.9f}")
    if report is None:
        print(f"  (run shorter than burn-in {ts.burn_in:g}; no remainder report)")
    else:
        for name, ch in report.channels.items():
            print(f"  remainder[{name}] = {ch.max_abs:.3e}")
    return 0


# ---------------------------------------------------------------- probe

def cmd_probe(args) -> int:
    out = Path(args.out)
    manifest = _manifest(args, "probe")
    files = []
    if args.step_scale:
        betas = _values(args.beta_grid, _beta)
        grid = [(b1, b2) for b1 in betas for b2 in betas]
        jump = args.jump if args.jump is not None else args.steps // 2
        if not 1 <= jump < args.steps:
            raise UsageError(f"--jump must lie in [1, steps - 1], got {jump} of {args.steps}")
        exp = StepScaleExperiment(base=np.array([args.base]),
                                  schedule=[(jump, args.multiplier)], beta_grid=grid)
        traces = step_scale_grid(exp, steps=args.steps, eta=args.eta)
        cells = sorted(traces.items())
        for (b1, b2), tr in cells:
            files.append(step_trace_csv(tr, out / f"stepscale_{b1}_{b2}.csv"))
        files.append(write_csv(out / "stepscale_summary.csv",
                               ["beta1", "beta2", "transient_integral"],
                               [[b1 for (b1, _), _ in cells], [b2 for (_, b2), _ in cells],
                                [tr.transient_integral(jump, reference=1.0) for _, tr in cells]]))
        if args.plot:
            series = [(f"({b1},{b2})", tr.steps, tr.norm_r) for (b1, b2), tr in cells]
            files.append(write_svg_lines(out / "stepscale.svg", series,
                                         title=f"x{args.multiplier} rescale at step {jump}"))
        print(f"step-scale: {len(traces)} cells, jump x{args.multiplier} at step {jump}")
    else:
        lambdas = _values(args.lambdas, _positive_float)
        g = np.array(_values(args.g))
        state = config = None
        if args.method == "adam":
            m = np.array(_values(args.m)) if args.m else np.zeros_like(g)
            v = np.array(_values(args.v, _nonnegative_float)) if args.v else np.ones_like(g)
            state = MomentState(m=m, v=v, theta=np.zeros_like(g), k=args.k)
            config = OptimizerConfig(beta1=args.beta1, beta2=args.beta2,
                                     epsilon=args.epsilon, bias_correction=args.bias_correction)
        result = exact_invariance_probe(args.method, state, g, lambdas, config)
        files.append(probe_csv(result, out / "probe.csv"))
        print(f"probe {args.method}: classification = {result.classification}")
        for lam, dev in zip(result.lambda_values, result.deviations):
            print(f"  lambda={lam:g}: deviation = {dev:.6e}")
    for f in files:
        manifest.add_output(f)
    manifest.finish()
    manifest.write(out)
    return 0


# ---------------------------------------------------------------- sweep

def cmd_sweep(args) -> int:
    out = Path(args.out)
    manifest = _manifest(args, "sweep")
    betas = _values(args.beta_grid, _beta)
    seeds = (list(range(args.seeds)) if args.seed_list is None
             else _values(args.seed_list, _seed))
    if len(set(seeds)) != len(seeds):
        raise UsageError(f"--seed-list repeats a seed: {args.seed_list!r}")
    problem = make_problem(args.problem, seed=args.data_seed)
    result = sweep_grid(problem, beta_axis=betas, seeds=seeds,
                        steps=args.steps, batch_size=args.batch_size, eta=args.eta,
                        window=args.window, metric=args.metric)
    manifest.seeds = seeds

    files = []
    for (b1, b2, seed), trace in sorted(result.traces.items()):
        files.append(run_trace_csv(trace, out / "cells" / f"trace_{b1}_{b2}_s{seed}.csv"))
    files.append(sweep_grid_csv(result, out / "grid.csv"))
    files.append(summary_csv(result.report, out / "summary.csv"))
    if args.plot:
        series = [(f"({b1},{b2})", tr.k, tr.norm_r)
                  for (b1, b2, seed), tr in sorted(result.traces.items()) if seed == seeds[0]]
        files.append(write_svg_lines(out / "sweep.svg", series,
                                     title=f"{args.problem} ||R_k||, seed {seeds[0]}"))
    for f in files:
        manifest.add_output(f)
    manifest.finish()
    manifest.write(out)
    rep = result.report
    print(f"sweep {args.problem}: metric={args.metric} window={args.window} "
          f"K={rep.hits} N={rep.trials} rate={rep.rate:.1%} p={rep.p_value:.6g}")
    return 0


# ---------------------------------------------------------------- report

def cmd_report(args) -> int:
    out = Path(args.out)
    manifest = _manifest(args, "report")
    if args.ingest:
        matrix, axis = read_omega_matrix(Path(args.ingest))
        grids = [matrix] * args.assume_seeds
        rep = grid_report(grids, axis)
        mode = f"aggregated x{args.assume_seeds}"
    elif args.grid:
        grids, axis = read_omega_grids(Path(args.grid), metric=args.metric)
        rep = grid_report(grids, axis)
        mode = "per-seed"
    else:
        raise DomainError("report needs --grid or --ingest")
    files = [summary_csv(rep, out / "report_summary.csv")]
    for f in files:
        manifest.add_output(f)
    manifest.finish()
    manifest.write(out)
    print(f"report ({mode}): K={rep.hits} N={rep.trials} rate={rep.rate:.1%} "
          f"p={rep.p_value:.6g}")
    if args.ingest and args.assume_seeds > 1:
        print(f"  p treats {args.assume_seeds} copies of one matrix as independent trials; "
              "it is not a valid test")
    if rep.degenerate_rows:
        print(f"  degenerate rows (all-equal): {rep.degenerate_rows}")
    return 0


# ---------------------------------------------------------------- wiring

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="scale-lab",
                     description="Adam flow, scale-invariance probes, and oscillation statistics")
    parser.add_argument("--version", action="version", version=f"scale-lab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("flow", help="integrate the continuous Adam flow")
    p.add_argument("--signal", required=True, choices=("const", "exp", "sin-log"))
    p.add_argument("--delta0", type=_finite_float, default=0.05)
    p.add_argument("--amplitude", type=_finite_float, default=0.05)
    p.add_argument("--omega", type=_finite_float, default=0.5)
    p.add_argument("--scale", type=_finite_float, default=1.0)
    p.add_argument("--tau1", type=_positive_float, default=1.0)
    p.add_argument("--tau2", type=_positive_float, default=1.0)
    p.add_argument("--eta-bar", type=_positive_float, default=1.0)
    p.add_argument("--dt", type=_positive_float, default=0.01)
    p.add_argument("--t-end", type=_positive_float, default=None)
    p.add_argument("--h", type=_positive_float, default=None)
    p.add_argument("--out", default="scale-lab-out/flow")
    p.add_argument("--plot", action="store_true")
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("probe", help="gradient rescale probes")
    p.add_argument("--method", choices=("adam", "signsgd", "gd"), default="signsgd")
    p.add_argument("--lambdas", default="0.1,2,10")
    p.add_argument("--g", default="1.0")
    p.add_argument("--m", default=None)
    p.add_argument("--v", default=None)
    p.add_argument("--k", type=_flag_value(int, lambda k: k >= 0, "a step index >= 0"), default=0)
    p.add_argument("--beta1", type=_finite_float, default=0.9)
    p.add_argument("--beta2", type=_finite_float, default=0.9)
    p.add_argument("--epsilon", type=_finite_float, default=0.0)
    p.add_argument("--bias-correction", action="store_true")
    p.add_argument("--step-scale", action="store_true")
    p.add_argument("--base", type=_finite_float, default=1.0)
    p.add_argument("--multiplier", type=_finite_float, default=10.0)
    p.add_argument("--jump", type=_count, default=None)
    p.add_argument("--steps", type=_count, default=32000)
    p.add_argument("--eta", type=_finite_float, default=1e-3)
    p.add_argument("--beta-grid", default="0.9,0.99,0.999")
    p.add_argument("--out", default="scale-lab-out/probe")
    p.add_argument("--plot", action="store_true")
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("sweep", help="momentum-grid training sweep")
    p.add_argument("--problem", required=True, choices=("quadratic", "logistic", "mlp"))
    p.add_argument("--seeds", type=_count, default=3, help="number of seeds (0..n-1)")
    p.add_argument("--seed-list", default=None, help="explicit comma-separated seeds")
    p.add_argument("--data-seed", type=_seed, default=0)
    p.add_argument("--steps", type=_count, default=5000)
    p.add_argument("--batch-size", type=_count, default=32)
    p.add_argument("--eta", type=_finite_float, default=None)
    p.add_argument("--window", type=_count, default=200)
    p.add_argument("--metric", choices=("omega1", "omega2"), default="omega1")
    p.add_argument("--beta-grid", default="0.9,0.99,0.999")
    p.add_argument("--out", default="scale-lab-out/sweep")
    p.add_argument("--plot", action="store_true")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", help="recompute rates and p-values from grids")
    p.add_argument("--grid", default=None, help="grid.csv from a sweep")
    p.add_argument("--metric", choices=("omega1", "omega2"), default="omega1")
    p.add_argument("--ingest", default=None, help="externally supplied omega matrix CSV")
    p.add_argument("--assume-seeds", type=_count, default=1,
                   help="replicate an aggregated matrix over this many seeds (>= 1); "
                        "the copies are not independent, so its p-value is not a valid test")
    p.add_argument("--out", default="scale-lab-out/report")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"scale-lab: usage error: {exc}", file=sys.stderr)
        return 1
    except (DomainError, DimensionError, CsvParseError, FlowAbort) as exc:
        print(f"scale-lab: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"scale-lab: i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
