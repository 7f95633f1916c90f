"""Command-line entry points.

Four subcommands:

* ``flow``   -- integrate the continuous flow for a named signal and write
               the trace plus its expansion-remainder report;
* ``probe``  -- instantaneous rescale probes (or a step-rescale experiment
               with ``--step-scale``);
* ``sweep``  -- the full (beta1, beta2) x seed training sweep with
               oscillation scoring;
* ``report`` -- recompute rates and p-values from stored grids, or score
               one externally supplied omega matrix.

Exit codes: 0 success, 1 usage error, 2 runtime or parse error.  A usage error
(a flag value the command cannot take) writes nothing.  A runtime or parse error
writes the manifest alone, with no outputs and what the run observed before it
failed (an aborted flow's ``abort_t`` too); an i/o error writing it is reported
after the error line.  README's CLI section lists which input ends in which status.

A flag's value may begin with ``-`` when a digit, or ``.`` and a digit, follows
(``--delta0 -2e-2``, ``--g -1,2``); any other value that begins with ``-``
(``-inf``) is read as a flag unless written ``--flag=value``.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import DomainError, FlowAbort, require_indexable
from .flow import TimeScales, integrate_flow, steady_state_init
from .invariance import exact_invariance_probe, step_scale_cells
from .metrics import METRICS, grid_report
from .optimizers import CellConfigs, MomentState
from .problems import PROBLEMS, make_problem
from .rng import SEED_RANGE, parse_seed
from .reporting import (RunManifest, flow_trace_csv, probe_csv, read_omega_grids,
                        read_omega_matrix, run_trace_csvs, summary_csv, sweep_grid_csv,
                        write_csv, write_csvs, write_svg_lines)
from .signals import constant_signal, exponential_signal, sinusoidal_log_signal
from .training import DEFAULT_BATCH, DEFAULT_BETA_AXIS, DEFAULT_WINDOW, sweep_grid
from .drift import measure_remainder


class UsageError(Exception):
    """Bad flag values; reported with exit status 1."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a token of "-" then a digit, or "." and a digit, is a value (-2e-2, -1,2), not a flag;
        # argparse alone takes only plain decimals such as -2 or -.5
        self._negative_number_matcher = re.compile(r"-\.?\d")

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
_nonzero_float = _flag_value(float, lambda x: x != 0.0 and math.isfinite(x),
                             "a finite non-zero number")
_beta = _flag_value(float, lambda b: 0.0 < b < 1.0, "a finite number in (0, 1)")
_seed = _flag_value(parse_seed, lambda _: True, f"a seed: ASCII decimal digits in {SEED_RANGE}")
_count = _flag_value(int, lambda n: n >= 1, "an integer >= 1")


def _values(text: str, parse=_finite_float) -> list:
    """A non-empty comma-separated list; an empty or bad item is a usage error."""
    try:
        return [parse(x) for x in text.split(",")]
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"{exc} in the list {text!r}")


def _distinct(values: list, flag: str) -> list:
    """``values``, a usage error if any value repeats."""
    if len(set(values)) != len(values):
        raise UsageError(f"{flag} repeats a value: {','.join(map(str, values))}")
    return values


def _manifest(args) -> RunManifest:
    config = {k: str(v) for k, v in sorted(vars(args).items())
              if k not in ("out", "plot", "func") and not callable(v)}
    return RunManifest(command=args.command, config=config, version=__version__)


# ---------------------------------------------------------------- flow

def _build_signal(args):
    if args.signal == "const":
        return constant_signal(args.scale)
    if args.signal == "exp":
        return exponential_signal(args.delta0, args.scale)
    return sinusoidal_log_signal(args.amplitude, args.omega, args.scale)  # "sin-log"


def cmd_flow(args, manifest: RunManifest) -> list[Path]:
    out = Path(args.out)
    ts = TimeScales(args.tau1, args.tau2)
    signal = _build_signal(args)
    t_end = args.t_end if args.t_end is not None else ts.burn_in + 5.0 * ts.tau_max
    init = steady_state_init(signal, ts)
    manifest.observed["clamped"] = init.clamped
    trace = integrate_flow(signal, ts, init, t_end=t_end, h=args.h)
    manifest.observed["h"] = trace.meta["h"]  # the step run: --h may be rounded to fit t_end
    # measured before any file is written, so a failed report leaves no outputs
    report = measure_remainder(trace, signal, ts) if t_end > ts.burn_in else None
    files = [flow_trace_csv(trace, out / "trace.csv")]
    if report is not None:
        chans = report.channels.values()
        files.append(write_csv(out / "remainder.csv",
                               ["channel", "delta0", "remainder", "bound", "constant",
                                "fitted_order"],
                               [list(report.channels),
                                [args.delta0 if args.signal == "exp" else ""] * len(chans),
                                [ch.max_abs for ch in chans],
                                ["" if ch.bound_sup is None else ch.bound_sup for ch in chans],
                                ["" if np.isnan(ch.constant) else ch.constant for ch in chans],
                                [""] * len(chans)]))
    if args.plot:
        files.append(write_svg_lines(out / "flow.svg",
                                     [("norm_R", trace.t, trace.norm_r)],
                                     title=f"flow {args.signal}"))
    r_last = float(np.max(np.abs(trace.r[-1])))
    print(f"flow: {trace.t.size} samples to t={trace.t[-1]:.10g}; ||R||_inf(end) = {r_last:.9f}")
    if report is None:
        print(f"  (run shorter than burn-in {ts.burn_in:g}; no remainder report)")
    else:
        for name, ch in report.channels.items():
            print(f"  remainder[{name}] = {ch.max_abs:.3e}")
    return files


# ---------------------------------------------------------------- probe

def cmd_probe(args, manifest: RunManifest) -> list[Path]:
    out = Path(args.out)
    files = []
    if args.step_scale:
        betas = sorted(_distinct(_values(args.beta_grid, _beta), "--beta-grid"))
        jump = args.jump if args.jump is not None else args.steps // 2
        if not 1 <= jump < args.steps:
            raise UsageError(f"--jump must lie in [1, steps - 1], got {jump} of {args.steps}")
        require_indexable(args.steps, 8 * len(betas) ** 2,
                          f"{args.steps} steps of {len(betas) ** 2} cells")
        steps = np.arange(args.steps)
        mults = np.where(steps < jump, 1.0, args.multiplier)
        pairs = [(b1, b2) for b1 in betas for b2 in betas]  # the cells in (beta1, beta2) order
        with np.errstate(over="ignore"):  # step_scale_cells reports an overflowed entry
            columns = step_scale_cells(mults[:, None] * args.base, pairs).T
        files += write_csvs([out / f"stepscale_{b1}_{b2}.csv" for b1, b2 in pairs],
                            ["step", "multiplier", "norm_R"], [steps, mults],
                            [[norms] for norms in columns])
        files.append(write_csv(out / "stepscale_summary.csv",
                               ["beta1", "beta2", "transient_integral"],
                               [[b1 for b1, _ in pairs], [b2 for _, b2 in pairs],
                                [float(np.sum(np.abs(norms[jump:] - 1.0))) for norms in columns]]))
        if args.plot:
            series = [(f"({b1},{b2})", steps, norms) for (b1, b2), norms in zip(pairs, columns)]
            files.append(write_svg_lines(out / "stepscale.svg", series,
                                         title=f"x{args.multiplier} rescale at step {jump}"))
        print(f"step-scale: {len(pairs)} cells, jump x{args.multiplier} at step {jump}")
    else:
        lambdas = _values(args.lambdas, _positive_float)
        g = np.array(_values(args.g))
        state = cells = None
        if args.method == "adam":
            m = np.array(_values(args.m)) if args.m else np.zeros_like(g)
            v = np.array(_values(args.v, _nonnegative_float)) if args.v else np.ones_like(g)
            if len(m) != len(g) or len(v) != len(g):
                raise UsageError(f"--g, --m, --v need one length, got {len(g)}, {len(m)}, {len(v)}")
            state = MomentState(np.stack((m, v)), k=args.k)
            cells = CellConfigs([(args.beta1, args.beta2)], args.epsilon, args.bias_correction)
        result = exact_invariance_probe(args.method, state, g, lambdas, cells)
        files.append(probe_csv(result, out / "probe.csv"))
        print(f"probe {args.method}: classification = {result.classification}")
        for lam, dev in zip(result.lambda_values, result.deviations):
            print(f"  lambda={lam:g}: deviation = {dev:.6e}")
    return files


# ---------------------------------------------------------------- sweep

def _print_report(prefix: str, rep) -> None:
    """``prefix`` and the K/N/p line of a scored grid, then its unscored (seed, row) pairs."""
    print(f"{prefix} K={rep.hits} N={rep.trials} rate={rep.rate:.1%} p={rep.p_value:.6g}")
    unscored = [(s, r) for s, cols in enumerate(rep.argmin_cols)
                for r, col in enumerate(cols) if col == -1]
    if unscored:
        print(f"  unscored rows (seed, row): {unscored}")


def _diverged(traces) -> list[str]:
    """Each diverged cell as ``beta1,beta2,seed:step``, the step read off its trace length."""
    return [f"{b1},{b2},{s}:{tr.norm_r.size}" for (b1, b2, s), tr in sorted(traces.items())
            if tr.diverged]


def cmd_sweep(args, manifest: RunManifest) -> list[Path]:
    out = Path(args.out)
    betas = _distinct(_values(args.beta_grid, _beta), "--beta-grid")
    n_seeds = args.seeds or 3  # each seed trains a row per cell
    require_indexable(n_seeds, 8 * len(betas) ** 2, f"{n_seeds} seeds of {len(betas) ** 2} cells")
    seeds = (list(range(n_seeds)) if args.seed_list is None
             else _distinct(_values(args.seed_list, _seed), "--seed-list"))
    problem = make_problem(args.problem, seed=args.data_seed)
    manifest.seeds = seeds
    result = sweep_grid(problem, beta_axis=betas, seeds=seeds, steps=args.steps,
                        batch_size=args.batch_size, eta=args.eta, window=args.window)
    manifest.observed["diverged"] = _diverged(result.traces)
    rep = grid_report(result.omegas[args.metric])

    files = run_trace_csvs({out / "cells" / f"trace_{b1}_{b2}_s{seed}.csv": trace
                            for (b1, b2, seed), trace in sorted(result.traces.items())})
    files.append(sweep_grid_csv(result, args.window, out / "grid.csv"))
    files.append(summary_csv(rep, out / "summary.csv"))
    if args.plot:
        series = [(f"({b1},{b2})", np.arange(tr.norm_r.size), tr.norm_r)
                  for (b1, b2, seed), tr in sorted(result.traces.items()) if seed == seeds[0]]
        files.append(write_svg_lines(out / "sweep.svg", series,
                                     title=f"{args.problem} ||R_k||, seed {seeds[0]}"))
    _print_report(f"sweep {args.problem}: metric={args.metric} window={args.window}", rep)
    return files


# ---------------------------------------------------------------- report

def cmd_report(args, manifest: RunManifest) -> list[Path]:
    if args.ingest is not None:
        cells, mode = read_omega_matrix(Path(args.ingest)), "one matrix"
    else:
        cells, mode = read_omega_grids(Path(args.grid), metric=args.metric), "per-seed"
    rep = grid_report(cells)
    files = [summary_csv(rep, Path(args.out) / "report_summary.csv")]
    _print_report(f"report ({mode}):", rep)
    return files


# ---------------------------------------------------------------- wiring

def build_parser() -> argparse.ArgumentParser:
    beta_grid = ",".join(map(str, DEFAULT_BETA_AXIS))  # "0.9,0.99,0.999"
    metric = dict(choices=tuple(METRICS), default=next(iter(METRICS)))
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
    p.add_argument("--beta1", type=_beta, default=0.9)
    p.add_argument("--beta2", type=_beta, default=0.9)
    p.add_argument("--epsilon", type=_nonnegative_float, default=0.0)
    p.add_argument("--bias-correction", action="store_true")
    p.add_argument("--step-scale", action="store_true")
    p.add_argument("--base", type=_nonzero_float, default=1.0)
    p.add_argument("--multiplier", type=_positive_float, default=10.0)
    p.add_argument("--jump", type=_count, default=None)
    p.add_argument("--steps", type=_count, default=32000)
    p.add_argument("--beta-grid", default=beta_grid)
    p.add_argument("--out", default="scale-lab-out/probe")
    p.add_argument("--plot", action="store_true")
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("sweep", help="momentum-grid training sweep")
    p.add_argument("--problem", required=True, choices=tuple(PROBLEMS))
    seeds = p.add_mutually_exclusive_group()
    # default None: argparse's group check misses a given value that is the default object
    seeds.add_argument("--seeds", type=_count, default=None, help="seeds 0..n-1 (default 3)")
    seeds.add_argument("--seed-list", default=None, help="explicit comma-separated seeds")
    p.add_argument("--data-seed", type=_seed, default=0)
    p.add_argument("--steps", type=_flag_value(int, lambda n: n >= 3, "an integer >= 3, "
                                               "the 3 samples omega2 needs"), default=5000)
    p.add_argument("--batch-size", type=_count, default=DEFAULT_BATCH)
    p.add_argument("--eta", type=_positive_float, default=None)
    p.add_argument("--window", type=_count, default=DEFAULT_WINDOW)
    p.add_argument("--metric", **metric)
    p.add_argument("--beta-grid", default=beta_grid)
    p.add_argument("--out", default="scale-lab-out/sweep")
    p.add_argument("--plot", action="store_true")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", help="recompute rates and p-values from grids")
    inputs = p.add_mutually_exclusive_group(required=True)
    inputs.add_argument("--grid", help="grid.csv from a sweep")
    inputs.add_argument("--ingest", help="externally supplied omega matrix CSV")
    p.add_argument("--metric", **metric)
    p.add_argument("--out", default="scale-lab-out/report")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    manifest = _manifest(args)  # built first, so duration_s spans the command
    try:
        try:
            for f in args.func(args, manifest):
                manifest.add_output(f)
            status = 0
        except (DomainError, MemoryError) as exc:  # CsvParseError and FlowAbort included
            oom = "out of memory: " if isinstance(exc, MemoryError) else ""
            print(f"scale-lab: error: {oom}{exc}", file=sys.stderr)
            if isinstance(exc, FlowAbort):  # the flow left its domain at exc.t
                manifest.observed["abort_t"] = exc.t
            status = 2
        manifest.write(Path(args.out))  # a failed run's too: no outputs, what it observed
        return status
    except UsageError as exc:
        print(f"scale-lab: usage error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"scale-lab: i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
