"""CSV emission, run manifests, and minimal SVG line charts.

Every CSV goes through one writer, ``write_csv``, and has one byte
contract: a header line, then one line per row, every line ending in
``\r\n``; fields separated by commas with no quoting; a float (Python or
numpy) written as the ``repr`` of the Python float, which is the shortest
text that round-trips (``0.1``, ``1e-05``, ``-0.0``, ``nan``, ``inf``); an
integer in decimal; any other value as its ``str``.  A field that would
need quoting (one holding a comma, a double quote or a line break, or the
empty field of a one-column row) is a ``DomainError``; no CLI output has
one.  So any CSV reader parses the files, and rerunning a deterministic
command reproduces them byte for byte.  Each CLI run writes a manifest
(flat key=value text plus a JSON mirror) tying every output file to a
SHA-256 hash.
"""

from __future__ import annotations

import csv
import hashlib
import json
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DomainError
from .flow import FlowTrace
from .invariance import RescaleProbeResult, StepTrace
from .metrics import OscillationGridReport
from .training import RunTrace, SweepResult


class CsvParseError(DomainError):
    """Malformed CSV; carries the offending line number."""

    def __init__(self, path, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"{path}:{line_no}: {message}")


# Rows formatted at a time.  It bounds the strings alive at once: on the default
# step-scale run 2048 rows held ~0.4 MB more peak RSS than 1024, at the same speed.
_BLOCK_ROWS = 1024

_NEEDS_QUOTING = re.compile(r'[,"\r\n]')


def _checked(texts: list[str], lone: bool) -> list[str]:
    """``texts`` unchanged, unless one would need quoting (csv also quotes a lone empty field)."""
    for text in texts:
        if _NEEDS_QUOTING.search(text) or (lone and not text):
            raise DomainError(f"CSV field would need quoting: {text!r}")
    return texts


def _format_floats(block: np.ndarray) -> list[str]:
    """``repr`` per value, each distinct bit pattern formatted once (so -0.0 stays -0.0)."""
    _, first, inverse = np.unique(block.view(np.int64), return_index=True, return_inverse=True)
    texts = np.array(list(map(repr, block[first].tolist())), dtype=object)
    return texts[inverse].tolist()


def _format_value(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _format_block(block, lone: bool) -> list[str]:
    if isinstance(block, np.ndarray) and block.dtype == np.float64:
        return _format_floats(block)
    if isinstance(block, np.ndarray) and block.dtype.kind in "iu":
        return list(map(str, block.tolist()))
    return _checked(list(map(_format_value, block)), lone)


def write_csv(path: Path, header: Sequence[str], columns: Sequence) -> Path:
    """Write ``columns`` (1-D numpy arrays or sequences) under ``header``, ``_BLOCK_ROWS``
    rows at a time; the byte contract is in the module docstring."""
    path = Path(path)
    columns = [c if isinstance(c, np.ndarray) else list(c) for c in columns]
    n_rows = len(columns[0]) if columns else 0
    if len(columns) != len(header) or any(np.ndim(c) != 1 or len(c) != n_rows for c in columns):
        raise DomainError(f"a CSV table needs one 1-D column per header name {list(header)}, "
                          f"all of one length; got lengths {[len(c) for c in columns]}")
    lone = len(columns) == 1
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        fh.write(",".join(_checked([str(name) for name in header], lone)) + "\r\n")
        for start in range(0, n_rows, _BLOCK_ROWS):
            fields = [_format_block(c[start:start + _BLOCK_ROWS], lone) for c in columns]
            fh.write("\r\n".join(map(",".join, zip(*fields))) + "\r\n")
    return path


class CsvColumns(dict):
    """String columns by header name; ``lines[i]`` is the file line of row i (blank lines skipped)."""


def read_csv_columns(path: Path) -> CsvColumns:
    """Read a headed CSV back into string columns; parse errors carry line numbers."""
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvParseError(path, 1, "empty file")
        cols = CsvColumns((name, []) for name in header)
        cols.lines = []
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise CsvParseError(path, reader.line_num,
                                    f"expected {len(header)} fields, got {len(row)}")
            cols.lines.append(reader.line_num)
            for name, value in zip(header, row):
                cols[name].append(value)
    return cols


def parse_float(path, line_no: int, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise CsvParseError(path, line_no, f"not a number: {text!r}")


# ---------------------------------------------------------------- traces

def flow_trace_csv(trace: FlowTrace, path: Path) -> Path:
    d = trace.m.shape[1]
    header = (["t"] + [f"m_{i}" for i in range(d)] + [f"v_{i}" for i in range(d)]
              + [f"R_{i}" for i in range(d)] + ["norm_R"])
    return write_csv(path, header, [trace.t, *trace.m.T, *trace.v.T, *trace.r.T, trace.norm_r])


def run_trace_csv(trace: RunTrace, path: Path) -> Path:
    return write_csv(path, ["step", "loss", "norm_R"], [trace.k, trace.loss, trace.norm_r])


def step_trace_csv(trace: StepTrace, path: Path) -> Path:
    return write_csv(path, ["step", "multiplier", "norm_R"],
                     [trace.steps, trace.multiplier, trace.norm_r])


def probe_csv(result: RescaleProbeResult, path: Path) -> Path:
    n = len(result.lambda_values)
    return write_csv(path, ["method", "lambda", "deviation", "classification"],
                     [[result.method] * n, result.lambda_values, result.deviations,
                      [result.classification] * n])


# ---------------------------------------------------------------- grids

def sweep_grid_csv(result: SweepResult, path: Path) -> Path:
    """Per-cell oscillation rows: beta1, beta2, seed, omega1, omega2, window."""
    cells = sorted(result.omegas.items())
    return write_csv(path, ["beta1", "beta2", "seed", "omega1", "omega2", "window"],
                     [[b1 for (b1, _, _), _ in cells], [b2 for (_, b2, _), _ in cells],
                      [seed for (_, _, seed), _ in cells],
                      [om["omega1"] for _, om in cells], [om["omega2"] for _, om in cells],
                      [result.window] * len(cells)])


def summary_csv(report: OscillationGridReport, path: Path) -> Path:
    return write_csv(path, ["rate", "K", "N", "p_value"],
                     [[report.rate], [report.hits], [report.trials], [report.p_value]])


def read_omega_grids(path: Path, metric: str = "omega1"):
    """Rebuild per-seed omega matrices from a sweep grid CSV."""
    cols = read_csv_columns(path)
    for needed in ("beta1", "beta2", "seed", metric):
        if needed not in cols:
            raise CsvParseError(path, 1, f"missing column {needed!r}")
    b1s = [parse_float(path, n, x) for n, x in zip(cols.lines, cols["beta1"])]
    b2s = [parse_float(path, n, x) for n, x in zip(cols.lines, cols["beta2"])]
    seeds = [int(parse_float(path, n, x)) for n, x in zip(cols.lines, cols["seed"])]
    omegas = [parse_float(path, n, x) for n, x in zip(cols.lines, cols[metric])]
    axis = sorted(set(b1s))
    if sorted(set(b2s)) != axis:
        raise CsvParseError(path, 1, "beta1 and beta2 axes disagree")
    seed_list = sorted(set(seeds))
    lines: dict[tuple[float, float, int], int] = {}
    for n, cell in zip(cols.lines, zip(b1s, b2s, seeds)):
        if cell in lines:
            raise CsvParseError(path, n, f"duplicate cell (beta1, beta2, seed) = {cell}, "
                                         f"first on line {lines[cell]}")
        lines[cell] = n
    for cell in ((b1, b2, s) for s in seed_list for b1 in axis for b2 in axis):
        if cell not in lines:
            raise CsvParseError(path, cols.lines[-1] if cols.lines else 1,
                                f"missing cell (beta1, beta2, seed) = {cell}: no line has it")
    grids = {s: np.empty((len(axis), len(axis))) for s in seed_list}
    for (b1, b2, s), w in zip(zip(b1s, b2s, seeds), omegas):
        grids[s][axis.index(b1), axis.index(b2)] = w
    return [grids[s] for s in seed_list], axis


def read_omega_matrix(path: Path):
    """Read an externally supplied omega matrix (header: beta1, then beta2 values)."""
    cols = read_csv_columns(path)
    names = list(cols.keys())
    if len(names) < 2 or names[0] != "beta1":
        raise CsvParseError(path, 1, "expected header: beta1,<beta2 values...>")
    axis_cols = [parse_float(path, 1, c) for c in names[1:]]
    rows_b1 = [parse_float(path, n, x) for n, x in zip(cols.lines, cols["beta1"])]
    if rows_b1 != axis_cols:
        raise CsvParseError(path, 1, "row beta1 values must match column beta2 values")
    n = len(axis_cols)
    matrix = np.full((n, n), np.nan)
    for j, name in enumerate(names[1:]):
        for i, (line, x) in enumerate(zip(cols.lines, cols[name])):
            if x.strip().lower() in ("nan", ""):
                matrix[i, j] = np.nan
            else:
                matrix[i, j] = parse_float(path, line, x)
    return matrix, axis_cols


# ---------------------------------------------------------------- manifest

@dataclass
class RunManifest:
    """Ties every emitted file of a run to the exact configuration."""

    command: str
    config: dict
    seeds: list[int] = field(default_factory=list)
    version: str = ""
    started: float = field(default_factory=time.time)
    duration_s: float = 0.0
    outputs: dict[str, str] = field(default_factory=dict)  # path -> sha256

    def add_output(self, path: Path) -> None:
        digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
        self.outputs[str(path)] = digest

    def finish(self) -> None:
        self.duration_s = time.time() - self.started

    def write(self, directory: Path) -> tuple[Path, Path]:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        txt = directory / "manifest.txt"
        lines = [f"command={self.command}", f"version={self.version}",
                 f"duration_s={self.duration_s:.3f}",
                 f"seeds={','.join(str(s) for s in self.seeds)}"]
        for key in sorted(self.config):
            lines.append(f"config.{key}={self.config[key]}")
        for path in sorted(self.outputs):
            lines.append(f"output.{path}={self.outputs[path]}")
        txt.write_text("\n".join(lines) + "\n")
        js = directory / "manifest.json"
        js.write_text(json.dumps({
            "command": self.command, "version": self.version,
            "duration_s": self.duration_s, "seeds": self.seeds,
            "config": self.config, "outputs": self.outputs,
        }, indent=2, sort_keys=True) + "\n")
        return txt, js


# ---------------------------------------------------------------- SVG plots

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def write_svg_lines(path: Path, series: Sequence[tuple[str, np.ndarray, np.ndarray]],
                    title: str = "", width: int = 640, height: int = 400) -> Path:
    """A minimal multi-series line chart; enough to eyeball a trace."""
    if not series:
        raise DomainError("nothing to plot")
    pad = 50
    xs_all = np.concatenate([np.asarray(x, dtype=float) for _, x, _ in series])
    ys_all = np.concatenate([np.asarray(y, dtype=float) for _, _, y in series])
    finite = np.isfinite(ys_all)
    x0, x1 = float(xs_all.min()), float(xs_all.max())
    y0, y1 = float(ys_all[finite].min()), float(ys_all[finite].max())
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0

    def sx(x): return pad + (x - x0) / (x1 - x0) * (width - 2 * pad)
    def sy(y): return height - pad - (y - y0) / (y1 - y0) * (height - 2 * pad)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>',
             f'<text x="{width/2:.0f}" y="20" text-anchor="middle" font-size="14">{title}</text>']
    parts.append(f'<line x1="{pad}" y1="{height-pad}" x2="{width-pad}" y2="{height-pad}" stroke="black"/>')
    parts.append(f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height-pad}" stroke="black"/>')
    for frac in (0.0, 0.5, 1.0):
        xv, yv = x0 + frac * (x1 - x0), y0 + frac * (y1 - y0)
        parts.append(f'<text x="{sx(xv):.1f}" y="{height-pad+16}" text-anchor="middle" '
                     f'font-size="10">{xv:.4g}</text>')
        parts.append(f'<text x="{pad-6}" y="{sy(yv)+3:.1f}" text-anchor="end" '
                     f'font-size="10">{yv:.4g}</text>')
    for i, (label, x, y) in enumerate(series):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        ok = np.isfinite(y)
        points = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(x[ok], y[ok]))
        color = _PALETTE[i % len(_PALETTE)]
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.2" points="{points}"/>')
        parts.append(f'<text x="{width-pad}" y="{pad + 14*i}" text-anchor="end" '
                     f'font-size="11" fill="{color}">{label}</text>')
    parts.append("</svg>")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(parts) + "\n")
    return path
