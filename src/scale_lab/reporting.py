"""CSV emission, run manifests, and minimal SVG line charts.

Every CSV goes through one writer, ``write_csvs``, and has one byte
contract: a header line, then one line per row, every line ending in
``\r\n``; fields separated by commas with no quoting; a float (Python or
numpy) written as the ``repr`` of the Python float, which is the shortest
text that round-trips (``0.1``, ``1e-05``, ``-0.0``, ``nan``, ``inf``); an
integer in decimal; any other value as its ``str``.  A field that would
need quoting (one holding a comma, a double quote or a line break, or the
empty field of a one-column row) is a ``DomainError``; no CLI output has
one.  So any CSV reader parses the files, and rerunning a deterministic
command reproduces them byte for byte.  Each block of ``_BLOCK_ROWS`` rows
is one flat list of fields and separators, written with one join; a float
block whose values all have one bit pattern is formatted once.  Tables
that share their leading columns (the step-scale probe's ``step`` and
``multiplier``, a sweep's ``step``) are written in one call: per block each
row's shared fields are formatted and joined once, with the comma after
them, into a lead string, and each table's row is that lead, its own fields
and their separators (3 items for a step-scale file).  At most
``_OPEN_FILES`` (64) files are open at once, so a larger family is written
in groups of 64.  ``write_csv`` is the one-table case.  Each CLI run writes
a JSON manifest tying every output file to a SHA-256 hash.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from itertools import repeat, zip_longest
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DomainError
from .flow import FlowTrace
from .invariance import RescaleProbeResult
from . import rng
from .metrics import METRICS, OscillationGridReport, omega_grids
from .training import LOSS_EVERY, RunTrace, SweepResult


class CsvParseError(DomainError):
    """Malformed CSV; the message names the file and the offending line."""

    def __init__(self, path, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")


# Rows formatted at a time.  It bounds the strings alive at once: on the default
# step-scale run 2048 rows held ~0.4 MB more peak RSS than 1024, at the same speed.
_BLOCK_ROWS = 1024

_NEEDS_QUOTING = re.compile(r'[,"\r\n]')


def _checked(texts: list[str], lone: bool) -> list[str]:
    """``texts`` unchanged, unless one would need quoting (csv also quotes a lone empty field);
    one search covers the whole block, and only a hit looks for the first field at fault."""
    if _NEEDS_QUOTING.search("".join(texts)) or (lone and "" in texts):
        for text in texts:
            if _NEEDS_QUOTING.search(text) or (lone and not text):
                raise DomainError(f"CSV field would need quoting: {text!r}")
    return texts


def _format_floats(block: np.ndarray) -> list[str]:
    """``repr`` per value; a constant block, every value with the first one's bits (compared
    as ``int64``, so -0.0 stays -0.0 beside 0.0), is formatted once and its text repeated."""
    bits = block.view(np.int64)
    if bits.size and (bits == bits[0]).all():
        return [repr(float(block[0]))] * bits.size
    return list(map(repr, block.tolist()))


def _format_value(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _format_block(block, lone: bool) -> list[str]:
    if isinstance(block, np.ndarray) and block.dtype == np.float64:
        return _format_floats(block)
    if isinstance(block, np.ndarray) and block.dtype.kind in "iu":
        return list(map(str, block.tolist()))
    return _checked([x if isinstance(x, str) else _format_value(x) for x in block], lone)


def _is_flat(column) -> bool:
    """Whether a column is 1-D, without converting a list of strings to an array to find out."""
    if isinstance(column, np.ndarray):
        return column.ndim == 1
    return not any(np.ndim(x) for x in column if not isinstance(x, str))


# Files one ``write_csvs`` call holds open at once, so a large beta grid cannot run out
# of file descriptors; a larger family is written in groups, each formatting the shared
# columns again.
_OPEN_FILES = 64


def write_csvs(paths: Sequence[Path], header: Sequence[str], shared: Sequence,
               tables: Sequence[Sequence]) -> list[Path]:
    """Write one CSV per path under one ``header``: the ``shared`` columns, then that path's
    own columns of ``tables`` (1-D numpy arrays or sequences, all of one length).  Per block
    of ``_BLOCK_ROWS`` rows each shared column is formatted once for up to ``_OPEN_FILES``
    files; the byte contract is in the module docstring."""
    def flat_columns(columns):
        return [c if isinstance(c, np.ndarray) else list(c) for c in columns]

    paths = [Path(p) for p in paths]
    shared = flat_columns(shared)
    tables = [flat_columns(t) for t in tables]
    if len(tables) != len(paths):
        raise DomainError(f"one table per path: got {len(tables)} tables for {len(paths)} paths")
    every = [*shared, *(c for table in tables for c in table)]
    n_rows = len(every[0]) if every else 0
    for table in tables:
        columns = shared + table
        if len(columns) != len(header) or any(len(c) != n_rows or not _is_flat(c) for c in columns):
            raise DomainError(f"a CSV table needs one 1-D column per header name {list(header)}, "
                              f"all of one length; got lengths {[len(c) for c in columns]}")
    lone = len(header) == 1
    head = ",".join(_checked([str(name) for name in header], lone)) + "\r\n"
    # A row is its lead, if there are shared columns (their fields, joined once per block for
    # every table, and the comma before the first own field, if any), then its own fields and
    # separators: own field j goes to first + 2 * j.
    own = len(header) - len(shared)
    first = int(bool(shared))
    row = [""] * first + [","] * (2 * own - 1) + ["\r\n"]
    for group in range(0, len(paths), _OPEN_FILES):
        with ExitStack() as stack:
            handles = []
            for path in paths[group:group + _OPEN_FILES]:
                path.parent.mkdir(parents=True, exist_ok=True)
                handles.append(stack.enter_context(path.open("w", newline="")))
                handles[-1].write(head)
            for start in range(0, n_rows, _BLOCK_ROWS):
                rows = slice(start, start + _BLOCK_ROWS)
                flat = row * min(_BLOCK_ROWS, n_rows - start)
                if shared:
                    texts = [_format_block(column[rows], lone) for column in shared]
                    flat[::len(row)] = map(",".join, zip(*texts, *[repeat("")] * (own > 0)))
                for fh, table in zip(handles, tables[group:group + _OPEN_FILES]):
                    for j, column in enumerate(table):
                        flat[first + 2 * j::len(row)] = _format_block(column[rows], lone)
                    fh.write("".join(flat))
    return paths


def write_csv(path: Path, header: Sequence[str], columns: Sequence) -> Path:
    """Write ``columns`` under ``header``: ``write_csvs`` with one table and no shared columns."""
    return write_csvs([path], header, [], [columns])[0]


class CsvColumns(dict):
    """String columns by header name; ``lines[i]`` is the file line of row i (blank lines skipped)."""


def _rows(path: Path, reader):
    """``reader``'s rows; a ``csv.Error`` (a field past the csv module's size limit) is a
    ``CsvParseError`` on the reader's line."""
    try:
        yield from reader
    except csv.Error as exc:
        raise CsvParseError(path, reader.line_num, f"unreadable CSV: {exc}") from None


def read_csv_columns(path: Path) -> CsvColumns:
    """A headed UTF-8 CSV as string columns, a leading byte-order mark skipped (spreadsheets
    write one); parse errors (a repeated name too) name their line."""
    path = Path(path)
    data = path.read_bytes()
    try:
        reader = csv.reader(io.StringIO(data.decode("utf-8-sig"), newline=""))
    except UnicodeDecodeError as exc:  # exc.start indexes exc.object, the bytes after a mark
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise CsvParseError(path, line, f"not UTF-8: {exc}")
    rows = _rows(path, reader)
    try:
        header = next(rows)
    except StopIteration:
        raise CsvParseError(path, 1, "empty file")
    cols = CsvColumns((name, []) for name in header)
    if len(cols) != len(header):
        raise CsvParseError(path, 1, f"header repeats a name: {','.join(header)}")
    cols.lines = []
    for row in rows:
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


def parse_beta(path, line_no: int, text: str) -> float:
    """A beta value, as ``sweep --beta-grid`` accepts them: a number in (0, 1)."""
    beta = parse_float(path, line_no, text)
    if not 0.0 < beta < 1.0:
        raise CsvParseError(path, line_no, f"beta outside (0, 1): {text!r}")
    return beta


def parse_omega(path, line_no: int, text: str) -> float:
    """An omega, a mean of absolute differences: NaN (a diverged cell) or a number >= 0."""
    omega = parse_float(path, line_no, text)
    if omega < 0.0:
        raise CsvParseError(path, line_no, f"negative omega: {text!r}")
    return omega


def parse_seed(path, line_no: int, text: str) -> int:
    """A seed, as ``sweep --seed-list`` accepts them: ``rng.parse_seed``."""
    try:
        return rng.parse_seed(text)
    except DomainError as exc:
        raise CsvParseError(path, line_no, str(exc)) from None


# ---------------------------------------------------------------- traces

def flow_trace_csv(trace: FlowTrace, path: Path) -> Path:
    d = trace.m.shape[1]
    header = (["t"] + [f"m_{i}" for i in range(d)] + [f"v_{i}" for i in range(d)]
              + [f"R_{i}" for i in range(d)] + ["norm_R"])
    return write_csv(path, header, [trace.t, *trace.m.T, *trace.v.T, *trace.r.T, trace.norm_r])


def run_trace_csvs(traces: dict[Path, RunTrace]) -> list[Path]:
    """One row per step, the ``loss`` field empty off every LOSS_EVERY-th step; traces of one
    length (a diverged one stops early) share their ``step`` column in one ``write_csvs`` call."""
    by_length: dict[int, dict[Path, list]] = {}
    for path, trace in traces.items():
        loss = [""] * trace.norm_r.size
        loss[::LOSS_EVERY] = _format_floats(trace.loss)
        by_length.setdefault(trace.norm_r.size, {})[path] = [loss, trace.norm_r]
    for n, group in by_length.items():
        write_csvs(list(group), ["step", "loss", "norm_R"], [np.arange(n)], list(group.values()))
    return list(traces)


def probe_csv(result: RescaleProbeResult, path: Path) -> Path:
    n = len(result.lambda_values)
    return write_csv(path, ["method", "lambda", "deviation", "classification"],
                     [[result.method] * n, result.lambda_values, result.deviations,
                      [result.classification] * n])


# ---------------------------------------------------------------- grids

def sweep_grid_csv(result: SweepResult, window: int, path: Path) -> Path:
    """Per-cell rows: beta1, beta2, seed, one column per metric of ``METRICS``, the EMA window."""
    cells = sorted(result.traces)
    return write_csv(path, ["beta1", "beta2", "seed", *METRICS, "window"],
                     [*zip(*cells), *([result.omegas[name][cell] for cell in cells]
                                      for name in METRICS), [window] * len(cells)])


def summary_csv(report: OscillationGridReport, path: Path) -> Path:
    return write_csv(path, ["rate", "K", "N", "p_value"],
                     [[report.rate], [report.hits], [report.trials], [report.p_value]])


def read_omega_grids(path: Path, metric: str):
    """Rebuild per-seed matrices of one metric's column from a sweep grid CSV."""
    cols = read_csv_columns(path)
    for needed in ("beta1", "beta2", "seed", metric):
        if needed not in cols:
            raise CsvParseError(path, 1, f"missing column {needed!r}")
    b1s = [parse_beta(path, n, x) for n, x in zip(cols.lines, cols["beta1"])]
    b2s = [parse_beta(path, n, x) for n, x in zip(cols.lines, cols["beta2"])]
    seeds = [parse_seed(path, n, x) for n, x in zip(cols.lines, cols["seed"])]
    omegas = [parse_omega(path, n, x) for n, x in zip(cols.lines, cols[metric])]
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
    return omega_grids(dict(zip(zip(b1s, b2s, seeds), omegas)), axis, seed_list), axis


def read_omega_matrix(path: Path):
    """Read an externally supplied omega matrix (header: beta1, then beta2 values)."""
    cols = read_csv_columns(path)
    names = list(cols.keys())
    if len(names) < 2 or names[0] != "beta1":
        raise CsvParseError(path, 1, "expected header: beta1,<beta2 values...>")
    axis_cols = [parse_beta(path, 1, c) for c in names[1:]]
    repeated = [b for i, b in enumerate(axis_cols) if b in axis_cols[:i]]
    if repeated:
        raise CsvParseError(path, 1, f"beta axis repeats the value {repeated[0]!r}")
    rows_b1 = [parse_beta(path, n, x) for n, x in zip(cols.lines, cols["beta1"])]
    if rows_b1 != axis_cols:  # name the first row off the axis, or the last if one is missing
        i = next(i for i, (b1, b2) in enumerate(zip_longest(rows_b1, axis_cols)) if b1 != b2)
        raise CsvParseError(path, cols.lines[min(i, len(cols.lines) - 1)] if cols.lines else 1,
                            "row beta1 values must match column beta2 values")
    rows = zip(cols.lines, zip(*(cols[name] for name in names[1:])))
    matrix = np.array([[parse_omega(path, line, x) if x.strip() else np.nan for x in fields]
                       for line, fields in rows])  # an empty field is NaN
    return matrix, axis_cols


# ---------------------------------------------------------------- manifest

@dataclass
class RunManifest:
    """Ties every emitted file of a run to the exact configuration."""

    command: str
    config: dict
    seeds: list[int] = field(default_factory=list)
    version: str = ""
    observed: dict = field(default_factory=dict)  # what the run found, e.g. flow's abort_t
    started: float = field(default_factory=time.time)
    duration_s: float = 0.0
    outputs: dict[str, str] = field(default_factory=dict)  # path -> sha256

    def add_output(self, path: Path) -> None:
        digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
        self.outputs[str(path)] = digest

    def write(self, directory: Path) -> Path:
        self.duration_s = time.time() - self.started
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        js = directory / "manifest.json"
        js.write_text(json.dumps({
            "command": self.command, "version": self.version,
            "duration_s": self.duration_s, "seeds": self.seeds,
            "config": self.config, "observed": self.observed, "outputs": self.outputs,
        }, indent=2, sort_keys=True) + "\n")
        return js


# ---------------------------------------------------------------- SVG plots

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def write_svg_lines(path: Path, series: Sequence[tuple[str, np.ndarray, np.ndarray]],
                    title: str = "") -> Path:
    """A minimal 640 x 400 multi-series line chart; enough to eyeball a trace."""
    if not series:
        raise DomainError("nothing to plot")
    width, height, pad = 640, 400, 50
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
