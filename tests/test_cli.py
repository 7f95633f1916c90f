import hashlib
import json
import math

import numpy as np
import pytest

from scale_lab import __version__
from scale_lab.cli import build_parser, main
from scale_lab.reporting import read_csv_columns

TABLE_STYLE_MATRIX = """beta1,0.9,0.99,0.999
0.9,0.6329,1.063,1.147
0.99,0.4227,0.2413,0.2644
0.999,0.5249,0.2356,0.05768
"""

VIT_STYLE_MATRIX = """beta1,0.9,0.99,0.999
0.9,0.2925,0.6410,0.6777
0.99,356.3,0.07104,0.09244
0.999,NaN,204.2,0.0735
"""


def run(*argv):
    return main(list(argv))


class TestExitCodes:
    def test_missing_required_flag_is_usage(self, capsys):
        assert run("flow") == 1

    def test_bad_choice_is_usage(self):
        assert run("flow", "--signal", "bogus") == 1

    def test_nonpositive_lambda_is_usage(self, tmp_path):
        assert run("probe", "--method", "gd", "--lambdas", "0,-1",
                   "--out", str(tmp_path)) == 1

    def test_bad_beta_grid_is_usage(self, tmp_path):
        assert run("sweep", "--problem", "logistic", "--beta-grid", "0.9,1.5",
                   "--out", str(tmp_path)) == 1

    def test_parse_error_is_runtime(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert run("report", "--ingest", str(empty), "--out", str(tmp_path / "o")) == 2

    def test_report_without_inputs_is_runtime(self, tmp_path):
        assert run("report", "--out", str(tmp_path)) == 2

    @pytest.mark.parametrize("argv", [
        ("probe", "--lambdas", "nan"),
        ("probe", "--g", "1,inf"),
        ("probe", "--step-scale", "--steps", "20", "--multiplier", "nan"),
        ("probe", "--step-scale", "--steps", "20", "--beta-grid", "0.9,nan"),
        ("flow", "--signal", "exp", "--delta0", "nan"),
        ("flow", "--signal", "const", "--t-end", "inf"),
        ("sweep", "--problem", "quadratic", "--steps", "20", "--eta", "nan"),
        ("sweep", "--problem", "quadratic", "--steps", "20", "--beta-grid=-inf,0.9"),
    ], ids=" ".join)
    def test_non_finite_float_is_usage_error(self, tmp_path, capsys, argv):
        assert run(*argv, "--out", str(tmp_path)) == 1
        assert "finite" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ("sweep", "--problem", "quadratic", "--seed-list", "-1"),
        ("sweep", "--problem", "quadratic", "--data-seed", "-1"),
        ("sweep", "--problem", "quadratic", "--seed-list", "1.5"),
        ("sweep", "--problem", "quadratic", "--seed-list", "1,1"),
        ("sweep", "--problem", "quadratic", "--batch-size", "0"),
        ("sweep", "--problem", "quadratic", "--seed-list", ","),
        ("probe", "--g", ""),
        ("probe", "--lambdas", "2,x"),
        ("probe", "--step-scale", "--beta-grid", ","),
    ], ids=" ".join)
    def test_malformed_seeds_batch_size_and_lists_are_usage_errors(self, tmp_path, capsys,
                                                                   argv):
        assert run(*argv, "--steps", "20", "--out", str(tmp_path)) == 1
        err = capsys.readouterr().err
        assert "error" in err and "Traceback" not in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ("probe", "--step-scale", "--steps", "0"),
        ("probe", "--step-scale", "--steps", "1"),
        ("probe", "--step-scale", "--steps", "10", "--jump", "20"),
        ("probe", "--step-scale", "--steps", "10", "--jump", "10"),
        ("probe", "--step-scale", "--steps", "10", "--jump", "-3"),
        ("probe", "--method", "adam", "--g", "1", "--k", "-1", "--bias-correction"),
        ("probe", "--method", "adam", "--g", "1", "--v", "-1", "--lambdas", "2"),
        ("probe", "--method", "adam", "--beta1", "1.5"),
        ("probe", "--method", "adam", "--beta2", "0"),
        ("probe", "--method", "adam", "--epsilon", "-1"),
        ("probe", "--step-scale", "--eta", "-1", "--steps", "100"),
        ("sweep", "--problem", "quadratic", "--eta", "-1", "--steps", "10", "--seeds", "1"),
        ("flow", "--signal", "const", "--h", "0"),
        ("flow", "--signal", "const", "--dt", "-1"),
        ("flow", "--signal", "const", "--tau1", "0"),
        ("flow", "--signal", "const", "--tau2", "0"),
        ("flow", "--signal", "const", "--eta-bar", "0"),
        ("flow", "--signal", "const", "--t-end", "-5"),
        ("sweep", "--problem", "quadratic", "--window", "0"),
        ("sweep", "--problem", "quadratic", "--seeds", "0"),
        ("sweep", "--problem", "quadratic", "--beta-grid", "0.9,0.9", "--seeds", "2",
         "--steps", "40", "--window", "5"),
        ("probe", "--step-scale", "--beta-grid", "0.9,0.9"),
        ("probe", "--step-scale", "--multiplier", "0"),
        ("probe", "--step-scale", "--multiplier", "-2"),
        ("probe", "--step-scale", "--base", "0"),
        ("sweep", "--problem", "quadratic", "--seeds", "2", "--seed-list", "4,5"),
        ("sweep", "--problem", "quadratic", "--seeds", "3", "--seed-list", "4,5"),
        # removed flags: they changed no output
        ("flow", "--signal", "const", "--dt", "0.5"),
        ("flow", "--signal", "const", "--eta-bar", "2"),
        ("probe", "--step-scale", "--eta", "0.1"),
        ("report", "--ingest", "m.csv", "--assume-seeds", "3"),
    ], ids=" ".join)
    def test_out_of_range_flag_is_usage_error(self, tmp_path, capsys, argv):
        assert run(*argv, "--out", str(tmp_path)) == 1
        err = capsys.readouterr().err
        assert "error" in err and "Traceback" not in err
        assert not any(tmp_path.iterdir())


class TestFlowCommand:
    def test_exponential_flow_matches_gain_formula(self, tmp_path, capsys):
        out = tmp_path / "flow"
        code = run("flow", "--signal", "exp", "--delta0", "0.05", "--tau1", "1",
                   "--tau2", "1", "--t-end", "50", "--out", str(out))
        assert code == 0
        cols = read_csv_columns(out / "trace.csv")
        t = np.array([float(x) for x in cols["t"]])
        r = np.array([float(x) for x in cols["R_0"]])
        gain = (1.0 / 1.05) / math.sqrt(1.0 / 1.1)
        assert np.max(np.abs(r[t >= 10.0] - gain)) < 1e-6
        rem = read_csv_columns(out / "remainder.csv")
        assert rem["channel"] == ["m", "v", "R"]
        assert all(float(x) >= 0.0 for x in rem["remainder"])

    def test_constant_flow_r_is_unit(self, tmp_path):
        out = tmp_path / "flow"
        assert run("flow", "--signal", "const", "--t-end", "20", "--out", str(out)) == 0
        cols = read_csv_columns(out / "trace.csv")
        assert float(cols["norm_R"][-1]) == pytest.approx(1.0, abs=1e-8)

    def test_plot_emits_svg(self, tmp_path):
        out = tmp_path / "flow"
        assert run("flow", "--signal", "const", "--t-end", "5", "--plot",
                   "--out", str(out)) == 0
        svg = (out / "flow.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    @pytest.mark.parametrize("argv", [("--h", "1e-300"), ("--t-end", "1e300")], ids=" ".join)
    def test_step_count_beyond_numpy_index_is_runtime_error(self, tmp_path, capsys, argv):
        # rejected before any grid is allocated
        out = tmp_path / "flow"
        assert run("flow", "--signal", "const", *argv, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "more than numpy can index" in err and "h=" in err and "Traceback" not in err
        assert not (out / "trace.csv").exists()


class TestProbeCommand:
    def test_signsgd_classification(self, tmp_path):
        out = tmp_path / "p"
        assert run("probe", "--method", "signsgd", "--lambdas", "0.1,2,10",
                   "--g", "3.7,-0.01", "--out", str(out)) == 0
        cols = read_csv_columns(out / "probe.csv")
        assert set(cols["classification"]) == {"exact-invariant"}
        assert all(float(d) == 0.0 for d in cols["deviation"])

    def test_gd_classification(self, tmp_path):
        out = tmp_path / "p"
        assert run("probe", "--method", "gd", "--lambdas", "3", "--g", "1,-2",
                   "--out", str(out)) == 0
        cols = read_csv_columns(out / "probe.csv")
        assert cols["classification"] == ["scale-linear"]
        assert float(cols["deviation"][0]) == 4.0

    @pytest.mark.parametrize("argv", [
        ("--method", "gd", "--g", "1e-20", "--lambdas", "2"),
        ("--method", "adam", "--g", "1e-160", "--lambdas", "2"),
    ], ids=" ".join)
    def test_tiny_gradient_is_scale_linear(self, tmp_path, capsys, argv):
        # the deviation is tiny in absolute terms but half of ||R(2 g)||_inf
        out = tmp_path / "p"
        assert run("probe", *argv, "--out", str(out)) == 0
        assert "classification = scale-linear" in capsys.readouterr().out
        assert read_csv_columns(out / "probe.csv")["classification"] == ["scale-linear"]

    def test_adam_frozen_state(self, tmp_path):
        out = tmp_path / "p"
        assert run("probe", "--method", "adam", "--beta1", "0.9", "--beta2", "0.9",
                   "--m", "1", "--v", "1", "--g", "1", "--lambdas", "2",
                   "--out", str(out)) == 0
        cols = read_csv_columns(out / "probe.csv")
        assert cols["classification"] == ["other"]
        assert float(cols["deviation"][0]) == pytest.approx(1.0 - 0.9647638212377321,
                                                            abs=1e-12)

    @pytest.mark.parametrize("argv", [
        ("--method", "adam", "--g", "1e200", "--lambdas", "2"),
        ("--method", "gd", "--g", "1e300", "--lambdas", "1e10"),
        ("--method", "adam", "--g", "1e300", "--lambdas", "1e10"),
        ("--step-scale", "--base", "1e200", "--steps", "100"),
    ], ids=" ".join)
    def test_overflowed_probe_is_runtime_error(self, tmp_path, capsys, argv):
        # (keep2 * g) * g or lambda * g overflows: no deviation or ||R|| may be reported from it
        out = tmp_path / "p"
        assert run("probe", *argv, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "not finite" in err and "Warning" not in err
        assert not (out / "probe.csv").exists()

    @pytest.mark.parametrize("base", ["1e-160", "1e-200"])
    def test_underflowed_step_scale_gradient_is_runtime_error(self, tmp_path, capsys, base):
        # g * g is subnormal at 1e-160 (a pre-jump norm_R of 1.0000055664551362, not 1.0)
        # and zero at 1e-200, which the raw-Adam kernel would report as a zero second moment
        out = tmp_path / "p"
        assert run("probe", "--step-scale", "--base", base, "--steps", "100",
                   "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert f"= {float(base)!r} is below 2**-511" in err and "underflows" in err
        assert "second-moment" not in err and "Traceback" not in err
        assert not list(out.glob("*.csv"))

    def test_step_scale_mode(self, tmp_path):
        out = tmp_path / "p"
        assert run("probe", "--step-scale", "--multiplier", "10", "--steps", "400",
                   "--jump", "200", "--beta-grid", "0.9,0.95", "--out", str(out)) == 0
        summary = read_csv_columns(out / "stepscale_summary.csv")
        assert len(summary["beta1"]) == 4
        cell = read_csv_columns(out / "stepscale_0.9_0.9.csv")
        assert float(cell["multiplier"][0]) == 1.0
        assert float(cell["multiplier"][-1]) == 10.0


class TestSweepAndReport:
    def sweep(self, out, *extra):
        return run("sweep", "--problem", "logistic", "--seeds", "2", "--steps", "80",
                   "--window", "10", "--out", str(out), *extra)

    def test_sweep_outputs_and_manifest(self, tmp_path):
        out = tmp_path / "s"
        assert self.sweep(out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "sweep"
        assert (out / "grid.csv").exists() and (out / "summary.csv").exists()
        assert len(list((out / "cells").glob("*.csv"))) == 18
        for path, digest in manifest["outputs"].items():
            assert len(digest) == 64

    def test_rerun_reproduces_hashes(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert self.sweep(out1) == 0
        assert self.sweep(out2) == 0
        m1 = json.loads((out1 / "manifest.json").read_text())
        m2 = json.loads((out2 / "manifest.json").read_text())
        h1 = {p.split("/")[-1]: h for p, h in m1["outputs"].items()}
        h2 = {p.split("/")[-1]: h for p, h in m2["outputs"].items()}
        assert h1 == h2

    def test_csv_round_trip_preserves_values(self, tmp_path):
        out = tmp_path / "s"
        assert self.sweep(out) == 0
        cols = read_csv_columns(out / "grid.csv")
        # full-precision repr round-trips bit-exactly
        from scale_lab import make_problem, sweep_grid
        res = sweep_grid(make_problem("logistic"), seeds=(0, 1), steps=80, window=10)
        for b1, b2, s, w in zip(cols["beta1"], cols["beta2"], cols["seed"], cols["omega1"]):
            i = res.report.beta_axis.index(float(b1))
            j = res.report.beta_axis.index(float(b2))
            assert float(w) == res.report.omega[int(s)][i, j]

    def test_report_from_grid_matches_summary(self, tmp_path):
        out = tmp_path / "s"
        assert self.sweep(out) == 0
        rep_out = tmp_path / "r"
        assert run("report", "--grid", str(out / "grid.csv"), "--out", str(rep_out)) == 0
        original = read_csv_columns(out / "summary.csv")
        recomputed = read_csv_columns(rep_out / "report_summary.csv")
        assert original == recomputed

    def test_metric_flag_switches_to_second_differences(self, tmp_path):
        out1, out2 = tmp_path / "m1", tmp_path / "m2"
        base = ["sweep", "--problem", "logistic", "--seeds", "1", "--steps", "60",
                "--window", "10", "--beta-grid", "0.9,0.99"]
        assert run(*base, "--metric", "omega1", "--out", str(out1)) == 0
        assert run(*base, "--metric", "omega2", "--out", str(out2)) == 0
        # the grid file carries both metrics either way; the scored one differs
        s1 = read_csv_columns(out1 / "summary.csv")
        s2 = read_csv_columns(out2 / "summary.csv")
        g1 = read_csv_columns(out1 / "grid.csv")
        assert g1["omega1"] != g1["omega2"]
        assert s1.keys() == s2.keys()

    def test_window_one_sweep_equals_raw_metric(self, tmp_path):
        out = tmp_path / "w1"
        assert run("sweep", "--problem", "logistic", "--seeds", "1", "--steps", "60",
                   "--window", "1", "--beta-grid", "0.9,0.99", "--out", str(out)) == 0
        cols = read_csv_columns(out / "grid.csv")
        from scale_lab import OptimizerConfig, make_problem, oscillation_omega1, train_cells
        trace = train_cells(make_problem("logistic"),
                            [OptimizerConfig(beta1=0.9, beta2=0.99, eta=0.01)],
                            seed=0, steps=60)[0]
        row = cols["beta1"].index("0.9")
        got = [float(w) for b1, b2, w in zip(cols["beta1"], cols["beta2"], cols["omega1"])
               if b1 == "0.9" and b2 == "0.99"]
        assert got[0] == oscillation_omega1(trace.norm_r)

    def test_ingest_single_grid(self, tmp_path):
        matrix = tmp_path / "m.csv"
        matrix.write_text(TABLE_STYLE_MATRIX)
        out = tmp_path / "r"
        assert run("report", "--ingest", str(matrix), "--out", str(out)) == 0
        cols = read_csv_columns(out / "report_summary.csv")
        assert (cols["K"], cols["N"]) == (["3"], ["3"])  # one matrix: N is its rows
        assert float(cols["p_value"][0]) == pytest.approx(0.037037037, rel=1e-6)

    def test_ingest_handles_nan_rows(self, tmp_path, capsys):
        matrix = tmp_path / "m.csv"
        matrix.write_text(VIT_STYLE_MATRIX)
        out = tmp_path / "r"
        assert run("report", "--ingest", str(matrix), "--out", str(out)) == 0
        cols = read_csv_columns(out / "report_summary.csv")
        assert (cols["K"], cols["N"]) == (["3"], ["3"])  # NaN loses every argmin

    def test_malformed_grid_reports_line_number(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("beta1,beta2,seed,omega1,omega2,window\n0.9,0.9,0\n")
        assert run("report", "--grid", str(bad), "--out", str(tmp_path / "r")) == 2
        err = capsys.readouterr().err
        assert ":2:" in err

    @pytest.mark.parametrize("rows,line", [
        (["0.9,0.9,0,0.1", "0.9,0.99,0,0.2", "0.99,0.9,0,0.3"], ":4:"),  # (0.99, 0.99, 0) missing
        (["0.9,0.9,0,0.1", "0.9,0.99,0,0.2", "0.99,0.9,0,0.3", "0.99,0.99,0,0.4",
          "0.9,0.99,0,0.5"], ":6:"),                                      # (0.9, 0.99, 0) twice
    ], ids=["missing", "duplicate"])
    def test_grid_cell_missing_or_duplicate_is_parse_error(self, tmp_path, capsys, rows, line):
        grid = tmp_path / "grid.csv"
        grid.write_text("\n".join(["beta1,beta2,seed,omega1", *rows]) + "\n")
        assert run("report", "--grid", str(grid), "--out", str(tmp_path / "r")) == 2
        err = capsys.readouterr().err
        assert line in err and "cell" in err and "Traceback" not in err
        assert not (tmp_path / "r" / "report_summary.csv").exists()

    @pytest.mark.parametrize("seed", ["nan", "inf", "0.5", "-1"])
    def test_grid_seed_that_is_not_a_nonnegative_integer_is_parse_error(self, tmp_path, capsys,
                                                                         seed):
        grid = tmp_path / "g.csv"
        grid.write_text("beta1,beta2,seed,omega1\n0.9,0.9,0,0.1\n0.9,0.99,0,0.2\n"
                        f"0.99,0.9,{seed},0.3\n0.99,0.99,0,0.4\n")
        assert run("report", "--grid", str(grid), "--out", str(tmp_path / "r")) == 2
        err = capsys.readouterr().err
        assert "g.csv:4:" in err and repr(seed) in err and "Traceback" not in err
        assert not (tmp_path / "r" / "report_summary.csv").exists()

    def test_parse_error_after_blank_line_names_its_real_line(self, tmp_path, capsys):
        grid = tmp_path / "g.csv"
        grid.write_text("beta1,beta2,seed,omega1\n0.9,0.9,0,0.1\n\nx,0.99,0,0.2\n")
        assert run("report", "--grid", str(grid), "--out", str(tmp_path / "r")) == 2
        err = capsys.readouterr().err
        assert "g.csv:4:" in err and "'x'" in err

    def test_cell_errors_after_blank_lines_name_their_real_lines(self, tmp_path, capsys):
        grid = tmp_path / "g.csv"
        grid.write_text("beta1,beta2,seed,omega1\n0.9,0.9,0,0.1\n\n0.9,0.99,0,0.2\n"
                        "0.99,0.9,0,0.3\n\n0.9,0.99,0,0.5\n")
        assert run("report", "--grid", str(grid), "--out", str(tmp_path / "r")) == 2
        err = capsys.readouterr().err
        assert "g.csv:7:" in err and "first on line 4" in err

    def test_assume_seeds_below_one_is_usage_error(self, tmp_path, capsys):
        # the flag is gone: any value, below one or not, is an unrecognized argument
        matrix = tmp_path / "m.csv"
        matrix.write_text(TABLE_STYLE_MATRIX)
        assert run("report", "--ingest", str(matrix), "--assume-seeds", "0",
                   "--out", str(tmp_path / "r")) == 1
        assert "--assume-seeds" in capsys.readouterr().err
        assert not (tmp_path / "r" / "report_summary.csv").exists()

    @pytest.mark.parametrize("flag,text", [
        ("--grid", "beta1,beta2,seed,omega1,omega1\n0.9,0.9,0,0.1,0.3\n0.9,0.99,0,0.2,0.1\n"
                   "0.99,0.9,0,0.3,0.1\n0.99,0.99,0,0.4,0.2\n"),
        ("--ingest", "beta1,0.9,0.99,0.99\n0.9,1,2,3\n0.99,3,2,1\n0.99,3,1,2\n"),
        # the same beta under two spellings is two header names but one axis value
        ("--ingest", "beta1,0.9,0.99,0.990\n0.9,1,2,3\n0.99,3,2,1\n0.990,3,1,2\n"),
    ], ids=["grid", "ingest", "ingest-respelled"])
    def test_repeated_header_name_is_parse_error(self, tmp_path, capsys, flag, text):
        # both columns of a repeated name used to land in one list
        path = tmp_path / "in.csv"
        path.write_text(text)
        assert run("report", flag, str(path), "--out", str(tmp_path / "r")) == 2
        err = capsys.readouterr().err
        assert "in.csv:1:" in err and "repeats" in err and "Traceback" not in err
        assert not (tmp_path / "r" / "report_summary.csv").exists()

    def test_report_grid_with_seven_of_nine_pattern(self, tmp_path):
        # three per-seed grids where 7 of 9 rows pick the diagonal
        lines = ["beta1,beta2,seed,omega1,omega2,window"]
        axis = [0.9, 0.99, 0.999]
        misses = {(0, 0), (1, 1)}  # (seed, row) pairs whose argmin moves off-diagonal
        for seed in range(3):
            for i, b1 in enumerate(axis):
                for j, b2 in enumerate(axis):
                    if (seed, i) in misses:
                        w = 0.1 if j == (i + 1) % 3 else 1.0
                    else:
                        w = 0.1 if i == j else 1.0
                    lines.append(f"{b1},{b2},{seed},{w},{w},200")
        grid = tmp_path / "grid.csv"
        grid.write_text("\n".join(lines) + "\n")
        out = tmp_path / "r"
        assert run("report", "--grid", str(grid), "--out", str(out)) == 0
        cols = read_csv_columns(out / "report_summary.csv")
        assert (cols["K"], cols["N"]) == (["7"], ["9"])
        assert float(cols["p_value"][0]) == pytest.approx(0.008281, rel=1e-3)


class TestManifest:
    COMMANDS = {  # argv, seeds, observed
        "flow": (["flow", "--signal", "exp", "--t-end", "12", "--plot"], [], {"clamped": False}),
        "probe": (["probe", "--step-scale", "--steps", "40", "--beta-grid", "0.9,0.99"], [], {}),
        "sweep": (["sweep", "--problem", "quadratic", "--seed-list", "3,1", "--steps", "20",
                   "--window", "5", "--beta-grid", "0.9,0.99"], [3, 1], {"diverged": []}),
        "report": (["report", "--ingest", "matrix.csv"], [], {}),
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_manifest_pins_every_field(self, tmp_path, monkeypatch, capsys, command):
        argv, seeds, observed = self.COMMANDS[command]
        monkeypatch.chdir(tmp_path)
        (tmp_path / "matrix.csv").write_text(TABLE_STYLE_MATRIX)
        out = tmp_path / "out"
        argv = argv + ["--out", str(out)]
        assert run(*argv) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        args = vars(build_parser().parse_args(argv))
        config = {k: str(v) for k, v in args.items() if k not in ("out", "plot", "func")}
        written = sorted(p for p in out.rglob("*")
                         if p.is_file() and not p.name.startswith("manifest."))
        assert written
        assert manifest["outputs"] == {str(p): hashlib.sha256(p.read_bytes()).hexdigest()
                                       for p in written}
        assert {k: manifest[k] for k in ("command", "version", "seeds", "config", "observed")} == {
            "command": command, "version": __version__, "seeds": seeds, "config": config,
            "observed": observed}
        assert manifest["duration_s"] >= 0.0
        text = (out / "manifest.txt").read_text().splitlines()
        assert text[:2] == [f"command={command}", f"version={__version__}"]
        assert f"seeds={','.join(map(str, seeds))}" in text
        assert [line for line in text if line.startswith("observed.")] == [
            f"observed.{k}={observed[k]}" for k in sorted(observed)]
        assert [line for line in text if line.startswith(("config.", "output."))] == (
            [f"config.{k}={config[k]}" for k in sorted(config)]
            + [f"output.{p}={h}" for p, h in sorted(manifest["outputs"].items())])

    def test_sweep_manifest_records_each_diverged_cell_and_its_step(self, tmp_path, capsys):
        # at this rate the (0.999, 0.9) cell of seed 0 overflows at step 32; seed 1 runs on
        out = tmp_path / "out"
        assert run("sweep", "--problem", "logistic", "--seeds", "2", "--steps", "40",
                   "--window", "5", "--beta-grid", "0.9,0.999", "--eta", "2e305",
                   "--out", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["observed"] == {"diverged": ["0.999,0.9,0:32"]}
        assert "observed.diverged=['0.999,0.9,0:32']" in (out / "manifest.txt").read_text()
        cols = read_csv_columns(out / "cells" / "trace_0.999_0.9_s0.csv")
        assert len(cols["step"]) == 32

    def test_sweep_with_no_scorable_row_still_writes_the_manifest(self, tmp_path, capsys):
        # at this rate every cell overflows at its first step, so no grid row can be scored
        out = tmp_path / "out"
        assert run("sweep", "--problem", "logistic", "--steps", "20", "--eta", "1e308",
                   "--seeds", "1", "--window", "3", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "no row of the grids can be scored" in err and "Traceback" not in err
        diverged = [f"{b1},{b2},0:1" for b1 in ("0.9", "0.99", "0.999")
                    for b2 in ("0.9", "0.99", "0.999")]
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["command"], manifest["seeds"], manifest["observed"],
                manifest["outputs"]) == ("sweep", [0], {"diverged": diverged}, {})
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "manifest.txt"]
        text = (out / "manifest.txt").read_text().splitlines()
        assert [line for line in text if line.startswith(("observed.", "output."))] == [
            f"observed.diverged={diverged}"]

    @pytest.mark.parametrize("argv,observed,why", [
        (["--delta0", "-2", "--h", "3"], {"clamped": False, "abort_t": 1.5}, "v crossed zero"),
        (["--delta0", "0.6", "--h", "3"], {"clamped": True, "abort_t": 3.0}, "v crossed zero"),
        (["--delta0", "30"], {"clamped": True, "abort_t": 11.82}, "m or v is not finite"),
    ], ids=["decaying", "clamped", "overflowed"])
    def test_flow_abort_still_writes_the_manifest(self, tmp_path, capsys, argv, observed, why):
        # h three times tau2 makes an RK4 stage of v overshoot below zero; at delta0 = 30,
        # g * g overflows near t = 709.78 / 60, before the default t_end of 15
        out = tmp_path / "out"
        assert run("flow", "--signal", "exp", *argv, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert f"{why} at t={observed['abort_t']:g}" in err and "Traceback" not in err
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["command"], manifest["observed"], manifest["outputs"]) == (
            "flow", observed, {})
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "manifest.txt"]
        text = (out / "manifest.txt").read_text().splitlines()
        assert [line for line in text if line.startswith(("observed.", "output."))] == [
            f"observed.{k}={observed[k]}" for k in sorted(observed)]
