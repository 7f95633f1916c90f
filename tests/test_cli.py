import json
import math

import numpy as np
import pytest

from scale_lab.cli import main
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
        ("flow", "--signal", "const", "--h", "0"),
        ("flow", "--signal", "const", "--dt", "-1"),
        ("flow", "--signal", "const", "--tau1", "0"),
        ("flow", "--signal", "const", "--tau2", "0"),
        ("flow", "--signal", "const", "--eta-bar", "0"),
        ("flow", "--signal", "const", "--t-end", "-5"),
        ("sweep", "--problem", "quadratic", "--window", "0"),
        ("sweep", "--problem", "quadratic", "--seeds", "0"),
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
    ], ids=" ".join)
    def test_overflowed_probe_is_runtime_error(self, tmp_path, capsys, argv):
        # (keep2 * g) * g or lambda * g overflows: no deviation may be reported from it
        out = tmp_path / "p"
        assert run("probe", *argv, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "not finite" in err and "Warning" not in err
        assert not (out / "probe.csv").exists()

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
        from scale_lab import OptimizerConfig, make_problem, oscillation_omega1, run_training
        trace = run_training(make_problem("logistic"),
                             OptimizerConfig(beta1=0.9, beta2=0.99, eta=0.01),
                             seed=0, steps=60)
        row = cols["beta1"].index("0.9")
        got = [float(w) for b1, b2, w in zip(cols["beta1"], cols["beta2"], cols["omega1"])
               if b1 == "0.9" and b2 == "0.99"]
        assert got[0] == oscillation_omega1(trace.norm_r)

    def test_ingest_aggregated_matrix(self, tmp_path, capsys):
        matrix = tmp_path / "m.csv"
        matrix.write_text(TABLE_STYLE_MATRIX)
        out = tmp_path / "r"
        assert run("report", "--ingest", str(matrix), "--assume-seeds", "3",
                   "--out", str(out)) == 0
        cols = read_csv_columns(out / "report_summary.csv")
        assert cols["rate"] == ["1.0"]
        assert (cols["K"], cols["N"]) == (["9"], ["9"])
        assert float(cols["p_value"][0]) == pytest.approx(5.0805e-5, rel=1e-4)

    def test_ingest_single_grid(self, tmp_path):
        matrix = tmp_path / "m.csv"
        matrix.write_text(TABLE_STYLE_MATRIX)
        out = tmp_path / "r"
        assert run("report", "--ingest", str(matrix), "--assume-seeds", "1",
                   "--out", str(out)) == 0
        cols = read_csv_columns(out / "report_summary.csv")
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
        matrix = tmp_path / "m.csv"
        matrix.write_text(TABLE_STYLE_MATRIX)
        assert run("report", "--ingest", str(matrix), "--assume-seeds", "0",
                   "--out", str(tmp_path / "r")) == 1
        assert "--assume-seeds" in capsys.readouterr().err
        assert not (tmp_path / "r" / "report_summary.csv").exists()

    def test_assume_seeds_p_value_is_labelled_not_a_valid_test(self, tmp_path, capsys):
        matrix = tmp_path / "m.csv"
        matrix.write_text(TABLE_STYLE_MATRIX)
        out = tmp_path / "r"
        assert run("report", "--ingest", str(matrix), "--assume-seeds", "3",
                   "--out", str(out)) == 0
        printed = capsys.readouterr().out
        assert "independent trials" in printed and "not a valid test" in printed
        assert (out / "report_summary.csv").read_bytes() == (
            b"rate,K,N,p_value\r\n1.0,9,9,5.080526342529086e-05\r\n")
        assert run("report", "--ingest", str(matrix), "--assume-seeds", "1",
                   "--out", str(tmp_path / "r1")) == 0
        assert "not a valid test" not in capsys.readouterr().out

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
