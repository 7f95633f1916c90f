import argparse
import hashlib
import json
import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from scale_lab import __version__, cli, metrics, problems, reporting, training
from scale_lab.optimizers import CellConfigs
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

README = Path(__file__).resolve().parents[1] / "README.md"


def run(*argv):
    return main(list(argv))


def failure_manifest(out: Path) -> dict:
    """The manifest a failed run writes: alone in ``out``, and listing no outputs."""
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == {}
    return manifest


def readme_commands() -> list[str]:
    """Every ``scale-lab ...`` line of the README's bash blocks, ``\\`` continuations joined."""
    blocks = re.findall(r"```bash\n(.*?)```", README.read_text(), flags=re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [line.strip() for line in lines if line.strip().startswith("scale-lab ")]


def test_readme_commands_parse(capsys):
    # parsing runs no command: this only catches a README that documents a removed flag
    commands = readme_commands()
    assert {c.split()[1] for c in commands} == {"flow", "probe", "sweep", "report"}
    for command in commands:
        try:
            build_parser().parse_args(shlex.split(command)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {command}\n{capsys.readouterr().err}")


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

    def test_report_without_inputs_is_usage(self, tmp_path, capsys):
        assert run("report", "--out", str(tmp_path)) == 1
        assert "one of the arguments --grid --ingest is required" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_report_with_both_inputs_is_usage(self, tmp_path, capsys):
        grid = tmp_path / "grid.csv"
        grid.write_text("beta1,beta2,seed,omega1\n")
        assert run("report", "--grid", str(grid), "--ingest", str(grid),
                   "--out", str(tmp_path / "o")) == 1
        assert "not allowed with argument" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

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
        ("sweep", "--problem", "quadratic", "--seed-list", "0,18446744073709551616"),
        ("sweep", "--problem", "quadratic", "--data-seed", "18446744073709551616"),
        ("sweep", "--problem", "quadratic", "--seed-list", "1.5"),
        ("sweep", "--problem", "quadratic", "--seed-list", "1,1"),
        ("sweep", "--problem", "quadratic", "--batch-size", "0"),
        ("sweep", "--problem", "quadratic", "--seed-list", ","),
        ("sweep", "--problem", "quadratic", "--seed-list", "0,1,"),
        # a seed is ASCII decimal digits alone, as report --grid reads it back
        ("sweep", "--problem", "quadratic", "--seed-list", "5_0"),
        ("sweep", "--problem", "quadratic", "--seed-list", "0,+1"),
        ("sweep", "--problem", "quadratic", "--seed-list", "\uff11"),
        ("sweep", "--problem", "quadratic", "--data-seed", "5_0"),
        ("sweep", "--problem", "quadratic", "--data-seed", "+1"),
        ("sweep", "--problem", "quadratic", "--data-seed", "\uff11"),
        ("probe", "--g", ""),
        ("probe", "--lambdas", "2,x"),
        ("probe", "--step-scale", "--beta-grid", ","),
        ("probe", "--step-scale", "--beta-grid", "0.9,,0.99"),
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
        ("probe", "--method", "adam", "--g", "1,2", "--m", "1", "--v", "1"),
        ("probe", "--method", "adam", "--g", "1,2", "--m", "1"),
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

    def test_probe_length_mismatch_names_the_three_lengths(self, tmp_path, capsys):
        assert run("probe", "--method", "adam", "--g", "1,2,3", "--v", "1,1",
                   "--out", str(tmp_path)) == 1
        assert "need one length, got 3, 3, 2" in capsys.readouterr().err

    @pytest.mark.parametrize("steps", ["0", "1", "2"])
    def test_sweep_shorter_than_omega2_minimum_is_usage_error(self, tmp_path, capsys, steps):
        # omega2 needs 3 samples: a shorter sweep would leave every cell NaN and score no row
        assert run("sweep", "--problem", "logistic", "--seeds", "1", "--steps", steps,
                   "--out", str(tmp_path)) == 1
        err = capsys.readouterr().err
        assert "--steps" in err and "the 3 samples omega2 needs" in err
        assert "Traceback" not in err and not any(tmp_path.iterdir())

    def test_sweep_of_omega2_minimum_scores_every_row(self, tmp_path, capsys):
        assert run("sweep", "--problem", "logistic", "--seeds", "1", "--steps", "3",
                   "--metric", "omega2", "--out", str(tmp_path)) == 0
        assert "N=3" in capsys.readouterr().out

    @pytest.mark.parametrize("argv,what", [
        (("probe", "--step-scale", "--steps", str(2 ** 62)), f"{2 ** 62} steps of 9 cells"),
        (("probe", "--step-scale", "--steps", str(2 ** 63)), f"{2 ** 63} steps of 9 cells"),
        (("sweep", "--problem", "quadratic", "--seeds", "1", "--steps", str(2 ** 62)),
         f"9 rows of {2 ** 62} steps"),
        (("sweep", "--problem", "logistic", "--steps", "3", "--seeds", "1",
          "--batch-size", str(10 ** 20)), f"index blocks of 1 seeds at batch size {10 ** 20}"),
        (("sweep", "--problem", "quadratic", "--steps", "3", "--seeds", str(10 ** 20)),
         f"{10 ** 20} seeds of 9 cells"),
    ], ids=["probe-steps-2**62", "probe-steps-2**63", "sweep-steps-2**62", "sweep-batch-size",
            "sweep-seeds"])
    def test_count_beyond_numpy_index_is_runtime_error(self, tmp_path, capsys, argv, what):
        # refused where its arrays are sized, before any allocation; 2**63 steps no longer
        # read as an empty stream
        out = tmp_path / "out"
        assert run(*argv, "--out", str(out)) == 2
        assert capsys.readouterr().err == f"scale-lab: error: {what}, more than numpy can index\n"
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize("argv, flag, value", [
        (("flow", "--signal", "exp", "--t-end", "12"), "--delta0", "-2e-2"),
        (("probe",), "--g", "-1,2"),
        (("probe", "--step-scale", "--steps", "40"), "--base", "-1e-3"),
    ], ids=["flow --delta0", "probe --g", "probe --step-scale --base"])
    def test_negative_value_after_its_flag_reads_as_its_equals_form(self, tmp_path, capsys,
                                                                    argv, flag, value):
        runs = []
        for form, tail in (("split", [flag, value]), ("equals", [f"{flag}={value}"])):
            out = tmp_path / form
            assert run(*argv, *tail, "--out", str(out)) == 0
            written = {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*"))
                       if p.is_file() and not p.name.startswith("manifest.")}
            config = json.loads((out / "manifest.json").read_text())["config"]
            runs.append((written, config, capsys.readouterr().out))
        assert runs[0][0] and runs[0] == runs[1]

    def test_non_numeric_negative_value_after_its_flag_is_usage_error(self, tmp_path, capsys):
        assert run("flow", "--signal", "exp", "--delta0", "-inf", "--out", str(tmp_path)) == 1
        assert "argument --delta0: expected one argument" in capsys.readouterr().err
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

    @pytest.mark.parametrize("argv", [("--signal", "exp", "--t-end", "10.01"),
                                      ("--signal", "const", "--h", "1e300")], ids=" ".join)
    def test_one_sample_past_burn_in_is_a_window(self, tmp_path, capsys, argv):
        # the rounded grid leaves one sample at t >= burn-in (10): its remainders are measured
        out = tmp_path / "flow"
        assert run("flow", *argv, "--out", str(out)) == 0
        rem = read_csv_columns(out / "remainder.csv")
        assert rem["channel"] == ["m", "v", "R"]
        assert all(float(r) <= float(b) for r, b in zip(rem["remainder"], rem["bound"][:2]))

    @pytest.mark.parametrize("t_end,samples", [("10.01", 501), ("12", 601), ("0.3", 16)])
    def test_summary_prints_the_end_time_the_grid_reached(self, tmp_path, capsys, t_end, samples):
        # the rounded grid ends on t_end: 3 significant digits printed 10.01 as t=10
        assert run("flow", "--signal", "exp", "--t-end", t_end, "--out", str(tmp_path)) == 0
        assert f"flow: {samples} samples to t={t_end}; " in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [("--h", "1e-300"), ("--t-end", "1e300")], ids=" ".join)
    def test_step_count_beyond_numpy_index_is_runtime_error(self, tmp_path, capsys, argv):
        # rejected before any grid is allocated
        out = tmp_path / "flow"
        assert run("flow", "--signal", "const", *argv, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "more than numpy can index" in err and "h=" in err and "Traceback" not in err
        assert not (out / "trace.csv").exists()


    @pytest.mark.parametrize("argv,why", [
        (["--signal", "exp", "--delta0", "1e-160", "--tau1", "1e155", "--tau2", "1e155",
          "--t-end", "2e156", "--h", "1e154"], "Lambda^2 + Lambda' or an m or v envelope overflows"),
        (["--signal", "sin-log", "--amplitude", "300", "--omega", "1e152", "--tau1", "1e-160",
          "--tau2", "1e-160"], "Lambda^2 + Lambda' or an m or v envelope overflows"),
        (["--signal", "sin-log", "--amplitude", "1e-5", "--omega", "1e160", "--tau1", "1e-160",
          "--tau2", "1e-160"], "drift bounds are not finite: Lambda=1e+155, Lambda'=inf"),
    ], ids=["tau-squared", "lambda-squared", "lambda-prime"])
    def test_overflowing_remainder_bound_is_runtime_error(self, tmp_path, capsys, argv, why):
        # tau1 ** 2, Lambda ** 2 or the omega ** 2 in delta' overflows: no trace.csv either
        out = tmp_path / "flow"
        assert run("flow", *argv, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert why in err and "Traceback" not in err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == {}
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]

    def test_remainder_report_failing_after_the_flow_still_writes_the_manifest(self, tmp_path,
                                                                               capsys):
        # g = exp(-50 t) underflows to 0 at t = 14.903 < 15: the flow integrates, but the drift
        # its remainder report reads is undefined there
        out = tmp_path / "flow"
        assert run("flow", "--signal", "exp", "--delta0", "-50", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err == "scale-lab: error: drift undefined: g(14.903) has a zero coordinate\n"
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["command"], manifest["observed"], manifest["outputs"]) == (
            "flow", {"clamped": False}, {})
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]


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

    def test_overflowed_linear_rescaling_is_other_and_silent(self, tmp_path, capsys):
        # 1e10 * R(g) overflows to inf: the rescaling is not linear, and no overflow warning shows
        out = tmp_path / "p"
        assert run("probe", "--method", "adam", "--m", "1e300", "--v", "1", "--g", "1",
                   "--lambdas", "1e10", "--out", str(out)) == 0
        captured = capsys.readouterr()
        assert "classification = other" in captured.out
        assert captured.err == ""
        assert read_csv_columns(out / "probe.csv")["classification"] == ["other"]

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
        ("--method", "adam", "--beta1", "0.9", "--beta2", "0.999", "--bias-correction",
         "--g", "1", "--m", "0", "--v", "1e306", "--lambdas", "2,10"),
        ("--step-scale", "--base", "1e200", "--steps", "100"),
        ("--step-scale", "--base", "1e300", "--multiplier", "1e300", "--steps", "40"),
    ], ids=" ".join)
    def test_overflowed_probe_is_runtime_error(self, tmp_path, capsys, argv):
        # (keep2 * g) * g, lambda * g, multiplier * base or a corrected v (1e306 / (1 - 0.999),
        # which makes R NaN; were it 0, every rescaling would read exact-invariant) overflows:
        # no deviation or ||R|| may be reported from it
        out = tmp_path / "p"
        assert run("probe", *argv, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "not finite" in err and "Warning" not in err
        assert not (out / "probe.csv").exists()

    def test_overflowing_step_scale_gradient_is_named_by_its_step(self, tmp_path, capsys):
        # g * g of 1e160 overflows from step 0 on, not first at the end of a 1024-step block
        out = tmp_path / "p"
        assert run("probe", "--step-scale", "--base", "1e160", "--steps", "2000",
                   "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "at step 0, coordinate 0: |g| = 1e+160 is not finite or at least 2**511" in err
        assert not list(out.glob("*.csv"))

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

    def test_step_scale_cells_beyond_the_open_file_bound(self, tmp_path, monkeypatch):
        # 25 cell files written two at a time read byte for byte as one write_csv per cell
        argv = ("probe", "--step-scale", "--steps", "3000", "--jump", "1100",
                "--beta-grid", "0.5,0.8,0.9,0.95,0.99")
        monkeypatch.setattr(reporting, "_OPEN_FILES", 2)
        real_open, handles, open_at_once = Path.open, [], []

        def tracked_open(self, *args, **kwargs):
            open_at_once.append(1 + sum(not fh.closed for fh in handles))
            handles.append(real_open(self, *args, **kwargs))
            return handles[-1]

        monkeypatch.setattr(Path, "open", tracked_open)
        assert run(*argv, "--out", str(tmp_path / "grouped")) == 0
        assert max(open_at_once) == 2

        def one_call_per_cell(paths, header, shared, tables):
            return [reporting.write_csv(p, header, [*shared, *t]) for p, t in zip(paths, tables)]

        monkeypatch.setattr(cli, "write_csvs", one_call_per_cell)
        assert run(*argv, "--out", str(tmp_path / "per_cell")) == 0
        names = sorted(p.name for p in (tmp_path / "grouped").glob("*.csv"))
        assert len(names) == 26
        for name in names:
            assert ((tmp_path / "grouped" / name).read_bytes()
                    == (tmp_path / "per_cell" / name).read_bytes())


class TestSweepAndReport:
    def sweep(self, out, *extra):
        return run("sweep", "--problem", "logistic", "--seeds", "2", "--steps", "80",
                   "--window", "10", "--out", str(out), *extra)

    def test_each_problem_is_offered_once_with_the_eta_its_sweep_trains_at(self):
        # a problem is registered in problems.PROBLEMS alone: sweep --problem offers its kinds
        # in order, and a sweep without --eta trains at the factory's default_eta
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        flag = next(a for a in sub.choices["sweep"]._actions if a.dest == "problem")
        assert list(flag.choices) == list(problems.PROBLEMS) == ["quadratic", "logistic", "mlp"]
        for kind in flag.choices:
            prob = problems.make_problem(kind)
            res = training.sweep_grid(prob, beta_axis=[0.9], seeds=(0,), steps=5, window=1)
            for eta, same in [(prob.default_eta, True), (2.0 * prob.default_eta, False)]:
                point = training.start_point(prob, [0])
                (alone,) = training.train_cells(prob, CellConfigs([(0.9, 0.9)]), point, steps=5,
                                                eta=eta)
                assert np.array_equal(res.traces[(0.9, 0.9, 0)].norm_r, alone.norm_r) == same

    def test_sweep_protocol_defaults_live_in_training(self):
        sweep = build_parser().parse_args(["sweep", "--problem", "mlp"])
        probe = build_parser().parse_args(["probe", "--step-scale"])
        assert sweep.beta_grid == probe.beta_grid == "0.9,0.99,0.999"  # as the manifest records
        assert tuple(map(float, sweep.beta_grid.split(","))) == training.DEFAULT_BETA_AXIS
        assert sweep.window == training.DEFAULT_WINDOW
        assert sweep.batch_size == training.DEFAULT_BATCH

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
            assert float(w) == res.omegas["omega1"][(float(b1), float(b2), int(s))]

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
        from scale_lab import (CellConfigs, make_problem, oscillation_omega1, start_point,
                               train_cells)
        prob = make_problem("logistic")
        trace = train_cells(prob, CellConfigs([(0.9, 0.99)]), start_point(prob, [0]), steps=60,
                            eta=0.01)[0]
        row = cols["beta1"].index("0.9")
        got = [float(w) for b1, b2, w in zip(cols["beta1"], cols["beta2"], cols["omega1"])
               if b1 == "0.9" and b2 == "0.99"]
        assert got[0] == oscillation_omega1(trace.norm_r)

    def test_a_metric_is_registered_in_metrics_alone(self, tmp_path, monkeypatch):
        # metrics.METRICS feeds --metric's choices, the sweep's scores and grid.csv's columns
        monkeypatch.setitem(metrics.METRICS, "spread", lambda x: float(np.ptp(x)))
        out = tmp_path / "s"
        assert run("sweep", "--problem", "logistic", "--seeds", "2", "--steps", "30",
                   "--window", "5", "--beta-grid", "0.9,0.99", "--metric", "spread",
                   "--out", str(out)) == 0
        cols = read_csv_columns(out / "grid.csv")
        assert list(cols) == ["beta1", "beta2", "seed", "omega1", "omega2", "spread", "window"]
        assert run("report", "--grid", str(out / "grid.csv"), "--metric", "spread",
                   "--out", str(tmp_path / "r")) == 0
        assert (read_csv_columns(out / "summary.csv")
                == read_csv_columns(tmp_path / "r" / "report_summary.csv"))

    @pytest.mark.parametrize("argv", [("--seeds", "2", "--beta-grid", "0.9,0.999"),
                                      ("--seed-list", "1,0", "--beta-grid", "0.999,0.9")],
                             ids=["sorted", "unsorted"])
    def test_sweep_lists_its_unscored_rows_as_report_does(self, tmp_path, capsys, argv):
        # at this rate both cells of row 0.999 overflow in each seed, and row 0.9 is scored;
        # the sweep scores its axis and seeds sorted, as report reads them from grid.csv
        out = tmp_path / "s"
        assert run("sweep", "--problem", "logistic", *argv, "--steps", "40", "--window", "5",
                   "--eta", "2.5e305", "--out", str(out)) == 0
        swept = capsys.readouterr().out.splitlines()
        assert run("report", "--grid", str(out / "grid.csv"), "--out", str(tmp_path / "r")) == 0
        reported = capsys.readouterr().out.splitlines()
        assert swept == ["sweep logistic: metric=omega1 window=5 K=1 N=2 rate=50.0% p=0.75",
                         "  unscored rows (seed, row): [(0, 1), (1, 1)]"]
        assert reported == ["report (per-seed): K=1 N=2 rate=50.0% p=0.75", swept[1]]

    def test_ingest_single_grid(self, tmp_path, capsys):
        matrix = tmp_path / "m.csv"
        matrix.write_text(TABLE_STYLE_MATRIX)
        out = tmp_path / "r"
        assert run("report", "--ingest", str(matrix), "--out", str(out)) == 0
        assert "unscored" not in capsys.readouterr().out  # every row is scored
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

    def test_ingest_tied_row_is_unscored_and_listed(self, tmp_path, capsys):
        # row 0.9 is tied: the first-column rule used to count it as a hit (K=2 N=2 p=0.25)
        matrix = tmp_path / "m.csv"
        matrix.write_text("beta1,0.9,0.99\n0.9,1,1\n0.99,2,1\n")
        out = tmp_path / "r"
        assert run("report", "--ingest", str(matrix), "--out", str(out)) == 0
        stdout = capsys.readouterr().out
        assert "K=1 N=1 rate=100.0% p=0.5" in stdout
        assert "  unscored rows (seed, row): [(0, 0)]" in stdout.splitlines()
        cols = read_csv_columns(out / "report_summary.csv")
        assert (cols["K"], cols["N"], cols["p_value"]) == (["1"], ["1"], ["0.5"])

    @pytest.mark.parametrize("flag,text,line,field", [
        ("--ingest", "beta1,0.9,0.99\n0.9,-3,1\n0.99,2,-1e300\n", 2, "-3"),
        ("--ingest", "beta1,0.9,0.99\n0.9,1,nan\n0.99,-inf,\n", 3, "-inf"),
        ("--grid", "beta1,beta2,seed,omega1\n0.9,0.9,0,0.1\n0.9,0.99,0,-1e-300\n"
                   "0.99,0.9,0,0.3\n0.99,0.99,0,0.4\n", 3, "-1e-300"),
        ("--grid", "beta1,beta2,seed,omega1\n0.9,0.9,0,nan\n0.9,0.99,0,inf\n"
                   "0.99,0.9,0,0.3\n0.99,0.99,0,-inf\n", 5, "-inf"),
    ], ids=["ingest", "ingest-minus-inf", "grid", "grid-minus-inf"])
    def test_negative_omega_is_parse_error(self, tmp_path, capsys, flag, text, line, field):
        # omega1 and omega2 are means of absolute differences: never below 0
        path = tmp_path / "in.csv"
        path.write_text(text)
        assert run("report", flag, str(path), "--out", str(tmp_path / "r")) == 2
        err = capsys.readouterr().err
        assert f"in.csv:{line}: negative omega: {field!r}" in err and "Traceback" not in err
        assert failure_manifest(tmp_path / "r")["command"] == "report"

    @pytest.mark.parametrize("flag,text", [
        ("--grid", b"beta1,beta2,seed,omega1\n0.9,0.9,0,0.1\n0.9,0.99,0,\xff\n"),
        ("--ingest", b"beta1,0.9,0.99\n0.9,1,2\n0.99,\xff,1\n"),
        ("--ingest", b"\xef\xbb\xbfbeta1,0.9,0.99\n0.9,1,2\n\xff.99,2,1\n"),
    ], ids=["grid", "ingest", "ingest-after-byte-order-mark"])
    def test_csv_that_is_not_utf8_is_parse_error(self, tmp_path, capsys, flag, text):
        path = tmp_path / "in.csv"
        path.write_bytes(text)
        assert run("report", flag, str(path), "--out", str(tmp_path / "r")) == 2
        err = capsys.readouterr().err
        assert "in.csv:3: not UTF-8" in err and "0xff" in err and "Traceback" not in err
        assert failure_manifest(tmp_path / "r")["command"] == "report"

    @pytest.mark.parametrize("flag,text", [
        ("--ingest", TABLE_STYLE_MATRIX),
        ("--grid", "beta1,beta2,seed,omega1\n0.9,0.9,0,0.1\n0.9,0.99,0,0.2\n"
                   "0.99,0.9,0,0.3\n0.99,0.99,0,0.4\n"),
    ], ids=["ingest", "grid"])
    def test_csv_with_a_byte_order_mark_reads_as_without(self, tmp_path, capsys, flag, text):
        # a spreadsheet's "CSV UTF-8" starts with a BOM, which used to hide the name beta1
        runs = []
        for name, mark in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
            path = tmp_path / f"{name}.csv"
            path.write_bytes(mark + text.encode())
            assert run("report", flag, str(path), "--out", str(tmp_path / name)) == 0
            runs.append((capsys.readouterr().out,
                         (tmp_path / name / "report_summary.csv").read_bytes()))
        assert runs[0] == runs[1] and "K=" in runs[0][0]

    @pytest.mark.parametrize("flag,text,line", [
        ("--grid", f"beta1,beta2,seed,omega1\n0.9,0.9,0,0.1\n0.9,0.99,0,{'1' * 200000}\n", 3),
        ("--ingest", f"beta1,0.9,0.99\n0.9,{'1' * 200000},2\n0.99,3,1\n", 2),
    ], ids=["grid", "ingest"])
    def test_field_past_the_csv_size_limit_is_parse_error(self, tmp_path, capsys, flag, text,
                                                          line):
        path = tmp_path / "in.csv"
        path.write_text(text)
        assert run("report", flag, str(path), "--out", str(tmp_path / "r")) == 2
        err = capsys.readouterr().err
        assert f"in.csv:{line}:" in err and "field limit" in err and "Traceback" not in err
        assert failure_manifest(tmp_path / "r")["command"] == "report"

    @pytest.mark.parametrize("axis,beta", [
        (("0.9", "inf"), "inf"), (("0.9", "-1"), "-1"), (("1e400", "0.9"), "1e400"),
    ], ids=["inf", "-1", "1e400"])
    def test_ingest_beta_outside_unit_interval_is_parse_error(self, tmp_path, capsys, axis,
                                                              beta):
        # sweep --beta-grid rejects each of these as a usage error
        matrix = tmp_path / "m.csv"
        matrix.write_text(f"beta1,{axis[0]},{axis[1]}\n{axis[0]},1,2\n{axis[1]},3,4\n")
        assert run("report", "--ingest", str(matrix), "--out", str(tmp_path / "r")) == 2
        err = capsys.readouterr().err
        assert f"m.csv:1: beta outside (0, 1): {beta!r}" in err and "Traceback" not in err
        assert failure_manifest(tmp_path / "r")["command"] == "report"

    @pytest.mark.parametrize("beta", ["-0.5", "1.5", "inf", "1e400"])
    def test_grid_beta_outside_unit_interval_is_parse_error(self, tmp_path, capsys, beta):
        rows = [f"{b1},{b2},0,{i}" for i, (b1, b2) in enumerate(
            [(beta, beta), (beta, "0.99"), ("0.99", beta), ("0.99", "0.99")])]
        grid = tmp_path / "g.csv"
        grid.write_text("\n".join(["beta1,beta2,seed,omega1", *rows]) + "\n")
        assert run("report", "--grid", str(grid), "--out", str(tmp_path / "r")) == 2
        err = capsys.readouterr().err
        assert f"g.csv:2: beta outside (0, 1): {beta!r}" in err and "Traceback" not in err
        assert failure_manifest(tmp_path / "r")["command"] == "report"

    @pytest.mark.parametrize("flag,text,message", [
        ("--ingest", "b1,0.9,0.99\n0.9,1,2\n0.99,2,1\n", "expected header: beta1,"),
        ("--ingest", "beta1\n0.9\n", "expected header: beta1,"),
        ("--grid", "beta1,beta2,seed,omega1\n0.9,0.9,0,0.1\n0.9,0.99,0,0.2\n"
                   "0.99,0.9,0,0.3\n0.99,0.98,0,0.4\n", "beta1 and beta2 axes disagree"),
    ], ids=["ingest-header", "ingest-no-axis", "grid-axes"])
    def test_axis_that_does_not_match_is_parse_error_on_line_1(self, tmp_path, capsys, flag,
                                                               text, message):
        path = tmp_path / "in.csv"
        path.write_text(text)
        assert run("report", flag, str(path), "--out", str(tmp_path / "r")) == 2
        err = capsys.readouterr().err
        assert f"in.csv:1: {message}" in err and "Traceback" not in err
        assert failure_manifest(tmp_path / "r")["command"] == "report"

    @pytest.mark.parametrize("rows,line", [
        (["0.99,1,2", "0.9,2,1"], 2),               # swapped: row 1 is already off the axis
        (["0.9,1,2"], 2),                           # the 0.99 row is missing: the last row's line
        (["0.9,1,2", "0.99,2,1", "0.999,3,3"], 4),  # an extra row: its own line
    ], ids=["swapped", "missing", "extra"])
    def test_ingest_rows_off_the_axis_name_the_first_differing_line(self, tmp_path, capsys, rows,
                                                                     line):
        path = tmp_path / "in.csv"
        path.write_text("\n".join(["beta1,0.9,0.99", *rows]) + "\n")
        assert run("report", "--ingest", str(path), "--out", str(tmp_path / "r")) == 2
        err = capsys.readouterr().err
        assert f"in.csv:{line}: row beta1 values must match" in err and "Traceback" not in err
        assert failure_manifest(tmp_path / "r")["command"] == "report"

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

    @pytest.mark.parametrize("seed", [str(2 ** 64), "9" * 5000], ids=["2**64", "5000-digits"])
    def test_grid_seed_outside_64_bits_is_parse_error(self, tmp_path, capsys, seed):
        # a complete, scorable grid whose first row has a seed sweep could never have written
        rows = [f"{b1},{b2},{s},{1.0 if b1 == b2 else 2.0}"
                for s in (seed, "0") for b1 in (0.9, 0.99) for b2 in (0.9, 0.99)]
        grid = tmp_path / "g.csv"
        grid.write_text("\n".join(["beta1,beta2,seed,omega1", *rows]) + "\n")
        assert run("report", "--grid", str(grid), "--out", str(tmp_path / "r")) == 2
        err = capsys.readouterr().err
        assert "g.csv:2: not a seed" in err and "[0, 2**64)" in err and "Traceback" not in err
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
        # the JSON record is the one manifest, written with sorted keys
        assert sorted(p.name for p in out.rglob("manifest.*")) == ["manifest.json"]
        assert set(manifest) == {"command", "version", "duration_s", "seeds", "config",
                                 "observed", "outputs"}
        assert (out / "manifest.json").read_text() == json.dumps(manifest, indent=2,
                                                                  sort_keys=True) + "\n"

    @pytest.mark.parametrize("argv,svg", [
        (["sweep", "--problem", "quadratic", "--seeds", "2", "--steps", "20", "--window", "5"],
         "sweep.svg"),
        (["probe", "--step-scale", "--steps", "40"], "stepscale.svg"),
    ], ids=["sweep", "probe"])
    def test_plot_is_written_and_hashed_in_the_manifest(self, tmp_path, capsys, argv, svg):
        out = tmp_path / "out"
        assert run(*argv, "--beta-grid", "0.9,0.99", "--plot", "--out", str(out)) == 0
        path = out / svg
        assert path.read_text().startswith("<svg") and path.read_text().count("<polyline") == 4
        outputs = json.loads((out / "manifest.json").read_text())["outputs"]
        assert outputs[str(path)] == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_sweep_manifest_records_each_diverged_cell_and_its_step(self, tmp_path, capsys):
        # at this rate the (0.999, 0.9) cell of seed 0 overflows at step 32; seed 1 runs on
        out = tmp_path / "out"
        assert run("sweep", "--problem", "logistic", "--seeds", "2", "--steps", "40",
                   "--window", "5", "--beta-grid", "0.9,0.999", "--eta", "2e305",
                   "--out", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["observed"] == {"diverged": ["0.999,0.9,0:32"]}
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
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]

    def test_sweep_whose_second_moments_overflow_scores_nothing(self, tmp_path, capsys):
        # every cell's bias-corrected v overflows at step 1, so every cell is diverged there
        # and no grid row can be scored
        out = tmp_path / "out"
        assert run("sweep", "--problem", "quadratic", "--seed-list", "0", "--steps", "2000",
                   "--eta", "3e152", "--out", str(out)) == 2
        assert "no row of the grids can be scored" in capsys.readouterr().err
        axis = ("0.9", "0.99", "0.999")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["observed"] == {"diverged": [f"{b1},{b2},0:1" for b1 in axis
                                                     for b2 in axis]}

    @pytest.mark.parametrize("argv,observed,why", [
        (["exp", "--delta0", "-2", "--h", "3"], {"clamped": False, "abort_t": 1.5},
         "v crossed zero"),
        (["exp", "--delta0", "0.6", "--h", "3"], {"clamped": True, "abort_t": 3.0},
         "v crossed zero"),
        (["exp", "--delta0", "30"], {"clamped": True, "abort_t": 11.82}, "m or v is not finite"),
        (["const", "--scale", "1e200"], {"clamped": False, "abort_t": 0.0},
         "m or v is not finite"),
        (["exp", "--delta0", "1e308"], {"clamped": True, "abort_t": 0.01},
         "m or v is not finite"),
        (["exp", "--tau1", "1e300", "--t-end", "12"], {"clamped": False, "abort_t": 0.0},
         "||R|| is not finite"),
        (["sin-log", "--omega", "1e300"], {"clamped": True, "abort_t": 0.0},
         "||R|| is not finite"),
        (["sin-log", "--omega", "1e308"], {"clamped": True, "abort_t": 1.8},
         "m or v is not finite"),
    ], ids=["decaying", "clamped", "overflowed", "init-overflowed", "init-clamped-overflowed",
            "norm-overflowed", "sin-log-norm-overflowed", "sin-log-phase-overflowed"])
    def test_flow_abort_still_writes_the_manifest(self, tmp_path, capsys, argv, observed, why):
        # h three times tau2 makes an RK4 stage of v overshoot below zero; at delta0 = 30,
        # g * g overflows near t = 709.78 / 60, before the default t_end of 15; g * g of the
        # steady init overflows at scale 1e200, and ||R|| squares an R near 5e298 at tau1 1e300
        out = tmp_path / "out"
        assert run("flow", "--signal", *argv, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert f"{why} at t={observed['abort_t']:g}" in err and "Traceback" not in err
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["command"], manifest["observed"], manifest["outputs"]) == (
            "flow", observed, {})
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]

    @pytest.mark.parametrize("argv", [
        ("flow", "--signal", "const", "--scale", "0"),
        ("probe", "--method", "adam", "--g", "1e200", "--lambdas", "2"),
        ("probe", "--step-scale", "--base", "1e160"),
        ("report", "--grid", "g.csv"),
        ("sweep", "--problem", "quadratic", "--seeds", "1", "--steps", str(2 ** 62)),
    ], ids=["flow-init", "probe", "probe-step-scale", "report-grid", "sweep-steps"])
    def test_every_runtime_error_writes_the_manifest_alone(self, tmp_path, monkeypatch, capsys,
                                                            argv):
        # one handler in main writes it, whichever command failed and wherever it did: the
        # flow's init, the probe's step, the step-scale stream check, a CSV parse, a sizing
        monkeypatch.chdir(tmp_path)
        (tmp_path / "g.csv").write_text("beta1,beta2,seed,omega1\n0.9,0.9,0,-1\n")
        out = tmp_path / "out"
        assert run(*argv, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("scale-lab: error: ") and err.count("\n") == 1
        manifest = failure_manifest(out)
        assert (manifest["command"], manifest["observed"]) == (argv[0], {})

    def test_failure_whose_manifest_cannot_be_written_prints_both_lines(self, tmp_path, capsys):
        # the abort's own line comes first; the i/o error of writing the manifest follows
        out = tmp_path / "taken"
        out.write_text("")
        assert run("flow", "--signal", "exp", "--delta0", "30", "--out", str(out)) == 2
        abort, io_error = capsys.readouterr().err.splitlines()
        assert abort == ("scale-lab: error: m or v is not finite at t=11.82: "
                         "the gradient is not finite")
        assert io_error.startswith("scale-lab: i/o error: ") and str(out) in io_error
        assert out.read_text() == ""


@pytest.mark.parametrize("argv", [
    ("probe", "--step-scale", "--steps", str(10 ** 15)),
    ("sweep", "--problem", "mlp", "--steps", str(10 ** 15)),
], ids=["probe-step-scale", "sweep-mlp"])
def test_out_of_memory_is_runtime_error(tmp_path, capsys, argv):
    # the first allocations, 7.1 PiB and 19.2 PiB, exceed any 47-bit address space, so they
    # fail at once even where memory is overcommitted
    out = tmp_path / "out"
    assert run(*argv, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("scale-lab: error: out of memory: ") and "Traceback" not in err
    assert not list(out.glob("*.csv"))
