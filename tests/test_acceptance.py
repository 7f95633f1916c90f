"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and measured values.
"""

import math
import time

import numpy as np
import pytest

from scale_lab import (FlowState, MomentState, OptimizerConfig, TimeScales, adam_step,
                       binomial_diagonal_test, combine_reports, ema_smooth,
                       exact_invariance_probe, exponential_signal,
                       first_order_sensitivity, integrate_flow, make_problem,
                       oscillation_omega1, oscillation_omega2,
                       sinusoidal_log_signal, steady_state_exponential_gains,
                       steady_state_init, step_multipliers, step_scale_cells, sweep_grid,
                       tracking_check)
from scale_lab.reporting import summary_csv


def report(line: str) -> None:
    print(f"\n{line}")


def test_criterion_1_binomial_arithmetic():
    start = time.perf_counter()
    cases = {(3, 3): 0.037037, (9, 9): 5.08e-5, (7, 9): 0.008281}
    got = {kn: binomial_diagonal_test(*kn) for kn in cases}
    for kn, expected in cases.items():
        assert got[kn] == pytest.approx(expected, rel=5e-4)  # 3 significant figures
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(f"ACCEPTANCE 1 PASS: binomial tails {[f'{v:.6g}' for v in got.values()]} "
           f"match published values ({elapsed:.3f}s)")


def test_criterion_2_first_order_invariance_order():
    start = time.perf_counter()
    grid = [0.01, 0.02, 0.04, 0.08]
    balanced = first_order_sensitivity(TimeScales(1.0, 1.0), grid)
    skewed = first_order_sensitivity(TimeScales(1.0, 2.0), grid)
    elapsed = time.perf_counter() - start
    assert balanced.slope == pytest.approx(2.0, abs=0.2)
    assert skewed.slope == pytest.approx(1.0, abs=0.1)
    assert skewed.coefficient == pytest.approx(1.0, abs=0.1)  # |tau2 - tau1| = 1
    assert elapsed < 10.0
    report(f"ACCEPTANCE 2 PASS: slopes {balanced.slope:.3f} (tau equal) / "
           f"{skewed.slope:.3f} (tau 1:2), coefficient {skewed.coefficient:.3f} "
           f"({elapsed:.2f}s)")


def test_criterion_3_tracking_bound_battery():
    start = time.perf_counter()
    tau = 0.5
    battery = {
        "constant": (lambda t: 3.0, lambda t: 0.0, lambda t: 0.0, 0.5),
        "linear": (lambda t: 2.0 + 0.7 * t, lambda t: 0.7, lambda t: 0.0, 0.0),
        "sinusoidal": (np.sin, np.cos, lambda t: -np.sin(t), 0.0),
        "exponential": (lambda t: np.exp(0.2 * t), lambda t: 0.2 * np.exp(0.2 * t),
                        lambda t: 0.04 * np.exp(0.2 * t), 1.0),
    }
    margins = {}
    for name, (y, yp, ypp, x0) in battery.items():
        res = tracking_check(y, tau=tau, x0=x0, interval=(0.0, 20.0 * tau),
                             y_prime=yp, y_second=ypp)
        assert res.passed, f"{name}: margin {res.margin}"
        margins[name] = res.margin
    # zero-curvature signals attain the bound with equality, so their margin
    # sits at floating-point zero; the curved ones must clear it strictly
    assert margins["sinusoidal"] > 0.0
    assert margins["exponential"] > 0.0
    assert margins["constant"] >= -1e-9
    assert margins["linear"] >= -1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report("ACCEPTANCE 3 PASS: tracking bound holds; margins " +
           ", ".join(f"{k}={v:.2e}" for k, v in margins.items()) + f" ({elapsed:.2f}s)")


def test_criterion_4_analytic_oracle_agreement():
    worst = 0.0
    for d0 in (0.01, 0.05, 0.1):
        for taus in [(1.0, 1.0), (1.0, 2.0), (2.0, 1.0)]:
            ts = TimeScales(*taus)
            sig = exponential_signal(d0)
            trace = integrate_flow(sig, ts, steady_state_init(sig, ts),
                                   t_end=ts.burn_in + 2.0 * ts.tau_max)
            gain = steady_state_exponential_gains(d0, ts)[2]
            post = trace.after(ts.burn_in)
            worst = max(worst, float(np.max(np.abs(post.r[:, 0] - gain))))
    assert worst < 1e-6

    # fourth-order step-halving on the pure steady mode
    ts = TimeScales(1.0, 2.0)
    d0 = 0.05
    sig = exponential_signal(d0)
    mg, vg, rg = steady_state_exponential_gains(d0, ts)
    g0 = sig.g(0.0)
    init = FlowState(m=g0 * mg, v=g0 * g0 * vg)
    errs = [float(np.max(np.abs(integrate_flow(sig, ts, init, t_end=30.0, h=h).r[:, 0] - rg)))
            for h in (0.2, 0.1)]
    ratio = errs[0] / errs[1]
    assert 14.0 <= ratio <= 18.0
    report(f"ACCEPTANCE 4 PASS: max post-burn-in gain error {worst:.2e} < 1e-6; "
           f"step-halving error ratio {ratio:.2f} in [14, 18]")


def test_criterion_5_discrete_continuous_consistency():
    def deviation(dt: float) -> float:
        ts = TimeScales(1.0, 2.0, dt=dt)
        sig = sinusoidal_log_signal(amplitude=0.05, omega=0.5)
        init = steady_state_init(sig, ts)
        n = round((ts.burn_in + 8.0 * math.pi) / dt)
        flow = integrate_flow(sig, ts, init, t_end=n * dt, h=dt / 8.0)
        cfg = OptimizerConfig(beta1=ts.beta1, beta2=ts.beta2, eta=dt,
                              epsilon=0.0, bias_correction=False)
        state = MomentState(m=init.m.copy(), v=init.v.copy(), theta=np.zeros_like(init.m))
        r_disc = np.empty(n)
        for k in range(n):
            state, upd = adam_step(state, sig.g(k * dt), cfg)
            r_disc[k] = upd[0]
        t, r = flow.t[::8], flow.r[::8]  # the steps of the discrete run
        keep = t[1:] >= ts.burn_in
        return float(np.max(np.abs(r_disc - r[1:, 0])[keep]))

    d_coarse, d_fine = deviation(0.04), deviation(0.02)
    ratio = d_coarse / d_fine
    assert 1.7 <= ratio <= 2.3
    report(f"ACCEPTANCE 5 PASS: discrete-flow deviation {d_coarse:.2e} -> {d_fine:.2e}, "
           f"halving ratio {ratio:.2f} in [1.7, 2.3]")


def test_criterion_6_definition_one_probes():
    lambdas = np.logspace(-3, 3, 13)
    sign_probe = exact_invariance_probe("signsgd", None, np.array([3.7, -0.01, 2.2]),
                                        lambdas)
    assert all(d < 1e-15 for d in sign_probe.deviations)
    assert sign_probe.classification == "exact-invariant"

    g, gd_lambdas = np.array([1.0, -2.0]), (0.5, 2.0, 3.0, 10.0)
    gd_probe = exact_invariance_probe("gd", None, g, gd_lambdas)
    assert gd_probe.classification == "scale-linear"
    for lam in gd_lambdas:
        assert gd_probe.deviation_at(lam) == abs(lam - 1.0) * float(np.max(np.abs(g)))

    state = MomentState(m=np.array([1.0]), v=np.array([1.0]), theta=np.zeros(1))
    cfg = OptimizerConfig(beta1=0.9, beta2=0.9, epsilon=0.0, bias_correction=False)
    probe = exact_invariance_probe("adam", state, np.array([1.0]), [2.0], cfg)
    r_tilde = 1.0 - probe.deviation_at(2.0)  # R at lambda=1 is exactly 1 here
    assert r_tilde == pytest.approx(0.9647638212377321, abs=1e-9)
    report(f"ACCEPTANCE 6 PASS: signSGD deviations < 1e-15 over lambda in [1e-3, 1e3]; "
           f"GD scale-linear, deviation exact; Adam frozen-state R~ = {r_tilde:.9f}")


def test_criterion_7_step_rescale_transients():
    steps, jump = 32000, 16000
    configs = [OptimizerConfig(beta1=b1, beta2=b2, epsilon=0.0, bias_correction=False)
               for b1, b2 in [(0.95, 0.95), (0.9, 0.999)]]
    balanced, skewed = step_scale_cells(np.ones(1), step_multipliers([(jump, 10.0)], steps),
                                        configs)
    for tr in (balanced, skewed):
        assert tr.norm_r[jump - 1] == pytest.approx(1.0, abs=1e-6)
        assert tr.norm_r[-1] == pytest.approx(1.0, abs=1e-6)
    i_balanced = balanced.transient_integral(jump, reference=1.0)
    i_skewed = skewed.transient_integral(jump, reference=1.0)
    assert i_balanced < i_skewed
    report(f"ACCEPTANCE 7 PASS: x10 rescale transient integral "
           f"{i_balanced:.2f} (0.95,0.95) < {i_skewed:.2f} (0.9,0.999); "
           f"steady states return to 1 +- 1e-6")


def test_criterion_8_desk_scale_pipeline(tmp_path):
    start = time.perf_counter()
    seeds = (0, 1, 2)
    logistic = sweep_grid(make_problem("logistic"), seeds=seeds, steps=5000, window=200)
    mlp = sweep_grid(make_problem("mlp"), seeds=seeds, steps=5000, window=200)
    # determinism: replaying the logistic sweep reproduces the grids bit-exactly
    replay = sweep_grid(make_problem("logistic"), seeds=seeds, steps=5000, window=200)
    for g1, g2 in zip(logistic.report.omega, replay.report.omega):
        assert np.array_equal(g1, g2)

    k, n, p = combine_reports([logistic.report, mlp.report])
    summary_csv(logistic.report, tmp_path / "logistic_summary.csv")
    summary_csv(mlp.report, tmp_path / "mlp_summary.csv")
    elapsed = time.perf_counter() - start
    assert (tmp_path / "logistic_summary.csv").exists()
    assert elapsed < 300.0
    assert n == 18
    assert p < 0.05
    report(f"ACCEPTANCE 8 PASS: logistic K={logistic.report.hits}/9, "
           f"mlp K={mlp.report.hits}/9, combined K={k}/{n}, p={p:.3g} < 0.05 "
           f"({elapsed:.0f}s)")


def test_criterion_9_metric_unit_properties():
    assert oscillation_omega1(np.full(10, 4.2)) == 0.0
    assert oscillation_omega1([0.0, 1.0, 0.0, 1.0, 0.0]) == 1.0
    assert oscillation_omega2(np.arange(10) * 0.5) == 0.0
    x = np.array([0.3, -1.5, 2.25, 1e-9, 8.125])
    assert np.array_equal(ema_smooth(x, 1), x)
    report("ACCEPTANCE 9 PASS: omega1(const)=0, omega1(alternation)=1, "
           "omega2(ramp)=0, EMA window-1 identity (all bit-exact)")
