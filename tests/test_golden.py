"""Golden output hashes: CLI outputs stay bit-for-bit what they were.

The sweep and step-scale sha256 values were recorded with the serial
one-cell-at-a-time engine that the lockstep engine replaced; the flow and
probe values with the separate RK4 loops and per-method probe dispatch that
the shared integrator and ``optimizer_step`` replaced; the hashes of all
nine step-scale traces with the row-wise CSV writer that the columnar
``write_csv`` replaced; the hashes of every sweep cell trace when the
trace's loss column went from every step to every 10th; the logistic sweep
values with the masked sigmoid, fancy-index minibatch gather and stacked
one-step Adam call that the lean training step replaced (Python 3.11, numpy
2.4 with its bundled OpenBLAS, x86-64).  Any change to the arithmetic of
training, the optimizers, the flow, the drift expansion or the CSV writers
shows up here as a hash mismatch.  The BLAS kernels decide the last bits,
so another numpy build or CPU may need the values re-recorded.
"""

import hashlib

import pytest

from scale_lab import TimeScales, first_order_sensitivity, remainder_order_sweep
from scale_lab.cli import main

SWEEP_HASHES = {
    "grid.csv": "80eaef49f00beff2d43a44152dc5925fdd47c2f94c5d3cfcfa76f121671f849f",
    "summary.csv": "ce30fd5a401e2dffb13538af8faa1a08094365e85b74e4fac3ab80f34afd6240",
    "cells/trace_0.999_0.999_s0.csv": "59bde227a896f42040d7bc88e269845e57665c896b5d82eed8f5b821d09774ab",
    "cells/trace_0.999_0.999_s1.csv": "9ca80d47705f133dff4be9f4cefaa13cfb9d712eeaec0c2f6005615914280ca3",
    "cells/trace_0.999_0.99_s0.csv": "170fb13319c5b99cf19a092cf498b2db41b35abd4c8c6f0afd46cf23627fd5c1",
    "cells/trace_0.999_0.99_s1.csv": "fb59d0e661b7c916e89c80837e708dc3b8ddb1094228e80bf884bc3c1b90ebd7",
    "cells/trace_0.999_0.9_s0.csv": "4ba096db1ac6803dfd9f10716aced3f84f3dd6c3db159823bebda585639aadfa",
    "cells/trace_0.999_0.9_s1.csv": "ac62882afe725f1840414474c1dfab7699468384beed849658ec8c26a79b957e",
    "cells/trace_0.99_0.999_s0.csv": "57c004fa143a9bafe9756de40217d06e3a04f37d6a91099048ec26bbbe303212",
    "cells/trace_0.99_0.999_s1.csv": "70f701b81db19e8112ffd32df600251f8b15e5f912d998bbab73164887ae75ac",
    "cells/trace_0.99_0.99_s0.csv": "2cfd4c4be94726ad81abf295b37e5ac14b1469286e43c2f1f4c4de569c3f931b",
    "cells/trace_0.99_0.99_s1.csv": "b977c14a50fe62b80e0642f3b690b268ad6ea5b58125c57a42f38d20e9b258f8",
    "cells/trace_0.99_0.9_s0.csv": "1d0f7385925121c689073a20a8ff39865329735962103f098f6794d4989776cf",
    "cells/trace_0.99_0.9_s1.csv": "5123c06a0ac3485b233f435920495540146d5e7b5c92dc3ba98f57f0800bbe1b",
    "cells/trace_0.9_0.999_s0.csv": "f354612dd36f984cdc08b08639ffd2481c28c9ae210c292b7e93c00a50a59ab7",
    "cells/trace_0.9_0.999_s1.csv": "d1b58fdb683d8fe2b8516c5e0cc0a1b7b2d0b1ffb1abe5550d94b1330c5a41f7",
    "cells/trace_0.9_0.99_s0.csv": "dcc64d42386ef812fbef0e631a4aa01d16265615ac5f615261a33b46f31df893",
    "cells/trace_0.9_0.99_s1.csv": "d3f454fb13ce3506f3664238bfc1576d37b456ca6ad2a8fcdb756bc2be9daba6",
    "cells/trace_0.9_0.9_s0.csv": "01d6c3114eee9366d05557479d5db9172da700292a704c0de129b81a6b610599",
    "cells/trace_0.9_0.9_s1.csv": "4c134d3b893eabcd0629557a698050e643ab7ccfd5c347a3386c8507fb1e9b82",
}

LOGISTIC_SWEEP_HASHES = {
    "grid.csv": "9221bbed4dafdab4fae81ba4d6b506c606ffa13fa88fe81a9caef8864d455c79",
    "summary.csv": "ce30fd5a401e2dffb13538af8faa1a08094365e85b74e4fac3ab80f34afd6240",
    "cells/trace_0.999_0.999_s0.csv": "5920051f1a6ddf701538f35bbe979bacc4fc397f033f7211318b2908846cec4e",
    "cells/trace_0.999_0.999_s1.csv": "6f3fb1331afd79509def9e6971f7d91d7704c7bf9530ec6391c7851a915c6a52",
    "cells/trace_0.999_0.99_s0.csv": "a2510f16789b72b5379bee90920568cc796694514651d6eacd12be1964fdfe24",
    "cells/trace_0.999_0.99_s1.csv": "156354a2643d13a511b31e298bc1dfd6c95bb2af03278b73691a2b2bd58c3f2f",
    "cells/trace_0.999_0.9_s0.csv": "fcdef8c12ea001a29aa47cda9015f61c2cb8946b8f62d551d018ef12ba390d9d",
    "cells/trace_0.999_0.9_s1.csv": "c7e6a7693d6c9c2e4c8c747d4b123ce557069e3adb635bfa3642779016d9ad17",
    "cells/trace_0.99_0.999_s0.csv": "7b8143ff01af6b088aa54861585de1e306f505d04992cb821a8cea54c966ab6b",
    "cells/trace_0.99_0.999_s1.csv": "4a9ff6c53a5629e793108e25989b4687e1c63aa048762e5915ce2050126429eb",
    "cells/trace_0.99_0.99_s0.csv": "f5f2390989344bf020548c04347dd78125d02773ea4f2f812b1e582006b66b50",
    "cells/trace_0.99_0.99_s1.csv": "4df0ed4afab18d170c45d10d9cf43ffe3976b2f3bf08ea0fa8d779db2e1f3189",
    "cells/trace_0.99_0.9_s0.csv": "0258c47c61301e2308df904ceb1058d365012e12f39e59ea294602709420858a",
    "cells/trace_0.99_0.9_s1.csv": "e711fa390e597b8592841eefe1c809919dd6c85d4b4550d38c65333300bf60c7",
    "cells/trace_0.9_0.999_s0.csv": "11aa6b2b83932a2ba5d9f6853078507e3d0b80169dd9b8db7eddefe5d4aa9170",
    "cells/trace_0.9_0.999_s1.csv": "fbbf8e2dd464a28788ca79c542fed8970d04212f7bd68f351aaeb767adc1bc68",
    "cells/trace_0.9_0.99_s0.csv": "5fa9390def0db15b19c8b3bb6ff42be75ce26689484a269cb4abae5e42cd5f1a",
    "cells/trace_0.9_0.99_s1.csv": "ef7064197d7947ced7b7624285b649c47675dfd7d352d38b9b0d2095a381e1b0",
    "cells/trace_0.9_0.9_s0.csv": "206a3e963628ec778c6d63b19a7fe5216cb4436bdcfb9b6ac33e5e2de3108086",
    "cells/trace_0.9_0.9_s1.csv": "18e81f70bd835b1d17edfff1f7eb4d93ab143a9baae81516f0a78afe86b83c90",
}

STEP_SCALE_HASHES = {
    "stepscale_summary.csv": "179231629d29c7a7e6120fd47f1b98d1ae53ce2439274805fafc2fde102843aa",
    "stepscale_0.999_0.9.csv": "b28f991b0a2c1f06f8b8c4d0f516d0475bc9f5ac70131e8b91c90b2699859360",
    "stepscale_0.999_0.99.csv": "bc11fc5bd1d2de24c0b3645ad088fe418a5c4e0b75d9de0e526c3faafc90b81a",
    "stepscale_0.999_0.999.csv": "e8985a7262607e5cf3751cb4a184ea933fafb9b62fe4c8eaa57705321d9fa335",
    "stepscale_0.99_0.9.csv": "f9824a5dae7ef74c1fda3c78e20ff2b2e8ff0259eda6843fd451a807eb711f2b",
    "stepscale_0.99_0.99.csv": "070cbbbcc8447a3320b1cb75aa7c900a2c6e938aeed3927a143e6c6db76d836a",
    "stepscale_0.99_0.999.csv": "ba488430e1253b3511f61df62808cc64ac60412536313236a68db55a3f1ca097",
    "stepscale_0.9_0.9.csv": "4d752e366562dfc986ada2027386043f8895ba21546ef02085b06bdca38936d7",
    "stepscale_0.9_0.99.csv": "708c58555056af4a55239a75a6acb2a4b005878355f850bdc7ea357f8e0de2e1",
    "stepscale_0.9_0.999.csv": "defd9a02af5b7a081fe24459993b9e2e499aaef0907c3944c341f5c2aada1d40",
}


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_sweep_hashes(out, problem, hashes):
    assert main(["sweep", "--problem", problem, "--seeds", "2", "--steps", "80",
                 "--window", "10", "--out", str(out)]) == 0
    written = sorted(str(p.relative_to(out)) for p in out.rglob("*.csv"))
    assert written == sorted(hashes)
    for name, digest in hashes.items():
        assert sha256(out / name) == digest, name


def test_mlp_sweep_outputs_match_golden_hashes(tmp_path):
    check_sweep_hashes(tmp_path, "mlp", SWEEP_HASHES)


def test_logistic_sweep_outputs_match_golden_hashes(tmp_path):
    check_sweep_hashes(tmp_path, "logistic", LOGISTIC_SWEEP_HASHES)


def test_step_scale_probe_outputs_match_golden_hashes(tmp_path):
    assert main(["probe", "--step-scale", "--steps", "2000", "--out", str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == sorted(STEP_SCALE_HASHES)
    for name, digest in STEP_SCALE_HASHES.items():
        assert sha256(tmp_path / name) == digest, name


FLOW_HASHES = {
    ("--signal", "exp"): (
        "6e7c8c7a7c968844c7c0d54b1f289e2bf1df169ea5b935cccb6fefa1d9814216",
        "a629f92d177a68fffc82dc3709cded27b4e45d79520972234b795cd2a2e9851a"),
    ("--signal", "sin-log"): (
        "b25b2888dcc4bc3f6371ff763c8b9109eaf41d9c446201b6d67cdc90e11f4b4e",
        "7e7ed107438e7a2cdb12d79c43d689b7dbac0416b59e5e58880891f5a7d22167"),
    ("--signal", "const"): (
        "951fce8d2ccc2e63393778254cb78195fe992d4540741394b080624804ba83f4",
        "504014b3f49fcc5c808e008107f9a68d3f649a257634473ead4006d4db6a5c19"),
    ("--signal", "exp", "--tau1", "1", "--tau2", "2"): (
        "9af21681fa6ce0103ce1406e6b779412fe6736816eabc41ba7cd1d6c6954e878",
        "cb4aabc5d9ef4317b2db3e57c4eb089c02b16a147e8952105e1cdc67193f83dc"),
}

PROBE_HASHES = {
    ("--method", "adam", "--g", "1,-2,0.5", "--m", "0.3,-1,0.1", "--v", "1,4,0.5",
     "--k", "3", "--beta1", "0.9", "--beta2", "0.99", "--bias-correction"):
        "41d9436fe33c3111e33bc4dd3bfb1cf1cde3328b7aab2facb190f5a23586db23",
    ("--method", "gd", "--g", "1,-2,0.5"):
        "b9bb90a62e2088598ca0b0ae2419e03974d74f5d553b0208354799a385b67834",
    ("--method", "signsgd", "--g", "1,-2,0.5"):
        "8580ca314f53ab493fd79387c2090adde99b94e2152b249a184de5102970b6cc",
}


@pytest.mark.parametrize("flags", list(FLOW_HASHES), ids=" ".join)
def test_flow_outputs_match_golden_hashes(tmp_path, flags):
    assert main(["flow", *flags, "--out", str(tmp_path)]) == 0
    trace, remainder = FLOW_HASHES[flags]
    assert sha256(tmp_path / "trace.csv") == trace
    assert sha256(tmp_path / "remainder.csv") == remainder


@pytest.mark.parametrize("flags", list(PROBE_HASHES), ids=lambda f: f[1])
def test_probe_outputs_match_golden_hashes(tmp_path, flags):
    assert main(["probe", *flags, "--out", str(tmp_path)]) == 0
    assert sha256(tmp_path / "probe.csv") == PROBE_HASHES[flags]


LADDER = (0.01, 0.02, 0.04, 0.08)

# repr of the drift-ladder results, recorded with one flow per drift rate
# before the ladder ran its rates as the columns of one flow; the unread
# DriftProfile.interval, RemainderReport.window and SensitivityFit.deviations
# were later cut from them, every number kept.
LADDER_REPRS = {
    (1.0, 1.0): (
        "SensitivityFit(slope=1.9370159894309673, coefficient=0.00019058466496080229, "
        "delta0_grid=[0.01, 0.02, 0.04, 0.08], "
        "signed_deviations=[-4.901595052031471e-05, -0.0001922521087820428, "
        "-0.0007399186046083139, -0.002747258549044007])",
        "RemainderReport(channels={'m': RemainderChannel(max_abs=0.018162094083978175, "
        "constant=2.781910793668846, bound_margin=0.001849784176098556, "
        "bound_sup=0.020148473911348583), 'v': RemainderChannel(max_abs=0.2073010862414879, "
        "constant=31.75256810629594, bound_margin=0.03803287056324817, "
        "bound_sup=0.24700853982854443), 'R': RemainderChannel(max_abs=0.002747271141953944, "
        "constant=0.4208029761104831, bound_margin=None, bound_sup=None)}, "
        "profile=DriftProfile(lambda_bound=0.0808, lambda_prime_bound=0.0), "
        "fitted_order=1.9370179733382042)"),
    (1.0, 2.0): (
        "SensitivityFit(slope=0.9067386926020659, coefficient=0.9986960966178793, "
        "delta0_grid=[0.01, 0.02, 0.04, 0.08], "
        "signed_deviations=[0.00970683475856493, 0.018853417101902137, "
        "0.03560861793153425, 0.06380789802638898])",
        "RemainderReport(channels={'m': RemainderChannel(max_abs=0.055664185496189234, "
        "constant=8.526153302401301, bound_margin=0.005661492886756145, "
        "bound_sup=0.06132569773754927), 'v': RemainderChannel(max_abs=6.844871513366179, "
        "constant=1048.4375786329433, bound_margin=2.37226057996587, "
        "bound_sup=9.232862006443009), 'R': RemainderChannel(max_abs=0.016192101973611095, "
        "constant=2.480164624425776, bound_margin=None, bound_sup=None)}, "
        "profile=DriftProfile(lambda_bound=0.0808, lambda_prime_bound=0.0), "
        "fitted_order=1.9299631616771502)"),
}


@pytest.mark.parametrize("taus", list(LADDER_REPRS), ids=lambda t: f"tau{t[0]:g},{t[1]:g}")
def test_ladder_results_match_golden_reprs(taus):
    ts = TimeScales(*taus)
    sensitivity, remainder = LADDER_REPRS[taus]
    assert repr(first_order_sensitivity(ts, LADDER)) == sensitivity
    assert repr(remainder_order_sweep(ts, LADDER)) == remainder
