"""Golden output hashes: CLI outputs stay bit-for-bit what they were.

The sweep and step-scale sha256 values were recorded with the serial
one-cell-at-a-time engine that the lockstep engine replaced; the flow and
probe values with the separate RK4 loops and per-method probe dispatch that
the shared integrator and ``optimizer_step`` replaced; the hashes of every
sweep cell trace and of all nine step-scale traces with the row-wise CSV
writer that the columnar ``write_csv`` replaced (Python 3.11, numpy 2.4
with its bundled OpenBLAS, x86-64).  Any change to the arithmetic of
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
    "cells/trace_0.999_0.999_s0.csv": "ee79030edc14af9b6cbeb7776384aba2f5adfb64236754212c4daa44c03516be",
    "cells/trace_0.999_0.999_s1.csv": "12ae61332af921cdd8fbdddf47691633607dc0aa30b663714f04e0692ac8f2f1",
    "cells/trace_0.999_0.99_s0.csv": "89e315243fd7e03d6d1aa1fa50472883ae8c8a8f7ed6326e9353a5abdfe5af66",
    "cells/trace_0.999_0.99_s1.csv": "da8030cec84e8c60efdfd1417b30626058625f910dde3cb44db53c43925c1318",
    "cells/trace_0.999_0.9_s0.csv": "939020edafc4697440937f12867ed92c693187ada4e027f6ccd82d43900dd92f",
    "cells/trace_0.999_0.9_s1.csv": "fbed3f86497b330611e6dfedc83a915672c27a6045f95f7568f56cb9b73bd145",
    "cells/trace_0.99_0.999_s0.csv": "3e278c4accbf56aba8e006ddf417b88de658acbaab64f987d5584b94fc66cd76",
    "cells/trace_0.99_0.999_s1.csv": "801ac27e27b6f38d31f2ea92e341059515185817b91e1444c774da5433843d90",
    "cells/trace_0.99_0.99_s0.csv": "bc34a8934dd18136fe950660592c30c7c72e1cb74187bda5a97c7eb3b5a3af6a",
    "cells/trace_0.99_0.99_s1.csv": "23d611634c718729ddfa57a484ed57c3be22beb80856b6b8bc7599b375890f4c",
    "cells/trace_0.99_0.9_s0.csv": "e81b1475c4dfb559b6be3e16c0d3fe81006bd48ccbd0fa30fd375c62d90fc015",
    "cells/trace_0.99_0.9_s1.csv": "7857d361d2a5117331b73606698010d1b667dcfe150a5ab96420df92468d067e",
    "cells/trace_0.9_0.999_s0.csv": "37e3e7b99328f9229e1fab8306378c4ce5bad9c313be540f4015ac618bbdd9de",
    "cells/trace_0.9_0.999_s1.csv": "2b4dde0e029e7d4ad69bb57d3e1c20242a05dc2d7f8766bdacf316dd255fa247",
    "cells/trace_0.9_0.99_s0.csv": "33dd202bea59d926b96a9b4ed7471edab8c68dd9458599d02ef91aa8e278417d",
    "cells/trace_0.9_0.99_s1.csv": "7ea29107766988b1c2ca07e96b33f388dba639d4a97acebbfbf1f16047207985",
    "cells/trace_0.9_0.9_s0.csv": "43ae2152019e71164dba8a8a08414cbff09a12e96091545f92824030c008d7df",
    "cells/trace_0.9_0.9_s1.csv": "023750770ccf2429e66dc8560c5f4eaa55097275031f368b2c21ebaeb3862760",
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


def test_mlp_sweep_outputs_match_golden_hashes(tmp_path):
    assert main(["sweep", "--problem", "mlp", "--seeds", "2", "--steps", "80",
                 "--window", "10", "--out", str(tmp_path)]) == 0
    written = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*.csv"))
    assert written == sorted(SWEEP_HASHES)
    for name, digest in SWEEP_HASHES.items():
        assert sha256(tmp_path / name) == digest, name


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
# before the ladder ran its rates as the columns of one flow.
LADDER_REPRS = {
    (1.0, 1.0): (
        "SensitivityFit(slope=1.9370159894309673, coefficient=0.00019058466496080229, "
        "delta0_grid=[0.01, 0.02, 0.04, 0.08], deviations=[4.901595052031471e-05, "
        "0.0001922521087820428, 0.0007399186046083139, 0.002747258549044007], "
        "signed_deviations=[-4.901595052031471e-05, -0.0001922521087820428, "
        "-0.0007399186046083139, -0.002747258549044007])",
        "RemainderReport(channels={'m': RemainderChannel(max_abs=0.018162094083978175, "
        "constant=2.781910793668846, bound_margin=0.001849784176098556, "
        "bound_sup=0.020148473911348583), 'v': RemainderChannel(max_abs=0.2073010862414879, "
        "constant=31.75256810629594, bound_margin=0.03803287056324817, "
        "bound_sup=0.24700853982854443), 'R': RemainderChannel(max_abs=0.002747271141953944, "
        "constant=0.4208029761104831, bound_margin=None, bound_sup=None)}, "
        "profile=DriftProfile(lambda_bound=0.0808, lambda_prime_bound=0.0, interval=(10.0, 14.0)), "
        "window=(10.0, 14.0), fitted_order=1.9370179733382042)"),
    (1.0, 2.0): (
        "SensitivityFit(slope=0.9067386926020659, coefficient=0.9986960966178793, "
        "delta0_grid=[0.01, 0.02, 0.04, 0.08], deviations=[0.00970683475856493, "
        "0.018853417101902137, 0.03560861793153425, 0.06380789802638898], "
        "signed_deviations=[0.00970683475856493, 0.018853417101902137, "
        "0.03560861793153425, 0.06380789802638898])",
        "RemainderReport(channels={'m': RemainderChannel(max_abs=0.055664185496189234, "
        "constant=8.526153302401301, bound_margin=0.005661492886756145, "
        "bound_sup=0.06132569773754927), 'v': RemainderChannel(max_abs=6.844871513366179, "
        "constant=1048.4375786329433, bound_margin=2.37226057996587, "
        "bound_sup=9.232862006443009), 'R': RemainderChannel(max_abs=0.016192101973611095, "
        "constant=2.480164624425776, bound_margin=None, bound_sup=None)}, "
        "profile=DriftProfile(lambda_bound=0.0808, lambda_prime_bound=0.0, interval=(20.0, 28.0)), "
        "window=(20.0, 28.0), fitted_order=1.9299631616771502)"),
}


@pytest.mark.parametrize("taus", list(LADDER_REPRS), ids=lambda t: f"tau{t[0]:g},{t[1]:g}")
def test_ladder_results_match_golden_reprs(taus):
    ts = TimeScales(*taus)
    sensitivity, remainder = LADDER_REPRS[taus]
    assert repr(first_order_sensitivity(ts, LADDER)) == sensitivity
    assert repr(remainder_order_sweep(ts, LADDER)) == remainder
