"""Golden output hashes: CLI outputs stay bit-for-bit what they were.

The sweep and step-scale sha256 values were recorded with the serial
one-cell-at-a-time engine that the lockstep engine replaced; the flow and
probe values with the separate RK4 loops and per-method probe dispatch that
the shared integrator and ``optimizer_step`` replaced (Python 3.11, numpy
2.4 with its bundled OpenBLAS, x86-64).  Any change to the arithmetic of
training, the optimizers, the flow, the drift expansion or the CSV writers
shows up here as a hash mismatch.  The BLAS kernels decide the last bits,
so another numpy build or CPU may need the values re-recorded.
"""

import hashlib

import pytest

from scale_lab.cli import main

SWEEP_HASHES = {
    "grid.csv": "80eaef49f00beff2d43a44152dc5925fdd47c2f94c5d3cfcfa76f121671f849f",
    "summary.csv": "ce30fd5a401e2dffb13538af8faa1a08094365e85b74e4fac3ab80f34afd6240",
    "cells/trace_0.9_0.999_s0.csv": "37e3e7b99328f9229e1fab8306378c4ce5bad9c313be540f4015ac618bbdd9de",
    "cells/trace_0.99_0.99_s1.csv": "23d611634c718729ddfa57a484ed57c3be22beb80856b6b8bc7599b375890f4c",
}

STEP_SCALE_HASHES = {
    "stepscale_summary.csv": "179231629d29c7a7e6120fd47f1b98d1ae53ce2439274805fafc2fde102843aa",
    "stepscale_0.9_0.999.csv": "defd9a02af5b7a081fe24459993b9e2e499aaef0907c3944c341f5c2aada1d40",
}


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_mlp_sweep_outputs_match_golden_hashes(tmp_path):
    assert main(["sweep", "--problem", "mlp", "--seeds", "2", "--steps", "80",
                 "--window", "10", "--out", str(tmp_path)]) == 0
    for name, digest in SWEEP_HASHES.items():
        assert sha256(tmp_path / name) == digest, name


def test_step_scale_probe_outputs_match_golden_hashes(tmp_path):
    assert main(["probe", "--step-scale", "--steps", "2000", "--out", str(tmp_path)]) == 0
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
