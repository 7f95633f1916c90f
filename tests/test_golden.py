"""Golden output hashes: CLI outputs stay bit-for-bit what they were before lockstep batching.

The sha256 values were recorded with the serial one-cell-at-a-time engine
that the lockstep engine replaced (Python 3.11, numpy 2.4 with its bundled
OpenBLAS, x86-64).  Any change to the arithmetic of training, the
optimizers or the CSV writers shows up here as a hash mismatch.  The BLAS
kernels decide the last bits, so another numpy build or CPU may need the
values re-recorded from a run of the serial engine.
"""

import hashlib

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
