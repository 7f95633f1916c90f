"""The test configuration itself: a failing property test fails; it does not end the run."""

import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_always_fails(x):
    assert False


def test_passes():
    pass
"""


def test_failing_given_test_does_not_abort_the_run(tmp_path):
    # hypothesis's pytest plugin reports a failing @given test through libcst where it is
    # installed; no warning on that path may turn into an INTERNALERROR (exit 3) that ends
    # the run before the passing test after it
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_property.py"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
