"""The test configuration and the tools: a failing property test fails without ending the
run, the package imports nothing but the standard library and numpy, and
``tools/bench_record.py`` rejects a malformed plan before it exports a commit and by default
runs the ten pairs of every workload that its gain rule needs."""

import ast
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_always_fails(x):
    assert False


def test_passes():
    pass
"""


def test_failing_given_test_does_not_abort_the_run(tmp_path):
    pytest.importorskip("hypothesis")
    # hypothesis's pytest plugin reports a failing @given test through libcst where it is
    # installed; no warning on that path may turn into an INTERNALERROR (exit 3) that ends
    # the run before the passing test after it
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_property.py"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout


def test_package_imports_only_the_standard_library_and_numpy():
    # numpy is the one runtime dependency in pyproject.toml; a package installed beside it
    # (scipy is, on some hosts) would pass every test here and fail on a clean install
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    for path in sorted((ROOT / "src" / "scale_lab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:  # a relative import stays inside the package
                continue
            for name in names:
                where = f"{path.name}:{node.lineno}"
                assert name.partition(".")[0] in allowed, f"{where} imports {name}"


MALFORMED = "error: --pairs items are workload=count"


@pytest.fixture
def bench_record():
    path = ROOT / "tools" / "bench_record.py"
    spec = importlib.util.spec_from_file_location("bench_record", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("pairs,error", [
    ("sweep", MALFORMED), ("sweep=x", MALFORMED), ("sweep=-3", MALFORMED),
    ("nosuch=3", MALFORMED), ("sweep=4,", MALFORMED),
    ("sweep=3,flow=2,sweep=5", "error: --pairs repeats a workload"),
], ids=["no-count", "text-count", "negative-count", "unknown", "empty", "repeated"])
def test_bench_record_rejects_a_malformed_pairs_plan_before_any_export(bench_record, monkeypatch,
                                                                       capsys, pairs, error):
    exported = []
    monkeypatch.setattr(bench_record, "_export", lambda ref, into: exported.append(ref))
    monkeypatch.setattr(sys, "argv", ["bench_record.py", "--parent", "HEAD", "--change", "HEAD",
                                      "--out", "unused.json", "--pairs", pairs])
    with pytest.raises(SystemExit) as exit_:
        bench_record.main()
    assert exit_.value.code == 2 and not exported
    err = capsys.readouterr().err
    assert error in err and repr(pairs.split(",")[-1]) in err


def test_bench_record_defaults_to_ten_pairs_of_every_workload(bench_record, monkeypatch,
                                                             tmp_path):
    # every parent metric spreads over 10.0..10.3 (IQR 0.175): the change wins every pair by 1.0
    # on wall_rel and by 0.01 on cpu_rel, a median gap inside that IQR; every other metric ties
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in benchmark["workloads"]]
    runs = []

    def fake_bench(checkout, workload, seed, seconds):
        side, i = checkout.name, sum(r[:2] == (checkout.name, workload) for r in runs)
        runs.append((side, workload, i))
        base = 10.0 + 0.1 * (i % 4)
        values = {m["name"]: base for m in benchmark["end_to_end"]}
        if side == "change":
            values.update(wall_rel=base - 1.0, cpu_rel=base - 0.01)
        return {"detail": {"digest": "same", "environment": {"src_loc": 1}},
                "result": {"correct": True,
                           "metrics": {k: {"value": v} for k, v in values.items()}}}

    monkeypatch.setattr(bench_record, "_export", lambda ref, into: f"sha-{into.name}")
    monkeypatch.setattr(bench_record, "_bench", fake_bench)
    out = tmp_path / "record.json"
    monkeypatch.setattr(sys, "argv", ["bench_record.py", "--parent", "A", "--change", "B",
                                      "--out", str(out)])
    assert bench_record.main() == 0
    record = json.loads(out.read_text())
    assert sorted(record["workloads"]) == sorted(workloads)
    for workload in workloads:
        # pair i runs the parent first when i is even
        assert [(s, i) for s, w, i in runs if w == workload] == [
            (side, i) for i in range(10)
            for side in (("parent", "change") if i % 2 == 0 else ("change", "parent"))]
        summary = record["workloads"][workload]["summary"]
        assert {s["pairs"] for s in summary.values()} == {10}
        assert {k: (s["change_wins"], s["gain_rule_holds"]) for k, s in summary.items()} == {
            m["name"]: {"wall_rel": (10, True), "cpu_rel": (10, False)}.get(m["name"], (0, False))
            for m in benchmark["end_to_end"]}
