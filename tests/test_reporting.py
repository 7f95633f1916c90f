"""The CSV writer's byte contract on small hand-made tables, and on families of tables
that share their leading columns."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from scale_lab import reporting
from scale_lab.errors import DomainError
from scale_lab.reporting import write_csv


def test_numpy_scalars_are_written_as_plain_numbers(tmp_path):
    path = write_csv(tmp_path / "s.csv", ["a", "b", "c"],
                     [[np.float64(0.5), np.float64(-0.0)], [np.int64(7), np.int64(-3)],
                      [0.25, 1e-05]])
    assert path.read_bytes() == b"a,b,c\r\n0.5,7,0.25\r\n-0.0,-3,1e-05\r\n"


def test_array_columns_keep_their_dtype_text(tmp_path):
    path = write_csv(tmp_path / "t.csv", ["step", "x", "y"],
                     [np.arange(2), np.array([0.1, np.nan]), np.array([0.1, np.inf], np.float32)])
    assert path.read_bytes() == b"step,x,y\r\n0,0.1,0.10000000149011612\r\n1,nan,inf\r\n"


@pytest.mark.parametrize("header, columns", [
    (["a", "b"], [[1, 2], [3]]),
    (["a"], [[1], [2]]),
    (["a"], [np.zeros((2, 2))]),
    (["a", "b"], [["x,y"], [1]]),
    (["a"], [[""]]),
    (["a"], [[[1.0], [2.0]]]),
], ids=["ragged", "header-width", "2-d", "comma", "lone-empty", "nested-list"])
def test_malformed_tables_are_domain_errors(tmp_path, header, columns):
    with pytest.raises(DomainError):
        write_csv(tmp_path / "bad.csv", header, columns)


@pytest.mark.parametrize("header, columns, named", [
    (["a", "b"], [["ok", "fine", 'x"y', "more", "z,w"], [1, 2, 3, 4, 5]], "'x\"y'"),
    (["a"], [["ok", "fine", "", "more", "z\r\n"]], "''"),
], ids=["quote-before-comma", "lone-empty-before-newline"])
def test_first_bad_field_of_a_block_is_named(tmp_path, header, columns, named):
    # the block is searched once; the error still names its first field at fault
    with pytest.raises(DomainError, match=f"would need quoting: {named}$"):
        write_csv(tmp_path / "bad.csv", header, columns)


# ---------------------------------------------------------------- tables sharing leading columns

BLOCK = reporting._BLOCK_ROWS
# -0.0, both NaN signs, both infinities, the smallest subnormal, a negative subnormal,
# the smallest normal and a few ordinary values, next to arbitrary bit patterns
FLOAT_BITS = np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -1e-310,
                       2.2250738585072014e-308, 1e16, 0.1, 1.0]).view(np.int64).tolist()
float_bits = st.one_of(st.integers(-2**63, 2**63 - 1), st.sampled_from(FLOAT_BITS))


def drawn_column(draw, kind, n):
    if kind == "int":
        return draw(arrays(np.int64, n, elements=st.integers(-2**63, 2**63 - 1)))
    return draw(arrays(np.int64, n, elements=float_bits)).view(np.float64)


@st.composite
def table_families(draw):
    """(shared columns, K tables of own columns): float64 and int64 columns of one length."""
    n = draw(st.sampled_from([0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1]))
    shared_kinds = draw(st.lists(st.sampled_from(["float", "int"]), max_size=2))
    own_kinds = draw(st.lists(st.sampled_from(["float", "int"]),
                              min_size=0 if shared_kinds else 1, max_size=2))
    shared = [drawn_column(draw, kind, n) for kind in shared_kinds]
    tables = [[drawn_column(draw, kind, n) for kind in own_kinds]
              for _ in range(draw(st.integers(1, 4)))]
    return shared, tables


@settings(max_examples=40, deadline=None)
@given(family=table_families())
def test_one_call_writes_the_bytes_of_one_write_csv_per_table(family):
    shared, tables = family
    header = [f"c{i}" for i in range(len(shared) + len(tables[0]))]
    with tempfile.TemporaryDirectory() as tmp:
        together = [Path(tmp) / f"together_{k}.csv" for k in range(len(tables))]
        assert reporting.write_csvs(together, header, shared, tables) == together
        for k, table in enumerate(tables):
            alone = write_csv(Path(tmp) / f"alone_{k}.csv", header, [*shared, *table])
            assert together[k].read_bytes() == alone.read_bytes()


@pytest.fixture
def opened(monkeypatch):
    """Every file handle ``Path.open`` returns while the test runs."""
    handles = []
    real_open = Path.open

    def tracked_open(self, *args, **kwargs):
        handles.append(real_open(self, *args, **kwargs))
        return handles[-1]

    monkeypatch.setattr(Path, "open", tracked_open)
    return handles


def test_a_table_of_another_length_is_named_before_any_file_opens(tmp_path, opened):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    with pytest.raises(DomainError, match=r"got lengths \[3, 3, 2\]"):
        reporting.write_csvs(paths, ["step", "x", "y"], [np.arange(3), np.ones(3)],
                             [[np.zeros(3)], [np.zeros(2)]])
    assert not opened and not any(p.exists() for p in paths)


def test_fewer_tables_than_paths_is_named_before_any_file_opens(tmp_path, opened):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    with pytest.raises(DomainError, match="one table per path: got 1 tables for 2 paths"):
        reporting.write_csvs(paths, ["step", "x"], [np.arange(3)], [[np.zeros(3)]])
    assert not opened and not any(p.exists() for p in paths)


def test_a_shared_field_that_needs_quoting_closes_every_file(tmp_path, opened):
    paths = [tmp_path / f"{k}.csv" for k in range(3)]
    with pytest.raises(DomainError, match="would need quoting: 'a,b'"):
        reporting.write_csvs(paths, ["label", "x"], [["ok", "a,b"]], [[[1.0, 2.0]]] * 3)
    assert len(opened) == 3 and all(fh.closed for fh in opened)
