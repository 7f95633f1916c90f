"""The CSV writer's byte contract on small hand-made tables."""

import numpy as np
import pytest

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
