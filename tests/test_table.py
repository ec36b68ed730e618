import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krr_regimes.errors import SchemaError
from krr_regimes.table import read_table, write_table


def test_write_table_exact_bytes(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, ["i", "f", "f64", "zero", "s"],
                [[3, 0.1, np.float64(1.0) / 3.0, 0.0, "OrangeNoisyReg"]])
    assert path.read_bytes() == (b"i,f,f64,zero,s\r\n"
                                 b"3,0.10000000000000001,0.33333333333333331,0,OrangeNoisyReg\r\n")
    assert read_table(path, ["i", "f", "f64", "zero", "s"]) == [
        ["3", "0.10000000000000001", "0.33333333333333331", "0", "OrangeNoisyReg"]]
    with pytest.raises(SchemaError):
        read_table(path, ["i", "f", "f64", "zero"])


@pytest.mark.parametrize("text", ["a,b,c\n1,1,1\n", "k,eigenvalue,theta_star\n1,1\n",
                                  "k,eigenvalue,theta_star,extra\n1,1,1,1\n",
                                  "k,eigenvalue,theta_star\n1,1,1,1\n"],
                         ids=["wrong-header", "short-row", "extra-column", "long-row"])
def test_read_table_rejects_a_malformed_table(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(SchemaError):
        read_table(path, ["k", "eigenvalue", "theta_star"])


_EXTREMES = (0.0, -0.0, 5e-324, -5e-324, sys.float_info.min, sys.float_info.max,
             -sys.float_info.max, math.inf, -math.inf, math.nan, 0.1, 1.0 / 3.0)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(rows=st.lists(st.lists(st.one_of(st.floats(), st.sampled_from(_EXTREMES)),
                              min_size=3, max_size=3), min_size=1, max_size=5))
def test_write_read_round_trip(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("t") / "t.csv"
    write_table(path, ["a", "b", "c"], rows)
    back = read_table(path, ["a", "b", "c"])
    for row, got in zip(rows, back, strict=True):
        for want, text in zip(row, got, strict=True):
            value = float(text)
            if math.isnan(want):
                assert math.isnan(value)
            else:
                assert value == want and math.copysign(1.0, value) == math.copysign(1.0, want)
