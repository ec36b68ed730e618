import numpy as np
import pytest

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
