"""The one CSV table format of the package's result files.

Floats (numpy floats included) are written as ``%.17g``, which round-trips
every double exactly; other values are written through ``str``.  Lines end
in ``\\r\\n``, the ``csv`` module's default.  Dataset CSVs are free-form
numeric matrices and are read by ``dataspec.load_dataset_csv`` instead.
"""

from __future__ import annotations

import csv

import numpy as np

from .errors import SchemaError


def _cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return f"{value:.17g}"
    return str(value)


def write_table(path, header, rows) -> None:
    """Write a header row, then one row per item of rows."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows([_cell(v) for v in row] for row in rows)


def read_table(path, header) -> list[list[str]]:
    """Data rows, as strings, of a table whose header names are ``header``.

    Header names are compared without surrounding spaces; blank lines are
    skipped.  A different header, or a row whose width differs from the
    header's, raises SchemaError.
    """
    header = list(header)
    with open(path, newline="") as f:
        reader = csv.reader(f)
        found = next(reader, None)
        if found is None or [h.strip() for h in found] != header:
            raise SchemaError(f"{path}: expected header {','.join(header)}")
        rows = [row for row in reader if row]
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise SchemaError(
                f"{path}: data row {i + 1} has {len(row)} fields, expected {len(header)}")
    return rows
